"""Specification tuples (ST, I, O) and their ``spec v1`` text format.

Table columns follow the roster order: io qubits first (io-line order),
then ancillae (init-line order).  ``derive_specification`` derives the
table directly in roster columns, so that a spec file stands alone
without the source circuit.

The table block moves between text and the table's per-qubit column
bitsets in bulk, never through per-row objects.  ``serialize_spec``
writes the letters of many columns at once and cuts each row's text out
of them with one strided slice (``StabiliserTruthTable.format``).
``parse_spec`` joins the block's lines, cuts each qubit's letters out
of the joined text with one strided slice and translates them to x and
z digits; a line it cannot read that way goes through ``row_parse``,
which either normalises it or names what is wrong with it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import (
    BASES,
    IcmCircuit,
    MeasurementRule,
    _parse_measure,
    validate_icm,
)
from .pauli import _X_DIGITS, _Z_DIGITS, PauliError, row_parse
from .table import StabiliserTruthTable, derive_truth_table


class SpecParseError(Exception):
    """Malformed spec; ``line`` is the 1-based line number when known.

    ``source`` is the (directive, qubit id) pair that a ``Specification``
    check blames, which lets ``parse_spec`` find the line.
    """

    def __init__(
        self, message: str, line: int | None = None, source: tuple[str, str] | None = None
    ):
        self.line = line
        self.source = source
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Specification:
    n: int
    io_ids: tuple[str, ...]
    inits: dict[str, str]          # ancilla id -> init basis (the set I), roster order
    table: StabiliserTruthTable    # ST, columns in roster order
    rules: tuple[MeasurementRule, ...]  # O, order-significant

    def __post_init__(self):
        seen: set[str] = set()
        for qid in self.roster():
            if qid in seen:
                raise SpecParseError(f"qubit {qid!r} declared twice", source=("declare", qid))
            seen.add(qid)
        if len(seen) != self.n:
            raise SpecParseError(
                f"qubits line says {self.n} but {len(seen)} qubits are declared",
                source=("qubits", ""),
            )
        if self.table.n != self.n:
            raise SpecParseError(
                f"table is {self.table.n}-qubit but spec declares {self.n}"
            )
        io = set(self.io_ids)
        for rule in self.rules:
            for qid in rule.measured_qubits():
                if qid in io:
                    raise SpecParseError(
                        f"measurement rules name io qubit {qid!r}", source=("measure", qid)
                    )
                if qid not in self.inits:
                    raise SpecParseError(
                        f"measurement rules name undeclared qubit {qid!r}",
                        source=("measure", qid),
                    )

    @property
    def ancilla_order(self) -> tuple[str, ...]:
        """The ancilla ids in roster order, which is the order of ``inits``."""
        return tuple(self.inits)

    def roster(self) -> tuple[str, ...]:
        return self.io_ids + self.ancilla_order


def permute_table(
    t: StabiliserTruthTable, perm: list[int]
) -> StabiliserTruthTable:
    """Move column ``perm[k]`` of every row to column ``k``.

    Each of the four column lists is reordered by ``perm``; rows,
    signs and provenance stay as they are.  The identity permutation
    returns ``t`` itself.
    """
    if list(perm) == list(range(t.n)):
        return t
    return StabiliserTruthTable.from_columns(
        t.n, t.nrows,
        *([cols[k] for k in perm] for cols in (t.in_x, t.in_z, t.out_x, t.out_z)),
        t.signs, t.provenance,
    )


def derive_specification(c: IcmCircuit) -> Specification:
    violations = validate_icm(c)
    if violations:
        raise SpecParseError(
            "circuit fails ICM validation: " + "; ".join(v.message for v in violations)
        )
    io = list(c.io_ids())
    anc = [q.id for q in c.qubits if q.kind != "io"]
    table = derive_truth_table(c, io + anc)
    inits = {q.id: q.init for q in c.qubits if q.kind != "io"}
    anc_set = set(anc)
    rules = tuple(
        r for r in c.rules if all(q in anc_set for q in r.measured_qubits())
    )
    return Specification(c.n, tuple(io), inits, table, rules)


def serialize_spec(s: Specification) -> str:
    out = ["spec v1", f"qubits {s.n}"]
    if s.io_ids:
        out.append("io " + " ".join(s.io_ids))
    for qid in s.ancilla_order:
        out.append(f"init {qid} {s.inits[qid]}")
    out.append("table")
    if s.table.nrows:
        out.append(s.table.format())
    out.append("end")
    for rule in s.rules:
        out.append(rule.format())
    out.append("")  # the final newline, without copying the text again
    return "\n".join(out)


def _plain_block(lines: list[str], n: int) -> str | None:
    """The lines joined, if each reads ``s L...L -> L...L`` (a sign and
    twice n letters); otherwise None."""
    w, r = 2 * n + 6, len(lines)
    if set(map(len, lines)) - {w}:
        return None
    block = "".join(lines)
    plain = (
        not block[::w].strip("+-")
        and block[1::w] == block[n + 2::w] == block[n + 5::w] == " " * r
        and block[n + 3::w] == "-" * r
        and block[n + 4::w] == ">" * r
        # the checks above leave only the 2n letter places for the letters
        and sum(map(block.count, "IXYZ")) == 2 * n * r
    )
    return block if plain else None


def _read_table(entries: list[tuple[int, str]], n: int) -> StabiliserTruthTable:
    """The table of the block's (line number, text) entries, all rows at once.

    Rows go in blocks of 1024, which keeps the strided slices within the
    processor caches and the temporary text small; on a 2-vCPU x86-64
    virtual machine one block of 4800 rows of 4000 qubits took 1.2-1.4x
    as long.
    """
    w, r = 2 * n + 6, len(entries)
    signs, xs, zs = 0, [0] * (2 * n), [0] * (2 * n)  # input qubits, then output
    for top in range(0, r, 1024):
        chunk = entries[top:top + 1024]
        lines = [text for _, text in chunk]
        block = _plain_block(lines, n)
        if block is None:
            for k, (lineno, text) in enumerate(chunk):
                if _plain_block([text], n) is None:
                    try:
                        lines[k] = row_parse(text, n).format()
                    except PauliError as exc:
                        raise SpecParseError(str(exc), lineno) from exc
            block = "".join(lines)
        last = len(block) - w  # each slice runs from the block's last row up
        signs |= int(block[last::-w].replace("+", "0").replace("-", "1"), 2) << top
        bits = [
            (int(letters.translate(_X_DIGITS), 2), int(letters.translate(_Z_DIGITS), 2))
            for letters in (block[last + first + k::-w] for first in (2, n + 6) for k in range(n))
        ]
        xs = [c | x << top for c, (x, _) in zip(xs, bits)]
        zs = [c | z << top for c, (_, z) in zip(zs, bits)]
    return StabiliserTruthTable.from_columns(n, r, xs[:n], zs[:n], xs[n:], zs[n:], signs)


def parse_spec(text: str) -> Specification:
    n: int | None = None
    io: list[str] = []
    inits: dict[str, str] = {}
    lines: dict[tuple[str, str], int] = {}  # (directive, qubit id) -> line
    entries: list[tuple[int, str]] = []  # the table block's lines
    table: StabiliserTruthTable | None = None
    rules: list[MeasurementRule] = []
    in_table = False
    header_seen = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if not header_seen:
            if stripped != "spec v1":
                raise SpecParseError("expected 'spec v1' header", lineno)
            header_seen = True
            continue
        if in_table:
            if stripped == "end":
                in_table = False
                table = _read_table(entries, table_n)
            else:
                entries.append((lineno, stripped))
            continue
        parts = stripped.split()
        kw = parts[0]
        if kw == "qubits":
            if len(parts) != 2 or not parts[1].isdigit():
                raise SpecParseError("expected 'qubits <N>'", lineno)
            n = int(parts[1])
            lines["qubits", ""] = lineno
        elif kw == "io":
            io.extend(parts[1:])
            lines.update((("declare", qid), lineno) for qid in parts[1:])
        elif kw == "init":
            if len(parts) != 3:
                raise SpecParseError("expected 'init <id> <basis>'", lineno)
            if parts[2] not in BASES:
                raise SpecParseError(f"unknown basis {parts[2]!r}", lineno)
            if parts[1] in inits:
                raise SpecParseError(f"duplicate init for {parts[1]!r}", lineno)
            inits[parts[1]] = parts[2]
            lines["declare", parts[1]] = lineno
        elif kw == "table":
            if n is None:
                raise SpecParseError("'table' before 'qubits'", lineno)
            if table is not None:
                raise SpecParseError("duplicate table block", lineno)
            in_table = True
            table_n = n
        elif kw == "measure":
            # ids are checked against the roster once the spec is built
            rules.append(
                _parse_measure(parts, lineno, lambda qid, _ln: qid, SpecParseError)
            )
            for qid in rules[-1].measured_qubits():
                lines.setdefault(("measure", qid), lineno)
        else:
            raise SpecParseError(f"unknown directive {kw!r}", lineno)

    if n is None:
        raise SpecParseError("missing 'qubits' line")
    if in_table:
        _read_table(entries, table_n)  # a bad row is named before the missing end
        raise SpecParseError("table block not closed with 'end'")
    try:
        return Specification(
            n, tuple(io), inits, StabiliserTruthTable(n) if table is None else table,
            tuple(rules),
        )
    except SpecParseError as exc:
        raise SpecParseError(str(exc), lines.get(exc.source)) from None
