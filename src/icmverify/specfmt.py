"""Specification tuples (ST, I, O) and their ``spec v1`` text format.

Table columns follow the roster order: io qubits first (io-line order),
then ancillae (init-line order).  ``derive_specification`` derives the
table directly in roster columns, so that a spec file stands alone
without the source circuit.

The table block moves between text and the table's per-qubit column
bitsets in bulk, never through per-row objects.  Both directions pack a
block of rows eight to a byte: byte j*w + k holds, as its bit t, the bit
of row 8j + t at place k of a w-byte row text.  ``serialize_spec`` packs
the columns so and writes every eighth row with one ``bytes.translate``
(``StabiliserTruthTable.format``).  ``parse_spec`` packs every eighth
row's x digits and z digits so and reads each qubit's column as every
w-th byte; a line it cannot read that way goes through ``row_parse``,
which either normalises it or names what is wrong with it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import (
    BASES,
    IcmCircuit,
    MeasurementRule,
    _parse_measure,
)
from .pauli import PauliError, row_parse
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
        _check_roster(self.n, self.roster())
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


def _check_roster(n: int, roster: tuple[str, ...]) -> None:
    """Raise SpecParseError unless ``roster`` is ``n`` distinct ids."""
    seen: set[str] = set()
    for qid in roster:
        if qid in seen:
            raise SpecParseError(f"qubit {qid!r} declared twice", source=("declare", qid))
        seen.add(qid)
    if len(seen) != n:
        raise SpecParseError(
            f"qubits line says {n} but {len(seen)} qubits are declared",
            source=("qubits", ""),
        )


def permute_table(
    t: StabiliserTruthTable, perm: list[int]
) -> StabiliserTruthTable:
    """Move column ``perm[k]`` of every row to column ``k``.

    Each of the four column lists is reordered by ``perm``; rows and
    signs stay as they are.  The identity permutation
    returns ``t`` itself.
    """
    if list(perm) == list(range(t.n)):
        return t
    return StabiliserTruthTable.from_columns(
        t.n, t.nrows,
        *([cols[k] for k in perm] for cols in (t.in_x, t.in_z, t.out_x, t.out_z)),
        t.signs,
    )


def derive_specification(c: IcmCircuit) -> Specification:
    io = c.io_ids()
    table = derive_truth_table(c, io + c.ancilla_ids())
    inits = {q.id: q.init for q in c.qubits if q.kind != "io"}
    return Specification(c.n, io, inits, table, c.spec_rules())


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


def _plain(lines: list[str], n: int) -> bool:
    """Whether each line reads ``s L...L -> L...L``: a sign and twice n
    letters, with single spaces around them and the arrow.

    With n >= 1 such a line starts with its sign and ends with a letter,
    so it holds no comment and no surrounding space to strip.
    """
    w, r = 2 * n + 6, len(lines)
    if not n or set(map(len, lines)) - {w}:
        return False
    text = "".join(lines)
    if not text.isascii():  # tested first: a lone surrogate cannot be encoded
        return False
    block = text.encode()
    return (
        not block[::w].strip(b"+-")
        and block[1::w] == block[n + 2::w] == block[n + 5::w] == b" " * r
        and block[n + 3::w] == b"-" * r
        and block[n + 4::w] == b">" * r
        # the checks above leave only the 2n letter places for the letters
        and len(block.translate(None, b"IXYZ")) == 6 * r
    )


def _read_table(lines: list[str], first: int, n: int) -> StabiliserTruthTable:
    """The table of a block's text lines, ``lines[0]`` being line ``first``.

    A block whose every line is a plain row is read as it stands;
    otherwise ``_plain_rows`` first drops its comments and blank lines and
    rewrites or rejects its other rows.
    """
    table = _read_plain(lines, n)
    if table is None:
        table = _read_plain(_plain_rows(lines, first, n), n)
    return table


def _plain_rows(lines: list[str], first: int, n: int) -> list[str]:
    """The block's rows as plain text: comments, blank lines and surrounding
    space dropped, and any other row that ``row_parse`` reads rewritten."""
    rows = []
    for lineno, raw in enumerate(lines, start=first):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if not _plain([text], n):
            try:
                text = row_parse(text, n).format()
            except PauliError as exc:
                raise SpecParseError(str(exc), lineno) from exc
        rows.append(text)
    return rows


def _read_plain(rows: list[str], n: int) -> StabiliserTruthTable | None:
    """The table of plain rows, all at once; None if a row is not plain.

    Rows go in blocks of 1024, which keeps the temporary text small.  Each
    block is transposed by ``_gather`` into bytes whose every w-th byte
    from k on holds the bits of letter place k, eight rows to a byte.
    The x bit of a sign place is its sign bit, so the signs come out as
    place 0.
    """
    w, r = 2 * n + 6, len(rows)
    places = (*range(2, n + 2), *range(n + 6, w))  # input qubits, then output
    codes = bytes.maketrans(b"+- >IXYZ", b"\0\1\0\0\0\1\3\2")  # x + 2z
    signs, xs, zs = 0, [0] * (2 * n), [0] * (2 * n)
    for top in range(0, r, 1024):
        chunk = rows[top:top + 1024]
        if not _plain(chunk, n):
            return None
        x, z = _gather(["".join(chunk[t::8]).encode().translate(codes) for t in range(8)])
        signs |= int.from_bytes(x[::w], "little") << top
        xs = [c | int.from_bytes(x[k::w], "little") << top for c, k in zip(xs, places)]
        zs = [c | int.from_bytes(z[k::w], "little") << top for c, k in zip(zs, places)]
    return StabiliserTruthTable.from_columns(n, r, xs[:n], zs[:n], xs[n:], zs[n:], signs)


def _gather(groups: list[bytes]) -> tuple[bytes, bytes]:
    """The x and the z bits packed eight rows to a byte: byte j*w + k
    holds, as its bit t, the bit at place k of row 8j + t, where
    ``groups[t]`` joins rows t, t + 8, ... of width w as codes x + 2z.

    Each group read as one little-endian integer has its x bits at bit
    0 of every byte and its z bits at bit 1, so masking, shifting group t
    by t bits and ORing the eight packs them without a per-letter step.
    """
    size = len(groups[0])
    ones = int.from_bytes(b"\x01" * size, "little")
    x = z = 0
    for t, group in enumerate(groups):
        codes = int.from_bytes(group, "little")
        x |= (codes & ones) << t
        z |= (codes >> 1 & ones) << t
    return x.to_bytes(size, "little"), z.to_bytes(size, "little")


def parse_spec(text: str) -> Specification:
    n: int | None = None
    io: list[str] = []
    inits: dict[str, str] = {}
    lines: dict[tuple[str, str], int] = {}  # (directive, qubit id) -> line
    rules: list[MeasurementRule] = []
    table_at: int | None = None  # line of the 'table' keyword
    table_end: int | None = None  # line of its 'end'
    header_seen = False

    text_lines = text.splitlines()
    for lineno, raw in enumerate(text_lines, start=1):
        if table_at is not None and table_end is None:
            # a row starts with its sign, so only other lines can be the end
            if not raw.startswith(("+", "-")) and raw.split("#", 1)[0].strip() == "end":
                table_end = lineno
            continue
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if not header_seen:
            if stripped != "spec v1":
                raise SpecParseError("expected 'spec v1' header", lineno)
            header_seen = True
            continue
        parts = stripped.split()
        kw = parts[0]
        if kw == "qubits":
            if len(parts) != 2 or not parts[1].isdigit():
                raise SpecParseError("expected 'qubits <N>'", lineno)
            if n is not None:
                raise SpecParseError("second 'qubits' line", lineno)
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
            if table_at is not None:
                raise SpecParseError("duplicate table block", lineno)
            table_at = lineno
        elif kw == "measure":
            # ids are checked against the roster once the spec is built
            rules.append(
                _parse_measure(parts, lineno, None, SpecParseError)
            )
            for qid in rules[-1].measured_qubits():
                lines.setdefault(("measure", qid), lineno)
        else:
            raise SpecParseError(f"unknown directive {kw!r}", lineno)

    if n is None:
        raise SpecParseError("missing 'qubits' line")
    try:
        if len(io) + len(inits) != n:
            # a table holds n columns, so a count the roster cannot meet
            # is named before one is built
            _check_roster(n, (*io, *inits))
        if table_at is None:
            table = StabiliserTruthTable(n)
        else:  # a bad row is named before a missing end
            block = text_lines[table_at:None if table_end is None else table_end - 1]
            table = _read_table(block, table_at + 1, n)
            if table_end is None:
                raise SpecParseError("table block not closed with 'end'", table_at)
        return Specification(n, tuple(io), inits, table, tuple(rules))
    except SpecParseError as exc:
        if exc.line is not None:
            raise
        raise SpecParseError(str(exc), lines.get(exc.source)) from None
