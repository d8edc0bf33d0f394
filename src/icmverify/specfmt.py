"""Specification tuples (ST, I, O) and their ``spec v1`` text format.

Table columns follow the roster order: io qubits first (io-line order),
then ancillae (init-line order).  ``derive_specification`` derives the
table directly in roster columns, so that a spec file stands alone
without the source circuit.
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
from .pauli import PauliOperator, TableRow, _transpose, row_parse
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

    Each of the four bit columns of the rows (input x and z, output x
    and z) is transposed once into one bitset per qubit; that list is
    reordered by ``perm`` and transposed back into rows.  The identity
    permutation returns ``t`` itself.
    """
    n, rows = t.n, t.rows
    if not rows or list(perm) == list(range(n)):
        return t
    r = len(rows)

    def moved(words: list[int]) -> list[int]:
        cols = _transpose(words, n)
        return _transpose([cols[k] for k in perm], r)

    ix = moved([row.input.x for row in rows])
    iz = moved([row.input.z for row in rows])
    ox = moved([row.output.x for row in rows])
    oz = moved([row.output.z for row in rows])
    return StabiliserTruthTable(n, tuple(
        TableRow(PauliOperator(n, a, b), PauliOperator(n, c, d), row.sign, row.provenance)
        for row, a, b, c, d in zip(rows, ix, iz, ox, oz)
    ))


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
    for row in s.table.rows:
        out.append(row.format())
    out.append("end")
    for rule in s.rules:
        out.append(rule.format())
    return "\n".join(out) + "\n"


def parse_spec(text: str) -> Specification:
    n: int | None = None
    io: list[str] = []
    inits: dict[str, str] = {}
    lines: dict[tuple[str, str], int] = {}  # (directive, qubit id) -> line
    rows: list[TableRow] = []
    rules: list[MeasurementRule] = []
    in_table = False
    saw_table = False
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
                continue
            try:
                row = row_parse(stripped, n)
            except Exception as exc:
                raise SpecParseError(str(exc), lineno) from exc
            rows.append(row)
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
            if saw_table:
                raise SpecParseError("duplicate table block", lineno)
            in_table = saw_table = True
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
        raise SpecParseError("table block not closed with 'end'")
    try:
        return Specification(
            n, tuple(io), inits, StabiliserTruthTable(n, tuple(rows)), tuple(rules)
        )
    except SpecParseError as exc:
        raise SpecParseError(str(exc), lines.get(exc.source)) from None
