"""Stabiliser truth tables: derivation, canonical form, comparison.

Seeding rules per qubit kind:

* io qubit: an X row and a Z row;
* teleport ancilla with rotated init (Y or A): an X row and a Z row,
  i.e. the rotated initialisation is temporarily replaced by the plain
  seeds;
* teleport ancilla with plain init: one row in the init basis;
* computational ancilla: one row in the init basis;
* distillation ancillae contribute no rows.

Every derived row conjugates its seed through the CNOT region and
carries sign +1 (X-type and Z-type seeds cannot pick up signs under
CNOT conjugation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .circuit import IcmCircuit, ROTATED_BASES
from .pauli import PauliOperator, TableRow, conjugate_paulis, row_multiply


@dataclass(frozen=True)
class StabiliserTruthTable:
    n: int
    rows: tuple[TableRow, ...]

    def format(self) -> str:
        return "\n".join(r.format() for r in self.rows)

    def __str__(self) -> str:
        return self.format()


def seed_rows(c: IcmCircuit) -> list[tuple[int, str, str, str]]:
    """(qubit index, qubit id, basis letter, seed kind) in declaration order."""
    seeds: list[tuple[int, str, str, str]] = []
    for i, q in enumerate(c.qubits):
        if q.kind == "io":
            seeds.append((i, q.id, "X", "io"))
            seeds.append((i, q.id, "Z", "io"))
        elif q.kind == "teleport":
            if q.init in ROTATED_BASES:
                seeds.append((i, q.id, "X", "rotated-init"))
                seeds.append((i, q.id, "Z", "rotated-init"))
            else:
                seeds.append((i, q.id, q.init, "plain-init"))
        elif q.kind == "computational":
            seeds.append((i, q.id, q.init, "computational"))
        # distillation: no rows
    return seeds


def derive_truth_table(
    c: IcmCircuit, columns: Sequence[str] | None = None
) -> StabiliserTruthTable:
    """Conjugate every seed through the CNOT region, all rows at once.

    Rows follow ``seed_rows``.  ``columns`` lists the qubit ids in
    column order; it defaults to declaration order.
    """
    n = c.n
    if columns is None:
        columns = [q.id for q in c.qubits]
    col = {qid: k for k, qid in enumerate(columns)}
    pos = [col[q.id] for q in c.qubits]  # declaration index -> column
    seeds = seed_rows(c)
    inputs = [
        PauliOperator(n, 1 << pos[qi], 0) if basis == "X"
        else PauliOperator(n, 0, 1 << pos[qi])
        for qi, _qid, basis, _kind in seeds
    ]
    outputs = conjugate_paulis(inputs, [(pos[a], pos[b]) for a, b in c.cnot_indices()])
    # TableRow rejects a phased output: single-type seeds pick up no sign
    rows = tuple(
        TableRow(p, q, 1, provenance=(qid, basis))
        for (_qi, qid, basis, _kind), p, q in zip(seeds, inputs, outputs)
    )
    return StabiliserTruthTable(n, rows)


def _row_key(row: TableRow, n: int) -> int:
    """4n-bit word: input x, input z, output x, output z from bit 0 up."""
    return (row.input.x | row.input.z << n
            | row.output.x << 2 * n | row.output.z << 3 * n)


def canonicalize_table(t: StabiliserTruthTable) -> StabiliserTruthTable:
    """Reduced row-echelon form over GF(2) with signs carried along.

    Rows are eliminated with ``row_multiply`` under a leftmost-pivot
    rule, then sorted by pivot position.  The result is a canonical
    representative of the row span, so tables agree exactly when their
    spans (including signs) agree.  A row's pivot is the lowest set bit
    of its ``_row_key``: the leftmost letter of the input x part, then
    of the input z, output x and output z parts.

    Back-substitution finishes the rows in descending pivot order.  A
    row is multiplied by the finished row of each other pivot bit it
    holds, highest bit first; a finished row holds no pivot bit but its
    own, so each product clears one bit and sets none, and the work is
    one product per set pivot bit rather than a test per pair of rows.
    """
    n = t.n
    work: list[tuple[int, TableRow]] = [(_row_key(r, n), r) for r in t.rows]
    pivots: dict[int, tuple[int, TableRow]] = {}  # pivot bit position -> row
    trivial: list[TableRow] = []

    for key, row in work:
        while key:
            lead = (key & -key).bit_length() - 1
            if lead not in pivots:
                break
            pkey, prow = pivots[lead]
            key ^= pkey
            row = row_multiply(row, prow)
        if key:
            pivots[lead] = (key, row)
        elif row.sign == -1:
            # contradictory span: keep a -identity marker row
            trivial.append(row)

    # back-substitute so every pivot column is cleared elsewhere
    pivmask = sum(1 << lead for lead in pivots)
    for lead in sorted(pivots, reverse=True):
        key, row = pivots[lead]
        while others := (key & pivmask) ^ (1 << lead):
            pkey, prow = pivots[others.bit_length() - 1]
            key ^= pkey
            row = row_multiply(row, prow)
        pivots[lead] = (key, row)

    rows = [pivots[lead][1] for lead in sorted(pivots)]
    rows.extend(trivial[:1])
    return StabiliserTruthTable(n, tuple(rows))


def table_equal(a: StabiliserTruthTable, b: StabiliserTruthTable) -> bool:
    """Span equality (signs included) via canonical forms."""
    if a.n != b.n:
        return False
    ca = canonicalize_table(a)
    cb = canonicalize_table(b)
    return [(r.input, r.output, r.sign) for r in ca.rows] == [
        (r.input, r.output, r.sign) for r in cb.rows
    ]
