"""Stabiliser truth tables: derivation, canonical form, comparison.

A table of r rows on n qubits is stored column-major: four lists of n
bitsets (input x, input z, output x, output z) in which bit i of entry
k is the bit of qubit k in row i, plus one sign bitset whose bit i is
set when row i has sign -1.  Derivation, verification, column
permutation and the spec text work on these bitsets directly.  ``rows``
is a view built on first use, one transpose per column list, for the
work that needs whole rows: canonicalisation, the dense oracle and
callers that inspect rows one by one.

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

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .circuit import IcmCircuit, ROTATED_BASES
from .pauli import (
    PauliError,
    PauliOperator,
    TableRow,
    _transpose,
    conjugate_columns,
    letter_block,
    row_multiply,
)

Provenance = tuple[str, str] | None


@dataclass(frozen=True, init=False)
class StabiliserTruthTable:
    """A truth table held as per-qubit column bitsets over its rows.

    ``StabiliserTruthTable(n, rows)`` builds one from ``TableRow``s;
    ``from_columns`` takes the bitsets themselves.  Tables are equal
    when their rows are equal in order, provenance aside.
    """

    n: int
    nrows: int
    in_x: tuple[int, ...]
    in_z: tuple[int, ...]
    out_x: tuple[int, ...]
    out_z: tuple[int, ...]
    signs: int  # bit i set: row i has sign -1
    provenance: tuple[Provenance, ...] | None = field(compare=False, repr=False)

    def __init__(self, n: int, rows: Iterable[TableRow] = ()) -> None:
        rows = tuple(rows)
        if any(row.input.n != n for row in rows):
            raise PauliError(f"table rows must act on {n} qubits")
        parts = ([row.input.x for row in rows], [row.input.z for row in rows],
                 [row.output.x for row in rows], [row.output.z for row in rows])
        cols = [tuple(_transpose(words, n)) if rows else (0,) * n for words in parts]
        signs = sum(1 << i for i, row in enumerate(rows) if row.sign == -1)
        self._fill(n, len(rows), *cols, signs, tuple(row.provenance for row in rows))
        self.__dict__["rows"] = rows

    @classmethod
    def from_columns(
        cls,
        n: int,
        nrows: int,
        in_x: Sequence[int],
        in_z: Sequence[int],
        out_x: Sequence[int],
        out_z: Sequence[int],
        signs: int = 0,
        provenance: Sequence[Provenance] | None = None,
    ) -> "StabiliserTruthTable":
        """A table of ``nrows`` rows from its column bitsets, kept as given."""
        t = cls.__new__(cls)
        t._fill(n, nrows, tuple(in_x), tuple(in_z), tuple(out_x), tuple(out_z), signs,
                None if provenance is None else tuple(provenance))
        return t

    def _fill(self, *values) -> None:
        for name, value in zip(self.__dataclass_fields__, values):
            object.__setattr__(self, name, value)

    @cached_property
    def rows(self) -> tuple[TableRow, ...]:
        """The rows as ``TableRow``s, built on first use."""
        return tuple(self.rows_at(range(self.nrows)))

    def rows_at(self, index: Sequence[int]) -> list[TableRow]:
        """The rows ``index`` as ``TableRow``s, each from one bit of every column."""
        n, r, signs = self.n, self.nrows, self.signs
        if not index:
            return []
        prov = self.provenance or (None,) * r
        ix, iz, ox, oz = (_transpose(cols, r, index)
                          for cols in (self.in_x, self.in_z, self.out_x, self.out_z))
        return [
            TableRow(PauliOperator(n, a, b), PauliOperator(n, c, d),
                     -1 if signs >> i & 1 else 1, prov[i])
            for i, a, b, c, d in zip(index, ix, iz, ox, oz)
        ]

    def format(self) -> str:
        """One ``+ XI -> XX`` line per row, written from the columns."""
        r = self.nrows
        signs = format(self.signs, f"0{r}b")[::-1].replace("0", "+").replace("1", "-")
        ins = _row_letters(self.in_x, self.in_z, r)
        outs = _row_letters(self.out_x, self.out_z, r)
        return "\n".join([f"{s} {a} -> {b}" for s, a, b in zip(signs, ins, outs)])

    def __str__(self) -> str:
        return self.format()


def _row_letters(xs: Sequence[int], zs: Sequence[int], r: int) -> list[str]:
    """The letters of each of r column-major operators.

    The letters of a group of columns are written at once and each
    row's share is cut out with one strided slice.  Groups of 1024
    columns keep those slices within the processor caches at any size;
    on a 2-vCPU x86-64 virtual machine one block of 4000 columns by
    4800 rows took 1.7x as long.
    """
    groups = []
    for g in range(0, len(xs), 1024):
        block = letter_block(xs[g:g + 1024], zs[g:g + 1024], r)
        groups.append([block[i::r] for i in range(r)])
    return groups[0] if len(groups) == 1 else list(map("".join, zip(*groups)))


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
    column order; it defaults to declaration order.  Each seed is one
    bit of one input column, so the input columns are written directly.
    """
    n = c.n
    if columns is None:
        columns = [q.id for q in c.qubits]
    col = {qid: k for k, qid in enumerate(columns)}
    pos = [col[q.id] for q in c.qubits]  # declaration index -> column
    seeds = seed_rows(c)
    xs, zs = [0] * n, [0] * n
    for i, (qi, _qid, basis, _kind) in enumerate(seeds):
        (xs if basis == "X" else zs)[pos[qi]] |= 1 << i
    in_x, in_z = tuple(xs), tuple(zs)
    signs = conjugate_columns(xs, zs, [(pos[a], pos[b]) for a, b in c.cnot_indices()])
    return StabiliserTruthTable.from_columns(
        n, len(seeds), in_x, in_z, xs, zs, signs,
        [(qid, basis) for _qi, qid, basis, _kind in seeds],
    )


def _row_key(row: TableRow, n: int) -> int:
    """4n-bit word: input x, input z, output x, output z from bit 0 up."""
    return (row.input.x | row.input.z << n
            | row.output.x << 2 * n | row.output.z << 3 * n)


def _canonical_rows(t: StabiliserTruthTable) -> list[TableRow]:
    """The rows of the canonical form of ``t``, in pivot order.

    Rows are eliminated with ``row_multiply`` under a leftmost-pivot
    rule, then sorted by pivot position.  A row's pivot is the lowest
    set bit of its ``_row_key``: the leftmost letter of the input x
    part, then of the input z, output x and output z parts.

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
    return rows


def canonicalize_table(t: StabiliserTruthTable) -> StabiliserTruthTable:
    """Reduced row-echelon form over GF(2) with signs carried along.

    The result is a canonical representative of the row span, with rows
    sorted by pivot position (see ``_canonical_rows``), so tables agree
    exactly when their spans (including signs) agree.
    """
    return StabiliserTruthTable(t.n, _canonical_rows(t))


def table_equal(a: StabiliserTruthTable, b: StabiliserTruthTable) -> bool:
    """Span equality (signs included) via canonical forms.

    Tables with the same rows in the same order, the common case of a
    spec and its own text, are equal without being canonicalised.
    """
    return a == b or a.n == b.n and _canonical_rows(a) == _canonical_rows(b)
