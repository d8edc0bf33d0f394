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

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .circuit import IcmCircuit, ROTATED_BASES
from .pauli import (
    PauliError,
    PauliOperator,
    TableRow,
    _transpose,
    conjugate_columns,
    row_multiply,
)


@dataclass(frozen=True, init=False)
class StabiliserTruthTable:
    """A truth table held as per-qubit column bitsets over its rows.

    ``StabiliserTruthTable(n, rows)`` builds one from ``TableRow``s;
    ``from_columns`` takes the bitsets themselves.  Tables are equal
    when their rows are equal in order.
    """

    n: int
    nrows: int
    in_x: tuple[int, ...]
    in_z: tuple[int, ...]
    out_x: tuple[int, ...]
    out_z: tuple[int, ...]
    signs: int  # bit i set: row i has sign -1

    def __init__(self, n: int, rows: Iterable[TableRow] = ()) -> None:
        rows = tuple(rows)
        if any(row.input.n != n for row in rows):
            raise PauliError(f"table rows must act on {n} qubits")
        parts = ([row.input.x for row in rows], [row.input.z for row in rows],
                 [row.output.x for row in rows], [row.output.z for row in rows])
        cols = [tuple(_transpose(words, n)) if rows else (0,) * n for words in parts]
        signs = sum(1 << i for i, row in enumerate(rows) if row.sign == -1)
        self._fill(n, len(rows), *cols, signs)
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
    ) -> "StabiliserTruthTable":
        """A table of ``nrows`` rows from its column bitsets, kept as given."""
        t = cls.__new__(cls)
        t._fill(n, nrows, tuple(in_x), tuple(in_z), tuple(out_x), tuple(out_z), signs)
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
        ix, iz, ox, oz = (_transpose(cols, r, index)
                          for cols in (self.in_x, self.in_z, self.out_x, self.out_z))
        return [
            TableRow(PauliOperator(n, a, b), PauliOperator(n, c, d),
                     -1 if signs >> i & 1 else 1)
            for i, a, b, c, d in zip(index, ix, iz, ox, oz)
        ]

    def format(self) -> str:
        """One ``+ XI -> XX`` line per row, written from the columns.

        Rows go in blocks of 1024, packed eight rows to a byte by
        ``_pack``.  Summing bit t of the x bytes, twice that of the z bytes
        and a code for each fixed character gives one character code per
        byte, so that one ``bytes.translate`` writes rows t, t + 8, ... of
        the block.
        """
        n, r = self.n, self.nrows
        # a row's places: its sign, letters, separators and newline
        xs = (self.signs, 0, *self.in_x, 0, 0, 0, 0, *self.out_x, 0)
        zs = (0, 0, *self.in_z, 0, 0, 0, 0, *self.out_z, 0)
        # code x + 2z at a letter, 4 + its sign bit at the sign, and 6 to 9
        # for a space, the arrow's "-" and ">" and the newline
        chars = bytes.maketrans(bytes(range(10)), b"IXZY+- ->\n")
        fixed = b"\x04\x06" + bytes(n) + b"\x06\x07\x08\x06" + bytes(n) + b"\x09"
        lines = [""] * r
        for top in range(0, r, 1024):
            rows = min(1024, r - top)
            depth = -(-rows // 8)
            x, z = _pack(xs, top, depth), _pack(zs, top, depth)
            ones = int.from_bytes(b"\x01" * (depth * len(fixed)), "little")
            base = int.from_bytes(fixed * depth, "little")
            for t in range(min(8, rows)):
                codes = (x >> t & ones) + ((z >> t & ones) << 1) + base
                text = codes.to_bytes(depth * len(fixed), "little").translate(chars).decode()
                lines[top + t:top + rows:8] = text.splitlines()[:len(range(t, rows, 8))]
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format()


def _pack(cols: Sequence[int], top: int, depth: int) -> int:
    """Rows ``top`` to ``top + 8 * depth`` of the columns, eight to a byte:
    bit t of byte j*len(cols) + k is the bit of row top + 8j + t in
    ``cols[k]``.

    Each column gives ``depth`` bytes, and the byte matrix of one column
    per row is transposed with one strided slice per byte row.
    """
    mask = (1 << 8 * depth) - 1
    by_col = b"".join([(col >> top & mask).to_bytes(depth, "little") for col in cols])
    return int.from_bytes(b"".join([by_col[j::depth] for j in range(depth)]), "little")


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
    seeds = seed_rows(c)
    xs, zs = [0] * n, [0] * n
    for i, (_qi, qid, basis, _kind) in enumerate(seeds):
        (xs if basis == "X" else zs)[col[qid]] |= 1 << i
    in_x, in_z = tuple(xs), tuple(zs)
    signs = conjugate_columns(xs, zs, c.cnots, col)
    return StabiliserTruthTable.from_columns(n, len(seeds), in_x, in_z, xs, zs, signs)


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
