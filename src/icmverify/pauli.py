"""Phase-tracked Pauli operators and truth-table row algebra.

Operators are stored in symplectic form: an ``x`` bit-mask, a ``z``
bit-mask (bit ``k`` refers to qubit ``k``, qubit 0 is the leftmost
letter in text form), and a global phase as a power of ``i``.  A qubit
whose x and z bits are both set carries the literal letter Y, with the
convention ``Y = iXZ`` so that ``X*Z = -iY``.

A list of r operators can also be held column-major, the layout of
``table.StabiliserTruthTable``: one x-bitset and one z-bitset per qubit,
in which bit i belongs to operator i.  ``conjugate_columns`` moves such
a list through a CNOT region at once, so that each CNOT costs a few
big-int operations however many operators there are.

The text codec works on whole bit-masks, not single letters:
``pauli_format`` writes ``x`` and ``z`` as binary digits, adds them as
one byte per qubit and maps the bytes to letters with one
``bytes.translate``; ``pauli_parse`` validates the letters in one pass
and reads ``x`` and ``z`` back with one base-2 ``int`` each.  Only
base-2 and byte conversions are used, so no decimal digit limit
applies however many qubits there are.

Truth-table rows pair a canonical (phase-free) input operator with an
output operator and a +-1 sign; the sign is the phase quotient picked
up between output product and input product when rows are multiplied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Hashable, Iterable, Mapping, Sequence

_PHASE_PREFIX = {0: "", 1: "i", 2: "-", 3: "-i"}
_PREFIX_PHASE = {"": 0, "+": 0, "i": 1, "+i": 1, "-": 2, "-i": 3}
_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_LETTER = {v: k for k, v in _LETTER_BITS.items()}
_X_DIGITS = str.maketrans("IXYZ", "0110")
_Z_DIGITS = str.maketrans("IXYZ", "0011")
# a byte 3*ord("0") + x + 2z, from the digits of x and z, names its letter
_CODE_LETTER = bytes.maketrans(b"\x90\x91\x92\x93", b"IXZY")


class PauliError(ValueError):
    """Malformed Pauli text or an operation on incompatible operands."""


@dataclass(frozen=True)
class PauliOperator:
    """An n-qubit Pauli ``i**phase * (L_0 x L_1 x ... x L_{n-1})``."""

    n: int
    x: int
    z: int
    phase: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise PauliError(f"operator needs at least one qubit, got n={self.n}")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise PauliError("x/z bits outside the declared qubit range")
        object.__setattr__(self, "phase", self.phase % 4)

    def letter(self, k: int) -> str:
        return _BITS_LETTER[(self.x >> k) & 1, (self.z >> k) & 1]

    def canonical(self) -> "PauliOperator":
        """The same letters with the global phase dropped."""
        return PauliOperator(self.n, self.x, self.z, 0)

    def __str__(self) -> str:
        return pauli_format(self)


def pauli_parse(text: str, n: int | None = None) -> PauliOperator:
    """Parse text such as ``XIZ``, ``-iY`` or ``+ XX`` into an operator.

    Raises PauliError naming the offending column for bad letters.
    """
    s = text.strip().replace(" ", "")
    phase = 0
    for prefix in ("-i", "+i", "i", "-", "+"):
        if s.startswith(prefix) and len(s) > len(prefix):
            phase = _PREFIX_PHASE[prefix]
            s = s[len(prefix):]
            break
    if not s:
        raise PauliError(f"empty Pauli string in {text!r}")
    if n is not None and len(s) != n:
        raise PauliError(f"expected {n} letters, got {len(s)} in {text!r}")
    if not s.isascii() or s.encode().translate(None, b"IXYZ"):
        for k, ch in enumerate(s):
            if ch not in _LETTER_BITS:
                raise PauliError(f"bad Pauli letter {ch!r} at column {k + 1} of {text!r}")
    # qubit 0 is the leftmost letter and the lowest bit
    s = s[::-1]
    return PauliOperator(
        len(s), int(s.translate(_X_DIGITS), 2), int(s.translate(_Z_DIGITS), 2), phase
    )


def pauli_format(p: PauliOperator) -> str:
    """Render an operator as letters with an ``i``/``-``/``-i`` prefix."""
    n = p.n
    spec = f"0{n}b"
    # one ASCII digit per qubit, qubit k in byte k; a byte of x + 2z is
    # at most 0x93, so none carries into the next
    x = int.from_bytes(format(p.x, spec).encode(), "big")
    z = int.from_bytes(format(p.z, spec).encode(), "big")
    letters = (x + 2 * z).to_bytes(n, "little").translate(_CODE_LETTER)
    return _PHASE_PREFIX[p.phase] + letters.decode()


def pauli_mul(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Product ``a * b`` with the full power-of-i phase."""
    if a.n != b.n:
        raise PauliError(f"cannot multiply operators on {a.n} and {b.n} qubits")
    xa, za, xb, zb = a.x, a.z, b.x, b.z
    # letter products contributing i: ZX, YZ, XY; contributing -i: XZ, ZY, YX
    plus_i = (~xa & za & xb & ~zb) | (xa & za & ~xb & zb) | (xa & ~za & xb & zb)
    minus_i = (xa & ~za & ~xb & zb) | (~xa & za & xb & zb) | (xa & za & xb & ~zb)
    phase = a.phase + b.phase + plus_i.bit_count() + 3 * minus_i.bit_count()
    return PauliOperator(a.n, xa ^ xb, za ^ zb, phase % 4)


def conjugate_columns(
    xs: list[int],
    zs: list[int],
    cnots: Iterable[tuple[Hashable, Hashable]],
    column: Mapping[Hashable, int] | Sequence[int],
) -> int:
    """Conjugate column-major operators through CNOTs applied in temporal order.

    ``xs[k]`` and ``zs[k]`` are the x and z bitsets of qubit k, bit i
    belonging to operator i; both lists are updated in place.  A CNOT
    names its qubits as ``column`` does, which maps each to its k: a dict
    of qubit ids, or ``range(n)`` for CNOTs given by k itself.  Each CNOT
    maps X_c -> X_c X_t and Z_t -> Z_c Z_t.  It flips the sign of an
    operator that has X on the control and Z on the target and whose X
    bit on the target equals its Z bit on the control.  Returns the
    bitset of operators whose sign flipped an odd number of times.
    """
    flips = 0
    for a, b in cnots:
        c, t = column[a], column[b]
        xc, zt = xs[c], zs[t]
        flips ^= xc & zt & ~(xs[t] ^ zs[c])
        xs[t] ^= xc
        zs[c] ^= zt
    return flips


def _transpose(
    words: Sequence[int], width: int, keep: Iterable[int] | None = None
) -> list[int]:
    """Bit-matrix transpose: bit k of ``words[i]`` becomes bit i of entry k.

    Entries come for ``k`` in ``keep``, all ``width`` of them by default.
    Each word is written as a fixed-width binary string, last word
    first, so one strided slice of the joined text is one entry.  The
    words go in blocks of 1024, which keeps the slices within the
    processor caches; on a 2-vCPU x86-64 virtual machine one block of
    4800 words of 16000 bits took 1.5x as long.
    """
    spec = repeat(f"0{width}b")
    last = width - 1
    keep = range(width) if keep is None else list(keep)
    entries = [0] * len(keep)
    for top in range(0, len(words), 1024):
        bits = "".join(map(format, reversed(words[top:top + 1024]), spec))
        entries = [e | int(bits[last - k::width], 2) << top for e, k in zip(entries, keep)]
    return entries


# -- truth-table rows --------------------------------------------------------

@dataclass(frozen=True)
class TableRow:
    """A stabiliser truth-table row ``sign * (input -> output)``.

    Both operators are canonical (phase 0); ``sign`` is +1 or -1.
    """

    input: PauliOperator
    output: PauliOperator
    sign: int = 1

    def __post_init__(self) -> None:
        if self.input.n != self.output.n:
            raise PauliError("row input and output act on different qubit counts")
        if self.input.phase or self.output.phase:
            raise PauliError("row operators must be canonical (phase-free)")
        if self.sign not in (1, -1):
            raise PauliError(f"row sign must be +-1, got {self.sign}")

    def format(self) -> str:
        sign = "+" if self.sign == 1 else "-"
        return f"{sign} {pauli_format(self.input)} -> {pauli_format(self.output)}"

    def __str__(self) -> str:
        return self.format()


def row_parse(text: str, n: int | None = None) -> TableRow:
    """Parse ``+ XII -> XXX`` into a TableRow."""
    parts = text.split("->")
    if len(parts) != 2:
        raise PauliError(f"row needs exactly one '->': {text!r}")
    lhs = parts[0].strip()
    sign = 1
    if lhs.startswith("+"):
        lhs = lhs[1:].strip()
    elif lhs.startswith("-"):
        sign = -1
        lhs = lhs[1:].strip()
    pin = pauli_parse(lhs, n)
    pout = pauli_parse(parts[1].strip(), pin.n)
    if (pin.phase | pout.phase) & 1:
        raise PauliError(f"row operators must not carry i phases: {text!r}")
    if pin.phase or pout.phase:
        sign *= -1 if (pin.phase ^ pout.phase) else 1
        fixed = TableRow(pin.canonical(), pout.canonical(), sign).format()
        raise PauliError(f"the row sign goes before the input, as in {fixed!r}: {text!r}")
    return TableRow(pin, pout, sign)


def row_multiply(r1: TableRow, r2: TableRow) -> TableRow:
    """Row product: canonicalised input product, output product, merged sign.

    The relative phase between the two products must be real (+-1);
    rows drawn from a common circuit always satisfy this.
    """
    pin = pauli_mul(r1.input, r2.input)
    pout = pauli_mul(r1.output, r2.output)
    rel = (pout.phase - pin.phase) % 4
    if rel not in (0, 2):
        raise PauliError("row product has imaginary relative phase; rows are incompatible")
    sign = r1.sign * r2.sign * (1 if rel == 0 else -1)
    return TableRow(pin.canonical(), pout.canonical(), sign)


@dataclass(frozen=True)
class FormalSuperposition:
    """Display-only weighted sum of rows, e.g. ``(S3 + S1)/sqrt(2)``."""

    terms: tuple[tuple[float, TableRow], ...]

    def format(self) -> str:
        if len(self.terms) == 1:
            coeff, row = self.terms[0]
            inner = f"({row.format()})"
            return inner if coeff == 1 else f"{coeff:g}*{inner}"
        inner = " + ".join(f"({row.format()})" for _, row in self.terms)
        return f"({inner})/sqrt(2)"

    def __str__(self) -> str:
        return self.format()


def row_superpose(r1: TableRow, r2: TableRow) -> FormalSuperposition:
    """Formal superposition ``(r1 + r2)/sqrt(2)``; equal rows collapse."""
    if r1 == r2:
        return FormalSuperposition(((1.0, r1),))
    w = 1.0 / math.sqrt(2.0)
    return FormalSuperposition(((w, r1), (w, r2)))
