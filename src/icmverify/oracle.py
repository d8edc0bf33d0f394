"""Dense-statevector oracle.

Everything here is deliberately independent of the bitmask algebra in
``pauli.py``/``table.py``: Paulis act as explicit basis-index
permutations with phases, circuits run as one dense Kraus operator per
measurement branch, and channels compare through Choi matrices.  The
point is cross-checking, so no code path is shared with the derivation
engine beyond the circuit IR itself.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .circuit import IcmCircuit
from .pauli import PauliOperator, TableRow
from .table import StabiliserTruthTable, seed_rows

MAX_ORACLE_QUBITS = 12

_SQRT2 = math.sqrt(2.0)

# single-qubit kets indexed by init basis letter (the +1 eigenstate)
KET = {
    "Z": np.array([1.0, 0.0], dtype=complex),
    "X": np.array([1.0, 1.0], dtype=complex) / _SQRT2,
    "Y": np.array([1.0, 1.0j], dtype=complex) / _SQRT2,
    "A": np.array([1.0, np.exp(0.25j * np.pi)], dtype=complex) / _SQRT2,
}

# measurement bras by basis, one row per outcome bit (0 for the +1
# eigenvalue), so one matmul reads both outcomes; the other eigenstate is
# |1> for Z and Z|+1> for X, Y and A ("A-basis measurement" projects onto
# |A>, Z|A>)
_BRA = {
    b: np.stack([ket, np.array([0.0, 1.0]) if b == "Z" else ket * [1, -1]]).conj()
    for b, ket in KET.items()
}


class OracleError(Exception):
    pass


class SizeCapError(OracleError):
    """Raised when a circuit is too wide for dense simulation."""


def _check_size(n: int) -> None:
    if n > MAX_ORACLE_QUBITS:
        raise SizeCapError(
            f"dense oracle capped at {MAX_ORACLE_QUBITS} qubits, got {n}"
        )


def _cnot_permutation(c: IcmCircuit) -> np.ndarray:
    """The CNOT region as a basis permutation: it maps e_k to e_{perm[k]}.

    Qubit 0 owns the most significant bit of a basis index.
    """
    n = c.n
    perm = np.arange(2**n)
    for ci, ti in c.cnot_indices():
        perm ^= ((perm >> (n - 1 - ci)) & 1) << (n - 1 - ti)
    return perm


def _kraus_stack(c: IcmCircuit, keep: list[str]) -> np.ndarray:
    """Every branch's unnormalised Kraus operator, stacked in ``c.outcomes()`` order.

    Each is a (2**len(keep), 2**k) matrix from the io qubits'
    computational inputs (first io qubit most significant) to the qubits
    of ``keep``, which must be exactly the unmeasured qubits (``keep[0]``
    most significant).  The CNOT region runs once, with the 2**k inputs
    as a batch axis and the ancillae in their init kets.  Then each
    measured qubit, in rule order, turns its axis into its outcome axis
    with one matmul by its basis's two bras; a conditional rule's
    partner takes the pair of bases its trigger's outcome axis selects.
    """
    k = len(c.io_ids())
    _check_size(c.n + k)
    axes = [c.index(q) for r in c.rules for q in r.measured_qubits()] + [c.index(q) for q in keep]
    eye = np.eye(2, dtype=complex)
    # one column per io basis state, in np.kron order (qubit 0 slowest)
    state = functools.reduce(
        np.kron, [eye if q.kind == "io" else KET[q.init][:, None] for q in c.qubits]
    )
    psi = np.empty_like(state)
    psi[_cnot_permutation(c)] = state
    # measured qubits lead, in rule order; the i-th is contracted on axis i
    psi = psi.reshape((2,) * c.n + (-1,)).transpose(axes + [c.n])
    i = 0
    for r in c.rules:
        psi = _BRA[r.b1] @ psi.reshape(2**i, 2, -1)
        if r.conditional:  # the pair's leading axis meets the trigger's outcome axis
            psi = np.stack([_BRA[r.b2], _BRA[r.b3]]) @ psi.reshape(2**i, 2, 2, -1)
        i += len(r.measured_qubits())
    return psi.reshape(2**i, 2 ** len(keep), 2**k)


def _port_ids(c: IcmCircuit) -> tuple[list[str], list[str], list[str]]:
    """(input ports, output ports, extras) by qubit id.

    Inputs are the io qubits in declaration order.  Outputs come from the
    circuit's ``out`` metadata when present, otherwise every unmeasured
    qubit in declaration order.  Extras are the unmeasured qubits that are
    not outputs.
    """
    measured = set(c.measured_ids())
    unmeasured = [q.id for q in c.qubits if q.id not in measured]
    outs = list(c.outputs) if c.outputs else unmeasured
    return list(c.io_ids()), outs, [q for q in unmeasured if q not in outs]


Frames = tuple[tuple[int, ...], tuple[int, ...]]


def _branch_bits(c: IcmCircuit) -> np.ndarray:
    """Each branch's outcome bits, in ``c.outcomes()`` order: bit 0 set, bit q + 1 if qubit q reads -1."""
    ids = c.measured_ids()
    j = np.arange(2 ** len(ids))
    v = np.ones_like(j)
    for t, qid in enumerate(ids):  # the last measured qubit varies fastest
        v |= (j >> (len(ids) - 1 - t) & 1) << (c.index(qid) + 1)
    return v


def _port_mask(forms: tuple[int, ...], v: np.ndarray) -> np.ndarray:
    """Each form's parity over ``v``, as a row-index mask: port 0 is the top bit."""
    mask = np.zeros_like(v)
    for f in forms:
        mask = mask << 1 | (_signs(v, f) < 0)
    return mask


def _signs(ks: np.ndarray, zmask: int) -> np.ndarray:
    """(-1)**popcount(k & zmask) for each k of ``ks``; over arange, the diagonal of Z^zmask."""
    par = np.zeros(ks.shape, dtype=np.int64)
    for bit in range(zmask.bit_length()):
        if (zmask >> bit) & 1:
            par ^= (ks >> bit) & 1
    return 1 - 2 * par


def channel_choi(c: IcmCircuit, frames: Frames | None = None) -> np.ndarray:
    """Choi matrix of the circuit's io -> output channel, trace 2**k.

    ``frames`` optionally supplies a measurement-outcome-dependent Pauli
    correction on the output ports, as ``(x_forms, z_forms)`` with one
    affine form per port (the layout of ``compiler.CompileResult``): on
    each branch port j is corrected by X^a Z^b, with a and b the parities
    of its forms over the branch's outcome bits.  Unmeasured qubits that
    are not outputs are traced out.

    Every branch's Kraus operator is built in one contraction, so memory
    is one 2**(n + k) state plus their stack.  The matrix is ``M @ M^H``
    for the stacked branch Kraus columns M, so it is Hermitian and
    positive semidefinite by construction.  What a faulty branch
    enumeration would break is trace preservation, so OracleError is
    raised unless ||M||_F^2 = tr(Choi) is 2**k to a relative 1e-10.
    """
    ins, outs, extras = _port_ids(c)
    k, m = len(ins), len(outs)
    if frames is not None and not len(frames[0]) == len(frames[1]) == m:
        raise OracleError(f"frame does not cover {m} output ports")
    kraus = _kraus_stack(c, outs + extras).reshape(-1, 2**m, 2 ** len(extras), 2**k)
    if frames is not None:
        v = _branch_bits(c)
        x, z = _port_mask(frames[0], v), _port_mask(frames[1], v)
        if x.any() or z.any():  # row j of X^x Z^z K is sign(j ^ x) * row j ^ x of K
            src = np.arange(2**m) ^ x[:, None]
            signs = _signs(src & z[:, None], 2**m - 1)
            kraus = np.take_along_axis(kraus, src[..., None, None], axis=1) * signs[..., None, None]
    # one column per (branch, extra basis state), rows indexed (input, output)
    vecs = kraus.transpose(3, 1, 0, 2).reshape(2 ** (k + m), -1)
    trace = np.vdot(vecs, vecs).real
    if abs(trace - 2**k) > 1e-10 * 2**k:
        raise OracleError(f"channel not trace-preserving: Choi trace {trace:.12g}, want {2**k}")
    return vecs @ vecs.conj().T


def choi_of_unitary(u: np.ndarray) -> np.ndarray:
    """Choi matrix (trace 2**k convention) of a k-qubit unitary.

    Entry ((i, a), (j, b)) is u[a, i] * conj(u[b, j]).
    """
    v = u.T.astype(complex).reshape(-1)
    return np.outer(v, v.conj())


def channels_equal(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    if a.shape != b.shape:  # channels on different numbers of ports
        return False
    # a few rows at a time: a full-size difference of two 512 x 512 Choi
    # matrices is a fresh 4 MB temporary, page-faulted anew on every call
    step = max(1, 4096 // a.shape[-1])
    return all(
        np.abs(a[i : i + step] - b[i : i + step]).max() <= tol for i in range(0, len(a), step)
    )


def _fit_pauli(rows: np.ndarray, vals: np.ndarray, tol: float) -> tuple[int, int, complex] | None:
    """Fit lead * X^off Z^zmask to the matrix M with M e_j = vals[j] e_{rows[j]}.

    ``off`` and ``zmask`` are basis-index masks, so X^off Z^zmask maps e_j
    to (-1)**popcount(j & zmask) e_{j ^ off}.  Returns (off, zmask, lead),
    or None unless the fit holds on every column to tol * max(1, |lead|).
    """
    off, lead = int(rows[0]), vals[0]
    if (rows ^ np.arange(rows.size) != off).any():
        return None
    zmask = 0
    for bit in range((rows.size - 1).bit_length()):
        if (vals[1 << bit] * np.conj(lead)).real < 0:
            zmask |= 1 << bit
    if np.abs(vals - lead * _signs(np.arange(rows.size), zmask)).max() > tol * max(1.0, abs(lead)):
        return None
    return off, zmask, lead


def fit_frames(c: IcmCircuit, u_ideal: np.ndarray, tol: float = 1e-8) -> Frames | None:
    """The Pauli frame that makes the circuit implement ``u_ideal``.

    Every branch's Kraus operator K comes from one contraction, and
    K U^dagger is read as a multiple of one Pauli string, which is the
    branch's correction.  The corrections are then solved for affine forms
    over the outcome bits by GF(2) elimination, in the frame layout
    ``channel_choi`` takes.  A branch of zero weight takes any correction.
    Returns None if some branch of nonzero weight is not a Pauli multiple
    of the target, or if no affine forms give every branch its correction.
    Like ``channel_choi`` it holds one 2**(n + k) state plus the stack, so
    it is capped at n + k qubits.
    """
    ins, outs, extras = _port_ids(c)
    k, m = len(ins), len(outs)
    if u_ideal.shape != (2**m, 2**k):
        raise OracleError("ideal operator does not match the circuit's ports")
    if extras:
        raise OracleError(f"unmeasured non-output qubits {extras}; cannot fit frames")

    cols = np.arange(2**m)
    pivots: dict[int, tuple[int, int]] = {}  # top bit -> (outcome bits, Pauli bits)
    for v, kraus in zip(_branch_bits(c).tolist(), _kraus_stack(c, outs)):
        if np.abs(kraus).max() < tol:
            continue
        residue = kraus @ u_ideal.conj().T  # should be lead * X^off Z^zmask
        rows = np.abs(residue).argmax(axis=0)
        fit = _fit_pauli(rows, residue[rows, cols], tol)
        if fit is None:
            return None
        off, zmask, lead = fit
        residue[rows, cols] = 0
        if np.abs(residue).max() > tol * max(1.0, abs(lead)):
            return None
        # one GF(2) equation: the forms' parities over v are these Pauli bits
        rhs = off | zmask << m
        while v and (top := v.bit_length()) in pivots:
            pv, pr = pivots[top]
            v, rhs = v ^ pv, rhs ^ pr
        if v:
            pivots[top] = (v, rhs)
        elif rhs:
            return None
    # back-substitute, lowest pivot first; a variable without a pivot is 0
    value: dict[int, int] = {}
    for top in sorted(pivots):
        v, rhs = pivots[top]
        for bit in range(top - 1):
            if (v >> bit) & 1:
                rhs ^= value.get(bit + 1, 0)
        value[top] = rhs
    forms = [sum(1 << (top - 1) for top, r in value.items() if (r >> i) & 1)
             for i in range(2 * m)]
    return tuple(reversed(forms[:m])), tuple(reversed(forms[m:]))


# ---------------------------------------------------------------------------
# independent truth-table oracle


def _bit_reversed(v: int, n: int) -> int:
    """``v`` with its n low bits in reverse order: qubit k <-> basis bit n-1-k."""
    return int(format(v, f"0{n}b")[::-1], 2)


def _pauli_action(p: PauliOperator):
    """Return (offset, phase array) so that P|e_k> = phases[k] |e_{k ^ off}>."""
    n, x, z = p.n, p.x, p.z
    off, zmask = _bit_reversed(x, n), _bit_reversed(z, n)
    base = (1j) ** (p.phase % 4) * (1j) ** bin(x & z).count("1")
    return off, base * _signs(np.arange(2**n), zmask)


def _conjugate(
    perm: np.ndarray, inv: np.ndarray, p: PauliOperator
) -> tuple[PauliOperator, int]:
    """U p U^dagger as (Q, s) with U p U^dagger = s*Q, for a region U.

    U maps e_k to e_{perm[k]}, and ``inv`` is the inverse permutation.
    A signed Pauli is fitted to the dense action of U p U^dagger and the
    fit is checked on every column; OracleError if it does not hold.
    """
    n = p.n
    # column k of M = U P U^-1:
    #   U^-1 e_k = e_{inv[k]};  P e_m = phases[m] e_{m ^ off};  U e_m = e_{perm[m]}
    off, phases = _pauli_action(p)
    fit = _fit_pauli(perm[inv ^ off], phases[inv], 1e-9)
    if fit is None:
        raise OracleError("conjugated operator is not a Pauli")
    out_off, out_z, lead = fit
    q = PauliOperator(n, _bit_reversed(out_off, n), _bit_reversed(out_z, n))
    s = lead / 1j ** bin(q.x & q.z).count("1")  # Q itself carries i per Y
    if abs(s - 1) < 1e-9:
        return q, 1
    if abs(s + 1) < 1e-9:
        return q, -1
    raise OracleError(f"non-real conjugation phase {s!r}")


def oracle_truth_table(c: IcmCircuit) -> StabiliserTruthTable:
    """Re-derive the truth table by brute-force conjugation.

    The CNOT region is a permutation U of computational basis states;
    each seed row P -> s*Q comes from ``_conjugate``, which fits U P U^dagger
    to its dense action.  Column k is qubit k of ``c.qubits``.
    """
    _check_size(c.n)
    n = c.n
    perm = _cnot_permutation(c)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    rows = []
    for qi, _qid, basis, _kind in seed_rows(c):
        p = PauliOperator(n, 1 << qi, 0) if basis == "X" else PauliOperator(n, 0, 1 << qi)
        rows.append(TableRow(p, *_conjugate(perm, inv, p)))
    return StabiliserTruthTable(n, tuple(rows))


# ---------------------------------------------------------------------------
# dense row check


def sample_verify(c: IcmCircuit, table: StabiliserTruthTable) -> bool:
    """Check every row P -> s*Q of ``table`` as U P U^dagger = s*Q.

    U is the circuit's CNOT region, applied densely, and column k of the
    table is qubit k of ``c.qubits``.  This identity is what a row says,
    so any product of rows of a correct table passes and a flipped sign
    fails.  Ancilla inits are not read: ``verify`` checks them.
    """
    _check_size(c.n)
    if table.n != c.n:
        raise OracleError(f"table has {table.n} qubits but the circuit has {c.n}")
    perm = _cnot_permutation(c)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    return all(_conjugate(perm, inv, r.input) == (r.output, r.sign) for r in table.rows)
