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
from typing import Iterator

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

# measurement bras by basis and outcome bit (0 for the +1 eigenvalue); the
# other eigenstate is |1> for Z and Z|+1> for X, Y and A ("A-basis
# measurement" projects onto |A>, Z|A>)
_BRA = {
    b: (ket.conj(), (np.array([0.0, 1.0]) if b == "Z" else ket * [1, -1]).conj())
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


def _branches(c: IcmCircuit, keep: list[str]) -> Iterator[tuple[dict[str, int], np.ndarray]]:
    """Yield (outcome, K) for every measurement branch, in ``c.outcomes()`` order.

    K is the branch's unnormalised Kraus operator, a (2**len(keep), 2**k)
    matrix from the io qubits' computational inputs (first io qubit most
    significant) to the qubits of ``keep``, which must be exactly the
    unmeasured qubits (``keep[0]`` most significant).  A valid ICM circuit
    measures each qubit at most once, so the measured qubits and ``keep``
    together name every qubit once.  The CNOT region runs
    once, with the 2**k inputs as a batch axis and the ancillae in their
    init kets.  Each branch then contracts every measured qubit with the
    bra of its outcome; a conditional rule's partner takes the basis its
    trigger's outcome selects.
    """
    k = len(c.io_ids())
    _check_size(c.n + k)
    plan = []  # (qubit, basis on trigger outcome 0, basis on 1, trigger)
    for r in c.rules:
        plan.append((r.q1, r.b1, r.b1, r.q1))
        if r.conditional:
            plan.append((r.q2, r.b2, r.b3, r.q1))
    axes = [c.index(qid) for qid, *_ in plan] + [c.index(qid) for qid in keep]
    eye = np.eye(2, dtype=complex)
    # one column per io basis state, in np.kron order (qubit 0 slowest)
    state = functools.reduce(
        np.kron, [eye if q.kind == "io" else KET[q.init][:, None] for q in c.qubits]
    )
    psi = np.empty_like(state)
    psi[_cnot_permutation(c)] = state
    # measured qubits lead, in rule order, so each bra contracts axis 0
    psi = np.ascontiguousarray(psi.reshape((2,) * c.n + (-1,)).transpose(axes + [c.n]))
    for outcome in c.outcomes():
        t = psi
        for qid, b0, b1, trigger in plan:
            t = _BRA[b1 if outcome[trigger] else b0][outcome[qid]] @ t.reshape(2, -1)
        yield outcome, t.reshape(2 ** len(keep), 2**k)


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


PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@functools.lru_cache(maxsize=256)
def _frame_unitary(frame: str | None, m: int) -> np.ndarray:
    """Pauli string (e.g. 'XI') applied to the output ports, or identity.

    Memoised, since every branch of a channel or a frame fit asks for
    the same few strings again; the cache holds 256 matrices, enough
    for every string ``fit_frames`` may try (m <= 4, at most 1 MB).
    The arrays are shared between callers, so they are read-only.
    """
    if not frame:
        u = np.eye(2**m, dtype=complex)
    elif len(frame) != m:
        raise OracleError(f"frame {frame!r} does not cover {m} output ports")
    else:
        u = np.array([[1.0]], dtype=complex)
        for ch in frame:
            u = np.kron(u, PAULI_1Q[ch])
    u.setflags(write=False)
    return u


def channel_choi(
    c: IcmCircuit,
    frames: dict[frozenset[tuple[str, int]], str] | str | None = None,
) -> np.ndarray:
    """Choi matrix of the circuit's io -> output channel, trace 2**k.

    ``frames`` optionally supplies a measurement-outcome-dependent Pauli
    correction on the output ports: either one static Pauli string, or a
    map keyed by frozenset of (measured qubit id, outcome bit) items.
    Unmeasured qubits that are not outputs are traced out.

    The matrix is ``M @ M^H`` for the stacked branch Kraus columns M, so
    it is Hermitian and positive semidefinite by construction.  What a
    faulty branch enumeration would break is trace preservation, so
    OracleError is raised unless ||M||_F^2 = tr(Choi) is 2**k to a
    relative 1e-10.
    """
    ins, outs, extras = _port_ids(c)
    k, m = len(ins), len(outs)
    # one column per (branch, extra basis state), rows indexed (input, output)
    columns = []
    for outcome, kraus in _branches(c, outs + extras):
        kraus = kraus.reshape(2**m, -1)
        if frames is not None:
            fr = frames if isinstance(frames, str) else frames.get(frozenset(outcome.items()), "")
            kraus = _frame_unitary(fr, m) @ kraus
        columns.append(kraus.reshape(2**m, -1, 2**k).transpose(2, 0, 1).reshape(2 ** (k + m), -1))
    vecs = np.concatenate(columns, axis=1)
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
    # a few rows at a time: a full-size difference of two 512 x 512 Choi
    # matrices is a fresh 4 MB temporary, page-faulted anew on every call
    step = max(1, 4096 // a.shape[-1])
    return all(
        np.abs(a[i : i + step] - b[i : i + step]).max() <= tol for i in range(0, len(a), step)
    )


def _pauli_strings(m: int):
    if m == 0:
        yield ""
        return
    for rest in _pauli_strings(m - 1):
        for ch in "IXYZ":
            yield ch + rest


def fit_frames(
    c: IcmCircuit, u_ideal: np.ndarray, tol: float = 1e-8
) -> dict[frozenset[tuple[str, int]], str] | None:
    """Per-branch Pauli corrections making the circuit implement ``u_ideal``.

    For every measurement branch the Kraus operator is computed densely
    and matched against (Pauli string) x ``u_ideal`` up to scale.  Returns
    a frame table suitable for ``channel_choi``, or None if some branch
    of nonzero weight is not a Pauli multiple of the target.  Like
    ``channel_choi`` it holds all 2**k inputs at once, so it is capped at
    n + k qubits.
    """
    ins, outs, extras = _port_ids(c)
    k, m = len(ins), len(outs)
    if u_ideal.shape != (2**m, 2**k):
        raise OracleError("ideal operator does not match the circuit's ports")
    if m > 4:
        raise SizeCapError("frame fitting capped at 4 output ports")
    if extras:
        raise OracleError(f"unmeasured non-output qubits {extras}; cannot fit frames")

    table: dict[frozenset[tuple[str, int]], str] = {}
    for outcome, kraus in _branches(c, outs):
        scale = np.abs(kraus).max()
        if scale < tol:  # zero-weight branch, correction irrelevant
            table[frozenset(outcome.items())] = "I" * m
            continue
        residue = kraus @ u_ideal.conj().T  # should be (scalar) x Pauli
        hit = None
        for ps in _pauli_strings(m):
            pu = _frame_unitary(ps, m)
            # row 0 of a Pauli matrix holds exactly one nonzero entry
            j = int(np.flatnonzero(pu[0])[0])
            lead = residue[0, j] / pu[0, j]
            if abs(lead) < tol:
                continue
            if np.abs(residue - lead * pu).max() <= tol * max(1.0, abs(lead)):
                hit = ps
                break
        if hit is None:
            return None
        table[frozenset(outcome.items())] = hit
    return table


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
    ks = np.arange(2**n)
    par = np.zeros(2**n, dtype=np.int64)  # parity of popcount(k & zmask)
    for bit in range(n):
        if (zmask >> bit) & 1:
            par += (ks >> bit) & 1
    phases = base * (-1.0 + 0j) ** (par % 2)
    return off, phases


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
    col_row = perm[inv ^ off]
    col_val = phases[inv]
    # fit a signed Pauli to M: the index offset must be constant
    offs = col_row ^ np.arange(perm.size)
    if not (offs == offs[0]).all():
        raise OracleError("conjugated operator is not a Pauli (offset varies)")
    out_off = int(offs[0])
    # z-bits from value ratios between column 0 and single-bit columns
    out_z = 0
    for bit in range(n):
        ratio = col_val[1 << (n - 1 - bit)] / col_val[0]
        if abs(ratio + 1) < 1e-9:
            out_z |= 1 << bit
        elif abs(ratio - 1) > 1e-9:
            raise OracleError("conjugated operator is not a Pauli (bad ratio)")
    q = PauliOperator(n, _bit_reversed(out_off, n), out_z)
    fit_off, fit_phases = _pauli_action(q)
    lead = col_val[0] / fit_phases[0]
    if abs(lead - 1) < 1e-9:
        sign = 1
    elif abs(lead + 1) < 1e-9:
        sign = -1
    else:
        raise OracleError(f"non-real conjugation phase {lead!r}")
    # verify the fit on every column
    if fit_off != out_off or not np.allclose(col_val, sign * fit_phases, atol=1e-9):
        raise OracleError("pauli fit failed verification")
    return q, sign


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
