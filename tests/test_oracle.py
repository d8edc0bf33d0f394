import functools
import itertools
import random

import numpy as np
import pytest

from icmverify import (
    GateList,
    IcmCircuit,
    IcmParseError,
    MeasurementRule,
    OracleError,
    QubitDecl,
    SizeCapError,
    StabiliserTruthTable,
    TableRow,
    channel_choi,
    channels_equal,
    choi_of_unitary,
    derive_truth_table,
    fit_frames,
    oracle_truth_table,
    parse_circuit,
    pauli_parse,
    row_multiply,
    sample_verify,
    table_equal,
    validate_icm,
)
from icmverify import oracle
from icmverify.oracle import MAX_ORACLE_QUBITS

from conftest import load_fixture, random_circuit

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)


# --- channels ----------------------------------------------------------------


def test_cnot_channel_is_the_cnot_unitary(cnot_circuit):
    u = np.zeros((4, 4))
    u[[0, 1, 3, 2], [0, 1, 2, 3]] = 1
    assert channels_equal(channel_choi(cnot_circuit), choi_of_unitary(u))


def test_choi_trace_convention(cnot_circuit):
    choi = channel_choi(cnot_circuit)
    assert abs(np.trace(choi) - 4.0) < 1e-12


def test_a_dropped_branch_fails_the_trace_check(monkeypatch, t_circuit):
    assert abs(np.trace(channel_choi(t_circuit)) - 2.0) < 1e-12
    branches = oracle._branches
    monkeypatch.setattr(
        oracle, "_branches", lambda *a: itertools.islice(branches(*a), 1, None)
    )
    with pytest.raises(OracleError, match="trace-preserving: Choi trace 1.5, want 2"):
        channel_choi(t_circuit)


@pytest.mark.parametrize("row", [0, 7, 8, 300, 511])
def test_channels_equal_sees_every_row_block(row):
    a = np.zeros((512, 512), dtype=complex)
    b = a.copy()
    b[row, 511] = 1e-10
    assert channels_equal(a, b)
    b[row, 511] = 2e-9j
    assert not channels_equal(a, b)
    assert channels_equal(a, b, tol=2e-9)
    b[row, 511] = np.nan
    assert not channels_equal(a, b, tol=1.0)


def test_teleport_needs_frames():
    c = load_fixture("teleport.icm")
    raw = channel_choi(c)
    ident = choi_of_unitary(np.eye(2))
    assert not channels_equal(raw, ident)
    frames = {
        frozenset({("q1", 0)}): "I",
        frozenset({("q1", 1)}): "X",
    }
    assert channels_equal(channel_choi(c, frames=frames), ident)


def test_static_frame_string():
    c = load_fixture("cnot.icm")
    flipped = channel_choi(c, frames="XI")
    u = np.zeros((4, 4))
    u[[0, 1, 3, 2], [0, 1, 2, 3]] = 1
    x0 = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2))
    assert channels_equal(flipped, choi_of_unitary(x0 @ u))


def test_size_cap():
    n = MAX_ORACLE_QUBITS + 1
    c = IcmCircuit(tuple(QubitDecl(f"q{i}", "io") for i in range(n)), (), ())
    with pytest.raises(SizeCapError):
        oracle_truth_table(c)


def test_channel_size_cap_counts_input_ports():
    # n + k <= cap: 7 io qubits means 14 simulated qubits total
    n = MAX_ORACLE_QUBITS // 2 + 1
    c = IcmCircuit(tuple(QubitDecl(f"q{i}", "io") for i in range(n)), (), ())
    with pytest.raises(SizeCapError):
        channel_choi(c)


def test_extra_qubits_are_traced_out():
    # the ancilla copies q1 and is then discarded: Z-dephasing
    c = parse_circuit("icm v1\nio q1\nancilla a teleport init Z\ncnot q1 a\nout q1\n")
    assert np.array_equal(channel_choi(c), np.diag([1, 0, 0, 1]))
    assert np.array_equal(channel_choi(c, frames="X"), np.diag([0, 1, 1, 0]))


def test_output_ports_must_be_unmeasured():
    # no such circuit reaches the oracle: building it fails
    with pytest.raises(IcmParseError) as exc:
        parse_circuit(
            "icm v1\nio q1\nancilla a teleport init Z\ncnot q1 a\nmeasure a Z\nout a\n"
        )
    assert [v.code for v in exc.value.violations] == ["bad-output"]


def test_a_qubit_measured_twice_is_rejected_without_validation():
    with pytest.raises(IcmParseError) as exc:
        load_fixture("conditioned_remeasured.icm")
    assert [(v.code, v.entity) for v in exc.value.violations] == [("remeasured", "b")]


_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1, -1]).astype(complex)
# measurement observables; the A basis is the eigenbasis of (X + Y)/sqrt(2)
_OBSERVABLE = {"X": _X, "Y": _Y, "Z": _Z, "A": (_X + _Y) / np.sqrt(2)}
_PAULI = {"I": np.eye(2), "X": _X, "Y": _Y, "Z": _Z}


def _reference_choi(c, frames):
    """Choi matrix from 2**n x 2**n operators: the CNOTs as matrices, each
    branch as a product of projectors, extras and measured qubits traced out."""
    n = c.n

    def on(ops):
        return functools.reduce(np.kron, [ops.get(i, np.eye(2)) for i in range(n)])

    u = np.eye(2**n)
    for ci, ti in c.cnot_indices():
        u = (on({ci: np.diag([1, 0])}) + on({ci: np.diag([0, 1]), ti: _X})) @ u
    prep = functools.reduce(np.kron, [
        np.eye(2) if q.kind == "io" else np.linalg.eigh(_OBSERVABLE[q.init])[1][:, [1]]
        for q in c.qubits
    ])
    measured = c.measured_ids()
    outs = [c.index(q) for q in (c.outputs or [q.id for q in c.qubits if q.id not in measured])]
    k, m = len(c.io_ids()), len(outs)

    def projector(qid, basis, bit):
        return {c.index(qid): (np.eye(2) + (-1) ** bit * _OBSERVABLE[basis]) / 2}

    choi = np.zeros((2 ** (k + m),) * 2, dtype=complex)
    for o in c.outcomes():
        kraus = u @ prep
        for r in c.rules:
            kraus = on(projector(r.q1, r.b1, o[r.q1])) @ kraus
            if r.conditional:
                kraus = on(projector(r.q2, r.b3 if o[r.q1] else r.b2, o[r.q2])) @ kraus
        frame = frames if isinstance(frames, str) else frames.get(frozenset(o.items()), "")
        if frame:
            kraus = on({q: _PAULI[ch] for q, ch in zip(outs, frame)}) @ kraus
        t = kraus.reshape((2,) * n + (2**k,))
        kept = [n + q if q in outs else q for q in range(n)]
        block = np.einsum(t, list(range(n)) + [2 * n], t.conj(), kept + [2 * n + 1],
                          [2 * n] + outs + [2 * n + 1] + [n + q for q in outs])
        choi += block.reshape(choi.shape)
    return choi


def _branchy_circuit(rng):
    """Random circuit with conditional rules and, often, extra unmeasured qubits.

    The ancillae are distillation ancillae, which ICM lets be rotated at
    both ends; the oracle reads only io versus ancilla."""
    qubits = [QubitDecl(f"q{i}", "io") for i in range(rng.randint(1, 2))]
    qubits += [QubitDecl(f"a{j}", "distillation", rng.choice("XYZA"))
               for j in range(rng.randint(1, 4))]
    rng.shuffle(qubits)
    ids = [q.id for q in qubits]
    cnots = [tuple(rng.sample(ids, 2)) for _ in range(rng.randint(0, 8))]
    free = rng.sample(ids, len(ids))
    rules = []
    while len(free) > 1 and rng.random() < 0.7:
        q1 = free.pop()
        if rng.random() < 0.5:
            rules.append(MeasurementRule(q1, rng.choice("XYZA"), free.pop(),
                                         rng.choice("XYZA"), rng.choice("XYZA")))
        else:
            rules.append(MeasurementRule(q1, rng.choice("XYZA")))
    outputs = None
    if free and rng.random() < 0.5:
        outputs = tuple(rng.sample(free, rng.randint(1, len(free))))
    return IcmCircuit(tuple(qubits), tuple(cnots), tuple(rules), outputs)


@pytest.mark.parametrize("seed", range(40))
def test_channel_choi_matches_an_operator_reference(seed):
    rng = random.Random(7000 + seed)
    c = _branchy_circuit(rng)
    m = len(c.outputs or [q for q in c.qubits if q.id not in c.measured_ids()])
    frames = {frozenset(o.items()): "".join(rng.choice("IXYZ") for _ in range(m))
              for o in c.outcomes()}
    for fr in (None, frames):
        got = channel_choi(c, frames=fr)
        want = _reference_choi(c, {} if fr is None else fr)
        assert np.abs(got - want).max() < 1e-12


# --- branch Kraus operators ---------------------------------------------------


def test_branch_kraus_teleport():
    c = load_fixture("teleport.icm")
    kraus = {o["q1"]: k for o, k in oracle._branches(c, ["q2"])}
    assert sorted(kraus) == [0, 1]
    # +1 branch carries |0> through unchanged, weight 1/2
    assert np.allclose(kraus[0] @ KET0, KET0 / np.sqrt(2))
    assert np.allclose(kraus[1] @ KET0, KET1 / np.sqrt(2))


def test_branch_kraus_conditional_bases(t_circuit):
    [kraus] = [k for o, k in oracle._branches(t_circuit, ["q1"]) if o == {"q2": 0, "q3": 0}]
    vec = kraus @ KET0
    assert np.vdot(vec, vec).real > 0


# --- truth tables ------------------------------------------------------------


def test_oracle_table_matches_derivation(cnot_circuit, t_circuit):
    for c in (cnot_circuit, t_circuit):
        assert table_equal(oracle_truth_table(c), derive_truth_table(c))


@pytest.mark.parametrize("seed", range(30))
def test_oracle_table_matches_derivation_randomised(seed):
    rng = random.Random(1000 + seed)
    c = random_circuit(rng)
    if validate_icm(c) or c.n > MAX_ORACLE_QUBITS:
        pytest.skip("generator produced an oversized/invalid circuit")
    assert table_equal(oracle_truth_table(c), derive_truth_table(c))


def test_oracle_table_detects_mutation(t_circuit):
    mutated = load_fixture("t_mutated.icm")
    assert not table_equal(oracle_truth_table(mutated),
                           derive_truth_table(t_circuit))


# --- frame fitting -----------------------------------------------------------


def test_fit_frames_teleport():
    c = load_fixture("teleport.icm")
    frames = fit_frames(c, np.eye(2))
    assert frames == {
        frozenset({("q1", 0)}): "I",
        frozenset({("q1", 1)}): "X",
    }
    assert channels_equal(channel_choi(c, frames=frames), choi_of_unitary(np.eye(2)))


def test_fit_frames_rejects_non_pauli_residue():
    c = load_fixture("teleport.icm")
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    assert fit_frames(c, h) is None


def test_fit_frames_shape_check():
    c = load_fixture("teleport.icm")
    with pytest.raises(OracleError, match="ports"):
        fit_frames(c, np.eye(4))


def test_fit_frames_size_cap_counts_input_ports():
    # n = 9 fits the cap but n + k = 14 does not; 4 output ports are allowed
    qubits = [QubitDecl(f"q{i}", "io") for i in range(5)]
    qubits += [QubitDecl(f"a{i}", "teleport", "Z") for i in range(4)]
    rules = tuple(MeasurementRule(f"q{i}", "X") for i in range(5))
    c = IcmCircuit(tuple(qubits), (), rules)
    with pytest.raises(SizeCapError, match="got 14"):
        fit_frames(c, np.zeros((16, 32)))


# --- sampling ----------------------------------------------------------------


def test_sample_verify_passes_on_own_table(t_circuit):
    table = derive_truth_table(t_circuit)
    assert sample_verify(t_circuit, table)


def test_sample_verify_catches_wrong_table(t_circuit):
    wrong = derive_truth_table(load_fixture("t_mutated.icm"))
    assert not sample_verify(t_circuit, wrong)


def test_sample_verify_catches_sign_flip(cnot_circuit):
    table = derive_truth_table(cnot_circuit)
    rows = tuple(
        type(r)(r.input, r.output, -r.sign) if i == 0 else r
        for i, r in enumerate(table.rows)
    )
    flipped = type(table)(table.n, rows)
    assert not sample_verify(cnot_circuit, flipped)


def test_sample_verify_reads_a_row_product_with_its_sign(t_circuit):
    # row 0 x row 1 of t.icm's table is + YII -> YXX
    rows = list(derive_truth_table(t_circuit).rows)
    for sign, want in ((1, True), (-1, False)):
        rows[1] = TableRow(pauli_parse("YII"), pauli_parse("YXX"), sign)
        assert sample_verify(t_circuit, StabiliserTruthTable(3, tuple(rows))) is want


@pytest.mark.parametrize("seed", range(30))
def test_sample_verify_passes_row_products_and_fails_any_flipped_sign(seed):
    rng = random.Random(3000 + seed)
    c = random_circuit(rng)  # at most 8 qubits
    rows = list(derive_truth_table(c).rows)
    for i in range(len(rows)):
        if rng.random() < 0.6:
            rows[i] = row_multiply(rows[i], rng.choice(rows[:i] + rows[i + 1:] or rows))
    assert sample_verify(c, StabiliserTruthTable(c.n, tuple(rows)))
    for i, r in enumerate(rows):
        flipped = rows[:i] + [TableRow(r.input, r.output, -r.sign)] + rows[i + 1:]
        assert not sample_verify(c, StabiliserTruthTable(c.n, tuple(flipped)))


def test_sample_verify_rejects_a_table_of_another_width(t_circuit, cnot_circuit):
    with pytest.raises(OracleError, match="table has 2 qubits but the circuit has 3"):
        sample_verify(t_circuit, derive_truth_table(cnot_circuit))


# --- dense sanity ------------------------------------------------------------


def test_t_conjugation_of_x():
    t = np.diag([1, np.exp(1j * np.pi / 4)])
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]])
    got = t @ x @ t.conj().T
    assert np.allclose(got, (x + y) / np.sqrt(2))


@pytest.mark.parametrize("seed", range(10))
def test_conjugate_matches_kron_matrices(seed):
    rng = random.Random(5000 + seed)
    c = random_circuit(rng)
    perm = oracle._cnot_permutation(c)
    u = np.zeros((len(perm), len(perm)))
    u[perm, np.arange(len(perm))] = 1

    def dense(p):
        return functools.reduce(np.kron, [oracle.PAULI_1Q[p.letter(k)] for k in range(p.n)])

    for _ in range(8):
        p = pauli_parse("".join(rng.choice("IXYZ") for _ in range(c.n)))
        q, sign = oracle._conjugate(perm, np.argsort(perm), p)
        assert np.allclose(u @ dense(p) @ u.T, sign * dense(q))


def test_frame_unitaries_are_memoised_and_read_only():
    u = oracle._frame_unitary("XZ", 2)
    assert oracle._frame_unitary("XZ", 2) is u
    assert not u.flags.writeable
    assert np.array_equal(u, np.kron(oracle.PAULI_1Q["X"], oracle.PAULI_1Q["Z"]))
    assert not oracle._frame_unitary(None, 2).flags.writeable
    with pytest.raises(OracleError, match="does not cover"):
        oracle._frame_unitary("X", 2)
