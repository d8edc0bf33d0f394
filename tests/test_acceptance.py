"""End-to-end acceptance checks for the package.

Each test exercises one advertised guarantee, at its stated tolerance,
using only the public API.
"""

import random
import time

import numpy as np
import pytest

from icmverify import (
    GateList,
    IcmCircuit,
    MeasurementRule,
    QubitDecl,
    TransformError,
    channel_choi,
    channels_equal,
    choi_of_unitary,
    compile_to_icm,
    demote_rotated_measurement,
    derive_specification,
    derive_truth_table,
    dual_rewrite,
    fit_frames,
    oracle_truth_table,
    parse_spec,
    pauli_format,
    row_multiply,
    row_superpose,
    sample_verify,
    serialize_spec,
    spec_diff,
    table_equal,
    validate_icm,
    verify,
)

from conftest import ideal_unitary, load_fixture, random_circuit


def _best_time(fn, reps: int = 20) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# --- 1: the CNOT truth table derives correctly and fast ------------------------


def test_criterion_1_cnot_table(cnot_circuit):
    table = derive_truth_table(cnot_circuit)
    assert [r.format() for r in table.rows] == [
        "+ XI -> XX",
        "+ ZI -> ZI",
        "+ IX -> IX",
        "+ IZ -> ZZ",
    ]
    assert _best_time(lambda: derive_truth_table(cnot_circuit)) < 1e-3


# --- 2: the t gadget's full specification ---------------------------------------


def test_criterion_2_t_gadget_spec(t_circuit):
    spec = derive_specification(t_circuit)
    assert spec.inits == {"q2": "Z", "q3": "Z"}
    assert spec.rules == (MeasurementRule("q2", "A", "q3", "X", "Y"),)
    assert [r.format() for r in spec.table.rows] == [
        "+ XII -> XXX",
        "+ ZII -> ZII",
        "+ IZI -> ZZI",
        "+ IIZ -> IZZ",
    ]


# --- 3: verification separates equivalent rewirings from mutations --------------


def test_criterion_3_commuted_variant_passes(t_circuit):
    spec = derive_specification(t_circuit)
    report = verify(load_fixture("t_variant.icm"), spec)
    assert report.overall


def _mutate(c: IcmCircuit, kind: str, rng: random.Random) -> IcmCircuit:
    qubits, cnots, rules = list(c.qubits), list(c.cnots), list(c.rules)
    if kind == "extra-cnot":
        ids = [q.id for q in qubits]
        a, b = rng.sample(ids, 2)
        cnots.insert(rng.randrange(len(cnots) + 1), (a, b))
    elif kind == "flipped-cnot":
        i = rng.randrange(len(cnots))
        cnots[i] = (cnots[i][1], cnots[i][0])
    elif kind == "changed-init":
        anc = [i for i, q in enumerate(qubits) if q.kind != "io"]
        i = rng.choice(anc)
        q = qubits[i]
        new = rng.choice([b for b in "XZ" if b != q.init])
        qubits[i] = QubitDecl(q.id, q.kind, new)
    else:  # reordered-rules: swap a conditional rule's two basis outcomes
        i = rng.choice([j for j, r in enumerate(rules) if r.conditional])
        r = rules[i]
        rules[i] = MeasurementRule(r.q1, r.b1, r.q2, r.b3, r.b2)
    return IcmCircuit(tuple(qubits), tuple(cnots), tuple(rules), c.outputs)


@pytest.mark.parametrize("kind,criterion", [
    ("extra-cnot", "table"),
    ("flipped-cnot", "table"),
    ("changed-init", "init"),
    ("reordered-rules", "rules"),
])
def test_criterion_3_mutations_fail_with_the_right_criterion(t_circuit, kind, criterion):
    spec = derive_specification(t_circuit)
    produced = 0
    seed = 0
    while produced < 10:
        seed += 1
        rng = random.Random(1000 * hash(kind) % 7919 + seed)
        mutant = _mutate(t_circuit, kind, rng)
        if validate_icm(mutant):
            continue
        if kind in ("extra-cnot", "flipped-cnot") and table_equal(
            derive_truth_table(mutant), spec.table
        ):
            continue  # degenerate mutation (e.g. cancelling CNOT pair)
        report = verify(mutant, spec)
        assert not report.overall
        assert not getattr(report, f"{criterion}_ok")
        assert f"criterion" in report.format()
        produced += 1
        assert seed < 200, "mutation generator stalled"


# --- 4: row algebra reproduces the derived stabiliser relations -----------------


def test_criterion_4_row_algebra(cnot_circuit):
    table = derive_truth_table(cnot_circuit)
    by_input = {pauli_format(r.input): r for r in table.rows}
    s1 = row_multiply(by_input["XI"], by_input["IX"])
    assert s1.format() == "+ XX -> XI"
    s2 = row_multiply(by_input["XI"], by_input["ZI"])
    assert s2.format() == "+ YI -> YX"
    s3 = row_multiply(s2, by_input["IX"])
    assert s3.format() == "+ YX -> YI"
    sup = row_superpose(s3, s1)
    assert sup.format() == "((+ YX -> YI) + (+ XX -> XI))/sqrt(2)"


# --- 5: derivation agrees with the brute-force oracle ---------------------------


def test_criterion_5_oracle_agreement_on_random_circuits():
    checked = 0
    seed = 0
    while checked < 100:
        seed += 1
        c = random_circuit(random.Random(seed))
        if validate_icm(c):
            continue
        assert table_equal(derive_truth_table(c), oracle_truth_table(c))
        checked += 1
    assert seed < 300


def _cnot_region_mutant(c: IcmCircuit, rng: random.Random) -> IcmCircuit:
    """Mutate only the CNOT region, keeping roster, inits and rules fixed."""
    cnots = list(c.cnots)
    ids = [q.id for q in c.qubits]
    op = rng.choice(["add", "flip", "drop", "swap"])
    if op == "add" or not cnots:
        a, b = rng.sample(ids, 2)
        cnots.insert(rng.randrange(len(cnots) + 1), (a, b))
    elif op == "flip":
        i = rng.randrange(len(cnots))
        cnots[i] = (cnots[i][1], cnots[i][0])
    elif op == "drop":
        cnots.pop(rng.randrange(len(cnots)))
    else:
        i, j = rng.randrange(len(cnots)), rng.randrange(len(cnots))
        cnots[i], cnots[j] = cnots[j], cnots[i]
    return IcmCircuit(c.qubits, tuple(cnots), c.rules, c.outputs)


def test_criterion_5_verdicts_track_the_channel_oracle():
    accepted = 0
    seed = 0
    while accepted < 200:
        seed += 1
        rng = random.Random(50_000 + seed)
        base = random_circuit(rng, max_io=2, max_anc=3, max_cnots=6)
        if validate_icm(base) or base.n < 2:
            continue
        spec = derive_specification(base)
        cand = base if rng.random() < 0.3 else _cnot_region_mutant(base, rng)
        if validate_icm(cand):
            continue
        verdict = verify(cand, spec).overall
        same_channel = channels_equal(channel_choi(base), channel_choi(cand))
        if not verdict and same_channel:
            # mutation altered the table but not the averaged channel
            # (e.g. a CNOT absorbed by an ancilla that is measured out);
            # such pairs say nothing about verdict/oracle agreement
            continue
        assert verdict == same_channel, f"disagreement at seed {seed}"
        accepted += 1
    assert seed < 2000


def test_criterion_5_channel_choi_of_1024_branches_is_fast():
    """All 2**10 branches come from one contraction, not one loop pass each."""
    rng = random.Random(1024)
    qubits = [QubitDecl("q0", "io")]
    qubits += [QubitDecl(f"a{j}", "distillation", rng.choice("XYZA")) for j in range(10)]
    ids = [q.id for q in qubits]
    cnots = tuple(tuple(rng.sample(ids, 2)) for _ in range(30))
    rules = []
    for j in range(0, 10, 2):
        b = [rng.choice("XYZA") for _ in range(3)]
        if j % 4 == 0:  # a conditional pair
            rules.append(MeasurementRule(f"a{j}", b[0], f"a{j + 1}", b[1], b[2]))
        else:
            rules += [MeasurementRule(f"a{j}", b[0]), MeasurementRule(f"a{j + 1}", b[1])]
    c = IcmCircuit(tuple(qubits), cnots, tuple(rules))
    assert not validate_icm(c)
    assert c.n + 1 == 12 and len(c.measured_ids()) == 10
    assert abs(np.trace(channel_choi(c)) - 2) < 1e-10
    assert _best_time(lambda: channel_choi(c), reps=5) < 0.01


# --- 6:the compiled gadget corpus implements its gates exactly ------------------

_CORPUS = ["h", "p", "pdg", "t", "tdg"]


@pytest.mark.parametrize("flavour", ["rotated_meas", "rotated_init"])
@pytest.mark.parametrize("name", _CORPUS)
def test_criterion_6_corpus_channels(flavour, name):
    gates = GateList(1, ((name, 0),))
    res = compile_to_icm(gates, flavour=flavour)
    got = channel_choi(res.circuit, frames=res.frame_map())
    assert channels_equal(got, choi_of_unitary(ideal_unitary(gates)), tol=1e-9)


@pytest.mark.parametrize("flavour", ["rotated_meas", "rotated_init"])
@pytest.mark.parametrize("name", _CORPUS)
def test_criterion_6_dual_preserves_the_channel(flavour, name):
    gates = GateList(1, ((name, 0),))
    res = compile_to_icm(gates, flavour=flavour)
    if flavour == "rotated_init" and name in ("t", "tdg"):
        # the dual would need an outcome-conditioned initialisation,
        # which the circuit format cannot express
        with pytest.raises(TransformError):
            dual_rewrite(res.circuit)
        return
    dual = dual_rewrite(res.circuit)
    frames = fit_frames(dual, ideal_unitary(gates), tol=1e-9)
    assert frames is not None
    got = channel_choi(dual, frames=frames)
    assert channels_equal(got, choi_of_unitary(ideal_unitary(gates)), tol=1e-9)


@pytest.mark.parametrize("name", _CORPUS)
def test_criterion_6_demote_preserves_the_channel(name):
    gates = GateList(1, ((name, 0),))
    res = compile_to_icm(gates, flavour="rotated_meas")
    c = res.circuit
    target = next(
        r.q1 for r in c.rules if r.b1 in ("Y", "A") and not r.conditional
    )
    d = demote_rotated_measurement(c, target)
    assert d.n == c.n + 1
    assert channels_equal(channel_choi(c), channel_choi(d), tol=1e-9)
    frames = fit_frames(d, ideal_unitary(gates), tol=1e-9)
    assert frames is not None


def test_criterion_6_demote_requires_a_rotated_measurement():
    c = compile_to_icm(GateList(1, (("p", 0),)), "rotated_init").circuit
    rotated = [r.q1 for r in c.rules if r.b1 in ("Y", "A")]
    assert not rotated
    with pytest.raises(TransformError):
        demote_rotated_measurement(c, c.rules[0].q1)


@pytest.mark.parametrize("flavour", ["rotated_meas", "rotated_init"])
def test_criterion_6_compiles_8000_clifford_gates_on_64_qubits_fast(flavour):
    """Each gate updates a frame with one int XOR, so compiling is linear."""
    rng = random.Random(64)
    gates = []
    for _ in range(8000):
        name = rng.choice(("h", "p", "pdg", "x", "z", "cnot"))
        gates.append(("cnot", *rng.sample(range(64), 2)) if name == "cnot"
                     else (name, rng.randrange(64)))
    g = GateList(64, tuple(gates))
    assert _best_time(lambda: compile_to_icm(g, flavour), reps=3) < 0.5


# --- 7: derivation and verification scale to large circuits ---------------------


def _criterion_7_circuit(seed: int, n_io: int, n_anc: int, n_cnots: int) -> IcmCircuit:
    rng = random.Random(seed)
    qubits = [QubitDecl(f"q{i}", "io") for i in range(n_io)]
    rules = []
    for j in range(n_anc):
        qubits.append(QubitDecl(f"a{j}", "teleport", rng.choice("XZ")))
        rules.append(MeasurementRule(f"a{j}", rng.choice("XZ")))
    ids = [q.id for q in qubits]
    cnots = tuple(tuple(rng.sample(ids, 2)) for _ in range(n_cnots))
    c = IcmCircuit(tuple(qubits), cnots, tuple(rules))
    assert not validate_icm(c)
    return c


def _criterion_7_case(seed: int, n_io: int, n_anc: int, n_cnots: int) -> float:
    c = _criterion_7_circuit(seed, n_io, n_anc, n_cnots)
    t0 = time.perf_counter()
    spec = derive_specification(c)
    report = verify(c, spec)
    elapsed = time.perf_counter() - t0

    assert report.overall
    assert len(spec.table.rows) == 2 * n_io + n_anc
    return elapsed


def test_criterion_7_large_circuit_performance():
    assert _criterion_7_case(77, 100, 400, 5000) < 5.0


def test_criterion_7_4000_qubits_20k_cnots():
    assert _criterion_7_case(4000, 800, 3200, 20000) < 10.0


def test_criterion_7_4000_qubits_fast():
    """Derive and verify touch only column bitsets: no transpose into rows."""
    assert _criterion_7_case(4000, 800, 3200, 20000) < 0.5


def test_criterion_7_4000_qubit_spec_text_round_trip():
    spec = derive_specification(_criterion_7_circuit(4000, 800, 3200, 20000))
    t0 = time.perf_counter()
    text = serialize_spec(spec)
    parsed = parse_spec(text)
    diff = spec_diff(spec, parsed)
    elapsed = time.perf_counter() - t0

    assert serialize_spec(parsed) == text
    assert diff.format() == "equal"
    assert elapsed < 10.0


# --- 8: sampling spot-checks catch what they can see -----------------------------


def test_criterion_8_sampling_catches_table_mutations(t_circuit):
    spec = derive_specification(t_circuit)
    assert sample_verify(t_circuit, spec.table)
    mutant = load_fixture("t_mutated.icm")
    assert not table_equal(derive_truth_table(mutant), spec.table)
    assert not sample_verify(mutant, spec.table)


def test_criterion_8_structural_mutations_need_the_verify_stage(t_circuit):
    spec = derive_specification(t_circuit)
    rng = random.Random(8)
    for kind, criterion in [("changed-init", "init"), ("reordered-rules", "rules")]:
        mutant = _mutate(t_circuit, kind, rng)
        # row sampling alone cannot see these mutations...
        assert sample_verify(mutant, spec.table)
        # ...so the pipeline runs the structural check first, which does
        report = verify(mutant, spec)
        assert not report.overall
        assert not getattr(report, f"{criterion}_ok")
