import random

import pytest

from icmverify import (
    GateList,
    IcmCircuit,
    IcmParseError,
    MeasurementRule,
    QubitDecl,
    TransformError,
    channel_choi,
    channels_equal,
    compile_to_icm,
    demote_rotated_measurement,
    dual_rewrite,
    fit_frames,
    validate_icm,
)

from conftest import ideal_unitary, load_fixture, random_circuit


def _p_gates():
    return GateList(1, (("p", 0),))


def _t_gates():
    return GateList(1, (("t", 0),))


# --- dual_rewrite ------------------------------------------------------------


def test_dual_maps_rotated_init_p_to_rotated_meas_p():
    ri = compile_to_icm(_p_gates(), flavour="rotated_init").circuit
    rm = compile_to_icm(_p_gates(), flavour="rotated_meas").circuit
    dual = dual_rewrite(ri)
    assert dual.qubits == rm.qubits
    assert dual.cnots == rm.cnots
    assert dual.rules == rm.rules


def test_dual_is_an_involution():
    c = compile_to_icm(GateList(1, (("p", 0), ("pdg", 0))), "rotated_meas").circuit
    assert dual_rewrite(dual_rewrite(c)) == c


def test_dual_reverses_cnot_order_without_flipping():
    c = compile_to_icm(GateList(2, (("cnot", 0, 1), ("p", 0), ("cnot", 1, 0))),
                       "rotated_meas").circuit
    dual = dual_rewrite(c)
    assert dual.cnots == tuple(reversed(c.cnots))


def test_dual_swaps_init_and_measurement_bases():
    c = load_fixture("teleport.icm")
    dual = dual_rewrite(c)
    # teleport.icm: q2 starts in X and q1 (io) is measured in Z.  The io
    # measurement is untouched; only ancilla ends swap.
    assert dual.qubit("q2").init == "X"
    assert dual.rules == c.rules


def test_dual_rejects_conditional_rules_on_ancillae(t_circuit):
    with pytest.raises(TransformError, match="conditional"):
        dual_rewrite(t_circuit)


def test_dual_rejects_invalid_circuits():
    # no such circuit reaches dual_rewrite: building it fails
    with pytest.raises(IcmParseError) as exc:
        IcmCircuit((QubitDecl("q1", "io"),), (("q1", "q1"),), ())
    assert [v.code for v in exc.value.violations] == ["cnot-self"]


@pytest.mark.parametrize("seed", range(12))
def test_dual_preserves_validity_and_involutes(seed):
    rng = random.Random(seed)
    c = random_circuit(rng)
    if any(r.conditional for r in c.rules):
        with pytest.raises(TransformError):
            dual_rewrite(c)
        return
    dual = dual_rewrite(c)
    assert not validate_icm(dual)
    assert dual_rewrite(dual) == c


@pytest.mark.parametrize("flavour", ["rotated_meas", "rotated_init"])
def test_dual_of_compiled_p_preserves_channel(flavour):
    res = compile_to_icm(_p_gates(), flavour=flavour)
    dual = dual_rewrite(res.circuit)
    u = ideal_unitary(_p_gates())
    assert fit_frames(dual, u) is not None


def test_dual_of_rotated_init_t_is_out_of_scope():
    res = compile_to_icm(_t_gates(), flavour="rotated_init")
    with pytest.raises(TransformError):
        dual_rewrite(res.circuit)


# --- demote_rotated_measurement ----------------------------------------------


def _compiled_p_rm() -> IcmCircuit:
    return compile_to_icm(_p_gates(), flavour="rotated_meas").circuit


def test_demote_adds_one_qubit_and_one_cnot():
    c = _compiled_p_rm()
    d = demote_rotated_measurement(c, "a1")
    assert d.n == c.n + 1
    assert len(d.cnots) == len(c.cnots) + 1
    assert d.cnots[-1] == ("a1", "a1_d")
    assert d.qubit("a1_d").kind == "teleport"
    assert d.qubit("a1_d").init == "Y"
    assert not validate_icm(d)


def test_demote_y_measurement_rule_shape():
    c = _compiled_p_rm()
    d = demote_rotated_measurement(c, "a1")
    assert MeasurementRule("a1_d", "Z") in d.rules
    assert MeasurementRule("a1", "X") in d.rules
    assert not any(r.q1 == "a1" and r.b1 == "Y" for r in d.rules)


def test_demote_a_measurement_becomes_conditional():
    res = compile_to_icm(_t_gates(), flavour="rotated_meas")
    # the t gadget measures the original carrier q1 in A
    d = demote_rotated_measurement(res.circuit, "q1")
    assert MeasurementRule("q1_d", "Z", "q1", "Y", "X") in d.rules


@pytest.mark.parametrize("gates", [_p_gates(), _t_gates()])
def test_demote_preserves_the_raw_channel(gates):
    c = compile_to_icm(gates, flavour="rotated_meas").circuit
    target = next(
        r.q1 for r in c.rules if r.b1 in ("Y", "A") and not r.conditional
    )
    d = demote_rotated_measurement(c, target)
    assert channels_equal(channel_choi(c), channel_choi(d))


def test_demote_preserves_frame_corrected_channel():
    gates = _p_gates()
    c = compile_to_icm(gates, flavour="rotated_meas").circuit
    d = demote_rotated_measurement(c, "a1")
    u = ideal_unitary(gates)
    assert fit_frames(d, u, tol=1e-9) is not None


def test_demote_unknown_qubit():
    with pytest.raises(TransformError, match="no qubit"):
        demote_rotated_measurement(_compiled_p_rm(), "zz")


def test_demote_unmeasured_qubit():
    with pytest.raises(TransformError, match="not measured"):
        demote_rotated_measurement(_compiled_p_rm(), "q1")


def test_demote_plain_basis():
    c = load_fixture("teleport.icm")
    with pytest.raises(TransformError, match="plain basis"):
        demote_rotated_measurement(c, "q1")


def test_demote_conditional_trigger(t_circuit):
    with pytest.raises(TransformError, match="conditional"):
        demote_rotated_measurement(t_circuit, "q2")


def test_demote_conditioned_target(t_circuit):
    with pytest.raises(TransformError, match="outcome-dependent"):
        demote_rotated_measurement(t_circuit, "q3")


def test_demote_fresh_id_avoids_collisions():
    base = _compiled_p_rm()
    taken = QubitDecl("a1_d", "computational", "Z")
    c = IcmCircuit(
        tuple(base.qubits) + (taken,),
        base.cnots,
        tuple(base.rules) + (MeasurementRule("a1_d", "Z"),),
        base.outputs,
    )
    d = demote_rotated_measurement(c, "a1")
    assert "a1_d1" in {q.id for q in d.qubits}
