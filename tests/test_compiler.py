import itertools
import random

import numpy as np
import pytest

from icmverify import (
    CompileError,
    GateList,
    channel_choi,
    channels_equal,
    choi_of_unitary,
    compile_to_icm,
    fit_frames,
    parse_gates,
    validate_icm,
)
from icmverify.compiler import FLAVOURS, GATES_1Q

from conftest import FIXTURES, ideal_unitary


def _corrected_choi_matches(gates: GateList, flavour: str, tol: float = 1e-9) -> bool:
    res = compile_to_icm(gates, flavour=flavour)
    assert res.exact
    assert not validate_icm(res.circuit)
    # the oracle's own fit of the frame agrees with the compiler's forms
    assert fit_frames(res.circuit, ideal_unitary(gates), tol=tol) == res.frame_map()
    got = channel_choi(res.circuit, frames=res.frame_map())
    want = choi_of_unitary(ideal_unitary(gates))
    return channels_equal(got, want, tol=tol)


# --- parsing -----------------------------------------------------------------


def test_parse_gates_fixture():
    g = parse_gates((FIXTURES / "ht.gates").read_text())
    assert g.n == 1
    assert g.gates == (("h", 0), ("t", 0))


def test_parse_gates_cnot_and_comments():
    g = parse_gates(
        "gates v1  # header\nqubits 2\ncnot 1 2\n\ntdg 2  # trailing\n"
    )
    assert g.gates == (("cnot", 0, 1), ("tdg", 1))


@pytest.mark.parametrize(
    "text,msg",
    [
        ("qubits 1\nt 1\n", "header"),
        ("gates v1\nt 1\n", "qubits"),
        ("gates v1\nqubits zero\n", "qubit count"),
        ("gates v1\nqubits 0\n", "at least one"),
        ("gates v1\nqubits 1\nt one\n", "gate line"),
        ("gates v1\nqubits 1\nt 2\n", "bad gate"),
        ("gates v1\nqubits 1\nrz 1\n", "bad gate"),
        ("gates v1\nqubits 2\ncnot 1 1\n", "bad gate"),
    ],
)
def test_parse_gates_rejects(text, msg):
    with pytest.raises(CompileError, match=msg):
        parse_gates(text)


def test_gatelist_validates_directly():
    with pytest.raises(CompileError):
        GateList(1, (("cnot", 0, 0),))
    with pytest.raises(CompileError):
        GateList(1, (("h",),))


# --- structural shape --------------------------------------------------------


def test_empty_gate_list_compiles_to_wires():
    res = compile_to_icm(GateList(3, ()))
    assert res.circuit.n == 3
    assert not res.circuit.cnots and not res.circuit.rules
    assert res.circuit.outputs == ("q1", "q2", "q3")
    assert res.frame_map() == ((0, 0, 0), (0, 0, 0))


@pytest.mark.parametrize("flavour", FLAVOURS)
@pytest.mark.parametrize(
    "name,n_anc,n_cnot",
    [("p", 1, 1), ("pdg", 1, 1), ("t", 2, 2), ("tdg", 2, 2), ("h", 3, 3)],
)
def test_ancilla_and_cnot_budget(flavour, name, n_anc, n_cnot):
    res = compile_to_icm(GateList(1, ((name, 0),)), flavour=flavour)
    anc = [q for q in res.circuit.qubits if q.kind != "io"]
    assert len(anc) == n_anc
    assert all(q.kind == "teleport" for q in anc)
    assert len(res.circuit.cnots) == n_cnot


@pytest.mark.parametrize("name", ["x", "z"])
def test_pauli_gates_cost_nothing(name):
    res = compile_to_icm(GateList(1, ((name, 0),)))
    assert res.circuit.n == 1
    assert not res.circuit.cnots
    form = res.x_forms[0] if name == "x" else res.z_forms[0]
    assert form == 1  # the constant bit alone


def test_flavour_purity():
    # h is excluded: its rotated-measurement construction deliberately
    # opens with a Y-initialised carrier-moving stage.
    for flavour, rotated_end in [("rotated_meas", "meas"), ("rotated_init", "init")]:
        res = compile_to_icm(GateList(1, (("t", 0), ("p", 0), ("pdg", 0))), flavour)
        c = res.circuit
        rotated_inits = [q for q in c.qubits if q.init in ("Y", "A")]
        rotated_meas = [
            b for r in c.rules for b in (r.b1, r.b2, r.b3) if b in ("Y", "A")
        ]
        if rotated_end == "meas":
            assert not rotated_inits and rotated_meas
        else:
            assert rotated_inits and not rotated_meas


def test_unknown_flavour():
    with pytest.raises(CompileError, match="flavour"):
        compile_to_icm(GateList(1, ()), flavour="sideways")


# --- channel correctness -----------------------------------------------------


@pytest.mark.parametrize("flavour", FLAVOURS)
@pytest.mark.parametrize("name", GATES_1Q)
def test_single_gate_channel(flavour, name):
    assert _corrected_choi_matches(GateList(1, ((name, 0),)), flavour)


@pytest.mark.parametrize("a,b", list(itertools.product(GATES_1Q, repeat=2)))
def test_all_pairs_rotated_meas(a, b):
    assert _corrected_choi_matches(GateList(1, ((a, 0), (b, 0))), "rotated_meas")


_RI_BLOCKED = {("h", "t"), ("h", "tdg"), ("t", "t"), ("t", "tdg"),
               ("tdg", "t"), ("tdg", "tdg")}


@pytest.mark.parametrize("a,b", list(itertools.product(GATES_1Q, repeat=2)))
def test_all_pairs_rotated_init(a, b):
    gates = GateList(1, ((a, 0), (b, 0)))
    if (a, b) in _RI_BLOCKED:
        with pytest.raises(CompileError):
            compile_to_icm(gates, flavour="rotated_init")
    else:
        assert _corrected_choi_matches(gates, "rotated_init")


def test_two_qubit_program_with_cnots():
    gates = GateList(2, (("h", 0), ("cnot", 0, 1), ("t", 1), ("cnot", 1, 0)))
    assert _corrected_choi_matches(gates, "rotated_meas")


def test_hth_composes_in_rotated_meas():
    assert _corrected_choi_matches(
        GateList(1, (("h", 0), ("t", 0), ("h", 0))), "rotated_meas"
    )


# --- uncorrected mode --------------------------------------------------------


def test_uncorrected_rotated_init_t_shape():
    res = compile_to_icm(GateList(1, (("t", 0),)), "rotated_init",
                         corrections=False)
    assert not res.exact
    c = res.circuit
    anc = [q for q in c.qubits if q.kind != "io"]
    assert len(anc) == 1 and anc[0].init == "A"
    assert c.cnots == ((anc[0].id, "q1"),)
    assert c.rules == tuple([type(c.rules[0])("q1", "Z")])
    assert res.circuit.outputs == (anc[0].id,)


def test_uncorrected_rotated_meas_t_shape():
    res = compile_to_icm(GateList(1, (("t", 0),)), "rotated_meas",
                         corrections=False)
    assert not res.exact
    assert any(r.b1 == "A" and not r.conditional for r in res.circuit.rules)


def test_uncorrected_channel_differs_on_some_outcome():
    # without corrections the branch channels are T and (phase) Z.T
    res = compile_to_icm(GateList(1, (("t", 0),)), "rotated_meas",
                         corrections=False)
    got = channel_choi(res.circuit)
    want = choi_of_unitary(ideal_unitary(GateList(1, (("t", 0),))))
    assert not channels_equal(got, want)


# --- frame bookkeeping -------------------------------------------------------


def test_frame_map_keys_cover_all_outcomes():
    # p in rotated_meas: Z correction exactly when its ancilla a1 reads +1
    res = compile_to_icm(GateList(1, (("p", 0),)))
    (a,) = res.circuit.measured_ids()
    assert res.circuit.index(a) == 1
    assert res.frame_map() == ((0,), (1 | 2 << 1,))
    (z,) = res.z_forms
    assert [(z & (1 | bit << 2)).bit_count() % 2 for bit in (0, 1)] == [1, 0]


def test_frame_for_letters():
    res = compile_to_icm(GateList(1, (("x", 0), ("z", 0))))
    assert res.frame_map() == ((1,), (1,))  # Y, up to phase


def _random_program(rng: random.Random, budget: int = 8) -> GateList:
    """1-2 qubits of Clifford+T gates using at most ``budget`` ancillae."""
    cost = {"h": 3, "t": 2, "tdg": 2, "p": 1, "pdg": 1, "x": 0, "z": 0, "cnot": 0}
    nq = rng.randint(1, 2)
    gates = []
    for _ in range(rng.randint(1, 6)):
        name = rng.choice(GATES_1Q + ("cnot",) * (nq - 1))
        if cost[name] > budget:
            break
        budget -= cost[name]
        gates.append((name, *rng.sample(range(2), 2)) if name == "cnot" else (name, rng.randrange(nq)))
    return GateList(nq, tuple(gates))


@pytest.mark.parametrize("flavour", FLAVOURS)
def test_fit_frames_recovers_the_compiled_forms(flavour):
    rng = random.Random(2200 + FLAVOURS.index(flavour))
    compiled = 0
    while compiled < 300:
        gates = _random_program(rng)
        try:
            res = compile_to_icm(gates, flavour)
        except CompileError:
            continue
        compiled += 1
        assert fit_frames(res.circuit, ideal_unitary(gates), tol=1e-9) == res.frame_map(), gates
