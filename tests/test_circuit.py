import pytest

from icmverify import (
    IcmCircuit,
    IcmParseError,
    MeasurementRule,
    QubitDecl,
    parse_circuit,
    serialize_circuit,
    validate_icm,
)

from conftest import FIXTURES, load_fixture


def test_parse_t_fixture():
    c = load_fixture("t.icm")
    assert c.n == 3
    assert c.io_ids() == ("q1",)
    assert c.ancilla_ids() == ("q2", "q3")
    assert c.cnots == (("q1", "q2"), ("q2", "q3"))
    assert c.rules == (MeasurementRule("q2", "A", "q3", "X", "Y"),)
    assert c.outputs == ("q1",)
    assert validate_icm(c) == []


@pytest.mark.parametrize(
    "name", ["t.icm", "t_variant.icm", "cnot.icm", "teleport.icm", "t_mutated.icm"]
)
def test_serialize_roundtrip(name):
    c = load_fixture(name)
    assert parse_circuit(serialize_circuit(c)) == c


def test_parse_reports_line_numbers():
    text = (FIXTURES / "broken.icm").read_text()
    with pytest.raises(IcmParseError) as exc:
        parse_circuit(text)
    assert exc.value.line == 5
    assert "q9" in str(exc.value)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("qubits 1\nio q1", "icm v1"),
        ("icm v1\nqubits 2\nio q1", "qubits line says 2"),
        ("icm v1\nqubits 1\nio q1\nio q1", "q1"),
        ("icm v1\nqubits 1\nancilla a teleport\n", "init"),
        ("icm v1\nqubits 1\nio q1\nmeasure q1 Q", "basis"),
        ("icm v1\nqubits 2\nio q1\nio q2\ncnot q1", "cnot"),
        ("icm v1\nio q1\nout q1\nout q1", "second 'out' line"),
    ],
)
def test_parse_rejects(text, fragment):
    with pytest.raises(IcmParseError) as exc:
        parse_circuit(text)
    assert fragment.lower() in str(exc.value).lower()


def _mk(qubits, cnots=(), rules=()):
    return IcmCircuit(tuple(qubits), tuple(cnots), tuple(rules))


def _violations(qubits, cnots=(), rules=(), outputs=None):
    """The violations that building this circuit raises."""
    with pytest.raises(IcmParseError) as exc:
        IcmCircuit(tuple(qubits), tuple(cnots), tuple(rules), outputs)
    assert str(exc.value) == "; ".join(map(str, exc.value.violations))
    return exc.value.violations


def test_validate_clean_teleport_styles():
    c = _mk(
        [
            QubitDecl("w", "io"),
            QubitDecl("a", "teleport", "Y"),   # rotated init, plain measure
            QubitDecl("b", "teleport", "Z"),   # plain init, rotated measure
            QubitDecl("c", "teleport", "X"),   # unrotated carrier, fine too
        ],
        rules=[MeasurementRule("a", "Z"), MeasurementRule("b", "Y")],
    )
    assert validate_icm(c) == []


def test_validate_doubly_rotated():
    violations = _violations(
        [QubitDecl("w", "io"), QubitDecl("a", "teleport", "A")],
        rules=[MeasurementRule("a", "Y")],
    )
    assert [v.code for v in violations] == ["doubly-rotated"]
    # a distillation ancilla may be rotated at both ends
    c = _mk(
        [QubitDecl("w", "io"), QubitDecl("a", "distillation", "A")],
        rules=[MeasurementRule("a", "Y")],
    )
    assert validate_icm(c) == []


@pytest.mark.parametrize("basis", ["Y", "A"])
def test_validate_computational_init(basis):
    violations = _violations([QubitDecl("w", "io"), QubitDecl("a", "computational", basis)])
    assert [v.code for v in violations] == ["computational-init"]


def test_validate_remeasured_and_self_cnot():
    violations = _violations(
        [QubitDecl("w", "io"), QubitDecl("a", "teleport", "Z")],
        cnots=[("w", "w")],
        rules=[MeasurementRule("a", "X"), MeasurementRule("a", "Z")],
    )
    assert {v.code for v in violations} == {"cnot-self", "remeasured"}


def test_validate_condition_order():
    # the conditioned qubit is measured by an earlier rule
    violations = _violations(
        [
            QubitDecl("w", "io"),
            QubitDecl("a", "teleport", "Z"),
            QubitDecl("b", "teleport", "Z"),
        ],
        rules=[
            MeasurementRule("b", "X"),
            MeasurementRule("a", "Z", "b", "X", "Z"),
        ],
    )
    assert "condition-order" in {v.code for v in violations}


def test_validate_conditioned_qubit_measured_again():
    # the conditioned qubit is measured again by a later rule
    with pytest.raises(IcmParseError) as exc:
        load_fixture("conditioned_remeasured.icm")
    assert [v.code for v in exc.value.violations] == ["remeasured"]


def test_validate_bad_outputs():
    # an output that a conditional rule measures, one listed twice, one fine
    qubits = (QubitDecl("w", "io"), QubitDecl("a", "teleport", "Z"),
              QubitDecl("b", "teleport", "Z"), QubitDecl("c", "teleport", "Z"))
    rules = (MeasurementRule("a", "Z", "b", "X", "Z"),)
    violations = _violations(qubits, rules=rules, outputs=("b", "w", "c", "w"))
    assert [(v.code, v.entity, v.message) for v in violations] == [
        ("bad-output", "b", "output qubit is measured"),
        ("bad-output", "w", "output qubit listed twice"),
    ]
    assert validate_icm(IcmCircuit(qubits, (), rules, ("w", "c"))) == []


def test_validate_undeclared_output():
    # parse_circuit names the line first; a built circuit is checked too
    violations = _violations([QubitDecl("w", "io")], outputs=("w", "x"))
    assert [(v.code, v.entity, v.source) for v in violations] == [("undeclared", "out", None)]


def test_outcomes_enumerate_measured_ids_last_fastest(t_circuit):
    assert t_circuit.measured_ids() == ("q2", "q3")
    assert list(t_circuit.outcomes()) == [
        {"q2": 0, "q3": 0}, {"q2": 0, "q3": 1}, {"q2": 1, "q3": 0}, {"q2": 1, "q3": 1},
    ]
    assert list(_mk([QubitDecl("w", "io")]).outcomes()) == [{}]


def test_rule_constructor_checks():
    with pytest.raises(IcmParseError):
        MeasurementRule("a", "Z", "a", "X", "Z")
    with pytest.raises(IcmParseError):
        MeasurementRule("a", "Z", "b", "X", None)


def test_serialize_preserves_declaration_order():
    c = _mk(
        [
            QubitDecl("a", "teleport", "Z"),
            QubitDecl("w", "io"),
            QubitDecl("b", "computational", "X"),
        ]
    )
    lines = serialize_circuit(c).splitlines()
    assert lines[2].startswith("ancilla a")
    assert lines[3] == "io w"
    assert parse_circuit(serialize_circuit(c)) == c
