import random

import pytest

from icmverify import (
    IcmCircuit,
    IcmParseError,
    MeasurementRule,
    QubitDecl,
    SpecParseError,
    derive_specification,
    derive_truth_table,
    parse_circuit,
    parse_spec,
    serialize_spec,
    spec_diff,
)
from icmverify.pauli import row_parse
from icmverify.specfmt import permute_table
from icmverify.table import StabiliserTruthTable

from conftest import load_fixture, random_circuit


def test_derive_t_spec(t_circuit):
    s = derive_specification(t_circuit)
    assert s.n == 3
    assert s.io_ids == ("q1",)
    assert s.inits == {"q2": "Z", "q3": "Z"}
    assert s.rules == (MeasurementRule("q2", "A", "q3", "X", "Y"),)
    assert s.roster() == ("q1", "q2", "q3")


def test_serialize_parse_roundtrip(t_circuit):
    s = derive_specification(t_circuit)
    s2 = parse_spec(serialize_spec(s))
    assert s2 == s
    assert serialize_spec(s2) == serialize_spec(s)


def test_spec_text_shape(t_circuit):
    lines = serialize_spec(derive_specification(t_circuit)).splitlines()
    assert lines[0] == "spec v1"
    assert lines[1] == "qubits 3"
    assert "io q1" in lines
    assert "init q2 Z" in lines and "init q3 Z" in lines
    assert "measure q2 A ? q3 X : q3 Y" in lines
    assert lines[lines.index("table") + 1].startswith("+ ")


def test_table_columns_follow_roster_not_declaration():
    """Ancilla declared before the io qubit; spec columns are io-first."""
    text = """
icm v1
qubits 2
ancilla a teleport init Z
io w
cnot w a
measure a Y
"""
    s = derive_specification(parse_circuit(text))
    assert s.roster() == ("w", "a")
    formatted = [r.format() for r in s.table.rows]
    assert "+ XI -> XX" in formatted  # X on w (column 0) spreads to a
    assert "+ IZ -> ZZ" in formatted  # Z seed on a sits in column 1


@pytest.mark.parametrize("seed", range(16))
def test_spec_table_is_the_declaration_table_in_roster_columns(seed):
    rng = random.Random(seed)
    c = random_circuit(rng, max_io=4, max_anc=6, max_cnots=30)
    ancillae = [q for q in c.qubits if q.kind != "io"]
    rng.shuffle(ancillae)
    c = IcmCircuit(
        tuple(ancillae) + tuple(q for q in c.qubits if q.kind == "io"), c.cnots, c.rules
    )
    spec = derive_specification(c)
    want = permute_table(derive_truth_table(c), [c.index(q) for q in spec.roster()])
    assert spec.table.rows == want.rows


def test_permute_table_moves_columns():
    t = StabiliserTruthTable(3, (row_parse("- XYZ -> ZZX"), row_parse("+ IIZ -> IYI")))
    moved = permute_table(t, [2, 0, 1])
    assert moved.format() == "- ZXY -> XZZ\n+ ZII -> IIY"
    assert permute_table(t, [0, 1, 2]) is t


@pytest.mark.parametrize("seed", range(30))
def test_spec_text_is_stable_through_parse_and_serialize(seed):
    """derive -> serialize -> parse -> serialize, declarations shuffled."""
    rng = random.Random(1000 + seed)
    c = random_circuit(rng, max_io=6, max_anc=10, max_cnots=60)
    qubits = list(c.qubits)
    rng.shuffle(qubits)
    spec = derive_specification(IcmCircuit(tuple(qubits), c.cnots, c.rules))
    text = serialize_spec(spec)
    parsed = parse_spec(text)
    assert serialize_spec(parsed) == text
    assert spec_diff(spec, parsed).equal


def test_io_rules_not_in_o():
    text = """
icm v1
qubits 2
io w
ancilla a teleport init Z
cnot w a
measure w Z
measure a Y
"""
    s = derive_specification(parse_circuit(text))
    assert s.rules == (MeasurementRule("a", "Y"),)


def test_derive_rejects_invalid_circuit():
    # no such circuit reaches derive_specification: building it fails
    with pytest.raises(IcmParseError) as exc:
        IcmCircuit(
            (QubitDecl("w", "io"), QubitDecl("a", "teleport", "A")),
            rules=(MeasurementRule("a", "Y"),),
        )
    assert [v.code for v in exc.value.violations] == ["doubly-rotated"]


@pytest.mark.parametrize(
    "mangle, fragment",
    [
        (lambda t: t.replace("spec v1", "spec v2"), "header"),
        (lambda t: t.replace("qubits 3", "qubits x"), "qubits"),
        (lambda t: t.replace("+ XII -> XXX", "+ XII => XXX"), "->"),
        (lambda t: t.replace("+ XII -> XXX", "+ XI -> XXX"), "letters"),
        (lambda t: t.replace("init q2 Z", "init q9 Z"), "q2"),
        (lambda t: t.replace("measure q2", "measure q7"), "q7"),
        (lambda t: t + "\ntable\nend\n", "table"),
    ],
)
def test_parse_spec_rejects(t_circuit, mangle, fragment):
    good = serialize_spec(derive_specification(t_circuit))
    with pytest.raises(SpecParseError) as exc:
        parse_spec(mangle(good))
    assert fragment.lower() in str(exc.value).lower()


def test_parse_spec_reports_line():
    good = serialize_spec(derive_specification(load_fixture("t.icm")))
    bad = good.replace("+ ZII -> ZII", "+ ZII -> QII")
    with pytest.raises(SpecParseError) as exc:
        parse_spec(bad)
    assert exc.value.line is not None


SELF_CONDITIONED = """spec v1
qubits 2
io w
init a Z
table
+ XI -> XX
+ ZI -> ZI
end
measure a X ? a Z : a X
"""


def test_parse_spec_reports_a_self_conditioned_rule_with_its_line():
    with pytest.raises(SpecParseError) as exc:
        parse_spec(SELF_CONDITIONED)
    assert exc.value.line == 9
    assert "line 9" in str(exc.value) and "itself" in str(exc.value)


def test_spec_invariant_rules_reference_ancillae():
    with pytest.raises(SpecParseError):
        parse_spec(
            "spec v1\nqubits 2\nio w\ninit a Z\n"
            "table\n+ XI -> XI\nend\nmeasure w Z\n"
        )
