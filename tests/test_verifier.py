import random

import pytest

from icmverify import (
    IcmCircuit,
    IcmParseError,
    MeasurementRule,
    QubitDecl,
    Specification,
    StabiliserTruthTable,
    TableRow,
    derive_specification,
    parse_spec,
    serialize_spec,
    spec_diff,
    verify,
)

from conftest import load_fixture, random_circuit
from test_pauli import conjugate_circuit


@pytest.fixture
def t_spec(t_circuit):
    return derive_specification(t_circuit)


def test_self_verification(t_circuit, t_spec):
    report = verify(t_circuit, t_spec)
    assert report.overall
    assert report.init_ok and report.table_ok and report.rules_ok


def test_commuted_variant_passes(t_spec):
    report = verify(load_fixture("t_variant.icm"), t_spec)
    assert report.overall


def test_extra_cnot_fails_criterion2_row_xii(t_spec):
    report = verify(load_fixture("t_mutated.icm"), t_spec)
    assert not report.overall
    assert report.init_ok and report.rules_ok and not report.table_ok
    assert any(str(rc.row.input) == "XII" for rc in report.row_checks)
    assert "XII" in report.format()


def _with(c, **kw):
    fields = dict(qubits=c.qubits, cnots=c.cnots, rules=c.rules, outputs=c.outputs)
    fields.update(kw)
    return IcmCircuit(fields["qubits"], fields["cnots"], fields["rules"],
                      fields["outputs"])


def test_reordered_declarations_fail_on_the_same_rows():
    rng = random.Random(21)
    for _ in range(24):
        c = random_circuit(rng, max_cnots=20)
        if c.n < 2:
            continue
        spec = derive_specification(c)
        mutant = _with(c, cnots=c.cnots + (tuple(rng.sample([q.id for q in c.qubits], 2)),))
        qubits = list(mutant.qubits)
        rng.shuffle(qubits)
        plain = verify(mutant, spec)
        reordered = verify(_with(mutant, qubits=tuple(qubits)), spec)
        assert [(rc.actual, rc.actual_sign) for rc in reordered.row_checks] == [
            (rc.actual, rc.actual_sign) for rc in plain.row_checks
        ]
        assert not plain.table_ok
        assert reordered.format() == plain.format()


def test_flipped_cnot_fails_criterion2(t_circuit, t_spec):
    mutant = _with(t_circuit, cnots=(("q2", "q1"), ("q2", "q3")))
    report = verify(mutant, t_spec)
    assert not report.table_ok and not report.overall


def test_changed_init_fails_criterion1(t_circuit, t_spec):
    qubits = tuple(
        QubitDecl(q.id, q.kind, "X") if q.id == "q3" else q for q in t_circuit.qubits
    )
    report = verify(_with(t_circuit, qubits=qubits), t_spec)
    assert not report.init_ok and not report.overall
    assert any("q3" in m for m in report.init_mismatches)


def test_reordered_rule_fails_criterion3(t_circuit, t_spec):
    mutant = _with(t_circuit, rules=(MeasurementRule("q2", "A", "q3", "Y", "X"),))
    report = verify(mutant, t_spec)
    assert not report.rules_ok and not report.overall
    assert report.rules_divergence == 0


def test_roster_mismatch_is_immediate_fail(t_spec):
    stranger = IcmCircuit((QubitDecl("q1", "io"), QubitDecl("q2", "io")))
    report = verify(stranger, t_spec)
    assert not report.roster_ok and not report.overall
    assert report.roster_message


def test_invalid_candidate_fails_roster(t_circuit):
    # no such candidate reaches verify: building it fails
    with pytest.raises(IcmParseError) as exc:
        _with(
            t_circuit,
            qubits=(
                QubitDecl("q1", "io"),
                QubitDecl("q2", "teleport", "A"),  # doubly rotated with its A rule
                QubitDecl("q3", "teleport", "Z"),
            ),
        )
    assert [(v.code, v.entity) for v in exc.value.violations] == [("doubly-rotated", "q2")]


def test_declaration_order_is_not_significant(t_circuit, t_spec):
    reordered = _with(
        t_circuit,
        qubits=(t_circuit.qubits[2], t_circuit.qubits[0], t_circuit.qubits[1]),
    )
    assert verify(reordered, t_spec).overall


@pytest.mark.parametrize("seed", range(25))
def test_self_verification_property(seed):
    c = random_circuit(random.Random(seed))
    assert verify(c, derive_specification(c)).overall


def test_spec_equiv_reparse(t_spec):
    assert spec_diff(t_spec, parse_spec(serialize_spec(t_spec))).equal


def test_spec_equiv_variants(t_spec):
    other = derive_specification(load_fixture("t_variant.icm"))
    assert spec_diff(t_spec, other).equal
    d = spec_diff(t_spec, other)
    assert d.equal


def test_spec_diff_rule_swap(t_spec):
    swapped = parse_spec(
        serialize_spec(t_spec).replace("? q3 X : q3 Y", "? q3 Y : q3 X")
    )
    d = spec_diff(t_spec, swapped)
    assert not d.equal
    assert not spec_diff(t_spec, swapped).equal
    assert "rule" in d.format().lower()


def test_spec_diff_table(t_spec):
    mutated = derive_specification(load_fixture("t_mutated.icm"))
    d = spec_diff(t_spec, mutated)
    assert not d.equal


def test_row_checks_list_exactly_the_failing_rows_in_row_order():
    """Each row is checked against a one-CNOT-at-a-time reference; one
    row's sign is flipped in the spec, so a sign mismatch shows too."""
    rng = random.Random(34)
    seen_failures = 0
    for _ in range(30):
        c = random_circuit(rng, max_cnots=20)
        if c.n < 2:
            continue
        spec = derive_specification(c)
        rows = list(spec.table.rows)
        flip = rng.randrange(len(rows))
        rows[flip] = TableRow(rows[flip].input, rows[flip].output, -rows[flip].sign)
        spec = Specification(spec.n, spec.io_ids, spec.inits,
                             StabiliserTruthTable(spec.n, rows), spec.rules)
        ids = [q.id for q in c.qubits]
        mutant = _with(c, cnots=(tuple(rng.sample(ids, 2)),) + c.cnots)
        col = {qid: k for k, qid in enumerate(spec.roster())}
        cnots = [(col[a], col[b]) for a, b in mutant.cnots]
        want = []
        for row in rows:
            got = conjugate_circuit(row.input, cnots)
            sign = -1 if got.phase == 2 else 1
            if got.canonical() != row.output or sign != row.sign:
                want.append((row, got.canonical(), sign))

        report = verify(mutant, spec)
        assert [(rc.row, rc.actual, rc.actual_sign) for rc in report.row_checks] == want
        assert report.table_ok == (not want)
        seen_failures += len(want)
    assert seen_failures > 30
