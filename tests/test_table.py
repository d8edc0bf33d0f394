import random

import pytest

from icmverify import (
    IcmCircuit,
    MeasurementRule,
    QubitDecl,
    canonicalize_table,
    derive_truth_table,
    table_equal,
)
from icmverify.pauli import row_parse
from icmverify.circuit import ROTATED_BASES
from icmverify.table import StabiliserTruthTable, seed_rows

from conftest import load_fixture, random_circuit


def expected_row_count(c: IcmCircuit) -> int:
    """2*|io| + 2*|rotated-init teleport| + |rotated-meas teleport| + |computational|."""
    count = 0
    for q in c.qubits:
        if q.kind == "io":
            count += 2
        elif q.kind == "teleport":
            count += 2 if q.init in ROTATED_BASES else 1
        elif q.kind == "computational":
            count += 1
    return count


def test_cnot_truth_table(cnot_circuit):
    t = derive_truth_table(cnot_circuit)
    assert [r.format() for r in t.rows] == [
        "+ XI -> XX",
        "+ ZI -> ZI",
        "+ IX -> IX",
        "+ IZ -> ZZ",
    ]


def test_t_fixture_rows(t_circuit):
    t = derive_truth_table(t_circuit)
    assert [r.format() for r in t.rows] == [
        "+ XII -> XXX",
        "+ ZII -> ZII",
        "+ IZI -> ZZI",
        "+ IIZ -> IZZ",
    ]


def test_derived_rows_never_pick_up_signs(t_circuit):
    for row in derive_truth_table(t_circuit).rows:
        assert row.sign == 1


def test_seed_rows_t(t_circuit):
    kinds = [(qid, basis, kind) for _, qid, basis, kind in seed_rows(t_circuit)]
    assert kinds == [
        ("q1", "X", "io"),
        ("q1", "Z", "io"),
        ("q2", "Z", "plain-init"),
        ("q3", "Z", "plain-init"),
    ]


@pytest.mark.parametrize("seed", range(12))
def test_expected_row_count_matches(seed):
    c = random_circuit(random.Random(seed))
    t = derive_truth_table(c)
    assert len(t.rows) == expected_row_count(c)


def test_row_count_formula_components():
    c = IcmCircuit(
        (
            QubitDecl("w1", "io"),
            QubitDecl("w2", "io"),
            QubitDecl("r", "teleport", "Y"),    # rotated init: 2 rows
            QubitDecl("m", "teleport", "Z"),    # rotated measurement: 1 row
            QubitDecl("p", "teleport", "X"),    # plain-plain: 1 row
            QubitDecl("c", "computational", "Z"),
            QubitDecl("d", "distillation", "Z"),  # contributes nothing
        ),
        rules=(MeasurementRule("m", "A"),),
    )
    # 2*2 io + 2 rotated-init + 1 rotated-meas + 1 plain teleport + 1 comp
    assert expected_row_count(c) == 9
    assert len(derive_truth_table(c).rows) == 9


def test_distillation_rows_excluded():
    c = IcmCircuit(
        (QubitDecl("w", "io"), QubitDecl("d", "distillation", "Z")),
        cnots=(("w", "d"),),
    )
    t = derive_truth_table(c)
    assert [str(r.input) for r in t.rows] == ["XI", "ZI"]


def _tab(n, rows):
    return StabiliserTruthTable(n, tuple(row_parse(r, n) for r in rows))


def test_table_equal_span():
    a = _tab(2, ["+ XI -> XX", "+ IX -> IX"])
    b = _tab(2, ["+ XX -> XI", "+ IX -> IX"])  # first row replaced by product
    assert table_equal(a, b)
    assert table_equal(b, a)


def test_table_equal_sign_sensitive():
    a = _tab(1, ["+ X -> X"])
    b = _tab(1, ["- X -> X"])
    assert not table_equal(a, b)


def test_table_equal_respects_span_size():
    a = _tab(2, ["+ XI -> XX", "+ IX -> IX"])
    b = _tab(2, ["+ XI -> XX"])
    assert not table_equal(a, b)
    assert not table_equal(b, a)


def test_canonicalize_golden_form():
    """Needs eliminations, a dependent row and back-substitution."""
    t = _tab(3, [
        "+ XXI -> XIX",
        "+ ZII -> IIZ",
        "+ ZXI -> XXZ",
        "+ IZZ -> ZII",
        "+ IZY -> YII",
        "- IIZ -> ZZZ",
        "+ YXI -> XIY",
    ])
    assert canonicalize_table(t).format().splitlines() == [
        "+ XII -> IXX",
        "+ IXI -> XXI",
        "+ IIX -> XII",
        "+ ZII -> IIZ",
        "- IZI -> IZZ",
        "- IIZ -> ZZZ",
    ]


def test_back_substitution_takes_the_highest_pivot_bit_first():
    """Rows whose products depend on their order: taking the lowest
    pivot bit first meets an imaginary relative phase and raises."""
    t = _tab(3, ["- ZIX -> IXY", "+ YYY -> YYY", "+ IIZ -> IXI"])
    assert canonicalize_table(t).format().splitlines() == [
        "+ XYI -> YYI",
        "- ZIX -> IXY",
        "+ IIZ -> IXI",
    ]


def test_canonicalize_idempotent():
    rng = random.Random(3)
    for _ in range(10):
        t = derive_truth_table(random_circuit(rng))
        c1 = canonicalize_table(t)
        assert canonicalize_table(c1) == c1


def test_table_equal_random_row_mixing():
    """Replacing rows by products keeps the span (and the verdict)."""
    rng = random.Random(5)
    for _ in range(10):
        t = derive_truth_table(random_circuit(rng))
        if len(t.rows) < 2:
            continue
        rows = list(t.rows)
        for _ in range(6):
            i, j = rng.sample(range(len(rows)), 2)
            from icmverify.pauli import row_multiply

            rows[i] = row_multiply(rows[i], rows[j])
        mixed = StabiliserTruthTable(t.n, tuple(rows))
        assert table_equal(t, mixed)


def test_format_roundtrip(t_circuit):
    t = derive_truth_table(t_circuit)
    text = t.format()
    parsed = _tab(3, [ln for ln in text.splitlines()])
    assert parsed.rows == t.rows
