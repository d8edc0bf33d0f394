import numpy as np
import pytest

from icmverify import (
    PauliError,
    PauliOperator,
    pauli_format,
    pauli_mul,
    pauli_parse,
    row_multiply,
    row_superpose,
)
from icmverify.pauli import TableRow, conjugate_columns, row_parse
from icmverify.table import StabiliserTruthTable


# -- scalar reference for conjugate_columns: one operator, one CNOT at a time --

def conjugate_cnot(p: PauliOperator, control: int, target: int) -> PauliOperator:
    """Conjugate ``p`` by a single CNOT: ``CNOT . p . CNOT``."""
    if control == target:
        raise PauliError("cnot control and target must differ")
    xc = (p.x >> control) & 1
    zc = (p.z >> control) & 1
    xt = (p.x >> target) & 1
    zt = (p.z >> target) & 1
    x = p.x ^ (xc << target)
    z = p.z ^ (zt << control)
    phase = p.phase + 2 * (xc & zt & (xt ^ zc ^ 1))
    return PauliOperator(p.n, x, z, phase % 4)


def conjugate_circuit(p: PauliOperator, cnots) -> PauliOperator:
    """Conjugate ``p`` through a CNOT list applied in temporal order."""
    for c, t in cnots:
        p = conjugate_cnot(p, c, t)
    return p


@pytest.mark.parametrize(
    "text, n, x, z, phase",
    [
        ("I", 1, 0, 0, 0),
        ("X", 1, 1, 0, 0),
        ("Z", 1, 0, 1, 0),
        ("Y", 1, 1, 1, 0),
        ("XIZ", 3, 0b001, 0b100, 0),
        ("-iY", 1, 1, 1, 3),
        ("+ XX", 2, 0b11, 0, 0),
        ("-ZI", 2, 0, 0b01, 2),
    ],
)
def test_parse(text, n, x, z, phase):
    p = pauli_parse(text)
    assert (p.n, p.x, p.z, p.phase) == (n, x, z, phase)


@pytest.mark.parametrize("text", ["XIZ", "-iY", "-ZI", "iXX", "IIII"])
def test_format_roundtrip(text):
    assert pauli_format(pauli_parse(text)) == text.replace("+", "")


@pytest.mark.parametrize("bad", ["", "XQ", "x", "i", "-"])
def test_parse_rejects(bad):
    with pytest.raises(PauliError):
        pauli_parse(bad)


def test_parse_length_check():
    with pytest.raises(PauliError):
        pauli_parse("XX", n=3)


def test_qubit0_is_leftmost_letter():
    p = pauli_parse("XIZ")
    assert p.letter(0) == "X" and p.letter(2) == "Z"


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ("X", "Z", "-iY"),   # XZ = -iY
        ("Z", "X", "iY"),
        ("X", "Y", "iZ"),
        ("Y", "X", "-iZ"),
        ("Y", "Y", "I"),
        ("XZ", "ZX", "YY"),  # the -i and +i column phases cancel
    ],
)
def test_mul(a, b, expected):
    got = pauli_mul(pauli_parse(a), pauli_parse(b))
    assert pauli_format(got) == expected


def test_mul_anticommutation_sign():
    x, z = pauli_parse("X"), pauli_parse("Z")
    xz = pauli_mul(x, z)
    zx = pauli_mul(z, x)
    assert (xz.phase - zx.phase) % 4 == 2  # differ by -1


@pytest.mark.parametrize(
    "pin, pout",
    [
        ("XI", "XX"),
        ("IX", "IX"),
        ("ZI", "ZI"),
        ("IZ", "ZZ"),
        ("XX", "XI"),
        ("ZZ", "IZ"),
        ("YY", "-XZ"),
        ("YX", "YI"),
        ("XY", "YZ"),  # X_c X_t times Z_c Y_t, cross-checked densely below
    ],
)
def test_conjugate_cnot(pin, pout):
    got = conjugate_cnot(pauli_parse(pin), 0, 1)
    assert got == pauli_parse(pout) or pauli_format(got) == pout


def test_conjugate_cnot_against_dense():
    """Cross-check the sign rule against explicit 4x4 matrices."""
    mats = {
        "I": np.eye(2),
        "X": np.array([[0, 1], [1, 0]]),
        "Y": np.array([[0, -1j], [1j, 0]]),
        "Z": np.diag([1, -1]),
    }
    cnot = np.zeros((4, 4))
    for b in range(4):
        cnot[b ^ 1 if b & 2 else b, b] = 1
    for a in "IXYZ":
        for b in "IXYZ":
            p = pauli_parse(a + b)
            m = np.kron(mats[a], mats[b]).astype(complex)
            got = conjugate_cnot(p, 0, 1)
            want = cnot @ m @ cnot
            have = (1j ** got.phase) * np.kron(
                mats[got.letter(0)], mats[got.letter(1)]
            )
            assert np.allclose(have, want), (a, b)


def test_conjugate_circuit_order():
    p = pauli_parse("XII")
    got = conjugate_circuit(p, [(0, 1), (1, 2)])
    assert pauli_format(got) == "XXX"


def conjugate_batch(ops, cnots):
    """``conjugate_columns`` on the operators' per-qubit columns, read back bit by bit."""
    n = ops[0].n
    xs = [sum(((p.x >> k) & 1) << i for i, p in enumerate(ops)) for k in range(n)]
    zs = [sum(((p.z >> k) & 1) << i for i, p in enumerate(ops)) for k in range(n)]
    flips = conjugate_columns(xs, zs, cnots, range(n))
    return [
        PauliOperator(
            n,
            sum(((xs[k] >> i) & 1) << k for k in range(n)),
            sum(((zs[k] >> i) & 1) << k for k in range(n)),
            p.phase + 2 * ((flips >> i) & 1),
        )
        for i, p in enumerate(ops)
    ]


def test_batch_matches_scalar():
    rng = np.random.default_rng(11)
    n = 5
    cnots = [(int(a), int(b)) for a, b in rng.integers(0, n, (20, 2)) if a != b]
    ops = [
        PauliOperator(n, int(rng.integers(0, 2**n)), int(rng.integers(0, 2**n)))
        for _ in range(16)
    ]
    assert conjugate_batch(ops, cnots) == [conjugate_circuit(p, cnots) for p in ops]


def test_batch_keeps_input_phase_and_rejects_mixed_sizes():
    ops = [pauli_parse("-XI"), pauli_parse("iYZ")]
    assert conjugate_batch(ops, [(0, 1)]) == [conjugate_circuit(p, [(0, 1)]) for p in ops]
    assert conjugate_columns([], [], [], range(0)) == 0
    with pytest.raises(PauliError):
        StabiliserTruthTable(2, [row_parse("+ X -> X"), row_parse("+ XI -> XI")])


def test_row_parse_and_format():
    r = row_parse("- XI -> XX")
    assert r.sign == -1
    assert r.format() == "- XI -> XX"


def test_row_multiply_sign():
    r1 = row_parse("+ XI -> XX")
    r3 = row_parse("+ ZI -> ZI")
    s2 = row_multiply(r1, r3)
    assert s2.format() == "+ YI -> YX"


def test_row_multiply_rejects_imaginary():
    with pytest.raises(PauliError):
        row_multiply(row_parse("+ XI -> XI"), row_parse("+ ZI -> II"))


def test_row_superpose():
    r1 = row_parse("+ XX -> XI")
    r3 = row_parse("+ YX -> YI")
    sup = row_superpose(r3, r1)
    assert sup.format() == "((+ YX -> YI) + (+ XX -> XI))/sqrt(2)"
    collapsed = row_superpose(r1, r1)
    assert collapsed.terms == ((1.0, r1),)


def test_row_rejects_phase():
    with pytest.raises(PauliError):
        TableRow(pauli_parse("iX"), pauli_parse("X"))


@pytest.mark.parametrize(
    "text, message",
    [
        ("+ XII -> -XXX", "row sign goes before the input, as in '- XII -> XXX'"),
        ("- -XI -> XX", "row sign goes before the input, as in '+ XI -> XX'"),
        ("+ XI -> iXX", "must not carry i phases"),
        ("+ -iXI -> XX", "must not carry i phases"),
    ],
)
def test_row_parse_names_what_is_wrong_with_a_phase(text, message):
    with pytest.raises(PauliError) as exc:
        row_parse(text)
    assert message in str(exc.value)
