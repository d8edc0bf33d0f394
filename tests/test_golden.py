"""Golden digests of the text a spec produces, pinned across table layouts.

Each digest is the SHA-256 of one kind of output over a fixed corpus: the
valid ``.icm`` fixtures, both compiled flavours of the ``.gates``
fixtures, and 100 seeded random circuits with shuffled declarations.
The digests were taken from the row-major table code, so a change of
storage layout must leave every output byte-identical.
"""

import hashlib
import random

import pytest

from icmverify import (
    CompileError,
    IcmCircuit,
    IcmParseError,
    canonicalize_table,
    compile_to_icm,
    derive_specification,
    parse_gates,
    parse_spec,
    serialize_spec,
    spec_diff,
    validate_icm,
    verify,
)

from conftest import FIXTURES, load_fixture, random_circuit

GOLDEN = {
    "serialize_spec": "cc49726bab58a21e9f4eb792b34eea8125c13b8024ff78fe1baaa091e00f6a78",
    "verify": "219e04abd07415e4f7c9053e2705843e888bc5969ea014727d15fa815c2c8cb2",
    "spec_diff": "c4fe46f744b9dc5509873624af431ad2e0f3358d71c40e6db3c54f3101291906",
    "canonicalize_table": "93d23df065a97418671cc2387351e0d4ce79d0f3a8250cedef6e1b54d2a12419",
}


def _corpus() -> list[IcmCircuit]:
    circuits = []
    for path in sorted(FIXTURES.glob("*.icm")):
        try:
            c = load_fixture(path.name)
        except IcmParseError:
            continue
        if not validate_icm(c):
            circuits.append(c)
    for path in sorted(FIXTURES.glob("*.gates")):
        gates = parse_gates(path.read_text())
        for flavour in ("rotated_meas", "rotated_init"):
            try:
                circuits.append(compile_to_icm(gates, flavour).circuit)
            except CompileError:  # a gate list the flavour cannot express
                continue
    rng = random.Random(20171)
    for _ in range(100):
        c = random_circuit(rng, max_io=5, max_anc=8, max_cnots=40)
        qubits = list(c.qubits)
        rng.shuffle(qubits)
        circuits.append(IcmCircuit(tuple(qubits), c.cnots, c.rules, c.outputs))
    return circuits


def _mutants(c: IcmCircuit, rng: random.Random) -> list[IcmCircuit]:
    """The source, its declarations reordered, an extra CNOT, a CNOT in front."""
    qubits = list(c.qubits)
    rng.shuffle(qubits)
    out = [c, IcmCircuit(tuple(qubits), c.cnots, c.rules, c.outputs)]
    if c.n >= 2:
        ids = [q.id for q in c.qubits]
        for front in (False, True):
            pair = tuple(rng.sample(ids, 2))
            cnots = (pair,) + c.cnots if front else c.cnots + (pair,)
            out.append(IcmCircuit(c.qubits, cnots, c.rules, c.outputs))
    return out


def _outputs() -> dict[str, list[str]]:
    rng = random.Random(4)
    out: dict[str, list[str]] = {kind: [] for kind in GOLDEN}
    for c in _corpus():
        spec = derive_specification(c)
        text = serialize_spec(spec)
        out["serialize_spec"].append(text)
        out["canonicalize_table"].append(canonicalize_table(spec.table).format())
        out["spec_diff"].append(spec_diff(spec, parse_spec(text)).format())
        for m in _mutants(c, rng):
            out["verify"].append(verify(m, spec).format())
            out["spec_diff"].append(spec_diff(spec, derive_specification(m)).format())
    return out


def _digest(texts: list[str]) -> str:
    return hashlib.sha256("\n\x00\n".join(texts).encode()).hexdigest()


@pytest.fixture(scope="module")
def outputs():
    return _outputs()


@pytest.mark.parametrize("kind", list(GOLDEN))
def test_output_is_byte_identical_to_the_row_major_code(outputs, kind):
    assert _digest(outputs[kind]) == GOLDEN[kind]


if __name__ == "__main__":
    for kind, texts in _outputs().items():
        print(f'    "{kind}": "{_digest(texts)}",')
