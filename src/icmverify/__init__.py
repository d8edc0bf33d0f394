"""Stabiliser truth-table specifications for ICM circuits.

An ICM circuit consists of qubit initialisations, a CNOT-only gate
region, and single-qubit measurements.  From such a circuit this
package derives a machine-checkable specification -- a stabiliser
truth table plus the ancilla initialisation set and the ordered
measurement rules -- and verifies candidate circuits against it.
A dense-statevector oracle provides an independent cross-check for
small instances.
"""

from .pauli import (
    PauliError,
    PauliOperator,
    TableRow,
    FormalSuperposition,
    pauli_mul,
    pauli_parse,
    pauli_format,
    row_multiply,
    row_superpose,
)
from .circuit import (
    Basis,
    QubitDecl,
    MeasurementRule,
    IcmCircuit,
    IcmParseError,
    Violation,
    parse_circuit,
    serialize_circuit,
    validate_icm,
)
from .table import (
    StabiliserTruthTable,
    derive_truth_table,
    canonicalize_table,
    table_equal,
)
from .specfmt import (
    Specification,
    SpecParseError,
    derive_specification,
    parse_spec,
    serialize_spec,
)
from .verifier import VerificationReport, verify, spec_diff
from .transforms import TransformError, dual_rewrite, demote_rotated_measurement
from .compiler import (
    CompileError,
    CompileResult,
    GateList,
    parse_gates,
    compile_to_icm,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # the dense oracle needs numpy, which costs more to import than the
    # rest of the package together, so it loads on first use of its names
    if name in ("oracle", "OracleError", "SizeCapError", "channel_choi", "channels_equal",
                "choi_of_unitary", "fit_frames", "oracle_truth_table", "sample_verify"):
        import importlib

        oracle = importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    # data types and errors
    "Basis", "CompileError", "CompileResult", "FormalSuperposition", "GateList",
    "IcmCircuit", "IcmParseError", "MeasurementRule", "OracleError", "PauliError",
    "PauliOperator", "QubitDecl", "SizeCapError", "SpecParseError", "Specification",
    "StabiliserTruthTable", "TableRow", "TransformError", "VerificationReport",
    "Violation",
    # functions
    "canonicalize_table", "channel_choi", "channels_equal", "choi_of_unitary",
    "compile_to_icm", "demote_rotated_measurement", "derive_specification",
    "derive_truth_table", "dual_rewrite", "fit_frames", "oracle_truth_table",
    "parse_circuit", "parse_gates", "parse_spec", "pauli_format", "pauli_mul",
    "pauli_parse", "row_multiply", "row_superpose", "sample_verify",
    "serialize_circuit", "serialize_spec", "spec_diff", "table_equal",
    "validate_icm", "verify",
    # submodules
    "circuit", "compiler", "oracle", "pauli", "specfmt", "table", "transforms",
    "verifier",
]
