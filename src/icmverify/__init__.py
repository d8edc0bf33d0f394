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
from .oracle import (
    OracleError,
    SizeCapError,
    channel_choi,
    channels_equal,
    choi_of_unitary,
    fit_frames,
    oracle_truth_table,
    sample_verify,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
