"""The package's public names, pinned so that none is added or comes back
without a deliberate edit here."""

import dataclasses
import inspect
import os
import subprocess
import sys

import icmverify

PUBLIC = {
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
}


def test_public_names_are_pinned():
    assert set(icmverify.__all__) == PUBLIC


def test_removed_fields_and_parameters_stay_removed():
    """A table row is only ``sign * input -> output``; no record type or
    oracle call carries state or options that no verdict reads."""
    fields = {
        cls.__name__: [f.name for f in dataclasses.fields(cls)]
        for cls in (icmverify.TableRow, icmverify.StabiliserTruthTable,
                    icmverify.CompileResult, icmverify.verifier.RowCheck)
    }
    assert fields == {
        "TableRow": ["input", "output", "sign"],
        "StabiliserTruthTable": ["n", "nrows", "in_x", "in_z", "out_x", "out_z", "signs"],
        "CompileResult": ["circuit", "x_forms", "z_forms", "exact"],
        "RowCheck": ["row", "actual", "actual_sign"],
    }
    assert not hasattr(icmverify.verifier.RowCheck, "passed")  # every RowCheck fails
    assert list(inspect.signature(icmverify.sample_verify).parameters) == ["c", "table"]


def test_import_leaves_numpy_unloaded_until_an_oracle_name_is_used():
    """``import icmverify`` loads no numpy; the oracle loads on first use."""
    probe = (
        "import sys, icmverify\n"
        "print('numpy' in sys.modules)\n"
        "missing = [n for n in icmverify.__all__ if getattr(icmverify, n, None) is None]\n"
        "print(missing, 'numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    ).stdout.split("\n")
    assert out[:2] == ["False", "[] True"]
