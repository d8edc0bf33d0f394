import os
import pathlib
import subprocess
import sys

import pytest

from icmverify import parse_circuit, parse_spec
from icmverify.circuit import validate_icm
from icmverify.cli import build_parser, main

from conftest import FIXTURES


def fx(name: str) -> str:
    return str(FIXTURES / name)


@pytest.fixture
def t_spec_file(tmp_path):
    path = tmp_path / "t.spec"
    assert main(["derive-spec", fx("t.icm"), "-o", str(path)]) == 0
    return str(path)


# --- parse -------------------------------------------------------------------


def test_parse_echoes_canonical_form(capsys):
    assert main(["parse", fx("t.icm")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("icm v1")
    assert parse_circuit(out).n == 3


def test_parse_records_format(capsys):
    assert main(["--format", "records", "parse", fx("t.icm")]) == 0
    out = capsys.readouterr().out
    assert "status: ok" in out
    assert "qubits: 3" in out
    assert "cnots: 2" in out
    assert "rules: 1" in out


def test_parse_error_exit_code(capsys):
    assert main(["parse", fx("broken.icm")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "line 5" in err


def test_parse_rejects_a_conditioned_qubit_measured_again(capsys):
    assert main(["parse", fx("conditioned_remeasured.icm")]) == 2
    assert "remeasured [b]" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["parse", "/no/such/file.icm"]) == 2


# --- derive-spec / verify ----------------------------------------------------


def test_derive_spec_stdout(capsys):
    assert main(["derive-spec", fx("t.icm")]) == 0
    out = capsys.readouterr().out
    spec = parse_spec(out)
    assert spec.table.n == 3
    assert "+ XII -> XXX" in out


def test_verify_pass(capsys, t_spec_file):
    assert main(["verify", fx("t.icm"), t_spec_file]) == 0
    assert "pass" in capsys.readouterr().out


def test_verify_commuted_variant_passes(t_spec_file):
    assert main(["verify", fx("t_variant.icm"), t_spec_file]) == 0


def test_verify_mutated_fails_naming_the_criterion(capsys, t_spec_file):
    assert main(["verify", fx("t_mutated.icm"), t_spec_file]) == 1
    out = capsys.readouterr().out
    assert "criterion2-table" in out
    assert "XII" in out


def test_verify_wrong_roster(capsys, t_spec_file):
    assert main(["verify", fx("cnot.icm"), t_spec_file]) == 1


# --- spec-diff ---------------------------------------------------------------


def test_spec_diff_equal(capsys, t_spec_file):
    assert main(["spec-diff", t_spec_file, t_spec_file]) == 0
    assert "equal" in capsys.readouterr().out


def test_spec_diff_different(capsys, tmp_path, t_spec_file):
    other = tmp_path / "cnot.spec"
    assert main(["derive-spec", fx("cnot.icm"), "-o", str(other)]) == 0
    assert main(["spec-diff", t_spec_file, str(other)]) == 1
    assert "different" in capsys.readouterr().out


def test_spec_diff_bad_rule_exit_code(capsys, tmp_path, t_spec_file):
    text = open(t_spec_file).read()
    bad = tmp_path / "bad.spec"
    bad.write_text(text.replace("? q3 X : q3 Y", "? q2 X : q2 Y"))
    assert main(["spec-diff", str(bad), t_spec_file]) == 2
    assert "line 12" in capsys.readouterr().err


# --- equiv -------------------------------------------------------------------


def test_equiv_self(capsys):
    assert main(["equiv", fx("t.icm"), fx("t.icm")]) == 0
    assert "equivalent: yes" in capsys.readouterr().out


def test_equiv_commuted_variant():
    assert main(["equiv", fx("t.icm"), fx("t_variant.icm")]) == 0


def test_equiv_detects_difference(tmp_path, capsys):
    # teleport.icm without frame corrections is an I/X mixture, not a wire
    wire = tmp_path / "wire.icm"
    wire.write_text("icm v1\nqubits 1\nio q1\n")
    assert main(["equiv", fx("teleport.icm"), str(wire)]) == 1
    assert "equivalent: no" in capsys.readouterr().out


def test_equiv_size_cap(tmp_path, capsys):
    lines = ["icm v1", "qubits 13"] + [f"io q{i}" for i in range(13)]
    big = tmp_path / "big.icm"
    big.write_text("\n".join(lines) + "\n")
    assert main(["equiv", str(big), str(big)]) == 3
    assert "error:" in capsys.readouterr().err


# --- transform ---------------------------------------------------------------


def test_transform_dual_roundtrip(tmp_path):
    mid = tmp_path / "dual.icm"
    back = tmp_path / "back.icm"
    assert main(["transform", fx("teleport.icm"), "--dual", "-o", str(mid)]) == 0
    assert main(["transform", str(mid), "--dual", "-o", str(back)]) == 0
    assert back.read_text() == (FIXTURES / "teleport.icm").read_text()


def test_transform_demote(tmp_path, capsys):
    comp = tmp_path / "p.icm"
    assert main(["compile", fx("t.gates"), "-o", str(comp)]) == 0
    assert main(["transform", str(comp), "--demote", "q1"]) == 0
    out = capsys.readouterr().out
    c = parse_circuit(out)
    assert "q1_d" in {q.id for q in c.qubits}


def test_transform_demote_error(capsys):
    assert main(["transform", fx("teleport.icm"), "--demote", "q1"]) == 2
    assert "plain basis" in capsys.readouterr().err


def test_transform_dual_conditional_error(capsys):
    assert main(["transform", fx("t.icm"), "--dual"]) == 2


# --- compile -----------------------------------------------------------------


def test_compile_stdout(capsys):
    assert main(["compile", fx("ht.gates")]) == 0
    out = capsys.readouterr().out
    c = parse_circuit(out)
    assert c.io_ids() == ("q1",)
    assert len(c.qubits) == 6  # io + 3 (h) + 2 (t)


def test_compile_flavour_and_uncorrected(capsys):
    assert main(["compile", fx("t.gates"), "--flavour", "rotated_init",
                 "--uncorrected"]) == 0
    out = capsys.readouterr().out
    assert "init A" in out


def test_compile_boundary_error(tmp_path, capsys):
    bad = tmp_path / "ht_ri.gates"
    bad.write_text("gates v1\nqubits 1\nh 1\nt 1\n")
    assert main(["compile", str(bad), "--flavour", "rotated_init"]) == 2


# --- sample-verify -----------------------------------------------------------


def test_sample_verify_pass(capsys, t_spec_file):
    assert main(["sample-verify", fx("t.icm"), t_spec_file]) == 0
    assert capsys.readouterr().out == "sampled: pass\n"


def test_sample_verify_structural_failure_reports_verify(capsys, t_spec_file):
    assert main(["sample-verify", fx("t_mutated.icm"), t_spec_file]) == 1
    assert "criterion2-table" in capsys.readouterr().out


def test_sample_verify_aligns_spec_columns_with_the_circuit(tmp_path, capsys):
    # the spec lists io qubits first; the circuit declares its ancilla first
    circuit = tmp_path / "anc_first.icm"
    circuit.write_text("icm v1\nancilla a teleport init Z\nio q1\ncnot q1 a\nmeasure a X\nout q1\n")
    spec = tmp_path / "anc_first.spec"
    assert main(["derive-spec", str(circuit), "-o", str(spec)]) == 0
    capsys.readouterr()
    assert main(["sample-verify", str(circuit), str(spec)]) == 0
    assert capsys.readouterr().out == "sampled: pass\n"


def test_sample_verify_passes_a_row_product_and_fails_its_negation(tmp_path, capsys, t_spec_file):
    # row 0 x row 1 of t.icm's table is + YII -> YXX
    text = pathlib.Path(t_spec_file).read_text()
    assert "+ ZII -> ZII\n" in text
    mixed = tmp_path / "mixed.spec"
    mixed.write_text(text.replace("+ ZII -> ZII\n", "+ YII -> YXX\n"))
    assert main(["sample-verify", fx("t.icm"), str(mixed)]) == 0
    assert capsys.readouterr().out == "sampled: pass\n"
    mixed.write_text(text.replace("+ ZII -> ZII\n", "- YII -> YXX\n"))
    assert main(["sample-verify", fx("t.icm"), str(mixed)]) == 1
    assert "criterion2-table: fail" in capsys.readouterr().out


def test_sample_verify_size_cap_exits_3(tmp_path, capsys):
    wide = tmp_path / "wide.icm"
    wide.write_text("icm v1\nio " + " ".join(f"q{i}" for i in range(13)) + "\n")
    spec = tmp_path / "wide.spec"
    assert main(["derive-spec", str(wide), "-o", str(spec)]) == 0
    assert main(["sample-verify", str(wide), str(spec)]) == 3
    assert "error: dense oracle capped at" in capsys.readouterr().err


def test_sample_verify_oracle_error_exits_2(monkeypatch, capsys, t_spec_file):
    from icmverify import oracle

    def fail(c, table):
        raise oracle.OracleError("conjugated operator is not a Pauli")

    monkeypatch.setattr(oracle, "sample_verify", fail)
    assert main(["sample-verify", fx("t.icm"), t_spec_file]) == 2
    assert capsys.readouterr().err == "error: conjugated operator is not a Pauli\n"


def test_cli_import_leaves_numpy_unloaded():
    """Only equiv and sample-verify load the dense oracle and numpy."""
    probe = "import sys, icmverify.cli\nprint('numpy' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert out == "False\n"


# --- parser object -----------------------------------------------------------


def test_build_parser_subcommands():
    ap = build_parser()
    args = ap.parse_args(["verify", "a.icm", "b.spec"])
    assert args.command == "verify"
    with pytest.raises(SystemExit):
        ap.parse_args(["no-such-command"])
    with pytest.raises(SystemExit):
        ap.parse_args(["sample-verify", "a.icm", "b.spec", "--shots", "1"])


# --- malformed input -----------------------------------------------------------

SPEC = """spec v1
qubits 2
io w
init a Z
table
+ XI -> XX
+ ZI -> ZI
+ IZ -> ZZ
end
measure a Y
"""


@pytest.mark.parametrize(
    "command, suffix, text, line, fragment",
    [
        pytest.param("compile", ".gates", "gates v1\nqubits 2\nt 3\n", 3,
                     "bad gate 't 3': qubit 3 is not in 1..2", id="gate-qubit-range"),
        pytest.param("compile", ".gates", "gates v1\nqubits 1\nfoo 1\n", 3,
                     "unknown gate 'foo'", id="gate-name"),
        pytest.param("compile", ".gates", "gates v1\nqubits 1\n\nt x\n", 4,
                     "bad gate line 't x'", id="gate-qubit-text"),
        pytest.param("spec-diff", ".spec", SPEC.replace("io w", "io w w"), 3,
                     "'w' declared twice", id="spec-io-repeat"),
        pytest.param("spec-diff", ".spec", SPEC.replace("init a Z", "init a Z\ninit w X"), 5,
                     "'w' declared twice", id="spec-init-names-io"),
        pytest.param("spec-diff", ".spec", SPEC.replace("io w", "io w v"), 2,
                     "qubits line says 2 but 3 qubits are declared", id="spec-qubit-count"),
        pytest.param("spec-diff", ".spec", SPEC.replace("measure a Y", "measure q9 Y"), 10,
                     "undeclared qubit 'q9'", id="spec-measure-undeclared"),
        pytest.param("spec-diff", ".spec", SPEC.replace("measure a Y", "measure w Y"), 10,
                     "io qubit 'w'", id="spec-measure-io"),
        pytest.param("spec-diff", ".spec", SPEC.replace("+ ZI -> ZI", "+ ZI -> -ZI"), 7,
                     "row sign goes before the input, as in '- ZI -> ZI'", id="spec-row-sign"),
        pytest.param("spec-diff", ".spec", SPEC.replace("end\nmeasure a Y\n", ""), 5,
                     "table block not closed with 'end'", id="spec-table-unclosed"),
        # counts that no table may be built for: the roster is compared first
        pytest.param("spec-diff", ".spec", "spec v1\nqubits 99999999999999999999\nio q1\n", 2,
                     "qubits line says 99999999999999999999 but 1 qubits are declared",
                     id="spec-count-overflows"),
        pytest.param("spec-diff", ".spec",
                     "spec v1\nqubits 99999999999999999999\nio q1\ntable\nend\n", 2,
                     "qubits line says 99999999999999999999 but 1 qubits are declared",
                     id="spec-count-overflows-empty-table"),
        pytest.param("spec-diff", ".spec", SPEC.replace("qubits 2", "qubits 5"), 2,
                     "qubits line says 5 but 2 qubits are declared", id="spec-count-above-roster"),
        pytest.param("spec-diff", ".spec", SPEC + "qubits 2\n", 11,
                     "second 'qubits' line", id="spec-second-qubits"),
        pytest.param("parse", ".icm", "icm v1\nio q1 q2\nout q1\nout q2\n", 4,
                     "second 'out' line", id="icm-second-out"),
        pytest.param("derive-spec", ".icm",
                     "icm v1\nio q1\nancilla a teleport init Z\ncnot q1 a\nmeasure a Z\n"
                     "# the output is measured\nout q1 a\n", 7,
                     "bad-output [a]: output qubit is measured", id="bad-output"),
        pytest.param("parse", ".icm",
                     "icm v1\nio q1\nancilla a teleport init Z\nancilla b teleport init X\n"
                     "measure b X\nmeasure a X\nmeasure a Z\n", 7,
                     "remeasured [a]: qubit measured by rule 1 and again by rule 2",
                     id="remeasured"),
        pytest.param("parse", ".icm",
                     "icm v1\nio q1 a\nancilla b teleport init A\nmeasure b Y\n", 3,
                     "doubly-rotated [b]: teleport ancilla has rotated init A", id="doubly-rotated"),
        pytest.param("verify", ".icm",
                     "icm v1\nio q1\nancilla a teleport init Z\nancilla b teleport init X\n"
                     "measure b X\nmeasure a X\nmeasure a Z\n", 7,
                     "remeasured [a]: qubit measured by rule 1 and again by rule 2",
                     id="verify-remeasured"),
    ],
)
def test_malformed_input_of_every_format_exits_2_naming_its_line(
    tmp_path, capsys, command, suffix, text, line, fragment
):
    path = tmp_path / ("input" + suffix)
    path.write_text(text)
    args = [command, str(path)] + ([str(path)] if command == "spec-diff" else [])
    if command == "verify":
        # checked against the spec of the candidate without its last line
        valid = tmp_path / "valid.icm"
        valid.write_text("".join(text.splitlines(keepends=True)[:-1]))
        args.append(str(tmp_path / "valid.spec"))
        assert main(["derive-spec", str(valid), "-o", args[-1]]) == 0
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: ")
    assert fragment in err


@pytest.mark.parametrize(
    "command, suffix, data, line",
    [
        ("parse", ".icm", b"\xff\xfe", 1),
        ("parse", ".icm", b"icm v1\n# caf\xc3\xa9\r\nio q1 \xe9\nout q1\n", 3),
        ("spec-diff", ".spec", b"spec v1\nqubits 1\nio q1\ntable\n+ X -> X\x80\nend\n", 5),
        ("compile", ".gates", b"gates v1\nqubits 1\n\nt 1\n\xc3(\n", 5),
    ],
    ids=["icm-first-byte", "icm-after-crlf", "spec-row", "gates"],
)
def test_a_file_that_is_not_utf8_exits_2_naming_its_line(
    tmp_path, capsys, command, suffix, data, line
):
    path = tmp_path / ("input" + suffix)
    path.write_bytes(data)
    args = [command, str(path)] + ([str(path)] if command == "spec-diff" else [])
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: {path} is not UTF-8 text (")


def test_a_crlf_file_reads_as_its_lf_form(tmp_path, capsys):
    text = (FIXTURES / "t.icm").read_text()
    path = tmp_path / "crlf.icm"
    path.write_bytes(text.replace("\n", "\r\n").encode())
    assert main(["parse", str(path)]) == 0
    assert main(["parse", fx("t.icm")]) == 0
    first, second = capsys.readouterr().out.split("icm v1")[1:]
    assert first == second


@pytest.mark.parametrize("command", ["derive-spec", "verify"])
def test_the_cli_validates_each_circuit_once(monkeypatch, capsys, t_spec_file, command):
    validated = []

    def counting(c):
        validated.append(c)
        return validate_icm(c)

    # wrapped wherever the package holds it, as a profiler would wrap it
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "icmverify" and vars(module).get("validate_icm"):
            monkeypatch.setattr(module, "validate_icm", counting)
    args = [command, fx("t.icm")] + ([t_spec_file] if command == "verify" else [])
    assert main(args) == 0
    assert len(validated) == 1


@pytest.mark.parametrize("command", ["parse", "derive-spec"])
@pytest.mark.parametrize(
    "text, fragment",
    [
        ("icm v1\nio q1\nancilla a teleport init Z\ncnot q1 a\nmeasure a Z\nout a\n",
         "bad-output [a]: output qubit is measured"),
        ("icm v1\nio q1\nout q1 q1\n", "bad-output [q1]: output qubit listed twice"),
    ],
    ids=["measured", "repeated"],
)
def test_bad_outputs_exit_2_before_equiv(tmp_path, capsys, command, text, fragment):
    path = tmp_path / "bad_out.icm"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    assert fragment in capsys.readouterr().err
