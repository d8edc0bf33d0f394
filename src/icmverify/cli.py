"""Command-line front end.

Exit codes: 0 success/pass, 1 verification or equivalence failure,
2 parse/validation error, 3 size cap exceeded.
"""

from __future__ import annotations

import argparse
import sys

from .circuit import (
    IcmParseError,
    parse_circuit,
    serialize_circuit,
    violation_line,
)
from .compiler import CompileError, compile_to_icm, parse_gates
from .specfmt import (
    SpecParseError,
    derive_specification,
    parse_spec,
    permute_table,
    serialize_spec,
)
from .transforms import TransformError, demote_rotated_measurement, dual_rewrite
from .verifier import spec_diff, verify


def _read(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        # the text before the bad byte, split as the parsers split it
        line = len((data[:e.start].decode("utf-8") + ".").splitlines())
        raise IcmParseError(f"{path} is not UTF-8 text ({e.reason})", line) from None


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _load_circuit(path: str):
    text = _read(path)
    try:
        return parse_circuit(text)
    except IcmParseError as e:
        if not e.violations:
            raise
        located = [(violation_line(text, v), v) for v in e.violations]
        raise IcmParseError("; ".join(
            str(v) if ln is None else f"line {ln}: {v}" for ln, v in located
        )) from None


def _records(pairs: list[tuple[str, str]]) -> str:
    return "\n".join(f"{k}: {v}" for k, v in pairs)


def _cmd_parse(args) -> int:
    c = _load_circuit(args.circuit)
    if args.format == "records":
        print(_records([("status", "ok"), ("qubits", str(c.n)),
                        ("cnots", str(len(c.cnots))), ("rules", str(len(c.rules)))]))
    else:
        print(serialize_circuit(c), end="")
    return 0


def _cmd_derive_spec(args) -> int:
    spec = derive_specification(_load_circuit(args.circuit))
    _emit(serialize_spec(spec), args.output)
    return 0


def _cmd_verify(args) -> int:
    cand = _load_circuit(args.circuit)
    spec = parse_spec(_read(args.spec))
    report = verify(cand, spec)
    print(report.format())
    return 0 if report.overall else 1


def _cmd_spec_diff(args) -> int:
    a = parse_spec(_read(args.spec_a))
    b = parse_spec(_read(args.spec_b))
    diff = spec_diff(a, b)
    print(diff.format())
    return 0 if diff.equal else 1


def _cmd_equiv(args) -> int:
    from .oracle import channel_choi, channels_equal

    a = _load_circuit(args.circuit_a)
    b = _load_circuit(args.circuit_b)
    same = channels_equal(channel_choi(a), channel_choi(b), tol=args.tol)
    print(_records([("equivalent", "yes" if same else "no")]))
    return 0 if same else 1


def _cmd_transform(args) -> int:
    c = _load_circuit(args.circuit)
    if args.dual:
        c = dual_rewrite(c)
    else:
        c = demote_rotated_measurement(c, args.demote)
    _emit(serialize_circuit(c), args.output)
    return 0


def _cmd_compile(args) -> int:
    gl = parse_gates(_read(args.gatelist))
    res = compile_to_icm(gl, args.flavour, corrections=not args.uncorrected)
    _emit(serialize_circuit(res.circuit), args.output)
    return 0


def _cmd_sample_verify(args) -> int:
    from .oracle import sample_verify

    c = _load_circuit(args.circuit)
    spec = parse_spec(_read(args.spec))
    report = verify(c, spec)
    if not report.overall:
        print(report.format())
        return 1
    # spec columns follow its roster (io qubits first); the oracle's follow c.qubits
    col = {qid: k for k, qid in enumerate(spec.roster())}
    ok = sample_verify(c, permute_table(spec.table, [col[q.id] for q in c.qubits]))
    print(_records([("sampled", "pass" if ok else "fail")]))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="icmverify",
        description="Derive and check stabiliser truth-table specifications "
                    "of ICM circuits.",
    )
    ap.add_argument("--format", choices=("text", "records"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate a circuit and echo its canonical form")
    p.add_argument("circuit")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("derive-spec", help="derive a spec v1 file from a circuit")
    p.add_argument("circuit")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_derive_spec)

    p = sub.add_parser("verify", help="verify a candidate circuit against a spec")
    p.add_argument("circuit")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("spec-diff", help="compare two specs up to row span")
    p.add_argument("spec_a")
    p.add_argument("spec_b")
    p.set_defaults(func=_cmd_spec_diff)

    p = sub.add_parser("equiv", help="compare two circuits' channels (dense, capped)")
    p.add_argument("circuit_a")
    p.add_argument("circuit_b")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("transform", help="apply a flavour rewrite")
    p.add_argument("circuit")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--dual", action="store_true")
    g.add_argument("--demote", metavar="QUBIT")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("compile", help="compile a gates v1 list to an ICM circuit")
    p.add_argument("gatelist")
    p.add_argument("--flavour", choices=("rotated_meas", "rotated_init"),
                   default="rotated_meas")
    p.add_argument("--uncorrected", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("sample-verify",
                       help="verify, then check each row's exact expectation densely")
    p.add_argument("circuit")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_sample_verify)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (IcmParseError, SpecParseError, CompileError, TransformError,
            OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        # only equiv and sample-verify import the dense oracle, and with it
        # numpy, so its errors can be named only once it is loaded
        oracle = sys.modules.get(f"{__package__}.oracle")
        if oracle is None or not isinstance(e, oracle.OracleError):
            raise
        print(f"error: {e}", file=sys.stderr)
        return 3 if isinstance(e, oracle.SizeCapError) else 2


if __name__ == "__main__":
    sys.exit(main())
