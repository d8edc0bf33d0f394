"""Black-box verification of a candidate circuit against a specification.

Three criteria, all report data rather than exceptions:

1. every ancilla is initialised exactly as the init set I prescribes;
2. conjugating each truth-table input through the candidate's CNOT
   region reproduces the tabulated output, sign included;
3. the candidate's ancilla measurement rules equal O, in order.

Criterion 2 checks literal rows (obligations), not row-span
equivalence; ``spec_diff`` is the span-level comparison for two
specifications.  Criterion 2 runs the candidate's CNOTs on the spec's input
columns (one bitset per qubit, bit i for row i) and compares the result
with the output columns and the sign bitset; a ``RowCheck`` is built
only for the rows whose bits differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .circuit import IcmCircuit
from .pauli import PauliOperator, TableRow, _transpose, conjugate_columns, pauli_format
from .specfmt import Specification, permute_table
from .table import table_equal


@dataclass
class RowCheck:
    row: TableRow
    actual: PauliOperator
    actual_sign: int

    def describe(self) -> str:
        got = ("+" if self.actual_sign == 1 else "-") + pauli_format(self.actual)
        return f"{self.row.format()}  got {got}  [MISMATCH]"


@dataclass
class VerificationReport:
    roster_ok: bool
    roster_message: str = ""
    init_ok: bool = False
    init_mismatches: list[str] = field(default_factory=list)
    table_ok: bool = False
    row_checks: list[RowCheck] = field(default_factory=list)  # failing rows, in row order
    rules_ok: bool = False
    rules_divergence: int | None = None  # first diverging rule index

    @property
    def overall(self) -> bool:
        return self.roster_ok and self.init_ok and self.table_ok and self.rules_ok

    def lines(self) -> list[str]:
        out = [f"overall: {'pass' if self.overall else 'fail'}"]
        if not self.roster_ok:
            out.append(f"roster: fail ({self.roster_message})")
            return out
        out.append("roster: ok")
        out.append("criterion1-init: " + ("pass" if self.init_ok else "fail"))
        for m in self.init_mismatches:
            out.append(f"  init-mismatch: {m}")
        out.append("criterion2-table: " + ("pass" if self.table_ok else "fail"))
        for rc in self.row_checks:
            out.append("  row: " + rc.describe())
        out.append("criterion3-rules: " + ("pass" if self.rules_ok else "fail"))
        if self.rules_divergence is not None:
            out.append(f"  first-divergence: rule {self.rules_divergence}")
        return out

    def format(self) -> str:
        return "\n".join(self.lines())


def _roster_check(candidate: IcmCircuit, spec: Specification) -> str | None:
    if candidate.n != spec.n:
        return f"candidate has {candidate.n} qubits, spec has {spec.n}"
    cand_io = set(candidate.io_ids())
    if cand_io != set(spec.io_ids):
        return (
            f"io qubits differ: candidate {sorted(cand_io)}, "
            f"spec {sorted(spec.io_ids)}"
        )
    cand_anc = set(candidate.ancilla_ids())
    if cand_anc != set(spec.ancilla_order):
        return (
            f"ancillae differ: candidate {sorted(cand_anc)}, "
            f"spec {sorted(spec.ancilla_order)}"
        )
    return None


def verify(candidate: IcmCircuit, spec: Specification) -> VerificationReport:
    """Check ``candidate`` against ``spec``.  The roster fails only when the
    qubit count, io ids or ancilla ids differ, and then no criterion runs."""
    mismatch = _roster_check(candidate, spec)
    if mismatch is not None:
        return VerificationReport(roster_ok=False, roster_message=mismatch)
    report = VerificationReport(roster_ok=True)

    # criterion 1: init set
    for qid in spec.ancilla_order:
        actual = candidate.qubit(qid).init
        if actual != spec.inits[qid]:
            report.init_mismatches.append(
                f"{qid}: spec {spec.inits[qid]}, candidate {actual}"
            )
    report.init_ok = not report.init_mismatches

    # criterion 2: the candidate's CNOTs, re-indexed into spec columns
    t = spec.table
    col = {qid: k for k, qid in enumerate(spec.roster())}
    xs, zs = list(t.in_x), list(t.in_z)
    # table inputs carry no phase, so a row's actual sign is its flip
    flips = conjugate_columns(xs, zs, candidate.cnots, col)
    wrong = flips ^ t.signs
    for got, want in zip(xs + zs, t.out_x + t.out_z):
        wrong |= got ^ want
    report.table_ok = not wrong
    if wrong:
        failing = [i for i, bit in enumerate(reversed(format(wrong, "b"))) if bit == "1"]
        actual = zip(_transpose(xs, t.nrows, failing), _transpose(zs, t.nrows, failing))
        report.row_checks = [
            RowCheck(row, PauliOperator(spec.n, x, z), -1 if flips >> i & 1 else 1)
            for row, i, (x, z) in zip(t.rows_at(failing), failing, actual)
        ]

    # criterion 3: measurement rules, order-sensitive
    cand_rules = candidate.spec_rules()
    report.rules_ok = cand_rules == tuple(spec.rules)
    if not report.rules_ok:
        report.rules_divergence = _first_divergence(cand_rules, spec.rules)
    return report


def _first_divergence(a: tuple, b: tuple) -> int:
    """The index of the first rule where ``a`` and ``b`` differ, or the
    shorter length when one is a prefix of the other."""
    limit = min(len(a), len(b))
    return next((i for i in range(limit) if a[i] != b[i]), limit)


@dataclass
class SpecDiff:
    equal: bool
    messages: list[str]

    def format(self) -> str:
        head = "equal" if self.equal else "different"
        return "\n".join([head] + [f"  {m}" for m in self.messages])


def spec_diff(a: Specification, b: Specification) -> SpecDiff:
    """Span-level comparison of two specifications."""
    msgs: list[str] = []
    if a.n != b.n:
        msgs.append(f"qubit counts differ: {a.n} vs {b.n}")
    if tuple(a.io_ids) != tuple(b.io_ids):
        msgs.append(f"io lists differ: {a.io_ids} vs {b.io_ids}")
    if a.inits != b.inits:
        only_a = {k: v for k, v in a.inits.items() if b.inits.get(k) != v}
        only_b = {k: v for k, v in b.inits.items() if a.inits.get(k) != v}
        msgs.append(f"init sets differ: {only_a} vs {only_b}")
    if not msgs:  # tables only comparable on a shared roster
        # align b's columns to a's roster before span comparison
        b_col = {qid: k for k, qid in enumerate(b.roster())}
        perm = [b_col[qid] for qid in a.roster()]
        bt = permute_table(b.table, perm)
        if not table_equal(a.table, bt):
            msgs.append("truth tables span different groups")
    if tuple(a.rules) != tuple(b.rules):
        idx = _first_divergence(a.rules, b.rules)
        msgs.append(f"measurement rules differ at rule {idx}")
    return SpecDiff(not msgs, msgs)
