"""ICM circuit representation, the ``icm v1`` text format, and validation.

An ICM circuit is qubit declarations (io qubits plus teleport,
computational and distillation ancillae), a CNOT-only gate region, and
an ordered list of measurement rules.  A rule is either unconditional,
``measure q B``, or conditional, ``measure q1 B1 ? q2 B2 : q2 B3``:
measure ``q1`` in ``B1``; on eigenvalue +1 measure ``q2`` in ``B2``,
otherwise in ``B3``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

PLAIN_BASES = ("X", "Z")
ROTATED_BASES = ("Y", "A")
BASES = PLAIN_BASES + ROTATED_BASES
KINDS = ("io", "teleport", "computational", "distillation")

Basis = str  # one of "X", "Z", "Y", "A"


class IcmParseError(ValueError):
    """Parse failure; carries the 1-based line number when known.

    An ``IcmCircuit`` that breaks ICM invariants raises it with the
    ``Violation`` list as ``violations``; other errors leave it empty.
    """

    def __init__(self, message: str, line: int | None = None, violations=None):
        self.line = line
        self.violations: list[Violation] = violations or []
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class QubitDecl:
    id: str
    kind: str  # io | teleport | computational | distillation
    init: Basis | None = None  # None exactly for io qubits

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise IcmParseError(f"unknown qubit kind {self.kind!r}")
        if self.kind == "io":
            if self.init is not None:
                raise IcmParseError(f"io qubit {self.id} must not carry an init basis")
        else:
            if self.init not in BASES:
                raise IcmParseError(f"ancilla {self.id} needs an init basis from {BASES}")


@dataclass(frozen=True)
class MeasurementRule:
    """(q1, B1, q2, B2, B3); the conditional part is all-or-nothing."""

    q1: str
    b1: Basis
    q2: str | None = None
    b2: Basis | None = None
    b3: Basis | None = None

    def __post_init__(self) -> None:
        if self.b1 not in BASES:
            raise IcmParseError(f"bad measurement basis {self.b1!r}")
        if self.q2 is None:
            if self.b2 is None and self.b3 is None:
                return
        elif self.b2 is not None and self.b3 is not None:
            if self.q2 == self.q1:
                raise IcmParseError(f"rule conditions {self.q1} on itself")
            if self.b2 not in BASES:
                raise IcmParseError(f"bad measurement basis {self.b2!r}")
            if self.b3 not in BASES:
                raise IcmParseError(f"bad measurement basis {self.b3!r}")
            return
        raise IcmParseError("conditional rule needs q2, B2 and B3 together")

    @property
    def conditional(self) -> bool:
        return self.q2 is not None

    def measured_qubits(self) -> tuple[str, ...]:
        return (self.q1,) if self.q2 is None else (self.q1, self.q2)

    def format(self) -> str:
        if self.q2 is None:
            return f"measure {self.q1} {self.b1}"
        return f"measure {self.q1} {self.b1} ? {self.q2} {self.b2} : {self.q2} {self.b3}"


@dataclass(frozen=True)
class IcmCircuit:
    """A circuit in ICM form: the constructor runs ``validate_icm`` once and
    raises IcmParseError with its violations, so no consumer checks again."""

    qubits: tuple[QubitDecl, ...]
    cnots: tuple[tuple[str, str], ...] = ()
    rules: tuple[MeasurementRule, ...] = ()
    outputs: tuple[str, ...] | None = None  # metadata only

    _index: dict[str, int] = field(default=None, compare=False, repr=False)  # type: ignore

    def __post_init__(self) -> None:
        object.__setattr__(self, "_index", {q.id: i for i, q in enumerate(self.qubits)})
        violations = validate_icm(self)
        if violations:
            raise IcmParseError("; ".join(map(str, violations)), violations=violations)

    @property
    def n(self) -> int:
        return len(self.qubits)

    def qubit(self, qid: str) -> QubitDecl:
        return self.qubits[self._index[qid]]

    def index(self, qid: str) -> int:
        return self._index[qid]

    # These build a list first: tuple() of a generator allocates ten slots
    # and then shrinks the tuple, a churn that raised the many_small
    # benchmark's peak RSS by about 8% on a 2-vCPU x86-64 virtual machine.
    def io_ids(self) -> tuple[str, ...]:
        return tuple([q.id for q in self.qubits if q.kind == "io"])

    def ancilla_ids(self) -> tuple[str, ...]:
        return tuple([q.id for q in self.qubits if q.kind != "io"])

    def spec_rules(self) -> tuple[MeasurementRule, ...]:
        """The rules a specification's O holds, in order: those whose every
        measured qubit is an ancilla."""
        anc = set(self.ancilla_ids())
        return tuple([r for r in self.rules if all(q in anc for q in r.measured_qubits())])

    def cnot_indices(self) -> list[tuple[int, int]]:
        return [(self.index(c), self.index(t)) for c, t in self.cnots]

    def measured_ids(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(q for r in self.rules for q in r.measured_qubits()))

    def outcomes(self) -> Iterator[dict[str, int]]:
        """Every assignment of an outcome bit (0 for +1) to ``measured_ids()``.

        Assignments come in ``itertools.product`` order: the last measured
        qubit varies fastest.
        """
        ids = self.measured_ids()
        for bits in itertools.product((0, 1), repeat=len(ids)):
            yield dict(zip(ids, bits))


@dataclass(frozen=True)
class Violation:
    """One broken ICM invariant.

    ``source`` names what to blame in the circuit's text: ``("declare",
    qubit id)``, ``("out", qubit id)`` or ``("measure", i)`` for the
    i-th measure line.  Violations that ``parse_circuit`` rejects first
    (duplicate or undeclared ids, a CNOT on one qubit) carry none.
    """

    code: str
    entity: str
    message: str
    source: tuple[str, str | int] | None = None

    def __str__(self) -> str:
        return f"{self.code} [{self.entity}]: {self.message}"


def violation_line(text: str, v: Violation) -> int | None:
    """The line of the ``icm v1`` text that ``v.source`` names, if any.

    Only error reports need it, so ``parse_circuit`` records no lines
    and this scans the text again.
    """
    if v.source is None:
        return None
    kind, key = v.source
    seen = -1
    for ln, raw in enumerate(text.splitlines(), start=1):
        tok = raw.split("#", 1)[0].split()
        if not tok:
            continue
        if kind == "declare":
            if tok[0] == "io" and key in tok[1:] or tok[0] == "ancilla" and tok[1:2] == [key]:
                return ln
        elif tok[0] == kind:
            seen += 1
            if kind == "out" or seen == key:
                return ln
    return None


def parse_circuit(text: str) -> IcmCircuit:
    """Parse the ``icm v1`` format; raises IcmParseError with line numbers.

    Each line is split once.  CNOT lines, the bulk of a large circuit,
    are tested first and take one combined check of both ids.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.split("#", 1)[0] for raw in lines]
    declared_n: int | None = None
    qubits: list[QubitDecl] = []
    cnots: list[tuple[str, str]] = []
    rules: list[MeasurementRule] = []
    outputs: list[str] | None = None
    ids: set[str] = set()

    numbered = enumerate(lines, start=1)
    for ln, raw in numbered:
        tok = raw.split()
        if tok:
            if tok != ["icm", "v1"]:
                raise IcmParseError(f"expected 'icm v1' header, got {raw.strip()!r}", ln)
            break
    else:
        raise IcmParseError("missing 'icm v1' header")

    for ln, raw in numbered:
        tok = raw.split()
        if not tok:
            continue
        kw = tok[0]
        if kw == "cnot":
            if len(tok) == 3:
                _, c, t = tok
                if c in ids and t in ids and c != t:
                    cnots.append((c, t))
                    continue
            else:
                raise IcmParseError("usage: cnot <control> <target>", ln)
            _check_declared((c, t), ids, ln)
            raise IcmParseError(f"cnot control equals target ({c})", ln)
        elif kw == "measure":
            rules.append(_parse_measure(tok, ln, ids))
        elif kw == "io":
            if len(tok) < 2:
                raise IcmParseError("usage: io <id> [<id> ...]", ln)
            for qid in tok[1:]:
                if qid in ids:
                    raise IcmParseError(f"duplicate qubit id {qid!r}", ln)
                ids.add(qid)
                qubits.append(QubitDecl(qid, "io"))
        elif kw == "ancilla":
            # ancilla <id> <kind> init <basis>
            if len(tok) != 5 or tok[3] != "init":
                raise IcmParseError("usage: ancilla <id> <kind> init <basis>", ln)
            qid, kind, basis = tok[1], tok[2], tok[4]
            if qid in ids:
                raise IcmParseError(f"duplicate qubit id {qid!r}", ln)
            if kind not in KINDS or kind == "io":
                raise IcmParseError(f"unknown ancilla kind {kind!r}", ln)
            if basis not in BASES:
                raise IcmParseError(f"unknown init basis {basis!r}", ln)
            ids.add(qid)
            qubits.append(QubitDecl(qid, kind, basis))
        elif kw == "qubits":
            if len(tok) != 2 or not tok[1].isdigit():
                raise IcmParseError("usage: qubits <count>", ln)
            declared_n = int(tok[1])
        elif kw == "out":
            if len(tok) < 2:
                raise IcmParseError("usage: out <id> [<id> ...]", ln)
            if outputs is not None:
                raise IcmParseError("second 'out' line; list every output on one", ln)
            outputs = tok[1:]
            _check_declared(outputs, ids, ln)
        else:
            raise IcmParseError(f"unknown directive {kw!r}", ln)

    if not qubits:
        raise IcmParseError("circuit declares no qubits")
    if declared_n is not None and declared_n != len(qubits):
        raise IcmParseError(
            f"qubits line says {declared_n} but {len(qubits)} qubits are declared"
        )
    return IcmCircuit(
        tuple(qubits), tuple(cnots), tuple(rules),
        tuple(outputs) if outputs is not None else None,
    )


def _check_declared(qids, ids: set[str], ln: int) -> None:
    for qid in qids:
        if qid not in ids:
            raise IcmParseError(f"undeclared qubit {qid!r}", ln)


def _parse_measure(
    tok: list[str], ln: int, ids: set[str] | None = None, error=IcmParseError
) -> MeasurementRule:
    """Parse a tokenised ``measure`` line of the ``icm v1`` or ``spec v1`` format.

    With ``ids``, a qubit id outside it raises IcmParseError; every other
    problem is raised as ``error(message, ln)``.
    """
    if len(tok) == 3:
        _, q1, b1 = tok
        if ids is not None:
            _check_declared((q1,), ids, ln)
        if b1 not in BASES:
            raise error(f"unknown basis {b1!r}", ln)
        return MeasurementRule(q1, b1)
    # measure q1 B1 ? q2 B2 : q2 B3
    if len(tok) == 9 and tok[3] == "?" and tok[6] == ":":
        _, q1, b1, _, q2, b2, _, q2_again, b3 = tok
        if ids is not None:
            _check_declared((q1, q2), ids, ln)
        if q2_again != q2:
            raise error(
                f"conditional branches name different qubits ({q2!r} vs {q2_again!r})", ln
            )
        for b in (b1, b2, b3):
            if b not in BASES:
                raise error(f"unknown basis {b!r}", ln)
        try:
            return MeasurementRule(q1, b1, q2, b2, b3)
        except IcmParseError as exc:
            raise error(str(exc), ln) from None
    raise error(
        "usage: measure <id> <B> | measure <id> <B> ? <id2> <B2> : <id2> <B3>", ln
    )


def serialize_circuit(c: IcmCircuit) -> str:
    """Write a circuit back out as ``icm v1`` text."""
    out = ["icm v1", f"qubits {c.n}"]
    for q in c.qubits:  # declaration order preserved so round-trips are exact
        if q.kind == "io":
            out.append(f"io {q.id}")
        else:
            out.append(f"ancilla {q.id} {q.kind} init {q.init}")
    for ctrl, tgt in c.cnots:
        out.append(f"cnot {ctrl} {tgt}")
    for r in c.rules:
        out.append(r.format())
    if c.outputs:
        out.append("out " + " ".join(c.outputs))
    return "\n".join(out) + "\n"


def validate_icm(c: IcmCircuit) -> list[Violation]:
    """Check ICM invariants; returns structured violations (empty == valid).

    ``IcmCircuit`` raises them as it is built, so a built circuit has none."""
    out: list[Violation] = []
    ids = c._index  # one entry per distinct id
    if len(ids) != len(c.qubits):
        out.append(Violation("duplicate-id", "circuit", "duplicate qubit ids"))

    for q in c.qubits:
        if q.kind == "computational" and q.init not in PLAIN_BASES:
            out.append(Violation(
                "computational-init", q.id,
                f"computational ancillae initialise in X or Z, not {q.init}",
                ("declare", q.id)))

    for i, (ctrl, tgt) in enumerate(c.cnots):
        if ctrl in ids and tgt in ids and ctrl != tgt:
            continue
        for qid in (ctrl, tgt):
            if qid not in ids:
                out.append(Violation("undeclared", f"cnot[{i}]", f"unknown qubit {qid!r}"))
        if ctrl == tgt:
            out.append(Violation("cnot-self", f"cnot[{i}]", f"control equals target ({ctrl})"))

    # each qubit is measured by at most one rule, as its q1 or as its q2
    seen_q1: dict[str, int] = {}
    conditioned: dict[str, int] = {}
    rotated: set[str] = set()  # ids that some rule may measure in Y or A
    for i, r in enumerate(c.rules):
        if r.b1 in ROTATED_BASES:
            rotated.add(r.q1)
        for qid in r.measured_qubits():
            if qid not in ids:
                out.append(Violation("undeclared", f"rule[{i}]", f"unknown qubit {qid!r}"))
        if r.q1 in seen_q1:
            out.append(Violation(
                "remeasured", r.q1,
                f"qubit measured by rule {seen_q1[r.q1]} and again by rule {i}",
                ("measure", i)))
        elif r.q1 in conditioned:
            out.append(Violation(
                "remeasured", r.q1,
                f"qubit conditioned by rule {conditioned[r.q1]} and measured again by rule {i}",
                ("measure", i)))
        seen_q1[r.q1] = i
        if r.q2 is not None:
            if r.b2 in ROTATED_BASES or r.b3 in ROTATED_BASES:
                rotated.add(r.q2)
            if r.q2 in conditioned:
                out.append(Violation(
                    "reconditioned", r.q2,
                    f"qubit conditioned by rules {conditioned[r.q2]} and {i}",
                    ("measure", i)))
            if r.q2 in seen_q1:
                out.append(Violation(
                    "condition-order", r.q2,
                    f"conditioned by rule {i} but measured by earlier rule {seen_q1[r.q2]}",
                    ("measure", i)))
            conditioned[r.q2] = i

    # outputs are distinct declared qubits that no rule measures
    listed: set[str] = set()
    for qid in c.outputs or ():
        if qid not in ids:
            out.append(Violation("undeclared", "out", f"unknown qubit {qid!r}"))
        elif qid in seen_q1 or qid in conditioned:
            out.append(Violation("bad-output", qid, "output qubit is measured", ("out", qid)))
        elif qid in listed:
            out.append(Violation("bad-output", qid, "output qubit listed twice", ("out", qid)))
        listed.add(qid)

    for q in c.qubits:
        if q.kind == "teleport" and q.init in ROTATED_BASES and q.id in rotated:
            out.append(Violation(
                "doubly-rotated", q.id,
                f"teleport ancilla has rotated init {q.init} and a rotated measurement",
                ("declare", q.id)))

    return out
