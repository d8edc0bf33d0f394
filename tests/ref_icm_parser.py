"""The line-by-line ``icm v1`` parser that the one-split-per-line
``parse_circuit`` replaced, kept as the reference that
``test_parser_differential.py`` compares it against.

It shares the data classes with the package and nothing else.
"""

from __future__ import annotations

from icmverify.circuit import (
    BASES,
    KINDS,
    Basis,
    IcmCircuit,
    IcmParseError,
    MeasurementRule,
    QubitDecl,
)


def ref_parse_circuit(text: str) -> IcmCircuit:
    """Parse the ``icm v1`` format; raises IcmParseError with line numbers."""
    lines = text.splitlines()
    header_seen = False
    declared_n: int | None = None
    qubits: list[QubitDecl] = []
    cnots: list[tuple[str, str]] = []
    rules: list[MeasurementRule] = []
    outputs: list[str] | None = None
    ids: set[str] = set()

    def need(qid: str, ln: int) -> str:
        if qid not in ids:
            raise IcmParseError(f"undeclared qubit {qid!r}", ln)
        return qid

    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if not header_seen:
            if tok != ["icm", "v1"]:
                raise IcmParseError(f"expected 'icm v1' header, got {line!r}", ln)
            header_seen = True
            continue
        kw = tok[0]
        if kw == "qubits":
            if len(tok) != 2 or not tok[1].isdigit():
                raise IcmParseError("usage: qubits <count>", ln)
            declared_n = int(tok[1])
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
        elif kw == "cnot":
            if len(tok) != 3:
                raise IcmParseError("usage: cnot <control> <target>", ln)
            c, t = need(tok[1], ln), need(tok[2], ln)
            if c == t:
                raise IcmParseError(f"cnot control equals target ({c})", ln)
            cnots.append((c, t))
        elif kw == "measure":
            rules.append(ref_parse_measure(tok, ln, need))
        elif kw == "out":
            if len(tok) < 2:
                raise IcmParseError("usage: out <id> [<id> ...]", ln)
            if outputs is not None:
                raise IcmParseError("second 'out' line; list every output on one", ln)
            outputs = [need(q, ln) for q in tok[1:]]
        else:
            raise IcmParseError(f"unknown directive {kw!r}", ln)

    if not header_seen:
        raise IcmParseError("missing 'icm v1' header", 1)
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


def ref_parse_measure(tok: list[str], ln: int, need, error=IcmParseError) -> MeasurementRule:
    """Parse a tokenised ``measure`` line of the ``icm v1`` or ``spec v1`` format.

    ``need(qid, ln)`` checks or passes through a qubit id; every other
    problem is raised as ``error(message, ln)``.
    """
    def basis(b: str) -> Basis:
        if b not in BASES:
            raise error(f"unknown basis {b!r}", ln)
        return b

    if len(tok) == 3:
        return MeasurementRule(need(tok[1], ln), basis(tok[2]))
    # measure q1 B1 ? q2 B2 : q2 B3
    if len(tok) == 9 and tok[3] == "?" and tok[6] == ":":
        q1 = need(tok[1], ln)
        q2 = need(tok[4], ln)
        if tok[7] != q2:
            raise error(
                f"conditional branches name different qubits ({tok[4]!r} vs {tok[7]!r})", ln
            )
        b1, b2, b3 = basis(tok[2]), basis(tok[5]), basis(tok[8])
        try:
            return MeasurementRule(q1, b1, q2, b2, b3)
        except IcmParseError as exc:
            raise error(str(exc), ln) from None
    raise error(
        "usage: measure <id> <B> | measure <id> <B> ? <id2> <B2> : <id2> <B3>", ln
    )
