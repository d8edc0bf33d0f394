"""Rewrites between the rotated-initialisation and rotated-measurement
gate-construction flavours.

``dual_rewrite`` reverses the temporal order of the CNOT region and
swaps every measured ancilla's (init basis, measurement basis) pair.
Control/target orientation is kept: reversing orientation as well turns
the single-CNOT P gadget into an identity channel (the CNOT then acts
on a Z-eigenstate control), so the orientation-preserving reversal is
the variant under which the construction corpus actually preserves its
channel; see the oracle tests.

``demote_rotated_measurement`` trades one rotated measurement for a
rotated initialisation on a fresh ancilla, leaving the overall channel
exactly unchanged:

* Y measurement of q:  a' init Y, CNOT(q, a'), measure a' in Z and q in
  X.  The four branch Kraus operators are {<s| P^(m)}/sqrt(2) and
  <+-|P = <Y_-+|, so the summed channel is identical.
* A measurement of q:  a' init A, CNOT(q, a'), measure a' in Z; on +1
  measure q in Y, else in X.  Here <Y_t|T = <A_t| and <+-|T^dag =
  <A_+-|, so again the Kraus sets coincide branch for branch.
"""

from __future__ import annotations

from .circuit import IcmCircuit, MeasurementRule, QubitDecl, ROTATED_BASES


class TransformError(Exception):
    pass


def dual_rewrite(c: IcmCircuit) -> IcmCircuit:
    anc = set(c.ancilla_ids())
    for rule in c.rules:
        if rule.conditional and (rule.q1 in anc or rule.q2 in anc):
            raise TransformError(
                f"conditional rule on {rule.q1!r}/{rule.q2!r} has no dual: "
                "the outcome-dependent basis cannot become an initialisation"
            )
    meas_basis = {r.q1: r.b1 for r in c.rules if r.q1 in anc}
    qubits = []
    for q in c.qubits:
        if q.kind != "io" and q.id in meas_basis:
            qubits.append(QubitDecl(q.id, q.kind, meas_basis[q.id]))
        else:
            qubits.append(q)
    rules = []
    for r in reversed(c.rules):
        if r.q1 in anc:
            rules.append(MeasurementRule(r.q1, c.qubit(r.q1).init))
        else:
            rules.append(r)
    return IcmCircuit(
        tuple(qubits),
        tuple(reversed(c.cnots)),
        tuple(rules),
        c.outputs,
    )


def demote_rotated_measurement(c: IcmCircuit, q: str) -> IcmCircuit:
    if q not in {d.id for d in c.qubits}:
        raise TransformError(f"no qubit {q!r} in circuit")
    rule_idx = None
    for i, r in enumerate(c.rules):
        if r.q2 == q:
            raise TransformError(
                f"{q!r} is measured in an outcome-dependent basis; demote it "
                "by rewriting the conditioning rule instead"
            )
        if r.q1 == q:
            rule_idx = i
    if rule_idx is None:
        raise TransformError(f"{q!r} is not measured")
    rule = c.rules[rule_idx]
    if rule.conditional:
        raise TransformError(f"{q!r} triggers a conditional rule; not demotable")
    basis = rule.b1
    if basis not in ROTATED_BASES:
        raise TransformError(f"{q!r} is measured in plain basis {basis}; nothing to demote")

    new_id = q + "_d"
    suffix = 0
    existing = {d.id for d in c.qubits}
    while new_id in existing:
        suffix += 1
        new_id = f"{q}_d{suffix}"

    qubits = tuple(c.qubits) + (QubitDecl(new_id, "teleport", basis),)
    cnots = tuple(c.cnots) + ((q, new_id),)
    if basis == "Y":
        replacement = [MeasurementRule(new_id, "Z"), MeasurementRule(q, "X")]
    else:  # A
        replacement = [MeasurementRule(new_id, "Z", q, "Y", "X")]
    rules = (
        tuple(c.rules[:rule_idx]) + tuple(replacement) + tuple(c.rules[rule_idx + 1:])
    )
    return IcmCircuit(qubits, cnots, rules, c.outputs)
