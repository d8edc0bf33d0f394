"""Compile small Clifford+T gate lists into ICM circuits.

Every gate becomes a fixed teleportation gadget; the classical side
effect of each gadget is a Pauli byproduct whose exponents are affine
GF(2) functions of the measurement outcomes.  The compiler tracks one
(x, z) pair of affine forms per logical qubit so the byproduct never
has to be applied physically, and emits the outcome-conditioned
measurement rules needed to keep T gadgets deterministic.

Gadget corpus (carrier w; outcomes are 0 for the +1 eigenvalue):

rotated-measurement flavour
    p/pdg  a init Z, CNOT(w,a),  measure a Y     z ^= m+1 / m
    sx     a init X, CNOT(a,w),  measure a Y     x ^= m        (H stage)
    t/tdg  a1,a2 init Z, CNOT(w,a1), CNOT(a1,a2),
           measure w A, a1 Y (t) or X (tdg); carrier moves to a2
                                                 z ^= m_w+m_a1+1 / +0

rotated-initialisation flavour
    p/pdg  a init Y, CNOT(w,a),  measure a Z     z ^= m / m+1
    sx     a init Y, CNOT(a,w),  measure a X     x ^= m+1      (H stage)
    t/tdg  a1 init A, a2 init Y, CNOT(a1,w), CNOT(a1,a2),
           measure w Z then a2 in X/Z (t) or Z/X (tdg) conditioned on w;
           carrier moves to a1
                                                 x ^= m_w
                                                 z ^= m_w+m_a2 / +1

h in the rotated-initialisation flavour compiles as the stage triple
p; sx; p (P sqrtX P is proportional to H).  In the rotated-measurement
flavour it instead starts with a carrier-moving stage -- a init Y,
CNOT(w, a), measure w in Y -- which realises P.H with byproduct (XZ)^m;
the following Pdg stage completes H and cancels the Z half of that
byproduct, so the final X frame holds a single outcome variable.

A t gadget only tolerates an incoming X frame of at most one outcome
variable, absorbed by conditioning the gadget's rotated measurement
basis (Y vs X, i.e. t vs tdg structure) on that variable's outcome,
using T X = (phase) X T^dag.  In the rotated-initialisation flavour the
conditional slot is already spent on the carrier measurement, so any
X-frame variable there raises CompileError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .circuit import IcmCircuit, MeasurementRule, QubitDecl


GATES_1Q = ("h", "p", "pdg", "t", "tdg", "x", "z")
FLAVOURS = ("rotated_meas", "rotated_init")


class CompileError(Exception):
    pass


@dataclass(frozen=True)
class GateList:
    n: int
    gates: tuple[tuple, ...]  # ("t", 0) or ("cnot", 0, 1), 0-based

    def __post_init__(self) -> None:
        for g in self.gates:
            if _gate_problem(g, self.n):
                raise CompileError(f"bad gate {g!r}")


def _gate_problem(gate: tuple, n: int) -> str | None:
    """Why ``gate`` (0-based qubits) is not a gate on n qubits, or None.

    The message names qubits 1-based, as the ``gates v1`` text does.
    """
    name, *args = gate
    if name != "cnot" and name not in GATES_1Q:
        return f"unknown gate {name!r}"
    arity = 2 if name == "cnot" else 1
    if len(args) != arity:
        return f"{name} takes {arity} qubit{'s' if arity > 1 else ''}, got {len(args)}"
    for a in args:
        if not 0 <= a < n:
            return f"qubit {a + 1} is not in 1..{n}"
    if name == "cnot" and args[0] == args[1]:
        return "cnot control equals target"
    return None


def parse_gates(text: str) -> GateList:
    """Parse the ``gates v1`` format; errors name the 1-based line."""
    lines = [(ln, raw.split("#")[0].strip()) for ln, raw in enumerate(text.splitlines(), 1)]
    lines = [(ln, s) for ln, s in lines if s]
    if not lines:
        raise CompileError("line 1: expected 'gates v1' header")
    ln, s = lines[0]
    if s != "gates v1":
        raise CompileError(f"line {ln}: expected 'gates v1' header")
    if len(lines) < 2:
        raise CompileError(f"line {ln}: expected 'qubits N' after header")
    ln, s = lines[1]
    if not s.startswith("qubits "):
        raise CompileError(f"line {ln}: expected 'qubits N' after header")
    try:
        n = int(s.split()[1])
    except (IndexError, ValueError):
        raise CompileError(f"line {ln}: bad qubit count line {s!r}") from None
    if n < 1:
        raise CompileError(f"line {ln}: need at least one qubit")
    gates = []
    for ln, s in lines[2:]:
        tok = s.split()
        try:
            gate = (tok[0], *(int(t) - 1 for t in tok[1:]))
        except ValueError:
            raise CompileError(
                f"line {ln}: bad gate line {s!r}: qubits are numbered 1..{n}"
            ) from None
        if why := _gate_problem(gate, n):
            raise CompileError(f"line {ln}: bad gate {s!r}: {why}")
        gates.append(gate)
    return GateList(n, tuple(gates))


@dataclass(frozen=True)
class CompileResult:
    """A compiled circuit and its Pauli frame.

    The frame is one (x, z) pair of affine GF(2) forms per output port,
    each an int: bit 0 is the constant and bit k + 1 the outcome of
    ``circuit.qubits[k]``.  On a branch whose outcome bits, with bit 0
    set, are v, port j is corrected by X^a Z^b, where a and b are the
    parities of ``x_forms[j] & v`` and ``z_forms[j] & v``.
    """

    circuit: IcmCircuit
    x_forms: tuple[int, ...]
    z_forms: tuple[int, ...]
    exact: bool = True  # False when compiled without corrections

    def frame_map(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The frame as ``(x_forms, z_forms)``, the value channel_choi takes."""
        return self.x_forms, self.z_forms


@dataclass
class _Emitter:
    flavour: str
    corrections: bool
    qubits: list[QubitDecl] = field(default_factory=list)
    cnots: list[tuple[str, str]] = field(default_factory=list)
    rules: list[MeasurementRule] = field(default_factory=list)
    bit: dict[str, int] = field(default_factory=dict)  # form bit of each qubit's outcome
    # rule index per outcome bit, for conditional-basis upgrades
    rule_of: dict[int, int] = field(default_factory=dict)
    counter: int = 0

    def declare(self, qid: str, kind: str, init: str | None = None) -> str:
        self.bit[qid] = 2 << len(self.qubits)
        self.qubits.append(QubitDecl(qid, kind, init))
        return qid

    def fresh(self, kind: str, init: str) -> str:
        self.counter += 1
        return self.declare(f"a{self.counter}", kind, init)

    def measure(self, qid: str, basis: str) -> int:
        """Append a rule measuring ``qid``; return its outcome's form bit."""
        bit = self.bit[qid]
        self.rule_of[bit] = len(self.rules)
        self.rules.append(MeasurementRule(qid, basis))
        return bit

    def condition(self, bit: int, anc: str, b2: str, b3: str) -> None:
        """Upgrade the rule measuring outcome ``bit`` so it also fixes `anc`'s basis."""
        idx = self.rule_of.get(bit)
        if idx is None or self.rules[idx].conditional:
            qid = self.qubits[bit.bit_length() - 2].id
            raise CompileError(f"cannot condition twice on outcome of {qid!r}")
        prev = self.rules[idx]
        self.rules[idx] = MeasurementRule(prev.q1, prev.b1, anc, b2, b3)


def compile_to_icm(
    g: GateList, flavour: str = "rotated_meas", corrections: bool = True
) -> CompileResult:
    if flavour not in FLAVOURS:
        raise CompileError(f"unknown flavour {flavour!r} (want one of {FLAVOURS})")
    em = _Emitter(flavour, corrections)
    carriers = [em.declare(f"q{i + 1}", "io") for i in range(g.n)]
    xf = [0] * g.n
    zf = [0] * g.n

    for gate in g.gates:
        name, *args = gate
        if name == "x":
            xf[args[0]] ^= 1
        elif name == "z":
            zf[args[0]] ^= 1
        elif name == "cnot":
            c, t = args
            em.cnots.append((carriers[c], carriers[t]))
            xf[t] ^= xf[c]
            zf[c] ^= zf[t]
        elif name in ("p", "pdg"):
            _emit_p(em, carriers, xf, zf, args[0], dagger=name == "pdg")
        elif name == "h":
            _emit_h(em, carriers, xf, zf, args[0])
        else:  # t / tdg
            _emit_t(em, carriers, xf, zf, args[0], dagger=name == "tdg")

    return CompileResult(
        IcmCircuit(tuple(em.qubits), tuple(em.cnots), tuple(em.rules),
                   outputs=tuple(carriers)),
        tuple(xf),
        tuple(zf),
        exact=corrections,
    )


def _emit_p(em, carriers, xf, zf, q, dagger):
    w = carriers[q]
    zf[q] ^= xf[q]  # P X Pdg = iXZ
    if em.flavour == "rotated_meas":
        a = em.fresh("teleport", "Z")
        em.cnots.append((w, a))
        zf[q] ^= em.measure(a, "Y") ^ (0 if dagger else 1)
    else:
        a = em.fresh("teleport", "Y")
        em.cnots.append((w, a))
        zf[q] ^= em.measure(a, "Z") ^ (1 if dagger else 0)


def _emit_h(em, carriers, xf, zf, q):
    if em.flavour == "rotated_meas":
        # Stage 1 teleports through |Y> and measures the old carrier in Y,
        # realising P.H with the correlated byproduct (XZ)^m; stage 2 (Pdg)
        # completes H and its conjugation cancels the Z half of that
        # byproduct, leaving a single outcome variable in the X frame.
        # Stage 3 teleports back onto a plain-init carrier so later gadgets
        # may measure it in a rotated basis.
        w = carriers[q]
        a1 = em.fresh("teleport", "Y")
        em.cnots.append((w, a1))
        m1 = em.measure(w, "Y")
        carriers[q] = a1
        xf[q], zf[q] = zf[q] ^ m1, xf[q] ^ zf[q] ^ m1
        _emit_p(em, carriers, xf, zf, q, dagger=True)
        a3 = em.fresh("teleport", "Z")
        em.cnots.append((a1, a3))
        zf[q] ^= em.measure(a1, "X")
        carriers[q] = a3
    else:
        _emit_p(em, carriers, xf, zf, q, dagger=False)
        _emit_sx(em, carriers, xf, zf, q)
        _emit_p(em, carriers, xf, zf, q, dagger=False)


def _emit_sx(em, carriers, xf, zf, q):
    w = carriers[q]
    xf[q] ^= zf[q]  # sqrtX Z sqrtXdg = iXZ
    if em.flavour == "rotated_meas":
        a = em.fresh("teleport", "X")
        em.cnots.append((a, w))
        xf[q] ^= em.measure(a, "Y")
    else:
        a = em.fresh("teleport", "Y")
        em.cnots.append((a, w))
        xf[q] ^= em.measure(a, "X") ^ 1


def _emit_t(em, carriers, xf, zf, q, dagger):
    w = carriers[q]
    d = 1 if dagger else 0
    var = xf[q] & ~1  # the X frame's outcome bits
    if var & (var - 1):
        raise CompileError(
            "t gate after an X frame spanning several outcomes; no single "
            "measurement rule can select the basis from an outcome parity"
        )
    # T X = (phase) X Tdg, so a one-bit X frame flips which structure to
    # emit; with an outcome variable in play the flip rides on that rule.
    eff = d ^ (xf[q] & 1)

    if em.flavour == "rotated_meas":
        a1 = em.fresh("teleport", "Z")
        a2 = em.fresh("teleport", "Z")
        em.cnots.append((w, a1))
        em.cnots.append((a1, a2))
        if not em.corrections:
            em.measure(w, "A")
            carriers[q] = a2
            return
        mw = em.measure(w, "A")
        basis = lambda e: "X" if e else "Y"
        if var:
            em.condition(var, a1, basis(eff), basis(eff ^ 1))
        else:
            em.measure(a1, basis(eff))
        zf[q] ^= mw ^ em.bit[a1] ^ var ^ 1 ^ eff
        carriers[q] = a2
    else:
        if var:
            raise CompileError(
                "t gate after an X-type frame is not expressible in the "
                "rotated-initialisation flavour; the carrier measurement "
                "already consumes the one conditional slot"
            )
        a1 = em.fresh("teleport", "A")
        if not em.corrections:
            em.cnots.append((a1, w))
            em.measure(w, "Z")
            carriers[q] = a1
            return
        a2 = em.fresh("teleport", "Y")
        em.cnots.append((a1, w))
        em.cnots.append((a1, a2))
        b2, b3 = ("Z", "X") if eff else ("X", "Z")
        em.rules.append(MeasurementRule(w, "Z", a2, b2, b3))
        xf[q] ^= em.bit[w]
        zf[q] ^= em.bit[w] ^ em.bit[a2] ^ eff
        carriers[q] = a1
