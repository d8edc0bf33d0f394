"""Seeded inputs, timed ops and known answers for the benchmark workloads.

Every op takes text in and gives a verdict out through the public
``icmverify`` API, the way a user of the command line would.  The answer
each verdict is checked against is fixed by how the benchmark built the
input; the library never decides it:

* candidates that must pass: the source itself, a swap of two adjacent
  CNOTs that share no qubit, and an inserted cancelling pair;
* candidates that must fail at one named criterion: a flipped plain
  ancilla init (criterion 1), a CNOT touching an io qubit inserted at
  the start of the region (criterion 2), and two adjacent unconditional
  ancilla rules swapped (criterion 3);
* channels that must be equal: a circuit against its commuting swap or
  cancelling pair, and a compiled program, or its dual or demoted
  rewrite, under its frames against the benchmark's own dense unitary;
  channels that must differ: the same against the unitary with one t/p
  gate replaced by its inverse (h by p).

The schedule of op kinds and sizes is the same for every seed: sizes
step through a golden-ratio sequence or a ladder, so any prefix of a run
covers the size range evenly and medians stay steady from seed to seed.
The seed sets everything else (CNOTs, qubit roles, bases, programs,
mutation sites).  Op ``i`` is built from its own ``random.Random``
stream, so inputs do not depend on how many ops ran before.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from time import perf_counter
from types import ModuleType
from typing import Callable

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
PLAIN = "XZ"
ROTATED = "YA"


class Stopwatch:
    """Sums the time spent inside ``with sw:`` blocks of one op.

    A tracer attached to it records spans only inside those blocks, so
    the benchmark's own checks between them are neither timed nor traced.
    """

    def __init__(self, tracer=None):
        self.elapsed = 0.0
        self.tracer = tracer
        self._t0 = 0.0

    def __enter__(self) -> "Stopwatch":
        if self.tracer is not None:
            self.tracer.active = True
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed += perf_counter() - self._t0
        if self.tracer is not None:
            self.tracer.active = False


@dataclass
class OpInput:
    kind: str
    texts: tuple[str, ...]
    expect: object = None
    extra: dict = field(default_factory=dict)


def op_rng(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{i}")


def golden(j: int, phase: float) -> float:
    """Point ``j`` of a golden-ratio sequence; every prefix covers [0, 1) evenly."""
    return (phase + j * GOLDEN) % 1.0


def rung(ladder, j: int):
    """Entry ``j`` of a ladder walked with a stride coprime to its length,
    so each run of ``len(ladder)`` picks meets every entry once."""
    stride = next(s for s in (3, 5, 7) if math.gcd(s, len(ladder)) == 1)
    return ladder[j * stride % len(ladder)]


ROLES = ("plain", "rot_init", "rot_meas", "comp", "distill")
ROLE_SHARE = (0.30, 0.15, 0.25, 0.20, 0.10)


def role_mix(rng: random.Random, count: int) -> list[str]:
    """Ancilla roles in fixed shares; only the rounding remainder is drawn."""
    counts = [int(count * share) for share in ROLE_SHARE]
    extra = rng.choices(ROLES, ROLE_SHARE, k=count - sum(counts))
    roles = [r for r, c in zip(ROLES, counts) for _ in range(c)] + extra
    rng.shuffle(roles)
    return roles


# -- circuits as plain data, written as icm v1 text -----------------------------


@dataclass
class Circ:
    decls: list  # (id, kind, init); init is None for io qubits
    cnots: list  # (control, target)
    rules: list  # (q1, b1) or (q1, b1, q2, b2, b3)
    outputs: list | None = None

    def text(self) -> str:
        out = ["icm v1", f"qubits {len(self.decls)}"]
        for qid, kind, init in self.decls:
            out.append(f"io {qid}" if kind == "io" else f"ancilla {qid} {kind} init {init}")
        out.extend(f"cnot {c} {t}" for c, t in self.cnots)
        for r in self.rules:
            if len(r) == 2:
                out.append(f"measure {r[0]} {r[1]}")
            else:
                out.append(f"measure {r[0]} {r[1]} ? {r[2]} {r[3]} : {r[2]} {r[4]}")
        if self.outputs:
            out.append("out " + " ".join(self.outputs))
        return "\n".join(out) + "\n"


def read_icm(text: str) -> Circ:
    """Read the icm v1 text the library writes (no comments, no errors)."""
    c = Circ([], [], [])
    for line in text.splitlines()[1:]:
        tok = line.split()
        if tok[0] == "io":
            c.decls.extend((q, "io", None) for q in tok[1:])
        elif tok[0] == "ancilla":
            c.decls.append((tok[1], tok[2], tok[4]))
        elif tok[0] == "cnot":
            c.cnots.append((tok[1], tok[2]))
        elif tok[0] == "measure":
            c.rules.append((tok[1], tok[2]) if len(tok) == 3
                           else (tok[1], tok[2], tok[4], tok[5], tok[8]))
        elif tok[0] == "out":
            c.outputs = tok[1:]
    return c


def random_icm(rng: random.Random, n_io: int, n_meas: int, n_free: int,
               n_cnots: int, cond_share: float = 0.15) -> Circ:
    """A valid ICM circuit with every ancilla kind and some conditional rules.

    ``n_meas`` ancillae are measured (some as the conditioned partner of
    another rule), ``n_free`` are left unmeasured.  Rules name ancillae
    only, so all of them belong to the specification's O.
    """
    decls = [(f"q{i}", "io", None) for i in range(n_io)]
    rules = []
    may_rotate = {}  # measured ancilla -> whether its basis may be rotated
    for j, role in enumerate(role_mix(rng, n_meas + n_free)):
        qid = f"a{j}"
        if role == "rot_init":
            decls.append((qid, "teleport", rng.choice(ROTATED)))
        elif role == "distill":
            decls.append((qid, "distillation", rng.choice(PLAIN + ROTATED)))
        else:
            kind = "computational" if role == "comp" else "teleport"
            decls.append((qid, kind, rng.choice(PLAIN)))
        if j < n_meas:
            rules.append((qid, rng.choice(ROTATED if role == "rot_meas" else PLAIN)))
            may_rotate[qid] = role != "rot_init"
    rng.shuffle(rules)
    # a partner is measured only by the conditional rule that names it
    n_cond = min(round(cond_share * len(rules)), len(rules) // 2)
    picked = rng.sample(range(len(rules)), 2 * n_cond)
    for trigger, partner in zip(picked[:n_cond], picked[n_cond:]):
        q2 = rules[partner][0]
        b2, b3 = rng.sample(PLAIN + ROTATED if may_rotate[q2] else PLAIN, 2)
        rules[trigger] = rules[trigger] + (q2, b2, b3)
    partners = set(picked[n_cond:])
    rules = [r for i, r in enumerate(rules) if i not in partners]
    rng.shuffle(decls)
    ids = [d[0] for d in decls]
    cnots = [tuple(rng.sample(ids, 2)) for _ in range(n_cnots)]
    return Circ(decls, cnots, rules)


# -- candidates with answers known by construction --------------------------------

CANDIDATES = ("same", "commute", "cancel", "init_flip", "io_cnot", "rule_swap")
# (criterion 1 init, criterion 2 table, criterion 3 rules) each candidate meets
EXPECTED = {
    "same": (True, True, True),
    "commute": (True, True, True),
    "cancel": (True, True, True),
    "init_flip": (False, True, True),
    "io_cnot": (True, False, True),
    "rule_swap": (True, True, False),
}


def make_candidate(c: Circ, kind: str, rng: random.Random) -> Circ | None:
    """The candidate of this kind, or None when ``c`` lacks the structure."""
    decls, cnots, rules = list(c.decls), list(c.cnots), list(c.rules)
    ids = [d[0] for d in decls]
    if kind == "commute":
        spots = [i for i in range(len(cnots) - 1) if not set(cnots[i]) & set(cnots[i + 1])]
        if not spots:
            return None
        i = rng.choice(spots)
        cnots[i], cnots[i + 1] = cnots[i + 1], cnots[i]
    elif kind == "cancel":
        if len(ids) < 2:
            return None
        pair = tuple(rng.sample(ids, 2))
        i = rng.randint(0, len(cnots))
        cnots[i:i] = [pair, pair]
    elif kind == "init_flip":
        spots = [i for i, d in enumerate(decls) if d[1] != "io" and d[2] in PLAIN]
        if not spots:
            return None
        i = rng.choice(spots)
        qid, qkind, init = decls[i]
        decls[i] = (qid, qkind, "Z" if init == "X" else "X")
    elif kind == "io_cnot":
        io = [d[0] for d in decls if d[1] == "io"]
        if not io or len(ids) < 2:
            return None
        q = rng.choice(io)
        other = rng.choice([x for x in ids if x != q])
        cnots.insert(0, (q, other) if rng.random() < 0.5 else (other, q))
    elif kind == "rule_swap":
        anc = {d[0] for d in decls if d[1] != "io"}
        spots = [i for i in range(len(rules) - 1)
                 if all(len(r) == 2 and r[0] in anc for r in rules[i:i + 2])]
        if not spots:
            return None
        i = rng.choice(spots)
        rules[i], rules[i + 1] = rules[i + 1], rules[i]
    return Circ(decls, cnots, rules, c.outputs)


def candidate_in_turn(c: Circ, turn: int, rng: random.Random) -> tuple[str, Circ]:
    """The first candidate kind from position ``turn`` on that ``c`` supports."""
    for k in range(len(CANDIDATES)):
        kind = CANDIDATES[(turn + k) % len(CANDIDATES)]
        cand = make_candidate(c, kind, rng)
        if cand is not None:
            return kind, cand
    raise AssertionError("the source itself is always a candidate")


def check_report(report, expect: tuple[bool, bool, bool]) -> list[str]:
    got = (report.init_ok, report.table_ok, report.rules_ok)
    if report.roster_ok and got == expect and report.overall == all(expect):
        return []
    return [f"verify gave roster={report.roster_ok} criteria={got}, expected {expect}"]


def check_round_trip(iv: ModuleType, text: str, spec) -> list[str]:
    if iv.serialize_spec(spec) == text:
        return []
    return ["spec text does not round-trip through parse_spec"]


# -- dense ideal unitaries, independent of the library ----------------------------

_T = np.diag([1.0, np.exp(0.25j * np.pi)])
_P = np.diag([1.0, 1.0j])
GATE_1Q = {
    "h": np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0),
    "p": _P, "pdg": _P.conj(), "t": _T, "tdg": _T.conj(),
    "x": np.array([[0.0, 1.0], [1.0, 0.0]]), "z": np.diag([1.0, -1.0]),
}
# a distinct gate whose ideal must not match the compiled channel
OTHER_GATE = {"t": "tdg", "tdg": "t", "p": "pdg", "pdg": "p", "h": "p"}


def ideal_unitary(nq: int, gates) -> np.ndarray:
    """Dense unitary of a gate list; qubit 0 is the most significant bit."""
    u = np.eye(2**nq, dtype=complex).reshape((2,) * nq + (2**nq,))
    for name, *q in gates:
        if name == "cnot":
            c, t = q
            sel = [slice(None)] * nq
            sel[c] = 1
            part = u[tuple(sel)]
            u[tuple(sel)] = np.flip(part, axis=t if t < c else t - 1).copy()
        else:
            u = np.moveaxis(np.tensordot(GATE_1Q[name], u, axes=([1], [q[0]])), 0, q[0])
    return u.reshape(2**nq, 2**nq)


def gates_text(nq: int, gates) -> str:
    lines = ["gates v1", f"qubits {nq}"]
    lines.extend(" ".join([name] + [str(a + 1) for a in q]) for name, *q in gates)
    return "\n".join(lines) + "\n"


# ancillae (each of them measured) that one gate adds, per flavour
GADGET_ANCILLAE = {
    "rotated_meas": {"p": 1, "pdg": 1, "t": 2, "tdg": 2, "x": 0, "z": 0, "cnot": 0},
    "rotated_init": {"p": 1, "pdg": 1, "t": 2, "tdg": 2, "h": 3, "x": 0, "z": 0, "cnot": 0},
}


def random_program(rng: random.Random, nq: int, max_gates: int, max_anc: int,
                   flavour: str = "rotated_meas", fill: bool = False) -> list[tuple]:
    """A gate list that compiles by construction in ``flavour``.

    Its gadgets add at most ``max_anc`` ancillae; with ``fill``, trailing
    ``p`` gates make that exactly ``max_anc``.

    rotated_meas: no ``h``, so no X frame ever holds an outcome variable.
    rotated_init: a t/tdg only on a qubit no h, t or cnot has touched yet,
    so its X frame is still a constant when the gadget needs it.
    """
    cost = GADGET_ANCILLAE[flavour]
    names = ["p", "pdg", "t", "tdg", "x", "z"]
    if flavour == "rotated_init":
        names.append("h")
    if nq > 1:
        names.append("cnot")
    # the first gate has an inverse partner, so OTHER_GATE always applies
    first = rng.choice(("p", "pdg", "t", "tdg") if max_anc >= 2 else ("p", "pdg"))
    gates: list[tuple] = [(first, rng.randrange(nq))]
    touched = {gates[0][1]} if first in ("t", "tdg") else set()
    anc = cost[first]
    for _ in range(max_gates - 1):
        name = rng.choice(names)
        q = rng.randrange(nq)
        if flavour == "rotated_init" and name in ("t", "tdg") and q in touched:
            name = "p"
        if anc + cost[name] > max_anc:
            continue
        anc += cost[name]
        if name == "cnot":
            c, t = rng.sample(range(nq), 2)
            gates.append(("cnot", c, t))
            touched.update((c, t))
        else:
            gates.append((name, q))
            if name in ("h", "t", "tdg"):
                touched.add(q)
    while fill and anc < max_anc:
        gates.append(("p", rng.randrange(nq)))
        anc += 1
    return gates


def other_program(rng: random.Random, gates) -> list[tuple]:
    """The same gates with one t/tdg/p/pdg/h replaced by a distinct gate."""
    spots = [i for i, g in enumerate(gates) if g[0] in OTHER_GATE]
    i = rng.choice(spots)
    out = list(gates)
    out[i] = (OTHER_GATE[gates[i][0]],) + tuple(gates[i][1:])
    return out


# -- table_large ------------------------------------------------------------------


def table_large_input(seed: int, i: int, smoke: bool = False) -> OpInput:
    """n log-uniform over 100-600 (20% io), 10 CNOTs per qubit.

    Ops 3 of every 4 derive the spec and verify a candidate; the 4th
    diffs the specs of source and candidate.  Each op kind walks its own
    golden-ratio sequence of sizes and cycles through the six candidates.
    """
    rng = op_rng("table_large", seed, i)
    if i % 4 == 3:
        op, j, phase = "diff", i // 4, 0.25
    else:
        op, j, phase = "verify", i - (i + 1) // 4, 0.75
    lo, hi = (12, 40) if smoke else (100, 600)
    n = round(lo * (hi / lo) ** golden(j, phase))
    n_io = max(1, round(n / 5))
    n_anc = n - n_io
    n_meas = round(0.75 * n_anc)
    src = random_icm(rng, n_io, n_meas, n_anc - n_meas, 10 * n)
    kind, cand = candidate_in_turn(src, j, rng)
    return OpInput(op, (src.text(), cand.text()), EXPECTED[kind], {"candidate": kind, "n": n})


def table_large_op(iv: ModuleType, inp: OpInput, sw: Stopwatch) -> list[str]:
    src, cand = inp.texts
    if inp.kind == "verify":
        with sw:
            spec_text = iv.serialize_spec(iv.derive_specification(iv.parse_circuit(src)))
            spec = iv.parse_spec(spec_text)
            report = iv.verify(iv.parse_circuit(cand), spec)
        return check_report(report, inp.expect) + check_round_trip(iv, spec_text, spec)
    texts, specs = [], []
    with sw:
        for text in (src, cand):
            texts.append(iv.serialize_spec(iv.derive_specification(iv.parse_circuit(text))))
            specs.append(iv.parse_spec(texts[-1]))
        diff = iv.spec_diff(*specs)
    problems = [p for t, s in zip(texts, specs) for p in check_round_trip(iv, t, s)]
    if diff.equal != all(inp.expect):
        problems.append(f"spec_diff equal={diff.equal} for a {inp.extra['candidate']} candidate")
    return problems


# -- oracle_dense -----------------------------------------------------------------

# (io, measured ancillae, unmeasured ancillae): width + io <= 12 and
# run_branch calls per Choi matrix, 2**(io + measured), at most 512
BRANCH_HEAVY = [(1, 6, 0), (1, 7, 1), (1, 8, 0), (2, 6, 0), (2, 7, 0), (2, 7, 1)]
# Choi dimension 2**(2 io + unmeasured) from 128 to 512, few branches
CHOI_HEAVY = [(3, 2, 1), (3, 2, 2), (3, 3, 2), (3, 2, 3), (4, 2, 1), (4, 3, 1)]
TRUTH_TABLE_WIDTHS = (6, 9, 12)
# measured ancillae of a compiled 2-qubit program (one more for 1 qubit):
# 2**(io + measured) run_branch calls, at most 512
PROGRAM_ANCILLAE = (2, 3, 4, 5, 6, 7)
GADGETS = [(name, flavour) for flavour in ("rotated_meas", "rotated_init")
           for name in ("h", "p", "pdg", "t", "tdg")]
# op kind by position in a cycle of ten; the cheap kinds (table, rewrite)
# stay well under half, so the median op is a Choi or program op and not
# the jump between the cheap and the dense kinds
ORACLE_SCHEDULE = ("branch", "choi", "program", "branch", "choi",
                   "table", "branch", "choi", "program", "rewrite")


def oracle_dense_input(seed: int, i: int, smoke: bool = False) -> OpInput:
    """Choi cross-checks (branch-heavy, Choi-heavy, compiled) and truth tables.

    The op kind follows a fixed cycle of ten; the ``j``-th op of a kind
    takes rung ``j`` of that kind's size ladder.
    """
    rng = op_rng("oracle_dense", seed, i)
    slot = i % len(ORACLE_SCHEDULE)
    kind = ORACLE_SCHEDULE[slot]
    j = (i // len(ORACLE_SCHEDULE) * ORACLE_SCHEDULE.count(kind)
         + ORACLE_SCHEDULE[:slot].count(kind))
    if kind in ("branch", "choi"):
        ladder = BRANCH_HEAVY if kind == "branch" else CHOI_HEAVY
        n_io, n_meas, n_free = rung(ladder, j)
        if smoke:
            n_meas = min(n_meas, 2)
        src = random_icm(rng, n_io, n_meas, n_free, 2 * (n_io + n_meas + n_free))
        cand = make_candidate(src, "commute", rng) or make_candidate(src, "cancel", rng)
        return OpInput("channel", (src.text(), cand.text()), True)
    if kind == "table":
        n = TRUTH_TABLE_WIDTHS[0 if smoke else j % len(TRUTH_TABLE_WIDTHS)]
        n_io = n // 3
        src = random_icm(rng, n_io, (n - n_io) * 2 // 3, n - n_io - (n - n_io) * 2 // 3, 10 * n)
        equal = j // len(TRUTH_TABLE_WIDTHS) % 2 == 0
        other = src if equal else make_candidate(src, "io_cnot", rng)
        return OpInput("table", (src.text(), other.text()), equal)
    if kind == "rewrite":
        name, flavour = rung(GADGETS, j)
        nq, gates = 1, [(name, 0)]
        demote = flavour == "rotated_meas" and j % 2
        variant = "demote" if demote else "dual"
        expect = "raises" if (variant, flavour) == ("dual", "rotated_init") and name in ("t", "tdg") else True
    else:
        nq = 1 + j % 2
        flavour = ("rotated_meas", "rotated_init")[j // 2 % 2]
        budget = 2 if smoke else rung(PROGRAM_ANCILLAE, j) + (2 - nq)
        gates = random_program(rng, nq, 8, budget, flavour, fill=True)
        variant = "compiled"
        expect = True
    return OpInput(variant, (gates_text(nq, gates),), expect,
                   {"flavour": flavour, "nq": nq, "gates": gates,
                    "other": other_program(rng, gates)})


def oracle_dense_op(iv: ModuleType, inp: OpInput, sw: Stopwatch) -> list[str]:
    if inp.kind == "channel":
        with sw:
            a, b = (iv.channel_choi(iv.parse_circuit(t)) for t in inp.texts)
            same = iv.channels_equal(a, b)
        return [] if same else ["rewired circuit judged a different channel"]
    if inp.kind == "table":
        with sw:
            src, other = (iv.parse_circuit(t) for t in inp.texts)
            same = iv.table_equal(iv.oracle_truth_table(src), iv.derive_truth_table(other))
        return [] if same == inp.expect else [f"table_equal gave {same}, expected {inp.expect}"]
    x = inp.extra
    want = ideal_unitary(x["nq"], x["gates"])
    wrong = ideal_unitary(x["nq"], x["other"])
    with sw:
        res = iv.compile_to_icm(iv.parse_gates(inp.texts[0]), x["flavour"])
        if inp.kind == "compiled":
            circuit, frames = res.circuit, res.frame_map()
        elif inp.kind == "dual":
            try:
                circuit = iv.dual_rewrite(res.circuit)
            except iv.TransformError:
                circuit = None
            frames = None if circuit is None else iv.fit_frames(circuit, want, tol=1e-9)
        else:
            target = next(r.q1 for r in res.circuit.rules
                          if r.b1 in ROTATED and not r.conditional)
            circuit = iv.demote_rotated_measurement(res.circuit, target)
            frames = iv.fit_frames(circuit, want, tol=1e-9)
        if frames is not None:
            choi = iv.channel_choi(circuit, frames=frames)
            equal = iv.channels_equal(choi, iv.choi_of_unitary(want), tol=1e-9)
            unequal = not iv.channels_equal(choi, iv.choi_of_unitary(wrong), tol=1e-9)
    if inp.expect == "raises":
        return [] if circuit is None else ["dual of a rotated_init t gadget did not raise"]
    if circuit is None or frames is None:
        return [f"{inp.kind} of {x['gates']} ({x['flavour']}) gave no frames"]
    if not (equal and unequal):
        return [f"{inp.kind} of {x['gates']} ({x['flavour']}): equal={equal} unequal={unequal}"]
    return []


# -- many_small -------------------------------------------------------------------


def many_small_input(seed: int, i: int, smoke: bool = False) -> OpInput:
    """gates v1 programs of 1-4 qubits and up to 20 gates, compiled 3-30 wide.

    Every tenth op is one of the ten single-gate gadgets of criterion 6.
    """
    rng = op_rng("many_small", seed, i)
    if i % 10 == 9:
        name, flavour = GADGETS[i // 10 % len(GADGETS)]
        nq, gates = 1, [(name, 0)]
    else:
        flavour = "rotated_meas"
        nq = rng.randint(1, 4)
        gates = random_program(rng, nq, rng.randint(1, 20), 30 - nq)
        while nq + sum(GADGET_ANCILLAE[flavour][g[0]] for g in gates) < 3:
            gates.append(("p", rng.randrange(nq)))
    return OpInput("compile", (gates_text(nq, gates),), None,
                   {"flavour": flavour, "turn": i, "rng": f"many_small/{seed}/{i}/candidate"})


def many_small_op(iv: ModuleType, inp: OpInput, sw: Stopwatch) -> list[str]:
    with sw:
        res = iv.compile_to_icm(iv.parse_gates(inp.texts[0]), inp.extra["flavour"])
        circuit_text = iv.serialize_circuit(res.circuit)
        circuit = iv.parse_circuit(circuit_text)
        spec_text = iv.serialize_spec(iv.derive_specification(circuit))
        spec = iv.parse_spec(spec_text)
    rng = random.Random(inp.extra["rng"])
    kind, cand = candidate_in_turn(read_icm(circuit_text), inp.extra["turn"], rng)
    cand_text = cand.text()
    with sw:
        report = iv.verify(iv.parse_circuit(cand_text), spec)
    return check_report(report, EXPECTED[kind]) + check_round_trip(iv, spec_text, spec)


@dataclass(frozen=True)
class Workload:
    """``ops`` inputs make one pass; a run repeats the pass (see run.py).

    The first ``warmup`` ops, which meet every op kind, run once untimed
    at smoke size before the first pass, so first-call costs stay out of
    the timings.
    """

    name: str
    ops: int
    warmup: int
    make_input: Callable[[int, int, bool], OpInput]
    run_op: Callable[[ModuleType, OpInput, Stopwatch], list[str]]


WORKLOADS = {
    w.name: w
    for w in (
        # 6 derive-verify and 2 spec-diff ops on a golden-ratio size sequence
        Workload("table_large", 8, 4, table_large_input, table_large_op),
        # two cycles of ten: every rung of the branch and Choi ladders once
        Workload("oracle_dense", 20, 10, oracle_dense_input, oracle_dense_op),
        Workload("many_small", 2000, 20, many_small_input, many_small_op),
    )
}
