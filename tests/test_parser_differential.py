"""``parse_circuit`` against the line-by-line reference parser it replaced.

On every generated ``icm v1`` text the two must give an equal circuit,
or raise the same error with the same message and line.  The texts mix
valid circuits with comments, CRLF line endings, tabs and leading space,
and with the mistakes each check exists for: a CNOT before the header or
before a declaration, duplicate ids, a second ``out`` line, bad bases,
kinds and arities, and unknown directives.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from icmverify import parse_circuit

from ref_icm_parser import ref_parse_circuit

IDS = st.sampled_from(["q1", "q2", "a", "b", "c"])
BASES = st.sampled_from(["X", "Z", "Y", "A", "Q"])
KINDS = st.sampled_from(["teleport", "computational", "distillation", "io", "magic"])


def _words(*parts):
    return st.tuples(*parts).map(" ".join)


ANY_LINE = st.one_of(
    st.lists(IDS, max_size=3).map(lambda q: " ".join(["io", *q])),
    _words(st.just("ancilla"), IDS, KINDS, st.sampled_from(["init", "basis"]), BASES),
    _words(st.just("cnot"), IDS, IDS),
    st.lists(IDS, max_size=3).map(lambda q: " ".join(["cnot", *q])),
    _words(st.just("measure"), IDS, BASES),
    _words(st.just("measure"), IDS, BASES, st.sampled_from(["?", "!"]), IDS, BASES,
           st.just(":"), IDS, BASES),
    st.lists(IDS, max_size=3).map(lambda q: " ".join(["out", *q])),
    st.sampled_from(["qubits 0", "qubits 2", "qubits 3", "qubits x", "qubits"]),
    st.sampled_from(["icm v1", "icm v2", "", "# a comment", "gate q1", "   "]),
)


@st.composite
def valid_lines(draw):
    """The lines of a valid circuit, declarations first."""
    io = draw(st.lists(st.sampled_from(["q1", "q2"]), min_size=1, max_size=2, unique=True))
    anc = draw(st.lists(st.sampled_from(["a", "b", "c"]), max_size=3, unique=True))
    lines = ["icm v1", f"qubits {len(io) + len(anc)}", "io " + " ".join(io)]
    for qid in anc:
        kind = draw(st.sampled_from(["teleport", "computational", "distillation"]))
        basis = draw(st.sampled_from(["X", "Z"] if kind == "computational" else "XZYA"))
        lines.append(f"ancilla {qid} {kind} init {basis}")
    ids = io + anc
    for _ in range(draw(st.integers(0, 6))):
        c, t = draw(st.permutations(ids))[:2] if len(ids) > 1 else (ids[0], ids[0])
        lines.append(f"cnot {c} {t}")
    for qid in anc:
        if draw(st.booleans()):
            lines.append(f"measure {qid} {draw(st.sampled_from('XZYA'))}")
    if len(anc) == 2 and draw(st.booleans()):
        a, b = anc
        lines.append(f"measure {a} X ? {b} Z : {b} Y")
    lines.append("out " + " ".join(io))
    return lines


@st.composite
def icm_texts(draw):
    lines = draw(st.one_of(
        valid_lines(), st.lists(ANY_LINE, max_size=12).map(lambda ls: ["icm v1", *ls])
    ))
    for _ in range(draw(st.integers(0, 2))):
        mistake = draw(st.one_of(
            ANY_LINE,
            st.sampled_from(["cnot q1 a", "io q1", "ancilla a teleport init Z", "out q1"]),
        ))
        lines.insert(draw(st.integers(0, len(lines))), mistake)
    out = []
    for line in lines:
        if draw(st.booleans()):
            line = line.replace(" ", draw(st.sampled_from(["\t", "  ", " \t "])))
        if draw(st.integers(0, 3)) == 0:
            line = draw(st.sampled_from([" ", "\t"])) + line
        if draw(st.integers(0, 3)) == 0:
            line += draw(st.sampled_from(["# note", " # cnot q1 q9", "\t#"]))
        out.append(line)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(out) + draw(st.sampled_from(["", eol]))


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except Exception as exc:  # the type, message and line are compared
        return "error", type(exc), str(exc), getattr(exc, "line", None)


@settings(max_examples=300, deadline=None)
@given(icm_texts())
@example("cnot q1 a\nicm v1\nio q1\nancilla a teleport init Z\n")
@example("icm v1\ncnot q1 a\nio q1\nancilla a teleport init Z\n")
@example("icm v1\r\nio q1 # x\r\nio q1\r\n")
@example("icm v1\nio q1\nout q1\nout q1\n")
@example("icm v1\nio\tq1\nancilla\ta\tteleport\tinit\tY\ncnot q1 a # c\nmeasure a X\n")
@example("# only\n\n")
@example("icm v1 # header\nio q1 q2\ncnot q1 q1\n")
@example("icm v1\nio q1\nancilla a teleport init Z\nancilla b teleport init Z\n"
         "measure a X ? b Z : a Y\n")
def test_parse_circuit_matches_the_reference_parser(text):
    assert _outcome(parse_circuit, text) == _outcome(ref_parse_circuit, text)
