"""Property tests of the bulk Pauli text codec and the transposed column permute.

The per-letter loops below are the reference implementations the bulk
versions replaced; the bulk versions must agree with them exactly.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icmverify import (
    PauliError,
    PauliOperator,
    SpecParseError,
    derive_specification,
    parse_spec,
    pauli_format,
    pauli_parse,
    serialize_spec,
)
from icmverify.pauli import TableRow, row_parse
from icmverify.specfmt import permute_table
from icmverify.table import StabiliserTruthTable

from conftest import load_fixture

LETTERS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
PREFIX = {0: "", 1: "i", 2: "-", 3: "-i"}


def ref_format(p: PauliOperator) -> str:
    return PREFIX[p.phase] + "".join(
        LETTERS[(p.x >> k) & 1, (p.z >> k) & 1] for k in range(p.n)
    )


def ref_permute(p: PauliOperator, perm: list[int]) -> PauliOperator:
    x = z = 0
    for new, old in enumerate(perm):
        x |= ((p.x >> old) & 1) << new
        z |= ((p.z >> old) & 1) << new
    return PauliOperator(p.n, x, z, p.phase)


@st.composite
def paulis(draw, n=None, phases=(0, 1, 2, 3)):
    if n is None:
        n = draw(st.integers(1, 700))
    bits = st.integers(0, (1 << n) - 1)
    return PauliOperator(n, draw(bits), draw(bits), draw(st.sampled_from(phases)))


def rows(n):
    canonical = paulis(n=n, phases=(0,))
    return st.builds(TableRow, canonical, canonical, st.sampled_from((1, -1)))


@st.composite
def tables(draw):
    n = draw(st.integers(1, 80))
    return StabiliserTruthTable(n, tuple(draw(st.lists(rows(n), max_size=12))))


@settings(max_examples=300, deadline=None)
@given(paulis())
@example(PauliOperator(7, 0b1010101, 0b0110011, 3))
@example(PauliOperator(8, 0b10000001, 0b11111111, 1))
@example(PauliOperator(9, 0, 0b100000000, 2))
@example(PauliOperator(64, (1 << 64) - 1, 1 << 63, 0))
@example(PauliOperator(65, 1 << 64, (1 << 65) - 1, 2))
def test_format_matches_letters_and_parses_back(p):
    text = pauli_format(p)
    assert text == ref_format(p)
    assert pauli_parse(text) == p
    assert pauli_parse(text, p.n) == p


def test_codec_is_exact_past_the_decimal_digit_limit():
    rng = random.Random(5000)
    n = 5000
    p = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n), 3)
    assert pauli_format(p) == ref_format(p)
    assert pauli_parse(pauli_format(p)) == p


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 700).flatmap(rows))
def test_row_text_round_trips(row):
    assert row_parse(row.format()) == row


@settings(max_examples=200, deadline=None)
@given(tables(), st.randoms(use_true_random=False), st.booleans())
def test_permute_table_matches_the_per_letter_permute(t, rnd, identity):
    perm = list(range(t.n))
    if not identity:
        rnd.shuffle(perm)
    got = permute_table(t, perm)
    assert got.n == t.n
    assert got.rows == tuple(
        TableRow(ref_permute(r.input, perm), ref_permute(r.output, perm), r.sign)
        for r in t.rows
    )


@pytest.mark.parametrize(
    "text, n, message",
    [
        ("XQZ", None, "bad Pauli letter 'Q' at column 2 of 'XQZ'"),
        ("-iXZYQ", None, "bad Pauli letter 'Q' at column 4 of '-iXZYQ'"),
        ("+ X Yx", None, "bad Pauli letter 'x' at column 3 of '+ X Yx'"),
        ("X_X", None, "bad Pauli letter '_' at column 2 of 'X_X'"),
        ("XZ1", None, "bad Pauli letter '1' at column 3 of 'XZ1'"),
        ("Xé", None, "bad Pauli letter 'é' at column 2 of 'Xé'"),
        ("XX", 3, "expected 3 letters, got 2 in 'XX'"),
        ("-iXQ", 3, "expected 3 letters, got 2 in '-iXQ'"),
        ("", None, "empty Pauli string in ''"),
        ("  ", 2, "empty Pauli string in '  '"),
        ("-", None, "bad Pauli letter '-' at column 1 of '-'"),
    ],
)
def test_parse_error_messages(text, n, message):
    with pytest.raises(PauliError) as exc:
        pauli_parse(text, n)
    assert str(exc.value) == message


def test_a_bad_row_in_a_spec_names_its_line_and_column():
    lines = serialize_spec(derive_specification(load_fixture("t.icm"))).splitlines()
    k = lines.index("+ IZI -> ZZI")
    lines[k] = "+ IZI -> ZZQ"
    with pytest.raises(SpecParseError) as exc:
        parse_spec("\n".join(lines))
    assert exc.value.line == k + 1
    assert str(exc.value) == f"line {k + 1}: bad Pauli letter 'Q' at column 3 of 'ZZQ'"


ROW = "+ IZI -> ZZI"  # places 0, 1, 5, 6, 7 and 8 are the sign and separators
LETTER_PLACES = (2, 3, 4, 9, 10, 11)


@pytest.mark.parametrize(
    "place, char",
    [(2, "\ud800"), (10, "\udfff"), (3, "\uff38"), (9, "\u0130"), (4, "x"), (11, "z")]
    + [(k, "\t") for k in LETTER_PLACES]
    + [(0, "Q"), (0, "X")] + [(k, c) for k in (1, 5, 6, 7, 8) for c in "QX#"],
)
@pytest.mark.parametrize("rows_before", [0, 1500])
def test_a_bad_table_line_raises_a_spec_error_naming_its_line(place, char, rows_before):
    """A lone surrogate, a non-ASCII or lowercase letter, a tab in a letter
    place or any broken sign or separator fails the bulk letter check,
    and the line then gets ``row_parse``'s message, never a traceback."""
    lines = serialize_spec(derive_specification(load_fixture("t.icm"))).splitlines()
    k = lines.index(ROW)
    lines[k:k] = [ROW] * rows_before  # puts the bad row in the second block
    bad = ROW[:place] + char + ROW[place + 1:]
    lines[k + rows_before] = bad
    lineno = k + rows_before + 1
    with pytest.raises(PauliError) as want:
        row_parse(bad.split("#", 1)[0].strip(), 3)
    with pytest.raises(SpecParseError) as exc:
        parse_spec("\n".join(lines))
    assert exc.value.line == lineno
    assert str(exc.value) == f"line {lineno}: {want.value}"


@st.composite
def table_blocks(draw):
    """The lines of a table block: plain rows, and rows with comments,
    surrounding space, blank or comment lines around them, a spacing that
    ``row_parse`` normalises, or one character replaced."""
    n = draw(st.sampled_from((1, 2, 5, 40)))
    lines = []
    for row in draw(st.lists(rows(n), max_size=20)):
        text = row.format()
        kind = draw(st.integers(0, 7))
        if kind == 1:
            text = "  " + text + "\t# note"
        elif kind == 2:
            text = text.replace(" -> ", "->")
        elif kind == 3:
            lines.append(draw(st.sampled_from(["", "   ", "# note"])))
        elif kind == 4:
            k = draw(st.integers(0, len(text) - 1))
            text = text[:k] + draw(st.sampled_from("xQ\t#\u00e9-")) + text[k + 1:]
        lines.append(text)
    return n, lines


@settings(max_examples=200, deadline=None)
@given(table_blocks())
def test_a_table_block_reads_as_row_parse_reads_each_line(case):
    """The bulk reader against the per-line reference: strip each line's
    comment and space, skip it if blank, else ``row_parse`` it."""
    n, lines = case
    head = ["spec v1", f"qubits {n}", "io " + " ".join(f"q{k}" for k in range(n)), "table"]
    want_rows = []
    for lineno, raw in enumerate(lines, start=len(head) + 1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            want_rows.append(row_parse(text, n))
        except PauliError as exc:
            want = ("error", lineno, f"line {lineno}: {exc}")
            break
    else:
        want = ("ok", StabiliserTruthTable(n, want_rows))
    try:
        got = ("ok", parse_spec("\n".join(head + lines + ["end", ""])).table)
    except SpecParseError as exc:
        got = ("error", exc.line, str(exc))
    assert got == want


@st.composite
def column_tables(draw):
    n = draw(st.sampled_from((1, 63, 64, 65)))
    return n, draw(st.lists(rows(n), max_size=12))


@settings(max_examples=200, deadline=None)
@given(column_tables())
@example((64, []))
@example((1, [TableRow(PauliOperator(1, 1, 1), PauliOperator(1, 0, 1), -1)]))
def test_rows_to_columns_to_rows(case):
    """Row i is bit i of every column; the rows, their text and the spec
    text come back unchanged from the columns alone."""
    n, rs = case
    t = StabiliserTruthTable(n, rs)
    assert t.nrows == len(rs)
    for k in range(n):
        for cols, part in ((t.in_x, "input.x"), (t.in_z, "input.z"),
                           (t.out_x, "output.x"), (t.out_z, "output.z")):
            side, bit = part.split(".")
            want = sum(((getattr(getattr(r, side), bit) >> k) & 1) << i
                       for i, r in enumerate(rs))
            assert cols[k] == want
    assert t.signs == sum(1 << i for i, r in enumerate(rs) if r.sign == -1)

    again = StabiliserTruthTable.from_columns(
        n, t.nrows, t.in_x, t.in_z, t.out_x, t.out_z, t.signs
    )
    assert "rows" not in vars(again)  # built from the columns, not cached
    assert again.rows == tuple(rs)
    assert again == t
    assert again.format() == "\n".join(r.format() for r in rs)

    roster = " ".join(f"q{k}" for k in range(n))
    text = f"spec v1\nqubits {n}\nio {roster}\ntable\n{t.format()}\nend\n".replace(
        "table\n\nend", "table\nend"
    )
    parsed = parse_spec(text).table
    assert parsed == t
    assert parsed.rows == tuple(rs)


def test_table_text_in_several_column_groups_and_row_blocks():
    """1100 qubits and 1100 rows span two 1024-column groups when written,
    two 1024-row blocks when read and two 1024-word blocks when
    transposed."""
    rng = random.Random(1100)
    n = 1100
    rs = [
        TableRow(PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n)),
                 PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n)),
                 rng.choice((1, -1)))
        for _ in range(1100)
    ]
    t = StabiliserTruthTable(n, rs)
    text = t.format()
    assert text == "\n".join(r.format() for r in rs)
    roster = " ".join(f"q{k}" for k in range(n))
    parsed = parse_spec(f"spec v1\nqubits {n}\nio {roster}\ntable\n{text}\nend\n").table
    assert parsed == t
    assert parsed.rows_at([0, 700, 1099]) == [rs[0], rs[700], rs[1099]]
    assert parsed.rows == tuple(rs)
