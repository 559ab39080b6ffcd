"""Text formats: canonical round trips and located diagnostics."""

import re
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from gradedrel import (
    TOP,
    CounterexampleBundle,
    FormatError,
    RelationalSystem,
    SelfMap,
    StructuralInputError,
    identity_map,
    ingest_distance_matrix,
    make_system,
    parse_bundle,
    parse_distance_matrix,
    parse_selfmap,
    parse_system,
    serialize_bundle,
    serialize_distance_matrix,
    serialize_selfmap,
    serialize_system,
)
from gradedrel import formats
from gradedrel.formats import _column

from strategies import small_systems

TWINS_TEXT = (
    "gradedsystem v1\n"
    "points: 2\n"
    "labels: a b\n"
    "window: 3 4\n"
    "grades:\n"
    "- 3\n"
    "3 -\n"
)


# every character str.split() breaks tokens at; a row may use any of them
# but the newline, which ends the row
SPACES = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
SEPARATORS = SPACES.replace("\n", "")


def diag(call):
    with pytest.raises(FormatError) as exc:
        call()
    return exc.value.diagnostic


def spaced_row(draw, tokens):
    """Join tokens with random runs of SEPARATORS, mostly spaces and tabs.

    Returns the line and the 0-based offset of every token in it.
    """
    chars = st.one_of(st.sampled_from(" \t"), st.sampled_from(SEPARATORS))
    blanks = st.text(alphabet=chars, max_size=3)
    line = draw(blanks)
    offsets = []
    for k, tok in enumerate(tokens):
        if k:
            line += draw(st.text(alphabet=chars, min_size=1, max_size=4))
        offsets.append(len(line))
        line += tok
    return line + draw(blanks), offsets


@st.composite
def systems_with_one_bad_cell(draw):
    """System text with random spacing and one faulty grade cell.

    Yields the text and the (code, line, column) the parser must report.
    """
    sys = draw(small_systems())
    n, lo, hi = sys.n, sys.window.lo, sys.window.hi
    cells = [
        ["-" if x == y else str(g) for y, g in enumerate(row)]
        for x, row in enumerate(sys.grades.entries)
    ]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    kinds = ["bad-int", "bad-diagonal"]
    if i != j:
        kinds += ["out-of-range", "asymmetric"]
    kind = draw(st.sampled_from(kinds))
    if kind == "bad-int":
        cells[i][j] = "x"
    elif kind == "bad-diagonal":
        cells[i][j] = str(lo) if i == j else "-"
    elif kind == "out-of-range":
        cells[i][j] = str(draw(st.sampled_from([lo - 2, hi + 1])))
    else:
        g = sys.grades.entries[i][j]
        cells[i][j] = str(draw(st.integers(lo - 1, hi).filter(lambda v: v != g)))
    rows = [spaced_row(draw, row) for row in cells]
    head = serialize_system(sys).split("\n")[:5]
    text = "\n".join(head + [line for line, _ in rows]) + "\n"
    if kind == "asymmetric":
        # pairs are compared upper triangle first; the lower cell is located
        a, b = min(i, j), max(i, j)
        return text, (kind, 6 + b, rows[b][1][a] + 1)
    return text, (kind, 6 + i, rows[i][1][j] + 1)


def test_split_and_column_agree_on_whitespace():
    # parsers take tokens from str.split() and columns from the \S+ regex,
    # so both must read exactly the str.isspace() characters as whitespace
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    assert "".join(re.findall(r"\s", everything)) == SPACES
    for c in SPACES:
        line = f"ab{c}c{c}{c}d"
        assert line.split() == ["ab", "c", "d"]
        assert [_column(line, k) for k in range(4)] == [1, 4, 7, 1]


class TestSystemRoundTrip:
    def test_twins_canonical_bytes(self, twins):
        assert serialize_system(twins) == TWINS_TEXT
        assert serialize_system(parse_system(TWINS_TEXT)) == TWINS_TEXT

    def test_fixture_round_trips(self, grid, triple, chain):
        for sys in (grid, triple, chain):
            assert parse_system(serialize_system(sys)) == sys

    @given(small_systems())
    @settings(max_examples=80)
    def test_round_trip_everywhere(self, sys):
        text = serialize_system(sys)
        assert parse_system(text) == sys
        assert serialize_system(parse_system(text)) == text

    @given(
        st.lists(
            st.text(
                st.one_of(
                    st.sampled_from(" \t\n\r\x0b\x0c\x1c\x85\xa0\u2028\u3000ab"),
                    st.characters(),
                ),
                max_size=4,
            ),
            min_size=0,
            max_size=3,
        )
    )
    @example(["a b", "c"])
    @example(["", "c"])
    @example([])
    def test_labels_construct_only_if_they_round_trip(self, labels):
        # a system is either refused or written as text that reads back; no
        # text reads back as a 0-point system
        n = len(labels)
        rows = [[TOP if x == y else 0 for y in range(n)] for x in range(n)]
        try:
            sys = make_system(labels, (0, 1), rows)
        except StructuralInputError:
            assert (
                n == 0
                or len(set(labels)) < n
                or any(label.split() != [label] for label in labels)
            )
            return
        assert parse_system(serialize_system(sys)) == sys

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_system([], (0, 0), []),
            lambda: ingest_distance_matrix([], (0, 1)),
            lambda: SelfMap(()),
            lambda: identity_map(0),
        ],
        ids=["make_system", "ingest_distance_matrix", "SelfMap", "identity_map"],
    )
    def test_no_zero_point_values(self, build):
        # the text forms refuse `points: 0`, so no value may have no points
        with pytest.raises(StructuralInputError, match="point count must be positive, got 0"):
            build()

    def test_labels_default_to_indices(self):
        text = (
            "gradedsystem v1\n"
            "points: 2\n"
            "window: 0 1\n"
            "grades:\n"
            "- 1\n"
            "1 -\n"
        )
        sys = parse_system(text)
        assert sys.labels == ("0", "1")
        # canonical form always carries the labels line
        assert "labels: 0 1\n" in serialize_system(sys)

    def test_whitespace_is_not_canonical(self):
        text = TWINS_TEXT.replace("- 3", "-  3")
        sys = parse_system(text)
        assert serialize_system(sys) == TWINS_TEXT


class TestSystemDiagnostics:
    def test_bad_header(self):
        d = diag(lambda: parse_system("nonsense v9\n"))
        assert (d.code, d.line, d.column) == ("bad-header", 1, 1)

    def test_truncated(self):
        d = diag(lambda: parse_system("gradedsystem v1\npoints: 2\n"))
        assert d.code == "truncated"
        assert d.line == 3

    def test_missing_section(self):
        d = diag(lambda: parse_system("gradedsystem v1\nlabels: a b\n"))
        assert (d.code, d.line) == ("missing-section", 2)

    def test_bad_int(self):
        d = diag(lambda: parse_system("gradedsystem v1\npoints: x\n"))
        assert (d.code, d.line, d.column) == ("bad-int", 2, 9)

    def test_bad_count(self):
        d = diag(lambda: parse_system("gradedsystem v1\npoints: 0\n"))
        assert (d.code, d.line) == ("bad-count", 2)

    def test_bad_labels(self):
        text = "gradedsystem v1\npoints: 2\nlabels: a b c\n"
        d = diag(lambda: parse_system(text))
        assert (d.code, d.line) == ("bad-labels", 3)

    def test_bad_window(self):
        base = "gradedsystem v1\npoints: 2\nlabels: a b\n"
        d = diag(lambda: parse_system(base + "window: 4\n"))
        assert (d.code, d.line) == ("bad-window", 4)
        d = diag(lambda: parse_system(base + "window: 4 3\n"))
        assert (d.code, d.line) == ("bad-window", 4)

    def test_bad_grades_line(self):
        text = TWINS_TEXT.replace("grades:", "grades: now")
        d = diag(lambda: parse_system(text))
        assert (d.code, d.line) == ("bad-grades", 5)

    def test_bad_dimension(self):
        text = TWINS_TEXT.replace("- 3\n", "- 3 3\n")
        d = diag(lambda: parse_system(text))
        assert (d.code, d.line) == ("bad-dimension", 6)

    def test_dash_off_diagonal(self):
        text = TWINS_TEXT.replace("- 3\n", "- -\n")
        d = diag(lambda: parse_system(text))
        assert (d.code, d.line, d.column) == ("bad-diagonal", 6, 3)

    def test_integer_on_diagonal(self):
        text = TWINS_TEXT.replace("- 3\n", "4 3\n")
        d = diag(lambda: parse_system(text))
        assert (d.code, d.line, d.column) == ("bad-diagonal", 6, 1)

    def test_out_of_range_grade(self):
        text = TWINS_TEXT.replace("- 3\n", "- 5\n").replace("3 -\n", "5 -\n")
        d = diag(lambda: parse_system(text))
        assert (d.code, d.line, d.column) == ("out-of-range", 6, 3)
        assert "[2, 4]" in d.message

    def test_asymmetric_names_both_cells(self):
        text = TWINS_TEXT.replace("3 -\n", "4 -\n")
        d = diag(lambda: parse_system(text))
        assert d.code == "asymmetric"
        assert (d.line, d.column) == (7, 1)
        assert "(1, 0) is 4" in d.message
        assert "(0, 1) is 3" in d.message

    def test_duplicate_labels_rejected(self):
        text = TWINS_TEXT.replace("labels: a b", "labels: a a")
        d = diag(lambda: parse_system(text))
        assert (d.code, d.line, d.column) == ("invalid-system", 3, 11)
        assert d.message == "labels must be distinct"
        # at the first label that repeats an earlier one, on the labels
        # line, not at the last grade row
        text = (
            "gradedsystem v1\npoints: 4\nlabels:  a b  a b\nwindow: 0 1\n"
            "grades:\n- 0 0 0\n0 - 0 0\n0 0 - 0\n0 0 0 -\n"
        )
        d = diag(lambda: parse_system(text))
        assert (d.code, d.line, d.column) == ("invalid-system", 3, 15)
        # and on its own line in a bundle, after the five bundle lines
        bundle = "counterexample v1\nclaim: c\nseed: 1\ntrial: 0\nlocus: x\n"
        d = diag(lambda: parse_bundle(bundle + text))
        assert (d.code, d.line, d.column) == ("invalid-system", 8, 15)
        assert d.message == "labels must be distinct"

    def test_trailing_input(self):
        d = diag(lambda: parse_system(TWINS_TEXT + "extra\n"))
        assert (d.code, d.line) == ("trailing-input", 8)

    @given(systems_with_one_bad_cell())
    @settings(max_examples=150)
    def test_column_is_the_token_offset(self, case):
        text, expected = case
        d = diag(lambda: parse_system(text))
        assert (d.code, d.line, d.column) == expected

    def test_str_form(self):
        d = diag(lambda: parse_system("nonsense\n"))
        assert str(d) == "1:1: bad-header: expected 'gradedsystem v1', got 'nonsense'"


def parsed(text):
    """parse_system's system, or the Diagnostic it fails with."""
    try:
        return parse_system(text)
    except FormatError as exc:
        return exc.diagnostic


def parsed_cell_by_cell(text):
    """parsed(text) with every grade row taken by the cell loop, as every
    row was before valid rows were read whole."""
    with mock.patch.object(formats, "_whole_row", lambda *args: None):
        return parsed(text)


# one-token mutations of a grade block; the first two need an off-diagonal cell
OFF_DIAGONAL = ("dash-off-diagonal", "asymmetric")
MUTATIONS = OFF_DIAGONAL + (
    "diagonal-not-dash", "below", "above", "junk", "+3", "3_0", "\u0663", "short", "long",
)


@st.composite
def system_texts_with_one_mutation(draw):
    """A valid system text with random spacing, or the same text with one
    token of its grade block mutated; the labels may hold '+' and '_',
    which make every integer token take the _PLAIN_INT test.

    Yields the text and the system it holds, or None when mutated."""
    sys = draw(small_systems())
    n, lo, hi = sys.n, sys.window.lo, sys.window.hi
    labels = draw(st.sampled_from([sys.labels, tuple(f"p+{k}_" for k in range(n))]))
    cells = [
        ["-" if x == y else str(g) for y, g in enumerate(row)]
        for x, row in enumerate(sys.grades.entries)
    ]
    kinds = MUTATIONS if n > 1 else MUTATIONS[len(OFF_DIAGONAL):]
    kind = draw(st.one_of(st.none(), st.sampled_from(kinds)))
    i = draw(st.integers(0, n - 1))
    j = (i + draw(st.integers(1, n - 1))) % n if kind in OFF_DIAGONAL else draw(st.integers(0, n - 1))
    if kind == "dash-off-diagonal":
        cells[i][j] = "-"
    elif kind == "asymmetric":
        g = sys.grades.entries[i][j]
        cells[i][j] = str(draw(st.integers(lo - 1, hi).filter(lambda v: v != g)))
    elif kind == "diagonal-not-dash":
        cells[i][i] = draw(st.sampled_from([str(lo), str(hi), "x"]))
    elif kind in ("below", "above"):
        cells[i][j] = str(lo - 2 if kind == "below" else hi + 1)
    elif kind == "junk":
        cells[i][j] = draw(st.sampled_from(["x", "1.5", "--1", "0x1", "1-"]))
    elif kind == "short":
        del cells[i][j]
    elif kind == "long":
        cells[i].insert(j, draw(st.sampled_from(["-", str(lo)])))
    elif kind is not None:
        cells[i][j] = kind
    head = serialize_system(sys).split("\n")[:5]
    head[2] = "labels: " + " ".join(labels)
    rows = [spaced_row(draw, row)[0] for row in cells]
    text = "\n".join(head + rows) + "\n"
    return text, None if kind else RelationalSystem(labels, sys.window, sys.grades)


@pytest.mark.deep
class TestWholeRowParse:
    """Valid grade rows are read whole; the cell loop they bypass is the
    oracle for every system and diagnostic."""

    @given(system_texts_with_one_mutation())
    @example(("gradedsystem v1\npoints: 2\nwindow: -0 04\ngrades:\n- 03\n3 -\n", None))
    @example((TWINS_TEXT.replace("3 -\n", "3 4\n"), None))
    def test_same_system_or_diagnostic_as_the_cell_loop(self, case):
        text, expected = case
        got = parsed(text)
        assert got == parsed_cell_by_cell(text)
        if expected is not None:
            assert got == expected

    def test_valid_rows_are_read_whole(self, grid):
        text = serialize_system(grid)
        with mock.patch.object(formats, "_whole_row", wraps=formats._whole_row) as spy:
            assert parse_system(text) == grid
        assert spy.call_count == grid.n
        # a '+' outside the grade rows leaves every plain row read whole
        plus = text.replace("labels: ", "labels: +", 1)
        with mock.patch.object(formats, "_whole_row", wraps=formats._whole_row) as spy:
            assert parse_system(plus).grades == grid.grades
        assert spy.call_count == grid.n

    @pytest.mark.parametrize("mark", ["+", "_", "\u00e9"])
    def test_rows_are_read_whole_whatever_the_labels_and_locus_hold(self, grid, mark):
        # a label like p_0 or a locus like 1 > 1/2 + 1/32 is on its own line
        labels = tuple(f"p{mark}{i}" for i in range(grid.n))
        sys = RelationalSystem(labels, grid.window, grid.grades)
        bundle = CounterexampleBundle("c", 1, 0, f"1 > 1/2 {mark} 1/32", sys, None)
        real = formats._whole_row

        def recorded(*args):
            rows.append(real(*args))
            return rows[-1]

        for parse, text in [
            (parse_system, serialize_system(sys)),
            (parse_bundle, serialize_bundle(bundle)),
        ]:
            rows = []
            with mock.patch.object(formats, "_whole_row", recorded):
                parse(text)
            assert len(rows) == grid.n and None not in rows

    @pytest.mark.parametrize(
        "row, index, whole",
        [
            (["-", "3"], 0, (TOP, 3)),
            (["3", "-"], 1, (3, TOP)),
            (["-"], 0, (TOP,)),
            (["3", "3"], 0, None),
            (["-", "-"], 0, None),
            (["-", "x"], 0, None),
            (["-", "1"], 0, None),
            (["-", "5"], 0, None),
        ],
    )
    def test_whole_row(self, row, index, whole):
        assert formats._whole_row(row, index, 2, 4) == whole


class TestSelfMapFormat:
    def test_round_trip(self, swap):
        text = serialize_selfmap(swap)
        assert text == "selfmap v1\npoints: 2\nmap: 1 0\n"
        assert parse_selfmap(text) == swap

    def test_bad_dimension(self):
        d = diag(lambda: parse_selfmap("selfmap v1\npoints: 2\nmap: 1\n"))
        assert (d.code, d.line) == ("bad-dimension", 3)

    def test_image_out_of_range(self):
        d = diag(lambda: parse_selfmap("selfmap v1\npoints: 2\nmap: 1 2\n"))
        assert (d.code, d.line) == ("out-of-range", 3)

    def test_trailing_input(self):
        d = diag(lambda: parse_selfmap("selfmap v1\npoints: 2\nmap: 1 0\nmore\n"))
        assert (d.code, d.line) == ("trailing-input", 4)


class TestDistanceMatrix:
    def test_exact_rationals(self):
        text = "distmatrix v1\npoints: 3\n0 1/3 0.3\n1/3 0 2\n0.3 2 0\n"
        rows = parse_distance_matrix(text)
        assert rows[0][1] == Fraction(1, 3)
        assert rows[0][2] == Fraction(3, 10)
        assert rows[1][2] == Fraction(2)

    def test_round_trip(self):
        rows = [
            [Fraction(0), Fraction(1, 3)],
            [Fraction(1, 3), Fraction(0)],
        ]
        text = serialize_distance_matrix(rows)
        assert text == "distmatrix v1\npoints: 2\n0 1/3\n1/3 0\n"
        assert parse_distance_matrix(text) == rows

    def test_bad_rational(self):
        d = diag(lambda: parse_distance_matrix("distmatrix v1\npoints: 1\nx\n"))
        assert (d.code, d.line, d.column) == ("bad-rational", 3, 1)

    def test_zero_denominator(self):
        text = "distmatrix v1\npoints: 2\n0 1/0\n1/0 0\n"
        d = diag(lambda: parse_distance_matrix(text))
        assert d.code == "bad-rational"

    def test_short_row(self):
        text = "distmatrix v1\npoints: 3\n0 1 2\n1 0\n2 1 0\n"
        d = diag(lambda: parse_distance_matrix(text))
        assert (d.code, d.line, d.column) == ("bad-dimension", 4, 1)
        assert d.message == "row 1 has 2 entries, expected 3"

    def test_nonzero_diagonal(self):
        text = "distmatrix v1\npoints: 2\n1 2\n2 0\n"
        d = diag(lambda: parse_distance_matrix(text))
        assert (d.code, d.line, d.column) == ("bad-diagonal", 3, 1)

    def test_asymmetric(self):
        text = "distmatrix v1\npoints: 2\n0 2\n3 0\n"
        d = diag(lambda: parse_distance_matrix(text))
        assert d.code == "asymmetric"
        assert (d.line, d.column) == (4, 1)
        assert "(0, 1) is 2" in d.message

    def test_nonpositive_off_diagonal(self):
        text = "distmatrix v1\npoints: 2\n0 -1\n-1 0\n"
        d = diag(lambda: parse_distance_matrix(text))
        assert (d.code, d.line, d.column) == ("out-of-range", 3, 3)

    @pytest.mark.parametrize(
        "body, want",
        [
            # an asymmetric pair in row 0 before the diagonal of row 1
            ("0 1 2\n1 5 1\n3 1 0\n", ("asymmetric", 5, 1, "entry (0, 2) is 2 but (2, 0) is 3")),
            # the diagonal of row 1 before its nonpositive cell
            ("0 1 1\n1 5 -1\n1 -1 0\n", ("bad-diagonal", 4, 3, "diagonal entry (1, 1) must be zero")),
            # within one pair, asymmetry before the sign
            ("0 -1 1\n-2 0 1\n1 1 0\n", ("asymmetric", 4, 1, "entry (0, 1) is -1 but (1, 0) is -2")),
            # a zero pair in row 0 before the diagonal of row 2
            ("0 1 0\n1 0 1\n0 1 4\n",
             ("out-of-range", 3, 5, "off-diagonal entry (0, 2) must be positive")),
            # every cell is read before any pair is checked
            ("0 2 1\n3 0 1\n1 x 0\n", ("bad-rational", 5, 3, "cannot read rational 'x'")),
        ],
        ids=["asymmetry-then-diagonal", "diagonal-then-sign", "asymmetry-then-sign",
             "sign-then-diagonal", "token-then-asymmetry"],
    )
    def test_first_of_two_faults(self, body, want):
        d = diag(lambda: parse_distance_matrix("distmatrix v1\npoints: 3\n" + body))
        assert (d.code, d.line, d.column, d.message) == want

    @given(st.data())
    @settings(max_examples=150)
    def test_column_is_the_token_offset(self, data):
        draw = data.draw
        n = draw(st.integers(1, 5))
        cells = [["0"] * n for _ in range(n)]
        for x in range(n):
            for y in range(x + 1, n):
                cells[x][y] = cells[y][x] = draw(st.sampled_from(["1", "1/3", "0.5", "7"]))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        kinds = ["bad-rational"]
        kinds += ["bad-diagonal"] if i == j else ["asymmetric", "out-of-range"]
        kind = draw(st.sampled_from(kinds))
        a, b = min(i, j), max(i, j)
        if kind == "bad-rational":
            cells[i][j] = "x"
            at = (i, j)
        elif kind == "bad-diagonal":
            cells[i][i] = "1"
            at = (i, i)
        elif kind == "asymmetric":
            cells[i][j] = "5/2"
            at = (b, a)
        else:
            cells[i][j] = cells[j][i] = "0"
            at = (a, b)
        rows = [spaced_row(draw, row) for row in cells]
        text = f"distmatrix v1\npoints: {n}\n" + "".join(line + "\n" for line, _ in rows)
        d = diag(lambda: parse_distance_matrix(text))
        r, c = at
        assert (d.code, d.line, d.column) == (kind, 3 + r, rows[r][1][c] + 1)


@st.composite
def keyword_lines_with_one_bad_token(draw):
    """A file whose keyword line has random spacing after the colon and one
    bad token.

    Yields the parser, the text and the (code, line, column) it must report.
    """
    kind = draw(st.sampled_from(["points", "window", "map", "seed", "trial"]))
    if kind == "points":
        parse, header = draw(
            st.sampled_from(
                [
                    (parse_system, "gradedsystem v1"),
                    (parse_selfmap, "selfmap v1"),
                    (parse_distance_matrix, "distmatrix v1"),
                ]
            )
        )
        code, bad = draw(
            st.sampled_from([("bad-int", "x"), ("bad-count", "0"), ("bad-count", "-3")])
        )
        tokens, at, head, lineno = [bad], 0, [header], 2
    elif kind == "window":
        parse, head, lineno = parse_system, ["gradedsystem v1", "points: 2"], 3
        tokens, at, code = ["0", "1"], draw(st.integers(0, 1)), "bad-int"
        tokens[at] = "x"
    elif kind == "map":
        n = draw(st.integers(1, 5))
        parse, head, lineno = parse_selfmap, ["selfmap v1", f"points: {n}"], 3
        tokens = [str(draw(st.integers(0, n - 1))) for _ in range(n)]
        at = draw(st.integers(0, n - 1))
        code, tokens[at] = draw(
            st.sampled_from([("bad-int", "x"), ("out-of-range", str(n)), ("out-of-range", "-1")])
        )
    else:
        parse, code, tokens, at = parse_bundle, "bad-int", ["x"], 0
        head = ["counterexample v1", "claim: c"] + (["seed: 1"] if kind == "trial" else [])
        lineno = len(head) + 1
    row, offsets = spaced_row(draw, tokens)
    prefix = kind + ":"
    text = "\n".join(head + [prefix + row]) + "\n"
    return parse, text, (code, lineno, len(prefix) + offsets[at] + 1)


class TestKeywordLineColumns:
    @given(keyword_lines_with_one_bad_token())
    @settings(max_examples=150)
    def test_column_is_the_token_offset(self, case):
        parse, text, expected = case
        d = diag(lambda: parse(text))
        assert (d.code, d.line, d.column) == expected

    @pytest.mark.parametrize(
        "parse, text, expected",
        [
            (parse_system, "gradedsystem v1\npoints:   x\n", ("bad-int", 2, 11)),
            (parse_selfmap, "selfmap v1\npoints: x\n", ("bad-int", 2, 9)),
            (parse_distance_matrix, "distmatrix v1\npoints: 0\n", ("bad-count", 2, 9)),
            (parse_system, "gradedsystem v1\npoints: 2\nwindow: 0 x\n", ("bad-int", 3, 11)),
            (parse_selfmap, "selfmap v1\npoints: 2\nmap: 1 x\n", ("bad-int", 3, 8)),
            (parse_selfmap, "selfmap v1\npoints: 2\nmap: 0 5\n", ("out-of-range", 3, 8)),
            (parse_bundle, "counterexample v1\nclaim: c\nseed:\tx\n", ("bad-int", 3, 7)),
        ],
    )
    def test_examples(self, parse, text, expected):
        d = diag(lambda: parse(text))
        assert (d.code, d.line, d.column) == expected

    @pytest.mark.parametrize(
        "parse, text, code",
        [
            (parse_system, "gradedsystem v1\npoints: 2\nwindow:  4\n", "bad-window"),
            (parse_system, "gradedsystem v1\npoints: 2\nwindow:  4  3\n", "bad-window"),
            (parse_selfmap, "selfmap v1\npoints: 2\nmap:  1\n", "bad-dimension"),
        ],
    )
    def test_line_shape_errors_keep_column_one(self, parse, text, code):
        d = diag(lambda: parse(text))
        assert (d.code, d.column) == (code, 1)


SYSTEM_TAIL = "window: 3 4\ngrades:\n- 3\n3 -\n"

# (parse, text with {} for the token, line, column) for each kind of line
# that holds an integer
INT_LINES = [
    (parse_system, "gradedsystem v1\npoints: {}\n", 2, 9),
    (parse_selfmap, "selfmap v1\npoints: {}\n", 2, 9),
    (parse_distance_matrix, "distmatrix v1\npoints: {}\n", 2, 9),
    (parse_system, "gradedsystem v1\npoints: 2\nwindow: {} 40\ngrades:\n", 3, 9),
    (parse_system, "gradedsystem v1\npoints: 2\nwindow: 3  {}\ngrades:\n", 3, 12),
    (parse_system, "gradedsystem v1\npoints: 2\nwindow: 3 4\ngrades:\n- {}\n3 -\n", 5, 3),
    (parse_system, "gradedsystem v1\npoints: 2\nwindow: 3 4\ngrades:\n- 3\n{} -\n", 6, 1),
    (parse_selfmap, "selfmap v1\npoints: 2\nmap: 0 {}\n", 3, 8),
    (parse_bundle, "counterexample v1\nclaim: c\nseed: {}\n", 3, 7),
    (parse_bundle, "counterexample v1\nclaim: c\nseed: 1\ntrial:  {}\n", 4, 9),
    (
        parse_bundle,
        "counterexample v1\nclaim: c\nseed: 1\ntrial: 0\nlocus: x\n"
        "gradedsystem v1\npoints: 2\nwindow: 3 4\ngrades:\n- {}\n3 -\n",
        10,
        3,
    ),
]


class TestIntegerTokens:
    """int() also reads '+3', '3_0' and non-ASCII digits; the formats do not."""

    @pytest.mark.parametrize("token", ["+3", "3_0", "+0", "\u0663", "\uff13", "1\u0660"])
    @pytest.mark.parametrize("parse, template, line, column", INT_LINES)
    def test_rejected_where_int_would_read_them(self, parse, template, line, column, token):
        assert int(token, 10) >= 0  # each form is one int() accepts
        d = diag(lambda: parse(template.format(token)))
        assert (d.code, d.line, d.column) == ("bad-int", line, column)
        assert d.message.endswith(
            f"must be written as ASCII digits after an optional '-', got {token!r}"
        )

    @pytest.mark.parametrize("parse, template, line, column", INT_LINES)
    def test_other_bad_tokens_keep_their_message(self, parse, template, line, column):
        d = diag(lambda: parse(template.format("3x")))
        assert (d.code, d.line, d.column) == ("bad-int", line, column)
        assert d.message.endswith("must be an integer, got '3x'")

    def test_leading_zeros_and_minus_zero_stay_accepted(self):
        text = "gradedsystem v1\npoints: 02\nwindow: -0 04\ngrades:\n- 03\n3 -\n"
        sys = parse_system(text)
        assert sys.window.lo == 0 and sys.window.hi == 4
        assert sys.grades.entries == ((TOP, 3), (3, TOP))
        assert parse_selfmap("selfmap v1\npoints: 2\nmap: 00 -0\n").image == (0, 0)
        bundle = "counterexample v1\nclaim: c\nseed: 007\ntrial: -0\nlocus: x\n"
        assert parse_bundle(bundle + TWINS_TEXT).seed == 7

    @pytest.mark.parametrize("labels", ["a+b c_d", "\u00e9 \u0663", "+1 _"])
    def test_labels_may_hold_what_integers_may_not(self, labels):
        # such labels switch on the per-token test, which then passes
        text = f"gradedsystem v1\npoints: 2\nlabels: {labels}\n" + SYSTEM_TAIL
        sys = parse_system(text)
        assert sys.labels == tuple(labels.split())
        assert sys.grades.entries == ((TOP, 3), (3, TOP))
        assert serialize_system(sys) == text


class TestRationalTokens:
    """int() and Fraction() also read '+1/2', '1_0' and non-ASCII digits in
    every token shape; the distance-matrix format does not."""

    @pytest.mark.parametrize(
        "token",
        [
            # p/q
            "+1/2", "1/+2", "1_0/3", "1/1_0", "٣/4", "1/٤", "１/2",
            # integer
            "+3", "+0", "1_0", "٣", "３", "1٠",
            # decimal
            "+1.5", "+.5", "1_0.5", "1.5_0", "٣.5", "1.٥", "1e٣", "1.5e1_0", "+1e3",
        ],
    )
    @pytest.mark.parametrize("row, column", [(0, 3), (1, 1)])
    def test_rejected_where_int_or_fraction_would_read_them(self, token, row, column):
        cells = [["0", "1"], ["1", "0"]]
        cells[row][1 - row] = token
        text = "distmatrix v1\npoints: 2\n" + "".join(" ".join(r) + "\n" for r in cells)
        d = diag(lambda: parse_distance_matrix(text))
        assert (d.code, d.line, d.column) == ("bad-rational", 3 + row, column)
        assert d.message.endswith(
            f"must be written in ASCII digits with no '+' sign or '_', got {token!r}"
        )

    @pytest.mark.parametrize(
        "token, value",
        [
            ("3/6", Fraction(1, 2)), ("-1/-2", Fraction(1, 2)), ("007", Fraction(7)),
            ("1.5", Fraction(3, 2)), (".5", Fraction(1, 2)), ("5.", Fraction(5)),
            ("1e3", Fraction(1000)), ("1.5e+3", Fraction(1500)), ("25E-2", Fraction(1, 4)),
        ],
    )
    def test_plain_forms_stay_accepted(self, token, value):
        text = f"distmatrix v1\npoints: 2\n0 {token}\n{token} 0\n"
        rows = parse_distance_matrix(text)
        assert rows == [[0, value], [value, 0]]
        assert parse_distance_matrix(serialize_distance_matrix(rows)) == rows
        # a trailing non-ASCII line switches on the per-token test, which
        # the rows pass before the line is read
        d = diag(lambda: parse_distance_matrix(text + "\u00e9\n"))
        assert (d.code, d.line) == ("trailing-input", 5)

    @pytest.mark.parametrize("token", ["1_0.5", "1.5_0", "1.5e1_0", "+1/2", "٣"])
    def test_message_does_not_depend_on_what_fraction_reads(self, token, monkeypatch):
        # Fraction() reads '_' only from Python 3.11 on; a token is refused
        # with the same words where Fraction() reads nothing
        def unreadable(*args):
            raise ValueError("unreadable")

        monkeypatch.setattr(formats, "Fraction", unreadable)
        text = f"distmatrix v1\npoints: 1\n{token}\n"
        d = diag(lambda: parse_distance_matrix(text))
        assert (d.code, d.line, d.column) == ("bad-rational", 3, 1)
        assert d.message.endswith(f"with no '+' sign or '_', got {token!r}")

    def test_other_bad_tokens_keep_their_message(self):
        for token in ["x", "1/0", "1.5.5", "1/2/3", "٣x"]:
            text = f"distmatrix v1\npoints: 1\n{token}\n"
            d = diag(lambda: parse_distance_matrix(text))
            assert (d.code, d.line) == ("bad-rational", 3)
            assert d.message.startswith("cannot read rational")


class TestBundle:
    def test_round_trip_with_map(self, twins, swap):
        bundle = CounterexampleBundle(
            claim_id="thm-ks-dichotomy",
            seed=42,
            trial_index=7,
            locus="NEITHER at point 0, level 3",
            system=twins,
            selfmap=swap,
        )
        text = serialize_bundle(bundle)
        assert text.startswith(
            "counterexample v1\n"
            "claim: thm-ks-dichotomy\n"
            "seed: 42\n"
            "trial: 7\n"
            "locus: NEITHER at point 0, level 3\n"
        )
        assert parse_bundle(text) == bundle
        assert serialize_bundle(parse_bundle(text)) == text

    def test_round_trip_without_map(self, triple):
        bundle = CounterexampleBundle(
            claim_id="prop-r10-metric",
            seed=0,
            trial_index=0,
            locus="triangle fails",
            system=triple,
            selfmap=None,
        )
        back = parse_bundle(serialize_bundle(bundle))
        assert back == bundle
        assert back.selfmap is None

    def test_locus_newlines_normalized(self, twins):
        bundle = CounterexampleBundle("c", 1, 2, "two\nlines", twins, None)
        back = parse_bundle(serialize_bundle(bundle))
        assert back.locus == "two lines"

    def test_trailing_input(self, twins, swap):
        bundle = CounterexampleBundle("c", 1, 2, "x", twins, swap)
        d = diag(lambda: parse_bundle(serialize_bundle(bundle) + "junk\n"))
        assert d.code == "trailing-input"
        # without a selfmap the junk is read as one and fails its header
        bare = CounterexampleBundle("c", 1, 2, "x", twins, None)
        d = diag(lambda: parse_bundle(serialize_bundle(bare) + "junk\n"))
        assert d.code == "bad-header"

    def test_truncated_bundle(self):
        d = diag(lambda: parse_bundle("counterexample v1\nclaim: c\n"))
        assert d.code == "truncated"
