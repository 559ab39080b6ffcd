"""Line-oriented text formats for systems, maps, distance matrices, and
counterexample bundles.

Canonical form: single spaces between tokens, labels line always present,
trailing newline.  parse(serialize(x)) == x and serialize(parse(text)) ==
text for canonical text, byte for byte.

Parsers read each line as str.split() tokens and track no columns.  When a
parse fails, `_column` finds the failing token's column on its line, so
every diagnostic still names an exact line and column.

An integer token is an optional '-' and ASCII digits (_PLAIN_INT);
leading zeros and -0 are accepted.  The rationals of a distance matrix
follow the same rule through _PLAIN_RATIONAL, which allows '+' only in a
decimal's exponent.  Each token is matched against its regex before it
is converted, since int() and Fraction() also take '+', '_' and
non-ASCII digits.

A line that is ASCII and holds no '+' or '_' is plain (_plain): on it
int() reads exactly the _PLAIN_INT tokens.  So a plain grade row is read
whole when it is valid: n tokens, '-' at its own index and every other
token an int() inside the window.  One map(int, ...) and a min/max range
test read it.  Any other row takes the cell loop, which words its first
failure, and the symmetry walk runs only when the matrix differs from
its transpose, so every diagnostic is the one the cell walks give.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NoReturn, Optional

from .errors import GradedRelError
from .pointset import SelfMap
from .relations import (
    Grade,
    GradeMatrix,
    RelationalSystem,
    TOP,
    Window,
    default_labels,
    grade_str,
)

SYSTEM_HEADER = "gradedsystem v1"
MAP_HEADER = "selfmap v1"
MATRIX_HEADER = "distmatrix v1"
BUNDLE_HEADER = "counterexample v1"


@dataclass(frozen=True)
class Diagnostic:
    code: str
    line: int  # 1-based
    column: int  # 1-based
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.code}: {self.message}"


class FormatError(GradedRelError, ValueError):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


def _fail(code: str, line: int, column: int, message: str) -> NoReturn:
    raise FormatError(Diagnostic(code, line, column, message))


class _Lines:
    def __init__(self, text: str):
        self.raw = text.split("\n")
        # a trailing newline produces one final empty chunk, not a line
        if self.raw and self.raw[-1] == "":
            self.raw.pop()
        self.pos = 0

    @property
    def lineno(self) -> int:
        return self.pos + 1

    def done(self) -> bool:
        return self.pos >= len(self.raw)

    def peek(self) -> Optional[str]:
        return None if self.done() else self.raw[self.pos]

    def take(self, what: str) -> str:
        if self.done():
            _fail("truncated", len(self.raw) + 1, 1, f"expected {what}, got end of input")
        line = self.raw[self.pos]
        self.pos += 1
        return line

    def finish(self) -> None:
        """Fail on the first line left unread."""
        if not self.done():
            _fail("trailing-input", self.lineno, 1, f"unexpected line {self.peek()!r}")

    def fail_at(self, code: str, lineno: int, index: int, message: str, start: int = 0) -> NoReturn:
        """Fail at token `index` of line `lineno`, located by `_column`."""
        _fail(code, lineno, _column(self.raw[lineno - 1], index, start), message)


_TOKEN = re.compile(r"\S+")


def _column(line: str, index: int, start: int = 0) -> int:
    """1-based column in line of token `index` of line[start:].split(), or
    start + 1 if there is none.  `\\S+` and split share str.isspace()."""
    for k, m in enumerate(_TOKEN.finditer(line, start)):
        if k == index:
            return m.start() + 1
    return start + 1


def _expect_header(lines: _Lines, header: str) -> None:
    line = lines.take(f"header {header!r}")
    if line != header:
        _fail("bad-header", lines.lineno - 1, 1, f"expected {header!r}, got {line!r}")


def _keyword_line(lines: _Lines, keyword: str) -> tuple[str, int]:
    """Consume `keyword: rest`, returning (rest stripped, line number)."""
    line = lines.take(f"{keyword!r} line")
    lineno = lines.lineno - 1
    prefix = keyword + ":"
    if not line.startswith(prefix):
        _fail("missing-section", lineno, 1, f"expected {prefix!r}, got {line!r}")
    return line[len(prefix) :].strip(), lineno


def _keyword_int(lines: _Lines, keyword: str, what: str) -> int:
    """Consume `keyword: <int>`; a bad value is located at its first token,
    or just after the colon when there is none."""
    rest, lineno = _keyword_line(lines, keyword)
    return _parse_int(lines, rest, what, lineno, 0, len(keyword) + 1)


def _point_count(lines: _Lines) -> int:
    n = _keyword_int(lines, "points", "point count")
    if n < 1:
        message = f"point count must be positive, got {n}"
        lines.fail_at("bad-count", lines.lineno - 1, 0, message, len("points:"))
    return n


_PLAIN_INT = re.compile(r"-?[0-9]+")


def _plain(line: str) -> bool:
    """Whether int() alone may read the line's integer tokens: int() takes
    '+', '_' and non-ASCII digits, which the format does not allow."""
    return line.isascii() and "+" not in line and "_" not in line


def _parse_int(lines: _Lines, tok: str, what: str, lineno: int, index: int, start: int = 0) -> int:
    """int(tok) of a plain integer token; else fail at token `index` of
    line `lineno`."""
    if not _PLAIN_INT.fullmatch(tok):
        _bad_int(lines, tok, what, lineno, index, start)
    return int(tok)


def _bad_int(
    lines: _Lines, tok: str, what: str, lineno: int, index: int, start: int = 0
) -> NoReturn:
    try:
        int(tok, 10)
        message = f"{what} must be written as ASCII digits after an optional '-', got {tok!r}"
    except ValueError:
        message = f"{what} must be an integer, got {tok!r}"
    lines.fail_at("bad-int", lineno, index, message, start)


def parse_system(text: str) -> RelationalSystem:
    lines = _Lines(text)
    sys = _parse_system_at(lines)
    lines.finish()
    return sys


def _parse_system_at(lines: _Lines) -> RelationalSystem:
    _expect_header(lines, SYSTEM_HEADER)
    n = _point_count(lines)

    peeked = lines.peek()
    if peeked is not None and peeked.startswith("labels:"):
        rest, lineno = _keyword_line(lines, "labels")
        labels = tuple(rest.split())
        if len(labels) != n:
            _fail("bad-labels", lineno, 1, f"expected {n} labels, got {len(labels)}")
        if len(set(labels)) != n:
            repeat = next(i for i, label in enumerate(labels) if label in labels[:i])
            lines.fail_at("invalid-system", lineno, repeat, "labels must be distinct", len("labels:"))
    else:
        labels = default_labels(n)

    rest, lineno = _keyword_line(lines, "window")
    bounds = rest.split()
    if len(bounds) != 2:
        _fail("bad-window", lineno, 1, f"expected 'window: <lo> <hi>', got {rest!r}")
    lo = _parse_int(lines, bounds[0], "window lo", lineno, 0, len("window:"))
    hi = _parse_int(lines, bounds[1], "window hi", lineno, 1, len("window:"))
    if lo > hi:
        _fail("bad-window", lineno, 1, f"window lo {lo} exceeds hi {hi}")

    rest, lineno = _keyword_line(lines, "grades")
    if rest:
        _fail("bad-grades", lineno, 1, "'grades:' line takes no arguments")

    # a valid plain row is read whole; any other row takes the cell loop,
    # which words its first failure
    first, floor = lines.lineno, lo - 1
    entries: list[tuple[Grade, ...]] = []
    for i in range(n):
        line = lines.take(f"grades row {i}")
        tokens = line.split()
        rowno = first + i
        if len(tokens) != n:
            _fail("bad-dimension", rowno, 1, f"row {i} has {len(tokens)} entries, expected {n}")
        whole = _whole_row(tokens, i, floor, hi) if _plain(line) else None
        if whole is not None:
            entries.append(whole)
            continue
        row: list[Grade] = []
        for j, tok in enumerate(tokens):
            if tok == "-":
                if i != j:
                    message = f"'-' allowed only on the diagonal, found at ({i}, {j})"
                    lines.fail_at("bad-diagonal", rowno, j, message)
                row.append(TOP)
                continue
            g = _parse_int(lines, tok, f"grade ({i}, {j})", rowno, j)
            if i == j:
                lines.fail_at("bad-diagonal", rowno, j, f"diagonal entry ({i}, {i}) must be '-'")
            if not floor <= g <= hi:
                message = f"grade {g} at ({i}, {j}) outside [{floor}, {hi}]"
                lines.fail_at("out-of-range", rowno, j, message)
            row.append(g)
        entries.append(tuple(row))

    # walked only to word the first asymmetric pair
    if tuple(zip(*entries)) != tuple(entries):
        for i in range(n):
            for j in range(i + 1, n):
                if entries[i][j] != entries[j][i]:
                    lines.fail_at(
                        "asymmetric",
                        first + j,
                        i,
                        f"grade at ({j}, {i}) is {entries[j][i]} but ({i}, {j}) is {entries[i][j]}",
                    )

    # every check of the two constructors has been made above, at its line
    return RelationalSystem(labels, Window(lo, hi), GradeMatrix(n, tuple(entries)))


def _whole_row(tokens: list[str], i: int, floor: int, hi: int) -> Optional[tuple[Grade, ...]]:
    """Grade row i read whole, or None when it needs the cell loop: valid
    when '-' stands at index i and every other token is an int() in
    [floor, hi].  Only for a plain line."""
    if tokens[i] != "-":
        return None
    try:
        row: list[Grade] = list(map(int, tokens[:i] + tokens[i + 1 :]))
    except ValueError:
        return None
    if row and not (floor <= min(row) and max(row) <= hi):
        return None
    row.insert(i, TOP)
    return tuple(row)


def serialize_system(sys: RelationalSystem) -> str:
    out = [SYSTEM_HEADER, f"points: {sys.n}"]
    out.append("labels: " + " ".join(sys.labels))
    out.append(f"window: {sys.window.lo} {sys.window.hi}")
    out.append("grades:")
    for row in sys.grades.entries:
        out.append(" ".join(map(grade_str, row)))
    return "\n".join(out) + "\n"


def parse_selfmap(text: str) -> SelfMap:
    lines = _Lines(text)
    t = _parse_selfmap_at(lines)
    lines.finish()
    return t


def _parse_selfmap_at(lines: _Lines) -> SelfMap:
    _expect_header(lines, MAP_HEADER)
    n = _point_count(lines)
    rest, lineno = _keyword_line(lines, "map")
    tokens = rest.split()
    if len(tokens) != n:
        _fail("bad-dimension", lineno, 1, f"expected {n} image indices, got {len(tokens)}")
    image = []
    for j, tok in enumerate(tokens):
        v = _parse_int(lines, tok, f"image of point {j}", lineno, j, len("map:"))
        if not (0 <= v < n):
            message = f"image {v} of point {j} outside [0, {n - 1}]"
            lines.fail_at("out-of-range", lineno, j, message, len("map:"))
        image.append(v)
    return SelfMap(tuple(image))


def serialize_selfmap(t: SelfMap) -> str:
    return f"{MAP_HEADER}\npoints: {t.n}\nmap: " + " ".join(map(str, t.image)) + "\n"


# `p/q`, an integer or a decimal literal, with ASCII digits and '-' the
# only sign; only a decimal's exponent may carry '+'
_PLAIN_RATIONAL = re.compile(
    r"-?[0-9]+(?:/-?[0-9]+)?|-?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"
)
# the same shapes with any sign, any decimal digits and single '_' between
# digits: what int() and Fraction() read on some Python version, so such a
# token is told why it is refused whether or not this version reads it
_LOOSE_DIGITS = r"\d+(?:_\d+)*"
_LOOSE_RATIONAL = re.compile(
    rf"[-+]?{_LOOSE_DIGITS}(?:/[-+]?{_LOOSE_DIGITS})?"
    rf"|[-+]?(?:{_LOOSE_DIGITS}(?:\.(?:{_LOOSE_DIGITS})?)?|\.{_LOOSE_DIGITS})"
    rf"(?:[eE][-+]?{_LOOSE_DIGITS})?"
)


def _parse_rational(lines: _Lines, tok: str, lineno: int, index: int) -> Fraction:
    """Exact rational from `p/q`, an integer or a decimal literal; floats
    never appear."""
    if not _PLAIN_RATIONAL.fullmatch(tok):
        if _LOOSE_RATIONAL.fullmatch(tok):
            message = f"rational must be written in ASCII digits with no '+' sign or '_', got {tok!r}"
            lines.fail_at("bad-rational", lineno, index, message)
        lines.fail_at("bad-rational", lineno, index, f"cannot read rational {tok!r}")
    try:
        if "/" in tok:
            num, den = tok.split("/", 1)
            return Fraction(int(num, 10), int(den, 10))
        if "." in tok or "e" in tok or "E" in tok:
            return Fraction(tok)  # exact decimal reading
        return Fraction(int(tok, 10))
    except (ValueError, ZeroDivisionError):
        lines.fail_at("bad-rational", lineno, index, f"cannot read rational {tok!r}")


def parse_distance_matrix(text: str) -> list[list[Fraction]]:
    """Rows of a symmetric, zero-diagonal, positive off-diagonal matrix."""
    lines = _Lines(text)
    _expect_header(lines, MATRIX_HEADER)
    n = _point_count(lines)
    first = lines.lineno
    rows: list[list[Fraction]] = []
    for i in range(n):
        tokens = lines.take(f"matrix row {i}").split()
        if len(tokens) != n:
            _fail("bad-dimension", first + i, 1, f"row {i} has {len(tokens)} entries, expected {n}")
        rows.append([_parse_rational(lines, tok, first + i, j) for j, tok in enumerate(tokens)])
    lines.finish()

    # each pair once, from row i's diagonal across the upper triangle: a
    # lower-triangle cell can fail only where its mirror already has
    for i, row in enumerate(rows):
        if row[i] != 0:
            lines.fail_at("bad-diagonal", first + i, i, f"diagonal entry ({i}, {i}) must be zero")
        for j in range(i + 1, n):
            if row[j] != rows[j][i]:
                lines.fail_at(
                    "asymmetric",
                    first + j,
                    i,
                    f"entry ({i}, {j}) is {row[j]} but ({j}, {i}) is {rows[j][i]}",
                )
            if row[j] <= 0:
                lines.fail_at(
                    "out-of-range", first + i, j, f"off-diagonal entry ({i}, {j}) must be positive"
                )
    return rows


def serialize_distance_matrix(rows: list[list[Fraction]]) -> str:
    out = [MATRIX_HEADER, f"points: {len(rows)}"]
    for row in rows:
        out.append(" ".join(str(v) for v in row))
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class CounterexampleBundle:
    claim_id: str
    seed: int
    trial_index: int
    locus: str
    system: RelationalSystem
    selfmap: Optional[SelfMap]


def serialize_bundle(bundle: CounterexampleBundle) -> str:
    locus = " ".join(bundle.locus.split())  # keep the manifest strictly line-oriented
    out = [
        BUNDLE_HEADER,
        f"claim: {bundle.claim_id}",
        f"seed: {bundle.seed}",
        f"trial: {bundle.trial_index}",
        f"locus: {locus}",
    ]
    text = "\n".join(out) + "\n" + serialize_system(bundle.system)
    if bundle.selfmap is not None:
        text += serialize_selfmap(bundle.selfmap)
    return text


def parse_bundle(text: str) -> CounterexampleBundle:
    lines = _Lines(text)
    _expect_header(lines, BUNDLE_HEADER)
    claim, _ = _keyword_line(lines, "claim")
    seed = _keyword_int(lines, "seed", "seed")
    trial = _keyword_int(lines, "trial", "trial index")
    locus, _ = _keyword_line(lines, "locus")
    system = _parse_system_at(lines)
    selfmap = None
    if not lines.done():
        selfmap = _parse_selfmap_at(lines)
    lines.finish()
    return CounterexampleBundle(claim, seed, trial, locus, system, selfmap)
