"""Line-oriented text formats for systems, maps, distance matrices, and
counterexample bundles.

Canonical form: single spaces between tokens, labels line always present,
trailing newline.  parse(serialize(x)) == x and serialize(parse(text)) ==
text for canonical text, byte for byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .dynamics import SelfMap
from .errors import GradedRelError
from .relations import (
    Grade,
    GradeMatrix,
    RelationalSystem,
    TOP,
    Window,
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


def _fail(code: str, line: int, column: int, message: str) -> None:
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


def _expect_header(lines: _Lines, header: str) -> None:
    line = lines.take(f"header {header!r}")
    if line != header:
        _fail("bad-header", lines.lineno - 1, 1, f"expected {header!r}, got {line!r}")


def _keyword_line(
    lines: _Lines, keyword: str
) -> tuple[str, list[tuple[int, str]], int]:
    """Consume `keyword: rest`, returning (rest, its cells, line number).

    The cells are `_cells` pairs whose columns count from the start of the
    raw line, so they locate each token after the colon.
    """
    line = lines.take(f"{keyword!r} line")
    lineno = lines.lineno - 1
    prefix = keyword + ":"
    if not line.startswith(prefix):
        _fail("missing-section", lineno, 1, f"expected {prefix!r}, got {line!r}")
    return line[len(prefix) :].strip(), _cells(line, len(prefix)), lineno


def _keyword_int(lines: _Lines, keyword: str, what: str) -> tuple[int, int, int]:
    """Consume `keyword: <int>`, returning (value, line number, column)."""
    rest, cells, lineno = _keyword_line(lines, keyword)
    # an empty value is located just after the colon
    column = cells[0][0] if cells else len(keyword) + 2
    return _parse_int(rest, lineno, column, what), lineno, column


def _point_count(lines: _Lines) -> int:
    n, lineno, column = _keyword_int(lines, "points", "point count")
    if n < 1:
        _fail("bad-count", lineno, column, f"point count must be positive, got {n}")
    return n


def _parse_int(token: str, lineno: int, column: int, what: str) -> int:
    try:
        return int(token, 10)
    except ValueError:
        _fail("bad-int", lineno, column, f"{what} must be an integer, got {token!r}")
    raise AssertionError  # unreachable


_TOKEN = re.compile(r"\S+")


def _cells(line: str, start: int = 0) -> list[tuple[int, str]]:
    """(1-based column, token) for each token that line[start:].split()
    yields; columns count from the start of line."""
    return [(m.start() + 1, m.group()) for m in _TOKEN.finditer(line, start)]


def parse_system(text: str) -> RelationalSystem:
    lines = _Lines(text)
    sys = _parse_system_at(lines)
    if not lines.done():
        _fail("trailing-input", lines.lineno, 1, f"unexpected line {lines.peek()!r}")
    return sys


def _parse_system_at(lines: _Lines) -> RelationalSystem:
    _expect_header(lines, SYSTEM_HEADER)
    n = _point_count(lines)

    labels: Optional[tuple[str, ...]] = None
    peeked = lines.peek()
    if peeked is not None and peeked.startswith("labels:"):
        _, cells, lineno = _keyword_line(lines, "labels")
        if len(cells) != n:
            _fail("bad-labels", lineno, 1, f"expected {n} labels, got {len(cells)}")
        labels = tuple(tok for _, tok in cells)
    else:
        labels = tuple(str(i) for i in range(n))

    rest, cells, lineno = _keyword_line(lines, "window")
    if len(cells) != 2:
        _fail("bad-window", lineno, 1, f"expected 'window: <lo> <hi>', got {rest!r}")
    (lo_col, lo_tok), (hi_col, hi_tok) = cells
    lo = _parse_int(lo_tok, lineno, lo_col, "window lo")
    hi = _parse_int(hi_tok, lineno, hi_col, "window hi")
    if lo > hi:
        _fail("bad-window", lineno, 1, f"window lo {lo} exceeds hi {hi}")

    rest, _, lineno = _keyword_line(lines, "grades")
    if rest:
        _fail("bad-grades", lineno, 1, "'grades:' line takes no arguments")

    entries: list[list[Grade]] = []
    for i in range(n):
        cells = _cells(lines.take(f"grades row {i}"))
        rowno = lines.lineno - 1
        if len(cells) != n:
            _fail("bad-dimension", rowno, 1, f"row {i} has {len(cells)} entries, expected {n}")
        row: list[Grade] = []
        for j, (col, tok) in enumerate(cells):
            if tok == "-":
                if i != j:
                    _fail("bad-diagonal", rowno, col, f"'-' allowed only on the diagonal, found at ({i}, {j})")
                row.append(TOP)
            else:
                g = _parse_int(tok, rowno, col, f"grade ({i}, {j})")
                if i == j:
                    _fail("bad-diagonal", rowno, col, f"diagonal entry ({i}, {i}) must be '-'")
                if not (lo - 1 <= g <= hi):
                    _fail(
                        "out-of-range",
                        rowno,
                        col,
                        f"grade {g} at ({i}, {j}) outside [{lo - 1}, {hi}]",
                    )
                row.append(g)
        entries.append(row)

    first_row_line = lines.pos - n + 1
    for i in range(n):
        for j in range(i + 1, n):
            if entries[i][j] != entries[j][i]:
                _fail(
                    "asymmetric",
                    first_row_line + j,
                    _cells(lines.raw[first_row_line + j - 1])[i][0],
                    f"grade at ({j}, {i}) is {entries[j][i]} but ({i}, {j}) is {entries[i][j]}",
                )

    try:
        return RelationalSystem(
            labels, Window(lo, hi), GradeMatrix(n, tuple(tuple(r) for r in entries))
        )
    except (ValueError, TypeError) as exc:
        _fail("invalid-system", lines.lineno - 1, 1, str(exc))
    raise AssertionError  # unreachable


def serialize_system(sys: RelationalSystem) -> str:
    out = [SYSTEM_HEADER, f"points: {sys.n}"]
    out.append("labels: " + " ".join(sys.labels))
    out.append(f"window: {sys.window.lo} {sys.window.hi}")
    out.append("grades:")
    for i in range(sys.n):
        row = []
        for j in range(sys.n):
            g = sys.grades.entries[i][j]
            row.append("-" if i == j else str(g))
        out.append(" ".join(row))
    return "\n".join(out) + "\n"


def parse_selfmap(text: str) -> SelfMap:
    lines = _Lines(text)
    t = _parse_selfmap_at(lines)
    if not lines.done():
        _fail("trailing-input", lines.lineno, 1, f"unexpected line {lines.peek()!r}")
    return t


def _parse_selfmap_at(lines: _Lines) -> SelfMap:
    _expect_header(lines, MAP_HEADER)
    n = _point_count(lines)
    _, cells, lineno = _keyword_line(lines, "map")
    if len(cells) != n:
        _fail("bad-dimension", lineno, 1, f"expected {n} image indices, got {len(cells)}")
    image = []
    for j, (col, tok) in enumerate(cells):
        v = _parse_int(tok, lineno, col, f"image of point {j}")
        if not (0 <= v < n):
            _fail("out-of-range", lineno, col, f"image {v} of point {j} outside [0, {n - 1}]")
        image.append(v)
    return SelfMap(tuple(image))


def serialize_selfmap(t: SelfMap) -> str:
    return f"{MAP_HEADER}\npoints: {t.n}\nmap: " + " ".join(map(str, t.image)) + "\n"


def _parse_rational(tok: str, lineno: int, column: int) -> Fraction:
    """Exact rational from `p/q` or a decimal literal; floats never appear."""
    try:
        if "/" in tok:
            num, den = tok.split("/", 1)
            return Fraction(int(num, 10), int(den, 10))
        if "." in tok or "e" in tok or "E" in tok:
            return Fraction(tok)  # exact decimal reading
        return Fraction(int(tok, 10))
    except (ValueError, ZeroDivisionError):
        _fail("bad-rational", lineno, column, f"cannot read rational {tok!r}")
    raise AssertionError  # unreachable


def parse_distance_matrix(text: str) -> list[list[Fraction]]:
    """Rows of a symmetric, zero-diagonal, positive off-diagonal matrix."""
    lines = _Lines(text)
    _expect_header(lines, MATRIX_HEADER)
    n = _point_count(lines)
    rows: list[list[Fraction]] = []
    row_linenos: list[int] = []
    row_columns: list[list[int]] = []
    for i in range(n):
        cells = _cells(lines.take(f"matrix row {i}"))
        rowno = lines.lineno - 1
        if len(cells) != n:
            _fail("bad-dimension", rowno, 1, f"row {i} has {len(cells)} entries, expected {n}")
        rows.append([_parse_rational(tok, rowno, col) for col, tok in cells])
        row_linenos.append(rowno)
        row_columns.append([col for col, _ in cells])
    if not lines.done():
        _fail("trailing-input", lines.lineno, 1, f"unexpected line {lines.peek()!r}")

    for i in range(n):
        if rows[i][i] != 0:
            _fail(
                "bad-diagonal",
                row_linenos[i],
                row_columns[i][i],
                f"diagonal entry ({i}, {i}) must be zero",
            )
        for j in range(n):
            if i == j:
                continue
            if rows[i][j] != rows[j][i]:
                _fail(
                    "asymmetric",
                    row_linenos[max(i, j)],
                    row_columns[max(i, j)][min(i, j)],
                    f"entry ({i}, {j}) is {rows[i][j]} but ({j}, {i}) is {rows[j][i]}",
                )
            if rows[i][j] <= 0:
                _fail(
                    "out-of-range",
                    row_linenos[i],
                    row_columns[i][j],
                    f"off-diagonal entry ({i}, {j}) must be positive",
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
    claim, _, _ = _keyword_line(lines, "claim")
    seed, _, _ = _keyword_int(lines, "seed", "seed")
    trial, _, _ = _keyword_int(lines, "trial", "trial index")
    locus, _, _ = _keyword_line(lines, "locus")
    system = _parse_system_at(lines)
    selfmap = None
    if not lines.done():
        selfmap = _parse_selfmap_at(lines)
    if not lines.done():
        _fail("trailing-input", lines.lineno, 1, f"unexpected line {lines.peek()!r}")
    return CounterexampleBundle(claim, seed, trial, locus, system, selfmap)
