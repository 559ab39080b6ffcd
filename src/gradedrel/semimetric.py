"""The dyadic distance induced by grades, and its classification.

Each pair's distance is 2**-grade (zero on the diagonal).  classify and
minimal_inframetric_constant are grade-side code: they read the system's
level table (RelationalSystem.level_table) and settle each pair from the
highest level at which its two rows still meet, in mask arithmetic, with
no table over pairs of levels; one walk, _raised_pairs, finds that level
for both.  The exact dyadic and rational routes stay separate from the
table so the two views can be played against each other:
reconstruct_level and metric_ball_collapse compare distances directly,
the latter against the library's own ball, a level-table row.  The tests
hold classify and minimal_inframetric_constant against dyadic triple
scans kept with the other oracles in tests/oracles.py.  The falsifier
calls the batch forms, which read each distance once per trial:
_reconstruct_levels compares each pair's distance with the levels'
thresholds, largest first, up to the first it exceeds, and _metric_balls
reads each radius and its graded level once and each center's distances
once.

delta, the entry point of every distance oracle, tests both indexes with
one range check and returns the shared zero or a shared power of two from
the dyadic kernel, so an oracle's loop allocates nothing and re-validates
nothing per pair; the oracles get their speed from that kernel alone and
keep their own loops and exact comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence, Union

from .dyadic import _ZERO, DyadicValue, _pow2, floor_log2
from .errors import StructuralInputError
from .pointset import PointSet
from .relations import (
    AxiomReport,
    Grade,
    GradeMatrix,
    Relation,
    RelationalSystem,
    TOP,
    Window,
    check_axiom,
    default_labels,
)

Rational = Union[Fraction, int, str]


def _check_index(sys: RelationalSystem, x: int) -> None:
    if not 0 <= x < sys.n:
        raise IndexError(f"point {x} out of range for {sys.n} points")


def mu(sys: RelationalSystem, x: int, y: int) -> Grade:
    """Grade of a pair: the largest level whose relation contains it."""
    _check_index(sys, x)
    _check_index(sys, y)
    return sys.grades.entries[x][y]


def delta(sys: RelationalSystem, x: int, y: int) -> DyadicValue:
    """Induced distance 2**-grade; zero exactly on the diagonal.

    One range test covers both indexes; _check_index runs only to raise
    mu's IndexError for the first bad one.  The values are the shared
    zero and the shared powers of two.
    """
    grades = sys.grades
    if not (0 <= x < grades.n and 0 <= y < grades.n):
        _check_index(sys, x)
        _check_index(sys, y)
    g = grades.entries[x][y]
    if g is TOP:
        return _ZERO
    return _pow2(-g)


def reconstruct_level(sys: RelationalSystem, n: int) -> Relation:
    """Pairs at distance <= 2**-n, decided purely by dyadic comparison.

    Must coincide with expand_level at every level; the two routes share no
    comparison code.
    """
    return Relation(sys.n, _reconstruct_levels(sys, (n,))[0])


def _reconstruct_levels(sys: RelationalSystem, levels: Sequence[int]) -> list[tuple[int, ...]]:
    """reconstruct_level's row masks at each of the given levels, as the
    tuples RelationalSystem.level_rows gives, reading each pair's distance
    once and comparing it with the levels' thresholds, largest first, up
    to the first it exceeds: it exceeds every smaller one too.

    The distance is symmetric, so the pair {x, y} sets bit y of row x and
    bit x of row y at every level whose threshold it is within.
    """
    rows = [[0] * sys.n for _ in levels]
    # each level's threshold with its rows, lowest level (largest threshold) first
    checks = [
        (DyadicValue.pow2(-n), level_rows)
        for n, level_rows in sorted(zip(levels, rows), key=itemgetter(0))
    ]
    for x in range(sys.n):
        for y in range(x, sys.n):
            d = delta(sys, x, y)
            for threshold, level_rows in checks:
                if d > threshold:
                    break
                level_rows[x] |= 1 << y
                level_rows[y] |= 1 << x
    return [tuple(r) for r in rows]


def _as_exact_rational(value: Rational, what: str) -> Fraction:
    if isinstance(value, float):
        raise StructuralInputError(
            f"{what} must be an exact rational, not a float"
        )
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise StructuralInputError(f"cannot read {what}: {value!r}") from exc


def metric_ball_collapse(sys: RelationalSystem, x: int, r: Rational) -> PointSet:
    """Closed metric ball of radius r, shown to be a graded ball.

    The set {y : delta(x, y) <= r} is computed directly from distances,
    and compared with ball(sys, x, g) for the largest radius 2**-g not
    exceeding r (g clamped to [window.below, window.above]).  The routes
    must agree; their common value is returned.  Like ball(), this reads
    the level table, so a window past LEVEL_TABLE_CAP raises
    ResourceLimitError.
    """
    _check_index(sys, x)
    return PointSet(sys.n, _metric_balls(sys, (x,), (r,))[0][0])


def _metric_balls(
    sys: RelationalSystem, centers: Iterable[int], radii: Sequence[Rational]
) -> list[list[int]]:
    """metric_ball_collapse's two routes for every center and radius, as
    masks: row i holds the balls at the i-th center, one per radius in the
    given order.

    Each radius is read as an exact rational, and its graded level found
    once: 2**-g <= r exactly when g >= -floor_log2(r).  The graded ball is
    that level's level-table row at the center, the mask ball() serves.
    Each center's n distances are read once, and every (distance, radius)
    pair is compared exactly.
    """
    below, above = sys.window.below, sys.window.above
    # per radius: p / q, and the table index of its graded level
    read = []
    for r in radii:
        radius = _as_exact_rational(r, "radius")
        if radius <= 0:
            raise StructuralInputError(f"radius must be positive, got {radius}")
        level = min(max(-floor_log2(radius), below), above)
        read.append((radius, radius.numerator, radius.denominator, level - below))

    table = sys.level_table()
    out = []
    for x in centers:
        distances = [delta(sys, x, y) for y in range(sys.n)]
        row = []
        for radius, p, q, i in read:
            direct = 0
            for y, d in enumerate(distances):
                if _within(d, p, q):
                    direct |= 1 << y
            if direct != table[i][x]:  # pragma: no cover - would expose an arithmetic bug
                raise RuntimeError(
                    f"metric ball at ({x}, {radius}) disagrees with graded ball"
                    f" at level {i + below}"
                )
            row.append(direct)
        out.append(row)
    return out


def _within(d: DyadicValue, p: int, q: int) -> bool:
    # d = m / 2**e is at most p / q exactly when m * q <= p * 2**e, a
    # comparison of integers, so no Fraction is compared
    m, e = d.numerator, d.exponent
    return m * q <= p << e if e >= 0 else (m << -e) * q <= p


def minimal_inframetric_constant(sys: RelationalSystem) -> DyadicValue:
    """Smallest power-of-two C with d(x,y) <= C * max(d(x,z), d(z,y)) everywhere.

    The exponent is the largest gap k - i over the pairs whose rows still
    meet above their own grade (see _raised_pairs).
    """
    if sys.n < 2:
        raise StructuralInputError(
            "inframetric constant undefined on fewer than 2 points"
        )
    return DyadicValue.pow2(max((k - i for _, _, i, k in _raised_pairs(sys)), default=0))


@dataclass(frozen=True)
class TripleWitness:
    """A triple x, z, y with the three distances it pins down."""

    x: int
    z: int
    y: int
    d_xy: DyadicValue
    d_xz: DyadicValue
    d_zy: DyadicValue


@dataclass(frozen=True)
class ClassificationReport:
    is_semimetric: bool
    semimetric_witness: Optional[tuple]
    minimal_inframetric_c: DyadicValue
    triangle_holds: bool
    triangle_witness: Optional[TripleWitness]
    strong_triangle_holds: bool
    strong_triangle_witness: Optional[TripleWitness]
    class_label: str
    r9: AxiomReport
    r10: AxiomReport
    transitive: AxiomReport


def _raised_pairs(sys: RelationalSystem) -> Iterator[tuple[int, int, int, int]]:
    """(x, y, i, k) for each pair x < y whose level-table rows still meet
    above the pair's own grade: i is the table index of its grade g, and
    k > i the largest index at which the rows at x and y still meet.

    max over z of min(grade(x, z), grade(z, y)) is the level at index k:
    z = x already reaches g, and rows are nested, so the scan up from i
    stops at the first miss.
    """
    table = sys.level_table()
    top = len(table) - 1
    below = sys.window.below
    for x, row in enumerate(sys.grades.entries):
        for y in range(x + 1, sys.n):
            i = k = row[y] - below
            while k < top and table[k + 1][x] & table[k + 1][y]:
                k += 1
            if k > i:
                yield x, y, i, k


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def classify(sys: RelationalSystem) -> ClassificationReport:
    """Exhaustive exact classification of the induced distance, in level
    rows.

    For a pair x < y at grade g, with k its meeting level
    (_raised_pairs), the strong-triangle deficit is k - g and its first
    witness z the lowest point in both level-k rows.  The same k settles
    the triangle 2**-g <= 2**-a + 2**-b, with a and b the grades of z
    against x and y: the smallest sum has min(a, b) = k, since any z with
    a smaller minimum already gives 2**-(k - 1).  Among those z the best
    has the largest max(a, b), found by scanning up from k while some
    point at grade exactly k from one end still reaches the next level
    from the other.  A pair with k = g cannot break the triangle, so
    _raised_pairs skips it.  Witnesses are the first worst triple in
    (x, y, z) order, as in the dyadic triple scan that the tests hold
    this against.  GradeMatrix already guarantees separation and
    symmetry.  Relation-level composition and transitivity checks ride
    along for cross-reference.
    """
    table = sys.level_table()
    top = len(table) - 1

    # worst (value, x, z, y) so far; the first triple x=0, y=1, z=0 scores 0
    worst_strong: Optional[tuple] = (0, 0, 0, 1) if sys.n >= 2 else None
    worst_tri: Optional[tuple] = (0, 0, 0, 1) if sys.n >= 2 else None
    for x, y, i, k in _raised_pairs(sys):
        if k - i > worst_strong[0]:
            z = _lowest(table[k][x] & table[k][y])
            worst_strong = (k - i, x, z, y)
        # points at grade exactly k from x, and from y
        ex = table[k][x] & ~table[k + 1][x]
        ey = table[k][y] & ~table[k + 1][y]
        j = k
        while (ex & table[j + 1][y]) | (table[j + 1][x] & ey):
            j += 1
        # 2**-g - 2**-k - 2**-j, scaled by 2**top
        excess = (1 << (top - i)) - (1 << (top - k)) - (1 << (top - j))
        if excess > worst_tri[0]:
            z = _lowest((ex & table[j][y]) | (table[j][x] & ey))
            worst_tri = (excess, x, z, y)

    if worst_strong is None:
        c = DyadicValue.one()
        strong_holds = True
        strong_witness = None
    else:
        c = DyadicValue.pow2(worst_strong[0])
        strong_holds = worst_strong[0] == 0
        strong_witness = _triple(sys, *worst_strong[1:])

    triangle_holds = worst_tri is None or worst_tri[0] == 0
    tri_witness = None if worst_tri is None else _triple(sys, *worst_tri[1:])

    if strong_holds:
        label = "ultrametric"
    elif triangle_holds:
        label = "metric"
    else:
        label = "C-inframetric"

    return ClassificationReport(
        is_semimetric=True,
        semimetric_witness=None,
        minimal_inframetric_c=c,
        triangle_holds=triangle_holds,
        triangle_witness=tri_witness,
        strong_triangle_holds=strong_holds,
        strong_triangle_witness=strong_witness,
        class_label=label,
        r9=check_axiom(sys, "r9"),
        r10=check_axiom(sys, "r10"),
        transitive=check_axiom(sys, "transitive"),
    )


def _triple(sys: RelationalSystem, x: int, z: int, y: int) -> TripleWitness:
    return TripleWitness(
        x, z, y, delta(sys, x, y), delta(sys, x, z), delta(sys, z, y)
    )


def ingest_distance_matrix(
    d: Sequence[Sequence[Rational]],
    window: tuple[int, int],
    labels: Optional[Sequence[str]] = None,
) -> RelationalSystem:
    """Grade a symmetric positive distance matrix into a window.

    Each off-diagonal distance gets the largest level n in [lo - 1, hi] with
    d <= 2**-n: values at or below 2**-hi clamp to hi, values above 2**-lo
    fall to lo - 1.  Every cell is read before any pair is checked.
    """
    win = Window(*window)
    n = len(d)
    rows = [
        [_as_exact_rational(v, f"distance ({i}, {j})") for j, v in enumerate(row)]
        for i, row in enumerate(d)
    ]
    for i, row in enumerate(rows):
        if len(row) != n:
            raise StructuralInputError(f"distance row {i} has length {len(row)}, not {n}")
    # each pair once, from row i's diagonal across the upper triangle: a
    # lower-triangle cell can fail only where its mirror already has
    entries: list[list[Grade]] = [[TOP] * n for _ in range(n)]
    for i, row in enumerate(rows):
        if row[i] != 0:
            raise StructuralInputError(f"diagonal entry ({i}, {i}) must be zero")
        for j in range(i + 1, n):
            if row[j] != rows[j][i]:
                raise StructuralInputError(
                    f"asymmetric distances at ({i}, {j}) and ({j}, {i})"
                )
            if row[j] <= 0:
                raise StructuralInputError(
                    f"off-diagonal distance at ({i}, {j}) must be positive"
                )
            # d <= 2**-g  iff  g <= floor_log2(1 / d)
            g = max(win.below, min(win.hi, floor_log2(1 / row[j])))
            entries[i][j] = entries[j][i] = g

    lbls = tuple(labels) if labels is not None else default_labels(n)
    return RelationalSystem(lbls, win, GradeMatrix.from_rows(entries))
