"""Ball hulls, admissible sets, radii, and structural checks.

Two hull operators are provided.  "paper-cov" intersects the balls centered
inside the set that contain it; "arbitrary-center" intersects every ball
containing it regardless of center.  Both are extensive and idempotent, and
the arbitrary-center hull is never larger.  Only arbitrary-center is
monotone: it is the closure operator of the intersections of balls, the
admissible sets of the paper.  paper-cov is not monotone in general (on
gen_system(0, GenParams(point_count=(3, 7))) the hull of {0, 1} is
{0, ..., 4} but the hull of {0, 1, 2} is {0, ..., 3}), and its fixed
points need not be closed under intersection.

The system's ball index (_ball_index), memoised on it, holds each distinct
ball mask of the level table once, read column by column; in a transitive
system balls are nested or disjoint, so far fewer masks than (center,
level) pairs.  Its masks are the generators of the one ball-intersection
closure both fixed-point families are computed from, and the dynamics
invariant-ball scan reads the same index.  The closure is built
incrementally: each distinct ball b adds b and its nonempty intersections
with the family so far.  A ball inside the last ball added meets only the
members inside that ball, which the last step made, so a chain of
shrinking balls pays one pass over the family for its first ball and one
over a shrinking trace for each ball after it.  The index lists each
center's balls from the floor up, which makes most of them such chains.
The cost depends on the generator order; the result does not.  The cap,
DEFAULT_SET_CAP, counts family members and is read when the closure
runs.  The closure takes generator masks, so the
metric-ball route of the falsifier closes its own balls with it too, and
the dynamics invariant-set search closes only the balls around one set
per cycle of the map.

Each system memoises one family record (_family_record), keyed by the cap
it was built under: the closure in canonical order as one member-by-point
byte matrix (_matrix), the family's one stored form, the paper-cov
filter, and per center the levels where its balls shrink and each
member's witness step count.  The balls are closed in bit-reversed form,
where the canonical order is two sorts with no Python key, and written
to the matrix from that form.  Both hulls reports label the matrix's
rows; the paper-cov normal-structure check, the hull-equivalence claim
of the falsifier and enumerate_admissible read masks back from them
(_masks), the paper-cov family filtered from it on each call.  Every
member's hulls are decided in one bit-sliced pass over the closure, in
the vertical layout of frequent-itemset miners (Zaki 2000; MAFIA,
Burdick et al. 2001): position i is the i-th member in canonical order,
and spread[y] is the int whose item i, one count item per member, is 1
when member i holds point y and 0 otherwise.  The columns are read from
the matrix, a translate per point, and kept in this one spread form, so
the witness counts below grow by one integer sum per shrink.  The items
inside a ball are those of every member less the OR of spread[y] over
the points it lacks, which depends on the ball alone.  So the walk runs
over the centers' paths of shrinking balls, from the floor up, in sorted
order: centers whose paths share a prefix come together and walk it
once, each ball's OR made from the ball it shrank from with one OR per
point that leaves.  In a transitive system the balls form one cluster
tree and every point of a cluster takes the same shrinks, so each
distinct ball and each distinct shrink is walked once.  When every
center taking a shrink has passed, the items inside it drop its leaving
points, which gives every member's fixed-point check under both hulls:
the paper-cov family is the arbitrary-center tuple less the members its
hull moves, and an arbitrary-center member that moved raises.  The
count sums are shared along the paths too, but the counts stay per
center: item i of center x's sum counts the times x's balls shrink
before they stop containing member i, which picks the member's witness
ball there; zipped across centers, these give each member's witnesses
one member at a time.  A count is at most n - 1, so it takes one byte
up to 256 points and the fewest wider bytes past that.  hull() still
computes a single set's hull and witness directly and is the oracle the
pass is tested against.  Balls, covering levels, hulls and the
level-set normality route are reads of the system's level table.

Compactness and spherical completeness are decided by the certificates a
finite ground set gives directly: the closure keeps no empty set, and the
level table is built with every row holding its center, so every ball does.
Normal structure fails on the first pair the hull fixes, since a pair's
Chebyshev radius is its diameter; with none fixed, arbitrary-center mode
fails on the least pair hull, proved flat, and only paper-cov mode walks
its family.  Each candidate is decided on grades by one walk over its
members' grade rows, and only the witness is cross-checked by
normality_criteria.  That search (_flat_witness) gives the witness as a
mask, which the falsifier's normal-structure claim reads directly;
check_normal_structure builds the witness's hull and radii reports from
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import getitem, ne
from array import array
from sys import byteorder
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, TypeVar

from .dyadic import DyadicValue
from .errors import ResourceLimitError, StructuralInputError, UsageError
from .pointset import PointSet, iter_bits
from .relations import Grade, RelationalSystem, Top, TOP
from .semimetric import delta

PAPER_COV = "paper-cov"
ARBITRARY_CENTER = "arbitrary-center"
_MODES = (PAPER_COV, ARBITRARY_CENTER)

_T = TypeVar("_T")

# most members the ball-intersection closure may reach
DEFAULT_SET_CAP = 2_000_000


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise UsageError(f"unknown hull mode {mode!r}; expected one of {_MODES}")


def _check_center(sys: RelationalSystem, x: int) -> None:
    if not 0 <= x < sys.n:
        raise IndexError(f"center {x} out of range for {sys.n} points")


def _check_points(sys: RelationalSystem, points: PointSet) -> None:
    if points.n != sys.n:
        raise StructuralInputError(
            f"point set over {points.n} points against a {sys.n}-point system"
        )


def ball(sys: RelationalSystem, x: int, n: int) -> PointSet:
    """Points whose grade against the center is at least n.

    Any integer level is accepted: at or below the window floor the ball is
    everything, above the window it is just the center.
    """
    _check_center(sys, x)
    return PointSet(sys.n, sys.level_rows(n)[x])


def _cover_index(table: tuple[tuple[int, ...], ...], x: int, bits: int) -> int:
    """Largest index into the level table whose row at x contains bits."""
    k = 0
    while k + 1 < len(table) and bits & ~table[k + 1][x] == 0:
        k += 1
    return k


def covering_level(sys: RelationalSystem, x: int, points: PointSet) -> Grade:
    """Largest level whose ball at x still contains the whole set.

    TOP when the set lies inside {x}: every ball at x contains it.
    """
    _check_center(sys, x)
    _check_points(sys, points)
    table = sys.level_table()
    k = _cover_index(table, x, points.bits)
    return TOP if k == len(table) - 1 else sys.window.below + k


@dataclass(frozen=True)
class AdmissibleSet:
    """A hull value together with the balls whose intersection produced it."""

    points: PointSet
    witness_balls: tuple[tuple[int, int], ...]
    mode: str


def hull(sys: RelationalSystem, points: PointSet, mode: str = PAPER_COV) -> AdmissibleSet:
    """Intersection of the qualifying balls around a nonempty set.

    One witness ball per eligible center suffices: balls at a fixed center
    are nested, so the tightest level carries the whole intersection.
    """
    _check_mode(mode)
    _check_points(sys, points)
    if points.is_empty:
        raise StructuralInputError("hull of the empty set is undefined")
    out, witness = _hull_mask(sys, points.bits, mode)
    return AdmissibleSet(PointSet(sys.n, out), witness, mode)


def _hull_mask(
    sys: RelationalSystem, bits: int, mode: str
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """hull on a raw nonempty mask, in a checked mode: the hull mask and
    its witness balls."""
    table = sys.level_table()
    below = sys.window.below
    centers = iter_bits(bits) if mode == PAPER_COV else range(sys.n)
    witness = []
    out = (1 << sys.n) - 1
    for x in centers:
        k = _cover_index(table, x, bits)
        witness.append((x, below + k))
        out &= table[k][x]
    return out, tuple(witness)


def _ball_index(sys: RelationalSystem) -> tuple[int, ...]:
    """Every distinct ball mask of the level table, in first sighting
    order: column by column, each center's balls from window.below to
    window.above.  Memoised on the system."""
    return sys.cached("ball-index", _build_ball_index)


def _build_ball_index(sys: RelationalSystem) -> tuple[int, ...]:
    return tuple(dict.fromkeys(chain.from_iterable(zip(*sys.level_table()))))


def _intersection_closure(generators: Iterable[int]) -> set[int]:
    """The generator masks and all their nonempty intersections.

    Incremental: each generator b not yet in the family F adds b and every
    nonempty b & f for f in F, which keeps F closed.  Those sets, the trace
    of b, are the members of F inside b.  When the next generator lies
    inside the last one added, the anchor, its intersections are taken
    with the anchor's trace alone, since b & f == b & (anchor & f); only a
    generator outside the anchor makes a pass over F.  So the cost depends
    on the generator order and the result does not: a chain of shrinking
    balls, which _ball_index lists center by center from the floor up,
    costs one pass over F for its first ball and one over a shrinking trace
    for each ball after it.  The family after every generator is the same
    as with a pass over F each time.  DEFAULT_SET_CAP, read on each call,
    bounds the family size; the error carries the size the family had
    reached.
    """
    cap = DEFAULT_SET_CAP
    family: set[int] = set()
    anchor, trace = 0, ()
    for b in generators:
        if b in family:
            continue
        if b & ~anchor:
            trace = family
        new = {b & f for f in trace}
        new.add(b)
        new.discard(0)
        family |= new
        anchor, trace = b, new
        if len(family) > cap:
            raise ResourceLimitError(
                f"ball-intersection closure reached {len(family)} family members,"
                f" over the cap of {cap}",
                cap,
                len(family),
            )
    return family


# byte i is i with its eight bits in reverse order
_REVERSED = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def _matrix(masks: Iterable[int], size: int, flipped: bool = False) -> bytes:
    """The member-by-point byte matrix of masks, size bytes per row: row i
    holds point y of mask i at bit y % 8 of its byte y // 8, the mask's
    little-endian bytes.  Flipped masks, in reversed form (point y at bit
    8 * size - 1 - y), are written big-endian and each byte reversed back,
    which gives the same rows."""
    rows = b"".join(map(int.to_bytes, masks, repeat(size), repeat("big" if flipped else "little")))
    return rows.translate(_REVERSED) if flipped else rows


def _masks(rows: bytes, size: int) -> Iterable[int]:
    """The masks of a matrix's rows, in row order; a one-byte row, up to
    eight points, is its own mask."""
    if size == 1:
        return rows
    return [int.from_bytes(rows[i : i + size], "little") for i in range(0, len(rows), size)]


def _family(sys: RelationalSystem, mode: str) -> tuple[int, ...]:
    """The admissible family as raw masks in canonical order, read back
    from the rows of the system's family record: the closure itself, or
    the members the paper-cov filter keeps."""
    _check_mode(mode)
    record = _family_record(sys)
    masks = _masks(record.matrix, (sys.n + 7) // 8)
    if mode == PAPER_COV:
        return tuple(compress(masks, record.paper))
    return tuple(masks)


# array typecode of an unsigned count by its width in bytes
_COUNT_TYPECODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


# entry b is the byte value b as eight 0/1 bytes, item i for bit i: the
# bits of a point mask, a byte at a time
_BYTE01 = tuple(bytes(b >> i & 1 for i in range(8)) for b in range(256))

# entry j maps a byte to 1 when its bit j is set, else to 0
_BIT01 = tuple(bytes(b >> j & 1 for b in range(256)) for j in range(8))


class _Family(NamedTuple):
    """The admissible family of a system and every member's hulls, from
    one column pass: position i is the member in row i of matrix, the one
    stored form of the family."""

    # the arbitrary-center family in canonical order as a member-by-point
    # byte matrix (_matrix), ceil(n / 8) bytes per member
    matrix: bytes
    paper: bytes  # byte i is 1 when member i is fixed by the paper-cov hull
    # per center: the level of each ball before a shrink, then window.above
    levels: tuple[tuple[int, ...], ...]
    # per center: item i counts the shrinks member i stays inside; bytes up
    # to 256 points, an array of wider items past that
    steps: tuple[Sequence[int], ...]


def _family_record(sys: RelationalSystem) -> _Family:
    """The system's family record, memoised on it under the cap it was
    built with."""
    return sys.cached(("family", DEFAULT_SET_CAP), _build_family)


def _build_family(sys: RelationalSystem) -> _Family:
    """Close the distinct balls in reversed form, sort the closure
    canonically, and decide every member's hulls and witnesses at once.

    Reversal, which puts point y at bit 8 * size - 1 - y for rows of size
    bytes, is a bijection that keeps AND, subset and emptiness, so the
    closure meets its cap after the same generator, at the same size.  The
    canonical order is size first and, within a size, the set holding the
    lowest differing point first; in reversed form that point is the
    highest differing bit, so the order is the masks from the largest
    down, then stably by bit count, two sorts with no Python key.

    spread[y] is the int whose item i is 1 when member i holds point y,
    and ones has every item 1.  The items inside a ball are ones XOR the
    OR of spread[y] over the points that ball lacks, the 0/1 value the
    count sum adds, so a center's walk from the floor up costs one OR per
    point that leaves.  A member's hull drops y exactly when it lies
    inside the first ball at some center that lacks y, and a member is
    fixed when its hull drops every point it lacks; counting only the
    centers inside the member gives the paper-cov hull.  Every member of
    the closure is fixed under the arbitrary-center hull by construction,
    so a member that moved is a bug and raises.

    A member's witness ball at x is the last one before the shrink that it
    leaves at, so the walk sums the 0/1 items of the members inside each
    smaller ball: item i of x's sum counts the shrinks member i stays
    inside and picks its witness level.  A center's balls shrink at most
    n - 1 times, so each item takes the fewest bytes that hold n - 1.

    All of this depends on a center only through its path, the balls its
    balls shrink to.  Sorted, the paths that share a prefix come together,
    so the walk keeps the last center's path as a stack and walks only
    the shrinks past the prefix it shares with the next: each shrink on
    the stack holds its leaving points, listed once, the OR outside its
    ball and the count sum down to it.  When it is popped every center
    that takes it has passed, so its inside items are ORed into each
    leaving point's drops once, and into its paper-cov drops restricted
    to the OR of those centers' columns: OR is idempotent, and the inside
    items that some center's member holds are those that the OR of the
    centers' columns holds.  The stack is one path deep, so it holds one
    path's ORs and sums, not one per distinct ball.

    The columns come from the member-by-point byte matrix, which the
    record keeps in place of the masks, dropped once it is written:
    column y is one translate of every size-th byte from byte y // 8,
    spread to width-byte items.  Each column is kept once, in that spread
    form; the paper-cov filter is the low byte of each item of the
    members that stayed fixed.
    """
    n = sys.n
    size = (n + 7) // 8
    family = list(
        _intersection_closure(
            int.from_bytes(bits.to_bytes(size, "little").translate(_REVERSED), "big")
            for bits in _ball_index(sys)
        )
    )
    family.sort(reverse=True)
    family.sort(key=int.bit_count)
    # column y is every size-th byte from byte y // 8, read at bit y % 8
    matrix = _matrix(family, size, flipped=True)
    m = len(family)
    del family
    table = sys.level_table()
    width = next(w for w in _COUNT_TYPECODES if n <= 1 << 8 * w)
    # 1 in the low byte of every width-byte item, one item per member
    ones = int.from_bytes(b"\1".ljust(width, b"\0") * m, "little")
    spread = []
    item = bytearray(m * width)
    for y in range(n):
        column = matrix[y >> 3 :: size].translate(_BIT01[y & 7])
        if width > 1:
            item[::width] = column
            column = item
        spread.append(int.from_bytes(column, "little"))
    # per center, from its column: the levels where its balls shrink, then
    # window.above, and the balls they shrink to, from the floor up
    levels, paths = [], []
    below, above = sys.window.below, sys.window.above
    for col in zip(*table):
        upper = col[1:]
        shrinks = list(map(ne, col, upper))
        levels.append((*compress(range(below, above), shrinks), above))
        paths.append(tuple(compress(upper, shrinks)))
    drops = [0] * n
    paper_drops = [0] * n
    # the shrinks on the last center's path from the floor ball, the floor
    # first: [ball, leaving points, OR of spread[y] over the points the
    # ball lacks, count sum down to it, OR of spread[x] over the centers
    # whose paths take it]
    walk = [[table[0][0], (), 0, 0, 0]]

    def close(shrink: list) -> None:
        # every center that takes the shrink has passed: the items inside
        # it drop its leaving points, and its centers pass up
        _, leaving, outside, _, centers = shrink
        inside = ones ^ outside
        centered = inside & centers
        for y in leaving:
            drops[y] |= inside
            paper_drops[y] |= centered
        walk[-1][4] |= centers

    steps = [b""] * n
    balls = ()
    # in path order, the centers that share a prefix of shrinks come
    # together and walk it once
    for x in sorted(range(n), key=paths.__getitem__):
        prev, balls, depth = balls, paths[x], 1
        for walked, ball in zip(prev, balls):
            if walked != ball:
                break
            depth += 1
        while len(walk) > depth:
            close(walk.pop())
        for ball in balls[depth - 1 :]:
            before, _, outside, count, _ = walk[-1]
            leaving = list(iter_bits(before & ~ball))
            for y in leaving:
                outside |= spread[y]
            # item i of the sum counts the shrinks member i stays inside
            walk.append([ball, leaving, outside, count + (ones ^ outside), 0])
        walk[-1][4] |= spread[x]
        counts = walk[-1][3].to_bytes(m * width, "little")
        if width > 1:
            counts = array(_COUNT_TYPECODES[width], counts)
            if byteorder == "big":
                counts.byteswap()
        steps[x] = counts
    while len(walk) > 1:
        close(walk.pop())
    moved = unfixed = 0
    for y in range(n):
        moved |= ones & ~(drops[y] | spread[y])
        unfixed |= ones & ~(paper_drops[y] | spread[y])
    if moved:
        raise RuntimeError(f"admissible member moved under the {ARBITRARY_CENTER} hull")
    # item i is 1 when member i is fixed, its low byte every width-th byte
    paper = (ones ^ unfixed).to_bytes(m * width, "little")[::width]
    return _Family(matrix, paper, tuple(levels), tuple(steps))


def _witnessed_members(
    sys: RelationalSystem, mode: str, ball: Callable[[tuple[int, int]], _T]
) -> tuple[bytes, Iterator[list[_T]]]:
    """The mode's admissible members in canonical order as the rows of a
    member-by-point byte matrix (_matrix), and an iterator of their
    witness-ball lists in the same order, each ball the object ball made
    from its (center, level) pair; ball is called once per distinct pair,
    so members that share a witness ball share that object.

    The rows are the family record's matrix, or the rows its paper-cov
    filter keeps.  The witness levels are the record's step counts,
    zipped across centers one member at a time.
    """
    _check_mode(mode)
    matrix, paper, levels, steps = _family_record(sys)
    table = [tuple(ball((x, lev)) for lev in at) for x, at in enumerate(levels)]
    per_member = zip(*steps)
    if mode == ARBITRARY_CENTER:
        return matrix, (list(map(getitem, table, idx)) for idx in per_member)
    size = (sys.n + 7) // 8
    rows = bytes(compress(matrix, b"".join(map((b"\0" * size, b"\1" * size).__getitem__, paper))))
    # the centers inside each kept member: one 0/1 selector item per point,
    # eight per byte of its row; compress stops at the last center
    selectors, width = b"".join(map(_BYTE01.__getitem__, rows)), 8 * size
    return rows, (
        list(compress(map(getitem, table, idx), selectors[i : i + width]))
        for i, idx in zip(range(0, len(selectors), width), compress(per_member, paper))
    )


def enumerate_admissible(
    sys: RelationalSystem, mode: str = PAPER_COV
) -> tuple[AdmissibleSet, ...]:
    """Every nonempty fixed point of the chosen hull, canonically ordered,
    with its witness balls.

    The arbitrary-center family is exactly the intersection closure of the
    balls; the paper-cov family is its subset of paper-cov hull fixed
    points.  Singletons and the whole ground set always appear.  The
    closure raises ResourceLimitError past DEFAULT_SET_CAP members, in
    both modes.  The family record is memoised on the system, but the
    AdmissibleSet values and their witness balls are rebuilt on every
    call, the masks read back from the record's rows.
    """
    rows, witnesses = _witnessed_members(sys, mode, lambda p: p)
    return tuple(
        AdmissibleSet(PointSet(sys.n, bits), tuple(witness), mode)
        for bits, witness in zip(_masks(rows, (sys.n + 7) // 8), witnesses)
    )


@dataclass(frozen=True)
class RadiiReport:
    """Chebyshev radius and diameter of a set, in grades and distances."""

    points: PointSet
    per_point: tuple[tuple[int, DyadicValue], ...]
    cheb_radius: DyadicValue
    diameter: DyadicValue
    cheb_grade: Grade
    diam_grade: Grade


def radii(sys: RelationalSystem, points: PointSet) -> RadiiReport:
    """Per-point reach, Chebyshev radius, and diameter of a nonempty set.

    Grade forms, from one walk over the grade rows (_worst_grades): each
    point's worst grade against the others gives its reach; the Chebyshev
    grade is the largest worst grade and the diameter grade, the smallest
    pair grade, the smallest one.  Distances are their dyadic shadows.
    """
    members = _nonempty_members(sys, points)
    worst = _worst_grades(sys, members)
    cheb_grade, diam_grade = max(worst), min(worst)
    return RadiiReport(
        points=points,
        per_point=tuple(zip(members, map(_grade_distance, worst))),
        cheb_radius=_grade_distance(cheb_grade),
        diameter=_grade_distance(diam_grade),
        cheb_grade=cheb_grade,
        diam_grade=diam_grade,
    )


def _nonempty_members(sys: RelationalSystem, points: PointSet) -> list[int]:
    """The members of a nonempty set of the system's points."""
    _check_points(sys, points)
    if points.is_empty:
        raise StructuralInputError("radii of the empty set are undefined")
    return points.members()


def _worst_grades(sys: RelationalSystem, members: Sequence[int]) -> list[Grade]:
    """Each member's worst grade against the others, in one walk over
    their grade rows.  The diagonal is TOP, above every grade, so taking
    it in changes no minimum and leaves TOP for a lone point."""
    entries = sys.grades.entries
    return [min(map(entries[x].__getitem__, members)) for x in members]


def _grade_distance(g: Grade) -> DyadicValue:
    return DyadicValue.zero() if isinstance(g, Top) else DyadicValue.pow2(-g)


@dataclass(frozen=True)
class NormalityCriteria:
    """Three independent readings of "some point beats the diameter"."""

    grade_strict: bool
    distance_strict: bool
    relational_proper: bool

    @property
    def agreed(self) -> bool:
        return self.grade_strict == self.distance_strict == self.relational_proper


def normality_criteria(sys: RelationalSystem, points: PointSet) -> NormalityCriteria:
    """Evaluate r < diameter for one nonempty set via grades, distances,
    and level sets.

    The grade route compares the largest and smallest worst grades of the
    walk radii makes, with no RadiiReport built; the distance route takes
    each member's supremum of delta values with max() and compares the
    least with the largest; the level-set route counts, at each level of
    the system's level table, the members whose row holds the set: the
    cover and diameter level sets differ exactly where some rows hold it
    and others do not.  The three routes must agree; a disagreement would
    be an arithmetic bug and raises immediately.
    """
    members = _nonempty_members(sys, points)
    worst = _worst_grades(sys, members)
    grade_strict = max(worst) > min(worst)

    # the radius is the smallest per-point supremum, the diameter the largest
    sups = [max([delta(sys, x, y) for y in members]) for x in members]
    distance_strict = min(sups) < max(sups)

    bits, size = points.bits, len(members)
    relational_proper = any(
        0 < sum([bits & ~rows[x] == 0 for x in members]) < size
        for rows in sys.level_table()
    )

    crit = NormalityCriteria(grade_strict, distance_strict, relational_proper)
    if not crit.agreed:  # pragma: no cover - would expose an arithmetic bug
        raise RuntimeError(f"normality criteria disagree on {members}: {crit}")
    return crit


@dataclass(frozen=True)
class StructureReport:
    property_name: str
    holds: bool
    witness: Optional[tuple] = None
    note: str = ""


def _least(masks: Iterable[int]) -> int:
    """The least mask in canonical order (PointSet.canonical_key), or 0
    when there is none: the smaller set and, between two of one size, the
    one holding the lowest bit of their XOR."""
    rest = iter(masks)
    least = next(rest, 0)
    for bits in rest:
        excess, diff = bits.bit_count() - least.bit_count(), bits ^ least
        if excess < 0 or excess == 0 and bits & diff & -diff:
            least = bits
    return least


def check_normal_structure(sys: RelationalSystem, mode: str = PAPER_COV) -> StructureReport:
    """Does every admissible set with at least two points admit a point
    strictly closer to everyone than the diameter?

    Finite families never do: the pairs realizing the largest finite grade
    form a clique whose Chebyshev radius equals its diameter (see
    min_distance_clique).  The witness is the first admissible set, in
    canonical order, where radius and diameter coincide, with its hull
    witness balls.  Every pair has radius equal to its diameter, and pairs
    follow the singletons in that order, so the first pair the hull fixes
    is the witness.  With no pair fixed, arbitrary-center mode takes the
    canonical-least hull of a pair, with no family record and no cap: a
    least member M with two or more points is flat (for x, y in M at its
    diameter grade d, a z in M with worst grade above d would make
    B(x, d + 1) & M a smaller member), and this hull is a closure, so M is
    the hull of a pair inside it.  paper-cov mode, whose hull is not
    monotone, walks its family.  One walk over the candidate's grade rows,
    the one radii makes, decides each candidate (Chebyshev grade at most
    the diameter grade), and normality_criteria cross-checks the witness
    alone.  _flat_witness makes that search and gives the witness mask;
    its hull and RadiiReport are built from the mask, for the witness
    only.
    """
    _check_mode(mode)
    bits = _flat_witness(sys, mode)
    if not bits:
        return StructureReport(
            "normal-structure",
            True,
            note="no admissible set with two or more points" if sys.n < 2 else "",
        )
    points = PointSet(sys.n, bits)
    return StructureReport(
        "normal-structure",
        False,
        witness=(hull(sys, points, mode), radii(sys, points)),
        note="radius equals diameter on the witness set",
    )


def _flat_witness(sys: RelationalSystem, mode: str) -> int:
    """The mask of check_normal_structure's witness in a checked mode, or
    0 when there is none: the pair scan, then the candidate walk, each
    candidate decided by one _worst_grades walk, and normality_criteria's
    cross-check of the witness alone."""
    n = sys.n
    pair_hulls = []
    for p in (1 << x | 1 << y for x in range(n) for y in range(x + 1, n)):
        pair_hulls.append(_hull_mask(sys, p, mode)[0])
        if pair_hulls[-1] == p:
            break
    # a fixed pair ends the scan and is then the least pair hull
    least = _least(pair_hulls)
    by_rule = mode == ARBITRARY_CENTER or least.bit_count() == 2
    for bits in (least,) if by_rule else _family(sys, mode):
        if bits.bit_count() < 2:
            continue
        worst = _worst_grades(sys, tuple(iter_bits(bits)))
        # flat: the Chebyshev grade is at most the diameter grade
        if max(worst) <= min(worst):
            normality_criteria(sys, PointSet(n, bits))  # raises if the routes disagree
            return bits
        if by_rule:  # pragma: no cover - would refute the pair rule
            raise RuntimeError(f"least pair hull {tuple(iter_bits(bits))} is not flat")
    return 0


def min_distance_clique(sys: RelationalSystem) -> PointSet:
    """A maximal clique of pairs realizing the largest finite grade.

    Greedy from the first such pair: every member added keeps all internal
    grades at the maximum, so the set is admissible in both hull modes and
    its radius equals its diameter.  Needs at least two points.
    """
    if sys.n < 2:
        raise StructuralInputError("need at least two points for a pair clique")
    # the largest finite grade: the highest level whose relation is more
    # than the diagonal, which the floor's full relation is
    best = sys.window.hi
    diagonal = sys.level_rows(best + 1)
    while sys.level_rows(best) == diagonal:
        best -= 1
    rows = sys.level_rows(best)
    # the first pair of that grade: the first point related to another,
    # and the first other point it is related to, which lies past it
    x = next(x for x, row in enumerate(rows) if row != 1 << x)
    other = rows[x] ^ 1 << x
    clique = other & -other | 1 << x
    for x, row in enumerate(rows):
        if clique & ~row == 0:
            clique |= 1 << x
    return PointSet(sys.n, clique)


def check_compact_structure(sys: RelationalSystem) -> StructureReport:
    """Finite-intersection property over the admissible family.

    On a finite ground set every chain of nested nonempty sets meets in its
    last member, so the property reduces to every admissible set being
    nonempty.  The ball-intersection closure keeps no empty set, so that
    holds for every system with no walk over the family and no cap.
    """
    return StructureReport(
        "compact-structure", True, note="finite ground set: FIP automatic"
    )


def check_spherical_completeness(sys: RelationalSystem) -> StructureReport:
    """Nested ball chains with nonincreasing radii have nonempty intersection.

    On a finite ground set every nested ball chain is finite and meets in
    its last ball, so the property reduces to every ball containing its
    center.  The level table seeds each row with its own point, and every
    ball is a row of that table, so that holds for every system with no
    scan of the balls.
    """
    return StructureReport(
        "spherical-completeness",
        True,
        note="finite ground set: every nested ball chain is finite",
    )


def admissible_family_bits(sys: RelationalSystem, mode: str) -> frozenset[int]:
    """The admissible family as raw bitmasks, for set-level comparisons."""
    return frozenset(_family(sys, mode))
