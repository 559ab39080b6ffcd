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

The system's ball index (_ball_index), memoised on it, maps each distinct
ball mask of the level table to the (center, level) pairs that name it;
in a transitive system balls are nested or disjoint, so far fewer masks
than pairs.  Its masks are the generators of the one ball-intersection
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
it was built under: the closure masks in canonical order, the paper-cov
filter, and per center the levels where its balls shrink and each
member's witness step count.  The normal-structure check, the
hull-equivalence claim of the falsifier and both hulls reports read it;
the paper-cov family is filtered from it on each call.  Every member's
hulls are decided in one bit-sliced pass over the closure, in the
vertical layout of frequent-itemset miners (Zaki 2000; MAFIA, Burdick et
al. 2001): position i is the i-th member in canonical order, and
member[y] is the int with bit i set when member i holds point y.  The
columns are read from one member-by-point byte matrix, a translate per
point, and each is also kept spread out, one count item per member, so
the witness counts below grow by one integer sum per shrink.  Walking
the balls at a center from the floor up, the positions inside a ball are
the complement of the OR of member[y] over the points that have left it,
so a center costs about n ORs.  One pass
over the (center, point) pairs then gives every member's fixed-point
check under both hulls: the paper-cov family is the arbitrary-center
tuple less the members its hull moves, and an arbitrary-center member
that moved raises.  The same walk counts, per center and member, the
times that center's balls shrink before they stop containing it, which
picks the member's witness ball there; zipped across centers, these give
each member's witnesses one member at a time.  A count is at most n - 1,
so it takes one byte up to 256 points and the fewest wider bytes past
that.  hull() still computes a single set's hull and witness directly and
is the oracle the pass is tested against.  Balls, covering levels, hulls
and the level-set normality route are reads of the system's level table.

Compactness and spherical completeness are decided by the certificates a
finite ground set gives directly: the closure keeps no empty set, and the
level table is built with every row holding its center, so every ball does.  Normal structure fails on the first
pair the hull fixes, since a pair's Chebyshev radius is its diameter; only
when no pair is fixed is it decided per admissible set.  Each candidate is
decided on grades by one radii walk, and only the witness is cross-checked
by grades, distances and level sets (normality_criteria).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import getitem, methodcaller
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


def _ball_index(sys: RelationalSystem) -> dict[int, tuple[tuple[int, int], ...]]:
    """Every distinct ball mask with the (center, level) pairs naming it,
    memoised on the system.

    Masks keep their first sighting, center by center and level by level
    from window.below to window.above, and so do the names of each mask.
    """
    return sys.cached("ball-index", _build_ball_index)


def _build_ball_index(sys: RelationalSystem) -> dict[int, tuple[tuple[int, int], ...]]:
    names: dict[int, list[tuple[int, int]]] = {}
    table = sys.level_table()
    for x in range(sys.n):
        for lev, rows in enumerate(table, sys.window.below):
            pairs = names.get(rows[x])
            if pairs is None:
                names[rows[x]] = [(x, lev)]
            else:
                pairs.append((x, lev))
    return {bits: tuple(pairs) for bits, pairs in names.items()}


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


def _canonical_mask_key(n: int) -> Callable[[int], int]:
    """Integer sort key of an n-point mask, ordered like canonical_key.

    Among sets of one size, the members compare at the lowest point in
    exactly one of them, and the set holding it comes first; reading the
    complement with point 0 as the highest bit orders them the same way.
    The mask is reversed a byte at a time: its little-endian bytes, each
    bit-reversed through _REVERSED, read big-endian put point i at bit
    8 * size - 1 - i, and the shift brings it to n - 1 - i.
    """
    full = (1 << n) - 1
    size = (n + 7) // 8
    shift = 8 * size - n
    return lambda bits: (bits.bit_count() << n) | full ^ (
        int.from_bytes(bits.to_bytes(size, "little").translate(_REVERSED), "big") >> shift
    )


def _family(sys: RelationalSystem, mode: str) -> tuple[int, ...]:
    """The admissible family as raw masks in canonical order, read from
    the system's family record: the closure itself, or the members the
    paper-cov filter keeps."""
    _check_mode(mode)
    record = _family_record(sys)
    if mode == PAPER_COV:
        return tuple(compress(record.masks, record.paper))
    return record.masks


# array typecode of an unsigned count by its width in bytes
_COUNT_TYPECODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


# entry b is the byte value b as eight 0/1 bytes, item i for bit i: the
# bits of a point mask, a byte at a time
_BYTE01 = tuple(bytes(b >> i & 1 for i in range(8)) for b in range(256))

# entry j maps a byte to 1 when its bit j is set, else to 0
_BIT01 = tuple(bytes(b >> j & 1 for b in range(256)) for j in range(8))

# the 0/1 byte values as the ASCII digits int(..., 2) reads
_DIGITS01 = bytes.maketrans(b"\0\1", b"01")


class _Family(NamedTuple):
    """The admissible family of a system and every member's hulls, from
    one column pass: position i is the member at index i of masks."""

    masks: tuple[int, ...]  # the arbitrary-center family in canonical order
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
    """Close the distinct balls, sort the closure canonically, and decide
    every member's hulls and witnesses at once.

    member[y] is the int with bit i set when member i holds point y.  The
    positions inside a ball at x are the complement of the members holding
    a point that ball lacks, so walking x's balls from the floor up costs
    one OR per point that leaves.  A member's hull drops y exactly when it
    lies inside the first ball at some center that lacks y, and a member is
    fixed when its hull drops every point it lacks; counting only the
    centers inside the member gives the paper-cov hull.  Every member of
    the closure is fixed under the arbitrary-center hull by construction,
    so a member that moved is a bug and raises.

    A member's witness ball at x is the last one before the shrink that it
    leaves at, so the same walk sums, per center, the 0/1 items of the
    positions inside each smaller ball: item i of the sum counts the
    shrinks member i stays inside and picks its witness level.  A center's
    balls shrink at most n - 1 times, so each item takes the fewest bytes
    that hold n - 1.

    The columns come from the member-by-point byte matrix, each member's
    mask as little-endian bytes: column y is one translate of every
    size-th byte from byte y // 8.  Each column is kept twice, packed as
    member[y] and spread as one count item per member, so the items
    inside a ball are those of every member less the OR of the spread
    columns that have left, one XOR per shrink and no conversion.  The
    closure set is released before the matrix is built.
    """
    n = sys.n
    family = tuple(sorted(_intersection_closure(_ball_index(sys)), key=_canonical_mask_key(n)))
    table = sys.level_table()
    m, every = len(family), (1 << len(family)) - 1
    width = next(w for w in _COUNT_TYPECODES if n <= 1 << 8 * w)
    # 1 in the low byte of every width-byte item, one item per member
    ones = int.from_bytes(b"\1".ljust(width, b"\0") * m, "little")
    # the member-by-point matrix, size bytes per member: column y is every
    # size-th byte from byte y // 8, read at bit y % 8
    size = (n + 7) // 8
    matrix = b"".join(map(methodcaller("to_bytes", size, "little"), family))
    member, spread = [], []
    item = bytearray(m * width)
    for y in range(n):
        column = matrix[y >> 3 :: size].translate(_BIT01[y & 7])
        member.append(int(column.translate(_DIGITS01)[::-1], 2))
        if width > 1:
            item[::width] = column
            column = item
        spread.append(int.from_bytes(column, "little"))
    del matrix
    drops = [0] * n
    paper_drops = [0] * n
    levels = []
    steps = []
    for x in range(n):
        at, outside, outside_spread, count = [], 0, 0, 0
        for lev, (lower, upper) in enumerate(zip(table, table[1:]), sys.window.below):
            if lower[x] == upper[x]:
                continue
            leaving = list(iter_bits(lower[x] & ~upper[x]))
            for y in leaving:
                outside |= member[y]
                outside_spread |= spread[y]
            inside = every ^ outside
            centered = inside & member[x]
            for y in leaving:
                drops[y] |= inside
                paper_drops[y] |= centered
            at.append(lev)
            # item i of the sum counts the shrinks member i stays inside
            count += ones ^ outside_spread
        at.append(sys.window.above)
        levels.append(tuple(at))
        counts = count.to_bytes(m * width, "little")
        if width > 1:
            counts = array(_COUNT_TYPECODES[width], counts)
            if byteorder == "big":
                counts.byteswap()
        steps.append(counts)
    moved = unfixed = 0
    for y in range(n):
        moved |= every & ~(drops[y] | member[y])
        unfixed |= every & ~(paper_drops[y] | member[y])
    if moved:
        raise RuntimeError(f"admissible member moved under the {ARBITRARY_CENTER} hull")
    kept = (every ^ unfixed).to_bytes((m + 7) // 8, "little")
    paper = b"".join(map(_BYTE01.__getitem__, kept))[:m]
    return _Family(family, paper, tuple(levels), tuple(steps))


def _witnessed_members(
    sys: RelationalSystem, mode: str, ball: Callable[[tuple[int, int]], _T]
) -> tuple[tuple[int, ...], Iterator[list[_T]]]:
    """The mode's admissible masks in canonical order, and an iterator of
    their witness-ball lists in the same order, each ball the object ball
    made from its (center, level) pair; ball is called once per distinct
    pair, so members that share a witness ball share that object.

    The witness levels are the step counts of the family record, zipped
    across centers one member at a time.
    """
    _check_mode(mode)
    masks, paper, levels, steps = _family_record(sys)
    table = [tuple(ball((x, lev)) for lev in at) for x, at in enumerate(levels)]
    per_member = zip(*steps)
    if mode == ARBITRARY_CENTER:
        return masks, (list(map(getitem, table, idx)) for idx in per_member)
    # the centers inside a member: one 0/1 selector item per point, eight
    # per byte of the mask; compress stops at the last center
    size = (sys.n + 7) // 8
    byte01 = _BYTE01.__getitem__
    return tuple(compress(masks, paper)), (
        list(
            compress(
                map(getitem, table, idx),
                b"".join(map(byte01, bits.to_bytes(size, "little"))),
            )
        )
        for bits, idx in compress(zip(masks, per_member), paper)
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
    call.
    """
    return tuple(
        AdmissibleSet(PointSet(sys.n, bits), tuple(witness), mode)
        for bits, witness in zip(*_witnessed_members(sys, mode, lambda p: p))
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
    walk radii makes, with no RadiiReport built; the distance route
    compares delta values; the level-set route reads the rows of the
    system's level table.  The three routes must agree; a disagreement
    would be an arithmetic bug and raises immediately.
    """
    members = _nonempty_members(sys, points)
    worst = _worst_grades(sys, members)
    grade_strict = max(worst) > min(worst)

    # the radius is the smallest per-point supremum, the diameter the largest
    cheb: Optional[DyadicValue] = None
    diam = DyadicValue.zero()
    for x in members:
        sup = DyadicValue.zero()
        for y in members:
            d = delta(sys, x, y)
            if d > sup:
                sup = d
        if cheb is None or sup < cheb:
            cheb = sup
        if sup > diam:
            diam = sup
    distance_strict = cheb < diam

    cover_levels = set()
    diam_levels = set()
    for n, rows in enumerate(sys.level_table(), sys.window.below):
        inside = [points.bits & ~rows[x] == 0 for x in members]
        if any(inside):
            cover_levels.add(n)
        if all(inside):
            diam_levels.add(n)
    relational_proper = diam_levels < cover_levels

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


def check_normal_structure(sys: RelationalSystem, mode: str = PAPER_COV) -> StructureReport:
    """Does every admissible set with at least two points admit a point
    strictly closer to everyone than the diameter?

    Finite families never do: the pairs realizing the largest finite grade
    form a clique whose Chebyshev radius equals its diameter (see
    min_distance_clique).  The witness is the first admissible set, in
    canonical order, where radius and diameter coincide, with its hull
    witness balls.  Every pair has radius equal to its diameter, and pairs
    follow the singletons in that order, so the first pair the hull fixes
    is the witness; the family is walked only when the hull fixes no pair.
    One radii walk decides each candidate (Chebyshev grade at most the
    diameter grade); normality_criteria cross-checks the witness alone,
    which carries that walk's RadiiReport.
    """
    _check_mode(mode)
    pairs = (1 << x | 1 << y for x in range(sys.n) for y in range(x + 1, sys.n))
    fixed = next((p for p in pairs if _hull_mask(sys, p, mode)[0] == p), None)
    for bits in (fixed,) if fixed else _family(sys, mode):
        if bits.bit_count() < 2:
            continue
        points = PointSet(sys.n, bits)
        rep = radii(sys, points)
        if rep.cheb_grade <= rep.diam_grade:
            normality_criteria(sys, points)  # raises if the routes disagree
            return StructureReport(
                "normal-structure",
                False,
                witness=(hull(sys, points, mode), rep),
                note="radius equals diameter on the witness set",
            )
    return StructureReport(
        "normal-structure",
        True,
        note="no admissible set with two or more points" if sys.n < 2 else "",
    )


def min_distance_clique(sys: RelationalSystem) -> PointSet:
    """A maximal clique of pairs realizing the largest finite grade.

    Greedy from the first such pair: every member added keeps all internal
    grades at the maximum, so the set is admissible in both hull modes and
    its radius equals its diameter.  Needs at least two points.
    """
    if sys.n < 2:
        raise StructuralInputError("need at least two points for a pair clique")
    # the first pair of the largest grade, starting from the pair (0, 1)
    best = sys.grades.entries[0][1]
    members = [0, 1]
    for x in range(sys.n):
        for y in range(x + 1, sys.n):
            g = sys.grades.entries[x][y]
            if g > best:
                best = g
                members = [x, y]
    for x in range(sys.n):
        if x in members:
            continue
        if all(sys.grades.entries[x][m] == best for m in members):
            members.append(x)
    return PointSet.of(sys.n, sorted(members))


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
