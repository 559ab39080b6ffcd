"""Self-maps over graded systems: grade preservation, orbits, fixed points.

A map is grade-preserving when no pair's grade drops under it, which for
the induced distance is exactly nonexpansiveness; both predicates are
implemented against their own arithmetic so they can be compared.

fixed_points, orbit and regularity_report, the dichotomy, the fixed-point
theorems, the invariant-set search, the falsifier's map claims and the
CLI's dynamics and fixpoint reports read one analysis of the map on the
system (_MapAnalysis), memoised on the system for the last map read and
replaced when a map with another image is read.  orbit() and
regularity_report() of a map other than the held one replace nothing:
they walk the asked point alone.  Each of the analysis's fields is
computed on its first read: the step grades and fixed points, the
grade-preservation check, every orbit and regularity report, the masks
of the map-invariant distinct balls of the system's ball index
(hulls._ball_index) and their reports, named from the level table's
columns, the minimal invariant balls, one (point, level, ball mask,
outcome, witness) tuple of the dichotomy per moving point, and the
minimal invariant admissible sets.  A caller pays only for what it
reads: the dichotomy walks no orbit, orbits and regularity build no level
table, _regular_unmet, the hypotheses of regular_fixed_point, reads no
ball, and the falsifier reads the ball masks and dichotomy tuples without
their reports.  Each orbit is one _walk, made once per point for the
analysis, that reads its grade trace from the step grades; orbit() and
regularity_report() index the analysis's tuples.  Invariance of a mask is
one image-mask kernel: the OR of the image bits of its members, and a
minimal invariant ball's step grades are one mask test against the
points moving at its level.

The minimal invariant admissible sets are found without the admissible
family.  Every invariant set contains a cycle C of the map, and every
paper-cov fixed set is an intersection of balls, so it is fixed by the
monotone arbitrary-center hull too.  An invariant paper-cov set holding C
therefore holds L_C, the least fixed point above C of
X -> hull_ac(X | T(X)) (Tarski 1955), which is itself invariant.  When
the paper-cov hull fixes L_C it is the only candidate from C; otherwise
the candidates are the invariant paper-cov members of the intersection
closure of the distinct balls that contain L_C.  The answer is the
minimal candidates over all cycles: the minimal invariant admissible sets
of Kirk's fixed-point argument (Kirk 1965).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from operator import getitem
from typing import Optional

from .errors import PreconditionError, StructuralInputError, UsageError
from .hulls import (
    ARBITRARY_CENTER,
    PAPER_COV,
    AdmissibleSet,
    _ball_index,
    _hull_mask,
    _intersection_closure,
    hull,
)
# SelfMap and identity_map live in pointset and stay importable from here
from .pointset import PointSet, SelfMap, identity_map, iter_bits
from .relations import Grade, RelationalSystem, Top, check_axiom
from .semimetric import _check_index, delta


def _check_sizes(sys: RelationalSystem, t: SelfMap) -> None:
    if t.n != sys.n:
        raise StructuralInputError(
            f"map over {t.n} points against a {sys.n}-point system"
        )


@dataclass(frozen=True)
class MapCheck:
    """Predicate outcome with the first violating pair, if any."""

    holds: bool
    witness: Optional[tuple] = None


def is_homomorphism(sys: RelationalSystem, t: SelfMap) -> MapCheck:
    """No pair's grade may drop under the map.

    Witness carries (x, y, grade(x, y), grade(Tx, Ty)) for the first
    violating pair in index order.
    """
    _check_sizes(sys, t)
    entries, image = sys.grades.entries, t.image
    for x, row in enumerate(entries):
        row_img = entries[image[x]]
        for y in range(x + 1, sys.n):
            g, g_img = row[y], row_img[image[y]]
            if not g_img >= g:
                return MapCheck(False, (x, y, g, g_img))
    return MapCheck(True)


def is_nonexpansive(sys: RelationalSystem, t: SelfMap) -> MapCheck:
    """No pair's distance may grow, decided in exact dyadic arithmetic.

    Independent of is_homomorphism; the two must agree on every input.
    Witness carries (x, y, delta(x, y), delta(Tx, Ty)).
    """
    _check_sizes(sys, t)
    image = t.image
    for x in range(sys.n):
        tx = image[x]
        for y in range(x + 1, sys.n):
            d = delta(sys, x, y)
            d_img = delta(sys, tx, image[y])
            if d_img > d:
                return MapCheck(False, (x, y, d, d_img))
    return MapCheck(True)


def fixed_points(sys: RelationalSystem, t: SelfMap) -> PointSet:
    return PointSet(sys.n, _analysis(sys, t).fixed)


@dataclass(frozen=True)
class Orbit:
    """Forward orbit of a point: preperiodic tail, then the cycle.

    grade_trace holds the grade of each consecutive step, tail steps first,
    then once around the cycle (the last entry closes the loop).
    """

    start: int
    tail: tuple[int, ...]
    cycle: tuple[int, ...]
    grade_trace: tuple[Grade, ...]


def orbit(sys: RelationalSystem, t: SelfMap, x: int) -> Orbit:
    a = _held(sys, t)[0]
    _check_index(sys, x)
    if a.t.image != t.image:
        # another map's analysis stays in place
        return _walk(t.image, _steps(sys, t), x)
    return a.orbits[x]


def _steps(sys: RelationalSystem, t: SelfMap) -> tuple[Grade, ...]:
    """grade(p, Tp) for every point p, TOP exactly at the fixed points."""
    return tuple(map(getitem, sys.grades.entries, t.image))


def _walk(image: tuple[int, ...], steps: tuple[Grade, ...], x: int) -> Orbit:
    """The orbit of x under the map with this image, its grade trace read
    from the map's step grades."""
    seq, seen = [x], {x: 0}
    nxt = image[x]
    while nxt not in seen:
        seen[nxt] = len(seq)
        seq.append(nxt)
        nxt = image[nxt]
    start, trace = seen[nxt], tuple(map(steps.__getitem__, seq))
    return Orbit(x, tuple(seq[:start]), tuple(seq[start:]), trace)


@dataclass(frozen=True)
class RegularityReport:
    """Step-grade growth properties of one point's orbit.

    regular: some offset k >= 1 has every later step grade at least
        grade(x, Tx) + k.
    asymptotically_regular: past some offset the n-th step grade reaches
        grade(x, Tx) + n; equivalent to the step distances converging to
        zero, recorded separately as classical_asymptotic.
    weak_regular: the recurring step distances stay strictly below the
        first step's distance.
    """

    point: int
    is_fixed: bool
    regular: bool
    regular_offset: Optional[int]
    asymptotically_regular: bool
    asymptotic_offset: Optional[int]
    weak_regular: bool
    classical_asymptotic: bool


def regularity_report(sys: RelationalSystem, t: SelfMap, x: int) -> RegularityReport:
    a = _held(sys, t)[0]
    _check_index(sys, x)
    if a.t.image != t.image:
        # another map's analysis stays in place
        return _regularity(_walk(t.image, _steps(sys, t), x), t)
    return a.regularity[x]


def _regularity(orb: Orbit, t: SelfMap) -> RegularityReport:
    """regularity_report from the point's orbit."""
    x = orb.start
    if t.image[x] == x:
        return RegularityReport(x, True, True, None, True, None, True, True)

    trace = orb.grade_trace
    m = trace[0]
    assert isinstance(m, int)
    tail_len = len(orb.tail)
    min_cycle = min(trace[tail_len:])
    cycle_fixed = isinstance(min_cycle, Top)

    regular_offset = None
    for k in range(1, max(1, tail_len) + 1):
        if min_cycle >= m + k and all(trace[i] >= m + k for i in range(k, tail_len)):
            regular_offset = k
            break

    asymptotic_offset = None
    if cycle_fixed:
        asymptotic_offset = max(
            (i + 1 for i in range(tail_len) if trace[i] < m + i), default=0
        )

    weak = min_cycle > m

    return RegularityReport(
        point=x,
        is_fixed=False,
        regular=regular_offset is not None,
        regular_offset=regular_offset,
        asymptotically_regular=asymptotic_offset is not None,
        asymptotic_offset=asymptotic_offset,
        weak_regular=weak,
        classical_asymptotic=cycle_fixed,
    )


OUTCOME_FIXED = "contains-fixed-point"
OUTCOME_MINIMAL_BALL = "contains-minimal-invariant-ball"
OUTCOME_NEITHER = "NEITHER"


class _field:
    """functools.cached_property as it is from Python 3.12 on: the value is
    built on the first read and kept in the instance dict.  Before 3.12
    cached_property takes a lock on every first read, which costs about
    0.8 us, several times per falsifier trial."""

    def __init__(self, build):
        self.build = build
        self.__doc__ = build.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.build(obj)
        return value


class _MapAnalysis:
    """One map on one system, as the dynamics and fixpoint reports read it.

    Every field is computed on its first read and kept; see the module
    docstring for what reads which.
    """

    def __init__(self, sys: RelationalSystem, t: SelfMap):
        # weak: the system keeps its analysis, and a strong reference back
        # would leave every analysed system to the cyclic collector
        self._sys = weakref.ref(sys)
        self.t = t

    @property
    def sys(self) -> RelationalSystem:
        return self._sys()

    @_field
    def steps(self) -> tuple[Grade, ...]:
        """grade(p, Tp) for every point p, TOP exactly at the fixed points."""
        return _steps(self.sys, self.t)

    @_field
    def fixed(self) -> int:
        """Mask of the fixed points."""
        return sum(1 << p for p, q in enumerate(self.t.image) if p == q)

    @_field
    def hom(self) -> MapCheck:
        return is_homomorphism(self.sys, self.t)

    def unmet(self) -> list[str]:
        """Which of per-level transitivity and grade preservation fail."""
        unmet = [] if check_axiom(self.sys, "transitive").holds else ["transitive"]
        if not self.hom.holds:
            unmet.append("homomorphism")
        return unmet

    @_field
    def orbits(self) -> tuple[Orbit, ...]:
        image, steps = self.t.image, self.steps
        return tuple(_walk(image, steps, x) for x in range(len(image)))

    @_field
    def regularity(self) -> tuple[RegularityReport, ...]:
        return tuple(_regularity(orb, self.t) for orb in self.orbits)

    @_field
    def _image_bits(self) -> tuple[int, ...]:
        return tuple(1 << q for q in self.t.image)

    def image(self, bits: int) -> int:
        """The image of a mask: the OR of its members' image bits."""
        image_bits, out = self._image_bits, 0
        while bits:
            low = bits & -bits
            out |= image_bits[low.bit_length() - 1]
            bits ^= low
        return out

    def invariant(self, bits: int) -> bool:
        """Whether the map sends every member of the mask back into it."""
        return self.image(bits) & ~bits == 0

    @_field
    def invariant_ball_bits(self) -> tuple[int, ...]:
        """The masks of the map-invariant distinct balls, in mask order."""
        return tuple(filter(self.invariant, sorted(_ball_index(self.sys))))

    @_field
    def invariant_balls(self) -> tuple[InvariantBallReport, ...]:
        """The map-invariant distinct balls in mask order, each with every
        (center, level) pair naming it: one pass over the level table's
        columns looks each entry up among them."""
        sys, fixed = self.sys, self.fixed
        names = {bits: [] for bits in self.invariant_ball_bits}
        for x, col in enumerate(zip(*sys.level_table())):
            for lev, bits in enumerate(col, sys.window.below):
                if bits in names:
                    names[bits].append((x, lev))
        n = sys.n
        return tuple(
            InvariantBallReport(PointSet(n, bits), tuple(pairs), PointSet(n, bits & fixed))
            for bits, pairs in names.items()
        )

    @_field
    def min_balls(self) -> tuple[tuple[int, int], ...]:
        sys, steps = self.sys, self.steps
        lo, hi, below = sys.window.lo, sys.window.hi, sys.window.below
        table = sys.level_table()
        # moving[lev]: the points whose step grade is lev
        moving: dict[Grade, int] = {}
        for p, lev in enumerate(steps):
            moving[lev] = moving.get(lev, 0) | 1 << p
        out = []
        for x, lev in enumerate(steps):
            if not lo <= lev <= hi:
                continue
            bits = table[lev - below][x]
            if bits & ~moving[lev] == 0 and self.invariant(bits):
                out.append((x, lev))
        return tuple(out)

    @_field
    def dichotomy(self) -> tuple[tuple[int, int, int, str, Optional[tuple]], ...]:
        """(x, level, ball mask, outcome, witness) for every non-fixed x, in
        point order: the step ball at x and the branch of the dichotomy it
        meets (ks_dichotomy)."""
        sys, steps, fixed = self.sys, self.steps, self.fixed
        below = sys.window.below
        # a moving point's step grade lies in [below, hi], inside the table
        table = sys.level_table()
        mib_sets = [(c, lev, table[lev - below][c]) for c, lev in self.min_balls]
        out = []
        for x, lev in enumerate(steps):
            if self.t.image[x] == x:
                continue
            assert isinstance(lev, int)
            bits = table[lev - below][x]
            if bits & fixed:
                out.append((x, lev, bits, OUTCOME_FIXED, (next(iter_bits(bits & fixed)),)))
                continue
            hit = next(((c, ml) for c, ml, b in mib_sets if b & ~bits == 0), None)
            if hit is None and lev == below:
                if all(step == lev for step in steps):
                    hit = (x, lev)
            if hit is not None:
                out.append((x, lev, bits, OUTCOME_MINIMAL_BALL, hit))
            else:
                out.append((x, lev, bits, OUTCOME_NEITHER, None))
        return tuple(out)

    @_field
    def min_admissible(self) -> tuple[int, ...]:
        """Masks of the inclusion-minimal invariant paper-cov sets, in
        canonical order, found from the least invariant closed set above
        each cycle (module docstring)."""
        sys = self.sys
        candidates = set()
        # each cycle once, in the order of the least point whose orbit ends
        # in it; the order decides which closure meets a cap first
        cycles = dict.fromkeys(sum(1 << p for p in orb.cycle) for orb in self.orbits)
        for cycle in cycles:
            least = self._least_invariant_closed(cycle)
            if _hull_mask(sys, least, PAPER_COV)[0] == least:
                candidates.add(least)
                continue
            balls = [bits for bits in _ball_index(sys) if least & ~bits == 0]
            candidates.update(
                bits
                for bits in _intersection_closure(balls)
                if self.invariant(bits) and _hull_mask(sys, bits, PAPER_COV)[0] == bits
            )
        minimal = [
            a for a in candidates if not any(b != a and b & ~a == 0 for b in candidates)
        ]
        return tuple(sorted(minimal, key=lambda bits: PointSet(sys.n, bits).canonical_key()))

    def _least_invariant_closed(self, bits: int) -> int:
        """L_C for the cycle C: iterate X -> hull_ac(X | T(X)) from C up to
        its fixed point, at most n steps since each one grows X."""
        while True:
            grown = _hull_mask(self.sys, bits | self.image(bits), ARBITRARY_CENTER)[0]
            if grown == bits:
                return bits
            bits = grown


def _held(sys: RelationalSystem, t: SelfMap) -> list[_MapAnalysis]:
    """The system's one slot for a map analysis, given t's when empty."""
    _check_sizes(sys, t)
    return sys.cached("map-analysis", lambda s: [_MapAnalysis(s, t)])


def _analysis(sys: RelationalSystem, t: SelfMap) -> _MapAnalysis:
    """The analysis of t on sys.  The system keeps one, for the last map
    read; a map with another image replaces it."""
    held = _held(sys, t)
    if held[0].t.image != t.image:
        held[0] = _MapAnalysis(sys, t)
    return held[0]


def minimal_invariant_admissible(
    sys: RelationalSystem, t: SelfMap
) -> tuple[AdmissibleSet, ...]:
    """Inclusion-minimal paper-cov admissible sets closed under the map,
    canonically ordered.

    Requires a grade-preserving map; singleton results are exactly the
    fixed points.  The admissible family is not built: each cycle C of the
    map gives L_C, the least invariant arbitrary-center-closed set above
    it, which every invariant admissible set holding C contains.  L_C is
    the candidate when the paper-cov hull fixes it; otherwise the
    candidates are the invariant paper-cov members of the intersection
    closure of the distinct balls containing L_C, which raises
    ResourceLimitError past DEFAULT_SET_CAP members.  The minimal
    candidates over all cycles are returned.
    """
    a = _analysis(sys, t)
    if not a.hom.holds:
        raise PreconditionError(
            f"map is not grade-preserving at pair {a.hom.witness[:2]}", a.hom.witness
        )
    return tuple(hull(sys, PointSet(sys.n, bits)) for bits in a.min_admissible)


def minimal_invariant_balls(
    sys: RelationalSystem, t: SelfMap
) -> tuple[tuple[int, int], ...]:
    """Balls B(x, n), lo <= n <= hi, mapped into themselves with every
    member's step grade exactly n.

    The center belongs to its ball, so the only level that can qualify at
    x is its own step grade grade(x, Tx); one ball per center is tested.
    All qualifying (center, level) pairs are returned, even when several
    name the same set.
    """
    return _analysis(sys, t).min_balls


@dataclass(frozen=True)
class DichotomyEntry:
    point: int
    level: int
    ball: PointSet
    outcome: str
    witness: Optional[tuple]


@dataclass(frozen=True)
class DichotomyReport:
    """Per-point dichotomy: each step ball holds a fixed point or a minimal
    invariant ball; NEITHER is a falsifier hit."""

    hypotheses_met: bool
    unmet: tuple[str, ...]
    entries: tuple[DichotomyEntry, ...]

    @property
    def has_neither(self) -> bool:
        return any(e.outcome == OUTCOME_NEITHER for e in self.entries)


def ks_dichotomy(sys: RelationalSystem, t: SelfMap) -> DichotomyReport:
    """For every non-fixed x, inspect the ball at x of level grade(x, Tx).

    Hypotheses (per-level transitivity, grade preservation) are verified
    and reported; the scan runs either way.

    One ball lives below the window: at level lo - 1 every ball is the
    whole ground set, which counts as a minimal invariant ball when every
    point moves at grade exactly lo - 1.  The dichotomy test recognizes it
    even though minimal_invariant_balls only enumerates window levels.
    """
    a = _analysis(sys, t)
    unmet = a.unmet()
    n = sys.n
    entries = tuple(
        DichotomyEntry(x, lev, PointSet(n, bits), outcome, witness)
        for x, lev, bits, outcome, witness in a.dichotomy
    )
    return DichotomyReport(not unmet, tuple(unmet), entries)


VARIANTS = ("regular", "asymptotic")


@dataclass(frozen=True)
class InvariantBallReport:
    ball: PointSet
    names: tuple[tuple[int, int], ...]
    fixed_inside: PointSet

    @property
    def contains_fixed(self) -> bool:
        return not self.fixed_inside.is_empty


@dataclass(frozen=True)
class RegularFixedPointReport:
    variant: str
    hypotheses_met: bool
    unmet: tuple[str, ...]
    balls: tuple[InvariantBallReport, ...]
    verdict: str  # confirmed | falsified | vacuous


def _regular_unmet(sys: RelationalSystem, t: SelfMap, variant: str) -> list[str]:
    """The unmet hypotheses of regular_fixed_point, read without its balls:
    transitivity, grade preservation, then the growth property at each
    non-fixed point, in point order."""
    if variant not in VARIANTS:
        raise UsageError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    a = _analysis(sys, t)
    unmet = a.unmet()
    for rep in a.regularity:
        if rep.is_fixed:
            continue
        ok = rep.regular if variant == "regular" else rep.asymptotically_regular
        if not ok:
            unmet.append(f"{variant}@{rep.point}")
    return unmet


def regular_fixed_point(
    sys: RelationalSystem, t: SelfMap, variant: str = "regular"
) -> RegularFixedPointReport:
    """Check that every map-invariant ball contains a fixed point, under
    per-level transitivity, grade preservation, and the chosen growth
    property at every non-fixed point.

    Unmet hypotheses turn the verdict vacuous; the balls are scanned and
    reported regardless.  Both variants share the analysis's orbits and
    invariant balls.
    """
    unmet = _regular_unmet(sys, t, variant)
    balls = _analysis(sys, t).invariant_balls
    if unmet:
        verdict = "vacuous"
    elif all(b.contains_fixed for b in balls):
        verdict = "confirmed"
    else:
        verdict = "falsified"
    return RegularFixedPointReport(variant, not unmet, tuple(unmet), balls, verdict)
