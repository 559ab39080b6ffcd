"""Self-maps over graded systems: grade preservation, orbits, fixed points.

A map is grade-preserving when no pair's grade drops under it, which for
the induced distance is exactly nonexpansiveness; both predicates are
implemented against their own arithmetic so they can be compared.  The
ball scans of the dichotomy read the rows of the system's level table
directly.  The invariant-ball scan of the fixed-point theorems tests each
distinct ball of the system's ball index (hulls._ball_index) once and
reports it under every (center, level) pair that names it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .dyadic import DyadicValue
from .errors import PreconditionError, StructuralInputError, UsageError
from .hulls import PAPER_COV, AdmissibleSet, DEFAULT_SET_CAP, _ball_index, _family, hull
from .pointset import PointSet, iter_bits
from .relations import Grade, RelationalSystem, Top, check_axiom
from .semimetric import delta


@dataclass(frozen=True)
class SelfMap:
    """Total map on {0..n-1}, stored as the image tuple."""

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        for x, y in enumerate(self.image):
            if not 0 <= y < n:
                raise StructuralInputError(
                    f"image of {x} is {y}, outside the {n}-point ground set"
                )

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, x: int) -> int:
        if not 0 <= x < self.n:
            raise IndexError(f"point {x} out of range for {self.n} points")
        return self.image[x]


def identity_map(n: int) -> SelfMap:
    return SelfMap(tuple(range(n)))


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
    for x in range(sys.n):
        for y in range(x + 1, sys.n):
            g = sys.grades.entries[x][y]
            g_img = sys.grades.entries[t.image[x]][t.image[y]]
            if not g_img >= g:
                return MapCheck(False, (x, y, g, g_img))
    return MapCheck(True)


def is_nonexpansive(sys: RelationalSystem, t: SelfMap) -> MapCheck:
    """No pair's distance may grow, decided in exact dyadic arithmetic.

    Independent of is_homomorphism; the two must agree on every input.
    Witness carries (x, y, delta(x, y), delta(Tx, Ty)).
    """
    _check_sizes(sys, t)
    for x in range(sys.n):
        for y in range(x + 1, sys.n):
            d = delta(sys, x, y)
            d_img = delta(sys, t.image[x], t.image[y])
            if d_img > d:
                return MapCheck(False, (x, y, d, d_img))
    return MapCheck(True)


def fixed_points(sys: RelationalSystem, t: SelfMap) -> PointSet:
    _check_sizes(sys, t)
    return PointSet.of(sys.n, (x for x in range(sys.n) if t.image[x] == x))


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
    _check_sizes(sys, t)
    if not 0 <= x < sys.n:
        raise IndexError(f"point {x} out of range for {sys.n} points")
    seq = [x]
    seen = {x: 0}
    while True:
        nxt = t.image[seq[-1]]
        if nxt in seen:
            start = seen[nxt]
            break
        seen[nxt] = len(seq)
        seq.append(nxt)
    trace = tuple(sys.grades.entries[p][t.image[p]] for p in seq)
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
    orb = orbit(sys, t, x)
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


def _maps_into_itself(t: SelfMap, bits: int) -> bool:
    """Whether the map sends every member of the set back into the set."""
    img = 0
    for p in iter_bits(bits):
        img |= 1 << t.image[p]
    return img & ~bits == 0


def minimal_invariant_admissible(
    sys: RelationalSystem, t: SelfMap
) -> tuple[AdmissibleSet, ...]:
    """Inclusion-minimal paper-cov admissible sets closed under the map,
    canonically ordered.

    Requires a grade-preserving map; singleton results are exactly the
    fixed points.
    """
    hom = is_homomorphism(sys, t)
    if not hom.holds:
        raise PreconditionError(
            f"map is not grade-preserving at pair {hom.witness[:2]}", hom.witness
        )
    family = _family(sys, PAPER_COV, DEFAULT_SET_CAP)
    invariant = [bits for bits in family if _maps_into_itself(t, bits)]
    return tuple(
        hull(sys, PointSet(sys.n, a))
        for a in invariant
        if not any(b != a and b & ~a == 0 for b in invariant)
    )


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
    _check_sizes(sys, t)
    steps = [sys.grades.entries[p][t.image[p]] for p in range(sys.n)]
    out = []
    for x, lev in enumerate(steps):
        if not sys.window.lo <= lev <= sys.window.hi:
            continue
        bits = sys.level_rows(lev)[x]
        if _maps_into_itself(t, bits) and all(steps[p] == lev for p in iter_bits(bits)):
            out.append((x, lev))
    return tuple(out)


def _unmet_hypotheses(sys: RelationalSystem, t: SelfMap) -> list[str]:
    """Which of per-level transitivity and grade preservation fail."""
    _check_sizes(sys, t)
    unmet = []
    if not check_axiom(sys, "transitive").holds:
        unmet.append("transitive")
    if not is_homomorphism(sys, t).holds:
        unmet.append("homomorphism")
    return unmet


OUTCOME_FIXED = "contains-fixed-point"
OUTCOME_MINIMAL_BALL = "contains-minimal-invariant-ball"
OUTCOME_NEITHER = "NEITHER"


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
    unmet = _unmet_hypotheses(sys, t)
    fixed = fixed_points(sys, t)
    mib_sets = [
        (c, lev, sys.level_rows(lev)[c]) for c, lev in minimal_invariant_balls(sys, t)
    ]

    entries = []
    for x in range(sys.n):
        if t.image[x] == x:
            continue
        lev = sys.grades.entries[x][t.image[x]]
        assert isinstance(lev, int)
        b = PointSet(sys.n, sys.level_rows(lev)[x])
        if b.bits & fixed.bits:
            w = next(iter_bits(b.bits & fixed.bits))
            entries.append(DichotomyEntry(x, lev, b, OUTCOME_FIXED, (w,)))
            continue
        hit = next(
            ((c, ml) for c, ml, bits in mib_sets if bits & ~b.bits == 0), None
        )
        if hit is None and lev == sys.window.below:
            if all(
                sys.grades.entries[p][t.image[p]] == lev for p in range(sys.n)
            ):
                hit = (x, lev)
        if hit is not None:
            entries.append(DichotomyEntry(x, lev, b, OUTCOME_MINIMAL_BALL, hit))
        else:
            entries.append(DichotomyEntry(x, lev, b, OUTCOME_NEITHER, None))
    return DichotomyReport(not unmet, tuple(unmet), tuple(entries))


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


def regular_fixed_point(
    sys: RelationalSystem, t: SelfMap, variant: str = "regular"
) -> RegularFixedPointReport:
    """Check that every map-invariant ball contains a fixed point, under
    per-level transitivity, grade preservation, and the chosen growth
    property at every non-fixed point.

    Unmet hypotheses turn the verdict vacuous; the balls are scanned and
    reported regardless.
    """
    if variant not in VARIANTS:
        raise UsageError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    unmet = _unmet_hypotheses(sys, t)
    for x in range(sys.n):
        if t.image[x] == x:
            continue
        rep = regularity_report(sys, t, x)
        ok = rep.regular if variant == "regular" else rep.asymptotically_regular
        if not ok:
            unmet.append(f"{variant}@{x}")

    fixed = fixed_points(sys, t)
    balls = tuple(
        InvariantBallReport(
            PointSet(sys.n, bits), names, PointSet(sys.n, bits & fixed.bits)
        )
        for bits, names in sorted(_ball_index(sys).items())
        if _maps_into_itself(t, bits)
    )
    if unmet:
        verdict = "vacuous"
    elif all(b.contains_fixed for b in balls):
        verdict = "confirmed"
    else:
        verdict = "falsified"
    return RegularFixedPointReport(variant, not unmet, tuple(unmet), balls, verdict)
