"""Seeded generation of systems and maps, plus a claim falsifier.

Generation is reproducible from the seed alone.  Every draw takes exactly
the bits random.Random would take for it: the point count and window
(randint), each image of an any-kind map (randrange) and each image the
grade-preserving search picks (choice) through _below, and each pair's
grade (randint) through the same loop inlined.  The search's point
orders are shuffled by random.Random.shuffle itself.

Constrained systems are repaired in one pass over the level relations,
from the window top down: level k keeps its drawn pairs and takes in the
square (r9) or cube (r10) of the repaired level k + 1, or the transitive
closure of both (transitive), and each pair's grade becomes the highest
level it first appears in.  Grades only rise, and the result is the
least repair above the drawn grades: any system obeying the constraint
with grades at least the drawn ones holds, by induction from the top,
every repaired level inside its own.  The transitive repair reaches the
same grades by single linkage, in one sorted pass over the drawn pairs.
The postcondition is still re-verified.

The hull-equivalence claim rebuilds both admissible families from metric
balls computed from distances, not from the level table: each trial
computes its balls in one _metric_balls call, largest radius first at
each center, and closes them once with the same intersection closure as
the graded route.  The eq1-roundtrip claim reads each distance once per
trial, through _reconstruct_levels.  The two regular fixed-point claims
settle vacuity from dynamics._regular_unmet first, so a vacuous trial
builds no invariant ball.

The map claims and the normal-structure claim decide on the masks their
library routines compute, and a trial builds no public report: the
regular claims read the map analysis's invariant ball masks against its
fixed points, the KS claim its hypotheses and its dichotomy tuples, and
the normal-structure claim the witness mask of hulls._flat_witness in
each mode.  A failing trial words its locus from the same masks, as the
reports would name it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .dynamics import (
    OUTCOME_NEITHER,
    _analysis,
    _regular_unmet,
    is_homomorphism,
    is_nonexpansive,
)
from .errors import UsageError
from .hulls import (
    ARBITRARY_CENTER,
    PAPER_COV,
    _ball_index,
    _flat_witness,
    _intersection_closure,
    admissible_family_bits,
    normality_criteria,
)
from .pointset import PointSet, SelfMap, identity_map, iter_bits
from .relations import (
    Grade,
    GradeMatrix,
    RelationalSystem,
    TOP,
    Window,
    _compose_rows,
    _exact_grade_rows,
    check_axiom,
    default_labels,
)
from .semimetric import (
    _metric_balls,
    _reconstruct_levels,
    classify,
    minimal_inframetric_constant,
)
from .dyadic import DyadicValue

CONSTRAINTS = ("none", "r9", "r10", "transitive")
MAP_KINDS = ("any", "homomorphism")

VACUOUS = "__vacuous__"


@dataclass(frozen=True)
class GenParams:
    point_count: tuple[int, int] = (2, 6)
    window_span: tuple[int, int] = (1, 5)
    window_lo: tuple[int, int] = (-2, 2)
    constraint: str = "none"
    map_kind: str = "any"

    def __post_init__(self):
        if self.constraint not in CONSTRAINTS:
            raise UsageError(f"unknown constraint {self.constraint!r}")
        if self.map_kind not in MAP_KINDS:
            raise UsageError(f"unknown map kind {self.map_kind!r}")
        for name, (a, b) in (
            ("point_count", self.point_count),
            ("window_span", self.window_span),
            ("window_lo", self.window_lo),
        ):
            if a > b:
                raise UsageError(f"empty {name} range ({a}, {b})")
        if self.point_count[0] < 1:
            raise UsageError("point count must be at least 1")
        if self.window_span[0] < 1:
            raise UsageError("window span must be at least 1")


def _repair(entries: list[list[Grade]], window: Window, constraint: str) -> None:
    """Raise grades to the least ones whose level relations obey the constraint.

    r9 and r10 take one pass from the window top down: with R_k the drawn
    level-k relation and R'_{hi+1} the diagonal, the repaired level k is
    R_k together with R'_{k+1} squared (r9) or cubed (r10), and each pair
    takes the highest level it first appears in.  The transitive closure of
    that pass gives each pair its bottleneck grade, which
    _repair_transitive computes by single linkage.
    """
    if constraint == "none":
        return
    if constraint == "transitive":
        _repair_transitive(entries, window.lo)
        return
    n = len(entries)
    below = window.below
    # exact[k - below][x]: the points drawn at grade exactly k against x;
    # a reflexive R'_{k+1} holds every pair drawn above k, so R_k adds only these
    exact = _exact_grade_rows(entries, below, window.above - below)
    level = [1 << x for x in range(n)]
    for k in range(window.hi, below, -1):
        power = _compose_rows(level, level)
        if constraint == "r10":
            power = _compose_rows(power, level)
        rows = [p | e for p, e in zip(power, exact[k - below])]
        # pairs first met at level k get grade k
        for x, (new, old) in enumerate(zip(rows, level)):
            first, row = new & ~old, entries[x]
            while first:
                low = first & -first
                row[low.bit_length() - 1] = k
                first ^= low
        level = rows


def _repair_transitive(entries: list[list[Grade]], lo: int) -> None:
    """Give each pair the highest grade k at which a chain of drawn pairs,
    each at grade >= k, joins it: single linkage (Gower & Ross 1969).

    The pairs drawn at lo or above are taken highest grade first; a pair
    that joins two classes A and B at grade g gives every pair across
    A x B grade g, since no chain above g joined them.  Pairs that no
    chain joins keep their drawn grade, which is then below the window.
    """
    n = len(entries)
    drawn = sorted(
        (
            (row[y], x, y)
            for x, row in enumerate(entries)
            for y in range(x + 1, n)
            if row[y] >= lo
        ),
        reverse=True,
    )
    # each point's class, one list shared by its members
    cls = [[x] for x in range(n)]
    for g, x, y in drawn:
        a, b = cls[x], cls[y]
        if a is b:
            continue
        for p in a:
            row = entries[p]
            for q in b:
                row[q] = entries[q][p] = g
        a += b
        for q in b:
            cls[q] = a


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """A draw from range(n) that takes the bits random.Random._randbelow
    takes: n.bit_length() bits at a time until the value falls below n."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def gen_system(seed: int, params: GenParams = GenParams()) -> RelationalSystem:
    """Deterministic random system honoring the requested constraint.

    The point count, the window bottom and its span take the bits three
    randint calls would, through _below; each pair's grade in [lo - 1, hi]
    then takes the bits a randint(lo - 1, hi) call would, so the stream,
    and every system, match randint draws.  _repair then raises the grades
    to the least ones obeying the constraint.
    """
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    (n0, n1), (lo0, lo1), (s0, s1) = params.point_count, params.window_lo, params.window_span
    n = n0 + _below(getrandbits, n1 - n0 + 1)
    lo = lo0 + _below(getrandbits, lo1 - lo0 + 1)
    hi = lo + s0 + _below(getrandbits, s1 - s0 + 1)
    window = Window(lo, hi)
    entries: list[list[Grade]] = [[TOP] * n for _ in range(n)]
    # each grade as _below(getrandbits, width) draws it, with k computed once
    width = hi - lo + 2
    k = width.bit_length()
    for x in range(n):
        row = entries[x]
        for y in range(x + 1, n):
            r = getrandbits(k)
            while r >= width:
                r = getrandbits(k)
            row[y] = entries[y][x] = lo - 1 + r
    _repair(entries, window, params.constraint)
    sys = RelationalSystem(default_labels(n), window, GradeMatrix.from_rows(entries))
    if params.constraint != "none":
        report = check_axiom(sys, params.constraint)
        if not report.holds:  # pragma: no cover - repair is exhaustive
            raise RuntimeError(f"repair left {params.constraint} violated: {report.witness}")
    return sys


def gen_self_map(seed: int, sys: RelationalSystem, map_kind: str = "any") -> SelfMap:
    """Deterministic random self-map; grade-preserving kind by greedy search.

    Images are assigned in a random point order, each drawn from the
    candidates compatible with all already-assigned pairs, so a completed
    map keeps every pair's grade (the matrix is symmetric, so checking
    each pair once, when its second point is assigned, covers it); dead
    ends restart with fresh randomness, and after 64 failed attempts the
    identity (always grade-preserving) is returned.  The candidates for x
    are the AND over assigned y of the level-g(x, y) row of T(y), read
    straight from the system's level table, so a system whose table would
    pass LEVEL_TABLE_CAP raises ResourceLimitError.  Each image takes the
    bits a randrange (any kind) or choice (grade-preserving kind) call
    would, through _below; the orders are shuffled by rng.shuffle.

    On a transitive system no order dead-ends, so the catalog's map claims
    never restart: for the assigned y* with the highest grade to x and any
    assigned y, g(T(y*), T(y)) >= g(y*, y) >= min(g(y*, x), g(x, y)) =
    g(x, y), so T(y*) is a candidate for x.
    """
    if map_kind not in MAP_KINDS:
        raise UsageError(f"unknown map kind {map_kind!r}")
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    n = sys.n
    if map_kind == "any":
        # each image as _below(getrandbits, n) draws it, with k computed once
        k, image = n.bit_length(), []
        for _ in range(n):
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            image.append(r)
        return SelfMap(tuple(image))

    # off-diagonal grades lie in [below, hi], inside the table
    table, below = sys.level_table(), sys.window.below
    everyone = (1 << n) - 1
    for _ in range(64):
        order = list(range(n))
        rng.shuffle(order)
        image: dict[int, int] = {}
        for x in order:
            grades, mask = sys.grades.entries[x], everyone
            for y, ty in image.items():
                mask &= table[grades[y] - below][ty]
            if not mask:
                break
            candidates = list(iter_bits(mask))
            image[x] = candidates[_below(getrandbits, len(candidates))]
        else:
            return SelfMap(tuple(image[x] for x in range(n)))
    return identity_map(n)


# ---------------------------------------------------------------------------
# claim catalog

CheckFn = Callable[[RelationalSystem, Optional[SelfMap]], Optional[str]]


@dataclass(frozen=True)
class Claim:
    claim_id: str
    description: str
    needs_map: bool
    params: GenParams
    check: CheckFn


def _check_eq1(sys, _t):
    levels = range(sys.window.below, sys.window.above + 1)
    for n, rows in zip(levels, _reconstruct_levels(sys, levels)):
        if rows != sys.level_rows(n):
            return f"level {n} disagrees between distance and grade routes"
    return None


def _check_homo_iff_nonexp(sys, t):
    hom = is_homomorphism(sys, t)
    non = is_nonexpansive(sys, t)
    if hom.holds != non.holds:
        return f"predicates disagree: homomorphism={hom.holds} nonexpansive={non.holds}"
    if not hom.holds and hom.witness[:2] != non.witness[:2]:
        return f"witness pairs disagree: {hom.witness[:2]} vs {non.witness[:2]}"
    return None


def _check_r9_constant(sys, _t):
    if sys.n < 2 or not check_axiom(sys, "r9").holds:
        return VACUOUS
    c = minimal_inframetric_constant(sys)
    if c > DyadicValue.pow2(1):
        return f"inframetric constant {c} exceeds 2"
    return None


def _check_r10_metric(sys, _t):
    if not check_axiom(sys, "r10").holds:
        return VACUOUS
    rep = classify(sys)
    if not rep.triangle_holds:
        w = rep.triangle_witness
        return (
            f"triangle fails at ({w.x}, {w.z}, {w.y}): "
            f"{w.d_xy} > {w.d_xz} + {w.d_zy}"
        )
    return None


def _check_transitive_ultra(sys, _t):
    if not check_axiom(sys, "transitive").holds:
        return VACUOUS
    rep = classify(sys)
    if not rep.strong_triangle_holds:
        w = rep.strong_triangle_witness
        return f"strong triangle fails at ({w.x}, {w.z}, {w.y})"
    return None


def _check_ks(sys, t):
    # ks_dichotomy's entries as the analysis holds them, before any report
    a = _analysis(sys, t)
    if a.unmet():
        return VACUOUS
    for x, lev, _bits, outcome, _witness in a.dichotomy:
        if outcome == OUTCOME_NEITHER:
            return f"ball at ({x}, level {lev}) has neither branch"
    return None


def _check_regular_fp(variant):
    # vacuity is settled before any ball is built, and the invariant balls
    # are read as masks, so a trial builds no regular_fixed_point report
    def check(sys, t):
        if _regular_unmet(sys, t, variant):
            return VACUOUS
        a = _analysis(sys, t)
        fixed = a.fixed
        for bits in a.invariant_ball_bits:
            if not bits & fixed:
                return f"invariant ball {tuple(iter_bits(bits))} holds no fixed point"
        return None

    return check


def _check_no_normal_structure(sys, _t):
    # check_normal_structure's witness as a mask, 0 when it reports normal
    # structure; no hull or radii report is built
    if sys.n < 2:
        return VACUOUS
    for mode in (PAPER_COV, ARBITRARY_CENTER):
        if not _flat_witness(sys, mode):
            return f"normal structure reported to hold in {mode} mode"
    return None


def _check_hull_equivalence(sys, _t):
    """Both modes' graded families against the ones metric balls generate,
    arbitrary-center first; the metric balls are computed and closed once
    for both modes."""
    rng = random.Random(sys.n * 1009 + sys.window.lo)
    metric = _metric_ball_families(sys, _breakpoint_radii(sys, rng))
    for mode in (ARBITRARY_CENTER, PAPER_COV):
        if admissible_family_bits(sys, mode) != metric[mode]:
            return f"admissible families disagree in {mode} mode"
    return None


def _check_radii_translation(sys, _t):
    # the arbitrary-center family is the closure itself: no column pass
    # needed; normality_criteria raises on the first set its routes disagree on
    for bits in _intersection_closure(_ball_index(sys)):
        normality_criteria(sys, PointSet(sys.n, bits))
    return None


def _breakpoint_radii(sys, rng):
    radii = [
        DyadicValue.pow2(-n).as_fraction()
        for n in range(sys.window.below, sys.window.above + 1)
    ]
    lo_r = DyadicValue.pow2(-sys.window.above).as_fraction()
    hi_r = DyadicValue.pow2(-sys.window.below).as_fraction()
    for _ in range(3):
        num = rng.randint(1, 100)
        den = rng.randint(num, num * 7)
        r = Fraction(num, den) * hi_r
        if r >= lo_r:
            radii.append(r)
    return radii


def _metric_ball_families(sys, radii):
    """Both admissible families rebuilt from one metric ball per center and
    distinct radius, by mode.

    Each center's balls are listed from the largest radius down, a
    shrinking chain, so the closure intersects each ball after the first
    with the trace of the one before.  The balls are closed once: the
    arbitrary-center family is the closure, and the paper-cov family keeps
    the members equal to the intersection of the smallest sampled ball
    covering them at each of their centers.
    """
    radii = sorted(set(radii), reverse=True)
    balls = _metric_balls(sys, range(sys.n), radii)
    family = _intersection_closure([b for row in balls for b in row])

    full = (1 << sys.n) - 1
    kept = set()
    for bits in family:
        cov = full
        for x in iter_bits(bits):
            # the smallest sampled ball at x that covers the set
            cov &= next((b for b in reversed(balls[x]) if bits & ~b == 0), full)
        if cov == bits:
            kept.add(bits)
    return {ARBITRARY_CENTER: frozenset(family), PAPER_COV: frozenset(kept)}


def _claims() -> dict[str, Claim]:
    small = GenParams(point_count=(2, 6), window_span=(1, 5))
    tiny = GenParams(point_count=(2, 5), window_span=(1, 4))
    maps = GenParams(
        point_count=(2, 6),
        window_span=(1, 5),
        constraint="transitive",
        map_kind="homomorphism",
    )
    return {
        c.claim_id: c
        for c in (
            Claim(
                "eq1-roundtrip",
                "distance threshold sets equal grade level sets at every level",
                False,
                GenParams(point_count=(2, 7), window_span=(1, 6)),
                _check_eq1,
            ),
            Claim(
                "thm-homo-iff-nonexp",
                "grade preservation and nonexpansiveness coincide, witnesses included",
                True,
                small,
                _check_homo_iff_nonexp,
            ),
            Claim(
                "prop-r9-2-inframetric",
                "two-step composition law bounds the inframetric constant by 2",
                False,
                GenParams(point_count=(3, 6), window_span=(2, 6), constraint="r9"),
                _check_r9_constant,
            ),
            Claim(
                "prop-r10-metric",
                "three-step composition law forces the triangle inequality",
                False,
                GenParams(point_count=(3, 5), window_span=(2, 6), constraint="r10"),
                _check_r10_metric,
            ),
            Claim(
                "transitive-ultrametric",
                "per-level transitivity makes the distance an ultrametric",
                False,
                GenParams(point_count=(3, 6), window_span=(1, 5), constraint="transitive"),
                _check_transitive_ultra,
            ),
            Claim(
                "thm-ks-dichotomy",
                "step balls contain a fixed point or a minimal invariant ball",
                True,
                maps,
                _check_ks,
            ),
            Claim(
                "thm-regular-fp",
                "regular maps leave a fixed point in every invariant ball",
                True,
                maps,
                _check_regular_fp("regular"),
            ),
            Claim(
                "thm-asymptotic-fp",
                "asymptotically regular maps leave a fixed point in every invariant ball",
                True,
                maps,
                _check_regular_fp("asymptotic"),
            ),
            Claim(
                "finite-normal-structure-exists",
                "some finite system has normal structure (expected: never)",
                False,
                tiny,
                _check_no_normal_structure,
            ),
            Claim(
                "hull-equivalence",
                "metric balls and graded balls generate the same admissible family",
                False,
                GenParams(point_count=(2, 6), window_span=(1, 4)),
                _check_hull_equivalence,
            ),
            Claim(
                "radii-translation",
                "grade, distance, and level-set normality criteria agree per set",
                False,
                GenParams(point_count=(2, 6), window_span=(1, 4)),
                _check_radii_translation,
            ),
        )
    }


CLAIMS: dict[str, Claim] = _claims()


@dataclass(frozen=True)
class Counterexample:
    system: RelationalSystem
    selfmap: Optional[SelfMap]
    locus: str
    trial_index: int


@dataclass(frozen=True)
class Verdict:
    claim_id: str
    trials: int
    outcome: str  # "counterexample" | "no-counterexample"
    instance: Optional[Counterexample]
    seed: int
    vacuous_trials: int = 0


def _trial_seed(seed: int, index: int) -> int:
    return (seed * 6364136223846793005 + index * 1442695040888963407) % (1 << 63)


def falsify(
    claim_id: str,
    trials: int,
    seed: int,
    params: Optional[GenParams] = None,
) -> Verdict:
    """Hunt for a counterexample to a cataloged claim.

    Trials run in seed order and stop at the first failure, which is then
    shrunk; vacuous trials (hypotheses unmet by the generated instance) are
    counted separately.
    """
    claim = CLAIMS.get(claim_id)
    if claim is None:
        raise UsageError(
            f"unknown claim {claim_id!r}; expected one of {sorted(CLAIMS)}"
        )
    if trials < 1:
        raise UsageError(f"trials must be at least 1, got {trials}")
    gen = params if params is not None else claim.params
    vacuous = 0
    for i in range(trials):
        ts = _trial_seed(seed, i)
        sys = gen_system(ts, gen)
        t = gen_self_map(ts ^ 0xA5A5, sys, gen.map_kind) if claim.needs_map else None
        result = claim.check(sys, t)
        if result is None:
            continue
        if result == VACUOUS:
            vacuous += 1
            continue
        sys, t = shrink(sys, t, lambda s, m: claim.check(s, m) not in (None, VACUOUS))
        locus = claim.check(sys, t) or result
        return Verdict(
            claim_id,
            trials,
            "counterexample",
            Counterexample(sys, t, locus, i),
            seed,
            vacuous,
        )
    return Verdict(claim_id, trials, "no-counterexample", None, seed, vacuous)


def _remove_point(
    sys: RelationalSystem, t: Optional[SelfMap], p: int
) -> Optional[tuple[RelationalSystem, Optional[SelfMap]]]:
    if sys.n <= 1:
        return None
    if t is not None:
        if any(t.image[q] == p for q in range(sys.n) if q != p):
            return None
    keep = [q for q in range(sys.n) if q != p]
    remap = {q: i for i, q in enumerate(keep)}
    entries = tuple(
        tuple(sys.grades.entries[a][b] for b in keep) for a in keep
    )
    reduced = RelationalSystem(
        tuple(sys.labels[q] for q in keep),
        sys.window,
        GradeMatrix(len(keep), entries),
    )
    reduced_t = (
        SelfMap(tuple(remap[t.image[q]] for q in keep)) if t is not None else None
    )
    return reduced, reduced_t


def _narrow_window(
    sys: RelationalSystem, side: str
) -> Optional[RelationalSystem]:
    lo, hi = sys.window.lo, sys.window.hi
    if lo == hi:
        return None
    new_lo, new_hi = (lo + 1, hi) if side == "lo" else (lo, hi - 1)
    win = Window(new_lo, new_hi)
    entries = []
    for x in range(sys.n):
        row = []
        for y in range(sys.n):
            g = sys.grades.entries[x][y]
            if x == y:
                row.append(TOP)
            else:
                row.append(min(max(g, new_lo - 1), new_hi))
        entries.append(tuple(row))
    return RelationalSystem(sys.labels, win, GradeMatrix(sys.n, tuple(entries)))


def _lower_grade(sys: RelationalSystem, x: int, y: int) -> Optional[RelationalSystem]:
    g = sys.grades.entries[x][y]
    assert isinstance(g, int)
    if g <= sys.window.below:
        return None
    entries = [list(row) for row in sys.grades.entries]
    entries[x][y] = g - 1
    entries[y][x] = g - 1
    return RelationalSystem(
        sys.labels, sys.window, GradeMatrix(sys.n, tuple(tuple(r) for r in entries))
    )


def shrink(
    sys: RelationalSystem,
    t: Optional[SelfMap],
    still_fails: Callable[[RelationalSystem, Optional[SelfMap]], bool],
) -> tuple[RelationalSystem, Optional[SelfMap]]:
    """Greedy minimization: drop points, then narrow the window, then lower
    grades, keeping every step that still fails; the order is fixed so the
    result is reproducible."""
    progress = True
    while progress:
        progress = False

        p = 0
        while p < sys.n:
            reduced = _remove_point(sys, t, p)
            if reduced is not None and still_fails(*reduced):
                sys, t = reduced
                progress = True
            else:
                p += 1

        for side in ("lo", "hi"):
            while True:
                narrowed = _narrow_window(sys, side)
                if narrowed is not None and still_fails(narrowed, t):
                    sys = narrowed
                    progress = True
                else:
                    break

        for x in range(sys.n):
            for y in range(x + 1, sys.n):
                while True:
                    lowered = _lower_grade(sys, x, y)
                    if lowered is not None and still_fails(lowered, t):
                        sys = lowered
                        progress = True
                    else:
                        break
    return sys, t
