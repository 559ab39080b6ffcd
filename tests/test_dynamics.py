"""Self-maps: orbits, regularity, invariant structure, and the dichotomy."""

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from gradedrel import (
    ARBITRARY_CENTER,
    DyadicValue,
    PAPER_COV,
    PreconditionError,
    ResourceLimitError,
    ball,
    SelfMap,
    StructuralInputError,
    TOP,
    UsageError,
    enumerate_admissible,
    fixed_points,
    gen_self_map,
    identity_map,
    is_homomorphism,
    is_nonexpansive,
    ks_dichotomy,
    make_system,
    minimal_invariant_admissible,
    minimal_invariant_balls,
    orbit,
    regular_fixed_point,
    regularity_report,
)
from gradedrel import dynamics, hulls
from gradedrel.dynamics import OUTCOME_FIXED, OUTCOME_MINIMAL_BALL, _analysis
from gradedrel.harness import GenParams, gen_system
from gradedrel.hulls import _ball_index, _family, _hull_mask

from oracles import (
    _brute_invariant_balls,
    _brute_minimal_balls,
    _brute_offsets,
    _family_walk,
    _maps_into_itself,
)
from strategies import CHAIN_HEAVY, examples, small_systems


@st.composite
def systems_with_maps(draw):
    sys = draw(small_systems())
    image = draw(
        st.tuples(*[st.integers(0, sys.n - 1) for _ in range(sys.n)])
    )
    return sys, SelfMap(image)


class TestSelfMap:
    def test_rejects_out_of_range_image(self):
        with pytest.raises(StructuralInputError):
            SelfMap((0, 2))

    def test_call(self, swap):
        assert swap(0) == 1
        with pytest.raises(IndexError):
            swap(2)

    def test_identity(self):
        assert identity_map(3).image == (0, 1, 2)

    def test_size_mismatch_rejected(self, twins, reflection):
        with pytest.raises(StructuralInputError):
            is_homomorphism(twins, reflection)


class TestHomomorphism:
    def test_reflection_preserves_grades(self, grid, reflection):
        assert is_homomorphism(grid, reflection).holds
        assert is_nonexpansive(grid, reflection).holds
        assert is_homomorphism(grid, reflection).witness is None

    def test_collapse_map_witness(self, grid):
        t = SelfMap((0, 0, 0, 0, 4))
        hom = is_homomorphism(grid, t)
        assert not hom.holds
        assert hom.witness == (2, 4, 1, 0)
        # (3, 4) violates as well but (2, 4) comes first in index order
        assert grid.grades.entries[3][4] == 2
        assert grid.grades.entries[t.image[3]][t.image[4]] == 0

    def test_nonexpansive_witness_in_distances(self, grid):
        t = SelfMap((0, 0, 0, 0, 4))
        nxp = is_nonexpansive(grid, t)
        assert not nxp.holds
        assert nxp.witness == (2, 4, DyadicValue.pow2(-1), DyadicValue.pow2(0))

    @given(systems_with_maps())
    @settings(max_examples=150)
    def test_agrees_with_nonexpansive(self, sys_map):
        sys, t = sys_map
        hom = is_homomorphism(sys, t)
        nxp = is_nonexpansive(sys, t)
        assert hom.holds == nxp.holds
        if not hom.holds:
            assert hom.witness[:2] == nxp.witness[:2]


class TestOrbits:
    def test_fixed_points(self, grid, reflection, chain, successor):
        assert fixed_points(grid, reflection).members() == (2,)
        assert fixed_points(chain, successor).members() == (5,)
        assert fixed_points(chain, identity_map(6)).members() == tuple(range(6))

    def test_reflection_two_cycle(self, grid, reflection):
        orb = orbit(grid, reflection, 0)
        assert orb.tail == ()
        assert orb.cycle == (0, 4)
        assert orb.grade_trace == (0, 0)

    def test_successor_run_into_fixed_point(self, chain, successor):
        orb = orbit(chain, successor, 0)
        assert orb.tail == (0, 1, 2, 3, 4)
        assert orb.cycle == (5,)
        assert orb.grade_trace == (0, 1, 2, 3, 4, TOP)

    def test_orbit_of_fixed_point(self, chain, successor):
        orb = orbit(chain, successor, 5)
        assert orb.tail == ()
        assert orb.cycle == (5,)
        assert orb.grade_trace == (TOP,)

    def test_out_of_range(self, chain, successor):
        with pytest.raises(IndexError):
            orbit(chain, successor, 6)

    def test_negative_point_out_of_range(self, chain, successor):
        # not read from the end of the analysis's orbits
        with pytest.raises(IndexError, match=r"point -1 out of range for 6 points"):
            orbit(chain, successor, -1)

    @pytest.mark.parametrize("read", [orbit, regularity_report])
    def test_size_checked_before_the_point(self, twins, reflection, read):
        with pytest.raises(StructuralInputError, match="map over 5 points against a 2-point system"):
            read(twins, reflection, 7)

    @pytest.mark.parametrize("x", [6, -1])
    def test_regularity_point_out_of_range(self, chain, successor, x):
        with pytest.raises(IndexError, match=rf"point {x} out of range for 6 points"):
            regularity_report(chain, successor, x)

    @given(systems_with_maps())
    @settings(max_examples=100)
    def test_orbit_shape(self, sys_map):
        sys, t = sys_map
        for x in range(sys.n):
            orb = orbit(sys, t, x)
            seq = orb.tail + orb.cycle
            assert seq[0] == x
            assert len(orb.grade_trace) == len(seq)
            for i, p in enumerate(seq[:-1]):
                assert t.image[p] == seq[i + 1]
            assert t.image[seq[-1]] == orb.cycle[0]
            assert len(set(seq)) == len(seq)


class TestRegularity:
    def test_successor_is_asymptotically_regular(self, chain, successor):
        rep = regularity_report(chain, successor, 0)
        assert not rep.is_fixed
        assert rep.regular
        assert rep.regular_offset == 1
        assert rep.asymptotically_regular
        assert rep.asymptotic_offset == 0
        assert rep.weak_regular
        assert rep.classical_asymptotic

    def test_reflection_is_stuck(self, grid, reflection):
        rep = regularity_report(grid, reflection, 0)
        assert not rep.regular
        assert not rep.asymptotically_regular
        assert not rep.weak_regular
        assert not rep.classical_asymptotic

    def test_fixed_point_report(self, grid, reflection):
        rep = regularity_report(grid, reflection, 2)
        assert rep.is_fixed
        assert rep.regular and rep.asymptotically_regular and rep.weak_regular

    def test_swap_keeps_constant_step(self, twins, swap):
        rep = regularity_report(twins, swap, 0)
        assert not rep.regular
        assert not rep.asymptotically_regular
        assert not rep.weak_regular

    @pytest.mark.parametrize(
        "image, offsets",
        [
            # 0 and 1 swap at grade 5; 2 enters the swap at grade 3, and 3
            # steps to 2 at grade 10**8, far above every later step
            ((1, 0, 0, 2), [(None, None), (None, None), (1, None), (None, None)]),
            # the chain 0 -> 1 -> 2 -> 3 ends at the fixed point 3
            ((1, 2, 3, 3), [(2, 2), (1, 0), (1, 0), (None, None)]),
        ],
    )
    def test_offsets_in_a_wide_window(self, image, offsets):
        sys = make_system(
            ["a", "b", "c", "d"],
            (0, 10**9),
            [
                [TOP, 5, 3, 1],
                [5, TOP, 2, 2],
                [3, 2, TOP, 10**8],
                [1, 2, 10**8, TOP],
            ],
        )
        t = SelfMap(image)
        got = [regularity_report(sys, t, x) for x in range(sys.n)]
        assert [(r.regular_offset, r.asymptotic_offset) for r in got] == offsets

    @given(systems_with_maps())
    @settings(max_examples=150)
    def test_hierarchy(self, sys_map):
        sys, t = sys_map
        for x in range(sys.n):
            rep = regularity_report(sys, t, x)
            if rep.asymptotically_regular:
                assert rep.regular
            if rep.regular:
                assert rep.weak_regular
            if rep.asymptotic_offset is not None:
                assert rep.classical_asymptotic


class TestInvariantSets:
    def test_swap_minimal_admissible(self, twins, swap):
        mins = minimal_invariant_admissible(twins, swap)
        assert [m.points.members() for m in mins] == [(0, 1)]

    def test_identity_minimal_admissible_is_singletons(self, chain):
        mins = minimal_invariant_admissible(chain, identity_map(6))
        assert [m.points.members() for m in mins] == [(x,) for x in range(6)]

    def test_requires_grade_preserving_map(self, grid):
        t = SelfMap((0, 0, 0, 0, 4))
        with pytest.raises(PreconditionError) as exc:
            minimal_invariant_admissible(grid, t)
        assert "(2, 4)" in str(exc.value)

    @given(small_systems(), st.integers(min_value=0, max_value=2**32 - 1))
    @example(CHAIN_HEAVY, 5)
    @settings(max_examples=150)
    def test_minimal_invariant_members_of_the_family(self, sys, seed):
        # read from the memoised masks, the result must equal the minimal
        # invariant members of the enumerated paper-cov family
        t = gen_self_map(seed, sys, "homomorphism")
        invariant = [
            adm
            for adm in enumerate_admissible(sys)
            if all(t(x) in adm.points for x in adm.points.members())
        ]
        minimal = tuple(
            a
            for a in invariant
            if not any(b != a and b.points.subset_of(a.points) for b in invariant)
        )
        assert minimal_invariant_admissible(sys, t) == minimal

    def test_swap_minimal_balls(self, twins, swap):
        assert minimal_invariant_balls(twins, swap) == ((0, 3), (1, 3))

    def test_successor_has_no_exact_grade_balls(self, chain, successor):
        # every invariant upset mixes step grades, so none qualifies
        assert minimal_invariant_balls(chain, successor) == ()

    def test_identity_has_no_exact_grade_balls(self, twins):
        # fixed points step at grade TOP, never at a window level
        assert minimal_invariant_balls(twins, identity_map(2)) == ()

    @given(systems_with_maps())
    @settings(max_examples=100)
    def test_minimal_ball_definition(self, sys_map):
        sys, t = sys_map
        for c, lev in minimal_invariant_balls(sys, t):
            b = ball(sys, c, lev)
            assert sys.window.lo <= lev <= sys.window.hi
            for p in b.members():
                assert t.image[p] in b
                assert sys.grades.entries[p][t.image[p]] == lev


class TestDichotomy:
    def test_chain_successor_all_fixed(self, chain, successor):
        rep = ks_dichotomy(chain, successor)
        assert rep.hypotheses_met
        assert not rep.has_neither
        assert len(rep.entries) == 5
        for e in rep.entries:
            assert e.outcome == OUTCOME_FIXED
            assert e.witness == (5,)
            assert e.level == e.point

    def test_twins_swap_minimal_ball(self, twins, swap):
        rep = ks_dichotomy(twins, swap)
        assert rep.hypotheses_met
        assert [e.outcome for e in rep.entries] == [OUTCOME_MINIMAL_BALL] * 2
        assert rep.entries[0].witness == (0, 3)
        assert rep.entries[0].ball.members() == (0, 1)

    def test_all_fixed_map_yields_no_entries(self, chain):
        rep = ks_dichotomy(chain, identity_map(6))
        assert rep.hypotheses_met
        assert rep.entries == ()
        assert not rep.has_neither

    def test_below_window_ball_recognized(self):
        sys = make_system(["a", "b"], (4, 4), [[TOP, 3], [3, TOP]])
        rep = ks_dichotomy(sys, SelfMap((1, 0)))
        assert rep.hypotheses_met
        assert not rep.has_neither
        assert minimal_invariant_balls(sys, SelfMap((1, 0))) == ()
        for e in rep.entries:
            assert e.level == 3 == sys.window.below
            assert e.outcome == OUTCOME_MINIMAL_BALL
            assert e.witness == (e.point, 3)

    def test_unmet_hypotheses_reported(self, grid, reflection):
        rep = ks_dichotomy(grid, reflection)
        assert not rep.hypotheses_met
        assert rep.unmet == ("transitive",)
        # the scan still runs and the grid happens to satisfy the dichotomy
        assert all(e.outcome == OUTCOME_FIXED for e in rep.entries)


class TestRegularFixedPoint:
    def test_unknown_variant(self, chain, successor):
        with pytest.raises(UsageError):
            regular_fixed_point(chain, successor, "weak")

    def test_chain_confirmed(self, chain, successor):
        for variant in ("regular", "asymptotic"):
            rep = regular_fixed_point(chain, successor, variant)
            assert rep.hypotheses_met
            assert rep.verdict == "confirmed"
            assert all(5 in b.ball for b in rep.balls)
            assert all(b.contains_fixed for b in rep.balls)

    def test_twins_vacuous(self, twins, swap):
        rep = regular_fixed_point(twins, swap, "asymptotic")
        assert rep.verdict == "vacuous"
        assert rep.unmet == ("asymptotic@0", "asymptotic@1")
        assert len(rep.balls) == 1
        assert rep.balls[0].ball.members() == (0, 1)
        assert not rep.balls[0].contains_fixed

    def test_identity_confirmed(self, chain):
        rep = regular_fixed_point(chain, identity_map(6))
        assert rep.verdict == "confirmed"
        for b in rep.balls:
            assert b.fixed_inside == b.ball

    def test_falsified_when_an_invariant_ball_holds_no_fixed_point(
        self, chain, successor, monkeypatch
    ):
        # the theorem's failure branch, reached by breaking the ball reports
        monkeypatch.setattr(
            dynamics.InvariantBallReport, "contains_fixed", property(lambda b: False)
        )
        rep = regular_fixed_point(chain, successor, "regular")
        assert rep.hypotheses_met
        assert rep.balls
        assert rep.verdict == "falsified"

    def test_untransitive_system_vacuous(self, grid, reflection):
        rep = regular_fixed_point(grid, reflection, "regular")
        assert rep.verdict == "vacuous"
        assert "transitive" in rep.unmet
        assert "regular@0" in rep.unmet

    @given(systems_with_maps())
    @settings(max_examples=60)
    def test_ball_reports_are_invariant(self, sys_map):
        sys, t = sys_map
        rep = regular_fixed_point(sys, t)
        for b in rep.balls:
            for p in b.ball.members():
                assert t.image[p] in b.ball
            assert b.fixed_inside.subset_of(b.ball)
            for c, lev in b.names:
                assert ball(sys, c, lev) == b.ball


def _seeded_cases():
    """Transitive and unconstrained systems, with any and grade-preserving
    maps, so the invariant-ball branches are reached."""
    cases = []
    for constraint in ("none", "transitive"):
        params = GenParams(point_count=(1, 7), constraint=constraint)
        for seed in range(40):
            sys = gen_system(seed, params)
            for kind in ("any", "homomorphism"):
                cases.append((sys, gen_self_map(seed, sys, kind)))
    return cases


SEEDED = _seeded_cases()


def _check_minimal_balls(sys, t):
    assert minimal_invariant_balls(sys, t) == _brute_minimal_balls(sys, t)


def _check_invariant_balls(sys, t):
    rep = regular_fixed_point(sys, t)
    assert [(b.ball.bits, b.names) for b in rep.balls] == _brute_invariant_balls(sys, t)


def _check_offsets(sys, t):
    for x in range(sys.n):
        rep = regularity_report(sys, t, x)
        if t.image[x] == x:
            assert rep.is_fixed
            assert (rep.regular_offset, rep.asymptotic_offset) == (None, None)
            continue
        regular, asymptotic = _brute_offsets(sys, t, x)
        assert (rep.regular_offset, rep.asymptotic_offset) == (regular, asymptotic)
        assert rep.regular == (regular is not None)
        assert rep.asymptotically_regular == (asymptotic is not None)


class TestScansAreComplete:
    """Each scan equals a brute-force search over every center and level,
    so a scan that skipped a ball or an offset would fail here."""

    @pytest.mark.deep
    @given(systems_with_maps())
    @examples(150, deep=500)
    def test_minimal_balls_random(self, sys_map):
        _check_minimal_balls(*sys_map)

    @pytest.mark.deep
    @given(systems_with_maps())
    @examples(150, deep=500)
    def test_invariant_balls_random(self, sys_map):
        _check_invariant_balls(*sys_map)

    @pytest.mark.deep
    @given(systems_with_maps())
    @examples(150, deep=500)
    def test_regularity_offsets_random(self, sys_map):
        _check_offsets(*sys_map)

    @pytest.mark.deep
    @pytest.mark.parametrize(
        "check", [_check_minimal_balls, _check_invariant_balls, _check_offsets]
    )
    def test_seeded_transitive_and_grade_preserving(self, check):
        for sys, t in SEEDED:
            check(sys, t)

    @pytest.mark.deep
    def test_seeded_large_transitive_invariant_balls(self):
        # nested or disjoint balls: many (center, level) pairs per distinct ball
        params = GenParams(point_count=(24, 48), window_span=(3, 6), constraint="transitive")
        for seed in range(10):
            sys = gen_system(seed, params)
            for kind in ("any", "homomorphism"):
                _check_invariant_balls(sys, gen_self_map(seed, sys, kind))

    def test_seeded_cases_reach_every_branch(self):
        # without qualifying balls or offsets the comparisons show nothing
        assert sum(bool(minimal_invariant_balls(*c)) for c in SEEDED) >= 10
        reports = [
            regularity_report(sys, t, x)
            for sys, t in SEEDED
            for x in range(sys.n)
            if t.image[x] != x
        ]
        assert sum(r.regular_offset is not None for r in reports) >= 10
        assert sum(r.asymptotic_offset is not None for r in reports) >= 10


# ---------------------------------------------------------------------------
# the per-(system, map) analysis against the standalone functions


def _check_analysis(sys, t, order):
    """Read the analysis fields in the given order, then compare each with
    its standalone function on a fresh copy of the system."""
    a = _analysis(sys, t)
    for field in order:
        getattr(a, field)
    assert _analysis(sys, t) is a
    cold = dataclasses.replace(sys)
    assert a.hom == is_homomorphism(cold, t)
    assert a.fixed == fixed_points(cold, t).bits
    assert a.steps == tuple(sys.grades.entries[x][t.image[x]] for x in range(sys.n))
    assert a.orbits == tuple(orbit(cold, t, x) for x in range(sys.n))
    assert a.regularity == tuple(regularity_report(cold, t, x) for x in range(sys.n))
    assert a.min_balls == minimal_invariant_balls(cold, t)
    assert a.min_balls == _brute_minimal_balls(sys, t)
    assert [(b.ball.bits, b.names) for b in a.invariant_balls] == _brute_invariant_balls(sys, t)
    for b in a.invariant_balls:
        assert b.fixed_inside.bits == b.ball.bits & a.fixed
    assert a.invariant_ball_bits == tuple(b.ball.bits for b in a.invariant_balls)
    assert a.dichotomy == tuple(
        (e.point, e.level, e.ball.bits, e.outcome, e.witness)
        for e in ks_dichotomy(cold, t).entries
    )


FIELDS = (
    "steps",
    "fixed",
    "hom",
    "orbits",
    "regularity",
    "invariant_ball_bits",
    "invariant_balls",
    "min_balls",
    "dichotomy",
)


class TestMapAnalysis:
    @pytest.mark.deep
    @given(
        small_systems(),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["any", "homomorphism"]),
        st.permutations(FIELDS),
    )
    @examples(150, deep=500)
    def test_fields_equal_the_standalone_functions(self, sys, seed, kind, order):
        _check_analysis(sys, gen_self_map(seed, sys, kind), order)

    @pytest.mark.deep
    def test_seeded_fields_equal_the_standalone_functions(self):
        for sys, t in SEEDED:
            _check_analysis(sys, t, FIELDS)

    @pytest.mark.parametrize("name", FIELDS)
    def test_class_access_gives_the_descriptor(self, name):
        field = vars(dynamics._MapAnalysis)[name]
        assert isinstance(field, dynamics._field)
        assert getattr(dynamics._MapAnalysis, name) is field
        assert field.__doc__ == field.build.__doc__

    def test_one_map_per_system(self, chain, successor):
        a = _analysis(chain, successor)
        assert _analysis(chain, SelfMap(successor.image)) is a
        other = _analysis(chain, identity_map(chain.n))
        assert other is not a
        assert other.fixed == (1 << chain.n) - 1
        # the new map replaced the old one, so reading it again starts afresh
        again = _analysis(chain, successor)
        assert again is not a
        assert again.orbits == a.orbits

    def test_size_mismatch_rejected(self, twins, reflection):
        with pytest.raises(StructuralInputError):
            _analysis(twins, reflection)

    def test_public_functions_walk_each_point_once(self, chain, successor, monkeypatch):
        # orbit and regularity_report index the analysis: a loop over every
        # point walks each orbit once, whichever function reads it first
        walked = []
        real = dynamics._walk
        monkeypatch.setattr(dynamics, "_walk", lambda *a: walked.append(a[2]) or real(*a))
        for x in range(chain.n):
            rep = regularity_report(chain, successor, x)
            assert orbit(chain, successor, x).start == rep.point == x
        assert fixed_points(chain, successor).members() == (5,)
        assert sorted(walked) == list(range(chain.n))

    def test_point_reads_of_another_map_keep_the_held_analysis(
        self, chain, successor, monkeypatch
    ):
        # a point read of a map other than the held one walks that point
        # alone and leaves the held analysis in place
        walked = []
        real = dynamics._walk
        monkeypatch.setattr(dynamics, "_walk", lambda *a: walked.append(a[2]) or real(*a))
        ident = identity_map(chain.n)
        got = [(orbit(chain, t, x), t) for x in range(chain.n) for t in (successor, ident)]
        assert len(walked) == 12
        held = dynamics._held(chain, ident)[0]
        assert held.t is successor
        reports = [(regularity_report(chain, t, x), t) for x in range(chain.n) for t in (successor, ident)]
        assert len(walked) == 12 + chain.n
        assert dynamics._held(chain, ident)[0] is held
        # each value as an analysis of its own map on a fresh copy gives it
        for t in (successor, ident):
            cold = dataclasses.replace(chain)
            assert [o for o, m in got if m is t] == list(_analysis(cold, t).orbits)
            assert [r for r, m in reports if m is t] == list(_analysis(cold, t).regularity)

    def test_dichotomy_walks_no_orbit(self, chain, successor, monkeypatch):
        walked = []
        real = dynamics._walk
        monkeypatch.setattr(dynamics, "_walk", lambda *a: walked.append(a) or real(*a))
        ks_dichotomy(chain, successor)
        assert walked == []
        assert "orbits" not in vars(_analysis(chain, successor))

    def test_orbits_build_no_level_table(self):
        # a window far too wide for a level table
        sys = make_system(
            ["a", "b", "c"], (0, 10**8), [[TOP, 5, 7], [5, TOP, 9], [7, 9, TOP]]
        )
        a = _analysis(sys, SelfMap((1, 0, 0)))
        assert len(a.regularity) == 3
        assert not a.hom.holds
        assert "level-table" not in sys.__dict__["_memo"]


# ---------------------------------------------------------------------------
# minimal invariant admissible sets against the walk over the whole family


def _cycle_masks(t):
    cycles = set()
    for x in range(t.n):
        for _ in range(t.n):
            x = t.image[x]
        bits, p = 0, x
        while not bits >> p & 1:
            bits |= 1 << p
            p = t.image[p]
        cycles.add(bits)
    return cycles


def _least_closed_above(sys, t, cycle):
    """L_C read off the family: the intersection of the map-invariant
    members of the arbitrary-center family that hold the cycle."""
    out = (1 << sys.n) - 1
    for bits in _family(sys, ARBITRARY_CENTER):
        if cycle & ~bits == 0 and _maps_into_itself(t, bits):
            out &= bits
    return out


def _restricted_cycles(sys, t):
    """(C, L_C) for each cycle C whose L_C the paper-cov hull does not fix."""
    out = []
    for cycle in _cycle_masks(t):
        least = _least_closed_above(sys, t, cycle)
        if _hull_mask(sys, least, PAPER_COV)[0] != least:
            out.append((cycle, least))
    return out


def _ring(n):
    """n points on a circle, the grade falling with the circular distance:
    every rotation preserves grades, and adjacent points sit at the top of
    the window."""
    top = n // 2
    rows = [
        [TOP if x == y else top + 1 - min((x - y) % n, (y - x) % n) for y in range(n)]
        for x in range(n)
    ]
    return make_system([str(i) for i in range(n)], (0, top), rows)


def _clusters(sizes, inner, outer):
    """Clusters of points at grade inner within and outer across, so any
    map that permutes the clusters and the points inside them preserves
    grades."""
    labels = [f"{c}.{i}" for c, k in enumerate(sizes) for i in range(k)]
    owner = [c for c, k in enumerate(sizes) for _ in range(k)]
    n = len(labels)
    rows = [
        [TOP if x == y else inner if owner[x] == owner[y] else outer for y in range(n)]
        for x in range(n)
    ]
    return make_system(labels, (outer, inner), rows)


def _admissible_cases():
    """Grade-preserving maps on seeded systems of every constraint,
    CHAIN_HEAVY, and structured systems with long cycles and merged pairs
    (pairs the map sends to one point, whose image grade is TOP)."""
    cases = []
    for constraint in ("none", "r9", "transitive"):
        for point_count in ((1, 7), (5, 9)):
            params = GenParams(point_count=point_count, constraint=constraint)
            for seed in range(80):
                sys = gen_system(seed, params)
                cases.append((sys, gen_self_map(seed, sys, "homomorphism")))
    for seed in range(60):
        cases.append((CHAIN_HEAVY, gen_self_map(seed, CHAIN_HEAVY, "homomorphism")))
    for n in (5, 6, 7, 8, 9, 10, 12):
        ring = _ring(n)
        for k in range(n):
            cases.append((ring, SelfMap(tuple((x + k) % n for x in range(n)))))
            # a reflection composed with the rotation
            cases.append((ring, SelfMap(tuple((k - x) % n for x in range(n)))))
        for seed in range(20):
            cases.append((ring, gen_self_map(seed, ring, "homomorphism")))
    # cycles whose hull is not yet invariant, so that L_C grows past it and
    # the paper-cov hull moves L_C: rare, 20 of 48,453 cycles of two or
    # more points over seeds 0-19,999 of this and narrower constraints
    params = GenParams(point_count=(6, 10), window_span=(1, 6))
    for seed in (957, 5828, 6222, 7972, 10883):
        sys = gen_system(seed, params)
        cases.append((sys, gen_self_map(seed, sys, "homomorphism")))
    blocks = _clusters((3, 3, 2), 2, 0)
    # 0.0 -> 1.0 -> 0.1 -> 1.1 -> 0.2 -> 1.2 -> 0.0: one 6-cycle over two
    # clusters; the 2-cluster is swapped and merged
    cases.append((blocks, SelfMap((3, 4, 5, 1, 2, 0, 7, 7))))
    cases.append((blocks, SelfMap((3, 4, 5, 1, 2, 0, 7, 6))))
    for seed in range(20):
        cases.append((blocks, gen_self_map(seed, blocks, "homomorphism")))
    return cases


ADMISSIBLE_CASES = _admissible_cases()


def _merges(t):
    return len(set(t.image)) < t.n


class TestMinimalInvariantAdmissible:
    """The cycle-by-cycle search against the walk over the whole family."""

    @pytest.mark.deep
    def test_seeded_and_structured_systems(self):
        for sys, t in ADMISSIBLE_CASES:
            got = minimal_invariant_admissible(sys, t)
            assert tuple(a.points.bits for a in got) == _family_walk(sys, t), (sys, t)

    def test_cases_reach_every_branch(self):
        # without restricted closures, long cycles and merged pairs the
        # comparison above would not reach them
        restricted = [(sys, t) for sys, t in ADMISSIBLE_CASES if _restricted_cycles(sys, t)]
        assert len(restricted) >= 50
        assert sum(_merges(t) for _, t in restricted) >= 20
        long_cycles = [
            (sys, t) for sys, t in ADMISSIBLE_CASES
            if max(c.bit_count() for c in _cycle_masks(t)) >= 4
        ]
        assert len(long_cycles) >= 40
        assert sum(_merges(t) for _, t in long_cycles) >= 3
        assert sum((sys, t) in restricted for sys, t in long_cycles) >= 5
        # L_C past the cycle's own hull, so some ball around C misses L_C
        grown = [
            (sys, t) for sys, t in restricted
            if any(
                least != _hull_mask(sys, cycle, ARBITRARY_CENTER)[0]
                for cycle, least in _restricted_cycles(sys, t)
            )
        ]
        assert len(grown) >= 5

    def test_restricted_closure_closes_the_balls_around_each_least_set(
        self, monkeypatch
    ):
        # each cycle whose L_C the paper-cov hull moves closes exactly the
        # distinct balls that contain L_C, and no other cycle closes any
        calls = []
        real = dynamics._intersection_closure

        def recorded(generators):
            generators = list(generators)
            calls.append(frozenset(generators))
            return real(generators)

        monkeypatch.setattr(dynamics, "_intersection_closure", recorded)
        for sys, t in ADMISSIBLE_CASES:
            calls.clear()
            minimal_invariant_admissible(dataclasses.replace(sys), t)
            expected = [
                frozenset(b for b in _ball_index(sys) if least & ~b == 0)
                for _, least in _restricted_cycles(sys, t)
            ]
            assert sorted(calls, key=sorted) == sorted(expected, key=sorted)

    def test_restricted_closure_keeps_the_cap(self, monkeypatch):
        sys, t = next(c for c in ADMISSIBLE_CASES if _restricted_cycles(*c))
        monkeypatch.setattr(hulls, "DEFAULT_SET_CAP", 1)
        with pytest.raises(ResourceLimitError) as info:
            minimal_invariant_admissible(dataclasses.replace(sys), t)
        assert info.value.cap == 1
        assert info.value.reached == 2
