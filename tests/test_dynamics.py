"""Self-maps: orbits, regularity, invariant structure, and the dichotomy."""

import pytest
from hypothesis import given, settings, strategies as st

from gradedrel import (
    DyadicValue,
    PreconditionError,
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
from gradedrel.dynamics import OUTCOME_FIXED, OUTCOME_MINIMAL_BALL
from gradedrel.harness import GenParams, gen_system

from test_relations import small_systems


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
    @settings(max_examples=60)
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


def _brute_minimal_balls(sys, t):
    """Every center at every window level, through the public ball()."""
    out = []
    for c in range(sys.n):
        for lev in sys.window.levels():
            b = ball(sys, c, lev)
            if all(
                t.image[p] in b and sys.grades.entries[p][t.image[p]] == lev
                for p in b.members()
            ):
                out.append((c, lev))
    return tuple(out)


def _brute_invariant_balls(sys, t):
    """Map-invariant balls grouped by set, every center at every level from
    window.below to window.above."""
    by_set = {}
    for c in range(sys.n):
        for lev in range(sys.window.below, sys.window.above + 1):
            b = ball(sys, c, lev)
            if all(t.image[p] in b for p in b.members()):
                by_set.setdefault(b.bits, []).append((c, lev))
    return sorted((bits, tuple(names)) for bits, names in by_set.items())


def _brute_offsets(sys, t, x):
    """The regular and asymptotic offsets searched straight from the
    RegularityReport definitions over the step grades of T^i x."""
    seq = [x]
    reach = 3 * sys.n + sys.window.span + 4
    for _ in range(2 * reach):
        seq.append(t.image[seq[-1]])
    step = [sys.grades.entries[p][q] for p, q in zip(seq, seq[1:])]
    m = step[0]
    # from any index on, the orbit repeats within n steps, so a window of
    # reach steps sees every later step grade, and either offset, when one
    # exists, lies below reach
    regular = next(
        (
            k
            for k in range(1, reach)
            if all(step[i] >= m + k for i in range(k, k + reach))
        ),
        None,
    )
    asymptotic = next(
        (
            k
            for k in range(0, reach)
            if all(step[i] >= m + i for i in range(k, k + reach))
        ),
        None,
    )
    return regular, asymptotic


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

    @given(systems_with_maps())
    @settings(max_examples=150)
    def test_minimal_balls_random(self, sys_map):
        _check_minimal_balls(*sys_map)

    @given(systems_with_maps())
    @settings(max_examples=150)
    def test_invariant_balls_random(self, sys_map):
        _check_invariant_balls(*sys_map)

    @given(systems_with_maps())
    @settings(max_examples=150)
    def test_regularity_offsets_random(self, sys_map):
        _check_offsets(*sys_map)

    @pytest.mark.parametrize(
        "check", [_check_minimal_balls, _check_invariant_balls, _check_offsets]
    )
    def test_seeded_transitive_and_grade_preserving(self, check):
        for sys, t in SEEDED:
            check(sys, t)

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
