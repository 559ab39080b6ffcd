"""Balls, hulls, admissible families, radii, and the structure checks."""

import dataclasses
import random
from array import array
from contextlib import contextmanager
from functools import cmp_to_key
from itertools import compress

import pytest
from hypothesis import example, given, settings, strategies as st

from gradedrel import harness, hulls
from gradedrel import (
    ARBITRARY_CENTER,
    DyadicValue,
    GenParams,
    PAPER_COV,
    PointSet,
    ResourceLimitError,
    StructuralInputError,
    StructureReport,
    TOP,
    UsageError,
    admissible_family_bits,
    ball,
    check_compact_structure,
    check_normal_structure,
    check_spherical_completeness,
    covering_level,
    enumerate_admissible,
    gen_system,
    hull,
    make_system,
    min_distance_clique,
    normality_criteria,
    parse_system,
    radii,
    serialize_system,
)

from gradedrel.fixtures import dyadic_grid, lopsided_triple, twin_pair, ultrametric_chain
from gradedrel.harness import CONSTRAINTS
from gradedrel.hulls import _hull_mask

from oracles import (
    check_normal_structure_oracle,
    closure_full_pass,
    closure_oracle,
    family_from_metric_balls_oracle,
    flat_paper_members_oracle,
    hull_oracle,
    min_distance_clique_oracle,
    normality_criteria_oracle,
    radii_oracle,
    row_masks,
    text_column_pass,
)
from strategies import (
    CHAIN_HEAVY,
    cluster_tree_systems,
    examples,
    seeded_system,
    small_systems,
    star_system,
)

MODES = (PAPER_COV, ARBITRARY_CENTER)

# every pair at one grade: the hull fixes no pair in either mode
EQUILATERAL = make_system(
    ["a", "b", "c"], (0, 1), [[TOP, 0, 0], [0, TOP, 0], [0, 0, TOP]]
)


@contextmanager
def closure_cap(cap):
    """hulls.DEFAULT_SET_CAP set to cap inside the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hulls, "DEFAULT_SET_CAP", cap)
        yield


def pset(sys, *members):
    return PointSet.of(sys.n, members)


def nonempty_sets(sys):
    return [PointSet(sys.n, bits) for bits in range(1, 1 << sys.n)]


def submasks(bits):
    """Every nonempty submask of bits."""
    sub = bits
    while sub:
        yield sub
        sub = (sub - 1) & bits


class TestBalls:
    def test_grid_balls(self, grid):
        assert ball(grid, 0, 2).members() == (0, 1)
        assert ball(grid, 0, 1).members() == (0, 1, 2)
        assert ball(grid, 0, 0).members() == (0, 1, 2, 3, 4)
        assert ball(grid, 0, 3).members() == (0,)

    def test_extreme_levels(self, grid):
        assert len(ball(grid, 2, grid.window.below)) == grid.n
        assert ball(grid, 2, grid.window.above).members() == (2,)

    def test_covering_level(self, grid):
        assert covering_level(grid, 0, pset(grid, 0, 1)) == 2
        assert covering_level(grid, 0, pset(grid, 0, 1, 2)) == 1
        assert covering_level(grid, 0, pset(grid, 0)) is TOP

    def test_covering_level_rejects_a_bad_center(self, grid):
        for x in (-1, grid.n):
            with pytest.raises(IndexError) as expected:
                ball(grid, x, 0)
            with pytest.raises(IndexError) as got:
                covering_level(grid, x, pset(grid, 0))
            assert str(got.value) == str(expected.value) == (
                f"center {x} out of range for {grid.n} points"
            )

    def test_covering_level_rejects_a_point_set_of_another_size(self, grid):
        wide = PointSet.of(9, [0])
        with pytest.raises(StructuralInputError) as expected:
            hull(grid, wide)
        with pytest.raises(StructuralInputError) as got:
            covering_level(grid, 0, wide)
        assert str(got.value) == str(expected.value) == (
            f"point set over 9 points against a {grid.n}-point system"
        )

    @given(small_systems())
    def test_balls_nest(self, sys):
        for x in range(sys.n):
            prev = None
            for lev in range(sys.window.below, sys.window.above + 1):
                cur = ball(sys, x, lev)
                assert x in cur
                if prev is not None:
                    assert cur.subset_of(prev)
                prev = cur


class TestHull:
    def test_hull_is_extensive_and_idempotent(self, grid):
        for mode in MODES:
            for bits in range(1, 1 << grid.n):
                s = PointSet(grid.n, bits)
                h = hull(grid, s, mode)
                assert s.subset_of(h.points)
                again = hull(grid, h.points, mode)
                assert again.points == h.points

    @given(small_systems())
    @settings(max_examples=60)
    def test_extensive_and_idempotent_on_random_systems(self, sys):
        for mode in MODES:
            for s in nonempty_sets(sys):
                h = hull(sys, s, mode).points
                assert s.subset_of(h)
                assert hull(sys, h, mode).points == h

    @given(small_systems())
    @settings(max_examples=60)
    def test_arbitrary_center_hull_is_monotone(self, sys):
        hulls_of = {
            s.bits: hull(sys, s, ARBITRARY_CENTER).points.bits for s in nonempty_sets(sys)
        }
        for big, big_hull in hulls_of.items():
            for small in submasks(big):
                assert hulls_of[small] & ~big_hull == 0

    @given(small_systems())
    @settings(max_examples=60)
    def test_arbitrary_center_hull_within_paper_cov_hull(self, sys):
        for s in nonempty_sets(sys):
            closure = hull(sys, s, ARBITRARY_CENTER).points
            assert closure.subset_of(hull(sys, s, PAPER_COV).points)

    def test_paper_cov_hull_is_not_monotone(self):
        # S = {0, 1} lies inside T = {0, 1, 2}, yet hull(S) holds point 4
        # and hull(T) does not: only the arbitrary-center hull is monotone
        sys = gen_system(0, GenParams(point_count=(3, 7)))
        small, big = pset(sys, 0, 1), pset(sys, 0, 1, 2)
        assert hull(sys, small, PAPER_COV).points.members() == (0, 1, 2, 3, 4)
        assert hull(sys, big, PAPER_COV).points.members() == (0, 1, 2, 3)
        assert hull(sys, small, ARBITRARY_CENTER).points.subset_of(
            hull(sys, big, ARBITRARY_CENTER).points
        )

    def test_empty_set_rejected(self, grid):
        with pytest.raises(StructuralInputError):
            hull(grid, PointSet.empty(grid.n))

    def test_witness_balls_reproduce_hull(self, grid):
        for mode in MODES:
            h = hull(grid, pset(grid, 1, 3), mode)
            bits = (1 << grid.n) - 1
            for center, level in h.witness_balls:
                bits &= ball(grid, center, level).bits
            assert bits == h.points.bits

    def test_closure_mode_can_be_tighter(self, grid):
        # arbitrary centers can carve smaller hulls than member centers
        s = pset(grid, 1, 3)
        paper = hull(grid, s, PAPER_COV).points
        closure = hull(grid, s, ARBITRARY_CENTER).points
        assert closure.subset_of(paper)


def test_unknown_mode_is_rejected(grid):
    calls = (
        lambda: hull(grid, pset(grid, 0), "bogus"),
        lambda: enumerate_admissible(grid, "bogus"),
        lambda: admissible_family_bits(grid, "bogus"),
        lambda: check_normal_structure(grid, "bogus"),
    )
    for call in calls:
        with pytest.raises(UsageError, match="unknown hull mode 'bogus'"):
            call()


class TestEnumerate:
    def test_chain_family_is_singletons_plus_upsets(self, chain):
        for mode in MODES:
            fam = [adm.points.members() for adm in enumerate_admissible(chain, mode)]
            singletons = [(x,) for x in range(6)]
            upsets = [tuple(range(k, 6)) for k in range(5)]
            assert sorted(fam) == sorted(singletons + upsets)

    def test_twins_family(self, twins):
        for mode in MODES:
            fam = [adm.points.members() for adm in enumerate_admissible(twins, mode)]
            assert sorted(fam) == [(0,), (0, 1), (1,)]

    def test_canonical_order(self, grid):
        fam = enumerate_admissible(grid, ARBITRARY_CENTER)
        keys = [adm.points.canonical_key() for adm in fam]
        assert keys == sorted(keys)

    @given(small_systems())
    @settings(max_examples=40)
    def test_closure_family_is_intersection_closed(self, sys):
        fam = {adm.points.bits for adm in enumerate_admissible(sys, ARBITRARY_CENTER)}
        for a in fam:
            for b in fam:
                u = a & b
                if u:
                    assert u in fam

    @given(small_systems())
    @settings(max_examples=40)
    def test_paper_family_within_closure_family(self, sys):
        paper = {adm.points.bits for adm in enumerate_admissible(sys, PAPER_COV)}
        closure = {adm.points.bits for adm in enumerate_admissible(sys, ARBITRARY_CENTER)}
        assert paper <= closure

    @given(small_systems())
    @settings(max_examples=40)
    def test_singletons_and_ground_set_always_admissible(self, sys):
        for mode in MODES:
            fam = {adm.points.bits for adm in enumerate_admissible(sys, mode)}
            assert (1 << sys.n) - 1 in fam
            for x in range(sys.n):
                assert (1 << x) in fam

    def test_resource_cap(self, grid):
        with closure_cap(3), pytest.raises(ResourceLimitError) as info:
            enumerate_admissible(grid, PAPER_COV)
        assert info.value.cap == 3

    @given(small_systems(), st.sampled_from(MODES))
    @example(CHAIN_HEAVY, ARBITRARY_CENTER)
    @example(CHAIN_HEAVY, PAPER_COV)
    @settings(max_examples=60)
    def test_cap_counts_closure_members(self, sys, mode):
        # in both modes the cap bounds the arbitrary-center closure
        size = len(enumerate_admissible(sys, ARBITRARY_CENTER))
        uncapped = enumerate_admissible(sys, mode)
        with closure_cap(size):
            assert enumerate_admissible(sys, mode) == uncapped
        with closure_cap(size - 1), pytest.raises(ResourceLimitError) as info:
            enumerate_admissible(sys, mode)
        err = info.value
        assert err.cap == size - 1
        assert size - 1 < err.reached <= size
        assert f"reached {err.reached} family members" in str(err)
        assert f"cap of {size - 1}" in str(err)


class TestCanonicalOrder:
    def test_reversal_table(self):
        assert len(hulls._REVERSED) == 256
        for i in range(256):
            assert hulls._REVERSED[i] == sum(1 << (7 - k) for k in range(8) if i >> k & 1)

    @given(
        st.integers(min_value=1, max_value=20).flatmap(
            lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1)))
        )
    )
    @example((3, []))
    @example((3, [0b011, 0b101, 0b011]))
    def test_least_is_the_canonical_minimum(self, case):
        n, masks = case
        want = min(masks, key=lambda b: PointSet(n, b).canonical_key(), default=0)
        assert hulls._least(masks) == want

    @staticmethod
    def sorted_by_least(masks):
        # the order _least decides between two masks, run as a sort
        def compare(a, b):
            return 0 if a == b else -1 if hulls._least((a, b)) == a else 1

        return sorted(masks, key=cmp_to_key(compare))

    def test_every_mask_up_to_12_points(self):
        for n in range(13):
            masks = range(1 << n)
            assert self.sorted_by_least(masks) == sorted(
                masks, key=lambda b: PointSet(n, b).canonical_key()
            )
            assert hulls._least(reversed(masks)) == 0

    @given(
        st.integers(min_value=1, max_value=16).flatmap(
            lambda n: st.tuples(
                st.just(n), st.lists(st.integers(0, (1 << n) - 1), unique=True)
            )
        )
    )
    @examples(200)
    def test_random_masks_up_to_16_points(self, case):
        n, masks = case
        want = sorted(masks, key=lambda b: PointSet(n, b).canonical_key())
        assert self.sorted_by_least(masks) == want
        assert hulls._least(masks) == (want[0] if want else 0)

    @classmethod
    def assert_matches_the_string_reversal(cls, n, masks):
        # the order read as text: size, then the complement's n binary
        # digits reversed
        full = (1 << n) - 1
        want = sorted(
            masks,
            key=lambda b: (b.bit_count() << n) | int(format(full ^ b, f"0{n}b")[::-1], 2),
        )
        assert want == sorted(masks, key=lambda b: PointSet(n, b).canonical_key())
        assert cls.sorted_by_least(masks) == want
        least = want[0] if want else 0
        assert hulls._least(masks) == least
        assert hulls._least(reversed(masks)) == least

    # n = 0, 1 and 7 (mod 8) around every byte count up to 300 points
    @pytest.mark.parametrize(
        "n", [1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 63, 64, 65, 255, 256, 257, 263, 264, 265, 300]
    )
    def test_byte_boundaries(self, n):
        rng = random.Random(n)
        full = (1 << n) - 1
        masks = {0, full, 1, 1 << (n - 1), full >> 1, full ^ 1}
        masks.update(1 << x for x in range(n))
        masks.update(full ^ (1 << x) for x in range(n))
        masks.update(rng.getrandbits(n) for _ in range(200))
        # one low byte, so masks of one size differ first in a higher byte
        masks.update((rng.getrandbits(n) & ~0xFF | 0x0F) & full for _ in range(50))
        self.assert_matches_the_string_reversal(n, sorted(masks))

    @given(
        st.integers(min_value=1, max_value=300).flatmap(
            lambda n: st.tuples(
                st.just(n), st.lists(st.integers(0, (1 << n) - 1), unique=True)
            )
        )
    )
    @example((264, [(1 << 264) - 1, 1 << 263, 1]))
    @example((257, [1 << 256, (1 << 256) - 1, 0]))
    def test_random_masks_up_to_300_points(self, case):
        self.assert_matches_the_string_reversal(*case)


@st.composite
def mask_families(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    masks = st.integers(min_value=1, max_value=(1 << n) - 1)
    return n, draw(st.lists(masks, min_size=1, max_size=12))


@st.composite
def nested_chains(draw):
    """Generators in runs of shrinking masks, as _ball_index lists each
    center's balls: one descending chain per center, the chains kept
    whole, interleaved in order or shuffled, with repeats and with
    intersections of earlier generators, which the family already holds,
    put in after those generators."""
    n = draw(st.integers(min_value=1, max_value=8))
    full = (1 << n) - 1
    rnd = draw(st.randoms(use_true_random=False))
    chains = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        mask = draw(st.integers(min_value=1, max_value=full))
        chain = [mask]
        for _ in range(draw(st.integers(min_value=0, max_value=5))):
            mask &= rnd.randrange(full + 1)  # a submask, perhaps the same one
            if not mask:
                break
            chain.append(mask)
        chains.append(chain)
    order = draw(st.sampled_from(["whole", "interleaved", "shuffled"]))
    if order == "interleaved":
        runs = [list(reversed(chain)) for chain in chains]
        generators = []
        while runs:
            run = rnd.choice(runs)
            generators.append(run.pop())
            if not run:
                runs.remove(run)
    else:
        generators = [mask for chain in chains for mask in chain]
        if order == "shuffled":
            rnd.shuffle(generators)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        at = rnd.randrange(1, len(generators) + 1)
        a, b = rnd.choice(generators[:at]), rnd.choice(generators[:at])
        generators.insert(at, a & b or a)
    return n, generators


@pytest.mark.deep
class TestIntersectionClosure:
    @given(nested_chains())
    # the second chain starts outside the first chain's last ball, whose
    # trace alone would miss 0b0110 = 0b1110 & 0b0111
    @example((4, [0b0111, 0b0011, 0b1110, 0b0110]))
    @example((4, [0b1111, 0b0111, 0b1111, 0b0011]))  # a repeat mid-chain
    def test_nested_chains_match_brute_force(self, family):
        n, generators = family
        assert hulls._intersection_closure(generators) == closure_oracle(n, generators)

    @given(nested_chains())
    @example((4, [0b0111, 0b0011, 0b1110, 0b0110]))
    def test_nested_chains_fail_where_the_full_pass_fails(self, family):
        # the family after every generator is the full pass's, so every cap
        # below the family size stops both at the same generator, with the
        # same count
        _, generators = family
        closure = closure_full_pass(generators)
        assert hulls._intersection_closure(generators) == closure
        for cap in range(len(closure)):
            with closure_cap(cap):
                with pytest.raises(ResourceLimitError) as want:
                    closure_full_pass(generators)
                with pytest.raises(ResourceLimitError) as got:
                    hulls._intersection_closure(generators)
            assert (got.value.cap, got.value.reached) == (
                want.value.cap,
                want.value.reached,
            )

    @given(mask_families())
    @examples(200)
    def test_matches_brute_force(self, family):
        n, generators = family
        closure = hulls._intersection_closure(generators)
        assert closure == closure_oracle(n, generators)

    @given(mask_families(), st.randoms(use_true_random=False))
    @examples(100)
    def test_duplicate_generators(self, family, rnd):
        n, generators = family
        repeated = generators + [rnd.choice(generators) for _ in generators]
        rnd.shuffle(repeated)
        closure = hulls._intersection_closure(repeated)
        assert closure == closure_oracle(n, generators)
        # repeats add no members, so the least sufficient cap is unchanged
        with closure_cap(len(closure)):
            assert hulls._intersection_closure(repeated) == closure

    @given(st.integers(min_value=1, max_value=255), st.integers(min_value=1, max_value=6))
    def test_all_equal_generators(self, mask, copies):
        with closure_cap(1):
            assert hulls._intersection_closure([mask] * copies) == {mask}
        with closure_cap(0), pytest.raises(ResourceLimitError) as info:
            hulls._intersection_closure([mask] * copies)
        assert (info.value.cap, info.value.reached) == (0, 1)

    @given(mask_families())
    @examples(100)
    def test_cap_counts_members(self, family):
        n, generators = family
        size = len(closure_oracle(n, generators))
        with closure_cap(size):
            assert len(hulls._intersection_closure(generators)) == size
        with closure_cap(size - 1), pytest.raises(ResourceLimitError) as info:
            hulls._intersection_closure(generators)
        assert info.value.cap == size - 1
        assert size - 1 < info.value.reached <= size

    @given(small_systems(), st.integers(0, 1 << 32))
    @examples(40)
    def test_metric_ball_route_closes_once_with_the_same_routine(self, sys, seed):
        assert harness._intersection_closure is hulls._intersection_closure
        calls = []

        def spy(generators):
            calls.append((hulls.DEFAULT_SET_CAP, list(generators)))
            return hulls._intersection_closure(calls[-1][1])

        radii = harness._breakpoint_radii(sys, random.Random(seed))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "_intersection_closure", spy)
            metric = harness._metric_ball_families(sys, radii)
        # one closure for both modes, under the cap read when it runs
        assert [cap for cap, _ in calls] == [hulls.DEFAULT_SET_CAP]
        for mode in MODES:
            assert metric[mode] == admissible_family_bits(sys, mode)
        # each center's balls, largest radius first: a shrinking chain
        generators = calls[0][1]
        per_center = len(set(radii))
        assert len(generators) == sys.n * per_center
        for x in range(sys.n):
            chain = generators[x * per_center : (x + 1) * per_center]
            assert all(b & ~a == 0 for a, b in zip(chain, chain[1:]))
        # and it fails where the per-mode route fails, with the same counts
        size = len(admissible_family_bits(sys, ARBITRARY_CENTER))
        with closure_cap(size - 1):
            with pytest.raises(ResourceLimitError) as want:
                family_from_metric_balls_oracle(sys, radii, ARBITRARY_CENTER)
            with pytest.raises(ResourceLimitError) as got:
                harness._metric_ball_families(sys, radii)
        assert (got.value.cap, got.value.reached) == (want.value.cap, want.value.reached)
        assert got.value.cap == size - 1
        assert size - 1 < got.value.reached <= size


HULL_EQUIVALENCE = harness.CLAIMS["hull-equivalence"]


@pytest.mark.deep
class TestMetricBallFamilies:
    """harness._metric_ball_families against the per-mode oracle,
    family_from_metric_balls_oracle."""

    @staticmethod
    def assert_matches_the_per_mode_route(sys, radii):
        for ordered in (sorted(radii), sorted(radii, reverse=True)):
            metric = harness._metric_ball_families(sys, ordered)
            assert set(metric) == set(MODES)
            for mode in MODES:
                assert metric[mode] == family_from_metric_balls_oracle(sys, ordered, mode)

    @given(small_systems(), st.integers(0, 1 << 32))
    @example(CHAIN_HEAVY, 0)
    @example(EQUILATERAL, 0)
    def test_small_systems(self, sys, seed):
        self.assert_matches_the_per_mode_route(
            sys, harness._breakpoint_radii(sys, random.Random(seed))
        )

    @given(st.integers(0, 1 << 32))
    def test_the_claims_own_systems(self, seed):
        sys = gen_system(seed, HULL_EQUIVALENCE.params)
        rng = random.Random(sys.n * 1009 + sys.window.lo)
        self.assert_matches_the_per_mode_route(sys, harness._breakpoint_radii(sys, rng))

    @given(st.integers(0, 1 << 32))
    def test_one_ball_per_center_and_distinct_radius(self, seed):
        sys = gen_system(seed, HULL_EQUIVALENCE.params)
        rng = random.Random(sys.n * 1009 + sys.window.lo)
        radii = set(harness._breakpoint_radii(sys, rng))
        calls = []
        real = harness._metric_balls

        def spy(s, centers, rs):
            calls.append((list(centers), list(rs)))
            return real(s, *calls[-1])

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "_metric_balls", spy)
            assert HULL_EQUIVALENCE.check(sys, None) is None
        # one call per check, over every center and each distinct radius
        # once, largest first: every (center, radius) ball is computed once
        assert calls == [(list(range(sys.n)), sorted(radii, reverse=True))]


class TestRadii:
    def test_grid_pair(self, grid):
        rep = radii(grid, pset(grid, 0, 1))
        assert rep.cheb_grade == 2
        assert rep.diam_grade == 2
        assert rep.cheb_radius == DyadicValue.pow2(-2)
        assert rep.diameter == DyadicValue.pow2(-2)

    def test_grid_triple(self, grid):
        rep = radii(grid, pset(grid, 0, 1, 2))
        # middle point reaches both ends at grade >= 1; ends see grade 1
        assert rep.diam_grade == 1
        assert rep.cheb_grade == 2
        assert rep.cheb_radius < rep.diameter

    def test_singleton(self, grid):
        rep = radii(grid, pset(grid, 3))
        assert rep.cheb_grade is TOP
        assert rep.diam_grade is TOP
        assert rep.cheb_radius.is_zero
        assert rep.diameter.is_zero

    def test_empty_rejected(self, grid):
        with pytest.raises(StructuralInputError):
            radii(grid, PointSet.empty(grid.n))

    @given(small_systems())
    def test_radius_never_exceeds_diameter_on_admissible(self, sys):
        for adm in enumerate_admissible(sys, ARBITRARY_CENTER):
            rep = radii(sys, adm.points)
            assert rep.cheb_radius <= rep.diameter
            assert rep.cheb_grade >= rep.diam_grade


class TestNormalityCriteria:
    def test_strict_on_grid_triple(self, grid):
        crit = normality_criteria(grid, pset(grid, 0, 1, 2))
        assert crit.agreed
        assert crit.grade_strict  # the middle point beats the diameter

    def test_flat_on_twins(self, twins):
        crit = normality_criteria(twins, pset(twins, 0, 1))
        assert crit.agreed
        assert not crit.grade_strict

    @given(small_systems())
    @settings(max_examples=40)
    def test_three_routes_agree_everywhere(self, sys):
        for adm in enumerate_admissible(sys, ARBITRARY_CENTER):
            crit = normality_criteria(sys, adm.points)
            assert crit.agreed


class TestNormalStructure:
    def test_chain_witness(self, chain):
        rep = check_normal_structure(chain)
        assert not rep.holds
        adm, rad = rep.witness
        assert adm.points.members() == (4, 5)
        assert rad.cheb_radius == rad.diameter
        assert rep.note == "radius equals diameter on the witness set"

    def test_single_point_vacuously_normal(self):
        one = make_system(["a"], (0, 1), [[TOP]])
        rep = check_normal_structure(one)
        assert rep.holds
        assert rep.note == "no admissible set with two or more points"

    @given(small_systems())
    @settings(max_examples=40)
    def test_never_holds_beyond_one_point(self, sys):
        if sys.n < 2:
            return
        for mode in MODES:
            rep = check_normal_structure(sys, mode)
            assert not rep.holds
            adm, rad = rep.witness
            assert len(adm.points) >= 2
            assert rad.cheb_radius == rad.diameter

    @given(small_systems())
    @settings(max_examples=40)
    def test_witness_is_the_first_flat_member_of_the_family(self, sys):
        # the check reads the memoised masks; its witness must be the
        # AdmissibleSet that enumerate_admissible lists, balls and mode included
        for mode in MODES:
            flat = [
                (adm, rep)
                for adm in enumerate_admissible(sys, mode)
                if len(adm.points) >= 2
                and (rep := radii(sys, adm.points)).cheb_radius == rep.diameter
            ]
            rep = check_normal_structure(sys, mode)
            if flat:
                assert rep.witness == flat[0]
                assert rep.witness[0].mode == mode
            else:
                assert sys.n < 2
                assert rep.holds and rep.witness is None


    @given(small_systems(), st.sampled_from(MODES))
    @example(CHAIN_HEAVY, ARBITRARY_CENTER)
    @example(CHAIN_HEAVY, PAPER_COV)
    @example(EQUILATERAL, ARBITRARY_CENTER)
    @example(EQUILATERAL, PAPER_COV)
    @settings(max_examples=100)
    def test_fixed_pair_agrees_with_the_family_walk(self, sys, mode):
        # the canonical walk over the family against the pair check, which
        # builds no closure when the hull fixes some pair, nor in
        # arbitrary-center mode, where the least pair hull stands in
        family = hulls._family(sys, mode)
        flat = next(
            (
                bits
                for bits in family
                if bits.bit_count() >= 2
                and not normality_criteria(sys, PointSet(sys.n, bits)).grade_strict
            ),
            None,
        )
        fresh = dataclasses.replace(sys)
        calls = []
        real = hulls._intersection_closure
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                hulls,
                "_intersection_closure",
                lambda gens: calls.append(hulls.DEFAULT_SET_CAP) or real(gens),
            )
            rep = check_normal_structure(fresh, mode)
        if flat is None:
            assert rep.holds and rep.witness is None
        else:
            points = PointSet(sys.n, flat)
            assert rep.witness == (hull(sys, points, mode), radii(sys, points))
        # paper-cov walks its family only when no pair is fixed, and
        # arbitrary-center never builds one
        pair_fixed = any(bits.bit_count() == 2 for bits in family)
        walks = mode == PAPER_COV and not pair_fixed
        assert calls == ([hulls.DEFAULT_SET_CAP] if walks else [])


class TestMinDistanceClique:
    def test_chain(self, chain):
        assert min_distance_clique(chain).members() == (4, 5)

    def test_grid(self, grid):
        got = min_distance_clique(grid)
        # highest off-diagonal grade is 2; the first such pair is (0, 1),
        # and no third point keeps grade 2 to both
        assert got.members() == (0, 1)

    def test_needs_two_points(self):
        one = make_system(["a"], (0, 1), [[TOP]])
        with pytest.raises(StructuralInputError):
            min_distance_clique(one)

    @given(small_systems())
    @settings(max_examples=60)
    def test_clique_properties(self, sys):
        if sys.n < 2:
            return
        clique = min_distance_clique(sys)
        members = clique.members()
        assert len(members) >= 2
        best = max(
            sys.grades.entries[x][y]
            for x in range(sys.n)
            for y in range(x + 1, sys.n)
        )
        for i, x in enumerate(members):
            for y in members[i + 1 :]:
                assert sys.grades.entries[x][y] == best
        # admissible in both modes, with radius equal to diameter
        for mode in MODES:
            assert hull(sys, clique, mode).points == clique
        rep = radii(sys, clique)
        assert rep.cheb_radius == rep.diameter

    @given(small_systems())
    @settings(max_examples=60)
    def test_clique_is_maximal(self, sys):
        if sys.n < 2:
            return
        clique = min_distance_clique(sys)
        members = clique.members()
        best = sys.grades.entries[members[0]][members[1]]
        for z in range(sys.n):
            if z in clique:
                continue
            assert not all(sys.grades.entries[z][m] == best for m in members)


# two pairs at the top grade, (0, 1) first: the clique grows from the first
TWO_TOP_PAIRS = make_system(
    ["a", "b", "c", "d"],
    (0, 2),
    [[TOP, 2, 0, 1], [2, TOP, 1, 0], [0, 1, TOP, 2], [1, 0, 2, TOP]],
)
ONE_POINT = make_system(["a"], (0, 1), [[TOP]])
TWO_POINTS = make_system(["a", "b"], (0, 1), [[TOP, 1], [1, TOP]])


@pytest.mark.deep
class TestNormalStructureOracle:
    """The one-walk routines against the two-walk oracles."""

    @given(small_systems())
    @example(EQUILATERAL)
    @example(CHAIN_HEAVY)
    @example(TWO_TOP_PAIRS)
    @example(ONE_POINT)
    @example(TWO_POINTS)
    def test_radii_and_criteria_on_every_set(self, sys):
        for points in nonempty_sets(sys):
            assert radii(sys, points) == radii_oracle(sys, points)
            assert normality_criteria(sys, points) == normality_criteria_oracle(
                sys, points
            )

    @given(small_systems())
    @example(EQUILATERAL)
    @example(CHAIN_HEAVY)
    @example(TWO_TOP_PAIRS)
    @example(ONE_POINT)
    @example(TWO_POINTS)
    def test_check_and_clique(self, sys):
        for mode in MODES:
            assert check_normal_structure(sys, mode) == check_normal_structure_oracle(
                sys, mode
            )
        if sys.n >= 2:
            assert min_distance_clique(sys) == min_distance_clique_oracle(sys)

    @given(small_systems())
    @example(EQUILATERAL)
    @example(CHAIN_HEAVY)
    @example(ONE_POINT)
    def test_criteria_run_once_on_the_witness(self, sys):
        for mode in MODES:
            seen = []
            real = hulls.normality_criteria
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(
                    hulls,
                    "normality_criteria",
                    lambda s, p: seen.append(p.bits) or real(s, p),
                )
                rep = check_normal_structure(sys, mode)
            if rep.witness is None:
                assert seen == []
            else:
                assert seen == [rep.witness[0].points.bits]

    @pytest.mark.parametrize("points", [PointSet.empty(3), PointSet.of(4, [0])])
    def test_criteria_reject_what_radii_rejects(self, points):
        # the empty set, and a set over another number of points
        with pytest.raises(StructuralInputError) as want:
            radii(EQUILATERAL, points)
        with pytest.raises(StructuralInputError) as got:
            normality_criteria(EQUILATERAL, points)
        assert str(got.value) == str(want.value)

    @given(small_systems())
    @example(EQUILATERAL)
    @example(CHAIN_HEAVY)
    @example(ONE_POINT)
    def test_criteria_build_no_radii_report(self, sys):
        # the grade route walks the grade rows itself and the level-set
        # route reads the level table: no radii, RadiiReport or level_rows
        want = [(p, normality_criteria_oracle(sys, p)) for p in nonempty_sets(sys)]

        def refuse(*args, **kwargs):
            raise AssertionError("normality_criteria must not call this")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hulls, "radii", refuse)
            mp.setattr(hulls, "RadiiReport", refuse)
            mp.setattr(type(sys), "level_rows", refuse)
            for points, crit in want:
                assert normality_criteria(sys, points) == crit

    # no pair is admissible in either mode, so the witness is the whole
    # three-point set; each test runs on a fresh copy, with no family
    # record memoised by an earlier test

    def test_equilateral_closure_takes_the_least_pair_hull(self):
        sys = dataclasses.replace(EQUILATERAL)
        calls = []
        real_family, real_closure = hulls._family, hulls._intersection_closure
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hulls, "_family", lambda s, m: calls.append(m) or real_family(s, m))
            mp.setattr(
                hulls,
                "_intersection_closure",
                lambda g: calls.append("closure") or real_closure(g),
            )
            rep = check_normal_structure(sys, ARBITRARY_CENTER)
        assert calls == []
        assert rep.witness[0].points.bits == 0b111
        assert not any(bits.bit_count() == 2 for bits in hulls._family(sys, ARBITRARY_CENTER))

    def test_equilateral_paper_cov_takes_the_family_walk(self):
        sys = dataclasses.replace(EQUILATERAL)
        walked = []
        real = hulls._family
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hulls, "_family", lambda s, m: walked.append(m) or real(s, m))
            rep = check_normal_structure(sys, PAPER_COV)
        assert walked == [PAPER_COV]
        assert rep.witness[0].points.bits == 0b111
        assert not any(bits.bit_count() == 2 for bits in real(sys, PAPER_COV))


def _iterated_pair_hull(sys, pair, mode):
    """The hull iterated from a pair until it is fixed, or None when it
    does not settle within 64 steps."""
    bits = pair
    for _ in range(64):
        nxt = _hull_mask(sys, bits, mode)[0]
        if nxt == bits:
            return bits
        bits = nxt
    return None


def _least_pair_hull(sys, mode):
    """The canonical-least fixed set the pair iteration reaches."""
    n = sys.n
    pairs = (1 << x | 1 << y for x in range(n) for y in range(x + 1, n))
    fixed = {_iterated_pair_hull(sys, p, mode) for p in pairs} - {None}
    return min(fixed, key=lambda bits: PointSet(n, bits).canonical_key())


def _fixes_no_pair(sys, mode):
    n = sys.n
    pairs = (1 << x | 1 << y for x in range(n) for y in range(x + 1, n))
    return not any(_hull_mask(sys, p, mode)[0] == p for p in pairs)


def closure_walk_systems():
    """The gen_system systems, n 2-8 over every constraint and seeds
    0-299, whose arbitrary-center hull fixes no pair, each with its
    (constraint, seed): the systems whose witness the family walk chose
    before the pair rule replaced it."""
    for constraint in CONSTRAINTS:
        for seed in range(300):
            sys = gen_system(seed, GenParams(point_count=(2, 8), constraint=constraint))
            if _fixes_no_pair(sys, ARBITRARY_CENTER):
                yield (constraint, seed), sys


# the refuted paper-cov pair rule: no pair fixed, and a normal first member
PAPER_NO_PAIR_RULE = gen_system(1836, GenParams(point_count=(2, 9), window_span=(1, 5)))


@pytest.mark.deep
class TestNormalStructureRule:
    """The rule over pair hulls that replaces the family walk of
    check_normal_structure in arbitrary-center mode, and the paper-cov
    walk against a characterization that builds no hull."""

    def test_closure_mode_witness_is_the_least_pair_hull(self):
        # Proved: a least-size member M with two or more points is flat.
        # For a pair x, y at M's diameter grade d, a z in M whose worst
        # grade in M exceeded d would make B(x, d + 1) & M a smaller member
        # holding x and z but not y.  The arbitrary-center hull is a closure,
        # so every such M is the hull of a pair inside it.
        walks = 0
        for label, sys in closure_walk_systems():
            walks += 1
            n = sys.n
            pairs = [1 << x | 1 << y for x in range(n) for y in range(x + 1, n)]
            rep = check_normal_structure(sys, ARBITRARY_CENTER)
            least = min(
                (_hull_mask(sys, p, ARBITRARY_CENTER)[0] for p in pairs),
                key=lambda bits: PointSet(n, bits).canonical_key(),
            )
            assert rep.witness[0].points.bits == least, label
            assert _least_pair_hull(sys, ARBITRARY_CENTER) == least
        # 137 of the 1,200 systems take the rule, so it is exercised
        assert walks == 137

    @staticmethod
    def assert_closure_mode_builds_no_family(sys):
        # the walk oracle's reports, from the family under the default cap;
        # with the cap at one member, any closure of two or more points
        # raises, so arbitrary-center mode must build none, and paper-cov
        # must still walk wherever its hull fixes no pair
        want = {mode: check_normal_structure_oracle(sys, mode) for mode in MODES}
        paper_walks = sys.n >= 2 and _fixes_no_pair(sys, PAPER_COV)
        fresh = dataclasses.replace(sys)
        with closure_cap(1):
            assert check_normal_structure(fresh, ARBITRARY_CENTER) == want[ARBITRARY_CENTER]
            if paper_walks:
                with pytest.raises(ResourceLimitError):
                    check_normal_structure(fresh, PAPER_COV)
            else:
                assert check_normal_structure(fresh, PAPER_COV) == want[PAPER_COV]

    @given(small_systems())
    @example(EQUILATERAL)
    @example(CHAIN_HEAVY)
    @example(PAPER_NO_PAIR_RULE)
    def test_closure_mode_builds_no_family(self, sys):
        self.assert_closure_mode_builds_no_family(sys)

    def test_closure_mode_builds_no_family_on_the_walk_systems(self):
        walks = 0
        for _, sys in closure_walk_systems():
            walks += 1
            self.assert_closure_mode_builds_no_family(sys)
        assert walks == 137

    @given(
        st.one_of(
            small_systems(),
            st.builds(
                gen_system,
                st.integers(0, 2**32 - 1),
                st.builds(
                    GenParams,
                    point_count=st.just((2, 8)),
                    constraint=st.sampled_from(CONSTRAINTS),
                ),
            ),
        )
    )
    @example(EQUILATERAL)
    @example(CHAIN_HEAVY)
    @example(PAPER_NO_PAIR_RULE)
    @examples(200)
    def test_paper_mode_flat_members_are_partnered_maximal_cliques(self, sys):
        flat = [
            bits
            for bits in hulls._family(sys, PAPER_COV)
            if bits.bit_count() >= 2
            and not normality_criteria_oracle(sys, PointSet(sys.n, bits)).grade_strict
        ]
        cliques = flat_paper_members_oracle(sys)
        assert cliques == flat
        rep = check_normal_structure(sys, PAPER_COV)
        if cliques:
            assert rep.witness[0].points.bits == cliques[0]
        else:
            assert sys.n < 2 and rep.holds

    def test_paper_mode_walk_is_not_a_pair_rule(self):
        # Refuted: no pair is fixed, and the first member with two or more
        # points, {0, 1, 4}, is normal (Chebyshev grade 4 against diameter
        # grade 3); iterating the hull from each pair reaches that set too,
        # while the walk's witness is {0, 2, 4}
        sys = PAPER_NO_PAIR_RULE
        assert (sys.n, sys.window.lo, sys.window.hi) == (5, 2, 4)
        pairs = [1 << x | 1 << y for x in range(5) for y in range(x + 1, 5)]
        assert not any(_hull_mask(sys, p, PAPER_COV)[0] == p for p in pairs)
        first = next(b for b in hulls._family(sys, PAPER_COV) if b.bit_count() >= 2)
        assert first == 0b10011
        rep = radii(sys, PointSet(5, first))
        assert (rep.cheb_grade, rep.diam_grade) == (4, 3)
        assert _least_pair_hull(sys, PAPER_COV) == 0b10011
        adm, rad = check_normal_structure(sys, PAPER_COV).witness
        assert adm.points.members() == (0, 2, 4)
        assert (rad.cheb_grade, rad.diam_grade) == (4, 4)


def _spherical_cases():
    """Named systems for the spherical-completeness certificate: the
    fixtures, the same systems parsed back from their text, gen_system
    systems of every constraint, and one-point systems."""
    named = [
        ("grid", dyadic_grid()),
        ("triple", lopsided_triple()),
        ("chain", ultrametric_chain()),
        ("twins", twin_pair()),
        ("chain-heavy", CHAIN_HEAVY),
        ("equilateral", EQUILATERAL),
        ("one-point", make_system(["a"], (0, 1), [[TOP]])),
    ]
    cases = named + [
        (f"parsed-{name}", parse_system(serialize_system(sys))) for name, sys in named
    ]
    cases += [
        (
            f"gen-{constraint}-{seed}",
            gen_system(seed, GenParams(point_count=(1, 8), constraint=constraint)),
        )
        for constraint in CONSTRAINTS
        for seed in range(10)
    ]
    return cases


SPHERICAL_CASES = _spherical_cases()
SPHERICAL_SYSTEMS = [sys for _, sys in SPHERICAL_CASES]


class TestCompactAndSpherical:
    def test_finite_note(self, chain):
        rep = check_compact_structure(chain)
        assert rep.holds
        assert rep.note == "finite ground set: FIP automatic"

    def test_spherical_note(self, grid):
        rep = check_spherical_completeness(grid)
        assert rep.holds
        assert rep.note == "finite ground set: every nested ball chain is finite"

    @given(small_systems())
    @settings(max_examples=30)
    def test_always_hold_on_finite_systems(self, sys):
        assert check_compact_structure(sys).holds
        assert check_spherical_completeness(sys).holds

    @given(small_systems(), st.sampled_from(MODES), st.integers(min_value=1, max_value=200))
    @example(CHAIN_HEAVY, ARBITRARY_CENTER, hulls.DEFAULT_SET_CAP)
    @example(CHAIN_HEAVY, PAPER_COV, hulls.DEFAULT_SET_CAP)
    @example(CHAIN_HEAVY, ARBITRARY_CENTER, 171)
    @settings(max_examples=200)
    def test_compact_cap_is_the_enumeration_cap(self, sys, mode, cap):
        # the enumeration cap is the only one: the compact report makes no
        # closure, so it holds wherever enumerate_admissible hits that cap
        calls = []
        real = hulls._intersection_closure
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                hulls,
                "_intersection_closure",
                lambda gens: calls.append(gens) or real(gens),
            )
            rep = check_compact_structure(sys)
        assert calls == []
        try:
            with closure_cap(cap):
                enumerate_admissible(sys, mode)
        except ResourceLimitError:
            assert rep == StructureReport(
                "compact-structure", True, note="finite ground set: FIP automatic"
            )

    @given(small_systems(), st.sampled_from(MODES))
    @example(CHAIN_HEAVY, ARBITRARY_CENTER)
    @example(CHAIN_HEAVY, PAPER_COV)
    @settings(max_examples=100)
    def test_compact_fails_on_an_empty_member(self, sys, mode):
        # a walk that fails on the first empty member of the family gives
        # the report check_compact_structure gives without the walk
        family = enumerate_admissible(sys, mode)
        empty = [adm.points.bits for adm in family if adm.points.is_empty]
        walked = (
            StructureReport("compact-structure", False, witness=(empty[0],))
            if empty
            else StructureReport(
                "compact-structure", True, note="finite ground set: FIP automatic"
            )
        )
        assert check_compact_structure(sys) == walked

    def test_closure_keeps_no_empty_member(self):
        # why the walk above can skip its failure branch: disjoint balls
        # intersect to the empty set, which the closure drops
        assert hulls._intersection_closure([0b0011, 0b1100, 0b0110]) == {
            0b0011, 0b1100, 0b0110, 0b0010, 0b0100,
        }

    @pytest.mark.parametrize(
        "sys", SPHERICAL_SYSTEMS, ids=[name for name, _ in SPHERICAL_CASES]
    )
    def test_spherical_is_the_level_table_certificate(self, sys):
        # every level-table row is built holding its center, and level_rows
        # reads only those rows, outside the window too
        table = sys.level_table()
        below, above = sys.window.below, sys.window.above
        for rows in table:
            assert all(row >> x & 1 for x, row in enumerate(rows))
        for k in (below - 5, below - 1, above + 1, above + 5):
            assert sys.level_rows(k) in (table[0], table[-1])
            assert all(row >> x & 1 for x, row in enumerate(sys.level_rows(k)))
        # a walk that fails on the first ball missing its center, at every
        # level in and around the window, gives the report the check gives
        # without the walk
        dropped = [
            (ball(sys, x, lev).bits, lev)
            for lev in range(below - 1, above + 2)
            for x in range(sys.n)
            if x not in ball(sys, x, lev)
        ]
        walked = (
            StructureReport("spherical-completeness", False, witness=(dropped[0],))
            if dropped
            else StructureReport(
                "spherical-completeness",
                True,
                note="finite ground set: every nested ball chain is finite",
            )
        )
        assert check_spherical_completeness(sys) == walked


# n = 1, n = 8/9/17 around the byte boundaries of a mask, span 0, and the
# 4-point systems whose families have 7, 8 and 9 members
SEEDED = [
    (seed, n, span)
    for n, spans in ((1, (0, 3)), (8, (0, 3)), (9, (0, 4)), (17, (0, 1)), (4, (1,)))
    for span in spans
    for seed in range(6)
]


def with_twins(sys, twins):
    """sys with every point replaced by `twins` points at the window's top
    grade to one another: twins take the same balls at every level below
    the top."""
    size, above, entries = sys.n * twins, sys.window.above, sys.grades.entries
    rows = [
        [
            TOP if x == y else above if x // twins == y // twins else entries[x // twins][y // twins]
            for y in range(size)
        ]
        for x in range(size)
    ]
    return make_system([str(i) for i in range(size)], (sys.window.below, above), rows)


def assert_sliced_matches_oracle(sys):
    """The family record's rows, filter and witnesses against hull_oracle,
    read with no _hull_mask call."""
    want = {mode: hull_oracle(sys, mode) for mode in MODES}
    hull_masks = []
    real = hulls._hull_mask
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hulls, "_hull_mask", lambda *a: hull_masks.append(a) or real(*a))
        record = hulls._family_record(sys)
        members = row_masks(sys, record.matrix)
        paper = tuple(compress(members, record.paper))
        got = {}
        for mode in MODES:
            rows, witnesses = hulls._witnessed_members(sys, mode, lambda p: p)
            got[mode] = [
                (bits, tuple(witness))
                for bits, witness in zip(row_masks(sys, rows), witnesses, strict=True)
            ]
        families = {mode: hulls._family(sys, mode) for mode in MODES}
    assert hull_masks == []
    assert type(record.matrix) is bytes and len(record.paper) == len(members)
    assert members == [bits for bits, _ in want[ARBITRARY_CENTER]]
    assert paper == tuple(bits for bits, _ in want[PAPER_COV])
    for mode in MODES:
        assert families[mode] == tuple(b for b, _ in want[mode])
        assert got[mode] == want[mode]
    return record


def assert_matches_text_column_pass(sys):
    """The family record's paper-cov filter and step counts against
    text_column_pass over its own rows."""
    record = hulls._family_record(sys)
    paper, steps = text_column_pass(sys, row_masks(sys, record.matrix))
    assert record.paper == paper
    assert [list(counts) for counts in record.steps] == steps
    return record


def square_system(n=257):
    """Points 0-3 form a square, at grade 0 across it and -1 along it;
    every other pair is at -1, the floor of the window 0 2.  Past 256
    points its spread items take two bytes, and the paper-cov hulls of
    {0, 1} and {2, 3} are the whole set, so the filter drops them."""
    rows = [
        [TOP if x == y else 0 if x < 4 and y < 4 and (x < 2) != (y < 2) else -1 for y in range(n)]
        for x in range(n)
    ]
    return make_system([str(i) for i in range(n)], (0, 2), rows)


def center_shrinks(sys):
    """Every (before, after) pair of balls where a center's balls shrink
    from one level to the next, once per center that takes it."""
    table = sys.level_table()
    return [
        (lower[x], upper[x])
        for x in range(sys.n)
        for lower, upper in zip(table, table[1:])
        if lower[x] != upper[x]
    ]


@pytest.mark.deep
class TestSlicedFamily:
    """The column pass over the closure against per-member hulls."""

    @given(small_systems())
    @example(CHAIN_HEAVY)
    @examples(100)
    def test_random_systems(self, sys):
        assert_sliced_matches_oracle(sys)

    def test_seeded_systems(self):
        sizes = set()
        for seed, n, span in SEEDED:
            sys = seeded_system(seed, n, span)
            record = assert_sliced_matches_oracle(sys)
            assert all(type(steps) is bytes for steps in record.steps)
            sizes |= {len(hulls._family(sys, mode)) for mode in MODES}
        assert {1, 7, 8, 9} <= sizes

    def test_sparse_transitive_systems(self):
        # 24 to 48 ultrametric points give under two members per point:
        # the pass decides sparse families as well as dense ones
        params = GenParams(point_count=(24, 48), window_span=(3, 6), constraint="transitive")
        per_point = []
        for seed in range(10):
            sys = gen_system(seed, params)
            assert_sliced_matches_oracle(sys)
            assert_matches_text_column_pass(sys)
            closure = hulls._family(sys, ARBITRARY_CENTER)
            per_point.append(len(closure) / sys.n)
        assert max(per_point) < 2

    @given(cluster_tree_systems(max_points=48, min_points=24))
    @examples(20, deep=200)
    def test_cluster_tree_systems(self, sys):
        # the inputs of the analyze-large benchmark: 24 to 48 points whose
        # every level is an equivalence, so a cluster's points share balls
        assert_sliced_matches_oracle(sys)
        assert_matches_text_column_pass(sys)

    @given(cluster_tree_systems(max_points=10, min_points=4), st.integers(3, 6))
    @examples(20, deep=500)
    def test_twin_heavy_systems(self, tree, twins):
        # every point of a cluster tree becomes 3 to 6 twins, which take
        # the same shrinks but the last, so centers share most shrinks
        sys = with_twins(tree, twins)
        shrinks = center_shrinks(sys)
        assert len(set(shrinks)) < len(shrinks)
        assert_sliced_matches_oracle(sys)
        assert_matches_text_column_pass(sys)

    @staticmethod
    def walked_masks(sys):
        """The masks whose points iter_bits lists while the family record
        of a fresh copy of sys is built."""
        sys = dataclasses.replace(sys)
        hulls._ball_index(sys)
        walked = []
        real = hulls.iter_bits
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hulls, "iter_bits", lambda bits: walked.append(bits) or real(bits))
            hulls._family_record(sys)
        return walked

    @given(cluster_tree_systems(max_points=48, min_points=4))
    @example(with_twins(make_system(["a", "b"], (0, 1), [[TOP, 0], [0, TOP]]), 2))
    @examples(100, deep=500)
    def test_leaving_points_walked_once_per_distinct_shrink(self, sys):
        # in a cluster tree the points that leave a ball are listed once
        # per distinct (before, after) shrink, however many centers take
        # it; a walk per center lists n - 1 points at every center, and
        # past three points some part of the first split holds two
        shrinks = center_shrinks(sys)
        walked = self.walked_masks(sys)
        assert sorted(walked) == sorted(before & ~after for before, after in set(shrinks))
        assert sum((before & ~after).bit_count() for before, after in shrinks) == sys.n * (sys.n - 1)
        assert sum(map(int.bit_count, walked)) < sys.n * (sys.n - 1)

    @given(small_systems())
    @example(CHAIN_HEAVY)
    @example(star_system(9))
    def test_leaving_points_walked_once_per_shared_path(self, sys):
        # on any system a shrink is walked once per distinct path from the
        # floor ball that leads to it, never more often than centers take it
        table = sys.level_table()
        paths = [
            tuple(upper[x] for lower, upper in zip(table, table[1:]) if lower[x] != upper[x])
            for x in range(sys.n)
        ]
        prefixes = {path[:depth] for path in paths for depth in range(1, len(path) + 1)}
        walked = self.walked_masks(sys)
        floor = table[0][0]
        assert sorted(walked) == sorted((prefix[-2] if len(prefix) > 1 else floor) & ~prefix[-1] for prefix in prefixes)
        assert len(walked) <= len(center_shrinks(sys))

    @pytest.mark.parametrize("n", [256, 257, 300])
    def test_shrinks_past_a_byte(self, n):
        # point 0's balls shrink n - 1 times: 255 fit a byte per member,
        # and past that each count takes two bytes, read by the same pass
        sys = star_system(n)
        width = 1 if n <= 256 else 2
        record = assert_sliced_matches_oracle(sys)
        assert len(record.levels[0]) == n
        for steps in record.steps:
            assert type(steps) is (bytes if width == 1 else array)
            assert len(steps) == len(record.matrix) // ((n + 7) // 8)
            assert memoryview(steps).itemsize == width
        # a count past 255 is read whole: {0} stays inside every ball at 0
        assert record.steps[0][row_masks(sys, record.matrix).index(1)] == n - 1

    @given(small_systems())
    @example(CHAIN_HEAVY)
    @example(EQUILATERAL)
    @examples(60)
    def test_column_pass_decides_every_family(self, sys):
        # whatever the family's size, no member's hull is taken on its own
        hull_masks = []
        real = hulls._hull_mask
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hulls, "_hull_mask", lambda *a: hull_masks.append(a) or real(*a))
            for mode in MODES:
                enumerate_admissible(sys, mode)
        assert ("family", hulls.DEFAULT_SET_CAP) in sys.__dict__["_memo"]
        assert hull_masks == []

    @given(small_systems())
    @example(CHAIN_HEAVY)
    @example(EQUILATERAL)
    def test_matches_the_text_column_pass(self, sys):
        assert_matches_text_column_pass(sys)

    @pytest.mark.parametrize(
        "system, dropped",
        [(lambda: star_system(256), []), (lambda: star_system(257), []), (square_system, [3, 12])],
        ids=["256", "257", "257-square"],
    )
    def test_matches_the_text_column_pass_past_a_byte(self, system, dropped):
        # the byte-spread columns take two bytes per member past 256 points,
        # and the paper-cov filter is read off the low byte of each; the
        # square's filter drops {0, 1} and {2, 3}
        sys = system()
        record = assert_matches_text_column_pass(sys)
        masks = row_masks(sys, record.matrix)
        assert [bits for bits, kept in zip(masks, record.paper) if not kept] == dropped

    @given(small_systems(), st.integers(min_value=0, max_value=1 << 16))
    @example(CHAIN_HEAVY, 86)
    @examples(60)
    def test_a_member_that_moves_raises(self, sys, pick):
        # any mask outside the closure moves under its hull; add one to the
        # closure the family record is built from, in the reversed form the
        # record closes the balls in (point y at bit 8 * size - 1 - y): the
        # column pass fails, and so does every read of either mode's family
        # or witnesses
        closure = hulls._family(sys, ARBITRARY_CENTER)
        outside = [bits for bits in range(1, 1 << sys.n) if bits not in closure]
        if not outside:
            return
        width = 8 * ((sys.n + 7) // 8)
        bad = int(f"{outside[pick % len(outside)]:0{width}b}"[::-1], 2)
        real = hulls._intersection_closure
        reads = [
            hulls._family_record,
            lambda s: list(zip(*hulls._witnessed_members(s, PAPER_COV, lambda p: p))),
            lambda s: enumerate_admissible(s, ARBITRARY_CENTER),
            lambda s: hulls._family(s, PAPER_COV),
        ]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hulls, "_intersection_closure", lambda gens: real(gens) | {bad})
            for read in reads:
                with pytest.raises(
                    RuntimeError, match="moved under the arbitrary-center hull"
                ):
                    read(dataclasses.replace(sys))


@pytest.mark.deep
class TestReversedFamily:
    """The family record, closed and sorted in reversed form, against the
    standard-form route it replaced: the ball closure sorted by
    PointSet.canonical_key, each member's hulls and witnesses from hull(),
    and the same cap error."""

    @staticmethod
    def assert_matches_standard_form(sys):
        n, size = sys.n, (sys.n + 7) // 8
        closure = sorted(
            hulls._intersection_closure(hulls._ball_index(sys)),
            key=lambda bits: PointSet(n, bits).canonical_key(),
        )
        record = hulls._family_record(sys)
        assert record.matrix == b"".join(bits.to_bytes(size, "little") for bits in closure)
        for mode in MODES:
            want = [
                adm
                for bits in closure
                for adm in [hull(sys, PointSet(n, bits), mode)]
                if adm.points.bits == bits
            ]
            masks = tuple(adm.points.bits for adm in want)
            rows, witnesses = hulls._witnessed_members(sys, mode, lambda p: p)
            assert rows == b"".join(bits.to_bytes(size, "little") for bits in masks)
            assert [tuple(w) for w in witnesses] == [adm.witness_balls for adm in want]
            assert hulls._family(sys, mode) == masks
            assert admissible_family_bits(sys, mode) == frozenset(masks)
            assert enumerate_admissible(sys, mode) == tuple(want)
        # a cap below the family size stops both closures at one generator
        m = len(closure)
        for cap in sorted({0, m // 2, m - 1}):
            with closure_cap(cap):
                with pytest.raises(ResourceLimitError) as want:
                    hulls._intersection_closure(hulls._ball_index(sys))
                with pytest.raises(ResourceLimitError) as got:
                    hulls._family_record(dataclasses.replace(sys))
            assert (got.value.cap, got.value.reached) == (want.value.cap, want.value.reached)
            assert str(got.value) == str(want.value)

    # padding of 7, 1, 0, 7, 0, 7 and 0 bits, and 1 to 4 bytes per row
    @pytest.mark.parametrize("n, span", [(1, 0), (7, 3), (8, 3), (9, 3), (16, 1), (17, 1), (24, 0)])
    def test_seeded_systems(self, n, span):
        for seed in range(2):
            self.assert_matches_standard_form(seeded_system(seed, n, span))

    # 32 and 33 bytes per row
    @pytest.mark.parametrize("n", [256, 257])
    def test_star_systems(self, n):
        self.assert_matches_standard_form(star_system(n))

    @given(small_systems())
    @example(CHAIN_HEAVY)
    @examples(100)
    def test_random_systems(self, sys):
        self.assert_matches_standard_form(sys)
