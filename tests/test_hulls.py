"""Balls, hulls, admissible families, radii, and the structure checks."""

import dataclasses
import random
from array import array
from contextlib import contextmanager
from functools import reduce
from itertools import compress
from operator import and_

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
from gradedrel.pointset import iter_bits
from gradedrel.semimetric import delta, metric_ball_collapse

from conftest import examples
from test_relations import small_systems

MODES = (PAPER_COV, ARBITRARY_CENTER)

# Unconstrained 8-point system whose closure family has 172 members but over
# 25,000 steps of maximal chains.
CHAIN_HEAVY = make_system(
    [str(i) for i in range(8)],
    (-2, 0),
    [
        [TOP, -2, 0, -2, 0, -1, -3, 0],
        [-2, TOP, -3, -2, -2, -1, -1, -1],
        [0, -3, TOP, -1, -2, 0, -1, -1],
        [-2, -2, -1, TOP, -3, -3, -1, -1],
        [0, -2, -2, -3, TOP, -1, -1, -1],
        [-1, -1, 0, -3, -1, TOP, 0, -3],
        [-3, -1, -1, -1, -1, 0, TOP, -1],
        [0, -1, -1, -1, -1, -3, -1, TOP],
    ],
)


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


class TestCanonicalMaskKey:
    def test_reversal_table(self):
        assert len(hulls._REVERSED) == 256
        for i in range(256):
            assert hulls._REVERSED[i] == sum(1 << (7 - k) for k in range(8) if i >> k & 1)

    def test_every_mask_up_to_12_points(self):
        for n in range(13):
            key = hulls._canonical_mask_key(n)
            masks = range(1 << n)
            assert sorted(masks, key=key) == sorted(
                masks, key=lambda b: PointSet(n, b).canonical_key()
            )
            assert len({key(b) for b in masks}) == 1 << n

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
        assert sorted(masks, key=hulls._canonical_mask_key(n)) == sorted(
            masks, key=lambda b: PointSet(n, b).canonical_key()
        )

    @staticmethod
    def assert_matches_the_string_reversal(n, masks):
        # the key read as text: the complement's n binary digits reversed
        full = (1 << n) - 1
        key = hulls._canonical_mask_key(n)
        for bits in masks:
            want = (bits.bit_count() << n) | int(format(full ^ bits, f"0{n}b")[::-1], 2)
            assert key(bits) == want, (n, bits)
        assert sorted(masks, key=key) == sorted(
            masks, key=lambda b: PointSet(n, b).canonical_key()
        )

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
        # one low byte, so masks of one size are ordered by a higher byte
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


def closure_oracle(n, generators):
    """Nonempty S is in the intersection closure of the generators iff some
    generator contains S and S is the AND of every generator containing it."""
    out = set()
    for s in range(1, 1 << n):
        covering = [g for g in generators if s & ~g == 0]
        if covering and reduce(and_, covering) == s:
            out.add(s)
    return out


@st.composite
def mask_families(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    masks = st.integers(min_value=1, max_value=(1 << n) - 1)
    return n, draw(st.lists(masks, min_size=1, max_size=12))


def closure_full_pass(generators):
    """The closure with one pass over the whole family per new generator,
    as before the trace of the last generator was reused: the oracle for
    the family size at every step, and so for the cap error."""
    cap = hulls.DEFAULT_SET_CAP
    family = set()
    for b in generators:
        if b in family:
            continue
        new = {b & f for f in family}
        new.add(b)
        new.discard(0)
        family |= new
        if len(family) > cap:
            raise ResourceLimitError("over the cap", cap, len(family))
    return family


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


def family_from_metric_balls_oracle(sys, radii, mode):
    """The metric-ball route one mode at a time, as before both modes
    shared one pass: each call computes its own balls in ascending radius
    and closes them."""
    radii = sorted(set(radii))
    balls = [
        [metric_ball_collapse(sys, x, r).bits for r in radii] for x in range(sys.n)
    ]
    family = hulls._intersection_closure([b for row in balls for b in row])
    if mode == ARBITRARY_CENTER:
        return frozenset(family)
    full = (1 << sys.n) - 1
    kept = set()
    for bits in family:
        cov = full
        for x in iter_bits(bits):
            # the smallest sampled ball at x that covers the set
            cov &= next((b for b in balls[x] if bits & ~b == 0), full)
        if cov == bits:
            kept.add(bits)
    return frozenset(kept)


HULL_EQUIVALENCE = harness.CLAIMS["hull-equivalence"]


class TestMetricBallFamilies:
    """harness._metric_ball_families against the per-mode oracle above."""

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
        seen = []
        real = harness.metric_ball_collapse
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                harness,
                "metric_ball_collapse",
                lambda s, x, r: seen.append((x, r)) or real(s, x, r),
            )
            assert HULL_EQUIVALENCE.check(sys, None) is None
        assert len(seen) == sys.n * len(radii)
        assert set(seen) == {(x, r) for x in range(sys.n) for r in radii}


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
        # builds no closure when the hull fixes some pair
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
        pair_fixed = any(bits.bit_count() == 2 for bits in family)
        assert calls == ([] if pair_fixed else [hulls.DEFAULT_SET_CAP])


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


# The normal-structure routines as they were before each took one walk per
# set: radii and the distance route walked their pairs twice, the clique
# seed took a second pass, and every candidate of the check went through
# all three routes.  The one-walk versions must give the same reports.


def radii_oracle(sys, points):
    members = points.members()
    per_point = []
    cheb_grade = None
    for x in members:
        worst = TOP
        for y in members:
            if y == x:
                continue
            g = sys.grades.entries[x][y]
            if g < worst:
                worst = g
        per_point.append((x, hulls._grade_distance(worst)))
        if cheb_grade is None or worst > cheb_grade:
            cheb_grade = worst
    diam_grade = TOP
    for i, x in enumerate(members):
        for y in members[i + 1 :]:
            g = sys.grades.entries[x][y]
            if g < diam_grade:
                diam_grade = g
    return hulls.RadiiReport(
        points=points,
        per_point=tuple(per_point),
        cheb_radius=hulls._grade_distance(cheb_grade),
        diameter=hulls._grade_distance(diam_grade),
        cheb_grade=cheb_grade,
        diam_grade=diam_grade,
    )


def normality_criteria_oracle(sys, points):
    rep = radii_oracle(sys, points)
    grade_strict = rep.cheb_grade > rep.diam_grade

    members = points.members()
    per_point_sup = []
    for x in members:
        sup = DyadicValue.zero()
        for y in members:
            d = delta(sys, x, y)
            if d > sup:
                sup = d
        per_point_sup.append(sup)
    cheb = min(per_point_sup) if per_point_sup else DyadicValue.zero()
    diam = DyadicValue.zero()
    for i, x in enumerate(members):
        for y in members[i + 1 :]:
            d = delta(sys, x, y)
            if d > diam:
                diam = d
    distance_strict = cheb < diam

    cover_levels = set()
    diam_levels = set()
    for n in range(sys.window.below, sys.window.above + 1):
        rows = sys.level_rows(n)
        if any(points.bits & ~rows[x] == 0 for x in members):
            cover_levels.add(n)
        if all(points.bits & ~rows[x] == 0 for x in members):
            diam_levels.add(n)
    relational_proper = diam_levels < cover_levels
    return hulls.NormalityCriteria(grade_strict, distance_strict, relational_proper)


def min_distance_clique_oracle(sys):
    best = sys.window.below
    for x in range(sys.n):
        for y in range(x + 1, sys.n):
            g = sys.grades.entries[x][y]
            if g > best:
                best = g
    seed = None
    for x in range(sys.n):
        for y in range(x + 1, sys.n):
            if sys.grades.entries[x][y] == best:
                seed = (x, y)
                break
        if seed:
            break
    members = [seed[0], seed[1]]
    for x in range(sys.n):
        if x in members:
            continue
        if all(sys.grades.entries[x][m] == best for m in members):
            members.append(x)
    return PointSet.of(sys.n, sorted(members))


def check_normal_structure_oracle(sys, mode):
    pairs = (1 << x | 1 << y for x in range(sys.n) for y in range(x + 1, sys.n))
    fixed = next((p for p in pairs if hulls._hull_mask(sys, p, mode)[0] == p), None)
    for bits in (fixed,) if fixed else hulls._family(sys, mode):
        if bits.bit_count() < 2:
            continue
        points = PointSet(sys.n, bits)
        if not normality_criteria_oracle(sys, points).grade_strict:
            return StructureReport(
                "normal-structure",
                False,
                witness=(hull(sys, points, mode), radii_oracle(sys, points)),
                note="radius equals diameter on the witness set",
            )
    return StructureReport(
        "normal-structure",
        True,
        note="no admissible set with two or more points" if sys.n < 2 else "",
    )


# two pairs at the top grade, (0, 1) first: the clique grows from the first
TWO_TOP_PAIRS = make_system(
    ["a", "b", "c", "d"],
    (0, 2),
    [[TOP, 2, 0, 1], [2, TOP, 1, 0], [0, 1, TOP, 2], [1, 0, 2, TOP]],
)
ONE_POINT = make_system(["a"], (0, 1), [[TOP]])
TWO_POINTS = make_system(["a", "b"], (0, 1), [[TOP, 1], [1, TOP]])


class TestNormalStructureOracle:
    """The one-walk routines against the two-walk oracles above."""

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

    def test_equilateral_takes_the_family_fallback(self):
        # no pair is admissible, so the witness is the whole three-point set
        for mode in MODES:
            assert not any(
                bits.bit_count() == 2 for bits in hulls._family(EQUILATERAL, mode)
            )
            rep = check_normal_structure(EQUILATERAL, mode)
            assert rep.witness[0].points.bits == 0b111


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


class TestNormalStructureRule:
    """Whether the family walk of check_normal_structure, taken when the
    hull fixes no pair, can be replaced by a rule over pair hulls."""

    def test_closure_mode_witness_is_the_least_pair_hull(self):
        # Proved: a least-size member M with two or more points is flat.
        # For a pair x, y at M's diameter grade d, a z in M whose worst
        # grade in M exceeded d would make B(x, d + 1) & M a smaller member
        # holding x and z but not y.  The arbitrary-center hull is a closure,
        # so every such M is the hull of a pair inside it.
        walks = 0
        for constraint in CONSTRAINTS:
            for seed in range(300):
                sys = gen_system(seed, GenParams(point_count=(2, 8), constraint=constraint))
                n = sys.n
                pairs = [1 << x | 1 << y for x in range(n) for y in range(x + 1, n)]
                if any(_hull_mask(sys, p, ARBITRARY_CENTER)[0] == p for p in pairs):
                    continue
                walks += 1
                rep = check_normal_structure(sys, ARBITRARY_CENTER)
                least = min(
                    (_hull_mask(sys, p, ARBITRARY_CENTER)[0] for p in pairs),
                    key=lambda bits: PointSet(n, bits).canonical_key(),
                )
                assert rep.witness[0].points.bits == least, (constraint, seed)
                assert _least_pair_hull(sys, ARBITRARY_CENTER) == least
        # 137 of the 1,200 systems take the walk, so the rule is exercised
        assert walks == 137

    def test_paper_mode_walk_is_not_a_pair_rule(self):
        # Refuted: no pair is fixed, and the first member with two or more
        # points, {0, 1, 4}, is normal (Chebyshev grade 4 against diameter
        # grade 3); iterating the hull from each pair reaches that set too,
        # while the walk's witness is {0, 2, 4}
        sys = gen_system(1836, GenParams(point_count=(2, 9), window_span=(1, 5)))
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


def seeded_system(seed, n, span):
    """Unconstrained n-point system, grades uniform over a span-wide window."""
    rng = random.Random(seed)
    lo = rng.randint(-2, 2)
    rows = [[TOP] * n for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            rows[x][y] = rows[y][x] = rng.randint(lo - 1, lo + span)
    return make_system([str(i) for i in range(n)], (lo, lo + span), rows)


# n = 1, n = 8/9/17 around the byte boundaries of a mask, span 0, and the
# 4-point systems whose families have 7, 8 and 9 members
SEEDED = [
    (seed, n, span)
    for n, spans in ((1, (0, 3)), (8, (0, 3)), (9, (0, 4)), (17, (0, 1)), (4, (1,)))
    for span in spans
    for seed in range(6)
]


def star_system(n):
    """Point 0 meets point j at grade j and every other pair is at the
    floor, so the balls at 0 shrink n - 1 times."""
    rows = [
        [TOP if x == y else max(x, y) if 0 in (x, y) else 0 for y in range(n)]
        for x in range(n)
    ]
    return make_system([str(i) for i in range(n)], (1, n - 1), rows)


def hull_oracle(sys, mode):
    """The family and its witnesses from one _hull_mask call per member:
    the paper-cov family keeps the closure members its hull fixes."""
    closure = sorted(
        hulls._intersection_closure(hulls._ball_index(sys)),
        key=lambda bits: PointSet(sys.n, bits).canonical_key(),
    )
    assert all(hulls._hull_mask(sys, bits, ARBITRARY_CENTER)[0] == bits for bits in closure)
    return [
        (bits, witness)
        for bits in closure
        for out, witness in [hulls._hull_mask(sys, bits, mode)]
        if out == bits
    ]


def assert_sliced_matches_oracle(sys):
    """The family record's masks, filter and witnesses against hull_oracle,
    read with no _hull_mask call."""
    want = {mode: hull_oracle(sys, mode) for mode in MODES}
    hull_masks = []
    real = hulls._hull_mask
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hulls, "_hull_mask", lambda *a: hull_masks.append(a) or real(*a))
        record = hulls._family_record(sys)
        paper = tuple(compress(record.masks, record.paper))
        got = {
            mode: [
                (bits, tuple(witness))
                for bits, witness in zip(*hulls._witnessed_members(sys, mode, lambda p: p))
            ]
            for mode in MODES
        }
        families = {mode: hulls._family(sys, mode) for mode in MODES}
    assert hull_masks == []
    assert paper == tuple(bits for bits, _ in want[PAPER_COV])
    for mode in MODES:
        assert families[mode] == tuple(b for b, _ in want[mode])
        assert got[mode] == want[mode]
    return record


def text_column_pass(sys, family):
    """The paper-cov filter and the per-center step counts of a family in
    canonical order, from the column pass as it was before the byte
    matrix: each point's column read from the members' binary text, and
    each shrink's inside positions formatted as 0/1 items and summed.  The
    counts come back as one list of ints per center."""
    n, m = sys.n, len(family)
    every = (1 << m) - 1
    width = next(w for w in (1, 2, 4, 8) if n <= 1 << 8 * w)
    text = "".join(map(f"{{:0{n}b}}".format, family))
    member = [int(text[n - 1 - y :: n][::-1], 2) for y in range(n)]

    def items01(bits, width):
        ones = format(bits, f"0{m}b")[::-1].encode().translate(bytes.maketrans(b"01", b"\0\1"))
        items = bytearray(m * width)
        items[::width] = ones
        return bytes(items)

    table = sys.level_table()
    paper_drops = [0] * n
    steps = []
    for x in range(n):
        outside = count = 0
        for lower, upper in zip(table, table[1:]):
            if lower[x] == upper[x]:
                continue
            gone = f"{lower[x] & ~upper[x]:b}"[::-1]
            leaving = [y for y, bit in enumerate(gone) if bit == "1"]
            for y in leaving:
                outside |= member[y]
            inside = every ^ outside
            for y in leaving:
                paper_drops[y] |= inside & member[x]
            count += int.from_bytes(items01(inside, width), "little")
        counts = count.to_bytes(m * width, "little")
        steps.append([int.from_bytes(counts[i : i + width], "little") for i in range(0, m * width, width)])
    unfixed = 0
    for y in range(n):
        unfixed |= every & ~(paper_drops[y] | member[y])
    return items01(every ^ unfixed, 1), steps


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
            closure = hulls._family(sys, ARBITRARY_CENTER)
            per_point.append(len(closure) / sys.n)
        assert max(per_point) < 2

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
            assert len(steps) == len(record.masks)
            assert memoryview(steps).itemsize == width
        # a count past 255 is read whole: {0} stays inside every ball at 0
        assert record.steps[0][record.masks.index(1)] == n - 1

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
        record = hulls._family_record(sys)
        paper, steps = text_column_pass(sys, record.masks)
        assert record.paper == paper
        assert [list(counts) for counts in record.steps] == steps

    @pytest.mark.parametrize("n", [256, 257])
    def test_matches_the_text_column_pass_past_a_byte(self, n):
        # the byte-spread columns take two bytes per member past 256 points
        sys = star_system(n)
        record = hulls._family_record(sys)
        paper, steps = text_column_pass(sys, record.masks)
        assert record.paper == paper
        assert [list(counts) for counts in record.steps] == steps

    @given(small_systems(), st.integers(min_value=0, max_value=1 << 16))
    @example(CHAIN_HEAVY, 86)
    @examples(60)
    def test_a_member_that_moves_raises(self, sys, pick):
        # any mask outside the closure moves under its hull; add one to the
        # closure the family record is built from: the column pass fails,
        # and so does every read of either mode's family or witnesses
        closure = hulls._family(sys, ARBITRARY_CENTER)
        outside = [bits for bits in range(1, 1 << sys.n) if bits not in closure]
        if not outside:
            return
        bad = outside[pick % len(outside)]
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
