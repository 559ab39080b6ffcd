"""Induced dyadic distance, classification, and matrix ingestion."""

import dataclasses
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from gradedrel import (
    DyadicValue,
    ResourceLimitError,
    StructuralInputError,
    TOP,
    Window,
    ball,
    classify,
    delta,
    expand_level,
    ingest_distance_matrix,
    make_system,
    metric_ball_collapse,
    minimal_inframetric_constant,
    mu,
    reconstruct_level,
)
from gradedrel import semimetric
from gradedrel.harness import GenParams, gen_system

from oracles import (
    _classify_dyadic,
    _minimal_inframetric_constant_dyadic,
    _scan_grade,
    ingest_distance_matrix_oracle,
    metric_ball_collapse_oracle,
    reconstruct_level_oracle,
)
from strategies import examples, small_systems, wide_sparse_systems


class TestInducedDistance:
    def test_mu_and_delta_agree_with_matrix(self, grid):
        assert mu(grid, 0, 1) == 2
        assert delta(grid, 0, 1) == DyadicValue.pow2(-2)
        assert mu(grid, 2, 2) is TOP
        assert delta(grid, 2, 2).is_zero

    @given(small_systems())
    def test_delta_is_two_to_minus_mu(self, sys):
        for x in range(sys.n):
            for y in range(sys.n):
                g = mu(sys, x, y)
                d = delta(sys, x, y)
                if g is TOP:
                    assert d.is_zero
                else:
                    assert d.as_fraction() == Fraction(1, 2) ** g

    @given(small_systems())
    def test_reconstruct_equals_expand_everywhere(self, sys):
        for n in range(sys.window.below, sys.window.above + 1):
            assert reconstruct_level(sys, n) == expand_level(sys, n)

    @given(small_systems())
    def test_reconstruct_monotone(self, sys):
        prev = None
        for n in range(sys.window.below, sys.window.above + 1):
            cur = reconstruct_level(sys, n)
            if prev is not None:
                assert cur.subset_of(prev)
            prev = cur


class TestMetricBallCollapse:
    def test_grid_example(self, grid):
        # radius 3/10 reaches exactly the first two sample points
        got = metric_ball_collapse(grid, 0, Fraction(3, 10))
        assert [grid.labels[i] for i in got] == ["0", "1/4"]

    def test_radius_at_breakpoint(self, grid):
        got = metric_ball_collapse(grid, 0, Fraction(1, 4))
        assert [grid.labels[i] for i in got] == ["0", "1/4"]

    def test_huge_radius_covers_everything(self, grid):
        assert len(metric_ball_collapse(grid, 0, Fraction(100))) == grid.n

    def test_tiny_radius_is_singleton(self, grid):
        assert metric_ball_collapse(grid, 2, Fraction(1, 1000)).members() == (2,)

    def test_rejects_float(self, grid):
        with pytest.raises(StructuralInputError):
            metric_ball_collapse(grid, 0, 0.3)

    def test_rejects_nonpositive(self, grid):
        with pytest.raises(StructuralInputError):
            metric_ball_collapse(grid, 0, Fraction(0))

    @pytest.mark.parametrize("name", ["grid", "chain", "triple"])
    def test_radii_at_every_level_and_on_both_clamps(self, name, request):
        sys = request.getfixturevalue(name)
        below, above = sys.window.below, sys.window.above
        # 2**-g at every level of the window, then one radius past each end:
        # 2**-(below - 1) clamps to below, and 2**-(above + 1) to above
        radii = [Fraction(2) ** -g for g in range(below, above + 1)]
        radii += [Fraction(2) ** -(below - 1), Fraction(2) ** -(above + 1)]
        levels = [*range(below, above + 1), below, above]
        got = semimetric._metric_balls(sys, range(sys.n), radii)
        assert got == [[ball(sys, x, g).bits for g in levels] for x in range(sys.n)]

    def test_needs_the_level_table_like_ball(self):
        # a window far too wide for a level table
        sys = make_system(
            ["a", "b", "c"], (0, 10**6), [[TOP, 5, 7], [5, TOP, 9], [7, 9, TOP]]
        )
        with pytest.raises(ResourceLimitError):
            ball(sys, 0, 5)
        with pytest.raises(ResourceLimitError):
            metric_ball_collapse(sys, 0, Fraction(1, 32))

    @given(small_systems(), st.fractions(min_value=Fraction(1, 512), max_value=Fraction(64)))
    def test_collapse_matches_brute_force(self, sys, r):
        for x in range(sys.n):
            got = metric_ball_collapse(sys, x, r)
            want = {y for y in range(sys.n) if delta(sys, x, y).as_fraction() <= r}
            assert set(got.members()) == want

    @given(wide_sparse_systems(), st.data())
    def test_collapse_matches_brute_force_at_breakpoints(self, sys, data):
        # radii at a level's distance and a hair either side of it, with
        # distances above and below 1, where the integer cross products
        # must settle every tie exactly
        g = data.draw(st.integers(sys.window.below, sys.window.above + 1))
        hair = Fraction(1, 2 ** data.draw(st.integers(1, 80)))
        r = Fraction(1, 2) ** g * data.draw(st.sampled_from([1, 1 - hair, 1 + hair]))
        for x in range(sys.n):
            got = metric_ball_collapse(sys, x, r)
            want = {y for y in range(sys.n) if delta(sys, x, y).as_fraction() <= r}
            assert set(got.members()) == want


@contextmanager
def counted_delta():
    """The number of delta calls made inside the block, in a list."""
    calls = [0]
    real = semimetric.delta

    def spy(*args):
        calls[0] += 1
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semimetric, "delta", spy)
        yield calls


def _radii(sys, data):
    """Radii at each level's distance, a hair either side of one, and
    arbitrary fractions, with repeats."""
    g = data.draw(st.integers(sys.window.below, sys.window.above + 1))
    hair = Fraction(1, 2 ** data.draw(st.integers(1, 80)))
    near = [Fraction(1, 2) ** g * k for k in (1, 1 - hair, 1 + hair)]
    free = data.draw(
        st.lists(st.fractions(min_value=Fraction(1, 512), max_value=Fraction(64)), max_size=4)
    )
    return data.draw(st.permutations(near + free + near[:1]))


@pytest.mark.deep
class TestOneReadKernels:
    """_reconstruct_levels and _metric_balls against the per-call bodies
    they replaced, each distance read once."""

    @given(st.one_of(small_systems(), wide_sparse_systems()))
    def test_levels_match_the_per_level_body(self, sys):
        levels = range(sys.window.below - 1, sys.window.above + 2)
        with counted_delta() as calls:
            got = semimetric._reconstruct_levels(sys, levels)
        # one read per unordered pair, the diagonal included
        assert calls == [sys.n * (sys.n + 1) // 2]
        assert got == [reconstruct_level_oracle(sys, n).rows for n in levels]
        assert got == [expand_level(sys, n).rows for n in levels]

    def test_levels_in_any_order(self, grid):
        levels = [3, -1, 2, 2, 0]
        got = semimetric._reconstruct_levels(grid, levels)
        assert got == [reconstruct_level_oracle(grid, n).rows for n in levels]
        assert got == [expand_level(grid, n).rows for n in levels]
        assert semimetric._reconstruct_levels(grid, []) == []

    @given(st.one_of(small_systems(), wide_sparse_systems()), st.data())
    def test_balls_match_the_per_call_body(self, sys, data):
        radii = _radii(sys, data)
        centers = data.draw(st.lists(st.integers(0, sys.n - 1), max_size=2 * sys.n))
        with counted_delta() as calls:
            got = semimetric._metric_balls(sys, centers, radii)
        # n distances per center, whatever the number of radii
        assert calls == [len(centers) * sys.n]
        assert got == [
            [metric_ball_collapse_oracle(sys, x, r) for r in radii] for x in centers
        ]

    def test_balls_validate_every_radius(self, grid):
        # validated before any center, so a bad radius fails with no centers too
        for bad in (0.5, Fraction(0), -1, "x"):
            with pytest.raises(StructuralInputError):
                semimetric._metric_balls(grid, [], [Fraction(1, 2), bad])
        # exact rationals of every accepted kind
        assert semimetric._metric_balls(grid, [0], [Fraction(3, 10), "3/10", 1]) == [
            [0b11, 0b11, (1 << grid.n) - 1]
        ]


class TestInframetricConstant:
    def test_grid_and_triple_are_two(self, grid, triple):
        assert minimal_inframetric_constant(grid) == DyadicValue.pow2(1)
        assert minimal_inframetric_constant(triple) == DyadicValue.pow2(1)

    def test_chain_is_one(self, chain):
        assert minimal_inframetric_constant(chain) == DyadicValue.one()

    @pytest.mark.deep
    def test_needs_two_points(self):
        one = make_system(["a"], (0, 1), [[TOP]])
        for constant in (minimal_inframetric_constant, _minimal_inframetric_constant_dyadic):
            with pytest.raises(StructuralInputError, match="fewer than 2 points"):
                constant(one)

    @given(small_systems())
    def test_matches_fraction_division_oracle(self, sys):
        if sys.n < 2:
            return
        c = minimal_inframetric_constant(sys)
        worst = Fraction(0)
        for x in range(sys.n):
            for y in range(sys.n):
                if x == y:
                    continue
                d_xy = delta(sys, x, y).as_fraction()
                for z in range(sys.n):
                    m = max(delta(sys, x, z).as_fraction(), delta(sys, z, y).as_fraction())
                    if m > 0:
                        worst = max(worst, d_xy / m)
        # smallest power of two at or above the worst ratio, floor 1
        want = Fraction(1)
        while want < worst:
            want *= 2
        assert c.as_fraction() == want

    @given(small_systems())
    def test_constant_is_sharp(self, sys):
        # C works everywhere and C/2 fails somewhere (when C > 1)
        if sys.n < 2:
            return
        c = minimal_inframetric_constant(sys).as_fraction()
        ok = all(
            delta(sys, x, y).as_fraction()
            <= c * max(delta(sys, x, z).as_fraction(), delta(sys, z, y).as_fraction())
            for x in range(sys.n)
            for y in range(sys.n)
            for z in range(sys.n)
            if x != y
        )
        assert ok
        if c > 1:
            half = c / 2
            assert any(
                delta(sys, x, y).as_fraction()
                > half
                * max(delta(sys, x, z).as_fraction(), delta(sys, z, y).as_fraction())
                for x in range(sys.n)
                for y in range(sys.n)
                for z in range(sys.n)
                if x != y
            )


class TestClassify:
    def test_triple_breaks_triangle_but_not_composition(self, triple):
        rep = classify(triple)
        assert rep.r9.holds
        assert rep.r10.holds
        assert not rep.triangle_holds
        w = rep.triangle_witness
        labels = (triple.labels[w.x], triple.labels[w.z], triple.labels[w.y])
        assert labels == ("p", "q", "r")
        assert w.d_xy.as_fraction() == 1
        assert w.d_xz.as_fraction() + w.d_zy.as_fraction() == Fraction(17, 32)
        assert rep.class_label == "C-inframetric"
        assert str(rep.minimal_inframetric_c) == "2"

    def test_chain_is_ultrametric(self, chain):
        rep = classify(chain)
        assert rep.class_label == "ultrametric"
        assert rep.strong_triangle_holds
        assert rep.triangle_holds
        assert rep.is_semimetric

    def test_grid_label(self, grid):
        rep = classify(grid)
        assert rep.class_label == "C-inframetric"
        assert not rep.triangle_holds

    def test_twins_are_ultrametric(self, twins):
        assert classify(twins).class_label == "ultrametric"

    def test_single_point(self):
        rep = classify(make_system(["a"], (0, 1), [[TOP]]))
        assert rep.is_semimetric
        assert rep.class_label == "ultrametric"
        assert rep.triangle_witness is None

    @given(small_systems())
    def test_label_consistency(self, sys):
        rep = classify(sys)
        assert rep.is_semimetric  # valid systems always separate
        if rep.class_label == "ultrametric":
            assert rep.strong_triangle_holds and rep.triangle_holds
        elif rep.class_label == "metric":
            assert rep.triangle_holds and not rep.strong_triangle_holds
        else:
            assert rep.class_label == "C-inframetric"
            assert not rep.triangle_holds

    @given(small_systems())
    def test_strong_triangle_iff_transitive(self, sys):
        rep = classify(sys)
        assert rep.strong_triangle_holds == rep.transitive.holds

    @given(small_systems())
    def test_triangle_witness_is_worst(self, sys):
        rep = classify(sys)
        if rep.triangle_witness is None:
            return
        w = rep.triangle_witness
        worst = w.d_xy.as_fraction() - (w.d_xz.as_fraction() + w.d_zy.as_fraction())
        for x in range(sys.n):
            for y in range(x + 1, sys.n):
                for z in range(sys.n):
                    excess = delta(sys, x, y).as_fraction() - (
                        delta(sys, x, z).as_fraction() + delta(sys, z, y).as_fraction()
                    )
                    assert excess <= worst


@st.composite
def distance_matrices(draw):
    """Square symmetric matrices of positive distances with a zero
    diagonal, then up to two faults: a row made longer or shorter, an
    unreadable or a string token, a float, a nonzero diagonal, one cell
    of a pair changed, or a zero or negative pair or cell."""
    n = draw(st.integers(0, 5))
    values = st.one_of(
        st.integers(-40, 40).map(lambda e: Fraction(2) ** e),
        st.builds(Fraction, st.integers(1, 1000), st.integers(1, 1000)),
    )
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(values)
    faults = ["length", "token", "float", "diagonal", "asymmetry", "sign"]
    for kind in draw(st.lists(st.sampled_from(faults), max_size=2)) if n else ():
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        row = rows[i]
        if kind == "length":
            if draw(st.booleans()) or not row:
                row.append(draw(values))
            else:
                row.pop()
        elif j >= len(row) or (kind == "diagonal" and i >= len(row)):
            continue  # a cell that an earlier fault removed
        elif kind == "token":
            row[j] = draw(st.sampled_from(["x", None, "1/0", "1/3", "2"]))
        elif kind == "float":
            row[j] = 0.5
        elif kind == "diagonal":
            row[i] = draw(values)
        elif kind == "asymmetry":
            row[j] = draw(values)
        else:
            row[j] = draw(st.sampled_from([0, -1, Fraction(-1, 2)]))
            if draw(st.booleans()) and i < len(rows[j]):
                rows[j][i] = row[j]
    return rows


class TestIngest:
    def test_known_matrix(self):
        rows = [
            [Fraction(0), Fraction(1), Fraction(3)],
            [Fraction(1), Fraction(0), Fraction(2)],
            [Fraction(3), Fraction(2), Fraction(0)],
        ]
        sys = ingest_distance_matrix(rows, (-2, 1))
        assert sys.grades.entries[0][1] == 0  # 1 <= 2^0
        assert sys.grades.entries[1][2] == -1  # 2 <= 2^1
        assert sys.grades.entries[0][2] == -2  # 3 <= 2^2
        assert sys.window == Window(-2, 1)

    def test_clamps_at_window_top(self):
        rows = [[Fraction(0), Fraction(1, 1000)], [Fraction(1, 1000), Fraction(0)]]
        sys = ingest_distance_matrix(rows, (0, 3))
        assert sys.grades.entries[0][1] == 3

    def test_far_pairs_fall_below_window(self):
        rows = [[Fraction(0), Fraction(50)], [Fraction(50), Fraction(0)]]
        sys = ingest_distance_matrix(rows, (0, 3))
        assert sys.grades.entries[0][1] == -1

    def test_rejects_asymmetric(self):
        rows = [[Fraction(0), Fraction(1)], [Fraction(2), Fraction(0)]]
        with pytest.raises(StructuralInputError):
            ingest_distance_matrix(rows, (0, 3))

    def test_rejects_nonzero_diagonal(self):
        rows = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(0)]]
        with pytest.raises(StructuralInputError):
            ingest_distance_matrix(rows, (0, 3))

    def test_rejects_ragged_row(self):
        # parse_distance_matrix rejects this first; only a library caller gets here
        rows = [[Fraction(0), Fraction(1)], [Fraction(1)]]
        with pytest.raises(StructuralInputError, match="distance row 1 has length 1, not 2"):
            ingest_distance_matrix(rows, (0, 3))

    @pytest.mark.parametrize("d", [Fraction(0), Fraction(-1, 2)], ids=["zero", "negative"])
    def test_rejects_nonpositive_distance(self, d):
        rows = [[Fraction(0), d], [d, Fraction(0)]]
        with pytest.raises(
            StructuralInputError, match=r"off-diagonal distance at \(0, 1\) must be positive"
        ):
            ingest_distance_matrix(rows, (0, 3))

    def test_rejects_float(self):
        rows = [[0, 0.5], [0.5, 0]]
        with pytest.raises(StructuralInputError):
            ingest_distance_matrix(rows, (0, 3))

    @pytest.mark.parametrize("value", ["x", None, "1/0"])
    def test_rejects_unreadable_distance(self, value):
        rows = [[0, value], [value, 0]]
        with pytest.raises(
            StructuralInputError, match=rf"cannot read distance \(0, 1\): {value!r}"
        ):
            ingest_distance_matrix(rows, (0, 3))

    @pytest.mark.parametrize(
        "rows, message",
        [
            # an asymmetric pair in row 0 before the diagonal of row 1
            ([[0, 1, 2], [1, 5, 1], [3, 1, 0]], "asymmetric distances at (0, 2) and (2, 0)"),
            # the diagonal of row 1 before its nonpositive cell
            ([[0, 1, 1], [1, 5, -1], [1, -1, 0]], "diagonal entry (1, 1) must be zero"),
            # within one pair, asymmetry before the sign
            ([[0, -1], [-2, 0]], "asymmetric distances at (0, 1) and (1, 0)"),
            # a zero pair in row 0 before the diagonal of row 2
            ([[0, 1, 0], [1, 0, 1], [0, 1, 4]], "off-diagonal distance at (0, 2) must be positive"),
            # every cell is read, and every row's length checked, before any pair
            ([[0, 2, 1], [3, 0, 1], [1, "x", 0]], "cannot read distance (2, 1): 'x'"),
            ([[0, 2], [3]], "distance row 1 has length 1, not 2"),
        ],
        ids=["asymmetry-then-diagonal", "diagonal-then-sign", "asymmetry-then-sign",
             "sign-then-diagonal", "token-then-asymmetry", "length-then-asymmetry"],
    )
    def test_first_of_two_faults(self, rows, message):
        with pytest.raises(StructuralInputError) as exc:
            ingest_distance_matrix(rows, (0, 3))
        assert str(exc.value) == message

    @pytest.mark.deep
    @given(distance_matrices(), st.integers(-3, 3), st.integers(0, 4))
    def test_matches_the_full_scan(self, rows, lo, span):
        # the same system, or the same first fault, as the body that
        # checked every ordered pair and then graded in a second loop
        def outcome(ingest):
            try:
                return ingest(rows, (lo, lo + span))
            except Exception as exc:
                return type(exc), str(exc)

        assert outcome(ingest_distance_matrix) == outcome(ingest_distance_matrix_oracle)

    def test_idempotent_on_dyadic_systems(self, grid):
        # distances of a graded system grade back to the same system
        rows = [
            [delta(grid, x, y).as_fraction() for y in range(grid.n)]
            for x in range(grid.n)
        ]
        back = ingest_distance_matrix(rows, (grid.window.lo, grid.window.hi), grid.labels)
        assert back == grid

    @pytest.mark.deep
    @given(
        st.one_of(
            st.integers(min_value=-40, max_value=40).map(lambda e: Fraction(2) ** e),
            st.builds(
                Fraction,
                st.integers(min_value=1, max_value=10**6),
                st.integers(min_value=1, max_value=10**6),
            ),
            # just above or just below a power of two
            st.builds(
                lambda e, side: Fraction(2) ** e * (1 + Fraction(side, 10**9)),
                st.integers(min_value=-40, max_value=40),
                st.sampled_from([-1, 1]),
            ),
        ),
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=0, max_value=20),
    )
    @example(Fraction(1, 2**5), 2, 3)  # 2**-hi: the top of the window
    @example(Fraction(1, 2**6), 2, 3)  # below 2**-hi: clamped to hi
    @example(Fraction(1, 2**2), 2, 3)  # 2**-lo: the bottom of the window
    @example(Fraction(1, 2), 2, 3)  # above 2**-lo: falls to lo - 1
    @example(Fraction(2**30), -20, 0)
    def test_grade_matches_level_scan(self, d, lo, span):
        sys = ingest_distance_matrix([[0, d], [d, 0]], (lo, lo + span))
        assert sys.grades.entries[0][1] == _scan_grade(d, lo, lo + span)

    def test_wide_window(self):
        rows = [
            [0, 1, Fraction(1, 3)],
            [1, 0, 2**70],
            [Fraction(1, 3), 2**70, 0],
        ]
        sys = ingest_distance_matrix(rows, (-(10**6), 10**6))
        assert sys.grades.entries == ((TOP, 0, 1), (0, TOP, -70), (1, -70, TOP))

    @given(small_systems())
    def test_idempotent_generally(self, sys):
        # holds even for below-window grades: their distances re-grade to lo - 1
        rows = [
            [delta(sys, x, y).as_fraction() for y in range(sys.n)]
            for x in range(sys.n)
        ]
        back = ingest_distance_matrix(rows, (sys.window.lo, sys.window.hi), sys.labels)
        assert back == sys


def _assert_same_report(fast, oracle):
    for f in dataclasses.fields(fast):
        assert getattr(fast, f.name) == getattr(oracle, f.name), f.name
    for name in ("triangle_witness", "strong_triangle_witness"):
        a, b = getattr(fast, name), getattr(oracle, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert (a.x, a.z, a.y) == (b.x, b.z, b.y), name


def _assert_matches_oracle(sys):
    _assert_same_report(classify(sys), _classify_dyadic(sys))
    if sys.n >= 2:
        assert minimal_inframetric_constant(
            sys
        ) == _minimal_inframetric_constant_dyadic(sys)


@pytest.mark.deep
class TestClassifyAgainstDyadicOracle:
    """The level-row classify pins the same first worst triples as the
    dyadic triple scan, field for field."""

    @given(small_systems())
    @examples(300, deep=1000)
    def test_random_systems(self, sys):
        _assert_matches_oracle(sys)

    # each example builds a level table up to 1000 levels wide
    @given(wide_sparse_systems())
    @examples(100, deep=500)
    def test_wide_sparse_windows(self, sys):
        _assert_matches_oracle(sys)

    @pytest.mark.parametrize("constraint", ["r9", "transitive"])
    def test_seeded_constrained_systems(self, constraint):
        for seed in range(40):
            params = GenParams(
                point_count=(2, 14), window_span=(1, 6), constraint=constraint
            )
            _assert_matches_oracle(gen_system(seed, params))

    def test_fixtures(self, grid, triple, chain, twins):
        for sys in (grid, triple, chain, twins):
            _assert_matches_oracle(sys)

    def test_tied_excess_keeps_the_lowest_z(self):
        # pair (0, 1) at grade 0 has excess 1/2 through z = 2 and z = 3
        sys = make_system(
            ["a", "b", "c", "d"],
            (0, 2),
            [
                [TOP, 0, 2, 2],
                [0, TOP, 2, 2],
                [2, 2, TOP, 2],
                [2, 2, 2, TOP],
            ],
        )
        rep = classify(sys)
        w = rep.triangle_witness
        assert (w.x, w.z, w.y) == (0, 2, 1)
        s = rep.strong_triangle_witness
        assert (s.x, s.z, s.y) == (0, 2, 1)
        _assert_matches_oracle(sys)

    def test_tied_pairs_keep_the_first_pair(self):
        # pairs (0, 1) and (2, 3), both at grade 0, each have excess 1/2
        sys = make_system(
            ["a", "b", "c", "d"],
            (0, 2),
            [
                [TOP, 0, 2, 2],
                [0, TOP, 2, 2],
                [2, 2, TOP, 0],
                [2, 2, 0, TOP],
            ],
        )
        rep = classify(sys)
        w = rep.triangle_witness
        assert (w.x, w.z, w.y) == (0, 2, 1)
        s = rep.strong_triangle_witness
        assert (s.x, s.z, s.y) == (0, 2, 1)
        _assert_matches_oracle(sys)
