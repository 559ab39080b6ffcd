"""Relation families, grade matrices, level lists, and the axiom checks."""

from itertools import combinations, product

import pytest
from hypothesis import example, given, strategies as st

from gradedrel import (
    GradeMatrix,
    LevelList,
    Relation,
    RelationalSystem,
    StructuralInputError,
    TOP,
    UsageError,
    Window,
    check_axiom,
    compact_to_grades,
    compose,
    expand_level,
    grade_str,
    make_system,
    to_level_list,
    validate_level_list,
)
from gradedrel.harness import GenParams, gen_system
from gradedrel.relations import _is_partition

from oracles import (
    bounded_by_pair_loop,
    compact_to_grades_oracle,
    reference_witness,
    scan_witness,
    validate_level_list_oracle,
    walk_grade_matrix,
    walk_window,
)
from strategies import cluster_tree_systems, small_systems, wide_sparse_systems


def transitive_gen_systems(max_points=9):
    """The falsifier's transitive systems: every level an equivalence."""
    params = GenParams(point_count=(1, max_points), window_span=(1, 7), constraint="transitive")
    return st.builds(gen_system, st.integers(0, 1499), st.just(params))


def axiom_inputs():
    """Any systems, and systems whose levels are all equivalences, which
    the axiom checks decide by their partition count alone."""
    return st.one_of(small_systems(), transitive_gen_systems(), cluster_tree_systems())


class TestTop:
    def test_ordering_absorbs_integers(self):
        assert TOP > 10**9
        assert TOP >= TOP
        assert not (TOP < -(10**9))
        assert 5 < TOP
        assert min(TOP, 3) == 3
        assert max(TOP, 3) is TOP

    def test_arithmetic_absorbs(self):
        assert TOP + 1 is TOP
        assert TOP - 7 is TOP
        assert 1 + TOP is TOP

    def test_display(self):
        assert grade_str(TOP) == "-"
        assert grade_str(-2) == "-2"


class TestErrorPaths:
    """The shape, validation and index errors of the data model, and the
    operations TOP leaves to the other operand."""

    def test_relation_shape_errors(self):
        with pytest.raises(StructuralInputError, match="relation has 1 rows for 2 points"):
            Relation(2, (0b11,))
        with pytest.raises(StructuralInputError, match="row 1 mask out of range"):
            Relation(2, (0b11, 0b100))
        with pytest.raises(StructuralInputError, match="row 0 mask out of range"):
            Relation(2, (-1, 0))

    def test_relation_size_mismatch(self):
        for op in (compose, Relation.subset_of, Relation.intersection):
            with pytest.raises(StructuralInputError, match="relation size mismatch: 2 vs 3"):
                op(Relation.full(2), Relation.full(3))

    def test_label_count_error(self):
        grades = GradeMatrix.from_rows([[TOP, 0], [0, TOP]])
        with pytest.raises(StructuralInputError, match="3 labels for 2 points"):
            RelationalSystem(("a", "b", "c"), Window(0, 1), grades)

    def test_grade_matrix_shape_errors(self):
        with pytest.raises(StructuralInputError, match="grade matrix has 1 rows for 2 points"):
            GradeMatrix(2, ((TOP, 0),))
        with pytest.raises(StructuralInputError, match="grade matrix row 1 has length 1"):
            GradeMatrix(2, ((TOP, 0), (0,)))

    def test_level_list_validation(self):
        w = Window(0, 1)
        with pytest.raises(StructuralInputError, match=r"1 levels for window \[0, 1\]"):
            LevelList(w, (Relation.full(2),))
        with pytest.raises(
            StructuralInputError, match=r"levels disagree on point count: \[2, 3\]"
        ):
            LevelList(w, (Relation.full(2), Relation.full(3)))
        levels = LevelList(w, (Relation.full(2), Relation.diagonal(2)))
        assert levels.at(0) == Relation.full(2)
        assert levels.at(1) == Relation.diagonal(2)
        for n in (-1, 2):
            with pytest.raises(IndexError, match=f"level {n} outside window"):
                levels.at(n)

    @pytest.mark.parametrize("x, y", [(-1, 0), (0, -1), (2, 0), (0, 2)])
    def test_index_errors(self, x, y):
        sys = make_system(("a", "b"), (0, 1), [[TOP, 0], [0, TOP]])
        for read in (
            Relation.full(2).contains,
            lambda x, y: Relation.from_pairs(2, [(0, 1), (x, y)]),
            sys.grades.grade,
            sys.grade,
        ):
            with pytest.raises(
                IndexError, match=rf"pair \({x}, {y}\) out of range for 2 points"
            ):
                read(x, y)

    @pytest.mark.parametrize("other", ["1", 1.5, None])
    def test_top_defers_to_other_types(self, other):
        for name in ("__lt__", "__le__", "__gt__", "__ge__", "__add__", "__radd__", "__sub__"):
            assert getattr(TOP, name)(other) is NotImplemented, name
        for op in (
            lambda: TOP < other,
            lambda: TOP <= other,
            lambda: TOP > other,
            lambda: TOP >= other,
            lambda: TOP + other,
            lambda: other + TOP,
            lambda: TOP - other,
        ):
            with pytest.raises(TypeError):
                op()
        assert TOP.__sub__(TOP) is NotImplemented
        assert TOP.__add__(TOP) is NotImplemented

    def test_top_compares_with_itself(self):
        assert TOP <= TOP and TOP >= TOP
        assert not (TOP < TOP or TOP > TOP)


class TestConstruction:
    def test_grid_matrix(self, grid):
        expected = [
            ["-", "2", "1", "0", "0"],
            ["2", "-", "2", "1", "0"],
            ["1", "2", "-", "2", "1"],
            ["0", "1", "2", "-", "2"],
            ["0", "0", "1", "2", "-"],
        ]
        got = [[grade_str(g) for g in row] for row in grid.grades.entries]
        assert got == expected
        assert grid.window == Window(0, 3)
        assert grid.labels == ("0", "1/4", "1/2", "3/4", "1")

    def test_rejects_asymmetric(self):
        with pytest.raises(StructuralInputError):
            make_system(["a", "b"], (0, 2), [[TOP, 1], [2, TOP]])

    def test_rejects_off_diagonal_top(self):
        with pytest.raises(StructuralInputError):
            make_system(["a", "b"], (0, 2), [[TOP, TOP], [TOP, TOP]])

    def test_rejects_out_of_window(self):
        with pytest.raises(StructuralInputError):
            make_system(["a", "b"], (0, 2), [[TOP, 3], [3, TOP]])
        with pytest.raises(StructuralInputError):
            make_system(["a", "b"], (0, 2), [[TOP, -2], [-2, TOP]])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(StructuralInputError):
            make_system(["a", "a"], (0, 2), [[TOP, 1], [1, TOP]])

    def test_rejects_bad_window(self):
        with pytest.raises(StructuralInputError):
            Window(3, 2)


def construction_error(build):
    try:
        build()
    except StructuralInputError as exc:
        return str(exc)
    return None


@pytest.mark.deep
class TestValidationMessages:
    """GradeMatrix and RelationalSystem test a valid matrix as a whole and
    walk the cells only to word the first failure."""

    @pytest.mark.parametrize(
        "rows, message",
        [
            # a non-integer at (0, 2) comes before the bad diagonal of row 1
            (
                [[TOP, 1, "a"], [1, 0, 1], ["a", 1, TOP]],
                "off-diagonal entry (0, 2) must be an integer, got 'a'",
            ),
            # the diagonal of row 1 comes before the asymmetry at (1, 2)
            (
                [[TOP, 1, 1], [1, 5, 2], [1, 3, TOP]],
                "diagonal entry (1, 1) must be TOP",
            ),
            # (0, 1) against a non-integer (1, 0) is an asymmetry, found
            # before (1, 0) itself is read
            (
                [[TOP, 1, 1], [1.5, TOP, 2], [1, 2, TOP]],
                "grade matrix asymmetric at (0, 1) vs (1, 0)",
            ),
            # TOP off the diagonal, in both halves
            (
                [[TOP, TOP, 1], [TOP, TOP, 1], [1, 1, TOP]],
                "off-diagonal entry (0, 1) must be an integer, got TOP",
            ),
            # two asymmetries: the first in row order is named
            (
                [[TOP, 1, 2], [1, TOP, 3], [0, 4, TOP]],
                "grade matrix asymmetric at (0, 2) vs (2, 0)",
            ),
            # a float equal to the integer it mirrors
            (
                [[TOP, 1, 1], [1, TOP, 2.0], [1, 2, TOP]],
                "off-diagonal entry (1, 2) must be an integer, got 2.0",
            ),
        ],
    )
    def test_grade_matrix_first_failure(self, rows, message):
        entries = tuple(tuple(r) for r in rows)
        assert walk_grade_matrix(3, entries) == message
        assert construction_error(lambda: GradeMatrix(3, entries)) == message

    def test_integer_subclasses_stay_accepted(self):
        entries = ((TOP, True), (True, TOP))
        assert GradeMatrix(2, entries).entries == entries
        assert make_system(["a", "b"], (1, 2), entries).grades.entries == entries

    def test_rows_given_as_lists_stay_accepted(self):
        rows = [[TOP, 1], [1, TOP]]
        assert GradeMatrix(2, rows).entries is rows

    @pytest.mark.parametrize(
        "window, rows, message",
        [
            ((0, 2), [[TOP, 3, -5], [3, TOP, 1], [-5, 1, TOP]], "grade 3 at (0, 1) outside [-1, 2]"),
            ((0, 2), [[TOP, 1, -5], [1, TOP, 9], [-5, 9, TOP]], "grade -5 at (0, 2) outside [-1, 2]"),
            ((0, 2), [[TOP, 1, 0], [1, TOP, 3], [0, 3, TOP]], "grade 3 at (1, 2) outside [-1, 2]"),
        ],
    )
    def test_window_first_failure(self, window, rows, message):
        assert walk_window(*window, rows) == message
        assert construction_error(lambda: make_system("abc", window, rows)) == message

    @given(st.data())
    def test_first_failure_matches_the_walk(self, data):
        n = data.draw(st.integers(min_value=1, max_value=5))
        lo = data.draw(st.integers(min_value=-2, max_value=2))
        hi = lo + data.draw(st.integers(min_value=0, max_value=3))
        cell = st.one_of(
            st.integers(min_value=lo - 2, max_value=hi + 1),
            st.sampled_from([TOP, 1.0, "1", None]),
        )
        rows = [[TOP] * n for _ in range(n)]
        for x in range(n):
            for y in range(x + 1, n):
                rows[x][y] = rows[y][x] = data.draw(st.integers(lo - 1, hi))
        for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
            x = data.draw(st.integers(0, n - 1))
            y = data.draw(st.integers(0, n - 1))
            rows[x][y] = data.draw(cell)
        entries = tuple(tuple(r) for r in rows)
        want = walk_grade_matrix(n, entries)
        assert construction_error(lambda: GradeMatrix(n, entries)) == want
        if want is None:
            labels = [str(i) for i in range(n)]
            want = walk_window(lo, hi, entries)
            assert construction_error(lambda: make_system(labels, (lo, hi), entries)) == want


@st.composite
def relations_with_repeated_rows(draw):
    """Two relations on one ground set; the first draws its rows from a pool
    of at most three masks, so rows repeat."""
    n = draw(st.integers(min_value=1, max_value=8))
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    pool = draw(st.lists(masks, min_size=1, max_size=3))
    r = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    s = draw(st.lists(masks, min_size=n, max_size=n))
    return Relation(n, tuple(r)), Relation(n, tuple(s))


class TestRelationOps:
    @given(relations_with_repeated_rows())
    def test_compose_over_repeated_rows(self, rs):
        r, s = rs
        pts = range(r.n)
        expected = {
            (x, y)
            for x in pts
            for y in pts
            if any(r.contains(x, z) and s.contains(z, y) for z in pts)
        }
        assert set(compose(r, s).pairs()) == expected

    def test_compose_is_relational_product(self):
        # pairs 0-1 and 1-2 (symmetric), squared adds 0-2 via the middle
        r = Relation.from_pairs(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
        rr = compose(r, r)
        assert rr.contains(0, 2)
        assert rr.contains(0, 0)
        assert not r.contains(0, 2)

    def test_diagonal_neutral_for_composition(self):
        r = Relation.from_pairs(4, [(0, 3), (1, 2)])
        d = Relation.diagonal(4)
        assert compose(r, d) == r
        assert compose(d, r) == r

    @given(small_systems())
    def test_expand_levels_nest(self, sys):
        prev = None
        for n in range(sys.window.below, sys.window.above + 1):
            cur = expand_level(sys, n)
            assert cur.is_symmetric()
            if prev is not None:
                assert cur.subset_of(prev)
            prev = cur

    @given(small_systems())
    def test_expand_below_window_is_full(self, sys):
        assert expand_level(sys, sys.window.below) == Relation.full(sys.n)

    @given(small_systems())
    def test_expand_above_window_is_diagonal(self, sys):
        assert expand_level(sys, sys.window.above) == Relation.diagonal(sys.n)


class TestLevelListRoundTrip:
    def test_grid_round_trip(self, grid):
        levels = to_level_list(grid)
        assert all(rep.holds for rep in validate_level_list(levels))
        assert compact_to_grades(levels, grid.labels) == grid

    @given(small_systems())
    def test_round_trip_when_separating(self, sys):
        # a grade equal to hi cannot survive the trip: the stored levels
        # must intersect to the diagonal, so such pairs are rejected
        levels = to_level_list(sys)
        reports = {rep.axiom_id: rep for rep in validate_level_list(levels)}
        top_grade_offdiag = any(
            sys.grades.entries[x][y] == sys.window.hi
            for x in range(sys.n)
            for y in range(x + 1, sys.n)
        )
        if top_grade_offdiag:
            assert not reports["r4-window"].holds
        else:
            assert all(rep.holds for rep in reports.values())
            assert compact_to_grades(levels, sys.labels) == sys

    def test_sup_formula_even_when_not_separating(self):
        # a grade equal to hi expands fine per level; only the validated
        # round trip rejects it
        sys = make_system(["a", "b"], (3, 4), [[TOP, 4], [4, TOP]])
        levels = to_level_list(sys)
        for x in range(sys.n):
            for y in range(sys.n):
                want = sys.grades.entries[x][y]
                best = sys.window.below
                for lev in sys.window.levels():
                    if levels.at(lev).contains(x, y):
                        best = lev
                if x == y:
                    assert want is TOP
                else:
                    assert best == min(want, sys.window.hi)
        reports = {r.axiom_id: r for r in validate_level_list(levels)}
        assert not reports["r4-window"].holds

    def test_asymmetric_level_flagged(self):
        w = Window(0, 1)
        asym = Relation(2, (0b10, 0b10))  # 0->1 without 1->0
        levels = LevelList(w, (Relation.full(2), asym))
        reports = {r.axiom_id: r for r in validate_level_list(levels)}
        assert not reports["r1"].holds
        assert reports["r1"].witness == (1, 1, 0) or reports["r1"].witness == (1, 0, 1)

    def test_non_nested_flagged(self):
        w = Window(0, 1)
        lower = Relation.from_pairs(2, [])
        upper = Relation.from_pairs(2, [(0, 1)])
        levels = LevelList(w, (lower, upper))
        reports = {r.axiom_id: r for r in validate_level_list(levels)}
        assert not reports["r2"].holds

    def test_unseparated_pair_flagged(self):
        w = Window(0, 1)
        full = Relation.full(2)
        levels = LevelList(w, (full, full))
        reports = {r.axiom_id: r for r in validate_level_list(levels)}
        assert not reports["r4-window"].holds
        assert reports["r4-window"].witness == (0, 1)

    def test_missing_diagonal_flagged(self):
        w = Window(0, 1)
        no_diag = Relation.from_pairs(2, [(0, 1), (1, 0)])
        levels = LevelList(w, (Relation.full(2), no_diag))
        reports = {r.axiom_id: r for r in validate_level_list(levels)}
        assert not reports["r4-window"].holds
        assert reports["r4-window"].witness == (1, 0, 0)

    def test_compact_rejects_invalid(self):
        w = Window(0, 1)
        full = Relation.full(2)
        with pytest.raises(StructuralInputError):
            compact_to_grades(LevelList(w, (full, full)))


@st.composite
def level_lists(draw):
    """A small system's level list and its labels; in half of the draws
    one bit of one level is flipped, so every witness form occurs."""
    sys = draw(small_systems())
    per_level = list(to_level_list(sys).per_level)
    if draw(st.booleans()):
        k = draw(st.integers(0, len(per_level) - 1))
        x, y = draw(st.integers(0, sys.n - 1)), draw(st.integers(0, sys.n - 1))
        rows = list(per_level[k].rows)
        rows[x] ^= 1 << y
        per_level[k] = Relation(sys.n, tuple(rows))
    return LevelList(sys.window, tuple(per_level)), sys.labels


@pytest.mark.deep
class TestLevelListMatchesPairScans:
    @given(level_lists())
    def test_reports_and_compaction(self, case):
        levels, labels = case
        reports = validate_level_list(levels)
        assert reports == validate_level_list_oracle(levels)
        if all(rep.holds for rep in reports):
            assert compact_to_grades(levels, labels) == compact_to_grades_oracle(levels, labels)


@pytest.mark.deep
class TestMaskRoutesMatchPairScans:
    @given(small_systems(), st.integers(min_value=-5, max_value=5), st.integers(-5, 5))
    def test_compose(self, sys, j, k):
        g = sys.grades.entries
        pts = range(sys.n)
        got = compose(expand_level(sys, j), expand_level(sys, k))
        expected = {
            (x, y)
            for x in pts
            for y in pts
            if any(g[x][z] >= j and g[z][y] >= k for z in pts)
        }
        assert set(got.pairs()) == expected

    @given(axiom_inputs())
    def test_axiom_witnesses(self, sys):
        for axiom in ("r9", "r10", "transitive"):
            rep = check_axiom(sys, axiom)
            expected = scan_witness(sys, axiom)
            assert rep.holds == (expected is None)
            assert rep.witness == expected


def assert_reference_witnesses(sys):
    for axiom in ("r9", "r10", "transitive"):
        rep = check_axiom(sys, axiom)
        expected = reference_witness(sys, axiom)
        assert rep.holds == (expected is None)
        assert rep.witness == expected


@pytest.mark.deep
class TestAxiomChecks:
    def test_unknown_axiom(self, grid):
        with pytest.raises(UsageError):
            check_axiom(grid, "r3")

    def test_bounded_reports_min_grade(self, grid):
        rep = check_axiom(grid, "r5")
        assert rep.holds
        assert rep.bound_grade == 0

    def test_bounded_fails_below_window(self):
        sys = make_system(["a", "b"], (0, 2), [[TOP, -1], [-1, TOP]])
        rep = check_axiom(sys, "r5")
        assert not rep.holds
        assert rep.bound_grade == -1

    def test_singleton_bound_is_top(self):
        sys = make_system(["a"], (0, 2), [[TOP]])
        rep = check_axiom(sys, "r5")
        assert rep.holds
        assert rep.bound_grade is TOP

    @given(small_systems())
    def test_r9_matches_grade_form(self, sys):
        rep = check_axiom(sys, "r9")
        expected = all(
            sys.grades.entries[x][y]
            >= min(sys.grades.entries[x][z], sys.grades.entries[z][y]) - 1
            for x in range(sys.n)
            for y in range(sys.n)
            for z in range(sys.n)
        )
        assert rep.holds == expected

    @given(small_systems())
    def test_r10_matches_grade_form(self, sys):
        rep = check_axiom(sys, "r10")
        expected = all(
            sys.grades.entries[x][y]
            >= min(
                sys.grades.entries[x][z],
                sys.grades.entries[z][w],
                sys.grades.entries[w][y],
            )
            - 1
            for x in range(sys.n)
            for y in range(sys.n)
            for z in range(sys.n)
            for w in range(sys.n)
        )
        assert rep.holds == expected

    @given(small_systems())
    def test_transitive_matches_grade_form(self, sys):
        rep = check_axiom(sys, "transitive")
        expected = all(
            sys.grades.entries[x][y]
            >= min(sys.grades.entries[x][z], sys.grades.entries[z][y])
            for x in range(sys.n)
            for y in range(sys.n)
            for z in range(sys.n)
        )
        assert rep.holds == expected

    @given(small_systems())
    def test_witnesses_replay(self, sys):
        # every failing witness must be checkable against the raw relations
        for axiom, arity in (("r9", 2), ("r10", 3), ("transitive", None)):
            rep = check_axiom(sys, axiom)
            if rep.holds:
                continue
            if axiom == "transitive":
                n, x, z, y = rep.witness
                r = expand_level(sys, n)
                assert r.contains(x, z) and r.contains(z, y)
                assert not r.contains(x, y)
            else:
                n = rep.witness[0]
                points = rep.witness[1:]
                r = expand_level(sys, n)
                lower = expand_level(sys, n - 1)
                for a, b in zip(points, points[1:]):
                    assert r.contains(a, b)
                assert not lower.contains(points[0], points[-1])

    @given(axiom_inputs())
    def test_witnesses_match_the_reference(self, sys):
        assert_reference_witnesses(sys)

    @given(st.one_of(transitive_gen_systems(12), cluster_tree_systems(48)))
    def test_equivalence_levels_satisfy_every_check(self, sys):
        # larger systems than the pair scans can take: every level is an
        # equivalence, so no composition runs and each check holds
        for rows in sys.level_table():
            assert _is_partition(rows)
        assert_reference_witnesses(sys)

    @pytest.mark.parametrize("constraint", ["r9", "transitive"])
    def test_seeded_witnesses_match_the_reference(self, constraint):
        params = GenParams(point_count=(3, 9), window_span=(1, 5), constraint=constraint)
        for seed in range(40):
            assert_reference_witnesses(gen_system(seed, params))

    def test_grid_transitive_witness(self, grid):
        rep = check_axiom(grid, "transitive")
        assert not rep.holds
        n, x, z, y = rep.witness
        assert grid.grades.entries[x][z] >= n
        assert grid.grades.entries[z][y] >= n
        assert grid.grades.entries[x][y] < n

    def test_triple_satisfies_both_composition_laws(self, triple):
        assert check_axiom(triple, "r9").holds
        assert check_axiom(triple, "r10").holds
        assert not check_axiom(triple, "transitive").holds

    def test_chain_is_transitive(self, chain):
        assert check_axiom(chain, "transitive").holds
        assert check_axiom(chain, "r9").holds
        assert check_axiom(chain, "r10").holds


def transitive_by_triples(rows):
    n = len(rows)
    return all(
        rows[x] >> y & 1 or not (rows[x] >> z & 1 and rows[z] >> y & 1)
        for x, z, y in product(range(n), repeat=3)
    )


@pytest.mark.deep
class TestPartitionCount:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_reflexive_symmetric_relation(self, n):
        # 1, 2, 8, 64 and 1024 relations: each pair present or not
        pairs = list(combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            rows = [1 << x for x in range(n)]
            for k, (x, y) in enumerate(pairs):
                if chosen >> k & 1:
                    rows[x] |= 1 << y
                    rows[y] |= 1 << x
            assert _is_partition(rows) == transitive_by_triples(rows), rows


@pytest.mark.deep
class TestBoundedRowMinima:
    @given(st.one_of(small_systems(), wide_sparse_systems(), cluster_tree_systems()))
    @example(make_system(["a"], (0, 2), [[TOP]]))
    @example(make_system(["a", "b", "c"], (0, 2), [[TOP, 0, -1], [0, TOP, -1], [-1, -1, TOP]]))
    def test_matches_the_pair_loop(self, sys):
        rep = check_axiom(sys, "r5")
        assert (rep.holds, rep.witness, rep.bound_grade) == bounded_by_pair_loop(sys)


class TestChainFixture:
    def test_min_grading(self, chain):
        # off-diagonal grade is the smaller endpoint index; the top point
        # absorbs, so its column carries the finite index
        for x in range(5):
            assert chain.grades.entries[x][5] == x
            for y in range(x + 1, 5):
                assert chain.grades.entries[x][y] == x
        assert chain.labels == ("0", "1", "2", "3", "4", "inf")
        assert chain.window == Window(0, 5)
