"""The per-system cache: the level-row table, memoised admissible families
and axiom reports, and the CLI's memo of the last parsed system."""

import dataclasses

import pytest
from hypothesis import example, given, strategies as st

from gradedrel import cli, dynamics, hulls, relations
from gradedrel import (
    ARBITRARY_CENTER,
    PAPER_COV,
    PointSet,
    RelationalSystem,
    ResourceLimitError,
    SelfMap,
    TOP,
    Window,
    ball,
    check_axiom,
    check_compact_structure,
    check_normal_structure,
    covering_level,
    enumerate_admissible,
    expand_level,
    hull,
    identity_map,
    make_system,
    minimal_invariant_admissible,
    regular_fixed_point,
    serialize_selfmap,
    serialize_system,
)
from gradedrel.cli import run

from oracles import _scan_cover, _scan_row
from strategies import CHAIN_HEAVY, small_systems


def _levels_around_window(sys):
    return range(sys.window.below - 1, sys.window.above + 2)


class TestReadsMatchGradeScans:
    @pytest.mark.deep
    @given(small_systems())
    def test_ball_and_expand_level(self, sys):
        for k in _levels_around_window(sys):
            rows = tuple(_scan_row(sys, x, k) for x in range(sys.n))
            assert expand_level(sys, k).rows == rows
            assert sys.level_rows(k) == rows
            for x in range(sys.n):
                assert ball(sys, x, k) == PointSet(sys.n, rows[x])

    @pytest.mark.deep
    @given(small_systems(), st.data())
    def test_covering_level(self, sys, data):
        bits = data.draw(st.integers(min_value=0, max_value=(1 << sys.n) - 1))
        points = PointSet(sys.n, bits)
        for x in range(sys.n):
            level = covering_level(sys, x, points)
            assert level == _scan_cover(sys, x, bits)
            for k in _levels_around_window(sys):
                assert (bits & ~_scan_row(sys, x, k) == 0) == (k <= level)

    @pytest.mark.deep
    @given(small_systems(), st.sampled_from([PAPER_COV, ARBITRARY_CENTER]), st.data())
    def test_hull(self, sys, mode, data):
        bits = data.draw(st.integers(min_value=1, max_value=(1 << sys.n) - 1))
        centers = [x for x in range(sys.n) if mode == ARBITRARY_CENTER or bits >> x & 1]
        expected = (1 << sys.n) - 1
        witness = []
        for x in centers:
            level = _scan_cover(sys, x, bits)
            level = sys.window.above if level is TOP else level
            expected &= _scan_row(sys, x, level)
            witness.append((x, level))
        adm = hull(sys, PointSet(sys.n, bits), mode)
        assert adm.points.bits == expected
        assert adm.witness_balls == tuple(witness)

    @given(small_systems())
    def test_table_spans_the_window_and_nests(self, sys):
        table = sys.level_table()
        assert len(table) == sys.window.above - sys.window.below + 1
        assert table[0] == ((1 << sys.n) - 1,) * sys.n
        assert table[-1] == tuple(1 << x for x in range(sys.n))
        for upper, lower in zip(table[1:], table):
            assert all(u & ~l == 0 for u, l in zip(upper, lower))


class TestCacheIsInvisible:
    @given(small_systems())
    def test_built_table_keeps_equality_hash_and_repr(self, sys):
        sys.level_table()
        enumerate_admissible(sys)
        fresh = RelationalSystem(sys.labels, sys.window, sys.grades)
        assert sys == fresh
        assert hash(sys) == hash(fresh)
        assert repr(sys) == repr(fresh)
        assert dataclasses.fields(sys) == dataclasses.fields(fresh)

    @pytest.mark.deep
    def test_replace_gets_a_fresh_table(self, grid):
        table = grid.level_table()
        same = dataclasses.replace(grid)
        assert same == grid
        assert same.level_table() == table
        assert same.level_table() is not table
        wider = dataclasses.replace(grid, window=Window(-1, 4))
        assert len(wider.level_table()) == len(table) + 2
        for k in _levels_around_window(wider):
            assert wider.level_rows(k) == tuple(
                _scan_row(wider, x, k) for x in range(wider.n)
            )

    def test_cached_builds_once_and_stores_no_failure(self, grid):
        fresh = dataclasses.replace(grid)
        calls = []

        def failing(sys):
            calls.append("fail")
            raise ValueError("build failed")

        def nested(sys):
            # a build may fill other keys of the same memo first
            calls.append("nested")
            return len(sys.level_table())

        for _ in range(2):
            with pytest.raises(ValueError):
                fresh.cached("key", failing)
        assert "key" not in fresh.__dict__["_memo"]
        for _ in range(2):
            assert fresh.cached("key", nested) == len(grid.level_table())
        assert calls == ["fail", "fail", "nested"]
        assert set(fresh.__dict__["_memo"]) == {"key", "level-table"}

    def test_default_labels_shared_and_bounded(self):
        assert relations.default_labels(5) is relations.default_labels(5)
        assert relations.default_labels(3) == ("0", "1", "2")
        for n in range(600):
            relations.default_labels(n)
        info = relations.default_labels.cache_info()
        assert info.currsize <= info.maxsize


def _count_closures(monkeypatch):
    calls = []
    real = hulls._intersection_closure

    def counted(generators):
        calls.append(hulls.DEFAULT_SET_CAP)
        return real(generators)

    monkeypatch.setattr(hulls, "_intersection_closure", counted)
    monkeypatch.setattr(dynamics, "_intersection_closure", counted)
    return calls


class TestAdmissibleMemo:
    def test_structure_report_enumerates_once(self, grid, tmp_path, monkeypatch):
        # a pair fixed by the hull decides normal structure with no closure;
        # on a system whose hull fixes no pair the family is built once
        equilateral = make_system("abc", (0, 1), [[TOP, 0, 0], [0, TOP, 0], [0, 0, TOP]])
        calls = _count_closures(monkeypatch)
        for sys, closures in ((grid, 0), (equilateral, 1)):
            path = tmp_path / "system.grs"
            path.write_text(serialize_system(sys), encoding="utf-8")
            status, report = run(["structure", str(path)])
            assert status == 1
            assert not report["normal_structure"]["holds"]
            assert report["compact_structure"]["holds"]
            assert len(calls) == closures

    @pytest.mark.parametrize(
        "system, selfmap",
        [("chain", "successor"), ("twins", "swap")],
        ids=["fixed-point", "two-cycle"],
    )
    def test_fixpoint_report_builds_no_family(
        self, system, selfmap, request, tmp_path, monkeypatch
    ):
        # the paper-cov hull fixes L_C for every cycle of these maps, so
        # fixpoint alone builds no closure and no column pass
        sys = request.getfixturevalue(system)
        t = request.getfixturevalue(selfmap)
        sys_path = tmp_path / "system.grs"
        sys_path.write_text(serialize_system(sys), encoding="utf-8")
        map_path = tmp_path / "selfmap.map"
        map_path.write_text(serialize_selfmap(t), encoding="utf-8")
        calls = _count_closures(monkeypatch)
        status, report = run(["fixpoint", str(sys_path), str(map_path)])
        assert status == 0
        assert report["minimal_invariant_admissible"]
        assert calls == []
        memo = cli._load_system(str(sys_path)).__dict__["_memo"]
        assert not [value for value in memo.values() if isinstance(value, hulls._Family)]

    @given(small_systems())
    def test_memo_holds_masks_only(self, sys):
        # one stored form of the family: one record under the cap, holding
        # the arbitrary-center canonical members as one byte matrix; beside
        # it the memo holds only the level table, the ball index and the
        # map analysis, so no AdmissibleSet, int tuple of either family or
        # other copy of the rows
        enumerate_admissible(sys, PAPER_COV)
        enumerate_admissible(sys, ARBITRARY_CENTER)
        check_normal_structure(sys)
        minimal_invariant_admissible(sys, identity_map(sys.n))
        memo = sys.__dict__["_memo"]
        record = memo[("family", hulls.DEFAULT_SET_CAP)]
        assert {key: type(value) for key, value in memo.items()} == {
            "level-table": tuple,
            "ball-index": tuple,
            ("family", hulls.DEFAULT_SET_CAP): hulls._Family,
            "map-analysis": list,
        }
        assert {type(row) for row in memo["level-table"]} == {tuple}
        assert {type(bits) for row in memo["level-table"] for bits in row} == {int}
        assert {type(bits) for bits in memo["ball-index"]} == {int}
        assert [type(value) for value in memo["map-analysis"]] == [dynamics._MapAnalysis]
        size = (sys.n + 7) // 8
        closure = hulls._family(sys, ARBITRARY_CENTER)
        assert type(record.matrix) is bytes
        assert record.matrix == b"".join(bits.to_bytes(size, "little") for bits in closure)

    def test_one_column_pass_per_parsed_system(self, tmp_path, monkeypatch):
        # both hulls reports, structure and fixpoint on one unchanged file
        # share its closure and the one walk that decides every member's
        # hulls and witnesses; the hull fixes no pair of this system, so
        # structure reads the family too
        sys = make_system("abc", (0, 1), [[TOP, 0, 0], [0, TOP, 0], [0, 0, TOP]])
        sys_path = tmp_path / "equilateral.grs"
        sys_path.write_text(serialize_system(sys), encoding="utf-8")
        map_path = tmp_path / "identity.map"
        map_path.write_text(serialize_selfmap(identity_map(sys.n)), encoding="utf-8")
        made = []
        real = hulls._Family
        monkeypatch.setattr(hulls, "_Family", lambda *a: made.append(a) or real(*a))
        calls = _count_closures(monkeypatch)
        for argv in (
            ["hulls", str(sys_path), "--mode", "paper"],
            ["hulls", str(sys_path), "--mode", "closure"],
            ["structure", str(sys_path)],
            ["fixpoint", str(sys_path), str(map_path)],
        ):
            assert run(argv)[0] in (0, 1)
        assert len(made) == 1
        assert len(calls) == 1

    def test_one_enumeration_per_mode_and_cap(self, grid, monkeypatch):
        calls = _count_closures(monkeypatch)
        check_normal_structure(grid)
        check_compact_structure(grid)
        assert enumerate_admissible(grid) == enumerate_admissible(grid)
        assert len(calls) == 1
        # the paper-cov family filters the arbitrary-center closure
        enumerate_admissible(grid, ARBITRARY_CENTER)
        assert len(calls) == 1
        # a family built under one cap is never read under another
        cap = hulls.DEFAULT_SET_CAP
        monkeypatch.setattr(hulls, "DEFAULT_SET_CAP", 10_000)
        enumerate_admissible(grid, PAPER_COV)
        assert calls == [cap, 10_000]
        enumerate_admissible(grid, ARBITRARY_CENTER)
        assert len(calls) == 2

    def test_failure_is_not_cached(self, grid, monkeypatch):
        calls = _count_closures(monkeypatch)
        with monkeypatch.context() as mp:
            mp.setattr(hulls, "DEFAULT_SET_CAP", 1)
            for _ in range(2):
                with pytest.raises(ResourceLimitError):
                    enumerate_admissible(grid, PAPER_COV)
        assert len(calls) == 2
        assert enumerate_admissible(grid)
        assert len(calls) == 3


def _count_ball_indexes(monkeypatch):
    calls = []
    real = hulls._build_ball_index

    def counted(sys):
        calls.append(sys)
        return real(sys)

    monkeypatch.setattr(hulls, "_build_ball_index", counted)
    return calls


# level 2 is not transitive: 0 and 1 meet at 2, 1 and 2 at 3, 0 and 2 at
# 1, so the ball of 0 at level 2 is {0, 1}, and 1's balls go from the
# whole set to {1, 2}, skipping it
SKIPPING = make_system(["0", "1", "2"], (1, 3), [[TOP, 2, 1], [2, TOP, 3], [1, 3, TOP]])


@st.composite
def _systems_with_maps(draw):
    sys = draw(small_systems())
    return sys, SelfMap(draw(st.tuples(*[st.integers(0, sys.n - 1)] * sys.n)))


class TestBallIndex:
    @given(small_systems())
    @example(CHAIN_HEAVY)
    def test_the_distinct_balls_in_first_sighting_order(self, sys):
        table = sys.level_table()
        scan = list(dict.fromkeys(rows[x] for x in range(sys.n) for rows in table))
        assert hulls._ball_index(sys) == tuple(scan)

    @given(_systems_with_maps())
    @example((make_system(["0"], (0, 0), [[TOP]]), identity_map(1)))
    @example((CHAIN_HEAVY, identity_map(8)))
    @example((SKIPPING, identity_map(3)))
    def test_invariant_balls_are_named_by_every_pair_whose_ball_it_is(self, case):
        sys, t = case
        levels = range(sys.window.below, sys.window.above + 1)
        pairs = [(x, lev) for x in range(sys.n) for lev in levels]
        named = []
        for report in dynamics._analysis(sys, t).invariant_balls:
            bits = report.ball.bits
            assert report.names == tuple(p for p in pairs if ball(sys, *p).bits == bits)
            named += report.names
        if t.image == tuple(range(sys.n)):
            # every ball is invariant, so every pair names one
            assert sorted(named) == pairs

    def test_a_member_column_may_skip_the_ball(self):
        balls = dynamics._analysis(SKIPPING, identity_map(3)).invariant_balls
        assert [(b.ball.bits, b.names) for b in balls if b.ball.bits == 0b011] == [
            (0b011, ((0, 2),))
        ]

    def test_hulls_and_both_variants_build_it_once(self, chain, successor, monkeypatch):
        calls = _count_ball_indexes(monkeypatch)
        enumerate_admissible(chain, ARBITRARY_CENTER)
        enumerate_admissible(chain, PAPER_COV)
        for variant in ("regular", "asymptotic"):
            regular_fixed_point(chain, successor, variant)
        assert calls == [chain]


def _analyze_argvs(sys_path, map_path):
    """The seven analyze reports on one system, both hull modes included."""
    return [
        ["validate", sys_path],
        ["classify", sys_path],
        ["hulls", sys_path, "--mode", "paper"],
        ["hulls", sys_path, "--mode", "closure"],
        ["structure", sys_path],
        ["dynamics", sys_path, map_path],
        ["fixpoint", sys_path, map_path],
    ]


def _count_parses(monkeypatch):
    calls = []
    real = cli.parse_system

    def counted(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(cli, "parse_system", counted)
    return calls


def _cold_run(argv):
    cli._parsed.cache_clear()
    return run(argv)


class TestParsedSystemMemo:
    @pytest.fixture
    def chain_files(self, chain, successor, tmp_path):
        sys_path = tmp_path / "chain.grs"
        sys_path.write_text(serialize_system(chain), encoding="utf-8")
        map_path = tmp_path / "successor.map"
        map_path.write_text(serialize_selfmap(successor), encoding="utf-8")
        return str(sys_path), str(map_path)

    def test_one_file_is_parsed_and_checked_once(self, chain_files, monkeypatch):
        parses = _count_parses(monkeypatch)
        closures = _count_closures(monkeypatch)
        indexes = _count_ball_indexes(monkeypatch)
        checks = []
        for axiom_id, check in relations._CHECKS.items():
            def counted(sys, axiom_id=axiom_id, check=check):
                checks.append(axiom_id)
                return check(sys)

            monkeypatch.setitem(relations._CHECKS, axiom_id, counted)
        reports = [run(argv) for argv in _analyze_argvs(*chain_files)]
        assert all(status != 2 for status, _ in reports)
        assert reports[-1][1]["minimal_invariant_admissible"]
        assert len(parses) == 1
        assert len(closures) == 1
        assert len(indexes) == 1
        # each check body ran, and only once
        assert sorted(checks) == sorted(relations._CHECKS)

    def test_warm_reports_equal_cold_ones(self, chain_files):
        argvs = _analyze_argvs(*chain_files)
        warm = [run(argv) for argv in argvs]
        assert warm == [_cold_run(argv) for argv in argvs]

    def test_dynamics_then_fixpoint_analyse_the_map_once(self, chain_files, monkeypatch):
        made, checked, walked = [], [], []
        for name, log in (
            ("_MapAnalysis", made),
            ("is_homomorphism", checked),
            ("_walk", walked),
        ):
            real = getattr(dynamics, name)
            monkeypatch.setattr(
                dynamics, name, lambda *a, real=real, log=log: log.append(a) or real(*a)
            )
        for command in ("dynamics", "fixpoint"):
            assert run([command, *chain_files])[0] == 0
        assert len(made) == 1
        assert len(checked) == 1
        assert len(walked) == 6  # one orbit per point of the chain

    def test_another_map_on_the_parsed_system(self, chain_files, tmp_path):
        # each map replaces the analysis of the last; the reports equal
        # cold runs whichever map came before
        sys_path, successor_path = chain_files
        shift_path = tmp_path / "shift.map"
        shift_path.write_text(serialize_selfmap(SelfMap((1, 0, 3, 2, 5, 4))), encoding="utf-8")
        identity_path = tmp_path / "identity.map"
        identity_path.write_text(serialize_selfmap(identity_map(6)), encoding="utf-8")
        argvs = [
            [command, sys_path, str(map_path)]
            for map_path in (successor_path, shift_path, identity_path, successor_path)
            for command in ("dynamics", "fixpoint")
        ]
        warm = [run(argv) for argv in argvs]
        assert warm == [_cold_run(argv) for argv in argvs]
        assert warm[0] != warm[2] and warm[1] != warm[3]

    def test_rewritten_file_is_parsed_again(self, tmp_path, monkeypatch):
        path = tmp_path / "pair.grs"
        before, after = (
            make_system(["a", "b", "c"], (0, 2), [[TOP, g, 0], [g, TOP, 0], [0, 0, TOP]])
            for g in (1, 2)
        )
        parses = _count_parses(monkeypatch)
        path.write_text(serialize_system(before), encoding="utf-8")
        first = run(["validate", str(path)])
        path.write_text(serialize_system(after), encoding="utf-8")
        second = run(["validate", str(path)])
        assert len(parses) == 2
        assert first[1]["system"]["grades"][0][1] == 1
        assert second[1]["system"]["grades"][0][1] == 2
        assert second == _cold_run(["validate", str(path)])

    def test_parse_error_leaves_the_last_system(self, chain_files, tmp_path, monkeypatch):
        bad = tmp_path / "bad.grs"
        bad.write_text("gradedsystem v1\npoints: x\n", encoding="utf-8")
        good = ["classify", chain_files[0]]
        cold_error = _cold_run(["validate", str(bad)])
        assert cold_error[0] == 2
        assert cold_error[1]["error"]["kind"] == "parse"
        first = _cold_run(good)
        parses = _count_parses(monkeypatch)
        assert run(["validate", str(bad)]) == cold_error
        assert run(good) == first
        # the failed parse stored nothing, so the valid system is still there
        assert len(parses) == 1

    @given(small_systems())
    def test_check_axiom_equals_the_uncached_checks(self, sys):
        uncached = {
            "r5": relations._check_bounded,
            "r9": lambda s: relations._check_composition_steps(s, 2),
            "r10": lambda s: relations._check_composition_steps(s, 3),
            "transitive": relations._check_transitive,
        }
        for axiom_id, check in uncached.items():
            rep = check_axiom(sys, axiom_id)
            assert rep == check(sys)
            assert check_axiom(sys, axiom_id) is rep
