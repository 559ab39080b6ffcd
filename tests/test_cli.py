"""End-to-end command coverage for run(), render_human, and main()."""

import gc
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from gradedrel import (
    CLAIMS,
    GenParams,
    PointSet,
    ResourceLimitError,
    SelfMap,
    TOP,
    enumerate_admissible,
    gen_system,
    hull,
    hulls,
    make_system,
    parse_bundle,
    parse_system,
    serialize_selfmap,
    serialize_system,
)
from gradedrel import cli, relations
from gradedrel.cli import build_parser, main, render_human, run
from gradedrel.harness import VACUOUS
from gradedrel.pointset import iter_bits

from oracles import _brute_force_family, _classify_dyadic
from strategies import examples, seeded_system, small_systems, star_system


@pytest.fixture
def paths(tmp_path, grid, triple, chain, twins, reflection, successor, swap):
    """Fixture files for every system and map the commands need."""
    out = {}
    for name, sys in (
        ("grid", grid),
        ("triple", triple),
        ("chain", chain),
        ("twins", twins),
    ):
        p = tmp_path / f"{name}.grs"
        p.write_text(serialize_system(sys), encoding="utf-8")
        out[name] = str(p)
    for name, t in (
        ("reflection", reflection),
        ("successor", successor),
        ("swap", swap),
        ("collapse", SelfMap((0, 0, 0, 0, 4))),
    ):
        p = tmp_path / f"{name}.map"
        p.write_text(serialize_selfmap(t), encoding="utf-8")
        out[name] = str(p)
    matrix = tmp_path / "dist.dm"
    matrix.write_text(
        "distmatrix v1\npoints: 3\n0 1 3\n1 0 2\n3 2 0\n", encoding="utf-8"
    )
    out["matrix"] = str(matrix)
    out["dir"] = tmp_path
    return out


class TestValidate:
    def test_canonical_file(self, paths):
        status, report = run(["validate", paths["twins"]])
        assert status == 0
        assert report["valid"] is True
        assert report["diagnostics"] == []
        assert report["system"]["window"] == [3, 4]
        assert set(report["axioms"]) == {"r5", "r9", "r10", "transitive"}

    @pytest.mark.parametrize("n", [1, 2, 9, 40])
    def test_system_grades_cell_by_cell(self, tmp_path, n):
        # "-" exactly on the diagonal and each grade elsewhere, in JSON
        sys_ = gen_system(n, GenParams(point_count=(n, n)))
        path = tmp_path / "s.grs"
        path.write_text(serialize_system(sys_), encoding="utf-8")
        status, report = run(["validate", str(path)])
        assert status == 0
        want = [["-" if i == j else sys_.grade(i, j) for j in range(n)] for i in range(n)]
        assert json.dumps(report["system"]["grades"]) == json.dumps(want)

    def test_parse_error_is_located(self, tmp_path):
        bad = tmp_path / "bad.grs"
        bad.write_text("gradedsystem v1\npoints: x\n", encoding="utf-8")
        status, report = run(["validate", str(bad)])
        assert status == 2
        err = report["error"]
        assert err["kind"] == "parse"
        assert (err["code"], err["line"], err["column"]) == ("bad-int", 2, 9)


class TestClassify:
    def test_triple_violates_triangle(self, paths):
        status, report = run(["classify", paths["triple"]])
        assert status == 1
        assert report["class_label"] == "C-inframetric"
        assert report["minimal_inframetric_c"] == "2"
        assert report["is_semimetric"] is True
        assert report["triangle"]["holds"] is False
        assert report["triangle"]["witness"] == {
            "x": "p",
            "z": "q",
            "y": "r",
            "d_xy": "1",
            "d_xz": "1/2",
            "d_zy": "1/32",
        }
        assert report["strong_triangle"]["holds"] is False
        assert report["axioms"]["r9"]["holds"] is True
        assert report["axioms"]["r10"]["holds"] is True
        assert report["axioms"]["transitive"]["holds"] is False

    def test_chain_is_ultrametric(self, paths):
        status, report = run(["classify", paths["chain"]])
        assert status == 0
        assert report["class_label"] == "ultrametric"
        assert report["triangle"]["holds"] is True
        assert report["strong_triangle"]["holds"] is True

    def test_grid_is_2_inframetric(self, paths):
        status, report = run(["classify", paths["grid"]])
        assert status == 1
        assert report["class_label"] == "C-inframetric"
        assert report["minimal_inframetric_c"] == "2"

    @pytest.mark.deep
    def test_wide_window(self, tmp_path):
        sys_ = make_system(
            ["a", "b", "c"], (0, 200000), [[TOP, 5, 7], [5, TOP, 9], [7, 9, TOP]]
        )
        path = tmp_path / "wide.grs"
        path.write_text(serialize_system(sys_), encoding="utf-8")
        status, report = run(["classify", str(path)])
        assert status == 1
        assert report["class_label"] == "C-inframetric"
        w = _classify_dyadic(sys_).triangle_witness
        assert report["triangle"]["witness"] == {
            "x": sys_.labels[w.x],
            "z": sys_.labels[w.z],
            "y": sys_.labels[w.y],
            "d_xy": str(w.d_xy),
            "d_xz": str(w.d_xz),
            "d_zy": str(w.d_zy),
        }

    def test_one_point_has_no_triangle_witness(self, tmp_path):
        path = tmp_path / "one.grs"
        path.write_text(
            serialize_system(make_system(["a"], (0, 1), [[TOP]])), encoding="utf-8"
        )
        status, report = run(["classify", str(path)])
        assert status == 0
        assert report["triangle"] == {"holds": True, "witness": None}
        assert report["strong_triangle"] == {"holds": True, "witness": None}


class TestLevelTableCap:
    """A window too wide for the level table exits 2 with a count of its
    entries, before any of the table is allocated."""

    @pytest.fixture
    def widest(self, tmp_path):
        sys_ = make_system(
            ["a", "b", "c"], (0, 10**8), [[TOP, 5, 7], [5, TOP, 9], [7, 9, TOP]]
        )
        path = tmp_path / "widest.grs"
        path.write_text(serialize_system(sys_), encoding="utf-8")
        return sys_, str(path)

    def test_the_table_is_counted(self, widest):
        sys_, _ = widest
        with pytest.raises(ResourceLimitError) as info:
            sys_.level_table()
        # levels lo - 1 to hi + 1, three points each
        assert info.value.reached == (10**8 + 3) * 3
        assert info.value.cap == relations.LEVEL_TABLE_CAP
        assert "level-table" not in sys_.__dict__["_memo"]

    @pytest.mark.parametrize("command", ["validate", "classify", "hulls", "structure"])
    def test_reports_exit_2(self, widest, command):
        t0 = time.monotonic()
        status, report = run([command, widest[1]])
        assert time.monotonic() - t0 < 5
        assert status == 2
        assert report["error"]["kind"] == "ResourceLimitError"
        message = report["error"]["message"]
        assert f"needs {(10**8 + 3) * 3} level-table entries" in message
        assert f"cap of {relations.LEVEL_TABLE_CAP}" in message


class TestHulls:
    def test_chain_family(self, paths):
        status, report = run(["hulls", paths["chain"]])
        assert status == 0
        assert report["mode"] == "paper-cov"
        assert report["count"] == 11
        members = [tuple(e["members"]) for e in report["family"]]
        assert ("4", "inf") in members
        assert tuple(str(k) for k in range(5)) + ("inf",) in members

    def test_closure_mode(self, paths):
        status, report = run(["hulls", paths["chain"], "--mode", "closure"])
        assert status == 0
        assert report["mode"] == "arbitrary-center"
        assert report["count"] == 11

    def test_witness_balls_shape(self, paths):
        _, report = run(["hulls", paths["twins"]])
        pair = next(e for e in report["family"] if len(e["members"]) == 2)
        assert pair["witness_balls"] == [
            {"center": "a", "level": 3},
            {"center": "b", "level": 3},
        ]


def _family_entries(sys, family):
    """Report entries built from AdmissibleSet values, one fresh dict per
    witness ball, as the hulls command used to build them."""
    return [
        {
            "members": [sys.labels[i] for i in adm.points.members()],
            "witness_balls": [
                {"center": sys.labels[c], "level": lev} for c, lev in adm.witness_balls
            ],
        }
        for adm in family
    ]


def _assert_streamed_report_matches(sys):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "system.grs")
        Path(path).write_text(serialize_system(sys), encoding="utf-8")
        for flag, mode in cli.MODE_NAMES.items():
            status, report = run(["hulls", path, "--mode", flag])
            listed = _family_entries(sys, enumerate_admissible(sys, mode))
            assert status == 0
            assert report == {
                "command": "hulls",
                "file": path,
                "mode": mode,
                "count": len(listed),
                "family": listed,
            }
            assert listed == _family_entries(sys, _brute_force_family(sys, mode))
            # one dict per witness ball, shared by every member it witnesses
            shared = {}
            for entry in report["family"]:
                for b in entry["witness_balls"]:
                    assert shared.setdefault((b["center"], b["level"]), b) is b


def _marked(n, marks):
    """n labels: marks cycled, each followed by its index."""
    return [marks[i % len(marks)] + str(i) for i in range(n)]


def _labelled(n, marks):
    """What a fresh labeler reads of a system, its size and labels, without
    the n x n grades."""
    return SimpleNamespace(n=n, labels=_marked(n, marks))


def _labelled_system(n, marks):
    """n points, all at one grade, labelled as _labelled; for the memo."""
    rows = [[TOP if x == y else 0 for y in range(n)] for x in range(n)]
    return make_system(_marked(n, marks), (0, 1), rows)


# labels that JSON must escape, and plain ones
ESCAPED = ('"', "\\", "é", "☃", "\U0001d11e", "'", "q")
PLAIN = ("p", "r")


def assert_labels_match_iter_bits(labeler, labels, masks):
    # all masks in one call, then each mask as a sequence of one
    want = [[labels[i] for i in iter_bits(bits)] for bits in masks]
    assert list(labeler(masks)) == want, len(labels)
    for bits, members in zip(masks, want):
        assert list(labeler((bits,))) == [members], (len(labels), bits)


@pytest.mark.deep
class TestLabeler:
    """The byte-table labeler against the label of each set bit in turn;
    each test but the memo test reads a freshly built labeler, so its
    tables fill in the order the masks come."""

    @given(
        st.integers(min_value=1, max_value=300).flatmap(
            lambda n: st.tuples(
                st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=20)
            )
        )
    )
    def test_random_masks_up_to_300_points(self, case):
        n, masks = case
        sys = _labelled(n, ESCAPED)
        assert_labels_match_iter_bits(cli._Labeler(sys), sys.labels, masks)

    # n = 0, 1 and 7 (mod 8) around every byte count up to 300 points
    @pytest.mark.parametrize(
        "n", [1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 256, 257, 263, 264, 265, 300]
    )
    def test_every_byte_value_at_every_position(self, n):
        rng = random.Random(n)
        full = (1 << n) - 1
        sys = _labelled(n, ESCAPED)
        # every byte value alone at each position, then over random bytes at
        # the lowest and the highest position
        alone = [b << k & full for k in range(0, n, 8) for b in range(256)]
        ends = {0, (n - 1) // 8 * 8}
        mixed = [(b << k | rng.getrandbits(n)) & full for k in ends for b in range(256)]
        edges = [0, full, 1, 1 << (n - 1), full >> 1, full ^ 1]
        for masks in (alone, mixed, edges):
            assert_labels_match_iter_bits(cli._Labeler(sys), sys.labels, masks)

    def test_every_mask_up_to_10_points(self):
        for n in range(1, 11):
            sys = _labelled(n, ESCAPED)
            assert_labels_match_iter_bits(cli._Labeler(sys), sys.labels, range(1 << n))

    # n = 1 and 7 (mod 8) around one, two and three or more byte positions,
    # each mask count from none to many, with a fresh labeler per order
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 64, 300])
    def test_bulk_labels_match_one_mask_at_a_time(self, n):
        rng = random.Random(n)
        full = (1 << n) - 1
        sys = _labelled(n, ESCAPED)
        edges = [0, full, 1, 1 << (n - 1), full >> 1, full ^ 1]
        alone = [b << k & full for k in range(0, n, 8) for b in range(256)]
        masks = edges + alone + [rng.getrandbits(n) for _ in range(300)]
        for case in ([], masks[:1], masks, masks[::-1]):
            want = [[sys.labels[i] for i in iter_bits(bits)] for bits in case]
            assert list(cli._Labeler(sys)(case)) == want, n
            assert list(cli._Labeler(sys)(iter(case))) == want, n
            labeler = cli._Labeler(sys)
            assert [list(labeler((bits,))) for bits in case] == [[w] for w in want], n
            assert list(labeler(case)) == want, n

    def test_memoised_per_system(self):
        # two systems with different labels read the same masks; each keeps
        # its own labeler, and the tables filled for one never answer the other
        a, b = _labelled_system(20, ESCAPED), _labelled_system(20, PLAIN)
        rng = random.Random(1)
        masks = [rng.getrandbits(20) for _ in range(200)]
        for sys in (a, b, a):
            assert_labels_match_iter_bits(cli._labeler(sys), sys.labels, masks)
            assert [cli._members(sys, bits) for bits in masks] == [
                [sys.labels[i] for i in iter_bits(bits)] for bits in masks
            ]
        assert cli._labeler(a) is cli._labeler(a)
        assert cli._labeler(a) is not cli._labeler(b)
        assert list(cli._labeler(a)((0b101,))) == [['"0', "é2"]]
        assert list(cli._labeler(b)((0b101,))) == [["p0", "p2"]]


class TestStreamedHullsReport:
    """The hulls command reads rows and witnesses without AdmissibleSet
    values; its report must equal the one built from enumerate_admissible,
    and that one the brute-force family of hull fixed points."""

    @pytest.mark.deep
    @given(small_systems())
    @settings(examples(60, deep=200), deadline=None)
    def test_random_systems(self, sys):
        _assert_streamed_report_matches(sys)

    @pytest.mark.deep
    def test_seeded_systems_up_to_11_points(self):
        for seed in range(24):
            sys = gen_system(seed, GenParams(point_count=(6, 11)))
            _assert_streamed_report_matches(sys)

    def test_star_system_past_256_points(self, tmp_path):
        # point 0's balls shrink 256 times, so the witness counts take two
        # bytes each; the report must equal one built from hull() per member
        sys = star_system(257)
        path = tmp_path / "star.grs"
        path.write_text(serialize_system(sys), encoding="utf-8")
        closure = sorted(
            hulls._intersection_closure(hulls._ball_index(sys)),
            key=lambda bits: PointSet(sys.n, bits).canonical_key(),
        )
        for flag, mode in cli.MODE_NAMES.items():
            status, report = run(["hulls", str(path), "--mode", flag])
            family = [
                adm
                for bits in closure
                for adm in [hull(sys, PointSet(sys.n, bits), mode)]
                if adm.points.bits == bits
            ]
            assert status == 0
            assert report == {
                "command": "hulls",
                "file": str(path),
                "mode": mode,
                "count": len(family),
                "family": _family_entries(sys, family),
            }

    def test_witness_balls_share_one_dict_per_center_and_level(self, paths):
        _, report = run(["hulls", paths["grid"], "--mode", "closure"])
        balls = [b for e in report["family"] for b in e["witness_balls"]]
        distinct = {(b["center"], b["level"]) for b in balls}
        assert len({id(b) for b in balls}) == len(distinct) < len(balls)

    def test_cap_error_prints_the_member_count(self, paths, grid, monkeypatch):
        monkeypatch.setattr(hulls, "DEFAULT_SET_CAP", 3)
        with pytest.raises(ResourceLimitError) as info:
            hulls._intersection_closure(hulls._ball_index(grid))
        reached = info.value.reached
        assert reached > 3
        status, report = run(["hulls", paths["grid"]])
        assert status == 2
        assert report["error"] == {
            "kind": "ResourceLimitError",
            "message": f"ball-intersection closure reached {reached} family members,"
            " over the cap of 3",
        }


def _assert_no_cyclic_garbage(argv):
    """Run one command line with the collector off, drop the report, and
    require a collection to find nothing; returns the exit status and the
    error kind, if any.  The shared parser is built first: building it
    leaves argparse's cyclic help formatters behind, once per process and
    outside the pause."""
    cli._parser()
    gc.collect()
    gc.disable()
    try:
        status, report = run(argv)
        kind = report.get("error", {}).get("kind")
        del report
        assert gc.collect() == 0, argv
    finally:
        gc.enable()
    return status, kind


class TestCollectorPause:
    """run pauses the cyclic collector around the command: every report
    and everything else a command makes must be freed by reference
    counting alone, and the collector's state must come back as it was."""

    def test_commands_leave_no_cyclic_garbage(self, paths):
        out = str(paths["dir"] / "written")
        for argv, status in (
            (["validate", paths["grid"]], 0),
            (["classify", paths["triple"]], 1),
            (["hulls", paths["grid"]], 0),
            (["hulls", paths["grid"], "--mode", "closure"], 0),
            (["structure", paths["chain"]], 1),
            (["dynamics", paths["grid"], paths["reflection"]], 0),
            (["dynamics", paths["grid"], paths["collapse"]], 1),
            (["fixpoint", paths["chain"], paths["successor"]], 0),
            (["fixpoint", paths["grid"], paths["collapse"]], 0),
            (["ingest", paths["matrix"], "--window", "-2", "1"], 0),
            (["ingest", paths["matrix"], "--window", "-2", "1", "-o", out], 0),
        ):
            assert _assert_no_cyclic_garbage(argv) == (status, None), argv

    @pytest.mark.parametrize("claim", sorted(CLAIMS))
    def test_falsify_leaves_no_cyclic_garbage(self, claim):
        status, kind = _assert_no_cyclic_garbage(
            ["falsify", claim, "--trials", "3", "--seed", "0"]
        )
        assert status in (0, 1) and kind is None

    def test_counterexample_and_shrink_leave_no_cyclic_garbage(self, paths):
        out = str(paths["dir"] / "ce.bundle")
        argv = ["falsify", "prop-r10-metric", "--trials", "200", "--seed", "0", "-o", out]
        assert _assert_no_cyclic_garbage(argv) == (1, None)
        assert parse_bundle(Path(out).read_text(encoding="utf-8")).system.n == 3

    def test_error_reports_leave_no_cyclic_garbage(self, paths, monkeypatch):
        bad = paths["dir"] / "bad.grs"
        bad.write_text("gradedsystem v1\npoints: x\n", encoding="utf-8")
        binary = paths["dir"] / "binary.grs"
        binary.write_bytes(b"gradedsystem v1\n\xff\n")
        for argv, kind in (
            (["validate", str(bad)], "parse"),
            (["classify", "/nonexistent/system.grs"], "io"),
            (["validate", str(binary)], "io"),
            (["falsify", "eq1-roundtrip", "--trials", "0"], "UsageError"),
            (["dynamics", paths["grid"], paths["swap"]], "UsageError"),
        ):
            assert _assert_no_cyclic_garbage(argv) == (2, kind), argv
        monkeypatch.setattr(hulls, "DEFAULT_SET_CAP", 3)
        for mode in ("paper", "closure"):
            argv = ["hulls", paths["grid"], "--mode", mode]
            assert _assert_no_cyclic_garbage(argv) == (2, "ResourceLimitError")

    def test_paused_inside_the_command(self, paths, monkeypatch):
        seen = []
        monkeypatch.setitem(
            cli._DISPATCH, "validate", lambda ns: (seen.append(gc.isenabled()), (0, {}))[1]
        )
        assert gc.isenabled()
        assert run(["validate", paths["grid"]]) == (0, {})
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("outcome", ["success", "exit 2", "raises"])
    def test_state_restored(self, paths, monkeypatch, enabled, outcome):
        def command(ns):
            assert not gc.isenabled()
            if outcome == "raises":
                raise RuntimeError("command failed")
            return 0, {}

        monkeypatch.setitem(cli._DISPATCH, "validate", command)
        argv = {
            "success": ["validate", paths["grid"]],
            "exit 2": ["classify", "/nonexistent/system.grs"],
            "raises": ["validate", paths["grid"]],
        }[outcome]
        (gc.enable if enabled else gc.disable)()
        try:
            if outcome == "raises":
                with pytest.raises(RuntimeError, match="command failed"):
                    run(argv)
            else:
                assert run(argv)[0] == (2 if outcome == "exit 2" else 0)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()


class TestStructure:
    def test_chain(self, paths):
        status, report = run(["structure", paths["chain"]])
        assert status == 1
        assert report["compact_structure"]["holds"] is True
        assert report["compact_structure"]["note"] == "finite ground set: FIP automatic"
        assert report["spherically_complete"]["holds"] is True
        normal = report["normal_structure"]
        assert normal["holds"] is False
        assert normal["witness"]["set"] == ["4", "inf"]
        assert normal["witness"]["cheb_radius"] == "1/16"
        assert normal["witness"]["diameter"] == "1/16"
        assert normal["witness"]["cheb_grade"] == 4


class TestDynamics:
    def test_grid_reflection(self, paths):
        status, report = run(["dynamics", paths["grid"], paths["reflection"]])
        assert status == 0
        assert report["homomorphism"]["holds"] is True
        assert report["nonexpansive"]["holds"] is True
        assert report["fixed_points"] == ["1/2"]
        first = report["per_point"][0]
        assert first["point"] == "0"
        assert first["image"] == "1"
        assert first["orbit"]["cycle"] == ["0", "1"]
        assert first["orbit"]["grade_trace"] == [0, 0]
        assert first["regularity"]["regular"] is False
        assert first["regularity"]["weak_regular"] is False

    def test_collapse_map_violation(self, paths):
        status, report = run(["dynamics", paths["grid"], paths["collapse"]])
        assert status == 1
        hom = report["homomorphism"]
        assert hom["holds"] is False
        assert hom["witness"] == {
            "x": "1/2",
            "y": "1",
            "grade": 1,
            "image_grade": 0,
        }
        non = report["nonexpansive"]
        assert non["witness"]["distance"] == "1/2"
        assert non["witness"]["image_distance"] == "1"

    def test_successor_regularity(self, paths):
        status, report = run(["dynamics", paths["chain"], paths["successor"]])
        assert status == 0
        first = report["per_point"][0]
        assert first["orbit"]["tail"] == ["0", "1", "2", "3", "4"]
        assert first["orbit"]["cycle"] == ["inf"]
        assert first["orbit"]["grade_trace"] == [0, 1, 2, 3, 4, "TOP"]
        reg = first["regularity"]
        assert reg["asymptotically_regular"] is True
        assert reg["asymptotic_offset"] == 0
        assert reg["regular_offset"] == 1

    def test_map_size_mismatch(self, paths):
        status, report = run(["dynamics", paths["twins"], paths["reflection"]])
        assert status == 2
        assert report["error"]["kind"] == "UsageError"


class TestFixpoint:
    def test_chain_successor(self, paths):
        status, report = run(["fixpoint", paths["chain"], paths["successor"]])
        assert status == 0
        assert report["fixed_points"] == ["inf"]
        assert report["hypotheses"] == {"transitive": True, "homomorphism": True}
        assert report["minimal_invariant_admissible"] == [["inf"]]
        assert report["minimal_invariant_balls"] == []
        dich = report["dichotomy"]
        assert dich["hypotheses_met"] is True
        assert len(dich["entries"]) == 5
        for e in dich["entries"]:
            assert e["outcome"] == "contains-fixed-point"
            assert e["witness"] == [5]
        for variant in ("regular", "asymptotic"):
            assert report["regular_fixed_point"][variant]["verdict"] == "confirmed"

    def test_twins_swap(self, paths):
        status, report = run(["fixpoint", paths["twins"], paths["swap"]])
        assert status == 0
        assert report["fixed_points"] == []
        assert report["minimal_invariant_admissible"] == [["a", "b"]]
        assert report["minimal_invariant_balls"] == [
            {"center": "a", "level": 3, "members": ["a", "b"]},
            {"center": "b", "level": 3, "members": ["a", "b"]},
        ]
        for e in report["dichotomy"]["entries"]:
            assert e["outcome"] == "contains-minimal-invariant-ball"
        rfp = report["regular_fixed_point"]
        assert rfp["regular"]["verdict"] == "vacuous"
        assert rfp["regular"]["unmet"] == ["regular@0", "regular@1"]
        assert rfp["asymptotic"]["unmet"] == ["asymptotic@0", "asymptotic@1"]
        assert rfp["regular"]["balls"][0]["members"] == ["a", "b"]
        assert rfp["regular"]["balls"][0]["fixed_inside"] == []

    def test_non_homomorphism_skips_admissible_scan(self, paths):
        status, report = run(["fixpoint", paths["grid"], paths["collapse"]])
        assert report["hypotheses"]["homomorphism"] is False
        assert report["minimal_invariant_admissible"] is None
        assert status == 0  # hypotheses unmet, so no falsified verdict


class TestFalsify:
    def test_counterexample_with_bundle(self, paths):
        out = str(paths["dir"] / "ce.bundle")
        status, report = run(
            ["falsify", "prop-r10-metric", "--trials", "200", "--seed", "0", "-o", out]
        )
        assert status == 1
        assert report["outcome"] == "counterexample"
        assert report["instance"]["system"]["points"] == 3
        assert "triangle fails" in report["instance"]["locus"]
        assert report["written"] == out

        bundle = parse_bundle(Path(out).read_text(encoding="utf-8"))
        assert bundle.claim_id == "prop-r10-metric"
        claim = CLAIMS["prop-r10-metric"]
        assert claim.check(bundle.system, bundle.selfmap) not in (None, VACUOUS)

    def test_no_counterexample(self, paths):
        status, report = run(
            ["falsify", "eq1-roundtrip", "--trials", "50", "--seed", "1"]
        )
        assert status == 0
        assert report["outcome"] == "no-counterexample"
        assert "instance" not in report

    def test_trials_must_be_positive(self, paths):
        status, report = run(["falsify", "eq1-roundtrip", "--trials", "0"])
        assert status == 2
        assert report["error"]["kind"] == "UsageError"

    def test_negative_trials_name_the_flag(self, paths):
        # the flag's own message, not the library's
        for trials in ("0", "-3"):
            status, report = run(["falsify", "eq1-roundtrip", "--trials", trials])
            assert status == 2
            assert report == {
                "command": "falsify",
                "error": {"kind": "UsageError", "message": "--trials must be at least 1"},
            }

    def test_unknown_claim_rejected_by_parser(self, paths, capsys):
        status, report = run(["falsify", "no-such-claim", "--trials", "1"])
        assert status == 2
        assert report == {}
        capsys.readouterr()


class TestIngest:
    def test_inline_text(self, paths):
        status, report = run(["ingest", paths["matrix"], "--window", "-2", "1"])
        assert status == 0
        assert report["window"] == [-2, 1]
        assert report["system"]["grades"][0][1] == 0
        assert report["system"]["grades"][1][2] == -1
        assert report["system"]["grades"][0][2] == -2
        assert report["text"].startswith("gradedsystem v1\n")
        assert parse_system(report["text"]).n == 3

    def test_write_output(self, paths):
        out = str(paths["dir"] / "ingested.grs")
        status, report = run(
            ["ingest", paths["matrix"], "--window", "-2", "1", "-o", out]
        )
        assert status == 0
        assert report["written"] == out
        assert "text" not in report
        sys = parse_system(Path(out).read_text(encoding="utf-8"))
        assert sys.labels == ("0", "1", "2")

    def test_window_must_have_two_values(self, paths, capsys):
        status, report = run(["ingest", paths["matrix"], "--window", "1"])
        assert status == 2
        assert report == {}
        capsys.readouterr()


class TestErrorPaths:
    def test_missing_file(self):
        status, report = run(["classify", "/nonexistent/system.grs"])
        assert status == 2
        assert report["error"]["kind"] == "io"

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "BAD"],
            ["dynamics", "chain", "BAD"],
            ["fixpoint", "chain", "BAD"],
            ["ingest", "BAD", "--window", "0", "2"],
        ],
    )
    def test_non_utf8_file_is_an_io_error(self, paths, argv):
        bad = paths["dir"] / "binary"
        bad.write_bytes(b"gradedsystem v1\n\xff\n")
        files = {"BAD": str(bad), "chain": paths["chain"]}
        status, report = run([files.get(a, a) for a in argv])
        assert status == 2
        assert report["error"]["kind"] == "io"
        assert str(bad) in report["error"]["message"]

    def test_non_utf8_file_from_the_command_line(self, tmp_path):
        path = tmp_path / "binary.grs"
        path.write_bytes(b"\xff")
        src = str(Path(cli.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "gradedrel.cli", "--json", "validate", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["error"]["kind"] == "io"

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="the interpreter has no int-to-str digit limit",
    )
    @pytest.mark.parametrize(
        "command, status, grade",
        [
            ("validate", 0, None),
            ("classify", 2, None),
            ("structure", 2, None),
            ("dynamics", 2, None),
            ("dynamics", 2, 10**7),
        ],
        ids=["validate", "classify", "structure", "dynamics", "dynamics-grade-1e7"],
    )
    def test_values_past_the_digit_limit(self, tmp_path, command, status, grade):
        # 2**-grade is a distance here, and 2**grade the inframetric
        # constant; either has more decimal digits than str() may print.
        # By default grade is the least with 2**grade past the limit.
        if grade is None:
            grade = (10 ** sys.get_int_max_str_digits()).bit_length()
        sys_ = make_system(
            ["a", "b", "c"],
            (0, grade + 5000),
            [[TOP, 0, grade], [0, TOP, grade], [grade, grade, TOP]],
        )
        path = tmp_path / "big.grs"
        path.write_text(serialize_system(sys_), encoding="utf-8")
        argv = [command, str(path)]
        if command == "dynamics":
            # the map shrinks the pair (c, a) from the grade to 0
            t = tmp_path / "t.map"
            t.write_text(serialize_selfmap(SelfMap((1, 0, 0))), encoding="utf-8")
            argv.append(str(t))
        t0 = time.monotonic()
        got, report = run(argv)
        # counting the digits of a value this long costs no big-int power
        assert time.monotonic() - t0 < 5
        assert got == status
        if status == 2:
            assert report["error"]["kind"] == "ResourceLimitError"
            assert "decimal digits" in report["error"]["message"]

    def test_unknown_subcommand(self, capsys):
        status, report = run(["frobnicate"])
        assert status == 2
        assert report == {}
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        status, report = run(["--help"])
        assert status == 0
        assert report == {}
        capsys.readouterr()


def _reuse_argvs(paths):
    """Command lines covering every subcommand, both flag positions, usage
    errors and help."""
    out = str(paths["dir"] / "reuse.bundle")
    written = str(paths["dir"] / "reuse.grs")
    return [
        ["validate", paths["twins"]],
        ["--json", "classify", paths["chain"]],
        ["classify", paths["triple"], "--quiet"],
        ["hulls", paths["chain"], "--mode", "closure", "--json"],
        ["--quiet", "hulls", paths["chain"]],
        ["structure", paths["chain"]],
        ["dynamics", paths["chain"], paths["successor"], "--json"],
        ["--json", "fixpoint", paths["chain"], paths["successor"], "--quiet"],
        ["falsify", "eq1-roundtrip", "--trials", "5", "--seed", "3"],
        ["falsify", "prop-r10-metric", "--trials", "200", "-o", out],
        ["ingest", paths["matrix"], "--window", "0", "2"],
        ["--quiet", "ingest", paths["matrix"], "--window", "0", "2", "-o", written],
        ["frobnicate"],
        ["hulls", paths["chain"], "--mode", "bogus"],
        ["--help"],
        ["falsify", "--help"],
    ]


def _parse(parser, argv, capsys):
    try:
        result = ("namespace", vars(parser.parse_args(argv)))
    except SystemExit as exc:
        result = ("exit", exc.code)
    return result, capsys.readouterr()


class TestParserReuse:
    def test_cached_parser_matches_a_fresh_one(self, paths, capsys):
        # each line goes through run first, so the shared parser is compared
        # after the program's own path has used it
        for argv in _reuse_argvs(paths) * 2:
            run(argv)
            capsys.readouterr()
            cached = _parse(cli._parser(), argv, capsys)
            assert cached == _parse(build_parser(), argv, capsys), argv

    def test_run_twice_gives_the_same_reports(self, paths, capsys, monkeypatch):
        argvs = _reuse_argvs(paths)
        first = [run(argv) for argv in argvs]
        second = [run(argv) for argv in argvs]
        # and the same as with a fresh parser per call: with the parse memo
        # emptied, every command line builds its own parser
        built = []
        monkeypatch.setattr(cli, "_parser", lambda: built.append(1) or build_parser())
        cli._parsed_args.cache_clear()
        fresh = [run(argv) for argv in argvs]
        capsys.readouterr()
        assert len(built) == len(argvs)
        assert first == second == fresh

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()

    def test_built_on_the_first_run_not_at_import(self):
        code = (
            "import gradedrel.cli as cli\n"
            "print(cli._parser.cache_info().currsize)\n"
            "cli.run(['frobnicate'])\n"
            "cli.run(['frobnicate'])\n"
            "info = cli._parser.cache_info()\n"
            "print(info.misses, info.hits)\n"
        )
        src = str(Path(cli.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            check=True,
        )
        assert proc.stdout.split("\n")[:2] == ["0", "1 1"]


class TestParseMemo:
    def test_a_repeated_command_line_is_not_parsed_again(self, paths, monkeypatch):
        parser = cli._parser()
        calls = []
        real = parser.parse_args
        monkeypatch.setattr(parser, "parse_args", lambda args: calls.append(args) or real(args))
        argv = ["--json", "classify", paths["chain"]]
        first = run(argv)
        assert len(calls) == 1
        assert run(argv) == first
        assert len(calls) == 1
        assert cli._parse(argv) is cli._parse(list(argv))

    def test_no_command_writes_into_the_shared_namespace(self, paths, capsys):
        argvs = _reuse_argvs(paths)
        for argv in argvs * 2:
            run(argv)
        capsys.readouterr()
        for argv in argvs:
            hits = cli._parsed_args.cache_info().hits
            cached = cli._parse(argv)
            if isinstance(cached, int):
                capsys.readouterr()
                continue
            assert cli._parsed_args.cache_info().hits == hits + 1, argv
            assert vars(cached) == vars(build_parser().parse_args(argv)), argv

    @pytest.mark.parametrize(
        "argv",
        [
            ["frobnicate"],
            ["hulls", "chain", "--mode", "bogus"],
            ["--help"],
            ["falsify", "--help"],
        ],
        ids=["unknown-command", "bad-choice", "help", "falsify-help"],
    )
    def test_failed_parses_and_help_are_not_kept(self, paths, capsys, argv):
        argv = [paths.get(a, a) for a in argv]
        size = cli._parsed_args.cache_info().currsize
        seen = []
        for _ in range(3):
            status, report = run(argv)
            out, err = capsys.readouterr()
            seen.append((status, report, out, err))
            assert cli._parsed_args.cache_info().currsize == size
        assert seen[0][0] == (0 if "--help" in argv else 2)
        assert seen[0][2] or seen[0][3]
        assert seen == [seen[0]] * 3

    def test_an_edited_file_is_read_again(self, paths, tmp_path):
        system, selfmap = tmp_path / "edited.grs", tmp_path / "edited.map"
        argvs = [
            ["validate", str(system)],
            ["classify", str(system)],
            ["hulls", str(system), "--mode", "closure"],
            ["structure", str(system)],
            ["dynamics", str(system), str(selfmap)],
            ["fixpoint", str(system), str(selfmap)],
        ]
        reports = []
        for sys_name, map_name in (("chain", "successor"), ("twins", "swap")):
            system.write_text(Path(paths[sys_name]).read_text("utf-8"), "utf-8")
            selfmap.write_text(Path(paths[map_name]).read_text("utf-8"), "utf-8")
            got = [run(argv) for argv in argvs]
            assert got == [cli._execute(build_parser().parse_args(argv)) for argv in argvs]
            assert all(status != 2 for status, _ in got), got
            reports.append(got)
        assert all(a != b for a, b in zip(*reports))

    def test_the_callers_list_is_not_kept(self, paths):
        expected = run(["classify", paths["chain"]])
        argv = ["classify", paths["chain"]]
        assert run(argv) == expected
        argv[1] = paths["triple"]
        assert run(["classify", paths["chain"]]) == expected
        assert run(argv)[1]["file"] == paths["triple"]


def _walk(value, keys, leaves):
    if isinstance(value, dict):
        for k, v in value.items():
            keys.add(k)
            _walk(v, keys, leaves)
    elif isinstance(value, list):
        for v in value:
            _walk(v, keys, leaves)
    else:
        leaves.add(json.dumps(value))


class TestOutputParity:
    COMMANDS = (
        ["classify"],
        ["structure"],
        ["hulls"],
        ["validate"],
    )

    def test_human_view_carries_every_field(self, paths):
        for argv in self.COMMANDS:
            _, report = run(argv + [paths["chain"]])
            human = render_human(report)
            keys, leaves = set(), set()
            _walk(report, keys, leaves)
            for key in keys:
                assert f"{key}:" in human, (argv, key)
            for leaf in leaves:
                assert leaf in human, (argv, leaf)

    def test_dynamics_parity(self, paths):
        _, report = run(["dynamics", paths["chain"], paths["successor"]])
        human = render_human(report)
        keys, leaves = set(), set()
        _walk(report, keys, leaves)
        for key in keys:
            assert f"{key}:" in human
        for leaf in leaves:
            assert leaf in human


class TestMain:
    def test_human_output(self, paths, capsys):
        assert main(["classify", paths["chain"]]) == 0
        out = capsys.readouterr().out
        assert 'class_label: "ultrametric"' in out

    def test_json_flag_before_subcommand(self, paths, capsys):
        assert main(["--json", "classify", paths["chain"]]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["class_label"] == "ultrametric"

    def test_json_flag_after_subcommand(self, paths, capsys):
        assert main(["classify", paths["chain"], "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["command"] == "classify"

    def test_quiet(self, paths, capsys):
        assert main(["classify", paths["triple"], "--quiet"]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("before", [True, False])
    def test_abbreviated_json_flag(self, paths, capsys, before):
        argv = ["classify", paths["chain"]]
        assert main(["--js", *argv] if before else [*argv, "--js"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["class_label"] == "ultrametric"

    @pytest.mark.parametrize("before", [True, False])
    def test_abbreviated_quiet_flag(self, paths, capsys, before):
        argv = ["classify", paths["triple"]]
        assert main(["--qui", *argv] if before else [*argv, "--qui"]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv, status",
        [
            (["hulls", "{grid}", "--mode", "bogus"], 2),
            (["no-such-command"], 2),
            (["--help"], 0),
        ],
    )
    def test_failed_parse_returns_its_status(self, paths, capsys, argv, status):
        assert main([arg.format(grid=paths["grid"]) for arg in argv]) == status
        captured = capsys.readouterr()
        if status:
            assert captured.out == ""
            assert "usage: gradedrel" in captured.err
        else:
            assert captured.out.startswith("usage: gradedrel")


class _Chunks:
    """A stdout stand-in that keeps every string written to it."""

    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)
        return len(text)

    def flush(self):
        pass


class TestStreamedOutput:
    """main writes each report as it is encoded, with the bytes of
    json.dumps(report, indent=2) + "\n" and of render_human(report)."""

    @pytest.fixture
    def argvs(self, paths):
        d = paths["dir"]
        odd = make_system(
            ["é", 'a"b', "c\\d", "日本"],
            (0, 2),
            [[TOP, 1, 2, 0], [1, TOP, 0, 2], [2, 0, TOP, 1], [0, 2, 1, TOP]],
        )
        (d / "odd.grs").write_text(serialize_system(odd), encoding="utf-8")
        (d / "odd.map").write_text(serialize_selfmap(SelfMap((1, 0, 3, 2))), encoding="utf-8")
        one = make_system(["ü"], (0, 1), [[TOP]])
        (d / "one.grs").write_text(serialize_system(one), encoding="utf-8")
        (d / "one.map").write_text(serialize_selfmap(SelfMap((0,))), encoding="utf-8")
        (d / "bad.grs").write_text("gradedsystem v1\npoints: x\n", encoding="utf-8")
        odd_path, one_path = str(d / "odd.grs"), str(d / "one.grs")
        argvs = [
            ["falsify", "prop-r10-metric", "--trials", "200", "-o", str(d / "ce.bundle")],
            ["falsify", "thm-regular-fp", "--trials", "3"],
            ["ingest", paths["matrix"], "--window", "-2", "1"],
            ["ingest", paths["matrix"], "--window", "-2", "1", "-o", str(d / "in.grs")],
            ["validate", str(d / "bad.grs")],
            ["classify", "/nonexistent/system.grs"],
            ["dynamics", paths["grid"], paths["swap"]],
        ]
        for system, smap in (
            (paths["grid"], paths["reflection"]),
            (paths["chain"], paths["successor"]),
            (odd_path, str(d / "odd.map")),
            (one_path, str(d / "one.map")),
        ):
            argvs += [
                ["validate", system],
                ["classify", system],
                ["hulls", system],
                ["hulls", system, "--mode", "closure"],
                ["structure", system],
                ["dynamics", system, smap],
                ["fixpoint", system, smap],
            ]
        return argvs

    def test_bytes_match_the_built_strings(self, argvs, capsys):
        for argv in argvs:
            status, report = run(argv)
            for flag, want in (
                ("--json", json.dumps(report, indent=2) + "\n"),
                (None, render_human(report)),
            ):
                assert main([flag, *argv] if flag else argv) == status, argv
                assert capsys.readouterr().out == want, (flag, argv)

    def test_written_a_piece_at_a_time(self, paths, monkeypatch):
        # the closure family of the chain has several members, and neither
        # view reaches stdout as one string
        argv = ["hulls", paths["chain"], "--mode", "closure"]
        _, report = run(argv)
        for flag, want in (
            ("--json", json.dumps(report, indent=2) + "\n"),
            (None, render_human(report)),
        ):
            out = _Chunks()
            monkeypatch.setattr(sys, "stdout", out)
            monkeypatch.setattr(cli, "render_human", None)
            assert main([flag, *argv] if flag else argv) == 0
            monkeypatch.undo()
            assert "".join(out.chunks) == want
            assert max(map(len, out.chunks)) < len(want) // 4


class _ClosedPipe:
    """A stdout stand-in whose reader has gone: every write raises
    BrokenPipeError.  Its descriptor is fd, a file of the test's."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError

    def fileno(self):
        return self.fd


class TestClosedPipe:
    """A reader that closes stdout early leaves the command's own status
    and nothing on stderr."""

    @pytest.mark.parametrize("flag", ["--json", None])
    def test_reader_closes_after_one_line(self, tmp_path, flag):
        # the closure family of an unconstrained 12-point system prints far
        # more than a pipe buffer holds, so the writer meets the closed end
        path = tmp_path / "big.grs"
        path.write_text(serialize_system(seeded_system(0, 12, 6)), encoding="utf-8")
        argv = ["hulls", str(path), "--mode", "closure"]
        status, report = run(argv)
        full = json.dumps(report, indent=2) if flag else render_human(report)
        assert len(full) > 1 << 16
        src = str(Path(cli.__file__).parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "gradedrel.cli", *([flag] if flag else []), *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        with proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
        assert first and full.startswith(first.decode())
        assert err == b""
        assert proc.returncode == status

    @pytest.mark.parametrize("flag", ["--json", None])
    def test_rest_goes_to_the_null_device(self, paths, tmp_path, monkeypatch, capsys, flag):
        argv = ["classify", paths["triple"]]
        status, _ = run(argv)
        target = tmp_path / "stdout"
        fd = os.open(target, os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
            assert main([flag, *argv] if flag else argv) == status == 1
            monkeypatch.undo()
            # the descriptor now writes to the null device, not the file
            assert os.fstat(fd).st_rdev == os.stat(os.devnull).st_rdev
            os.write(fd, b"flushed at exit")
        finally:
            os.close(fd)
        assert target.read_bytes() == b""
        assert capsys.readouterr().err == ""
