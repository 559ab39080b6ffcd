"""The paired-run tool's statistics, pairing and refusals, on fixed inputs
with a stand-in runner: no benchmark process is started."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def result(correct=True, failed=0, **metrics):
    return {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()},
    }


class TestStatistics:
    def test_quartiles(self):
        assert bench_pairs.quartiles([5, 1, 4, 2, 3]) == (2, 3, 4)
        assert bench_pairs.quartiles([1, 2]) == (1.25, 1.5, 1.75)
        assert bench_pairs.quartiles([7.5]) == (7.5, 7.5, 7.5)

    def test_better_when_higher_is_better(self):
        parent = [10, 11, 12, 13, 14, 10, 11, 12, 13, 14]
        s = bench_pairs.summarize(parent, [15, 16, 11, 17, 18, 15, 16, 17, 18, 19], "higher")
        assert (s["parent_q1"], s["parent_median"], s["parent_q3"]) == (11, 12, 13)
        assert s["change_median"] == 16.5
        assert (s["wins"], s["pairs"], s["verdict"]) == (9, 10, "better")

    def test_better_when_lower_is_better(self):
        s = bench_pairs.summarize([10, 11, 12, 13, 14], [8, 9, 7, 6, 13], "lower")
        assert (s["change_median"], s["wins"], s["verdict"]) == (8, 5, "better")

    def test_worse(self):
        s = bench_pairs.summarize([10, 11, 12, 13, 14], [8, 9, 7, 6, 12], "higher")
        assert (s["wins"], s["verdict"]) == (0, "worse")

    def test_a_median_move_needs_nine_tenths_of_the_pairs(self):
        # the median moves past the quartile spread either way, but each
        # side wins only 4 of 5 pairs: not told apart
        s = bench_pairs.summarize([10, 11, 12, 13, 14], [15, 16, 11, 17, 18], "higher")
        assert (s["change_median"], s["wins"], s["verdict"]) == (16, 4, "unresolved")
        s = bench_pairs.summarize([10, 11, 12, 13, 14], [8, 9, 7, 6, 15], "higher")
        assert (s["change_median"], s["wins"], s["verdict"]) == (8, 1, "unresolved")

    def test_unresolved_inside_the_parent_spread(self):
        # a move of 2 against quartiles 11 and 13: not told apart
        s = bench_pairs.summarize([10, 11, 12, 13, 14], [14, 15, 13, 12, 16], "higher")
        assert (s["change_median"], s["wins"], s["verdict"]) == (14, 4, "unresolved")
        # equal runs move nothing, whatever the spread
        s = bench_pairs.summarize([0.0], [0.0], "lower")
        assert (s["wins"], s["verdict"]) == (0, "unresolved")

    def test_one_pair_has_no_spread(self):
        s = bench_pairs.summarize([10.0], [10.5], "higher")
        assert (s["parent_q1"], s["parent_q3"], s["wins"], s["verdict"]) == (10, 10, 1, "better")

    def test_past_bound_is_a_loss_of_more_than_the_bound(self):
        parent = [100, 101, 102, 103, 104]
        # higher is better: a median of 80 is 21.6 % below 102, past a 20 % bound
        s = bench_pairs.summarize(parent, [80, 81, 79, 78, 82], "higher", 0.2)
        assert (s["verdict"], s["bound"], s["past_bound"]) == ("worse", 0.2, True)
        # the same loss inside a 25 % bound: told apart, but within the bound
        s = bench_pairs.summarize(parent, [80, 81, 79, 78, 82], "higher", 0.25)
        assert (s["verdict"], s["past_bound"]) == ("worse", False)
        # lower is better: 130 is past 102 * 1.25, and 120 is not
        assert bench_pairs.summarize(parent, [130] * 5, "lower", 0.25)["past_bound"] is True
        assert bench_pairs.summarize(parent, [120] * 5, "lower", 0.25)["past_bound"] is False
        # a gain is never past the bound, and the bound leaves the verdict alone
        s = bench_pairs.summarize(parent, [130] * 5, "higher", 0.25)
        assert (s["verdict"], s["past_bound"]) == ("better", False)
        assert s["verdict"] == bench_pairs.summarize(parent, [130] * 5, "higher")["verdict"]

    def test_no_bound_records_none(self):
        s = bench_pairs.summarize([1.0], [2.0], "lower")
        assert (s["bound"], s["past_bound"]) == (None, None)
        assert bench_pairs.bound_note(s) == ""

    def test_bounds_from_the_benchmark(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        limits = bench_pairs.bounds(bench)
        assert limits["systems_per_s"] == 0.25 and limits["fail_frac"] == 0.25
        # the per-layer figures declare no bound
        assert set(limits) == {m["name"] for m in bench["end_to_end"]}

    def test_directions_from_the_benchmark(self):
        known = bench_pairs.directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
        assert known["systems_per_s"] == ("1/s", "higher")
        assert known["peak_rss_mb"] == ("MB", "lower")
        assert known["cli.hulls_ms"] == ("ms", "lower")


class TestPairs:
    def test_odd_pairs_run_the_change_first(self):
        assert [bench_pairs.order(k) for k in (1, 2, 3)] == [
            ("change", "parent"),
            ("parent", "change"),
            ("change", "parent"),
        ]

    def test_runs_alternate_and_pair_by_seed(self):
        calls = []
        trees = {"parent": Path("p"), "change": Path("c")}

        def runner(tree, workload, seed, seconds, trace):
            calls.append((str(tree), workload, seed, seconds, trace))
            side = 1.0 if str(tree) == "c" else 0.0
            return result(speed=seed + side, only_parent=1.0) if side == 0 else result(speed=seed + side)

        known = {"speed": ("1/s", "higher")}
        out = bench_pairs.run_pairs(trees, "w", [5, 6, 7], 1.0, 0, known, runner)
        assert calls == [
            ("c", "w", 5, 1.0, 0), ("p", "w", 5, 1.0, 0),
            ("p", "w", 6, 1.0, 0), ("c", "w", 6, 1.0, 0),
            ("c", "w", 7, 1.0, 0), ("p", "w", 7, 1.0, 0),
        ]
        assert out["first"] == ["change", "parent", "change"]
        assert out["seeds"] == [5, 6, 7]
        # a metric only one side reports is not summarised
        assert set(out["metrics"]) == {"speed"}
        speed = out["metrics"]["speed"]
        assert (speed["parent"], speed["change"]) == ([5, 6, 7], [6, 7, 8])
        assert (speed["unit"], speed["better"], speed["wins"]) == ("1/s", "higher", 3)

    @pytest.mark.parametrize("bad", [result(correct=False), result(failed=2), {"metrics": {}}])
    def test_refuses_a_bad_run(self, bad):
        runs = iter([result(speed=1.0), bad])
        with pytest.raises(SystemExit, match="refused"):
            bench_pairs.run_pairs(
                {"parent": Path("p"), "change": Path("c")}, "w", [1], 1.0, 0, {},
                lambda *a: next(runs),
            )

    def test_caches_cleared_and_sources_kept(self, tmp_path):
        for d in ("src/pkg/__pycache__", "tests/__pycache__", "__pycache__"):
            (tmp_path / d).mkdir(parents=True)
            (tmp_path / d / "m.cpython-311.pyc").write_bytes(b"x")
        (tmp_path / "src/pkg/m.py").write_text("")
        bench_pairs.clear_caches(tmp_path)
        assert not list(tmp_path.rglob("__pycache__"))
        assert (tmp_path / "src/pkg/m.py").is_file()

    def test_main_records_and_prints_each_bound(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "BENCHMARK.json").write_text(json.dumps({
            "end_to_end": [{"name": "speed", "unit": "1/s", "better": "higher", "bound": 0.25}],
            "per_layer": [{"name": "layer_ms", "unit": "ms", "better": "lower"}],
        }))
        out = tmp_path / "BENCH.json"

        def runner(tree, workload, seed, seconds, trace):
            # the change runs at seven tenths of the parent's speed
            return result(speed=10.0 if tree == tmp_path / "p" else 7.0, layer_ms=1.0)

        for side in ("p", "c"):
            (tmp_path / side).mkdir()
        (tmp_path / "c" / "BENCHMARK.json").write_text((tmp_path / "BENCHMARK.json").read_text())
        monkeypatch.setattr(bench_pairs, "run_tree", runner)
        argv = ["--parent", str(tmp_path / "p"), "--change", str(tmp_path / "c"), "--workload",
                "w", "--first-seed", "1", "--pairs", "1", "--seconds", "1", "--out", str(out)]
        assert bench_pairs.main(argv) == 0
        metrics = json.loads(out.read_text())["workloads"]["w"]["metrics"]
        assert (metrics["speed"]["bound"], metrics["speed"]["past_bound"]) == (0.25, True)
        assert (metrics["layer_ms"]["bound"], metrics["layer_ms"]["past_bound"]) == (None, None)
        printed = capsys.readouterr().out.splitlines()
        assert "w speed: 10 -> 7 (0 of 1 better, worse, past the 25% bound)" in printed
        assert "w layer_ms: 1 -> 1 (0 of 1 better, unresolved)" in printed

    def test_main_merges_workloads_into_one_file(self, tmp_path, monkeypatch):
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": "speed", "unit": "1/s", "better": "higher"}]}
        ))
        out = tmp_path / "BENCH.json"
        out.write_text(json.dumps({"workloads": {"kept": {"seeds": [0]}}}))
        monkeypatch.setattr(
            bench_pairs, "run_tree",
            lambda tree, workload, seed, seconds, trace: result(speed=float(seed)),
        )

        def argv(pairs):
            return ["--parent", str(tmp_path), "--change", str(tmp_path), "--workload", "w",
                    "--first-seed", "3", "--pairs", pairs, "--seconds", "1", "--out", str(out)]

        assert bench_pairs.main(argv("2")) == 0
        written = json.loads(out.read_text())["workloads"]
        assert set(written) == {"kept", "w"}
        speed = written["w"]["metrics"]["speed"]
        assert (speed["parent"], speed["change"], speed["verdict"]) == ([3, 4], [3, 4], "unresolved")
        assert bench_pairs.main([*argv("1"), "--trace", "1"]) == 0
        written = json.loads(out.read_text())["workloads"]
        assert set(written) == {"kept", "w", "w+trace"}
        assert written["w+trace"]["trace"] == 1 and written["w"]["seeds"] == [3, 4]
        with pytest.raises(SystemExit):
            bench_pairs.main(argv("0"))


class TestRunLimit:
    def test_a_run_is_bounded_by_its_seconds(self, tmp_path, monkeypatch):
        calls = []

        def finished(cmd, **kwargs):
            calls.append(kwargs["timeout"])
            return subprocess.CompletedProcess(cmd, 0, "noise\n" + json.dumps(result(speed=1.0)), "")

        monkeypatch.setattr(bench_pairs.subprocess, "run", finished)
        assert bench_pairs.run_tree(tmp_path, "w", 1, 20, 0)["metrics"]["speed"]["value"] == 1.0
        assert bench_pairs.run_tree(tmp_path, "w", 1, 1.5, 0)["correct"]
        assert calls == [900 + 5 * 20, 900 + 5 * 1.5]

    def test_a_run_past_its_limit_is_refused_and_nothing_written(self, tmp_path, monkeypatch):
        (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
        out = tmp_path / "BENCH.json"

        def stuck(cmd, **kwargs):
            raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

        monkeypatch.setattr(bench_pairs.subprocess, "run", stuck)
        argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--workload", "w",
                "--first-seed", "1", "--pairs", "1", "--seconds", "2", "--out", str(out)]
        with pytest.raises(SystemExit, match="refused, no result after 910 s") as exc:
            bench_pairs.main(argv)
        # a message as the exit code: the interpreter prints it and exits 1
        assert isinstance(exc.value.code, str) and not out.exists()
