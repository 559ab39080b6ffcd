"""Paired benchmark runs of two source trees, summarised per metric.

Runs `perfbench/run.py` of a parent tree and of a change tree in
alternating pairs, one workload at a time.  Pair k (from 1) runs seed
first_seed + k - 1 in both trees; odd pairs run the change first, even
pairs the parent.  Every `__pycache__` under both trees is deleted before
each run, so every run compiles the package from source alike.  A run
that exits non-zero, prints no result, reports `correct` false or a
failed operation, or outlasts its time limit stops the tool with exit 1
and nothing written.  The limit is RUN_LIMIT_S seconds plus
RUN_LIMIT_FACTOR times `--seconds`: perfbench stops a run after 4 times
`--seconds` of request time, and its `--workload all` allows each
single-workload run 900 s.

The output file holds, per workload and metric, every pair's values, the
parent's median and quartiles, the change's median, how many pairs the
change won, and a verdict: "better" or "worse" when the medians differ
by more than the parent's interquartile spread and that side won at least
nine tenths of the pairs, ties counting for neither, else "unresolved".  The
direction of each metric is read from the change tree's BENCHMARK.json,
and so is each end-to-end metric's bound: its summary records the bound
and past_bound, whether the change's median is worse than the parent's
by more than the bound times the parent's median.  The bound does not
enter the verdict, which only says whether the two sides are told apart;
a "worse" verdict inside the bound is a real but bounded loss.
An existing output file keeps its other workloads, so runs of different
workloads, with different pair counts, collect in one file; traced runs
are filed under the workload's name with "+trace" appended.

    python tools/bench_pairs.py --parent ../parent --change . \\
        --workload hulls-frontier --first-seed 901 --pairs 10 \\
        --seconds 20 --trace 0 --out BENCH.json
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable

SIDES = ("parent", "change")
# share of the pairs one side must win, ties counting for neither, before a
# median move past the parent's quartile spread is a verdict: at five pairs
# a HEAD-against-HEAD run read "better" and "worse" on setup_s by the
# median rule alone
WIN_SHARE = 0.9
# seconds a perfbench run may take: RUN_LIMIT_S + RUN_LIMIT_FACTOR * --seconds
RUN_LIMIT_S = 900
RUN_LIMIT_FACTOR = 5


def order(pair: int) -> tuple[str, str]:
    """The trees in the order pair number `pair` (from 1) runs them."""
    return ("change", "parent") if pair % 2 else ("parent", "change")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile, by the inclusive method;
    a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(
    parent: list[float], change: list[float], better: str, bound: float | None = None
) -> dict:
    """Pair values of one metric (the same pair at each index) with the
    parent's quartiles, the change's median, the pairs the change won, the
    verdict, and the metric's bound, if it has one, with whether the
    change's median is past it (else both None)."""
    q1, med, q3 = quartiles(parent)
    change_med = statistics.median(change)
    sign = 1 if better == "higher" else -1
    move = sign * (change_med - med)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    if move > q3 - q1 and wins >= WIN_SHARE * len(parent):
        verdict = "better"
    elif -move > q3 - q1 and losses >= WIN_SHARE * len(parent):
        verdict = "worse"
    else:
        verdict = "unresolved"
    past_bound = None if bound is None else -move > bound * abs(med)
    return {
        "parent": parent,
        "change": change,
        "parent_median": med,
        "parent_q1": q1,
        "parent_q3": q3,
        "change_median": change_med,
        "wins": wins,
        "pairs": len(parent),
        "verdict": verdict,
        "bound": bound,
        "past_bound": past_bound,
    }


def checked(result: dict, label: str) -> dict:
    """A run's result object, or SystemExit when it is not usable."""
    if not result.get("correct") or result.get("failed", 1) > 0:
        raise SystemExit(
            f"{label}: refused, correct={result.get('correct')} failed={result.get('failed')}"
        )
    return result


def directions(bench: dict) -> dict[str, tuple[str, str]]:
    """Each declared metric's (unit, better) from a BENCHMARK.json object."""
    return {
        m["name"]: (m["unit"], m["better"])
        for group in ("end_to_end", "per_layer")
        for m in bench.get(group, ())
    }


def bounds(bench: dict) -> dict[str, float]:
    """Each end-to-end metric's bound from a BENCHMARK.json object: the
    share of the parent's median by which the change may be worse."""
    return {m["name"]: m["bound"] for m in bench.get("end_to_end", ()) if "bound" in m}


def clear_caches(tree: Path) -> None:
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


def run_tree(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One `perfbench/run.py` run in a tree, with no bytecode cache in it;
    its last stdout line parsed."""
    clear_caches(tree)
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    limit = RUN_LIMIT_S + RUN_LIMIT_FACTOR * seconds
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{tree} {workload} seed {seed}: refused, no result after {limit:g} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree} {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def run_pairs(
    trees: dict[str, Path],
    workload: str,
    seeds: list[int],
    seconds: float,
    trace: int,
    known: dict[str, tuple[str, str]],
    runner: Callable[[Path, str, int, float, int], dict] | None = None,
    limits: dict[str, float] | None = None,
) -> dict:
    """The pairs of one workload, and each metric's summary; runner, by
    default run_tree, makes one run, and limits holds the metrics' bounds."""
    runner = runner or run_tree
    values: dict[str, dict[str, list[float]]] = {}
    for pair, seed in enumerate(seeds, 1):
        for side in order(pair):
            label = f"{workload} pair {pair} seed {seed} {side}"
            result = checked(runner(trees[side], workload, seed, seconds, trace), label)
            print(label, json.dumps({k: m["value"] for k, m in result["metrics"].items()}),
                  file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, {s: [] for s in SIDES})[side].append(m["value"])
    metrics = {}
    for name, by_side in values.items():
        if len(by_side["parent"]) != len(seeds) or len(by_side["change"]) != len(seeds):
            continue  # a metric missing from some run pairs with nothing
        unit, better = known.get(name, ("", "lower"))
        bound = (limits or {}).get(name)
        metrics[name] = {"unit": unit, "better": better,
                         **summarize(by_side["parent"], by_side["change"], better, bound)}
    return {
        "seeds": seeds,
        "first": [order(pair)[0] for pair in range(1, len(seeds) + 1)],
        "seconds": seconds,
        "trace": trace,
        "metrics": metrics,
    }


def bound_note(m: dict) -> str:
    """The printed line's note on a metric's bound, empty when it has none."""
    if m["bound"] is None:
        return ""
    return f", {'past' if m['past_bound'] else 'within'} the {m['bound']:.0%} bound"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent source tree")
    ap.add_argument("--change", type=Path, required=True, help="change source tree")
    ap.add_argument("--workload", action="append", required=True,
                    help="a perfbench workload; repeat for more")
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    known, limits = directions(bench), bounds(bench)
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    # traced runs give per-layer figures and are kept apart from untraced ones
    runs = {
        w + ("+trace" if args.trace else ""):
            run_pairs(trees, w, seeds, args.seconds, args.trace, known, limits=limits)
        for w in args.workload
    }
    out = json.loads(args.out.read_text()) if args.out.is_file() else {}
    out.setdefault("workloads", {}).update(runs)
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    for w, r in runs.items():
        for name, m in r["metrics"].items():
            print(f"{w} {name}: {m['parent_median']:.6g} -> {m['change_median']:.6g}"
                  f" ({m['wins']} of {m['pairs']} better, {m['verdict']}{bound_note(m)})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
