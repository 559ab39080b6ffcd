"""Closed-loop benchmark of the gradedrel package.

One client sends one request at a time and waits for its answer.  A request
is one input system (all its CLI reports) or, on falsify-catalog, one
`falsify` call.  Requests come in rounds: a round visits every stratum of
the workload once, in a seed-shuffled order.  A run does as many whole
rounds as fill `--seconds` of request time at nominal speed, so every run
weighs the strata alike and measures the same systems.  Reported times are
scaled to that nominal machine speed with a fixed probe loop timed between
commands, because the speed of a shared host drifts by up to a factor of
two.

    python3 perfbench/run.py --workload analyze-mid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

The last line of a single-workload run is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import corpus
from tracing import LAYERS, Tracer, outer_total, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
# input files of the request in flight, one pair per process
SYSTEM_FILE = WORK / f"system-{os.getpid()}.grs"
MAP_FILE = WORK / f"map-{os.getpid()}.sm"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("analyze-mid", "analyze-large", "hulls-frontier", "falsify-catalog")
ANALYZE_OPS = (
    "validate", "classify", "hulls-paper", "hulls-closure", "structure", "dynamics", "fixpoint",
)
HULL_OPS = ("hulls-paper", "hulls-closure")
SETUP_REPEATS = 9
# request seconds of one round at nominal speed, for the package as it is
# now; a run does ceil(seconds / this) rounds, so that every run of a
# workload puts the same systems through the program
ROUND_NOMINAL_S = {
    "analyze-mid": 6.4, "analyze-large": 7.0, "hulls-frontier": 10.5, "falsify-catalog": 1.0,
}
# a floor on the sample count, so that the tail percentile has samples above it
MIN_ROUNDS = 3
# a run stops after the round in which its unscaled request time passes
# OVERRUN times `seconds`, so a slow spell cannot push it past time limits
OVERRUN = 4

# falsify trials per call, chosen so each claim's call takes about the same
# time; hull-equivalence, whose trials vary most in cost, gets twice as long
# a call, so that its calls vary less
CLAIM_TRIALS = {
    "eq1-roundtrip": 120,
    "thm-homo-iff-nonexp": 800,
    "prop-r9-2-inframetric": 180,
    "prop-r10-metric": 200,
    "transitive-ultrametric": 50,
    "thm-ks-dichotomy": 190,
    "thm-regular-fp": 180,
    "thm-asymptotic-fp": 180,
    "finite-normal-structure-exists": 100,
    "hull-equivalence": 12,
    "radii-translation": 35,
}
FAMILY_CLAIMS = ("finite-normal-structure-exists", "hull-equivalence", "radii-translation")
FAIL_FLOOR = 1e-5

# the speed probe's table: 16k random keys and their index, about 1.5 MB
_probe_rng = random.Random(0)
PROBE_KEYS = [_probe_rng.getrandbits(40) for _ in range(1 << 14)]
PROBE_INDEX = {k: i for i, k in enumerate(PROBE_KEYS)}
PROBE_ITERS = 5000
# probe seconds at the nominal speed that reported times are scaled to
PROBE_NOMINAL_S = 0.0025
# a command's speed is the mean of the probes within this many seconds of
# it: two probes alone are too few, as the speed also swings within a second
PROBE_WINDOW_S = 2.0

# a four-point system and map every command accepts, used for warm-up
WARM_SYSTEM = corpus.system_text(
    0, 2, [[None, 2, 0, -1], [2, None, 0, -1], [0, 0, None, -1], [-1, -1, -1, None]]
)
WARM_MAP = corpus.map_text([1, 0, 2, 2])


def _argv(op: str, sys_path: str, map_path: str) -> list[str]:
    if op.startswith("hulls-"):
        return ["hulls", sys_path, "--mode", op[len("hulls-"):]]
    if op in ("dynamics", "fixpoint"):
        return [op, sys_path, map_path]
    return [op, sys_path]


@dataclass
class Sample:
    """One analyze or hulls input: the system, its map, and what the
    generator guarantees about them."""

    n: int
    constraint: str
    grades: list
    system: str
    selfmap: str
    grade_preserving: bool
    oracle: bool


@dataclass
class Request:
    ops: list  # (op name, argv)
    key: str
    sample: Sample | None = None
    claim: str | None = None
    seconds: float = 0.0
    op_seconds: dict = field(default_factory=dict)
    statuses: dict = field(default_factory=dict)
    reports: dict = field(default_factory=dict)
    failed: set = field(default_factory=set)
    wrong: list = field(default_factory=list)
    trials: tuple = (0, 0)  # falsify-catalog: (executed, non-vacuous)
    spans: dict = field(default_factory=dict)  # op -> (start, end) clock readings
    probes: list = field(default_factory=list)  # (clock reading, probe seconds)
    nominal: dict = field(default_factory=dict)  # op seconds at nominal speed

    @property
    def nominal_seconds(self) -> float:
        return sum(self.nominal.values())


def _strata(workload: str) -> list[tuple]:
    if workload == "analyze-mid":
        # unconstrained n = 12 is left out: about one such system in seven
        # reaches the closure cap, and cap hits belong to hulls-frontier
        return [
            (n, span, con)
            for n in range(8, 13)
            for span in range(3, 7)
            for con in corpus.CONSTRAINTS
            if n < 12 or con != "none"
        ]
    if workload == "analyze-large":
        # classify cost follows n and hardly the span, so spans are drawn
        return [(band, None, "transitive") for band in range(5) for _ in range(2)]
    if workload == "hulls-frontier":
        return [(n, span, "none") for n in range(13, 17) for span in range(3, 7)]
    return [(claim,) for claim in CLAIM_TRIALS]


def _make_request(
    workload: str, stratum: tuple, rng: random.Random, preserving: bool, base: random.Random
) -> Request:
    """One request: the system and its map, or the falsifier seed, drawn
    from `base`, and the point names from `rng`."""
    if workload == "falsify-catalog":
        claim = stratum[0]
        seed = base.randrange(1 << 30)
        argv = ["falsify", claim, "--trials", str(CLAIM_TRIALS[claim]), "--seed", str(seed)]
        return Request([("falsify", argv)], checks.input_key(*argv), claim=claim)
    size, span, constraint = stratum
    if workload == "analyze-large":
        n, span = 24 + 5 * size + base.randrange(5), base.randint(3, 6)
    else:
        n, preserving = size, preserving and workload == "analyze-mid"
    lo, hi, grades = corpus.make_grades(base, n, span, constraint)
    image = corpus.grade_preserving_map(base, grades) if preserving else corpus.any_map(base, n)
    grades, image = corpus.relabel(rng, grades, image)
    sample = Sample(
        n, constraint, grades, corpus.system_text(lo, hi, grades), corpus.map_text(image),
        preserving, workload == "analyze-mid" and n <= 10,
    )
    names = HULL_OPS if workload == "hulls-frontier" else ANALYZE_OPS
    sys_path, map_path = str(SYSTEM_FILE), str(MAP_FILE)
    ops = [(op, _argv(op, sys_path, map_path)) for op in names]
    key = checks.input_key(sample.system, sample.selfmap if workload != "hulls-frontier" else "")
    return Request(ops, key, sample=sample)


def _rounds(workload: str, seed: int):
    """Endless rounds of requests; each round covers every stratum once.

    A stratum's map is grade-preserving in every other round, so two
    consecutive rounds give each stratum one map of each kind.  A system and
    its map, or a falsifier seed, are fixed by the workload, round and
    stratum, and the seed renames the points and orders the round: fresh
    inputs per seed made the inputs, not the program, the largest part of
    the spread between seeds (the capped share on hulls-frontier, the
    largest family's memory on analyze-mid, the mix of sizes on
    analyze-large, the cost of hull-equivalence calls on falsify-catalog)."""
    strata = _strata(workload)
    r = 0
    while True:
        rng = random.Random(f"{workload}/{seed}/{r}")
        kinds = {i: (i + r) % 2 == 0 for i in range(len(strata))}
        order = list(range(len(strata)))
        rng.shuffle(order)
        yield [_make_request(workload, strata[i], rng, kinds[i], _base(workload, r, i)) for i in order]
        r += 1


def _base(workload: str, r: int, i: int) -> random.Random:
    return random.Random(f"{workload}/base/{r}/{i}")


def probe() -> float:
    """Seconds a fixed loop takes now: dict lookups scattered over the probe
    table, set inserts of fresh tuples and a sort, like the package's own
    mix.  The collector is paused, so the size of the package's heap cannot
    change the cost; a tight loop in cache tracked only half the drift."""
    keys, index, s, seen = PROBE_KEYS, PROBE_INDEX, 0, set()
    mask = len(keys) - 1
    gc.disable()
    try:
        t0 = time.perf_counter()
        for i in range(PROBE_ITERS):
            k = keys[(s * 31 + i) & mask]
            s = (s + index[k]) & 0xFFFF
            seen.add((k & 0xFFF, s & 7))
        sorted(seen)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _execute(cli, req: Request, probed: bool = False) -> None:
    """Timed region: the request's CLI calls, back to back.  With `probed`,
    a probe runs before the first call and after each one."""
    if req.sample is not None:
        SYSTEM_FILE.write_text(req.sample.system)
        MAP_FILE.write_text(req.sample.selfmap)
    clock = time.perf_counter
    if probed:
        req.probes.append((clock(), probe()))
    for op, argv in req.ops:
        t0 = clock()
        status, report = cli.run(["--json", *argv])
        t1 = clock()
        dt = t1 - t0
        if probed:
            req.spans[op] = (t0, t1)
            req.probes.append((clock(), probe()))
        req.seconds += dt
        req.op_seconds[op] = dt
        req.statuses[op] = status
        req.reports[op] = report


def _check(req: Request, recorded: dict, record: dict | None = None) -> None:
    """Untimed: mark each operation failed (error exit or wrong output) or
    fine, then drop the inputs and reports so the client holds no results."""
    done = {}
    for op, _ in req.ops:
        status, report = req.statuses[op], req.reports[op]
        if status == 2 or "error" in report:
            req.failed.add(op)
            # a capped enumeration is the program's honest refusal; any
            # other error on these inputs is a wrong answer
            if report.get("error", {}).get("kind") != "ResourceLimitError":
                req.wrong.append((op, f"exit {status}, {report.get('error')}"))
            continue
        done[op] = report
    digests = {op: checks.digest(rep) for op, rep in done.items()}
    if record is not None:
        record[req.key] = digests
    for op, d in digests.items():
        want = recorded.get(req.key, {}).get(op)
        if want is not None and want != d:
            req.wrong.append((op, f"report digest {d} differs from the recorded {want}"))
    if req.claim is not None:
        if "falsify" in done:
            req.wrong += checks.check_falsify(req.claim, done["falsify"])
            req.trials = _executed(done["falsify"])
    else:
        req.wrong += checks.check_analyze(req.sample, done)
    req.failed.update(op for op, _ in req.wrong)
    req.reports, req.sample = {}, None


def _executed(report: dict) -> tuple[int, int]:
    """Falsifier trials actually run, and the non-vacuous ones among them.

    A counterexample at trial i stops the search after i + 1 trials, so the
    requested count would overstate the work done."""
    inst = report.get("instance")
    executed = inst["trial_index"] + 1 if inst else report["trials"]
    return executed, executed - report["vacuous_trials"]


def warm_up(cli) -> None:
    """Every command once on a tiny fixed input, before anything is timed."""
    WORK.mkdir(exist_ok=True)
    SYSTEM_FILE.write_text(WARM_SYSTEM)
    MAP_FILE.write_text(WARM_MAP)
    for op in ANALYZE_OPS:
        status, _ = cli.run(["--json", *_argv(op, str(SYSTEM_FILE), str(MAP_FILE))])
        if status == 2:
            raise RuntimeError(f"warm-up command {op} failed")
    cli.run(["--json", "falsify", "eq1-roundtrip", "--trials", "1", "--seed", "0"])


def measure_setup(repeats: int = SETUP_REPEATS) -> list[float]:
    """Seconds for a fresh interpreter to import the package and finish the
    warm-up, scaled to the nominal speed by probes just before and after;
    interpreter start-up itself is not counted.  One unrecorded run first
    fills the bytecode cache."""
    snippet = (
        "import sys, time\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n"
        "import run\n"
        "p0 = run.probe()\n"
        "t0 = time.perf_counter()\n"
        "import gradedrel.cli\n"
        "run.warm_up(gradedrel.cli)\n"
        "t1 = time.perf_counter()\n"
        "print((t1 - t0) * run.PROBE_NOMINAL_S * 2 / (p0 + run.probe()))\n"
        "run.SYSTEM_FILE.unlink(); run.MAP_FILE.unlink()\n"
    )
    times = []
    for i in range(repeats + 1):
        out = subprocess.run(
            [sys.executable, "-c", snippet], capture_output=True, text=True, check=True, timeout=120
        )
        if i:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def _tail(values: list[float]) -> float:
    """Highest percentile with at least ten samples above it (the maximum
    when there are eleven samples or fewer)."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _scale_to_nominal(reqs: list[Request]) -> None:
    """Each command's seconds at nominal speed: its wall time times
    PROBE_NOMINAL_S over the mean probe within PROBE_WINDOW_S of it."""
    probes = sorted(p for r in reqs for p in r.probes)
    stamps = [t for t, _ in probes]
    for r in reqs:
        for op, (t0, t1) in r.spans.items():
            lo = bisect.bisect_left(stamps, t0 - PROBE_WINDOW_S)
            hi = bisect.bisect_right(stamps, t1 + PROBE_WINDOW_S)
            speed = statistics.fmean(d for _, d in probes[lo:hi])
            r.nominal[op] = (t1 - t0) * PROBE_NOMINAL_S / speed


def end_to_end(reqs: list[Request], setup: list[float]) -> dict:
    """The user-facing figures of an untraced run, times at the nominal
    machine speed; see README.md."""
    _scale_to_nominal(reqs)
    total = sum(r.nominal_seconds for r in reqs)
    attempted = sum(len(r.ops) for r in reqs)
    failed = sum(len(r.failed) for r in reqs)
    if reqs[0].claim is not None:
        systems = sum(r.trials[0] for r in reqs)
        useful = sum(r.trials[1] for r in reqs)
        fam = [r for r in reqs if r.claim in FAMILY_CLAIMS]
        families = sum(r.trials[0] for r in fam)
        family_time = sum(r.nominal_seconds for r in fam)
    else:
        # a capped enumeration is an answer here; fail_frac counts it
        systems = sum(1 for r in reqs if not r.wrong)
        useful = attempted - failed
        families = sum(1 for r in reqs for op in HULL_OPS if op in r.op_seconds and op not in r.failed)
        family_time = sum(r.nominal.get(op, 0.0) for r in reqs for op in HULL_OPS)
    per_request_ms = [r.nominal_seconds * 1000 for r in reqs]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "fail_frac": (max(failed / attempted, FAIL_FLOOR), "ratio"),
        "systems_per_s": (systems / total, "1/s"),
        "report_p50_ms": (statistics.median(per_request_ms), "ms"),
        "report_tail_ms": (_tail(per_request_ms), "ms"),
        "families_per_s": (_ratio(families, family_time), "1/s"),
        "useful_trials_per_s": (useful / total, "1/s"),
    }


COMMANDS = ("validate", "classify", "hulls", "structure", "dynamics", "fixpoint")
MODES = {"paper": "paper-cov", "closure": "arbitrary-center"}
SPAN_GROUPS = {
    "formats.parse_ms": {"formats.parse_system", "formats.parse_selfmap"},
    "semimetric.classify_ms": {"semimetric.classify"},
    "semimetric.inframetric_ms": {"semimetric.minimal_inframetric_constant"},
    "relations.check_axiom_ms": {"relations.check_axiom"},
    "hulls.compact_ms": {"hulls.check_compact_structure"},
    "hulls.normal_ms": {"hulls.check_normal_structure"},
    "hulls.spherical_ms": {"hulls.check_spherical_completeness"},
    "dynamics.map_check_ms": {"dynamics.is_homomorphism", "dynamics.is_nonexpansive"},
    "dynamics.fixpoint_ms": {
        "dynamics.ks_dichotomy", "dynamics.regular_fixed_point", "dynamics.minimal_invariant_balls",
    },
    "dynamics.min_invariant_admissible_ms": {"dynamics.minimal_invariant_admissible"},
    "harness.gen_ms": {"harness.gen_system", "harness.gen_self_map"},
    "harness.shrink_ms": {"harness.shrink"},
}
CALL_COUNTS = {
    "semimetric.delta_calls": "semimetric.delta",
    "relations.expand_level_calls": "relations.expand_level",
    "hulls.ball_calls": "hulls.ball",
    "hulls.hull_calls": "hulls.hull",
    "hulls.covering_level_calls": "hulls.covering_level",
}


def per_layer(reqs: list[Request], tracer, overhead: float) -> dict:
    """Per-layer figures from the traced rounds, per request unless named
    otherwise: times in ms, counts as calls."""
    spans, k = tracer.spans, len(reqs)
    out = {}
    own = self_times(spans)
    for layer in LAYERS:
        t = sum(o for s, o in zip(spans, own) if s[0].startswith(layer + "."))
        out[f"{layer}.self_ms"] = (t * 1000 / k, "ms")
    for cmd in COMMANDS:
        out[f"cli.{cmd}_ms"] = (outer_total(spans, {"cli.run"}, cmd) * 1000 / k, "ms")
    for name, group in SPAN_GROUPS.items():
        out[name] = (outer_total(spans, group) * 1000 / k, "ms")
    for mode, tag in MODES.items():
        out[f"hulls.enumerate_ms.{mode}"] = (
            outer_total(spans, {"hulls.enumerate_admissible"}, tag) * 1000 / k, "ms")
        sizes = [v for (_, m), v in tracer.family_sizes.items() if m == tag]
        out[f"hulls.family_size.{mode}"] = (_ratio(sum(sizes), len(sizes)), "count")
    pairs = [
        (v, tracer.family_sizes[(s, MODES["closure"])])
        for (s, m), v in tracer.family_sizes.items()
        if m == MODES["paper"] and (s, MODES["closure"]) in tracer.family_sizes
    ]
    out["hulls.paper_kept_ratio"] = (
        _ratio(sum(p for p, _ in pairs), sum(c for _, c in pairs)), "ratio")
    out["hulls.cap_hits"] = (tracer.cap_hits / k, "count")
    for name, fn in CALL_COUNTS.items():
        out[name] = (tracer.counts[fn] / k, "count")
    out["relations.check_axiom_calls"] = (
        sum(1 for s in spans if s[0] == "relations.check_axiom") / k, "count")
    for claim in CLAIM_TRIALS:
        mine = [r for r in reqs if r.claim == claim]
        executed = sum(r.trials[0] for r in mine)
        out[f"harness.trials_per_s.{claim}"] = (
            _ratio(executed, sum(r.seconds for r in mine)), "1/s")
        out[f"harness.vacuous_frac.{claim}"] = (
            _ratio(executed - sum(r.trials[1] for r in mine), executed), "ratio")
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out


def planned_rounds(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS, math.ceil(seconds / ROUND_NOMINAL_S[workload]))


def _run_rounds(cli, workload, seed, seconds, recorded, record=None, tracer=None, rounds=None):
    """`rounds` whole rounds, by default as many as `seconds` plans, or
    fewer if the unscaled request time passes OVERRUN times `seconds`.

    With a tracer, every request runs traced, and each round-0 request is
    first run once untraced on the same input; the pairs give the tracing
    overhead without minute-scale machine drift between them.  Returns the
    traced or plain requests and the untraced twins."""
    reqs: list[Request] = []
    rounds = rounds or planned_rounds(workload, seconds)
    twins = next(_rounds(workload, seed)) if tracer is not None else []
    spent = 0.0
    for r, batch in enumerate(_rounds(workload, seed)):
        for i, req in enumerate(batch):
            if tracer is None:
                _execute(cli, req, probed=True)
            else:
                if r == 0:
                    _execute(cli, twins[i])
                    _check(twins[i], recorded)
                tracer.op = len(reqs)
                tracer.install()
                try:
                    _execute(cli, req)
                finally:
                    tracer.uninstall()
            _check(req, recorded, record if r == 0 else None)
            spent += req.seconds
            reqs.append(req)
        if r + 1 >= rounds or spent >= OVERRUN * seconds:
            return reqs, twins


def run_workload(workload: str, seed: int, seconds: float, trace: bool, record: dict | None = None):
    """One run; returns (result object, wrong-output messages)."""
    if not (SRC / "gradedrel" / "__init__.py").is_file():
        raise SystemExit(f"package sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    import gradedrel.cli as cli

    warm_up(cli)
    recorded = json.loads(DIGESTS.read_text()).get(workload, {}) if DIGESTS.is_file() else {}
    if record is not None:
        reqs, twins = _run_rounds(cli, workload, seed, seconds, recorded, record, rounds=1)
        metrics = {}
    elif trace:
        tracer = Tracer()
        reqs, twins = _run_rounds(cli, workload, seed, seconds, recorded, tracer=tracer)
        first = reqs[: len(twins)]
        overhead = sum(r.seconds for r in first) / sum(r.seconds for r in twins) - 1
        metrics = per_layer(reqs, tracer, overhead)
        tracer.dump(WORK / f"spans-{workload}.jsonl")
    else:
        setup = measure_setup()
        reqs, twins = _run_rounds(cli, workload, seed, seconds, recorded)
        metrics = end_to_end(reqs, setup)
        probe_ms = statistics.median(d for r in reqs for _, d in r.probes) * 1000
        print(f"{workload}: {len(reqs)} requests, median probe {probe_ms:.3f} ms "
              f"(nominal {PROBE_NOMINAL_S * 1000:g} ms)", file=sys.stderr)
    wrong = [f"{r.key} {op}: {msg}" for r in twins + reqs for op, msg in r.wrong]
    result = {
        "correct": not wrong,
        "attempted": sum(len(r.ops) for r in reqs),
        "failed": sum(len(r.failed) for r in reqs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, wrong


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, untraced then traced; prints each
    metric by name with its unit, and fails on any wrong output."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload}: run failed with exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"{workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
            if trace:
                layers = {k: m["value"] for k, m in result["metrics"].items()
                          if k.endswith(".self_ms")}
                print(f"  largest self time: {max(layers, key=layers.get)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="run one round and store its report digests in digests.json")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    record = {} if args.record else None
    try:
        result, wrong = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), record)
    finally:
        SYSTEM_FILE.unlink(missing_ok=True)
        MAP_FILE.unlink(missing_ok=True)
    for msg in wrong[:20]:
        print(f"wrong output: {msg}", file=sys.stderr)
    if record is not None:
        stored = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        stored.setdefault(args.workload, {}).update(record)
        DIGESTS.write_text(json.dumps(stored, indent=0, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
