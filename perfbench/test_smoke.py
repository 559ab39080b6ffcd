"""Smoke test: the smallest request of every workload runs, checks clean,
and feeds both metric sets; names match BENCHMARK.json.

    python3 -m pytest -q perfbench
"""

import json
import random

import pytest

import run
from tracing import Tracer

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _smallest(workload):
    stratum = min(run._strata(workload), key=lambda s: (s[0] not in run.FAMILY_CLAIMS, s))
    return run._make_request(workload, stratum, random.Random(0), True, run._base(workload, 0, 0))


@pytest.fixture(scope="module")
def cli():
    import sys

    sys.path.insert(0, str(run.SRC))
    import gradedrel.cli

    run.warm_up(gradedrel.cli)
    yield gradedrel.cli
    run.SYSTEM_FILE.unlink(missing_ok=True)
    run.MAP_FILE.unlink(missing_ok=True)


def test_benchmark_file_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smallest_case(cli, workload):
    req = _smallest(workload)
    tracer = Tracer()
    tracer.install()
    try:
        run._execute(cli, req, probed=True)
    finally:
        tracer.uninstall()
    run._check(req, {}, None)
    assert req.wrong == []
    assert not req.failed
    e2e = run.end_to_end([req], [0.1])
    assert set(e2e) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(value > 0 for value, _ in e2e.values())
    layers = run.per_layer([req], tracer, 0.0)
    assert set(layers) == {m["name"] for m in BENCH["per_layer"]}
    assert {u for _, u in layers.values()} <= {m["unit"] for m in BENCH["per_layer"]}


def test_wrong_report_is_caught(cli):
    req = _smallest("analyze-mid")
    run._execute(cli, req)
    req.reports["structure"]["normal_structure"]["holds"] = True
    run._check(req, {}, None)
    assert req.failed == {"structure"}
