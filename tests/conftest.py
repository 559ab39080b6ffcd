import pytest
from hypothesis import settings

from gradedrel import cli
from gradedrel.fixtures import (
    chain_successor,
    dyadic_grid,
    grid_reflection,
    lopsided_triple,
    pair_swap,
    twin_pair,
    ultrametric_chain,
)

from strategies import DEEP_EXAMPLES, PROFILE

# a longer search for CI runs of the differential tests
# (HYPOTHESIS_PROFILE=deep); tier-1 keeps hypothesis's default profile
settings.register_profile("deep", max_examples=DEEP_EXAMPLES, deadline=None)
if PROFILE:
    settings.load_profile(PROFILE)


@pytest.fixture(autouse=True)
def cold_parse_memo():
    """Every test starts with no system left parsed by an earlier test, so
    work-counting tests see the whole parse whatever the test order."""
    cli._parsed.cache_clear()


@pytest.fixture
def grid():
    return dyadic_grid()


@pytest.fixture
def triple():
    return lopsided_triple()


@pytest.fixture
def chain():
    return ultrametric_chain()


@pytest.fixture
def twins():
    return twin_pair()


@pytest.fixture
def reflection():
    return grid_reflection()


@pytest.fixture
def successor():
    return chain_successor()


@pytest.fixture
def swap():
    return pair_swap()


# ---------------------------------------------------------------------------
# acceptance reporting: one verdict line per criterion in the terminal summary

ACCEPTANCE_LABELS = {
    1: "level reconstruction round trip",
    2: "homomorphism equals nonexpansive",
    3: "composition bound gives constant at most 2",
    4: "squared composition does not give the triangle inequality",
    5: "dichotomy on transitive systems",
    6: "no finite normal structure",
    7: "centered dyadic cover level",
    8: "metric ball translation layer",
    9: "CLI contract",
}

ACCEPTANCE_NOTES = {
    6: (
        "normal-structure fixed-point routes hold vacuously on finite ground "
        "sets: no admissible set with two or more points keeps its radius "
        "below its diameter"
    ),
}

_acceptance_results: dict[int, bool] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py::test_criterion_" not in report.nodeid:
        return
    tail = report.nodeid.split("test_criterion_", 1)[1]
    num = int(tail.split("_", 1)[0])
    if report.when == "call":
        _acceptance_results[num] = report.passed
    elif report.failed:  # setup or teardown error
        _acceptance_results[num] = False


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_acceptance_results):
        verdict = "PASS" if _acceptance_results[num] else "FAIL"
        label = ACCEPTANCE_LABELS.get(num, "")
        terminalreporter.write_line(f"criterion {num} ({label}): {verdict}")
        if verdict == "PASS" and num in ACCEPTANCE_NOTES:
            terminalreporter.write_line(f"  note: {ACCEPTANCE_NOTES[num]}")
