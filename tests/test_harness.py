"""Seeded generation, the claim catalog, falsification, and shrinking."""

import random
import re
import types
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from gradedrel import dynamics, harness, hulls
from gradedrel import (
    ARBITRARY_CENTER,
    CLAIMS,
    PAPER_COV,
    TOP,
    DyadicValue,
    GenParams,
    SelfMap,
    UsageError,
    admissible_family_bits,
    check_axiom,
    falsify,
    gen_self_map,
    gen_system,
    identity_map,
    is_homomorphism,
    make_system,
    parse_selfmap,
    parse_system,
    check_normal_structure,
    ks_dichotomy,
    regular_fixed_point,
    serialize_selfmap,
    serialize_system,
    TripleWitness,
)
from gradedrel.harness import (
    CONSTRAINTS,
    MAP_KINDS,
    VACUOUS,
    _below,
    _repair,
    _repair_transitive,
    _trial_seed,
    shrink,
)
from gradedrel.relations import Window

from oracles import randint_draws, randrange_map_draws, sweep_repair, warshall_repair
from strategies import examples

CLAIM_IDS = (
    "eq1-roundtrip",
    "finite-normal-structure-exists",
    "hull-equivalence",
    "prop-r10-metric",
    "prop-r9-2-inframetric",
    "radii-translation",
    "thm-asymptotic-fp",
    "thm-homo-iff-nonexp",
    "thm-ks-dichotomy",
    "thm-regular-fp",
    "transitive-ultrametric",
)

# 15 points, 11 levels, no constraint: at seed 170 the grade-preserving
# map search dead-ends in all 64 of its orders
DEAD_ENDS = GenParams(point_count=(15, 15), window_span=(10, 10))


class TestGenParams:
    def test_defaults_valid(self):
        GenParams()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"constraint": "r11"},
            {"map_kind": "isometry"},
            {"point_count": (3, 2)},
            {"point_count": (0, 4)},
            {"window_span": (0, 2)},
            {"window_lo": (2, -2)},
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(UsageError):
            GenParams(**kwargs)


@pytest.fixture
def shuffles(monkeypatch):
    """One item per shuffle that harness's random.Random makes, with the
    shuffled list's length."""
    seen = []

    class Counting(random.Random):
        def shuffle(self, x):
            seen.append(len(x))
            super().shuffle(x)

    monkeypatch.setattr(harness, "random", types.SimpleNamespace(Random=Counting))
    return seen


class TestGeneration:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_system_is_deterministic(self, seed):
        a = gen_system(seed)
        b = gen_system(seed)
        assert serialize_system(a) == serialize_system(b)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_constraints_hold_after_repair(self, seed):
        for constraint, axiom in (
            ("r9", "r9"),
            ("r10", "r10"),
            ("transitive", "transitive"),
        ):
            sys = gen_system(seed, GenParams(constraint=constraint))
            assert check_axiom(sys, axiom).holds

    @given(st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_bounds_respected(self, seed):
        params = GenParams(point_count=(2, 4), window_span=(1, 2), window_lo=(0, 1))
        sys = gen_system(seed, params)
        assert 2 <= sys.n <= 4
        assert 0 <= sys.window.lo <= 1
        assert 1 <= sys.window.hi - sys.window.lo <= 2

    @given(st.integers(0, 10_000), st.sampled_from(CONSTRAINTS))
    @settings(max_examples=200)
    def test_map_generation(self, seed, constraint):
        # the greedy search alone makes the map grade-preserving: nothing
        # after it checks the map, so every constraint is checked here
        sys = gen_system(seed, GenParams(constraint=constraint))
        t_any = gen_self_map(seed, sys, "any")
        assert t_any.n == sys.n
        assert gen_self_map(seed, sys, "any").image == t_any.image
        t_hom = gen_self_map(seed, sys, "homomorphism")
        assert t_hom.n == sys.n
        assert gen_self_map(seed, sys, "homomorphism").image == t_hom.image
        assert is_homomorphism(sys, t_hom).holds

    def test_identity_after_64_dead_ends(self, shuffles):
        # an unconstrained 15-point system where each of the 64 random
        # orders reaches a point that no image can take
        sys = gen_system(170, DEAD_ENDS)
        assert (sys.n, sys.window.lo, sys.window.hi) == (15, 2, 12)
        shuffles.clear()
        assert gen_self_map(170, sys, "homomorphism") == identity_map(15)
        assert shuffles == [15] * 64

    @pytest.mark.parametrize(
        "claim_id", ["thm-ks-dichotomy", "thm-regular-fp", "thm-asymptotic-fp"]
    )
    def test_map_claims_never_restart(self, claim_id, shuffles, monkeypatch):
        # on a transitive system the greedy search meets no dead end (the
        # gen_self_map docstring), so every map the claim draws takes one
        # shuffle, and the catalog's maps do not depend on the restart policy
        assert CLAIMS[claim_id].params == GenParams(
            point_count=(2, 6),
            window_span=(1, 5),
            constraint="transitive",
            map_kind="homomorphism",
        )
        per_call = []
        real = harness.gen_self_map

        def counted(*args):
            before = len(shuffles)
            t = real(*args)
            per_call.append(len(shuffles) - before)
            return t

        monkeypatch.setattr(harness, "gen_self_map", counted)
        assert falsify(claim_id, 1000, 0).outcome == "no-counterexample"
        assert per_call == [1] * 1000

    def test_unknown_map_kind(self, grid):
        with pytest.raises(UsageError):
            gen_self_map(0, grid, "isometry")

    @pytest.mark.parametrize("seed", [0, 1, 170, 2**63 - 1])
    def test_below_takes_the_bits_randbelow_takes(self, seed):
        # every draw of the generators goes through _below, so a CPython
        # whose _randbelow spends other bits shows here by name
        for n in range(1, 71):
            rng, ref = random.Random(seed), random.Random(seed)
            assert _below(rng.getrandbits, n) == ref._randbelow(n), n
            assert rng.getrandbits(64) == ref.getrandbits(64), n
        # range(1) still spends a bit: one k = 1 draw, retried while it is 1
        rng = random.Random(seed)
        _below(rng.getrandbits, 1)
        assert rng.getstate() != random.Random(seed).getstate()

    def test_trial_seeds_spread(self):
        seeds = {_trial_seed(7, i) for i in range(1000)}
        assert len(seeds) == 1000


REPAIRED = ("r9", "r10", "transitive")


@st.composite
def drawn_grades(draw):
    """A grade matrix as gen_system draws it, over a wider scope than any
    claim's: n 1-12, window bottom -2..2, span 1-8."""
    n = draw(st.integers(1, 12))
    lo = draw(st.integers(-2, 2))
    window = Window(lo, lo + draw(st.integers(1, 8)))
    entries = [[TOP] * n for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            entries[x][y] = entries[y][x] = draw(st.integers(window.below, window.hi))
    return entries, window


@pytest.mark.deep
class TestRepair:
    @pytest.mark.parametrize("constraint", REPAIRED)
    @pytest.mark.parametrize("claim_id", CLAIM_IDS)
    def test_matches_sweep_on_claim_params(self, claim_id, constraint, monkeypatch):
        # through gen_system itself, so the draws are the generator's own
        outcomes = []

        def checked(entries, window, kind):
            want = [row[:] for row in entries]
            sweep_repair(want, kind)
            _repair(entries, window, kind)
            outcomes.append(entries == want)

        monkeypatch.setattr(harness, "_repair", checked)
        params = replace(CLAIMS[claim_id].params, constraint=constraint)
        for seed in range(20):
            gen_system(seed, params)
        assert outcomes == [True] * 20

    @given(drawn_grades(), st.sampled_from(REPAIRED))
    @settings(deadline=None)
    def test_matches_sweep(self, drawn, constraint):
        entries, window = drawn
        want = [row[:] for row in entries]
        sweep_repair(want, constraint)
        _repair(entries, window, constraint)
        assert entries == want

    @given(drawn_grades(), st.sampled_from(REPAIRED))
    @settings(deadline=None)
    def test_least_repair(self, drawn, constraint):
        # no grade drops, and lowering any raised pair by one, alone,
        # breaks the constraint again
        entries, window = drawn
        got = [row[:] for row in entries]
        _repair(got, window, constraint)
        labels = [str(i) for i in range(len(got))]
        span = (window.lo, window.hi)
        assert check_axiom(make_system(labels, span, got), constraint).holds
        for x, (row, drawn_row) in enumerate(zip(got, entries)):
            for y in range(x + 1, len(row)):
                assert row[y] >= drawn_row[y]
                if row[y] > drawn_row[y]:
                    lowered = [r[:] for r in got]
                    lowered[x][y] = lowered[y][x] = row[y] - 1
                    system = make_system(labels, span, lowered)
                    assert not check_axiom(system, constraint).holds


@st.composite
def many_point_grades(draw):
    """A grade matrix as gen_system draws it, n 1-40 over spans 1-8, from a
    drawn seed: narrow spans give many ties, wide ones long chains."""
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    n = draw(st.integers(1, 40))
    lo = draw(st.integers(-2, 2))
    window = Window(lo, lo + draw(st.integers(1, 8)))
    entries = [[TOP] * n for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            entries[x][y] = entries[y][x] = rng.randint(window.below, window.hi)
    return entries, window


# n 1-40, span 1-40, window bottom -50..50: wider than any claim's scope
WIDE_DRAWS = GenParams(point_count=(1, 40), window_span=(1, 40), window_lo=(-50, 50))
# the draws come before the repair, so one constraint covers the wide scope
DRAW_SCOPES = [pytest.param(CLAIMS[c].params, id=c) for c in CLAIM_IDS] + [
    pytest.param(WIDE_DRAWS, id="wide")
]


def _drawn(params, seeds):
    """The grade matrices gen_system draws at each seed, with their
    windows, as _repair receives them."""
    seen = []
    real = harness._repair

    def recorded(entries, window, constraint):
        seen.append(([row[:] for row in entries], window))
        real(entries, window, constraint)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_repair", recorded)
        for seed in seeds:
            gen_system(seed, params)
    return seen


SEEDS = st.lists(st.integers(0, 1 << 63), min_size=1, max_size=5)


@pytest.mark.deep
class TestPairDraws:
    @pytest.mark.parametrize("params", DRAW_SCOPES)
    @given(SEEDS)
    @settings(deadline=None)
    def test_same_draws_as_randint(self, params, seeds):
        assert _drawn(params, seeds) == [randint_draws(seed, params) for seed in seeds]

    @pytest.mark.parametrize("kind", MAP_KINDS)
    @pytest.mark.parametrize("params", DRAW_SCOPES)
    @given(SEEDS)
    @settings(deadline=None)
    def test_same_maps_as_randrange(self, params, kind, seeds):
        for seed in seeds:
            sys = gen_system(seed, params)
            assert gen_self_map(seed, sys, kind) == randrange_map_draws(seed, sys, kind)

    @pytest.mark.parametrize("kind", MAP_KINDS)
    @given(SEEDS)
    @settings(deadline=None)
    def test_same_maps_as_randrange_through_restarts(self, kind, seeds):
        # map seed 170 takes all 64 restarts on this system
        sys = gen_system(170, DEAD_ENDS)
        for seed in (170, *seeds):
            assert gen_self_map(seed, sys, kind) == randrange_map_draws(seed, sys, kind)


@pytest.mark.deep
class TestTransitiveRepair:
    @given(many_point_grades())
    @settings(deadline=None)
    def test_matches_warshall(self, drawn):
        entries, window = drawn
        want = [row[:] for row in entries]
        warshall_repair(want, window)
        _repair(entries, window, "transitive")
        assert entries == want

    @pytest.mark.parametrize("params", DRAW_SCOPES)
    @given(SEEDS)
    @settings(examples(25), deadline=None)
    def test_matches_warshall_on_generated_draws(self, params, seeds):
        for entries, window in _drawn(params, seeds):
            want = [row[:] for row in entries]
            warshall_repair(want, window)
            _repair_transitive(entries, window.lo)
            assert entries == want


class TestCatalog:
    def test_claim_ids_frozen(self):
        assert tuple(sorted(CLAIMS)) == CLAIM_IDS

    def test_descriptions_and_params(self):
        for claim in CLAIMS.values():
            assert claim.description
            assert isinstance(claim.params, GenParams)
            if claim.needs_map:
                assert claim.params.map_kind in ("any", "homomorphism")

    @given(st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_radii_translation_reads_every_admissible_set(self, seed):
        # once each, from the closure alone: the claim builds no family record
        claim = CLAIMS["radii-translation"]
        sys = gen_system(seed, claim.params)
        seen = []
        real = harness.normality_criteria
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                harness, "normality_criteria", lambda s, p: seen.append(p.bits) or real(s, p)
            )
            assert claim.check(sys, None) is None
        memo = sys.__dict__.get("_memo", {})
        assert not [value for value in memo.values() if isinstance(value, hulls._Family)]
        assert sorted(seen) == sorted(admissible_family_bits(sys, ARBITRARY_CENTER))

    def test_unknown_claim(self):
        with pytest.raises(UsageError) as exc:
            falsify("thm-unknown", 1, 0)
        assert "eq1-roundtrip" in str(exc.value)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one(self, trials):
        # no verdict counts trials that never ran
        with pytest.raises(UsageError, match=f"trials must be at least 1, got {trials}"):
            falsify("eq1-roundtrip", trials, 0)


class TestFalsify:
    def test_r10_counterexample_found_and_shrunk(self):
        verdict = falsify("prop-r10-metric", 200, seed=0)
        assert verdict.outcome == "counterexample"
        ce = verdict.instance
        assert ce.system.n == 3
        assert "triangle fails" in ce.locus
        # the shrunk instance still violates the claim
        claim = CLAIMS["prop-r10-metric"]
        assert claim.check(ce.system, ce.selfmap) not in (None, VACUOUS)

    def test_counterexample_survives_serialization(self):
        verdict = falsify("prop-r10-metric", 200, seed=0)
        ce = verdict.instance
        sys = parse_system(serialize_system(ce.system))
        t = parse_selfmap(serialize_selfmap(ce.selfmap)) if ce.selfmap else None
        claim = CLAIMS["prop-r10-metric"]
        assert claim.check(sys, t) not in (None, VACUOUS)

    def test_deterministic_verdicts(self):
        a = falsify("prop-r10-metric", 100, seed=42)
        b = falsify("prop-r10-metric", 100, seed=42)
        assert a == b

    def test_sound_claims_hold(self):
        for claim_id in (
            "eq1-roundtrip",
            "thm-homo-iff-nonexp",
            "transitive-ultrametric",
            "thm-ks-dichotomy",
        ):
            verdict = falsify(claim_id, 150, seed=1)
            assert verdict.outcome == "no-counterexample", claim_id
            assert verdict.instance is None
            assert verdict.trials == 150

    def test_vacuous_trials_counted(self):
        verdict = falsify("thm-regular-fp", 150, seed=3)
        assert verdict.outcome == "no-counterexample"
        assert 0 < verdict.vacuous_trials < 150

    def test_custom_params_override(self):
        params = GenParams(point_count=(1, 1))
        verdict = falsify("prop-r10-metric", 50, seed=0, params=params)
        # one-point systems never violate the triangle inequality
        assert verdict.outcome == "no-counterexample"


# the falsify-catalog benchmark's trials per call, for the claims whose
# VACUOUS returns lie outside their own generation scope
SCOPED_TRIALS = {
    "prop-r9-2-inframetric": 180,
    "prop-r10-metric": 200,
    "transitive-ultrametric": 50,
    "thm-ks-dichotomy": 190,
    "finite-normal-structure-exists": 100,
}

# systems of 1-4 points, one-point ones among them, windows up to three
# levels, no constraint and any map: every hypothesis above can fail here
TINY_SCOPE = GenParams(point_count=(1, 4), window_span=(1, 3))


class TestVacuousReturns:
    """These claims' scopes generate only instances that meet their
    hypotheses, so their VACUOUS returns fire only in a wider scope."""

    @pytest.mark.parametrize("claim_id", sorted(SCOPED_TRIALS))
    def test_never_vacuous_in_their_own_scope(self, claim_id):
        for seed in range(10):
            verdict = falsify(claim_id, SCOPED_TRIALS[claim_id], seed)
            assert verdict.vacuous_trials == 0, (claim_id, seed)

    @pytest.mark.parametrize("claim_id", sorted(SCOPED_TRIALS))
    def test_vacuous_in_a_wider_scope(self, claim_id):
        verdict = falsify(claim_id, SCOPED_TRIALS[claim_id], 0, params=TINY_SCOPE)
        assert verdict.vacuous_trials > 0

    def test_one_point_systems_have_no_normal_structure_question(self):
        # the only VACUOUS return of the claim is the one for n < 2
        trials = SCOPED_TRIALS["finite-normal-structure-exists"]
        verdict = falsify("finite-normal-structure-exists", trials, 0, params=TINY_SCOPE)
        assert verdict.outcome == "no-counterexample"
        points = [gen_system(_trial_seed(0, i), TINY_SCOPE).n for i in range(trials)]
        assert verdict.vacuous_trials == points.count(1) > 0


REGULAR_CLAIMS = {"thm-regular-fp": "regular", "thm-asymptotic-fp": "asymptotic"}


def _spy_field(monkeypatch, name):
    """Log every analysis that builds the named _MapAnalysis field."""
    built = []
    real = vars(dynamics._MapAnalysis)[name]
    spy = dynamics._field(lambda a: built.append(a) or real.build(a))
    spy.__set_name__(dynamics._MapAnalysis, name)
    monkeypatch.setattr(dynamics._MapAnalysis, name, spy)
    return built


class TestRegularVacuity:
    """The two regular fixed-point claims settle vacuity before any ball is
    built, so a vacuous trial builds no invariant ball mask, and read the
    invariant balls as masks, so no trial builds their reports."""

    @pytest.mark.parametrize("claim_id", sorted(REGULAR_CLAIMS))
    def test_only_non_vacuous_trials_scan_balls(self, claim_id, monkeypatch):
        built, trials = _spy_field(monkeypatch, "invariant_ball_bits"), []
        reports = _spy_field(monkeypatch, "invariant_balls")
        claim = CLAIMS[claim_id]

        def logged(sys, t):
            before = len(built)
            result = claim.check(sys, t)
            trials.append((result, len(built) - before))
            return result

        monkeypatch.setitem(CLAIMS, claim_id, replace(claim, check=logged))
        verdict = falsify(claim_id, 300, 0)
        assert verdict.outcome == "no-counterexample"
        assert len(trials) == 300
        assert [scans for _, scans in trials] == [int(r != VACUOUS) for r, _ in trials]
        vacuous = sum(r == VACUOUS for r, _ in trials)
        assert 0 < vacuous == verdict.vacuous_trials < 300
        assert reports == []

    @pytest.mark.parametrize("claim_id", sorted(REGULAR_CLAIMS))
    def test_vacuous_exactly_when_the_report_is(self, claim_id):
        claim, variant = CLAIMS[claim_id], REGULAR_CLAIMS[claim_id]
        results = []
        for seed in range(300):
            sys = gen_system(seed, claim.params)
            t = gen_self_map(seed ^ 0xA5A5, sys, claim.params.map_kind)
            result = claim.check(sys, t)
            # the report on a fresh copy of the system, with no analysis kept
            rep = regular_fixed_point(gen_system(seed, claim.params), t, variant)
            if not rep.hypotheses_met:
                want = VACUOUS
            elif rep.verdict == "falsified":
                bad = next(b for b in rep.balls if not b.contains_fixed)
                want = f"invariant ball {bad.ball.members()} holds no fixed point"
            else:
                want = None
            assert result == want, seed
            results.append(result)
        assert 0 < results.count(VACUOUS) < 300


def _ks_by_report(sys, t):
    """The KS claim's result read from the ks_dichotomy report."""
    rep = ks_dichotomy(sys, t)
    if not rep.hypotheses_met:
        return VACUOUS
    if rep.has_neither:
        bad = next(e for e in rep.entries if e.outcome == "NEITHER")
        return f"ball at ({bad.point}, level {bad.level}) has neither branch"
    return None


def _normal_by_report(sys, _t):
    """The normal-structure claim's result read from the
    check_normal_structure reports."""
    if sys.n < 2:
        return VACUOUS
    for mode in (PAPER_COV, ARBITRARY_CENTER):
        if check_normal_structure(sys, mode).holds:
            return f"normal structure reported to hold in {mode} mode"
    return None


# each claim's check as it read the public reports; for the regular claims,
# whose results TestRegularVacuity compares, just the report they read
BY_REPORT = {
    "thm-ks-dichotomy": _ks_by_report,
    "finite-normal-structure-exists": _normal_by_report,
    "thm-regular-fp": lambda sys, t: regular_fixed_point(sys, t, "regular"),
    "thm-asymptotic-fp": lambda sys, t: regular_fixed_point(sys, t, "asymptotic"),
}

REPORT_CLASSES = (
    dynamics.InvariantBallReport,
    dynamics.DichotomyEntry,
    hulls.RadiiReport,
    hulls.AdmissibleSet,
)


class TestMaskDecisions:
    """The KS, regular and normal-structure claims decide on the masks the
    library computes and build no public report on a passing trial."""

    @pytest.mark.parametrize("claim_id", ["finite-normal-structure-exists", "thm-ks-dichotomy"])
    def test_results_equal_the_report_bodies(self, claim_id):
        claim, results = CLAIMS[claim_id], []
        # the claim's own scope, and one where every hypothesis can fail
        for params in (claim.params, TINY_SCOPE):
            for seed in range(300):
                sys = gen_system(seed, params)
                t = gen_self_map(seed ^ 0xA5A5, sys, params.map_kind) if claim.needs_map else None
                result = claim.check(sys, t)
                # the reports on a fresh copy of the system, with nothing kept
                assert result == BY_REPORT[claim_id](gen_system(seed, params), t), seed
                results.append(result)
        assert results.count(None) > 300 and results.count(VACUOUS) > 0

    def test_flat_witness_is_the_report_witness(self):
        own, fixed_pairs = CLAIMS["finite-normal-structure-exists"].params, 0
        for params in (own, TINY_SCOPE):
            for seed in range(300):
                sys = gen_system(seed, params)
                for mode in (PAPER_COV, ARBITRARY_CENTER):
                    bits = hulls._flat_witness(sys, mode)
                    rep = check_normal_structure(gen_system(seed, params), mode)
                    assert rep.holds == (bits == 0) == (sys.n < 2), (seed, mode)
                    if bits:
                        witness, radii = rep.witness
                        assert witness.points.bits == radii.points.bits == bits
                        fixed_pairs += bits.bit_count() == 2
        assert 0 < fixed_pairs < 2 * 2 * 300

    @pytest.mark.parametrize("claim_id", sorted(BY_REPORT))
    def test_passing_calls_build_no_report(self, claim_id, monkeypatch):
        built = []
        for cls in REPORT_CLASSES:
            real = cls.__init__
            monkeypatch.setattr(
                cls,
                "__init__",
                lambda self, *args, _real=real, **kw: built.append(type(self)) or _real(self, *args, **kw),
            )
        verdict = falsify(claim_id, 200, 0)
        assert verdict.outcome == "no-counterexample"
        assert verdict.vacuous_trials < 200
        assert built == []
        # the spies do see the reports those trials would build
        claim = CLAIMS[claim_id]
        for i in range(200):
            ts = _trial_seed(0, i)
            sys = gen_system(ts, claim.params)
            t = gen_self_map(ts ^ 0xA5A5, sys, claim.params.map_kind) if claim.needs_map else None
            BY_REPORT[claim_id](sys, t)
        assert built


def _flip_nonexpansive(real):
    def broken(sys, t):
        rep = real(sys, t)
        return replace(rep, holds=not rep.holds, witness=None)

    return broken


def _swap_nonexpansive_witness(real):
    def broken(sys, t):
        rep = real(sys, t)
        if rep.holds:
            return rep
        x, y, *rest = rep.witness
        return replace(rep, witness=(y, x, *rest))

    return broken


def _no_strong_triangle(real):
    zero = DyadicValue.zero()
    return lambda sys: replace(
        real(sys),
        strong_triangle_holds=False,
        strong_triangle_witness=TripleWitness(0, 0, 0, zero, zero, zero),
    )


def _every_ball_neither(real):
    # the analysis as the KS check reads it: its hypotheses and its
    # dichotomy entries, every outcome turned to NEITHER
    def broken(sys, t):
        a = real(sys, t)
        entries = tuple((x, lev, bits, "NEITHER", None) for x, lev, bits, _, _ in a.dichotomy)
        return types.SimpleNamespace(unmet=a.unmet, dichotomy=entries)

    return broken


def _no_fixed_point_inside(real):
    # the analysis as the regular checks read it, with no fixed point
    def broken(sys, t):
        a = real(sys, t)
        return types.SimpleNamespace(fixed=0, invariant_ball_bits=a.invariant_ball_bits)

    return broken


def _normal_in(mode):
    def breaker(real):
        return lambda sys, m: 0 if m == mode else real(sys, m)

    return breaker


def _empty_family_in(mode):
    def breaker(real):
        return lambda sys, m: frozenset() if m == mode else real(sys, m)

    return breaker


class TestFailureMessages:
    """Each catalog check, broken through one name it calls, reports a
    counterexample whose locus is that check's message."""

    @pytest.mark.parametrize(
        "claim_id, name, breaker, locus",
        [
            pytest.param(
                "eq1-roundtrip",
                "_reconstruct_levels",
                lambda real: lambda sys, levels: [None for _ in levels],
                r"level -?\d+ disagrees between distance and grade routes",
                id="eq1-roundtrip",
            ),
            pytest.param(
                "thm-homo-iff-nonexp",
                "is_nonexpansive",
                _flip_nonexpansive,
                r"predicates disagree: homomorphism=(True nonexpansive=False"
                r"|False nonexpansive=True)",
                id="thm-homo-iff-nonexp-predicates",
            ),
            pytest.param(
                "thm-homo-iff-nonexp",
                "is_nonexpansive",
                _swap_nonexpansive_witness,
                r"witness pairs disagree: \((\d+), (\d+)\) vs \(\2, \1\)",
                id="thm-homo-iff-nonexp-witnesses",
            ),
            pytest.param(
                "prop-r9-2-inframetric",
                "minimal_inframetric_constant",
                lambda real: lambda sys: DyadicValue.pow2(2),
                r"inframetric constant 4 exceeds 2",
                id="prop-r9-2-inframetric",
            ),
            pytest.param(
                "transitive-ultrametric",
                "classify",
                _no_strong_triangle,
                r"strong triangle fails at \(0, 0, 0\)",
                id="transitive-ultrametric",
            ),
            pytest.param(
                "thm-ks-dichotomy",
                "_analysis",
                _every_ball_neither,
                r"ball at \(\d+, level -?\d+\) has neither branch",
                id="thm-ks-dichotomy",
            ),
            pytest.param(
                "thm-regular-fp",
                "_analysis",
                _no_fixed_point_inside,
                r"invariant ball \((\d+, )*\d+,?\) holds no fixed point",
                id="thm-regular-fp",
            ),
            pytest.param(
                "thm-asymptotic-fp",
                "_analysis",
                _no_fixed_point_inside,
                r"invariant ball \((\d+, )*\d+,?\) holds no fixed point",
                id="thm-asymptotic-fp",
            ),
            pytest.param(
                "finite-normal-structure-exists",
                "_flat_witness",
                _normal_in(PAPER_COV),
                r"normal structure reported to hold in paper-cov mode",
                id="finite-normal-structure-exists-paper",
            ),
            pytest.param(
                "finite-normal-structure-exists",
                "_flat_witness",
                _normal_in(ARBITRARY_CENTER),
                r"normal structure reported to hold in arbitrary-center mode",
                id="finite-normal-structure-exists-closure",
            ),
            pytest.param(
                "hull-equivalence",
                "admissible_family_bits",
                _empty_family_in(ARBITRARY_CENTER),
                r"admissible families disagree in arbitrary-center mode",
                id="hull-equivalence-closure",
            ),
            pytest.param(
                "hull-equivalence",
                "admissible_family_bits",
                _empty_family_in(PAPER_COV),
                r"admissible families disagree in paper-cov mode",
                id="hull-equivalence-paper",
            ),
        ],
    )
    def test_broken_check_reports_its_message(self, claim_id, name, breaker, locus, monkeypatch):
        monkeypatch.setattr(harness, name, breaker(getattr(harness, name)))
        verdict = falsify(claim_id, 50, seed=0)
        assert verdict.outcome == "counterexample"
        assert re.fullmatch(locus, verdict.instance.locus), verdict.instance.locus


def _pinned(sys, t):
    """A shrunk system and map as plain values."""
    return sys.labels, sys.window, sys.grades.entries, t


class TestShrinkBranches:
    """shrink with synthetic predicates, one rarely reached branch each."""

    def test_the_last_point_stays(self):
        # every step fails, so points go down to one and the window to one
        # level, where neither can shrink further
        sys = make_system(["a", "b"], (0, 1), [[TOP, 1], [1, TOP]])
        assert _pinned(*shrink(sys, None, lambda s, m: True)) == (
            ("b",), Window(1, 1), ((TOP,),), None
        )

    def test_a_point_that_is_an_image_stays(self):
        # after "a" goes, "b" is the image of "c" and only "c" may leave
        sys = make_system(
            ["a", "b", "c"], (0, 2), [[TOP, 2, 1], [2, TOP, 0], [1, 0, TOP]]
        )
        same_window = lambda s, m: s.window == sys.window
        assert _pinned(*shrink(sys, SelfMap((1, 1, 1)), same_window)) == (
            ("b",), Window(0, 2), ((TOP,),), SelfMap((0,))
        )

    def test_the_window_narrows_to_one_level(self):
        sys = make_system(["a", "b"], (0, 2), [[TOP, 2], [2, TOP]])
        pair_at_2 = lambda s, m: s.n == 2 and s.grade(0, 1) == 2
        assert _pinned(*shrink(sys, SelfMap((1, 0)), pair_at_2)) == (
            ("a", "b"), Window(2, 2), ((TOP, 2), (2, TOP)), SelfMap((1, 0))
        )

    def test_a_lowered_grade_is_kept_and_reopens_point_removal(self):
        # points may leave only once no grade is above 0, which the grade
        # steps of the first round reach; the second round removes them
        sys = make_system(
            ["a", "b", "c"], (0, 2), [[TOP, 2, 1], [2, TOP, 2], [1, 2, TOP]]
        )

        def still_fails(s, m):
            grades = [g for row in s.grades.entries for g in row if g is not TOP]
            return s.window == sys.window and (s.n == 3 or max(grades, default=0) <= 0)

        assert _pinned(*shrink(sys, None, still_fails)) == (
            ("c",), Window(0, 2), ((TOP,),), None
        )


class TestShrink:
    def test_idempotent_on_minimal_instance(self):
        verdict = falsify("prop-r10-metric", 200, seed=0)
        ce = verdict.instance
        claim = CLAIMS["prop-r10-metric"]
        pred = lambda s, m: claim.check(s, m) not in (None, VACUOUS)
        again_sys, again_map = shrink(ce.system, ce.selfmap, pred)
        assert serialize_system(again_sys) == serialize_system(ce.system)

    def test_shrink_reaches_small_witness(self):
        # starting from a deliberately padded failing system, shrinking
        # keeps the failure while removing every point it can
        claim = CLAIMS["prop-r10-metric"]
        pred = lambda s, m: claim.check(s, m) not in (None, VACUOUS)
        params = GenParams(point_count=(6, 6), constraint="r10")
        big = next(
            sys
            for seed in range(200)
            for sys in [gen_system(seed, params)]
            if pred(sys, None)
        )
        small, _ = shrink(big, None, pred)
        assert small.n == 3
        assert pred(small, None)
