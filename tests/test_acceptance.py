"""Acceptance suite: nine numbered criteria, one verdict line each.

Each test is self-contained and runs at desk scale (systems of at most a
dozen points).  The conftest hook prints one PASS/FAIL line per criterion
in the terminal summary.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

from gradedrel import (
    DyadicValue,
    GenParams,
    TOP,
    centered_cover_level,
    check_compact_structure,
    check_normal_structure,
    classify,
    expand_level,
    falsify,
    floor_log2,
    gen_self_map,
    gen_system,
    is_homomorphism,
    is_nonexpansive,
    ks_dichotomy,
    min_distance_clique,
    minimal_inframetric_constant,
    orbit,
    parse_bundle,
    parse_system,
    radii,
    reconstruct_level,
    regular_fixed_point,
    regularity_report,
    serialize_bundle,
    serialize_selfmap,
    serialize_system,
)
from gradedrel.cli import run
from gradedrel.dynamics import OUTCOME_MINIMAL_BALL, SelfMap


def test_criterion_1_level_reconstruction_round_trip():
    """500 seeded systems: rebuilding any level from the grades matches the
    stored relation exactly, including one level beyond each window edge."""
    levels_checked = 0
    for seed in range(500):
        sys = gen_system(seed)
        for lev in range(sys.window.below, sys.window.above + 1):
            assert reconstruct_level(sys, lev) == expand_level(sys, lev)
            levels_checked += 1
    assert levels_checked >= 500 * 3


def test_criterion_2_homomorphism_equals_nonexpansive():
    """500 (system, map) pairs, half arbitrary and half grade-preserving:
    the relational and the metric reading agree, witnesses included."""
    failures = 0
    for i in range(500):
        seed = 9_000 + i
        sys = gen_system(seed)
        kind = "any" if i % 2 == 0 else "homomorphism"
        t = gen_self_map(seed ^ 0xA5A5, sys, kind)
        hom = is_homomorphism(sys, t)
        non = is_nonexpansive(sys, t)
        assert hom.holds == non.holds
        if kind == "homomorphism":
            assert hom.holds
        if not hom.holds:
            failures += 1
            x, y, g, g_img = hom.witness
            nx, ny, d, d_img = non.witness
            assert (x, y) == (nx, ny)
            assert d == DyadicValue.pow2(-g)
            assert d_img == DyadicValue.pow2(-g_img)
    assert failures > 0  # the arbitrary half must exercise the failing branch


def test_criterion_3_inframetric_constant_at_most_two(grid, triple):
    """300 systems under the squared-composition law stay 2-inframetric;
    the two bundled violation examples hit the constant 2 exactly."""
    two = DyadicValue.pow2(1)
    params = GenParams(constraint="r9")
    for seed in range(300):
        sys = gen_system(seed, params)
        assert minimal_inframetric_constant(sys) <= two
    assert minimal_inframetric_constant(grid) == two
    assert minimal_inframetric_constant(triple) == two


def test_criterion_4_triangle_inequality_falsified(tmp_path, triple):
    """The lopsided triple violates the triangle inequality (1 > 17/32)
    under classify in under a second, and the cataloged claim that the
    cubed-composition law forces a metric falsifies with a 3-point
    counterexample."""
    path = tmp_path / "triple.grs"
    path.write_text(serialize_system(triple), encoding="utf-8")
    t0 = time.monotonic()
    status, report = run(["classify", str(path)])
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    assert status == 1
    assert report["axioms"]["r10"]["holds"] is True
    tri = report["triangle"]
    assert tri["holds"] is False
    w = tri["witness"]
    assert Fraction(w["d_xy"]) == 1
    assert Fraction(w["d_xz"]) + Fraction(w["d_zy"]) == Fraction(17, 32)

    verdict = falsify("prop-r10-metric", 10_000, seed=0)
    assert verdict.outcome == "counterexample"
    assert verdict.instance.system.n == 3


def test_criterion_5_dichotomy_on_transitive_systems(chain, twins, successor, swap):
    """200 transitive systems with grade-preserving maps never produce a
    NEITHER outcome; the chain and twin fixtures reproduce both dichotomy
    branches end to end."""
    params = GenParams(constraint="transitive", map_kind="homomorphism")
    for i in range(200):
        seed = 77_000 + i
        sys = gen_system(seed, params)
        t = gen_self_map(seed ^ 0xA5A5, sys, "homomorphism")
        rep = ks_dichotomy(sys, t)
        assert rep.hypotheses_met
        assert not rep.has_neither

    # chain: every step ball reaches the terminal fixed point
    assert check_compact_structure(chain).holds
    normal = check_normal_structure(chain)
    assert not normal.holds
    adm, rad = normal.witness
    again = radii(chain, adm.points)
    assert again.cheb_radius == rad.cheb_radius == rad.diameter
    assert classify(chain).class_label == "ultrametric"
    for x in range(5):
        reg = regularity_report(chain, successor, x)
        assert reg.asymptotically_regular
        assert reg.asymptotic_offset == 0
        orb = orbit(chain, successor, x)
        assert orb.grade_trace == tuple(range(x, 5)) + (TOP,)
    rfp = regular_fixed_point(chain, successor, "asymptotic")
    assert rfp.verdict == "confirmed"
    assert all(5 in b.ball for b in rfp.balls)

    # twins: both step balls are minimal invariant balls at level 3
    dich = ks_dichotomy(twins, swap)
    assert dich.hypotheses_met
    assert [e.outcome for e in dich.entries] == [OUTCOME_MINIMAL_BALL] * 2
    for e in dich.entries:
        assert e.level == 3
        assert e.ball.members() == (0, 1)


def test_criterion_6_no_finite_normal_structure():
    """500 systems with at least two points: normal structure always fails,
    the min-distance clique certifies radius equal to diameter exactly, and
    a 10000-trial hunt finds no normally structured system."""
    for seed in range(500):
        sys = gen_system(seed)
        assert sys.n >= 2
        rep = check_normal_structure(sys)
        assert not rep.holds
        _, rad = rep.witness
        assert rad.cheb_radius == rad.diameter
        clique = min_distance_clique(sys)
        crad = radii(sys, clique)
        assert crad.cheb_radius == crad.diameter
    verdict = falsify("finite-normal-structure-exists", 10_000, seed=0)
    assert verdict.outcome == "no-counterexample"
    assert verdict.vacuous_trials == 0


def test_criterion_7_centered_dyadic_cover_level():
    """100 random dyadic intervals: the cover level m puts 2**-m inside
    [(b-a)/2, b-a), matching 1 + floor(log2(1/(b-a))) exactly."""
    rng = random.Random(2026)
    for _ in range(100):
        a = Fraction(rng.randint(-(2**10), 2**10), 2 ** rng.randint(0, 20))
        width = Fraction(rng.randint(1, 2**10), 2 ** rng.randint(0, 20))
        b = a + width
        assert a < b
        m = centered_cover_level(b - a)
        assert m == 1 + floor_log2(1 / (b - a))
        pw = Fraction(2) ** (-m)
        assert (b - a) / 2 <= pw
        assert pw < b - a


def test_criterion_8_metric_ball_translation():
    """200 systems per claim: the admissible family rebuilt from metric
    ball collapses matches the relational one, and the grade, distance,
    and level-set readings of radius-below-diameter agree on every set."""
    for claim_id in ("hull-equivalence", "radii-translation"):
        verdict = falsify(claim_id, 200, seed=0)
        assert verdict.outcome == "no-counterexample", claim_id
        assert verdict.vacuous_trials == 0


def test_criterion_9_cli_contract(tmp_path, grid, triple, chain, twins,
                                  reflection, successor, swap):
    """Canonical files round-trip byte for byte, and every command exits
    0 on success, 1 on a found violation, 2 on usage or parse errors."""
    files = {}
    for name, sys in (("grid", grid), ("triple", triple),
                      ("chain", chain), ("twins", twins)):
        text = serialize_system(sys)
        p = tmp_path / f"{name}.grs"
        p.write_text(text, encoding="utf-8")
        files[name] = str(p)
        assert serialize_system(parse_system(p.read_text(encoding="utf-8"))) == text
    for name, t in (("reflection", reflection), ("successor", successor),
                    ("swap", swap), ("collapse", SelfMap((0, 0, 0, 0, 4)))):
        p = tmp_path / f"{name}.map"
        p.write_text(serialize_selfmap(t), encoding="utf-8")
        files[name] = str(p)

    for name in ("grid", "triple", "chain", "twins"):
        assert run(["validate", files[name]])[0] == 0
        assert run(["hulls", files[name]])[0] == 0
        assert run(["hulls", files[name], "--mode", "closure"])[0] == 0
        assert run(["structure", files[name]])[0] == 1  # normal always fails

    assert run(["classify", files["grid"]])[0] == 1
    assert run(["classify", files["triple"]])[0] == 1
    assert run(["classify", files["chain"]])[0] == 0
    assert run(["classify", files["twins"]])[0] == 0

    assert run(["dynamics", files["grid"], files["reflection"]])[0] == 0
    assert run(["dynamics", files["grid"], files["collapse"]])[0] == 1
    assert run(["fixpoint", files["chain"], files["successor"]])[0] == 0
    assert run(["fixpoint", files["twins"], files["swap"]])[0] == 0

    assert run(["falsify", "eq1-roundtrip", "--trials", "25"])[0] == 0
    out = str(tmp_path / "ce.bundle")
    status, _ = run(["falsify", "prop-r10-metric", "--trials", "200", "-o", out])
    assert status == 1
    bundle_text = Path(out).read_text(encoding="utf-8")
    assert serialize_bundle(parse_bundle(bundle_text)) == bundle_text

    matrix = tmp_path / "dist.dm"
    matrix.write_text("distmatrix v1\npoints: 2\n0 1\n1 0\n", encoding="utf-8")
    assert run(["ingest", str(matrix), "--window", "0", "2"])[0] == 0

    assert run(["classify", str(tmp_path / "missing.grs")])[0] == 2
    bad = tmp_path / "bad.grs"
    bad.write_text("gradedsystem v1\npoints: x\n", encoding="utf-8")
    status, report = run(["validate", str(bad)])
    assert status == 2
    assert report["error"]["code"] == "bad-int"
    assert run(["dynamics", files["twins"], files["reflection"]])[0] == 2
