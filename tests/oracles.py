"""Reference implementations that the tests play the fast routes against.

Each oracle computes what a fast route of the package computes, by a
plainer route: an exhaustive scan, a brute force over every subset, or
the body the fast route replaced.  Test modules import them from here;
the oracles are the names in __all__, and a test that reaches one of
them, directly or through the helpers of its own module, carries the
`deep` mark, which tests/test_layout.py checks.
"""

import random
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import and_
from typing import Optional

from gradedrel import (
    ARBITRARY_CENTER,
    AxiomReport,
    DyadicValue,
    GradeMatrix,
    PAPER_COV,
    PointSet,
    RelationalSystem,
    ResourceLimitError,
    SelfMap,
    StructuralInputError,
    StructureReport,
    TOP,
    UsageError,
    ball,
    check_axiom,
    compose,
    default_labels,
    delta,
    expand_level,
    floor_log2,
    hull,
    hulls,
    identity_map,
    metric_ball_collapse,
)
from gradedrel.harness import MAP_KINDS
from gradedrel.hulls import _family
from gradedrel.pointset import iter_bits
from gradedrel.relations import Relation, Window
from gradedrel.semimetric import ClassificationReport, _as_exact_rational, _triple

__all__ = [
    "reference_witness",
    "scan_witness",
    "bounded_by_pair_loop",
    "walk_grade_matrix",
    "walk_window",
    "validate_level_list_oracle",
    "compact_to_grades_oracle",
    "_scan_row",
    "_scan_cover",
    "_scan_grade",
    "_minimal_inframetric_constant_dyadic",
    "_classify_dyadic",
    "reconstruct_level_oracle",
    "metric_ball_collapse_oracle",
    "ingest_distance_matrix_oracle",
    "closure_oracle",
    "closure_full_pass",
    "family_from_metric_balls_oracle",
    "radii_oracle",
    "normality_criteria_oracle",
    "min_distance_clique_oracle",
    "check_normal_structure_oracle",
    "flat_paper_members_oracle",
    "hull_oracle",
    "row_masks",
    "text_column_pass",
    "_brute_force_family",
    "_brute_minimal_balls",
    "_brute_invariant_balls",
    "_brute_offsets",
    "_family_walk",
    "sweep_repair",
    "warshall_repair",
    "randint_draws",
    "randrange_map_draws",
]


# ---------------------------------------------------------------------------
# the axiom checks' witnesses, rebuilt from compose and expand_level or
# by plain pair scans


def lowest(mask):
    return (mask & -mask).bit_length() - 1


def reference_witness(sys, axiom):
    """The witness check_axiom must report, rebuilt from compose and expand_level.

    r9/r10: first level n in [lo, hi + 1], then first x, then the lowest y
    the power reaches outside level n - 1, then the first chain x .. y in
    lexicographic order.  transitive: first level in the window, then first
    x, then the first z related to x, then the lowest y related to z but
    not to x.
    """
    if axiom == "transitive":
        for n in sys.window.levels():
            rel = expand_level(sys, n)
            square = compose(rel, rel)
            for x in range(sys.n):
                if not square.rows[x] & ~rel.rows[x]:
                    continue
                for z in range(sys.n):
                    extra = rel.rows[z] & ~rel.rows[x]
                    if rel.contains(x, z) and extra:
                        return (n, x, z, lowest(extra))
        return None
    steps = 2 if axiom == "r9" else 3
    for n in range(sys.window.lo, sys.window.hi + 2):
        rel = expand_level(sys, n)
        power = rel
        for _ in range(steps - 1):
            power = compose(power, rel)
        prev = expand_level(sys, n - 1)
        for x in range(sys.n):
            extra = power.rows[x] & ~prev.rows[x]
            if not extra:
                continue
            y = lowest(extra)
            for middle in product(range(sys.n), repeat=steps - 1):
                chain = (x, *middle, y)
                if all(rel.contains(a, b) for a, b in zip(chain, chain[1:])):
                    return (n, *chain)
    return None


def scan_witness(sys, axiom):
    """check_axiom's witness rebuilt from grades by plain pair scans, with no
    row masks or composition: the first level, then x, then the lowest y,
    then the lexicographically first chain (transitive: the first z, then y)."""
    g = sys.grades.entries
    pts = range(sys.n)
    if axiom == "transitive":
        for n in sys.window.levels():
            for x in pts:
                for z in pts:
                    for y in pts:
                        if g[x][z] >= n and g[z][y] >= n and not g[x][y] >= n:
                            return (n, x, z, y)
        return None
    steps = 2 if axiom == "r9" else 3
    for n in range(sys.window.lo, sys.window.hi + 2):
        for x in pts:
            for y in pts:
                if g[x][y] >= n - 1:
                    continue
                for middle in product(pts, repeat=steps - 1):
                    chain = (x, *middle, y)
                    if all(g[a][b] >= n for a, b in zip(chain, chain[1:])):
                        return (n, *chain)
    return None


def bounded_by_pair_loop(sys):
    """r5's holds, witness and bound by a walk over the upper triangle: the
    first least pair in row-major order."""
    bound, worst = TOP, None
    for x in range(sys.n):
        for y in range(x + 1, sys.n):
            g = sys.grades.entries[x][y]
            if g < bound:
                bound, worst = g, (x, y)
    holds = bound >= sys.window.lo
    return holds, None if holds else worst, bound


# ---------------------------------------------------------------------------
# grade matrices and level rows: the cell-by-cell walks and grade scans


def walk_grade_matrix(n, entries):
    """The first failure of a cell-by-cell walk in row order, as GradeMatrix
    words it, or None."""
    for x in range(n):
        if entries[x][x] is not TOP:
            return f"diagonal entry ({x}, {x}) must be TOP"
        for y in range(n):
            if x == y:
                continue
            g = entries[x][y]
            if not isinstance(g, int):
                return f"off-diagonal entry ({x}, {y}) must be an integer, got {g!r}"
            if entries[y][x] != g:
                return f"grade matrix asymmetric at ({x}, {y}) vs ({y}, {x})"
    return None


def walk_window(lo, hi, entries):
    n = len(entries)
    for x in range(n):
        for y in range(x + 1, n):
            g = entries[x][y]
            if not lo - 1 <= g <= hi:
                return f"grade {g} at ({x}, {y}) outside [{lo - 1}, {hi}]"
    return None


def _scan_row(sys, x, k):
    """Direct grade-row scan: points whose grade against x is at least k."""
    return sum(1 << y for y in range(sys.n) if sys.grades.entries[x][y] >= k)


def _scan_cover(sys, x, bits):
    """Direct grade-row scan: the smallest grade from x into the set."""
    grades = [sys.grades.entries[x][a] for a in range(sys.n) if bits >> a & 1]
    return min(grades, default=TOP)


def _scan_grade(d, lo, hi):
    """The largest level in [lo - 1, hi] with d <= 2**-level, found by
    trying every level from the top down; the oracle for the ingest grade."""
    for cand in range(hi, lo - 2, -1):
        if d <= Fraction(2) ** -cand:
            return cand
    return lo - 1


# ---------------------------------------------------------------------------
# the level-list bridge: the pair scans validate_level_list and
# compact_to_grades made before they read row masks


def validate_level_list_oracle(levels):
    """validate_level_list's body before it read row masks: symmetry per
    level by Relation.pairs and contains, nesting, and within-window
    separation.

    Separation ("r4-window") asks that the intersection of all stored levels
    be exactly the diagonal: every level contains each (x, x), and no
    distinct pair survives every level.
    """
    reports = []

    witness = None
    for idx, rel in enumerate(levels.per_level):
        lvl = levels.window.lo + idx
        for x, y in rel.pairs():
            if not rel.contains(y, x):
                witness = (lvl, x, y)
                break
        if witness:
            break
    reports.append(AxiomReport("r1", witness is None, witness))

    witness = None
    for idx in range(1, len(levels.per_level)):
        cur, prev = levels.per_level[idx], levels.per_level[idx - 1]
        lvl = levels.window.lo + idx
        for x in range(cur.n):
            extra = cur.rows[x] & ~prev.rows[x]
            if extra:
                y = next(iter_bits(extra))
                witness = (lvl, x, y)
                break
        if witness:
            break
    reports.append(AxiomReport("r2", witness is None, witness))

    witness = None
    for idx, rel in enumerate(levels.per_level):
        lvl = levels.window.lo + idx
        for x in range(rel.n):
            if not rel.contains(x, x):
                witness = (lvl, x, x)
                break
        if witness:
            break
    if witness is None:
        inter = levels.per_level[0]
        for rel in levels.per_level[1:]:
            inter = inter.intersection(rel)
        for x in range(inter.n):
            off = inter.rows[x] & ~(1 << x)
            if off:
                witness = (x, next(iter_bits(off)))
                break
    reports.append(AxiomReport("r4-window", witness is None, witness))

    return tuple(reports)


def compact_to_grades_oracle(levels, labels=None):
    """compact_to_grades' body before it wrote row masks: the grade of a
    pair is the largest stored level containing it, found by scanning the
    levels downward with contains, lo - 1 if none does, and TOP on the
    diagonal.
    """
    for report in validate_level_list_oracle(levels):
        if not report.holds:
            raise StructuralInputError(
                f"level list fails {report.axiom_id} (witness {report.witness})"
            )
    n = levels.n
    lo = levels.window.lo
    entries = []
    for x in range(n):
        row = []
        for y in range(n):
            if x == y:
                row.append(TOP)
                continue
            g = lo - 1
            for idx in range(len(levels.per_level) - 1, -1, -1):
                if levels.per_level[idx].contains(x, y):
                    g = lo + idx
                    break
            row.append(g)
        entries.append(tuple(row))
    lbls = tuple(labels) if labels is not None else default_labels(n)
    return RelationalSystem(lbls, levels.window, GradeMatrix(n, tuple(entries)))


# ---------------------------------------------------------------------------
# classify and minimal_inframetric_constant: the dyadic triple scans


def _minimal_inframetric_constant_dyadic(sys: RelationalSystem) -> DyadicValue:
    """Oracle for minimal_inframetric_constant: every ordered triple, grades only."""
    if sys.n < 2:
        raise StructuralInputError(
            "inframetric constant undefined on fewer than 2 points"
        )
    worst = 0
    for x in range(sys.n):
        for y in range(sys.n):
            if x == y:
                continue
            g_xy = sys.grades.entries[x][y]
            for z in range(sys.n):
                m = min(sys.grades.entries[x][z], sys.grades.entries[z][y])
                deficit = m - g_xy
                if deficit > worst:
                    worst = deficit
    return DyadicValue.pow2(worst)


def _classify_dyadic(sys: RelationalSystem) -> ClassificationReport:
    """Oracle for classify: the exhaustive O(n**3) triple scan.

    Scans every ordered triple once for the strong (max) form in grade
    arithmetic and once for the additive form in dyadic arithmetic, keeping
    the worst witness of each, without the level table.  GradeMatrix
    already guarantees separation and symmetry, as in classify.
    Relation-level composition and transitivity checks ride along for
    cross-reference.
    """
    n = sys.n

    worst_strong: Optional[tuple] = None  # (deficit, x, z, y)
    worst_tri: Optional[tuple] = None  # (excess as Fraction, x, z, y)
    triangle_holds = True
    for x in range(n):
        for y in range(x + 1, n):
            g_xy = sys.grades.entries[x][y]
            d_xy = delta(sys, x, y)
            for z in range(n):
                m = min(sys.grades.entries[x][z], sys.grades.entries[z][y])
                deficit = m - g_xy
                if worst_strong is None or deficit > worst_strong[0]:
                    worst_strong = (deficit, x, z, y)

                d_xz = delta(sys, x, z)
                d_zy = delta(sys, z, y)
                if d_xy > d_xz + d_zy:
                    triangle_holds = False
                excess = d_xy.as_fraction() - (d_xz + d_zy).as_fraction()
                if worst_tri is None or excess > worst_tri[0]:
                    worst_tri = (excess, x, z, y)

    if worst_strong is None:
        c = DyadicValue.one()
        strong_holds = True
        strong_witness = None
    else:
        c = DyadicValue.pow2(max(0, worst_strong[0]))
        strong_holds = worst_strong[0] <= 0
        strong_witness = _triple(sys, *worst_strong[1:])

    tri_witness = None if worst_tri is None else _triple(sys, *worst_tri[1:])

    if strong_holds:
        label = "ultrametric"
    elif triangle_holds:
        label = "metric"
    else:
        label = "C-inframetric"

    return ClassificationReport(
        is_semimetric=True,
        semimetric_witness=None,
        minimal_inframetric_c=c,
        triangle_holds=triangle_holds,
        triangle_witness=tri_witness,
        strong_triangle_holds=strong_holds,
        strong_triangle_witness=strong_witness,
        class_label=label,
        r9=check_axiom(sys, "r9"),
        r10=check_axiom(sys, "r10"),
        transitive=check_axiom(sys, "transitive"),
    )


# ---------------------------------------------------------------------------
# the one-read distance kernels and the one-pass matrix ingest: the bodies
# they replaced


def reconstruct_level_oracle(sys, n):
    """reconstruct_level's body before _reconstruct_levels: every ordered
    pair's distance read again at each level."""
    threshold = DyadicValue.pow2(-n)
    rows = []
    for x in range(sys.n):
        row = 0
        for y in range(sys.n):
            if delta(sys, x, y) <= threshold:
                row |= 1 << y
        rows.append(row)
    return Relation(sys.n, tuple(rows))


def metric_ball_collapse_oracle(sys, x, r):
    """metric_ball_collapse's body before _metric_balls: the radius read
    and the window scanned again for every center."""
    radius = Fraction(r)
    p, q = radius.numerator, radius.denominator

    def within(d):
        m, e = d.numerator, d.exponent
        return m * q <= p << e if e >= 0 else (m << -e) * q <= p

    direct = 0
    for y in range(sys.n):
        if within(delta(sys, x, y)):
            direct |= 1 << y
    level = sys.window.above
    for g in range(sys.window.below, sys.window.above + 1):
        if within(DyadicValue.pow2(-g)):
            level = g
            break
    graded = 0
    for y in range(sys.n):
        if sys.grades.entries[x][y] >= level:
            graded |= 1 << y
    assert direct == graded
    return direct


def ingest_distance_matrix_oracle(d, window, labels=None):
    """ingest_distance_matrix's body before it checked each pair once: every
    ordered pair checked in row order, then a second full-matrix loop
    grading every off-diagonal cell."""
    win = Window(*window)
    n = len(d)
    rows = [
        [_as_exact_rational(v, f"distance ({i}, {j})") for j, v in enumerate(row)]
        for i, row in enumerate(d)
    ]
    for i, row in enumerate(rows):
        if len(row) != n:
            raise StructuralInputError(f"distance row {i} has length {len(row)}, not {n}")
    for i in range(n):
        if rows[i][i] != 0:
            raise StructuralInputError(f"diagonal entry ({i}, {i}) must be zero")
        for j in range(n):
            if i == j:
                continue
            if rows[i][j] != rows[j][i]:
                raise StructuralInputError(
                    f"asymmetric distances at ({i}, {j}) and ({j}, {i})"
                )
            if rows[i][j] <= 0:
                raise StructuralInputError(
                    f"off-diagonal distance at ({i}, {j}) must be positive"
                )

    entries = []
    for i in range(n):
        row_g = []
        for j in range(n):
            if i == j:
                row_g.append(TOP)
                continue
            row_g.append(max(win.below, min(win.hi, floor_log2(1 / rows[i][j]))))
        entries.append(row_g)

    lbls = tuple(labels) if labels is not None else default_labels(n)
    return RelationalSystem(lbls, win, GradeMatrix.from_rows(entries))


# ---------------------------------------------------------------------------
# the hull layer: the intersection closure, the metric-ball families, and
# the family record.  The normal-structure routines are as they were before
# each took one walk per set: radii and the distance route walked their
# pairs twice, the clique seed took a second pass, and every candidate of
# the check went through all three routes.


def closure_oracle(n, generators):
    """Nonempty S is in the intersection closure of the generators iff some
    generator contains S and S is the AND of every generator containing it."""
    out = set()
    for s in range(1, 1 << n):
        covering = [g for g in generators if s & ~g == 0]
        if covering and reduce(and_, covering) == s:
            out.add(s)
    return out


def closure_full_pass(generators):
    """The closure with one pass over the whole family per new generator,
    as before the trace of the last generator was reused: the oracle for
    the family size at every step, and so for the cap error."""
    cap = hulls.DEFAULT_SET_CAP
    family = set()
    for b in generators:
        if b in family:
            continue
        new = {b & f for f in family}
        new.add(b)
        new.discard(0)
        family |= new
        if len(family) > cap:
            raise ResourceLimitError("over the cap", cap, len(family))
    return family


def family_from_metric_balls_oracle(sys, radii, mode):
    """The metric-ball route one mode at a time, as before both modes
    shared one pass: each call computes its own balls in ascending radius
    and closes them."""
    radii = sorted(set(radii))
    balls = [
        [metric_ball_collapse(sys, x, r).bits for r in radii] for x in range(sys.n)
    ]
    family = hulls._intersection_closure([b for row in balls for b in row])
    if mode == ARBITRARY_CENTER:
        return frozenset(family)
    full = (1 << sys.n) - 1
    kept = set()
    for bits in family:
        cov = full
        for x in iter_bits(bits):
            # the smallest sampled ball at x that covers the set
            cov &= next((b for b in balls[x] if bits & ~b == 0), full)
        if cov == bits:
            kept.add(bits)
    return frozenset(kept)


def radii_oracle(sys, points):
    members = points.members()
    per_point = []
    cheb_grade = None
    for x in members:
        worst = TOP
        for y in members:
            if y == x:
                continue
            g = sys.grades.entries[x][y]
            if g < worst:
                worst = g
        per_point.append((x, hulls._grade_distance(worst)))
        if cheb_grade is None or worst > cheb_grade:
            cheb_grade = worst
    diam_grade = TOP
    for i, x in enumerate(members):
        for y in members[i + 1 :]:
            g = sys.grades.entries[x][y]
            if g < diam_grade:
                diam_grade = g
    return hulls.RadiiReport(
        points=points,
        per_point=tuple(per_point),
        cheb_radius=hulls._grade_distance(cheb_grade),
        diameter=hulls._grade_distance(diam_grade),
        cheb_grade=cheb_grade,
        diam_grade=diam_grade,
    )


def normality_criteria_oracle(sys, points):
    rep = radii_oracle(sys, points)
    grade_strict = rep.cheb_grade > rep.diam_grade

    members = points.members()
    per_point_sup = []
    for x in members:
        sup = DyadicValue.zero()
        for y in members:
            d = delta(sys, x, y)
            if d > sup:
                sup = d
        per_point_sup.append(sup)
    cheb = min(per_point_sup) if per_point_sup else DyadicValue.zero()
    diam = DyadicValue.zero()
    for i, x in enumerate(members):
        for y in members[i + 1 :]:
            d = delta(sys, x, y)
            if d > diam:
                diam = d
    distance_strict = cheb < diam

    cover_levels = set()
    diam_levels = set()
    for n in range(sys.window.below, sys.window.above + 1):
        rows = sys.level_rows(n)
        if any(points.bits & ~rows[x] == 0 for x in members):
            cover_levels.add(n)
        if all(points.bits & ~rows[x] == 0 for x in members):
            diam_levels.add(n)
    relational_proper = diam_levels < cover_levels
    return hulls.NormalityCriteria(grade_strict, distance_strict, relational_proper)


def min_distance_clique_oracle(sys):
    best = sys.window.below
    for x in range(sys.n):
        for y in range(x + 1, sys.n):
            g = sys.grades.entries[x][y]
            if g > best:
                best = g
    seed = None
    for x in range(sys.n):
        for y in range(x + 1, sys.n):
            if sys.grades.entries[x][y] == best:
                seed = (x, y)
                break
        if seed:
            break
    members = [seed[0], seed[1]]
    for x in range(sys.n):
        if x in members:
            continue
        if all(sys.grades.entries[x][m] == best for m in members):
            members.append(x)
    return PointSet.of(sys.n, sorted(members))


def check_normal_structure_oracle(sys, mode):
    pairs = (1 << x | 1 << y for x in range(sys.n) for y in range(x + 1, sys.n))
    fixed = next((p for p in pairs if hulls._hull_mask(sys, p, mode)[0] == p), None)
    for bits in (fixed,) if fixed else hulls._family(sys, mode):
        if bits.bit_count() < 2:
            continue
        points = PointSet(sys.n, bits)
        if not normality_criteria_oracle(sys, points).grade_strict:
            return StructureReport(
                "normal-structure",
                False,
                witness=(hull(sys, points, mode), radii_oracle(sys, points)),
                note="radius equals diameter on the witness set",
            )
    return StructureReport(
        "normal-structure",
        True,
        note="no admissible set with two or more points" if sys.n < 2 else "",
    )


def flat_paper_members_oracle(sys):
    """Every flat paper-cov member, by brute force over all subsets and with
    no hull: a set S of two or more points with least pair grade d is one
    exactly when S is a maximal clique of the level-d relation and every
    member has a partner in S at grade d.  (Flat, every member's covering
    level of S is d, so the hull of S is the points at grade d or more from
    all of S.)  In canonical order."""
    n, g = sys.n, sys.grades.entries
    out = []
    for bits in range(1, 1 << n):
        members = [x for x in range(n) if bits >> x & 1]
        if len(members) < 2:
            continue
        d = min(g[x][y] for x in members for y in members if x != y)
        outside = (z for z in range(n) if not bits >> z & 1)
        maximal = not any(all(g[z][x] >= d for x in members) for z in outside)
        partnered = all(any(g[x][y] == d for y in members if y != x) for x in members)
        if maximal and partnered:
            out.append(bits)
    return sorted(out, key=lambda bits: PointSet(n, bits).canonical_key())


def hull_oracle(sys, mode):
    """The family and its witnesses from one _hull_mask call per member:
    the paper-cov family keeps the closure members its hull fixes."""
    closure = sorted(
        hulls._intersection_closure(hulls._ball_index(sys)),
        key=lambda bits: PointSet(sys.n, bits).canonical_key(),
    )
    assert all(hulls._hull_mask(sys, bits, ARBITRARY_CENTER)[0] == bits for bits in closure)
    return [
        (bits, witness)
        for bits in closure
        for out, witness in [hulls._hull_mask(sys, bits, mode)]
        if out == bits
    ]


def row_masks(sys, rows):
    """The masks of a member-by-point byte matrix, each row its mask's
    ceil(n / 8) little-endian bytes; the matrix must split into whole rows."""
    size = (sys.n + 7) // 8
    assert len(rows) % size == 0
    return [int.from_bytes(rows[i : i + size], "little") for i in range(0, len(rows), size)]


def text_column_pass(sys, family):
    """The paper-cov filter and the per-center step counts of a family in
    canonical order, from the column pass as it was before the byte
    matrix: each point's column read from the members' binary text, and
    each shrink's inside positions formatted as 0/1 items and summed.  The
    counts come back as one list of ints per center."""
    n, m = sys.n, len(family)
    every = (1 << m) - 1
    width = next(w for w in (1, 2, 4, 8) if n <= 1 << 8 * w)
    text = "".join(map(f"{{:0{n}b}}".format, family))
    member = [int(text[n - 1 - y :: n][::-1], 2) for y in range(n)]

    def items01(bits, width):
        ones = format(bits, f"0{m}b")[::-1].encode().translate(bytes.maketrans(b"01", b"\0\1"))
        items = bytearray(m * width)
        items[::width] = ones
        return bytes(items)

    table = sys.level_table()
    paper_drops = [0] * n
    steps = []
    for x in range(n):
        outside = count = 0
        for lower, upper in zip(table, table[1:]):
            if lower[x] == upper[x]:
                continue
            gone = f"{lower[x] & ~upper[x]:b}"[::-1]
            leaving = [y for y, bit in enumerate(gone) if bit == "1"]
            for y in leaving:
                outside |= member[y]
            inside = every ^ outside
            for y in leaving:
                paper_drops[y] |= inside & member[x]
            count += int.from_bytes(items01(inside, width), "little")
        counts = count.to_bytes(m * width, "little")
        steps.append([int.from_bytes(counts[i : i + width], "little") for i in range(0, m * width, width)])
    unfixed = 0
    for y in range(n):
        unfixed |= every & ~(paper_drops[y] | member[y])
    return items01(every ^ unfixed, 1), steps


# ---------------------------------------------------------------------------
# the hulls report: hull fixed points over every subset


def _brute_force_family(sys, mode):
    """Hull fixed points over every nonempty subset, in canonical order."""
    fixed = []
    for bits in range(1, 1 << sys.n):
        adm = hull(sys, PointSet(sys.n, bits), mode)
        if adm.points.bits == bits:
            fixed.append(adm)
    return sorted(fixed, key=lambda a: a.points.canonical_key())


# ---------------------------------------------------------------------------
# self-map scans: brute force over every center, level and offset


def _brute_minimal_balls(sys, t):
    """Every center at every window level, through the public ball()."""
    out = []
    for c in range(sys.n):
        for lev in sys.window.levels():
            b = ball(sys, c, lev)
            if all(
                t.image[p] in b and sys.grades.entries[p][t.image[p]] == lev
                for p in b.members()
            ):
                out.append((c, lev))
    return tuple(out)


def _brute_invariant_balls(sys, t):
    """Map-invariant balls grouped by set, every center at every level from
    window.below to window.above."""
    by_set = {}
    for c in range(sys.n):
        for lev in range(sys.window.below, sys.window.above + 1):
            b = ball(sys, c, lev)
            if all(t.image[p] in b for p in b.members()):
                by_set.setdefault(b.bits, []).append((c, lev))
    return sorted((bits, tuple(names)) for bits, names in by_set.items())


def _brute_offsets(sys, t, x):
    """The regular and asymptotic offsets searched straight from the
    RegularityReport definitions over the step grades of T^i x."""
    seq = [x]
    reach = 3 * sys.n + sys.window.span + 4
    for _ in range(2 * reach):
        seq.append(t.image[seq[-1]])
    step = [sys.grades.entries[p][q] for p, q in zip(seq, seq[1:])]
    m = step[0]
    # from any index on, the orbit repeats within n steps, so a window of
    # reach steps sees every later step grade, and either offset, when one
    # exists, lies below reach
    regular = next(
        (
            k
            for k in range(1, reach)
            if all(step[i] >= m + k for i in range(k, k + reach))
        ),
        None,
    )
    asymptotic = next(
        (
            k
            for k in range(0, reach)
            if all(step[i] >= m + i for i in range(k, k + reach))
        ),
        None,
    )
    return regular, asymptotic


def _maps_into_itself(t, bits):
    return all(bits >> t.image[p] & 1 for p in iter_bits(bits))


def _family_walk(sys, t):
    """The minimal map-invariant members of the whole paper-cov family, as
    masks in canonical order: what minimal_invariant_admissible computed
    before it stopped building the family."""
    invariant = [
        bits
        for bits in _family(sys, PAPER_COV)
        if _maps_into_itself(t, bits)
    ]
    return tuple(
        a for a in invariant if not any(b != a and b & ~a == 0 for b in invariant)
    )


# ---------------------------------------------------------------------------
# the falsifier's system generator: draws and repairs


def _forced_grade(entries, x, y, constraint):
    """Lowest grade the constraint forces on the pair, given the others."""
    n = len(entries)
    need = entries[x][y]
    for z in range(n):
        if constraint == "transitive":
            need = max(need, min(entries[x][z], entries[z][y]))
        elif constraint == "r9":
            need = max(need, min(entries[x][z], entries[z][y]) - 1)
        else:
            for w in range(n):
                need = max(need, min(entries[x][z], entries[z][w], entries[w][y]) - 1)
    return need


def sweep_repair(entries, constraint):
    """Oracle for the level pass: the fixpoint sweep it replaced, which raises
    any pair to the grade its composition inequalities force from the
    others until nothing changes."""
    n = len(entries)
    changed = True
    while changed:
        changed = False
        for x in range(n):
            for y in range(x + 1, n):
                need = _forced_grade(entries, x, y, constraint)
                if need > entries[x][y]:
                    entries[x][y] = entries[y][x] = need
                    changed = True


def warshall_repair(entries, window):
    """Oracle for the single-linkage repair: the level pass it replaced,
    which adds the drawn pairs of each level to the repaired level above,
    closes the result with Warshall's algorithm, and gives each pair the
    level it first appears in, from the window top down."""
    n = len(entries)
    drawn = {}
    for x in range(n):
        for y in range(n):
            if y != x:
                drawn.setdefault(entries[x][y], [0] * n)[x] |= 1 << y
    level = [1 << x for x in range(n)]
    for k in range(window.hi, window.below, -1):
        rows = [r | e for r, e in zip(level, drawn.get(k, [0] * n))]
        for z in range(n):
            for x in range(n):
                if rows[x] >> z & 1:
                    rows[x] |= rows[z]
        for x, (new, old) in enumerate(zip(rows, level)):
            for y in iter_bits(new & ~old):
                entries[x][y] = k
        level = rows


def randint_draws(seed, params):
    """Reference for gen_system's draws: every grade by rng.randint."""
    rng = random.Random(seed)
    n = rng.randint(*params.point_count)
    lo = rng.randint(*params.window_lo)
    hi = lo + rng.randint(*params.window_span)
    entries = [[TOP] * n for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            entries[x][y] = entries[y][x] = rng.randint(lo - 1, hi)
    return entries, Window(lo, hi)


def randrange_map_draws(seed, sys, map_kind="any"):
    """Reference for gen_self_map's draws: every image by rng.randrange
    (any kind) or rng.choice (grade-preserving kind)."""
    if map_kind not in MAP_KINDS:
        raise UsageError(f"unknown map kind {map_kind!r}")
    rng = random.Random(seed)
    n = sys.n
    if map_kind == "any":
        return SelfMap(tuple(rng.randrange(n) for _ in range(n)))

    # off-diagonal grades lie in [below, hi], inside the table
    table, below = sys.level_table(), sys.window.below
    everyone = (1 << n) - 1
    for _ in range(64):
        order = list(range(n))
        rng.shuffle(order)
        image: dict[int, int] = {}
        for x in order:
            grades, mask = sys.grades.entries[x], everyone
            for y, ty in image.items():
                mask &= table[grades[y] - below][ty]
            if not mask:
                break
            image[x] = rng.choice([c for c in range(n) if mask >> c & 1])
        else:
            return SelfMap(tuple(image[x] for x in range(n)))
    return identity_map(n)
