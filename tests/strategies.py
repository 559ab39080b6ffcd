"""Inputs that more than one test module draws: hypothesis strategies for
systems, seeded and structured systems, and the example-count helper.

Test modules import these from here, never from one another.
"""

import os
import random
from itertools import combinations, product

from hypothesis import settings, strategies as st

from gradedrel import TOP, make_system

# a longer search for CI runs of the differential tests
# (HYPOTHESIS_PROFILE=deep, registered in conftest); tier-1 keeps
# hypothesis's default profile
DEEP_EXAMPLES = 2000
PROFILE = os.environ.get("HYPOTHESIS_PROFILE")


def examples(n, deep=DEEP_EXAMPLES):
    """settings(max_examples=n) at tier 1, and `deep` examples, by default
    the deep profile's count, under HYPOTHESIS_PROFILE=deep, for a test
    that sets its own count: an explicit @settings(max_examples=...)
    overrides the loaded profile's.  A test whose examples are costly sets
    a smaller `deep`, so that it does not dominate the deep step."""
    return settings(max_examples=deep if PROFILE == "deep" else n)


def small_systems():
    """Random systems, any grade pattern the data model allows."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=5))
        lo = draw(st.integers(min_value=-3, max_value=3))
        hi = lo + draw(st.integers(min_value=1, max_value=4))
        rows = [[TOP] * n for _ in range(n)]
        for x in range(n):
            for y in range(x + 1, n):
                g = draw(st.integers(min_value=lo - 1, max_value=hi))
                rows[x][y] = g
                rows[y][x] = g
        return make_system([str(i) for i in range(n)], (lo, hi), rows)

    return build()


def wide_sparse_systems():
    """Systems in windows up to 1000 levels wide whose grades come from
    three random levels and the two just above each, so that both wide
    gaps and near ties between grades occur."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=6))
        lo = draw(st.integers(min_value=-1000, max_value=1000))
        hi = lo + draw(st.integers(min_value=1, max_value=1000))
        bases = draw(st.lists(st.integers(lo - 1, hi), min_size=3, max_size=3))
        levels = sorted({min(hi, b + d) for b in bases for d in (0, 1, 2)})
        rows = [[TOP] * n for _ in range(n)]
        for x in range(n):
            for y in range(x + 1, n):
                g = draw(st.sampled_from(levels))
                rows[x][y] = g
                rows[y][x] = g
        return make_system([str(i) for i in range(n)], (lo, hi), rows)

    return build()


@st.composite
def cluster_tree_systems(draw, max_points=9, min_points=1):
    """Ultrametric systems built the way the benchmark builds its large
    ones: the points are split into 2 or 3 random parts, then each part
    again one or two levels higher, and a pair's grade is the level at
    which its points are first split apart, capped at hi.  Every level is
    an equivalence."""
    n = draw(st.integers(min_value=min_points, max_value=max_points))
    lo = draw(st.integers(min_value=-3, max_value=3))
    hi = lo + draw(st.integers(min_value=1, max_value=6))
    rows = [[TOP] * n for _ in range(n)]

    def split(members, level):
        if len(members) < 2:
            return
        if level >= hi:
            for x, y in combinations(members, 2):
                rows[x][y] = rows[y][x] = hi
            return
        parts = [[] for _ in range(draw(st.integers(2, 3)))]
        for k, x in enumerate(draw(st.permutations(members))):
            # the first points seed distinct parts
            parts[k if k < len(parts) else draw(st.integers(0, len(parts) - 1))].append(x)
        for a, b in combinations(parts, 2):
            for x, y in product(a, b):
                rows[x][y] = rows[y][x] = level
        for part in parts:
            split(part, level + draw(st.integers(1, 2)))

    split(list(range(n)), lo - 1)
    return make_system([str(i) for i in range(n)], (lo, hi), rows)


def seeded_system(seed, n, span):
    """Unconstrained n-point system, grades uniform over a span-wide window."""
    rng = random.Random(seed)
    lo = rng.randint(-2, 2)
    rows = [[TOP] * n for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            rows[x][y] = rows[y][x] = rng.randint(lo - 1, lo + span)
    return make_system([str(i) for i in range(n)], (lo, lo + span), rows)


def star_system(n):
    """Point 0 meets point j at grade j and every other pair is at the
    floor, so the balls at 0 shrink n - 1 times."""
    rows = [
        [TOP if x == y else max(x, y) if 0 in (x, y) else 0 for y in range(n)]
        for x in range(n)
    ]
    return make_system([str(i) for i in range(n)], (1, n - 1), rows)


# Unconstrained 8-point system whose closure family has 172 members but over
# 25,000 steps of maximal chains.
CHAIN_HEAVY = make_system(
    [str(i) for i in range(8)],
    (-2, 0),
    [
        [TOP, -2, 0, -2, 0, -1, -3, 0],
        [-2, TOP, -3, -2, -2, -1, -1, -1],
        [0, -3, TOP, -1, -2, 0, -1, -1],
        [-2, -2, -1, TOP, -3, -3, -1, -1],
        [0, -2, -2, -3, TOP, -1, -1, -1],
        [-1, -1, 0, -3, -1, TOP, 0, -3],
        [-3, -1, -1, -1, -1, 0, TOP, -1],
        [0, -1, -1, -1, -1, -3, -1, TOP],
    ],
)
