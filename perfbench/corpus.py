"""Seeded inputs for the analyze and hulls workloads.

The generator here is the benchmark's own: it never calls into `gradedrel`,
so a change to the package's generator or repair code cannot change these
inputs.  Systems are written in the package's `gradedsystem v1` text format
and maps in `selfmap v1`.
"""

from __future__ import annotations

import random

CONSTRAINTS = ("none", "r9", "transitive")


def random_grades(rng: random.Random, n: int, lo: int, hi: int) -> list[list]:
    """Symmetric grade matrix, off-diagonal entries uniform in [lo - 1, hi]."""
    g: list[list] = [[None] * n for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            g[x][y] = g[y][x] = rng.randint(lo - 1, hi)
    return g


def ultrametric_grades(rng: random.Random, n: int, lo: int, hi: int) -> list[list]:
    """Grades of a random cluster tree: a pair's grade is the level at which
    its two points are first split apart, capped at hi, so every level's
    relation is an equivalence (per-level transitivity)."""
    g: list[list] = [[None] * n for _ in range(n)]

    def split(members: list[int], level: int) -> None:
        if len(members) < 2:
            return
        if level >= hi:
            for i, x in enumerate(members):
                for y in members[i + 1:]:
                    g[x][y] = g[y][x] = hi
            return
        parts: list[list[int]] = [[] for _ in range(rng.randint(2, 3))]
        order = members[:]
        rng.shuffle(order)
        for i, x in enumerate(order):
            # the first points seed distinct parts, so no part stays empty
            parts[i if i < len(parts) else rng.randrange(len(parts))].append(x)
        for a in range(len(parts)):
            for b in range(a + 1, len(parts)):
                for x in parts[a]:
                    for y in parts[b]:
                        g[x][y] = g[y][x] = level
        for part in parts:
            split(part, level + rng.randint(1, 2))

    split(list(range(n)), lo - 1)
    return g


def repair_r9(g: list[list], hi: int) -> None:
    """Raise grades until g(x, y) >= min(g(x, z), g(z, y)) - 1 everywhere,
    which is the two-step composition law R_n o R_n within R_{n-1}."""
    n = len(g)
    changed = True
    while changed:
        changed = False
        for x in range(n):
            gx = g[x]
            for y in range(x + 1, n):
                need = gx[y]
                gy = g[y]
                for z in range(n):
                    if z == x or z == y:
                        continue
                    m = min(gx[z], gy[z]) - 1
                    if m > need:
                        need = m
                if need > gx[y]:
                    gx[y] = gy[x] = min(need, hi)
                    changed = True


def make_grades(rng: random.Random, n: int, span: int, constraint: str):
    lo = rng.randint(-2, 2)
    hi = lo + span
    if constraint == "transitive":
        g = ultrametric_grades(rng, n, lo, hi)
    else:
        g = random_grades(rng, n, lo, hi)
        if constraint == "r9":
            repair_r9(g, hi)
    return lo, hi, g


def relabel(rng: random.Random, g: list[list], image: list[int]) -> tuple[list[list], list[int]]:
    """The same system and self-map with the points renamed by a random
    permutation."""
    n = len(g)
    perm = list(range(n))
    rng.shuffle(perm)
    out: list[list] = [[None] * n for _ in range(n)]
    moved = [0] * n
    for x in range(n):
        moved[perm[x]] = perm[image[x]]
        for y in range(n):
            if x != y:
                out[perm[x]][perm[y]] = g[x][y]
    return out, moved


def system_text(lo: int, hi: int, g: list[list]) -> str:
    n = len(g)
    rows = [
        " ".join("-" if x == y else str(g[x][y]) for y in range(n)) for x in range(n)
    ]
    labels = " ".join(f"p{i}" for i in range(n))
    return (
        f"gradedsystem v1\npoints: {n}\nlabels: {labels}\nwindow: {lo} {hi}\n"
        "grades:\n" + "\n".join(rows) + "\n"
    )


def _preserves(g: list[list], image: dict[int, int], x: int, c: int) -> bool:
    gx = g[x]
    gc = g[c]
    for y, ty in image.items():
        if c != ty and gc[ty] < gx[y]:
            return False
    return True


def grade_preserving_map(rng: random.Random, g: list[list]) -> list[int]:
    """A random map with g(Tx, Ty) >= g(x, y) for every pair.

    Points are assigned in random order, each to a random image compatible
    with the images already chosen; after a dead end the search restarts,
    and after a few restarts a constant map (always grade-preserving) is used.
    """
    n = len(g)
    for _ in range(8):
        order = list(range(n))
        rng.shuffle(order)
        image: dict[int, int] = {}
        for x in order:
            cands = [c for c in range(n) if _preserves(g, image, x, c)]
            if not cands:
                break
            image[x] = rng.choice(cands)
        else:
            return [image[x] for x in range(n)]
    return [rng.randrange(n)] * n


def any_map(rng: random.Random, n: int) -> list[int]:
    return [rng.randrange(n) for _ in range(n)]


def map_text(image: list[int]) -> str:
    return f"selfmap v1\npoints: {len(image)}\nmap: {' '.join(map(str, image))}\n"
