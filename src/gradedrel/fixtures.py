"""Small canonical systems and maps used across the tests and docs."""

from __future__ import annotations

from fractions import Fraction

from .dyadic import DyadicValue
from .pointset import SelfMap, identity_map
from .relations import Grade, RelationalSystem, TOP, make_system

__all__ = [
    "dyadic_grid",
    "lopsided_triple",
    "ultrametric_chain",
    "twin_pair",
    "grid_reflection",
    "chain_successor",
    "pair_swap",
    "identity_map",
]


def dyadic_grid() -> RelationalSystem:
    """Five grid points of [0, 1] graded by |x - y| <= 2**-n, window [0, 3]."""
    values = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    labels = ["0", "1/4", "1/2", "3/4", "1"]
    lo, hi = 0, 3
    rows: list[list[Grade]] = []
    for x in values:
        row: list[Grade] = []
        for y in values:
            if x == y:
                row.append(TOP)
                continue
            g = lo - 1
            for n in range(hi, lo - 1, -1):
                if abs(x - y) <= DyadicValue.pow2(-n).as_fraction():
                    g = n
                    break
            row.append(g)
        rows.append(row)
    return make_system(labels, (lo, hi), rows)


def lopsided_triple() -> RelationalSystem:
    """Three points whose grades satisfy the composition laws yet break the
    triangle inequality (1 > 1/2 + 1/32)."""
    return make_system(
        ["p", "q", "r"],
        (0, 6),
        [
            [TOP, 1, 0],
            [1, TOP, 5],
            [0, 5, TOP],
        ],
    )


def ultrametric_chain() -> RelationalSystem:
    """Six points graded by min(value, value'), with an absorbing top point."""
    labels = ["0", "1", "2", "3", "4", "inf"]
    values = [0, 1, 2, 3, 4, None]  # None plays plus-infinity

    def pair_grade(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    rows: list[list[Grade]] = []
    for i, a in enumerate(values):
        row: list[Grade] = []
        for j, b in enumerate(values):
            row.append(TOP if i == j else pair_grade(a, b))
        rows.append(row)
    return make_system(labels, (0, 5), rows)


def twin_pair() -> RelationalSystem:
    """Two points sharing a single grade inside a narrow window."""
    return make_system(["a", "b"], (3, 4), [[TOP, 3], [3, TOP]])


def grid_reflection() -> SelfMap:
    """x -> 1 - x on the five grid points."""
    return SelfMap((4, 3, 2, 1, 0))


def chain_successor() -> SelfMap:
    """x -> x + 1 on the chain, fixing the top point."""
    return SelfMap((1, 2, 3, 4, 5, 5))


def pair_swap() -> SelfMap:
    return SelfMap((1, 0))
