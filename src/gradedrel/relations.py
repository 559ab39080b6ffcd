"""Finite nested families of symmetric binary relations, stored as grade matrices.

A family assigns to every integer level n a symmetric relation R_n on the
ground set, shrinking as n grows.  Only a window [lo, hi] of levels is kept
explicitly: below the window every pair is related, above it only equal
points are.  The family is then determined by the grade of each pair, the
largest level still relating it, with TOP (above every integer) on the
diagonal.  A pair related at no stored level gets grade lo - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import chain
from operator import and_
from typing import Callable, Iterator, Optional, Sequence, TypeVar, Union

from .errors import ResourceLimitError, StructuralInputError, UsageError
from .pointset import iter_bits


class Top:
    """Sentinel grade strictly above every integer; shifts leave it fixed."""

    __slots__ = ()
    _singleton: Optional["Top"] = None

    def __new__(cls) -> "Top":
        if cls._singleton is None:
            cls._singleton = super().__new__(cls)
        return cls._singleton

    def __repr__(self) -> str:
        return "TOP"

    def __lt__(self, other):
        if isinstance(other, (int, Top)):
            return False
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, Top):
            return True
        if isinstance(other, int):
            return False
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, Top):
            return False
        if isinstance(other, int):
            return True
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, (int, Top)):
            return True
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, int):
            return self
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return self
        return NotImplemented


TOP = Top()

Grade = Union[int, Top]

_T = TypeVar("_T")


def grade_str(g: Grade) -> str:
    return "-" if isinstance(g, Top) else str(g)


@dataclass(frozen=True)
class Window:
    """Inclusive level range [lo, hi] actually stored for a family."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise StructuralInputError(f"window [{self.lo}, {self.hi}] is empty")

    @property
    def below(self) -> int:
        """Grade meaning "related at no stored level" (full relation there)."""
        return self.lo - 1

    @property
    def above(self) -> int:
        """First level past the window; its relation is the diagonal."""
        return self.hi + 1

    def levels(self) -> range:
        return range(self.lo, self.hi + 1)

    @property
    def span(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True)
class Relation:
    """Binary relation on {0..n-1}, one int bitmask per row."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != self.n:
            raise StructuralInputError(
                f"relation has {len(self.rows)} rows for {self.n} points"
            )
        full = (1 << self.n) - 1
        for x, row in enumerate(self.rows):
            if not 0 <= row <= full:
                raise StructuralInputError(f"row {x} mask out of range")

    @classmethod
    def full(cls, n: int) -> "Relation":
        mask = (1 << n) - 1
        return cls(n, tuple(mask for _ in range(n)))

    @classmethod
    def diagonal(cls, n: int) -> "Relation":
        return cls(n, tuple(1 << x for x in range(n)))

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "Relation":
        rows = [0] * n
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise IndexError(f"pair ({x}, {y}) out of range for {n} points")
            rows[x] |= 1 << y
        return cls(n, tuple(rows))

    def contains(self, x: int, y: int) -> bool:
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise IndexError(f"pair ({x}, {y}) out of range for {self.n} points")
        return bool((self.rows[x] >> y) & 1)

    def pairs(self) -> Iterator[tuple[int, int]]:
        for x, row in enumerate(self.rows):
            for y in iter_bits(row):
                yield (x, y)

    def subset_of(self, other: "Relation") -> bool:
        self._check_same_ground(other)
        return all(r & ~s == 0 for r, s in zip(self.rows, other.rows))

    def intersection(self, other: "Relation") -> "Relation":
        self._check_same_ground(other)
        return Relation(self.n, tuple(r & s for r, s in zip(self.rows, other.rows)))

    def is_symmetric(self) -> bool:
        return all(
            (self.rows[y] >> x) & 1
            for x, row in enumerate(self.rows)
            for y in iter_bits(row)
        )

    def _check_same_ground(self, other: "Relation") -> None:
        if self.n != other.n:
            raise StructuralInputError(
                f"relation size mismatch: {self.n} vs {other.n}"
            )


def compose(r: Relation, s: Relation) -> Relation:
    """Relational composition: (x, y) related iff some z has r(x,z) and s(z,y)."""
    r._check_same_ground(s)
    return Relation(r.n, _compose_rows(r.rows, s.rows))


def _compose_rows(r: Sequence[int], s: Sequence[int]) -> tuple[int, ...]:
    """compose on raw row bitmasks of one ground set.

    Each distinct row of r is composed once: the rows of an equivalence
    relation repeat once per member of their class.
    """
    images: dict[int, int] = {}
    for row in r:
        if row not in images:
            out, rest = 0, row
            while rest:
                low = rest & -rest
                out |= s[low.bit_length() - 1]
                rest ^= low
            images[row] = out
    return tuple(map(images.__getitem__, r))


@dataclass(frozen=True)
class GradeMatrix:
    """Symmetric matrix of grades with TOP exactly on the diagonal."""

    n: int
    entries: tuple[tuple[Grade, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise StructuralInputError(f"point count must be positive, got {self.n}")
        if len(self.entries) != self.n:
            raise StructuralInputError(
                f"grade matrix has {len(self.entries)} rows for {self.n} points"
            )
        for x, row in enumerate(self.entries):
            if len(row) != self.n:
                raise StructuralInputError(f"grade matrix row {x} has length {len(row)}")
        # the valid case in whole-matrix tests: exact ints off the diagonal,
        # TOP itself on it, and equal to its transpose; only a matrix that
        # fails one is walked cell by cell, to word its first failure
        cells = list(chain.from_iterable(self.entries))
        diagonal = cells[:: self.n + 1]
        del cells[:: self.n + 1]
        if (
            all(g is TOP for g in diagonal)
            and set(map(type, cells)) <= {int}
            and tuple(zip(*self.entries)) == self.entries
        ):
            return
        for x in range(self.n):
            if not isinstance(self.entries[x][x], Top):
                raise StructuralInputError(f"diagonal entry ({x}, {x}) must be TOP")
            for y in range(self.n):
                if x == y:
                    continue
                g = self.entries[x][y]
                if not isinstance(g, int):
                    raise StructuralInputError(
                        f"off-diagonal entry ({x}, {y}) must be an integer, got {g!r}"
                    )
                if self.entries[y][x] != g:
                    raise StructuralInputError(
                        f"grade matrix asymmetric at ({x}, {y}) vs ({y}, {x})"
                    )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Grade]]) -> "GradeMatrix":
        return cls(len(rows), tuple(tuple(row) for row in rows))

    def grade(self, x: int, y: int) -> Grade:
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise IndexError(f"pair ({x}, {y}) out of range for {self.n} points")
        return self.entries[x][y]


@dataclass(frozen=True)
class RelationalSystem:
    """Ground set with labels, a level window, and the grade of every pair.

    Grade-side code reads the levels through level_table(), built once
    per system.
    """

    labels: tuple[str, ...]
    window: Window
    grades: GradeMatrix

    def __post_init__(self):
        if len(self.labels) != self.grades.n:
            raise StructuralInputError(
                f"{len(self.labels)} labels for {self.grades.n} points"
            )
        if len(set(self.labels)) != len(self.labels):
            raise StructuralInputError("labels must be distinct")
        for label in self.labels:
            # the token rule of the text format, so every system serializes
            if label.split() != [label]:
                raise StructuralInputError(
                    f"label {label!r} must be nonempty with no whitespace"
                )
        lo, hi = self.window.lo, self.window.hi
        # one bounds test over the distinct grades (GradeMatrix holds TOP
        # only on the diagonal); only a failure walks the upper triangle
        # to word the first bad cell
        grades = set(chain.from_iterable(self.grades.entries))
        grades.discard(TOP)
        if not grades or (lo - 1 <= min(grades) and max(grades) <= hi):
            return
        for x in range(self.grades.n):
            for y in range(x + 1, self.grades.n):
                g = self.grades.entries[x][y]
                if not lo - 1 <= g <= hi:
                    raise StructuralInputError(
                        f"grade {g} at ({x}, {y}) outside [{lo - 1}, {hi}]"
                    )

    @property
    def n(self) -> int:
        return self.grades.n

    def grade(self, x: int, y: int) -> Grade:
        return self.grades.grade(x, y)

    def cached(self, key, build: Callable[["RelationalSystem"], _T]) -> _T:
        """build(self), computed once per system and key.

        The memo is not a dataclass field, so equality, hashing, repr and
        dataclasses.replace ignore it.  Nothing is stored when build raises.
        """
        try:
            return self.__dict__["_memo"][key]
        except KeyError:
            pass
        memo = self.__dict__.setdefault("_memo", {})
        memo[key] = value = build(self)
        return value

    def level_table(self) -> tuple[tuple[int, ...], ...]:
        """Row bitmasks of every level from window.below to window.above.

        Entry [k - window.below][x] holds the points whose grade against x
        is at least k: the whole ground set at the floor, just x at the
        top.  Built once per system; a table of more than LEVEL_TABLE_CAP
        entries (levels times points) raises ResourceLimitError before
        anything is allocated.
        """
        return self.cached("level-table", _build_level_table)

    def level_rows(self, k: int) -> tuple[int, ...]:
        """Row bitmasks of the level-k relation, for any integer k.

        Levels at or below the floor give the full relation and levels
        above the window the diagonal, by the grade conventions alone.
        """
        table = self.level_table()
        i = k - self.window.below
        if 0 <= i < len(table):
            return table[i]
        return table[0] if i < 0 else table[-1]


# most level-table entries (levels times points) a system may build; a
# 3-point system in a 200,000-level window needs about 600,000
LEVEL_TABLE_CAP = 1_000_000


def _build_level_table(sys: RelationalSystem) -> tuple[tuple[int, ...], ...]:
    below = sys.window.below
    levels = sys.window.above - below + 1
    entries = levels * sys.n
    if entries > LEVEL_TABLE_CAP:
        raise ResourceLimitError(
            f"level table of {levels} levels x {sys.n} points needs {entries}"
            f" level-table entries, over the cap of {LEVEL_TABLE_CAP}",
            LEVEL_TABLE_CAP,
            entries,
        )
    exact = _exact_grade_rows(sys.grades.entries, below, levels)
    acc = [1 << x for x in range(sys.n)]
    table = []
    for level in reversed(exact):
        acc = [a | e for a, e in zip(acc, level)]
        table.append(tuple(acc))
    return tuple(reversed(table))


def _exact_grade_rows(
    entries: Sequence[Sequence[Grade]], below: int, levels: int
) -> list[list[int]]:
    """Row bitmasks of the pairs at each exact grade of a symmetric matrix:
    entry [k - below][x] holds the points y != x with grade exactly k
    against x.  The rows run over the given number of levels from below,
    which must take in every off-diagonal grade.  Filled from the upper
    triangle, both bits per pair, with no diagonal test.
    """
    n = len(entries)
    exact = [[0] * n for _ in range(levels)]
    for x, row in enumerate(entries):
        bit = 1 << x
        for y in range(x + 1, n):
            drawn = exact[row[y] - below]
            drawn[x] |= 1 << y
            drawn[y] |= bit
    return exact


def make_system(
    labels: Sequence[str], window: tuple[int, int], rows: Sequence[Sequence[Grade]]
) -> RelationalSystem:
    """Convenience constructor from plain sequences."""
    return RelationalSystem(
        tuple(labels), Window(*window), GradeMatrix.from_rows(rows)
    )


@lru_cache(maxsize=256)
def default_labels(n: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(n))


@dataclass(frozen=True)
class LevelList:
    """Explicit per-level relations over a window, lowest level first."""

    window: Window
    per_level: tuple[Relation, ...]

    def __post_init__(self):
        expected = self.window.hi - self.window.lo + 1
        if len(self.per_level) != expected:
            raise StructuralInputError(
                f"{len(self.per_level)} levels for window "
                f"[{self.window.lo}, {self.window.hi}]"
            )
        sizes = {rel.n for rel in self.per_level}
        if len(sizes) > 1:
            raise StructuralInputError(f"levels disagree on point count: {sorted(sizes)}")

    @property
    def n(self) -> int:
        return self.per_level[0].n

    def at(self, n: int) -> Relation:
        if not self.window.lo <= n <= self.window.hi:
            raise IndexError(f"level {n} outside window")
        return self.per_level[n - self.window.lo]


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of one structural check; a false report carries a witness."""

    axiom_id: str
    holds: bool
    witness: Optional[tuple] = None
    bound_grade: Optional[Grade] = None


def validate_level_list(levels: LevelList) -> tuple[AxiomReport, ...]:
    """Check symmetry per level, nesting, and within-window separation.

    Separation ("r4-window") asks that the intersection of all stored levels
    be exactly the diagonal: every level contains each (x, x), and no
    distinct pair survives every level.  Each check reads the levels' row
    masks, and each witness is the first failure in level order, then row
    by row.
    """
    lo = levels.window.lo
    per_level = [rel.rows for rel in levels.per_level]

    # r1: a pair (x, y) whose row y lacks x
    witness = next(
        (
            (lvl, x, y)
            for lvl, rows in enumerate(per_level, lo)
            for x, row in enumerate(rows)
            for y in iter_bits(row)
            if not rows[y] >> x & 1
        ),
        None,
    )
    reports = [AxiomReport("r1", witness is None, witness)]

    # r2: a pair of a level that the level below lacks
    witness = next(
        (
            (lvl, x, next(iter_bits(cur & ~prev)))
            for lvl, (lower, rows) in enumerate(zip(per_level, per_level[1:]), lo + 1)
            for x, (cur, prev) in enumerate(zip(rows, lower))
            if cur & ~prev
        ),
        None,
    )
    reports.append(AxiomReport("r2", witness is None, witness))

    # r4-window: a level missing (x, x), else a distinct pair in every level
    witness = next(
        (
            (lvl, x, x)
            for lvl, rows in enumerate(per_level, lo)
            for x, row in enumerate(rows)
            if not row >> x & 1
        ),
        None,
    )
    if witness is None:
        inter = [reduce(and_, column) for column in zip(*per_level)]
        witness = next(
            (
                (x, next(iter_bits(row ^ 1 << x)))
                for x, row in enumerate(inter)
                if row != 1 << x
            ),
            None,
        )
    reports.append(AxiomReport("r4-window", witness is None, witness))

    return tuple(reports)


def compact_to_grades(
    levels: LevelList, labels: Optional[Sequence[str]] = None
) -> RelationalSystem:
    """Collapse a validated level list into a grade matrix.

    The grade of a pair is the largest stored level containing it, lo - 1 if
    none does, and TOP on the diagonal: each level writes its grade over
    its row masks on a grid of lo - 1, from the lowest level up.
    """
    for report in validate_level_list(levels):
        if not report.holds:
            raise StructuralInputError(
                f"level list fails {report.axiom_id} (witness {report.witness})"
            )
    n = levels.n
    grid: list[list[Grade]] = [[levels.window.below] * n for _ in range(n)]
    for lvl, rel in enumerate(levels.per_level, levels.window.lo):
        for cells, row in zip(grid, rel.rows):
            for y in iter_bits(row):
                cells[y] = lvl
    for x, cells in enumerate(grid):
        cells[x] = TOP
    lbls = tuple(labels) if labels is not None else default_labels(n)
    return RelationalSystem(lbls, levels.window, GradeMatrix(n, tuple(map(tuple, grid))))


def expand_level(sys: RelationalSystem, n: int) -> Relation:
    """Relation at level n: pairs whose grade is at least n.

    Works for any integer level; below the window this is the full relation
    and above it the diagonal.  Read from the system's level table.
    """
    return Relation(sys.n, sys.level_rows(n))


def to_level_list(sys: RelationalSystem) -> LevelList:
    """Expand every stored level of a system."""
    return LevelList(
        sys.window, tuple(expand_level(sys, n) for n in sys.window.levels())
    )


def check_axiom(sys: RelationalSystem, axiom_id: str) -> AxiomReport:
    """Check one optional property of a system; see _CHECKS for the ids.

    r5: every pair is related somewhere inside the window (the minimum
        off-diagonal grade, reported as the bound, reaches lo).  Read from
        each row's minimum right of the diagonal.
    r9/r10: the square/cube of each level's relation fits inside the
        previous level, checked for every level in [lo, hi + 1].
    transitive: every stored level is a transitive relation.

    A level is an equivalence exactly when its distinct rows partition the
    points (_is_partition), and such a level satisfies all three: it is
    its own square and cube, and it lies inside the level below it.  Each
    level is decided by that count first; only a level that fails it is
    composed, and only a failing check searches for its witness.

    Each report is computed once per system and axiom id.
    """
    check = _CHECKS.get(axiom_id)
    if check is None:
        raise UsageError(
            f"unknown or uncheckable axiom id {axiom_id!r}; "
            f"expected one of {tuple(_CHECKS)}"
        )
    return sys.cached(("axiom", axiom_id), check)


def _check_bounded(sys: RelationalSystem) -> AxiomReport:
    # each row's least grade right of the diagonal; the first row reaching
    # the overall least holds the first least pair in row-major order
    entries = sys.grades.entries
    tails = [min(row[x + 1 :]) for x, row in enumerate(entries[:-1])]
    bound: Grade = min(tails, default=TOP)
    if bound >= sys.window.lo:
        return AxiomReport("r5", True, None, bound)
    x = tails.index(bound)
    return AxiomReport("r5", False, (x, entries[x].index(bound, x + 1)), bound)


def _is_partition(rows: Sequence[int]) -> bool:
    """Whether a level's rows are an equivalence relation.

    Every level-table row holds its own point and the rows are symmetric,
    so the level is transitive exactly when its distinct rows are
    pairwise disjoint: when their sizes add up to the point count.
    """
    return sum(map(int.bit_count, set(rows))) == len(rows)


def _check_composition_steps(sys: RelationalSystem, steps: int) -> AxiomReport:
    """r9 (steps 2) or r10 (steps 3) over the levels [lo, hi + 1].

    An equivalence level is its own square and cube and lies inside the
    level below it, so it cannot fail and is skipped before composing; the
    diagonal at hi + 1 is one.  Every other level composes its rows, and
    the first whose power leaves the level below gives the witness.
    """
    axiom_id = "r9" if steps == 2 else "r10"
    # table[i] is level below + i: each level in [lo, hi + 1] with the one under it
    table = sys.level_table()
    for n, (prev, rows) in enumerate(zip(table, table[1:]), sys.window.lo):
        if _is_partition(rows):
            continue
        power = rows
        for _ in range(steps - 1):
            power = _compose_rows(power, rows)
        for x in range(sys.n):
            extra = power[x] & ~prev[x]
            if not extra:
                continue
            y = next(iter_bits(extra))
            witness = _chain_witness(rows, x, y, steps)
            return AxiomReport(axiom_id, False, (n, *witness))
    return AxiomReport(axiom_id, True)


def _chain_witness(rows: tuple[int, ...], x: int, y: int, steps: int) -> tuple:
    """First chain x .. y of the given length inside a level, endpoints included."""
    if steps == 2:
        for z in iter_bits(rows[x]):
            if rows[z] >> y & 1:
                return (x, z, y)
    else:
        for z in iter_bits(rows[x]):
            for w in iter_bits(rows[z]):
                if rows[w] >> y & 1:
                    return (x, z, w, y)
    raise AssertionError("composition witness vanished")  # pragma: no cover


def _check_transitive(sys: RelationalSystem) -> AxiomReport:
    # a level passes by its partition count; the first that fails is
    # walked for its witness, the first x and z in x's row with a point
    # y in z's row outside x's
    for n, rows in enumerate(sys.level_table()[1:-1], sys.window.lo):
        if _is_partition(rows):
            continue
        for x, row in enumerate(rows):
            for z in iter_bits(row):
                extra = rows[z] & ~row
                if extra:
                    y = next(iter_bits(extra))
                    return AxiomReport("transitive", False, (n, x, z, y))
    return AxiomReport("transitive", True)


_CHECKS: dict[str, Callable[[RelationalSystem], AxiomReport]] = {
    "r5": _check_bounded,
    "r9": partial(_check_composition_steps, steps=2),
    "r10": partial(_check_composition_steps, steps=3),
    "transitive": _check_transitive,
}
