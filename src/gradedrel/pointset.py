"""Value types over a fixed finite ground set {0..n-1}: subsets stored as
bitmasks, and total self-maps stored as image tuples."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import StructuralInputError


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of a nonnegative mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class PointSet:
    """Subset of points {0..n-1}; bit i set means point i is a member."""

    n: int
    bits: int

    def __post_init__(self):
        if self.n < 0:
            raise StructuralInputError(f"negative ground-set size {self.n}")
        if not 0 <= self.bits < (1 << self.n):
            raise StructuralInputError(
                f"bitmask {self.bits:#x} out of range for {self.n} points"
            )

    @classmethod
    def empty(cls, n: int) -> "PointSet":
        return cls(n, 0)

    @classmethod
    def of(cls, n: int, members: Iterable[int]) -> "PointSet":
        bits = 0
        for x in members:
            if not 0 <= x < n:
                raise IndexError(f"point {x} out of range for {n} points")
            bits |= 1 << x
        return cls(n, bits)

    def members(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.bits))

    def __contains__(self, x: int) -> bool:
        return 0 <= x < self.n and bool((self.bits >> x) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def subset_of(self, other: "PointSet") -> bool:
        self._check_same_ground(other)
        return self.bits & ~other.bits == 0

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    def canonical_key(self) -> tuple[int, tuple[int, ...]]:
        """Ordering key: by size, then lexicographically by members."""
        return (len(self), self.members())

    def _check_same_ground(self, other: "PointSet") -> None:
        if self.n != other.n:
            raise StructuralInputError(
                f"ground-set size mismatch: {self.n} vs {other.n}"
            )


@dataclass(frozen=True)
class SelfMap:
    """Total map on {0..n-1}, stored as the image tuple."""

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if n < 1:
            raise StructuralInputError(f"point count must be positive, got {n}")
        for x, y in enumerate(self.image):
            if not 0 <= y < n:
                raise StructuralInputError(
                    f"image of {x} is {y}, outside the {n}-point ground set"
                )

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, x: int) -> int:
        if not 0 <= x < self.n:
            raise IndexError(f"point {x} out of range for {self.n} points")
        return self.image[x]


def identity_map(n: int) -> SelfMap:
    return SelfMap(tuple(range(n)))
