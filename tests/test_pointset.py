"""PointSet construction and ground-set checks."""

import pytest

from gradedrel import PointSet, StructuralInputError


class TestConstructor:
    @pytest.mark.parametrize("n", [-1, -8])
    def test_negative_size_is_rejected(self, n):
        with pytest.raises(StructuralInputError, match=f"negative ground-set size {n}"):
            PointSet(n, 0)

    @pytest.mark.parametrize(
        "n, bits", [(0, 1), (3, 8), (3, 0xFF), (8, 1 << 8), (3, -1)]
    )
    def test_mask_out_of_range_is_rejected(self, n, bits):
        with pytest.raises(StructuralInputError, match=f"out of range for {n} points"):
            PointSet(n, bits)

    @pytest.mark.parametrize("n, bits", [(0, 0), (3, 0), (3, 7), (9, 1 << 8)])
    def test_masks_in_range_are_kept(self, n, bits):
        assert PointSet(n, bits).bits == bits


class TestSubsetOf:
    def test_same_ground(self):
        small, big = PointSet(4, 0b0101), PointSet(4, 0b1101)
        assert small.subset_of(big)
        assert not big.subset_of(small)
        assert small.subset_of(small)

    @pytest.mark.parametrize("n, m", [(3, 4), (4, 3), (0, 1)])
    def test_ground_size_mismatch_is_rejected(self, n, m):
        with pytest.raises(StructuralInputError, match=f"ground-set size mismatch: {n} vs {m}"):
            PointSet(n, 0).subset_of(PointSet(m, 0))
