"""Negative tests: malformed format arrays must raise FormatError."""

import numpy as np
import pytest

from repro.errors import FormatError, ShapeError
from repro.formats import (
    COOMatrix,
    CSBMatrix,
    CSCMatrix,
    CSRMatrix,
    SPC5Matrix,
    SellCSigmaMatrix,
)
from repro.formats.base import first_unsorted_segment


class TestCOOValidation:
    def test_mismatched_lengths(self):
        with pytest.raises(FormatError):
            COOMatrix((3, 3), [0, 1], [0], [1.0])

    def test_row_out_of_range(self):
        with pytest.raises(FormatError):
            COOMatrix((3, 3), [3], [0], [1.0])

    def test_col_out_of_range(self):
        with pytest.raises(FormatError):
            COOMatrix((3, 3), [0], [3], [1.0])

    def test_negative_index(self):
        with pytest.raises(FormatError):
            COOMatrix((3, 3), [-1], [0], [1.0])

    def test_bad_shape(self):
        with pytest.raises(ShapeError):
            COOMatrix((3,), [0], [0], [1.0])
        with pytest.raises(ShapeError):
            COOMatrix((-1, 3), [], [], [])

    def test_non_integral_indices(self):
        with pytest.raises(FormatError):
            COOMatrix((3, 3), [0.5], [0], [1.0])

    def test_dense_must_be_2d(self):
        with pytest.raises(FormatError):
            COOMatrix.from_dense(np.zeros(4))


class TestCSRValidation:
    def test_row_ptr_wrong_length(self):
        with pytest.raises(FormatError):
            CSRMatrix((2, 2), [0, 1], [0], [1.0])

    def test_row_ptr_not_starting_at_zero(self):
        with pytest.raises(FormatError):
            CSRMatrix((2, 2), [1, 1, 1], [0], [1.0])

    def test_row_ptr_decreasing(self):
        with pytest.raises(FormatError):
            CSRMatrix((2, 2), [0, 2, 1], [0, 1], [1.0, 2.0])

    def test_row_ptr_nnz_mismatch(self):
        with pytest.raises(FormatError):
            CSRMatrix((2, 2), [0, 1, 3], [0, 1], [1.0, 2.0])

    def test_col_out_of_range(self):
        with pytest.raises(FormatError):
            CSRMatrix((2, 2), [0, 1, 1], [5], [1.0])

    def test_unsorted_columns_in_row(self):
        with pytest.raises(FormatError):
            CSRMatrix((1, 4), [0, 2], [2, 1], [1.0, 2.0])

    def test_duplicate_columns_in_row(self):
        with pytest.raises(FormatError):
            CSRMatrix((1, 4), [0, 2], [1, 1], [1.0, 2.0])

    def test_message_names_the_first_unsorted_row(self):
        with pytest.raises(FormatError) as exc:
            CSRMatrix((4, 4), [0, 1, 2, 4, 6], [0, 1, 3, 2, 0, 3], np.ones(6))
        assert str(exc.value) == (
            "row 2 columns are not strictly increasing; "
            "duplicates or unsorted entries are not valid CSR"
        )

    def test_row_may_start_below_previous_rows_last_column(self):
        m = CSRMatrix((2, 4), [0, 2, 4], [1, 3, 0, 2], [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(
            m.to_dense(), [[0, 1, 0, 2], [3, 0, 4, 0]]
        )

    def test_leading_interior_and_trailing_empty_rows(self):
        m = CSRMatrix(
            (6, 4), [0, 0, 0, 2, 2, 4, 4], [1, 3, 0, 2], [1.0, 2.0, 3.0, 4.0]
        )
        assert m.nnz_per_row().tolist() == [0, 0, 2, 0, 2, 0]

    def test_unsorted_last_row_after_leading_empty_rows(self):
        # a leading empty row starts at 0; masking "the pair before it"
        # must not wrap around and hide the last pair of the array
        with pytest.raises(FormatError, match="^row 2 "):
            CSRMatrix((3, 4), [0, 0, 0, 2], [3, 1], [1.0, 2.0])

    def test_spmv_reference_shape_check(self):
        csr = CSRMatrix.from_dense(np.eye(3))
        with pytest.raises(FormatError):
            csr.spmv_reference(np.zeros(4))


class TestCSCValidation:
    def test_col_ptr_wrong_length(self):
        with pytest.raises(FormatError):
            CSCMatrix((2, 2), [0, 1], [0], [1.0])

    def test_row_out_of_range(self):
        with pytest.raises(FormatError):
            CSCMatrix((2, 2), [0, 1, 1], [4], [1.0])

    def test_unsorted_rows_in_column(self):
        with pytest.raises(FormatError):
            CSCMatrix((4, 1), [0, 2], [2, 1], [1.0, 2.0])

    def test_duplicate_row_in_column(self):
        with pytest.raises(FormatError) as exc:
            CSCMatrix((4, 3), [0, 1, 3, 4], [0, 2, 2, 1], np.ones(4))
        assert str(exc.value) == (
            "column 1 rows are not strictly increasing; "
            "duplicates or unsorted entries are not valid CSC"
        )


def _first_unsorted_by_loop(ptr, idx):
    for seg in range(ptr.size - 1):
        if np.any(np.diff(idx[ptr[seg] : ptr[seg + 1]]) <= 0):
            return seg
    return None


@pytest.mark.parametrize("seed", range(40))
def test_first_unsorted_segment_matches_a_per_segment_loop(seed):
    """Random segmentations with many empty segments, where odd seeds
    reverse or flatten some segments: the one-``np.diff`` check finds the
    same segment as a loop over the segments."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, 6, size=int(rng.integers(0, 12)))
    lengths[rng.random(lengths.size) < 0.4] = 0
    ptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    segs = [np.sort(rng.choice(12, size=n, replace=False)) for n in lengths]
    if seed % 2:
        segs = [
            seg[::-1] if roll < 0.25 else np.repeat(seg[:1], seg.size) if roll < 0.4 else seg
            for seg, roll in zip(segs, rng.random(len(segs)))
        ]
    idx = np.concatenate(segs + [np.zeros(0)]).astype(np.int64)
    assert first_unsorted_segment(ptr, idx) == _first_unsorted_by_loop(ptr, idx)


class TestCSBValidation:
    def test_bad_block_size(self):
        with pytest.raises(FormatError):
            CSBMatrix.from_dense(np.eye(4), block_size=0)

    def test_empty_block_rejected(self):
        with pytest.raises(FormatError):
            CSBMatrix((4, 4), 2, [0, 0], [0], [0], [], [])

    def test_merged_index_out_of_range(self):
        with pytest.raises(FormatError):
            CSBMatrix((4, 4), 2, [0, 1], [0], [0], [100], [1.0])

    def test_block_coord_out_of_range(self):
        with pytest.raises(FormatError):
            CSBMatrix((4, 4), 2, [0, 1], [9], [0], [0], [1.0])


class TestSPC5Validation:
    def test_bad_vl(self):
        with pytest.raises(FormatError):
            SPC5Matrix.from_dense(np.eye(4), vl=0)
        with pytest.raises(FormatError):
            SPC5Matrix.from_dense(np.eye(4), vl=65)

    def test_zero_mask_rejected(self):
        with pytest.raises(FormatError):
            SPC5Matrix((2, 8), 8, [0], [0], [0], [0, 0], [])

    def test_mask_popcount_mismatch(self):
        with pytest.raises(FormatError):
            SPC5Matrix((2, 8), 8, [0], [0], [0b11], [0, 1], [1.0])


class TestSellCSValidation:
    def test_sigma_smaller_than_c(self):
        with pytest.raises(FormatError):
            SellCSigmaMatrix.from_dense(np.eye(4), c=8, sigma=4)

    def test_perm_must_be_permutation(self):
        with pytest.raises(FormatError):
            SellCSigmaMatrix(
                (2, 2), 2, 2, [0, 0], [0, 2], [1], [1, 1], [0, 0], [1.0, 1.0]
            )
