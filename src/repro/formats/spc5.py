"""SPC5-style row-block format — Section V-B baseline (Bramas et al.).

SPC5 packs the non-zeros of each row into blocks of at most ``vl``
consecutive *column positions*, described by a start column and a bitmask of
occupied positions.  Unlike zero-padded formats it stores only the actual
values; the mask tells the vector unit which lanes are active.  This is the
``1rVc`` flavour of SPC5 (one row, ``vl`` columns per block), the variant the
SPC5 authors report as the best general performer for AVX-512.

Arrays
------
* ``block_row``   — row of each block;
* ``block_col``   — first column position covered by each block;
* ``block_mask``  — ``vl``-bit occupancy mask (bit *i* set means column
  ``block_col + i`` holds a stored value);
* ``block_ptr``   — start of each block's values in ``data``;
* ``data``        — stored values, block-major, column order within a block.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.errors import FormatError
from repro.formats.base import (
    SparseFormat,
    as_index_array,
    as_value_array,
    check_shape,
)
from repro.formats.coo import COOMatrix

DEFAULT_VL = 8


class SPC5Matrix(SparseFormat):
    """SPC5 ``1rVc`` row-block matrix with per-block occupancy masks."""

    format_name = "spc5"

    def __init__(self, shape, vl, block_row, block_col, block_mask, block_ptr, data):
        self._shape = check_shape(shape)
        self._vl = int(vl)
        if self._vl <= 0 or self._vl > 64:
            raise FormatError(f"vl must be in [1, 64], got {vl}")
        self._block_row = as_index_array(block_row, "block_row")
        self._block_col = as_index_array(block_col, "block_col")
        self._block_mask = as_index_array(block_mask, "block_mask")
        self._block_ptr = as_index_array(block_ptr, "block_ptr")
        self._data = as_value_array(data, "data")
        self._validate()

    def _validate(self) -> None:
        rows, cols = self._shape
        nb = self._block_row.size
        if not (self._block_col.size == self._block_mask.size == nb):
            raise FormatError("block arrays must have equal lengths")
        if self._block_ptr.size != nb + 1:
            raise FormatError(
                f"block_ptr must have length num_blocks+1={nb + 1}, "
                f"got {self._block_ptr.size}"
            )
        if self._block_ptr.size and self._block_ptr[0] != 0:
            raise FormatError("block_ptr[0] must be 0")
        if np.any(np.diff(self._block_ptr) < 0):
            raise FormatError("block_ptr must be non-decreasing")
        if self._block_ptr.size and self._block_ptr[-1] != self._data.size:
            raise FormatError("block_ptr[-1] does not match data length")
        if nb:
            if self._block_row.min() < 0 or self._block_row.max() >= rows:
                raise FormatError("block_row out of range")
            if self._block_col.min() < 0 or self._block_col.max() >= cols:
                raise FormatError("block_col out of range")
            if self._block_mask.min() <= 0:
                raise FormatError("empty blocks (mask == 0) must not be stored")
            if self._block_mask.max() >= (1 << self._vl):
                raise FormatError(f"block_mask wider than vl={self._vl} bits")
        pops = _popcount(self._block_mask)
        if not np.array_equal(pops, np.diff(self._block_ptr)):
            raise FormatError("mask popcounts disagree with block_ptr extents")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, coo: COOMatrix, *, vl: int = DEFAULT_VL) -> "SPC5Matrix":
        vl = int(vl)
        if vl <= 0 or vl > 64:
            raise FormatError(f"vl must be in [1, 64], got {vl}")
        if coo.nnz == 0:
            return cls(coo.shape, vl, [], [], [], [0], [])
        # COO canonical order is row-major, col-minor: exactly block order.
        row, col, data = coo.row, coo.col, coo.data
        block_rows, block_cols, block_masks, block_ptr = [], [], [], [0]
        i, n = 0, row.size
        while i < n:
            r, c0 = int(row[i]), int(col[i])
            mask = 0
            j = i
            while j < n and row[j] == r and col[j] - c0 < vl:
                mask |= 1 << int(col[j] - c0)
                j += 1
            block_rows.append(r)
            block_cols.append(c0)
            block_masks.append(mask)
            block_ptr.append(j)
            i = j
        return cls(
            coo.shape, vl, block_rows, block_cols, block_masks, block_ptr, data
        )

    @classmethod
    def from_dense(cls, dense, *, vl: int = DEFAULT_VL) -> "SPC5Matrix":
        return cls.from_coo(COOMatrix.from_dense(dense), vl=vl)

    # ------------------------------------------------------------------
    # SparseFormat interface
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        return int(self._data.size)

    def to_coo(self) -> COOMatrix:
        rows, cols, vals = [], [], []
        for b in range(self.num_blocks):
            r = int(self._block_row[b])
            c0 = int(self._block_col[b])
            mask = int(self._block_mask[b])
            lo = int(self._block_ptr[b])
            k = 0
            for lane in range(self._vl):
                if mask >> lane & 1:
                    rows.append(r)
                    cols.append(c0 + lane)
                    vals.append(self._data[lo + k])
                    k += 1
        return COOMatrix(self._shape, rows, cols, vals)

    # ------------------------------------------------------------------
    # SPC5-specific accessors
    # ------------------------------------------------------------------
    @property
    def vl(self) -> int:
        """Block width in column positions (the vector length)."""
        return self._vl

    @property
    def num_blocks(self) -> int:
        return int(self._block_row.size)

    @property
    def block_row(self) -> np.ndarray:
        return self._block_row

    @property
    def block_col(self) -> np.ndarray:
        return self._block_col

    @property
    def block_mask(self) -> np.ndarray:
        return self._block_mask

    @property
    def block_ptr(self) -> np.ndarray:
        return self._block_ptr

    @property
    def data(self) -> np.ndarray:
        return self._data

    def iter_blocks(self) -> Iterator[Tuple[int, int, int, np.ndarray]]:
        """Yield ``(row, col_start, mask, values)`` per block."""
        for b in range(self.num_blocks):
            lo, hi = int(self._block_ptr[b]), int(self._block_ptr[b + 1])
            yield (
                int(self._block_row[b]),
                int(self._block_col[b]),
                int(self._block_mask[b]),
                self._data[lo:hi],
            )

    def block_lane_cols(self, b: int) -> np.ndarray:
        """Absolute column index of every stored value in block ``b``."""
        mask = int(self._block_mask[b])
        lanes = np.flatnonzero(
            (mask >> np.arange(self._vl, dtype=np.int64)) & 1
        )
        return self._block_col[b] + lanes

    def fill_ratio(self) -> float:
        """Average fraction of occupied lanes per block (1.0 = dense blocks)."""
        if self.num_blocks == 0:
            return 0.0
        return float(self.nnz) / (self.num_blocks * self._vl)


def _popcount(masks: np.ndarray) -> np.ndarray:
    """Vectorized population count for int64 masks."""
    out = np.zeros_like(masks)
    work = masks.copy()
    while np.any(work):
        out += work & 1
        work >>= 1
    return out
