"""CSR (Compressed Sparse Row) — Section II-A of the paper.

CSR uses three arrays:

* ``row_ptr`` — index of the first entry of each row within the other two
  arrays (length ``rows + 1``);
* ``col_idx`` — column index of each stored entry;
* ``data``    — value of each stored entry.

It is the representation used by Eigen and most sparse libraries, and the
baseline format for the paper's SpMA and SpMM kernels (Algorithms 2 and 3).
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np
import numpy.typing as npt

from repro.errors import FormatError
from repro.formats.base import (
    INDEX_DTYPE,
    SparseFormat,
    as_index_array,
    as_value_array,
    check_shape,
    first_unsorted_segment,
)
from repro.formats.coo import COOMatrix


class CSRMatrix(SparseFormat):
    """Compressed Sparse Row matrix.

    Entries within a row are kept sorted by column index — the invariant the
    merge-based SpMA kernel (Algorithm 2) and the index-matching SpMM kernel
    (Algorithm 3) both rely on.
    """

    format_name = "csr"

    def __init__(self, shape: Tuple[int, int], row_ptr: npt.ArrayLike,
                 col_idx: npt.ArrayLike, data: npt.ArrayLike) -> None:
        self._shape = check_shape(shape)
        self._row_ptr = as_index_array(row_ptr, "row_ptr")
        self._col_idx = as_index_array(col_idx, "col_idx")
        self._data = as_value_array(data, "data")
        self._validate()

    def _validate(self) -> None:
        rows, cols = self._shape
        rp = self._row_ptr
        if rp.size != rows + 1:
            raise FormatError(
                f"row_ptr must have length rows+1={rows + 1}, got {rp.size}"
            )
        if rp.size and rp[0] != 0:
            raise FormatError("row_ptr[0] must be 0")
        if np.any(np.diff(rp) < 0):
            raise FormatError("row_ptr must be non-decreasing")
        if self._col_idx.size != self._data.size:
            raise FormatError("col_idx and data must have equal lengths")
        if rp.size and rp[-1] != self._col_idx.size:
            raise FormatError(
                f"row_ptr[-1]={int(rp[-1])} does not match nnz={self._col_idx.size}"
            )
        ci = self._col_idx
        if ci.size:
            if ci.min() < 0 or ci.max() >= cols:
                raise FormatError("col_idx out of range")
        bad = first_unsorted_segment(rp, ci)
        if bad is not None:
            raise FormatError(
                f"row {bad} columns are not strictly increasing; "
                "duplicates or unsorted entries are not valid CSR"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, coo: COOMatrix, **kwargs) -> "CSRMatrix":
        rows, _cols = coo.shape
        row_ptr = np.zeros(rows + 1, dtype=INDEX_DTYPE)
        np.add.at(row_ptr, coo.row + 1, 1)
        np.cumsum(row_ptr, out=row_ptr)
        # COO canonical order is already row-major / col-minor
        return cls(coo.shape, row_ptr, coo.col.copy(), coo.data.copy())

    @classmethod
    def from_dense(cls, dense) -> "CSRMatrix":
        return cls.from_coo(COOMatrix.from_dense(dense))

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
        rows = np.repeat(
            np.arange(self._shape[0], dtype=INDEX_DTYPE), np.diff(self._row_ptr)
        )
        return COOMatrix(self._shape, rows, self._col_idx, self._data)

    # ------------------------------------------------------------------
    # Raw array access (used by the timed kernels)
    # ------------------------------------------------------------------
    @property
    def row_ptr(self) -> np.ndarray:
        return self._row_ptr

    @property
    def col_idx(self) -> np.ndarray:
        return self._col_idx

    @property
    def data(self) -> np.ndarray:
        return self._data

    def row_slice(self, r: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(col_idx, data)`` views of row ``r``."""
        lo, hi = int(self._row_ptr[r]), int(self._row_ptr[r + 1])
        return self._col_idx[lo:hi], self._data[lo:hi]

    def iter_rows(self) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(row, col_idx, data)`` for every row, including empty ones."""
        for r in range(self._shape[0]):
            cols, vals = self.row_slice(r)
            yield r, cols, vals

    def row_lengths(self) -> np.ndarray:
        """Number of stored entries in every row."""
        return np.diff(self._row_ptr)

    def transpose(self):
        """Transpose as a :class:`repro.formats.csc.CSCMatrix` (free swap)."""
        from repro.formats.csc import CSCMatrix

        return CSCMatrix(
            (self._shape[1], self._shape[0]),
            self._row_ptr.copy(),
            self._col_idx.copy(),
            self._data.copy(),
        )

    def spmv_reference(self, x: np.ndarray) -> np.ndarray:
        """Golden ``y = A @ x`` used to verify timed SpMV kernels."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self._shape[1],):
            raise FormatError(
                f"x must have shape ({self._shape[1]},), got {x.shape}"
            )
        y = np.zeros(self._shape[0], dtype=float)
        rows = np.repeat(
            np.arange(self._shape[0], dtype=INDEX_DTYPE), np.diff(self._row_ptr)
        )
        np.add.at(y, rows, self._data * x[self._col_idx])
        return y
