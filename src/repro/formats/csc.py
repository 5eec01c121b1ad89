"""CSC (Compressed Sparse Column) — Section II-A of the paper.

CSC mirrors CSR with the roles of rows and columns swapped: ``col_ptr``
delimits columns, ``row_idx`` stores the row index of each entry.  The
paper's SpMM kernel (Algorithm 3) traverses matrix ``B`` column-major in CSC
while ``A`` is traversed row-major in CSR.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

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


class CSCMatrix(SparseFormat):
    """Compressed Sparse Column matrix with sorted intra-column rows."""

    format_name = "csc"

    def __init__(self, shape, col_ptr, row_idx, data):
        self._shape = check_shape(shape)
        self._col_ptr = as_index_array(col_ptr, "col_ptr")
        self._row_idx = as_index_array(row_idx, "row_idx")
        self._data = as_value_array(data, "data")
        self._validate()

    def _validate(self) -> None:
        rows, cols = self._shape
        cp = self._col_ptr
        if cp.size != cols + 1:
            raise FormatError(
                f"col_ptr must have length cols+1={cols + 1}, got {cp.size}"
            )
        if cp.size and cp[0] != 0:
            raise FormatError("col_ptr[0] must be 0")
        if np.any(np.diff(cp) < 0):
            raise FormatError("col_ptr must be non-decreasing")
        if self._row_idx.size != self._data.size:
            raise FormatError("row_idx and data must have equal lengths")
        if cp.size and cp[-1] != self._row_idx.size:
            raise FormatError(
                f"col_ptr[-1]={int(cp[-1])} does not match nnz={self._row_idx.size}"
            )
        ri = self._row_idx
        if ri.size and (ri.min() < 0 or ri.max() >= rows):
            raise FormatError("row_idx out of range")
        bad = first_unsorted_segment(cp, ri)
        if bad is not None:
            raise FormatError(
                f"column {bad} rows are not strictly increasing; "
                "duplicates or unsorted entries are not valid CSC"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, coo: COOMatrix, **kwargs) -> "CSCMatrix":
        _rows, cols = coo.shape
        order = np.lexsort((coo.row, coo.col))
        col_sorted = coo.col[order]
        col_ptr = np.zeros(cols + 1, dtype=INDEX_DTYPE)
        np.add.at(col_ptr, col_sorted + 1, 1)
        np.cumsum(col_ptr, out=col_ptr)
        return cls(coo.shape, col_ptr, coo.row[order], coo.data[order])

    @classmethod
    def from_dense(cls, dense) -> "CSCMatrix":
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
        cols = np.repeat(
            np.arange(self._shape[1], dtype=INDEX_DTYPE), np.diff(self._col_ptr)
        )
        return COOMatrix(self._shape, self._row_idx, cols, self._data)

    # ------------------------------------------------------------------
    # Raw array access
    # ------------------------------------------------------------------
    @property
    def col_ptr(self) -> np.ndarray:
        return self._col_ptr

    @property
    def row_idx(self) -> np.ndarray:
        return self._row_idx

    @property
    def data(self) -> np.ndarray:
        return self._data

    def col_slice(self, c: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(row_idx, data)`` views of column ``c``."""
        lo, hi = int(self._col_ptr[c]), int(self._col_ptr[c + 1])
        return self._row_idx[lo:hi], self._data[lo:hi]

    def iter_cols(self) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(col, row_idx, data)`` for every column."""
        for c in range(self._shape[1]):
            rows, vals = self.col_slice(c)
            yield c, rows, vals

    def col_lengths(self) -> np.ndarray:
        """Number of stored entries in every column."""
        return np.diff(self._col_ptr)

    def transpose(self):
        """Transpose as a :class:`repro.formats.csr.CSRMatrix` (free swap)."""
        from repro.formats.csr import CSRMatrix

        return CSRMatrix(
            (self._shape[1], self._shape[0]),
            self._col_ptr.copy(),
            self._row_idx.copy(),
            self._data.copy(),
        )
