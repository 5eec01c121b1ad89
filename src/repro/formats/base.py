"""Common machinery shared by every sparse-matrix compressed format.

The paper (Section II-A/II-B) works with members of the *compressed sparse*
family (CSR, CSC), block-based formats (CSB, SPC5) and the SIMD-friendly
Sell-C-sigma format.  Each of those is implemented from scratch in this
package as a concrete subclass of :class:`SparseFormat`.

Design notes
------------
* COO (:mod:`repro.formats.coo`) is the canonical interchange format: every
  format can produce and consume it, which gives all pairwise conversions
  for free (see :mod:`repro.formats.convert`).
* All index arrays use ``numpy.int64`` and all value arrays ``numpy.float64``
  unless a caller explicitly provides another dtype.  The hardware model only
  depends on element *counts*, not on dtypes, so this choice is purely for
  numerical reproducibility of the functional results.
* Formats are immutable after construction.  Mutating algorithms (e.g. SpMA)
  build fresh result matrices.
"""

from __future__ import annotations

import abc
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import FormatError, ShapeError

INDEX_DTYPE = np.int64
VALUE_DTYPE = np.float64


def as_index_array(values, name: str) -> np.ndarray:
    """Coerce ``values`` to a 1-D int64 array, validating integrality.

    Raises :class:`FormatError` if the input has a floating dtype with
    non-integral entries or is not one-dimensional.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise FormatError(f"{name} must be one-dimensional, got ndim={arr.ndim}")
    if arr.dtype.kind == "f":
        if arr.size and not np.all(arr == np.floor(arr)):
            raise FormatError(f"{name} contains non-integral values")
    elif arr.dtype.kind not in ("i", "u"):
        raise FormatError(f"{name} must be integer-typed, got dtype={arr.dtype}")
    return arr.astype(INDEX_DTYPE, copy=False)


def as_value_array(values, name: str) -> np.ndarray:
    """Coerce ``values`` to a 1-D float64 array."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise FormatError(f"{name} must be one-dimensional, got ndim={arr.ndim}")
    return arr.astype(VALUE_DTYPE, copy=False)


def check_shape(shape) -> Tuple[int, int]:
    """Validate a ``(rows, cols)`` shape tuple."""
    try:
        rows, cols = shape
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"shape must be a (rows, cols) pair, got {shape!r}") from exc
    rows, cols = int(rows), int(cols)
    if rows < 0 or cols < 0:
        raise ShapeError(f"shape must be non-negative, got {(rows, cols)}")
    return rows, cols


def first_unsorted_segment(ptr: np.ndarray, idx: np.ndarray) -> Optional[int]:
    """First segment of ``idx`` whose entries are not strictly increasing.

    ``ptr`` delimits the segments (CSR rows, CSC columns) and must already
    be valid: it starts at 0, never decreases and ends at ``idx.size``.  One
    ``np.diff`` compares every neighbouring pair; the pairs that straddle a
    segment start are masked out.  Returns ``None`` when every segment is
    sorted.
    """
    if idx.size < 2:
        return None
    bad = np.diff(idx) <= 0
    # pair k straddles a segment starting at k + 1; empty segments at either
    # end start at 0 or idx.size, which begin no pair (and 0 - 1 would wrap)
    starts = ptr[1:-1]
    bad[starts[(starts > 0) & (starts < idx.size)] - 1] = False
    hits = np.flatnonzero(bad)
    if not hits.size:
        return None
    # the last segment starting at or before the pair's first element; with
    # empty segments sharing that start, this is the non-empty one
    return int(np.searchsorted(ptr, hits[0], side="right")) - 1


class SparseFormat(abc.ABC):
    """Abstract base for all compressed sparse-matrix representations.

    Concrete formats expose at least:

    * :attr:`shape` — ``(rows, cols)``
    * :attr:`nnz` — number of explicitly stored non-zero entries
    * :meth:`to_coo` — convert to the canonical COO interchange format
    * :meth:`from_coo` — build from COO (classmethod)

    Everything else (dense conversion, equality, iteration) is derived.
    """

    #: short lowercase identifier used by :func:`repro.formats.convert.convert`
    format_name: str = "abstract"

    @property
    @abc.abstractmethod
    def shape(self) -> Tuple[int, int]:
        """Matrix dimensions as ``(rows, cols)``."""

    @property
    @abc.abstractmethod
    def nnz(self) -> int:
        """Number of stored non-zero entries."""

    @abc.abstractmethod
    def to_coo(self):
        """Return an equivalent :class:`repro.formats.coo.COOMatrix`."""

    @classmethod
    @abc.abstractmethod
    def from_coo(cls, coo, **kwargs):
        """Build this format from a :class:`repro.formats.coo.COOMatrix`."""

    # ------------------------------------------------------------------
    # Derived helpers
    # ------------------------------------------------------------------
    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    @property
    def density(self) -> float:
        """Fraction of matrix positions that hold a stored entry."""
        cells = self.rows * self.cols
        return self.nnz / cells if cells else 0.0

    def to_dense(self) -> np.ndarray:
        """Materialize the matrix as a dense 2-D float64 array."""
        return self.to_coo().to_dense()

    def nnz_per_row(self) -> np.ndarray:
        """Histogram of stored entries per row (length ``rows``)."""
        coo = self.to_coo()
        return np.bincount(coo.row, minlength=self.rows).astype(INDEX_DTYPE)

    def iter_entries(self) -> Iterator[Tuple[int, int, float]]:
        """Yield ``(row, col, value)`` triples in COO canonical order."""
        coo = self.to_coo()
        for r, c, v in zip(coo.row, coo.col, coo.data):
            yield int(r), int(c), float(v)

    def allclose(self, other: "SparseFormat", rtol: float = 1e-9, atol: float = 1e-12) -> bool:
        """True when both matrices hold numerically equal entries.

        Comparison happens through canonicalized COO, so it is independent
        of the concrete storage formats involved.
        """
        if self.shape != other.shape:
            return False
        a, b = self.to_coo(), other.to_coo()
        if a.nnz != b.nnz:
            # Entries that canceled to zero may legitimately differ; fall
            # back to dense comparison for small matrices only.
            return bool(np.allclose(a.to_dense(), b.to_dense(), rtol=rtol, atol=atol))
        return (
            bool(np.array_equal(a.row, b.row))
            and bool(np.array_equal(a.col, b.col))
            and bool(np.allclose(a.data, b.data, rtol=rtol, atol=atol))
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} shape={self.shape} nnz={self.nnz} "
            f"density={self.density:.3%}>"
        )
