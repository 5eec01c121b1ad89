"""Golden (untimed) kernel implementations used for functional checking.

Every timed kernel in this package computes its real output while narrating
its execution to the machine model; the tests compare those outputs against
the plain-numpy implementations here.  They favour being obviously right
over being fast: :func:`spmm` multiplies dense copies of its operands.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.formats.base import SparseFormat
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix


def spmv(matrix: SparseFormat, x: np.ndarray) -> np.ndarray:
    """Golden ``y = A @ x``."""
    csr = CSRMatrix.from_coo(matrix.to_coo())
    return csr.spmv_reference(np.asarray(x, dtype=float))


def spma(a: SparseFormat, b: SparseFormat) -> COOMatrix:
    """Golden ``C = A + B`` for same-shape sparse operands."""
    if a.shape != b.shape:
        raise ShapeError(f"SpMA operands differ in shape: {a.shape} vs {b.shape}")
    ca, cb = a.to_coo(), b.to_coo()
    return COOMatrix(
        a.shape,
        np.concatenate([ca.row, cb.row]),
        np.concatenate([ca.col, cb.col]),
        np.concatenate([ca.data, cb.data]),
    )


def spmm(a: SparseFormat, b: SparseFormat) -> COOMatrix:
    """Golden ``C = A @ B`` (dense product of the sparse operands)."""
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"SpMM inner dimensions differ: {a.shape} @ {b.shape}"
        )
    dense = a.to_dense() @ b.to_dense()
    return COOMatrix.from_dense(dense)


def histogram(keys: np.ndarray, num_bins: int) -> np.ndarray:
    """Golden histogram: count occurrences of each key in ``[0, num_bins)``."""
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size and (keys.min() < 0 or keys.max() >= num_bins):
        raise ShapeError("histogram keys out of range")
    return np.bincount(keys, minlength=num_bins).astype(np.int64)


def gaussian_filter(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Golden 'valid' 2-D convolution (correlation) of image with kernel."""
    image = np.asarray(image, dtype=float)
    kernel = np.asarray(kernel, dtype=float)
    if image.ndim != 2 or kernel.ndim != 2:
        raise ShapeError("image and kernel must be 2-D")
    kh, kw = kernel.shape
    oh, ow = image.shape[0] - kh + 1, image.shape[1] - kw + 1
    if oh <= 0 or ow <= 0:
        raise ShapeError("kernel larger than image")
    out = np.zeros((oh, ow))
    for di in range(kh):
        for dj in range(kw):
            out += kernel[di, dj] * image[di : di + oh, dj : dj + ow]
    return out


def gaussian_kernel_4x4() -> np.ndarray:
    """The paper's 4x4 Gaussian convolution filter (binomial weights)."""
    row = np.array([1.0, 3.0, 3.0, 1.0])
    k = np.outer(row, row)
    return k / k.sum()
