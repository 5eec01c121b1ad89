"""Tests for the golden reference kernels (cross-checked against scipy)."""

import numpy as np
import pytest

scipy_sparse = pytest.importorskip("scipy.sparse")

from repro.errors import ShapeError
from repro.formats import COOMatrix
from repro.kernels import reference
from repro.matrices import random_uniform


def scipy_of(coo):
    return scipy_sparse.coo_matrix(
        (coo.data, (coo.row, coo.col)), shape=coo.shape
    ).tocsr()


class TestSpmvReference:
    def test_matches_scipy(self):
        coo = random_uniform(120, 0.05, 1)
        x = np.random.default_rng(0).standard_normal(120)
        np.testing.assert_allclose(
            reference.spmv(coo, x), scipy_of(coo) @ x, rtol=1e-10
        )


class TestSpmaReference:
    def test_matches_scipy(self):
        a = random_uniform(90, 0.05, 2)
        b = random_uniform(90, 0.05, 3)
        got = reference.spma(a, b)
        want = (scipy_of(a) + scipy_of(b)).toarray()
        np.testing.assert_allclose(got.to_dense(), want, rtol=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            reference.spma(random_uniform(4, 0.5, 0), random_uniform(5, 0.5, 0))

    def test_cancellation_keeps_explicit_entries(self):
        a = COOMatrix((2, 2), [0], [0], [1.0])
        b = COOMatrix((2, 2), [0], [0], [-1.0])
        c = reference.spma(a, b)
        assert c.to_dense()[0, 0] == 0.0


class TestSpmmReference:
    def test_matches_scipy(self):
        a = random_uniform(60, 0.08, 4)
        b = random_uniform(60, 0.08, 5)
        got = reference.spmm(a, b)
        want = (scipy_of(a) @ scipy_of(b)).toarray()
        np.testing.assert_allclose(got.to_dense(), want, rtol=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            reference.spmm(random_uniform(4, 0.5, 0), random_uniform(5, 0.5, 0))


class TestHistogramReference:
    def test_counts(self):
        keys = [0, 1, 1, 3, 3, 3]
        np.testing.assert_array_equal(
            reference.histogram(keys, 5), [1, 2, 0, 3, 0]
        )

    def test_out_of_range(self):
        with pytest.raises(ShapeError):
            reference.histogram([5], 5)
        with pytest.raises(ShapeError):
            reference.histogram([-1], 5)


class TestGaussianReference:
    def test_matches_scipy_correlate(self):
        from scipy.signal import correlate2d

        rng = np.random.default_rng(6)
        img = rng.standard_normal((20, 17))
        k = reference.gaussian_kernel_4x4()
        got = reference.gaussian_filter(img, k)
        want = correlate2d(img, k, mode="valid")
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_kernel_is_normalized(self):
        assert reference.gaussian_kernel_4x4().sum() == pytest.approx(1.0)

    def test_kernel_too_large(self):
        with pytest.raises(ShapeError):
            reference.gaussian_filter(np.zeros((3, 3)), np.ones((4, 4)))

    def test_non_2d_rejected(self):
        with pytest.raises(ShapeError):
            reference.gaussian_filter(np.zeros(9), np.ones((2, 2)))
