"""SpMA and SpMM kernel tests: correctness, capacity tiling, timing shape."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.formats import COOMatrix, CSCMatrix, CSRMatrix
from repro.kernels import (
    reference,
    spma_csr_baseline,
    spma_via,
    spmm_csr_baseline,
    spmm_via,
)
from repro.matrices import power_law, random_uniform
from repro.via import VIA_4_2P, VIA_16_2P, VIA_16_4P


@pytest.fixture(scope="module")
def spma_pair():
    a = CSRMatrix.from_coo(random_uniform(200, 0.03, 21))
    b = CSRMatrix.from_coo(random_uniform(200, 0.03, 22))
    return a, b


@pytest.fixture(scope="module")
def spmm_pair():
    a = CSRMatrix.from_coo(random_uniform(150, 0.03, 23))
    b = CSCMatrix.from_coo(random_uniform(150, 0.03, 24))
    return a, b


class TestSpma:
    def test_baseline_correct(self, spma_pair):
        a, b = spma_pair
        res = spma_csr_baseline(a, b)
        want = CSRMatrix.from_coo(reference.spma(a, b))
        assert res.output.allclose(want)

    def test_via_correct(self, spma_pair):
        a, b = spma_pair
        res = spma_via(a, b)
        want = CSRMatrix.from_coo(reference.spma(a, b))
        assert res.output.allclose(want)

    def test_via_wins_big(self, spma_pair):
        a, b = spma_pair
        speedup = spma_csr_baseline(a, b).cycles / spma_via(a, b).cycles
        assert speedup > 2.5

    def test_baseline_pays_branches_via_does_not(self, spma_pair):
        a, b = spma_pair
        rb, rv = spma_csr_baseline(a, b), spma_via(a, b)
        assert rb.counters.branch_mispredicts > 0
        assert rv.counters.branch_mispredicts == 0
        assert rv.counters.cam_searches > 0

    def test_shape_mismatch(self):
        a = CSRMatrix.from_dense(np.eye(3))
        b = CSRMatrix.from_dense(np.eye(4))
        with pytest.raises(ShapeError):
            spma_via(a, b)

    def test_disjoint_patterns(self):
        a = CSRMatrix.from_dense(np.diag([1.0, 2.0, 3.0, 0.0]))
        dense_b = np.zeros((4, 4))
        dense_b[0, 3] = 5.0
        b = CSRMatrix.from_dense(dense_b)
        res = spma_via(a, b)
        want = a.to_dense() + dense_b
        np.testing.assert_allclose(res.output.to_dense(), want)

    def test_overlapping_entries_accumulate(self):
        a = CSRMatrix.from_dense(np.full((2, 2), 1.0))
        b = CSRMatrix.from_dense(np.full((2, 2), 2.0))
        res = spma_via(a, b)
        np.testing.assert_allclose(res.output.to_dense(), np.full((2, 2), 3.0))

    def test_long_rows_tile_over_cam_capacity(self):
        # a row wider than the 4 KB config's 256-entry index table
        n = 2000
        rng = np.random.default_rng(5)
        cols_a = np.sort(rng.choice(n, size=600, replace=False))
        cols_b = np.sort(rng.choice(n, size=600, replace=False))
        a = CSRMatrix.from_coo(
            COOMatrix((2, n), np.zeros(600, int), cols_a, rng.standard_normal(600))
        )
        b = CSRMatrix.from_coo(
            COOMatrix((2, n), np.zeros(600, int), cols_b, rng.standard_normal(600))
        )
        res = spma_via(a, b, via_config=VIA_4_2P)
        want = CSRMatrix.from_coo(reference.spma(a, b))
        assert res.output.allclose(want)

    def test_empty_operands(self):
        a = CSRMatrix.from_coo(COOMatrix.empty((6, 6)))
        b = CSRMatrix.from_coo(COOMatrix.empty((6, 6)))
        assert spma_via(a, b).output.nnz == 0


class TestSpmm:
    # allclose compares densely when the entry counts differ, and the
    # timing reads the count, so both tests pin it too
    def test_baseline_correct(self, spmm_pair):
        a, b = spmm_pair
        res = spmm_csr_baseline(a, b)
        want = CSRMatrix.from_coo(reference.spmm(a, b))
        assert res.output.nnz == want.nnz
        assert res.output.allclose(want)

    def test_via_correct(self, spmm_pair):
        a, b = spmm_pair
        res = spmm_via(a, b)
        want = CSRMatrix.from_coo(reference.spmm(a, b))
        assert res.output.nnz == want.nnz
        assert res.output.allclose(want)

    def test_via_wins_big(self, spmm_pair):
        a, b = spmm_pair
        speedup = spmm_csr_baseline(a, b).cycles / spmm_via(a, b).cycles
        assert speedup > 3.0

    def test_inner_dimension_checked(self):
        a = CSRMatrix.from_dense(np.eye(3))
        b = CSCMatrix.from_dense(np.eye(4))
        with pytest.raises(ShapeError):
            spmm_via(a, b)

    def test_identity_product(self):
        a = CSRMatrix.from_dense(np.eye(8))
        b = CSCMatrix.from_dense(np.eye(8))
        res = spmm_via(a, b)
        np.testing.assert_allclose(res.output.to_dense(), np.eye(8))

    def test_b_restreams_per_row(self, spmm_pair):
        a, b = spmm_pair
        res = spmm_csr_baseline(a, b)
        # B re-streams once per non-empty A row: line accesses far exceed
        # a single pass over the operand arrays
        single_pass_lines = (a.nnz + b.nnz) * 12 // 64
        assert res.counters.mem_line_accesses > 5 * single_pass_lines

    def test_ports_help_spmm_more_than_size(self, spmm_pair):
        # paper Section VI-A: SpMM is ports-sensitive, not size-sensitive
        a, b = spmm_pair
        base = spmm_via(a, b, via_config=VIA_4_2P).cycles
        more_size = spmm_via(a, b, via_config=VIA_16_2P).cycles
        more_ports = spmm_via(a, b, via_config=VIA_16_4P).cycles
        gain_size = base / more_size
        gain_ports = more_size / more_ports
        assert gain_ports >= gain_size

    def test_hub_rows_tile(self):
        # power-law matrices have hub rows wider than small CAM configs
        a = CSRMatrix.from_coo(power_law(300, 6, 1.6, 31))
        b = CSCMatrix.from_coo(power_law(300, 6, 1.6, 32))
        res = spmm_via(a, b, via_config=VIA_4_2P)
        want = CSRMatrix.from_coo(reference.spmm(a, b))
        assert res.output.allclose(want)


# ----------------------------------------------------------------------
# the sparse product against the dense oracle
# ----------------------------------------------------------------------
#: quarter-integers: every product and every sum of up to 40 of them is
#: exact, so a position cancels to 0.0 in any summation order or in none
_QUARTERS = st.integers(-12, 12).map(lambda j: j / 4)


@st.composite
def _operand(draw, rows, cols, fmt):
    """A ``rows x cols`` operand in ``fmt``; stored zeros are kept, and a
    row, a column or the whole operand may be empty."""
    cells = draw(st.lists(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
        max_size=min(rows * cols, 120), unique=True,
    ))
    vals = draw(st.lists(_QUARTERS, min_size=len(cells), max_size=len(cells)))
    r = [i for i, _ in cells]
    c = [j for _, j in cells]
    return fmt.from_coo(COOMatrix((rows, cols), r, c, vals))


@st.composite
def _spmm_operands(draw):
    m, k, n = (draw(st.integers(1, 40)) for _ in range(3))
    return draw(_operand(m, k, CSRMatrix)), draw(_operand(k, n, CSCMatrix))


def _pair(a_dense, b_dense):
    return CSRMatrix.from_dense(a_dense), CSCMatrix.from_dense(b_dense)


def _stored(shape, cells, vals):
    """A CSR operand holding exactly ``cells``, zero values included."""
    r, c = zip(*cells)
    return CSRMatrix.from_coo(COOMatrix(shape, r, c, vals))


@settings(max_examples=150, deadline=None)
@given(_spmm_operands())
# 1*1 + 1*(-1): products that cancel exactly, so C has no entry
@example(_pair(np.array([[1.0, 1.0]]), np.array([[1.0], [-1.0]])))
# a stored zero in A: its products are stored-zero sums, so C drops them
@example((
    _stored((2, 2), [(0, 0), (1, 1)], [0.0, 2.0]),
    CSCMatrix.from_dense(np.ones((2, 3))),
))
# all-empty operands, and an empty A row and B column
@example((
    CSRMatrix.from_coo(COOMatrix.empty((3, 4))),
    CSCMatrix.from_coo(COOMatrix.empty((4, 2))),
))
@example(_pair(np.array([[0.0, 0.0], [1.0, 2.0]]), np.array([[3.0, 0.0], [4.0, 0.0]])))
def test_product_matches_the_dense_oracle(pair):
    a, b = pair
    want = CSRMatrix.from_coo(reference.spmm(a, b))
    for kernel in (spmm_csr_baseline, spmm_via):
        got = kernel(a, b).output
        assert got.shape == want.shape
        assert got.nnz == want.nnz
        np.testing.assert_array_equal(got.row_ptr, want.row_ptr)
        np.testing.assert_array_equal(got.col_idx, want.col_idx)
        np.testing.assert_allclose(got.data, want.data, rtol=1e-9, atol=1e-12)
