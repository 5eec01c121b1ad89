"""SpMV kernel tests: functional correctness + timing-shape assertions."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.formats import (
    CSBMatrix,
    CSRMatrix,
    SPC5Matrix,
    SellCSigmaMatrix,
)
from repro.kernels import (
    spmv_csb_baseline,
    spmv_csb_via,
    spmv_csr_baseline,
    spmv_csr_via,
    spmv_sellcs_baseline,
    spmv_sellcs_via,
    spmv_spc5_baseline,
    spmv_spc5_via,
)
from repro.matrices import blocked, random_uniform
from repro.via import VIA_4_2P, VIA_16_2P, VIA_16_4P


@pytest.fixture(scope="module")
def problem():
    coo = blocked(300, 16, 0.05, 0.5, 11)
    x = np.random.default_rng(1).standard_normal(300)
    ref = CSRMatrix.from_coo(coo).spmv_reference(x)
    return coo, x, ref


ALL = [
    ("csr", lambda c: CSRMatrix.from_coo(c), spmv_csr_baseline, spmv_csr_via),
    (
        "csb",
        lambda c: CSBMatrix.from_coo(c, block_size=VIA_16_2P.csb_block_size),
        spmv_csb_baseline,
        spmv_csb_via,
    ),
    ("spc5", lambda c: SPC5Matrix.from_coo(c, vl=4), spmv_spc5_baseline, spmv_spc5_via),
    (
        "sellcs",
        lambda c: SellCSigmaMatrix.from_coo(c, c=4, sigma=32),
        spmv_sellcs_baseline,
        spmv_sellcs_via,
    ),
]


@pytest.mark.parametrize("name,build,base_fn,via_fn", ALL)
class TestSpmvAllFormats:
    def test_baseline_correct(self, problem, name, build, base_fn, via_fn):
        coo, x, ref = problem
        res = base_fn(build(coo), x)
        np.testing.assert_allclose(res.output, ref, rtol=1e-9)

    def test_via_correct(self, problem, name, build, base_fn, via_fn):
        coo, x, ref = problem
        res = via_fn(build(coo), x)
        np.testing.assert_allclose(res.output, ref, rtol=1e-9)

    def test_via_is_faster(self, problem, name, build, base_fn, via_fn):
        coo, x, _ = problem
        mat = build(coo)
        assert base_fn(mat, x).cycles > via_fn(mat, x).cycles

    def test_cycles_positive_and_deterministic(self, problem, name, build, base_fn, via_fn):
        coo, x, _ = problem
        mat = build(coo)
        a, b = base_fn(mat, x), base_fn(mat, x)
        assert a.cycles > 0
        assert a.cycles == b.cycles

    def test_x_shape_checked(self, problem, name, build, base_fn, via_fn):
        coo, _x, _ = problem
        with pytest.raises(ShapeError):
            base_fn(build(coo), np.zeros(coo.cols + 1))


class TestSpmvShapes:
    """Paper-shape assertions (Figure 10 mechanisms)."""

    def test_csb_via_has_no_gathers(self, problem):
        coo, x, _ = problem
        csb = CSBMatrix.from_coo(coo, block_size=VIA_16_2P.csb_block_size)
        res = spmv_csb_via(csb, x)
        assert res.counters.gathers == 0
        assert res.counters.sspm_accesses > 0

    def test_csb_baseline_is_gather_bound(self, problem):
        coo, x, _ = problem
        csb = CSBMatrix.from_coo(coo, block_size=VIA_16_2P.csb_block_size)
        res = spmv_csb_baseline(csb, x)
        assert res.counters.gathers > 0

    def test_csb_speedup_is_largest(self, problem):
        coo, x, _ = problem
        speedups = {}
        for name, build, base_fn, via_fn in ALL:
            mat = build(coo)
            speedups[name] = base_fn(mat, x).speedup_over(via_fn(mat, x))
            # speedup_over on the via result:
            speedups[name] = base_fn(mat, x).cycles / via_fn(mat, x).cycles
        assert speedups["csb"] == max(speedups.values())
        assert speedups["csb"] > 2.0
        for other in ("csr", "spc5", "sellcs"):
            assert 1.0 < speedups[other] < 2.5

    def test_via_reduces_memory_traffic(self, problem):
        coo, x, _ = problem
        csb = CSBMatrix.from_coo(coo, block_size=VIA_16_2P.csb_block_size)
        b = spmv_csb_baseline(csb, x)
        v = spmv_csb_via(csb, x)
        assert v.dram_traffic_bytes <= b.dram_traffic_bytes

    def test_more_ports_not_slower(self, problem):
        coo, x, _ = problem
        csb = CSBMatrix.from_coo(coo, block_size=VIA_16_2P.csb_block_size)
        r2 = spmv_csb_via(csb, x, via_config=VIA_16_2P)
        r4 = spmv_csb_via(csb, x, via_config=VIA_16_4P)
        assert r4.cycles <= r2.cycles

    def test_small_sspm_needs_small_blocks(self, problem):
        coo, x, _ = problem
        big_blocks = CSBMatrix.from_coo(coo, block_size=VIA_16_2P.csb_block_size)
        with pytest.raises(ShapeError):
            spmv_csb_via(big_blocks, x, via_config=VIA_4_2P)

    def test_small_config_works_with_matching_blocks(self, problem):
        coo, x, ref = problem
        csb = CSBMatrix.from_coo(coo, block_size=VIA_4_2P.csb_block_size)
        res = spmv_csb_via(csb, x, via_config=VIA_4_2P)
        np.testing.assert_allclose(res.output, ref, rtol=1e-9)


class TestSpmvEdgeCases:
    def test_empty_matrix(self):
        from repro.formats import COOMatrix

        empty = COOMatrix.empty((10, 10))
        x = np.ones(10)
        for name, build, base_fn, via_fn in ALL:
            mat = build(empty)
            np.testing.assert_array_equal(base_fn(mat, x).output, np.zeros(10))
            np.testing.assert_array_equal(via_fn(mat, x).output, np.zeros(10))

    def test_single_entry(self):
        from repro.formats import COOMatrix

        coo = COOMatrix((5, 5), [2], [3], [7.0])
        x = np.arange(5.0)
        for name, build, base_fn, via_fn in ALL:
            mat = build(coo)
            got = via_fn(mat, x).output
            np.testing.assert_allclose(got, [0, 0, 21.0, 0, 0])

    def test_matrix_larger_than_sspm_strips(self):
        # rows exceed one SSPM strip: the CSR VIA flow must tile correctly
        coo = random_uniform(3000, 0.002, 9)
        x = np.random.default_rng(2).standard_normal(3000)
        ref = CSRMatrix.from_coo(coo).spmv_reference(x)
        res = spmv_csr_via(CSRMatrix.from_coo(coo), x, via_config=VIA_4_2P)
        np.testing.assert_allclose(res.output, ref, rtol=1e-9)
