"""Histogram and stencil kernel tests (paper Section VII-D use cases)."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.kernels import (
    histogram_scalar_baseline,
    histogram_vector_baseline,
    histogram_via,
    reference,
    stencil_vector_baseline,
    stencil_via,
)
from repro.via import VIA_4_2P


@pytest.fixture(scope="module")
def keys():
    return np.random.default_rng(7).integers(0, 512, size=4000)


class TestHistogram:
    def test_all_variants_correct(self, keys):
        want = reference.histogram(keys, 512)
        for fn in (histogram_scalar_baseline, histogram_vector_baseline):
            np.testing.assert_array_equal(fn(keys, 512).output, want)
        np.testing.assert_array_equal(histogram_via(keys, 512).output, want)

    def test_via_beats_both_baselines(self, keys):
        s = histogram_scalar_baseline(keys, 512).cycles
        v = histogram_vector_baseline(keys, 512).cycles
        via = histogram_via(keys, 512).cycles
        assert s / via > 2.0
        assert v / via > 2.0

    def test_scalar_slowest_like_paper(self, keys):
        # paper Fig. 12a: VIA gains 5.49x over scalar > 4.51x over vector
        s = histogram_scalar_baseline(keys, 512).cycles
        v = histogram_vector_baseline(keys, 512).cycles
        assert s > v

    def test_via_functional_path_uses_sspm(self, keys):
        res = histogram_via(keys, 512, functional=True)
        assert res.counters.sspm_accesses > 0
        np.testing.assert_array_equal(res.output, reference.histogram(keys, 512))

    def test_bulk_path_matches_functional_timing(self, keys):
        f = histogram_via(keys, 512, functional=True)
        b = histogram_via(keys, 512, functional=False)
        assert b.cycles == pytest.approx(f.cycles, rel=0.02)
        np.testing.assert_array_equal(b.output, f.output)

    def test_bins_beyond_sspm_tile_into_passes(self):
        rng = np.random.default_rng(8)
        num_bins = VIA_4_2P.sram_entries * 3  # forces 3 passes on 4 KB
        ks = rng.integers(0, num_bins, size=2000)
        res = histogram_via(ks, num_bins, via_config=VIA_4_2P)
        np.testing.assert_array_equal(res.output, reference.histogram(ks, num_bins))
        # re-streamed keys: more key-line traffic than one pass
        one_pass = histogram_via(
            ks % VIA_4_2P.sram_entries, VIA_4_2P.sram_entries, via_config=VIA_4_2P
        )
        assert res.counters.mem_line_accesses > one_pass.counters.mem_line_accesses

    def test_skewed_keys_hurt_scalar_most(self):
        rng = np.random.default_rng(9)
        uniform = rng.integers(0, 512, size=4000)
        skewed = np.minimum((512 * rng.random(4000) ** 3).astype(int), 511)
        s_u = histogram_scalar_baseline(uniform, 512).cycles
        s_k = histogram_scalar_baseline(skewed, 512).cycles
        assert s_k > s_u  # same-bin chains serialize

    def test_bad_inputs(self):
        with pytest.raises(ShapeError):
            histogram_via([1, 2], 0)
        with pytest.raises(ShapeError):
            histogram_via([5], 5)


class TestStencil:
    @pytest.fixture(scope="class")
    def image(self):
        return np.random.default_rng(10).standard_normal((30, 30))

    def test_baseline_correct(self, image):
        res = stencil_vector_baseline(image)
        want = reference.gaussian_filter(image, reference.gaussian_kernel_4x4())
        np.testing.assert_allclose(res.output, want, rtol=1e-9)

    def test_via_correct_functional(self, image):
        res = stencil_via(image, functional=True)
        want = reference.gaussian_filter(image, reference.gaussian_kernel_4x4())
        np.testing.assert_allclose(res.output, want, rtol=1e-9)

    def test_via_speedup_in_paper_band(self, image):
        b = stencil_vector_baseline(image).cycles
        v = stencil_via(image).cycles
        assert 2.0 < b / v < 6.0  # paper: 3.39x

    def test_bulk_path_matches_functional_timing(self, image):
        f = stencil_via(image, functional=True)
        b = stencil_via(image, functional=False)
        assert b.cycles == pytest.approx(f.cycles, rel=0.02)

    def test_custom_kernel(self, image):
        k = np.ones((3, 3)) / 9.0
        res = stencil_via(image, k, functional=True)
        np.testing.assert_allclose(
            res.output, reference.gaussian_filter(image, k), rtol=1e-9
        )

    def test_large_image_segments(self):
        # width * rows far beyond the 4 KB SSPM: must tile into segments
        img = np.random.default_rng(11).standard_normal((40, 100))
        res = stencil_via(img, functional=True, via_config=VIA_4_2P)
        want = reference.gaussian_filter(img, reference.gaussian_kernel_4x4())
        np.testing.assert_allclose(res.output, want, rtol=1e-9)

    def test_image_too_wide_for_sspm(self):
        img = np.zeros((8, VIA_4_2P.sram_entries * 2))
        with pytest.raises(ShapeError):
            stencil_via(img, via_config=VIA_4_2P)

    def test_baseline_has_gathers_via_does_not(self, image):
        b = stencil_vector_baseline(image)
        v = stencil_via(image)
        assert b.counters.gathers > 0
        assert v.counters.gathers == 0
