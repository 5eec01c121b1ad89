"""F12b — Figure 12b: 4x4 Gaussian filter speedups (use case 2).

Paper reference: VIA outperforms the vectorized baseline by 3.39x on
average over 128x128, 256x256 and 512x512 images.
"""

import numpy as np
import pytest
from conftest import save_artifact

from repro.eval import experiments, geomean
from repro.kernels import reference, stencil_vector_baseline, stencil_via

pytestmark = pytest.mark.figure


def test_fig12b_artifact(benchmark, results_dir):
    fig = benchmark.pedantic(experiments.fig12b, rounds=1, iterations=1)
    save_artifact(results_dir, fig.name, fig.text)
    stencil_results = fig.data

    avg = geomean(b.cycles / v.cycles for b, v in stencil_results.values())
    assert 2.0 < avg < 6.0  # paper: 3.39x
    for size, (b, v) in stencil_results.items():
        assert b.cycles > v.cycles, f"{size}px"


def test_fig12b_functional_matches_golden(benchmark):
    rng = np.random.default_rng(4)
    image = rng.standard_normal((24, 24))

    def run():
        return stencil_via(image, functional=True)

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    want = reference.gaussian_filter(image, reference.gaussian_kernel_4x4())
    np.testing.assert_allclose(res.output, want, rtol=1e-9)


def test_fig12b_pair_benchmark(benchmark):
    image = np.random.default_rng(5).standard_normal((128, 128))

    def pair():
        return stencil_vector_baseline(image), stencil_via(image, functional=False)

    base, via = benchmark.pedantic(pair, rounds=1, iterations=1)
    assert base.cycles > via.cycles
