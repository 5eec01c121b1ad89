"""F12a — Figure 12a: histogram speedups (Section VII-D, use case 1).

Paper reference: VIA-histogram outperforms the Intel scalar baseline by
5.49x and the AVX512CD-style vector baseline by 4.51x.  We evaluate three
key distributions (uniform, gaussian, zipf-like), as the paper evaluates
multiple inputs, and report geometric-mean speedups.
"""

import numpy as np
import pytest
from conftest import save_artifact

from repro.eval import experiments, geomean
from repro.eval.experiments import HISTOGRAM_BINS, histogram_key_streams
from repro.kernels import (
    histogram_scalar_baseline,
    histogram_vector_baseline,
    histogram_via,
    reference,
)

pytestmark = pytest.mark.figure


def test_fig12a_artifact(benchmark, results_dir):
    fig = benchmark.pedantic(experiments.fig12a, rounds=1, iterations=1)
    save_artifact(results_dir, fig.name, fig.text)
    histogram_results = fig.data

    s_avg = geomean(s.cycles / via.cycles for s, v, via in histogram_results.values())
    v_avg = geomean(v.cycles / via.cycles for s, v, via in histogram_results.values())
    assert 3.0 < s_avg < 9.0  # paper: 5.49x
    assert 3.0 < v_avg < 8.0  # paper: 4.51x
    # the paper's ordering: the scalar baseline is the worst of the three
    for name, (s, v, via) in histogram_results.items():
        assert s.cycles >= v.cycles * 0.9, name
        assert via.cycles < v.cycles, name
    # outputs stay correct
    for name, keys in histogram_key_streams().items():
        _s, _v, via = histogram_results[name]
        np.testing.assert_array_equal(
            via.output, reference.histogram(keys, HISTOGRAM_BINS)
        )


def test_fig12a_trio_benchmark(benchmark):
    keys = histogram_key_streams()["uniform"][:8192]

    def trio():
        return (
            histogram_scalar_baseline(keys, HISTOGRAM_BINS).cycles,
            histogram_vector_baseline(keys, HISTOGRAM_BINS).cycles,
            histogram_via(keys, HISTOGRAM_BINS, functional=False).cycles,
        )

    s, v, via = benchmark.pedantic(trio, rounds=1, iterations=1)
    assert via < v < s * 1.1
