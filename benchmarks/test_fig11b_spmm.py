"""F11b — SpMM speedup (Section VII-C).

Paper reference: VIA-SpMM averages 6.00x over the inner-product CSRxCSC
implementation with software index matching (Algorithm 3).
"""

import pytest
from conftest import save_artifact

from repro.eval import categorize, experiments


pytestmark = pytest.mark.figure


def test_fig11b_artifact(matrices, runner, benchmark, results_dir):
    fig = benchmark.pedantic(
        experiments.fig11b, args=(matrices, runner), rounds=1, iterations=1
    )
    save_artifact(results_dir, fig.name, fig.text)
    cats = categorize(fig.data)

    avg = cats.overall["csr"]
    assert 3.0 < avg < 12.0  # paper: 6.00x
    for row in cats.rows:
        assert row.speedup["csr"] > 1.5


def test_fig11b_single_pair_benchmark(benchmark):
    from repro.formats import CSCMatrix, CSRMatrix
    from repro.kernels import spmm_csr_baseline, spmm_via
    from repro.matrices import random_uniform

    a = CSRMatrix.from_coo(random_uniform(400, 0.02, 1))
    b = CSCMatrix.from_coo(random_uniform(400, 0.02, 2))

    def pair():
        return spmm_csr_baseline(a, b), spmm_via(a, b)

    base, via = benchmark.pedantic(pair, rounds=1, iterations=1)
    assert base.cycles > via.cycles
