"""F11 — Figure 11: SpMA speedup across nnz-per-row categories.

Paper reference: VIA-SpMA averages 6.14x over the vectorized Eigen-style
CSR merge, with the categories sorted by non-zero elements per row.
"""

import pytest
from conftest import save_artifact

from repro.eval import categorize, experiments


pytestmark = pytest.mark.figure


def test_fig11_artifact(collection, runner, benchmark, results_dir):
    fig = benchmark.pedantic(
        experiments.fig11, args=(collection, runner), rounds=1, iterations=1
    )
    save_artifact(results_dir, fig.name, fig.text)
    cats = categorize(fig.data)

    avg = cats.overall["csr"]
    assert 2.5 < avg < 10.0  # paper: 6.14x — VIA wins by a large factor
    for row in cats.rows:
        assert row.speedup["csr"] > 1.5


def test_fig11_single_pair_benchmark(benchmark, collection):
    from repro.formats import CSRMatrix
    from repro.kernels import spma_csr_baseline, spma_via
    from repro.matrices import MatrixSpec

    spec = collection.specs[0]
    a_coo = collection.matrix(spec)
    b_coo = MatrixSpec(
        spec.name + "_b", spec.domain, spec.n, spec.seed + 1, spec.params
    ).build()
    if b_coo.shape != a_coo.shape:
        pytest.skip("sibling generator rounded the dimension")
    a, b = CSRMatrix.from_coo(a_coo), CSRMatrix.from_coo(b_coo)

    def pair():
        return spma_csr_baseline(a, b), spma_via(a, b)

    base, via = benchmark.pedantic(pair, rounds=1, iterations=1)
    assert base.cycles > via.cycles
