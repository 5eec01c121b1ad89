"""F10 — Figure 10: SpMV speedup per format across block-density categories.

Paper reference: VIA-CSB averages 4.22x over the CSB software baseline;
VIA over the CSR / SPC5 / Sell-C-sigma software implementations averages
1.25x / 1.24x / 1.31x.  Prose claims reproduced here as well (Section
VII-A): CSB VIA-SpMV cuts total energy ~3.8x and raises realized memory
bandwidth ~2.5x.
"""

import numpy as np
import pytest
from conftest import save_artifact

from repro.eval import aggregate_ratio, categorize, experiments


pytestmark = pytest.mark.figure


def test_fig10_artifact(collection, runner, benchmark, results_dir):
    fig = benchmark.pedantic(
        experiments.fig10, args=(collection, runner), rounds=1, iterations=1
    )
    save_artifact(results_dir, fig.name, fig.text)
    spmv_records = fig.data
    cats = categorize(spmv_records)

    overall = cats.overall
    # CSB wins biggest (paper: 4.22x average)
    assert overall["csb"] == max(overall.values())
    assert 2.5 < overall["csb"] < 10.0
    # the other formats gain modestly (paper ~1.25x)
    for fmt in ("csr", "spc5", "sellcs"):
        assert 1.0 < overall[fmt] < 2.5, f"{fmt}: {overall[fmt]}"
    # prose claims (Section VII-A)
    assert aggregate_ratio(spmv_records, "energy_ratio", "csb") > 1.5
    assert aggregate_ratio(spmv_records, "bandwidth_ratio", "csb") > 1.5
    # all four categories populated
    assert len(cats.rows) == 4
    assert all(row.count > 0 for row in cats.rows)


def test_fig10_single_matrix_benchmark(benchmark, collection):
    """Benchmark one baseline+VIA CSB SpMV pair on one matrix."""
    from repro.formats import CSBMatrix
    from repro.kernels import spmv_csb_baseline, spmv_csb_via
    from repro.via import VIA_16_2P

    spec = collection.specs[0]
    coo = collection.matrix(spec)
    csb = CSBMatrix.from_coo(coo, block_size=VIA_16_2P.csb_block_size)
    x = np.random.default_rng(0).standard_normal(coo.cols)

    def pair():
        return spmv_csb_baseline(csb, x), spmv_csb_via(csb, x)

    base, via = benchmark.pedantic(pair, rounds=1, iterations=1)
    assert base.cycles > via.cycles
