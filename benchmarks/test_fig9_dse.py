"""F9 — Figure 9: design-space exploration of SSPM size and ports.

Sweeps the four configurations (4_2p, 4_4p, 16_2p, 16_4p) over the three
sparse kernels and reports each kernel's speedup normalized to its 4_2p
configuration.  Paper reference points: SpMV +2 % (4_4p), +26 % (16_2p),
+33 % (16_4p); SpMA +4 %/+16 %/+20 %; SpMM +8 %/+5 %/+11 % — the ordering
(16_4p best overall, ports mattering most for SpMM) is the reproduced
shape.
"""

import pytest
from conftest import save_artifact

from repro.eval import experiments
from repro.matrices import MatrixCollection


pytestmark = pytest.mark.figure


def test_fig9_artifact(runner, benchmark, results_dir):
    fig = benchmark.pedantic(
        experiments.fig9, kwargs={"runner": runner}, rounds=1, iterations=1
    )
    save_artifact(results_dir, fig.name, fig.text)
    dse_result = fig.data

    # best configuration overall is 16_4p (paper Section VI-A)
    for kernel in ("spmv", "spma"):
        speedups = dse_result.normalized_speedup(kernel)
        assert max(speedups, key=speedups.get) == "16_4p", kernel

    # SpMV: bigger SSPM helps even at equal ports (capacity effect)
    s = dse_result.normalized_speedup("spmv")
    assert s["16_2p"] > 1.0
    assert s["16_4p"] >= s["16_2p"]

    # SpMM varies with ports, barely with size (paper Section VI-A)
    s = dse_result.normalized_speedup("spmm")
    port_gain = s["16_4p"] / max(s["16_2p"], 1e-9)
    size_gain = s["16_2p"] / max(s["4_2p"], 1e-9)
    assert port_gain >= size_gain - 0.02

    # no configuration regresses materially anywhere
    for kernel in ("spmv", "spma", "spmm"):
        for cfg, sp in dse_result.normalized_speedup(kernel).items():
            assert sp > 0.9, f"{kernel}/{cfg} regressed: {sp}"


def test_fig9_single_slice_benchmark(benchmark):
    """One-shot benchmark of a single-config, single-kernel DSE slice."""
    from repro.eval import sweep_spmv
    from repro.via import VIA_16_2P

    coll = MatrixCollection(3, seed=5, min_n=256, max_n=768)

    def slice_():
        return sweep_spmv(coll, formats=("csb",), via_config=VIA_16_2P)

    recs = benchmark.pedantic(slice_, rounds=1, iterations=1)
    assert len(recs) == 3
