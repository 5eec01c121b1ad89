"""The batched DSE against a per-cell reference.

``run_dse`` hands the runner one direct batch, or a record and a replay
batch per SSPM-capacity group, and splits each batch's per-unit records
back into (kernel, config) cells by position.  Every cell's geomean must
be bit-identical to sweeping that cell on its own, and ``cycles`` must
keep the per-cell key order even when the capacity groups run in a
different order than the configs are listed.

The collection is chosen so SpMM self-filters its first and last
matrices (``n > spmm_max_n``): those units are absent from
``SweepResult.records``, which is why the split uses the per-unit list.
"""

import pytest

from repro.eval import (
    DSE_KERNELS,
    RunnerConfig,
    geomean,
    run_dse,
    sweep_spma,
    sweep_spmm,
    sweep_spmv,
)
from repro.matrices import small_collection
from repro.via.config import ViaConfig

#: capacities interleave: the 16 KB group runs first, the 4 KB one second
CONFIGS = [ViaConfig(16, 2), ViaConfig(4, 2), ViaConfig(16, 4)]

#: below the first and last matrices' n (112, 126), above the others
SPMM_MAX_N = 105


@pytest.fixture(scope="module")
def collection():
    coll = small_collection(4, seed=5, max_n=128)
    assert [s.n > SPMM_MAX_N for s in coll.specs] == [True, False, False, True]
    return coll


@pytest.fixture(scope="module")
def reference(collection):
    """Each cell's geomean VIA cycles, swept on its own."""
    out = {}
    for cfg in CONFIGS:
        spmv = sweep_spmv(collection, formats=("csb",), via_config=cfg)
        spma = sweep_spma(collection, via_config=cfg)
        spmm = sweep_spmm(collection, via_config=cfg, max_n=SPMM_MAX_N)
        assert len(spmm) == 2
        out["spmv", cfg.name] = geomean(r.via_cycles["csb"] for r in spmv)
        out["spma", cfg.name] = geomean(r.via_cycles["csr"] for r in spma)
        out["spmm", cfg.name] = geomean(r.via_cycles["csr"] for r in spmm)
    return out


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("record", [False, True], ids=["direct", "record"])
@pytest.mark.parametrize("strategy", ["exhaustive", "guided"])
def test_batched_dse_matches_per_cell_reference(
    collection, reference, tmp_path, strategy, record, workers
):
    result = run_dse(
        collection,
        configs=CONFIGS,
        spmm_max_n=SPMM_MAX_N,
        runner=RunnerConfig(workers=workers, capture_errors=False),
        record_dir=str(tmp_path / "recordings") if record else None,
        strategy=strategy,
    )
    names = {
        kernel: (
            result.simulated[kernel]
            if strategy == "guided"
            else [cfg.name for cfg in CONFIGS]
        )
        for kernel in DSE_KERNELS
    }
    expected = {
        kernel: {name: reference[kernel, name] for name in names[kernel]}
        for kernel in DSE_KERNELS
    }
    # list() comparisons pin key order at both levels, == pins the bits
    assert list(result.cycles) == list(expected)
    for kernel in DSE_KERNELS:
        assert list(result.cycles[kernel].items()) == list(
            expected[kernel].items()
        )
