"""T2 — Table II: SSPM area and leakage per configuration (22 nm).

The area model reproduces the paper's six synthesized points exactly and
the chip-level overhead claims (~5 % / ~3 % of a Haswell core for the
16 KB configurations).
"""

import pytest
from conftest import save_artifact

from repro.eval import experiments
from repro.via import (
    PUBLISHED_SYNTHESIS,
    ViaConfig,
    area_mm2,
    core_area_overhead,
    leakage_mw,
)


def test_table2_artifact(benchmark, results_dir):
    table = benchmark(experiments.table2)
    save_artifact(results_dir, table.name, table.text)
    for (kb, ports), (area, leak) in PUBLISHED_SYNTHESIS.items():
        cfg = ViaConfig(kb, ports)
        assert area_mm2(cfg) == pytest.approx(area)
        assert leakage_mw(cfg) == pytest.approx(leak)
    # headline: the selected 16_2p point is 0.515 mm^2 / 0.5 mW
    assert area_mm2(ViaConfig(16, 2)) == pytest.approx(0.515)
    assert leakage_mw(ViaConfig(16, 2)) == pytest.approx(0.50)
    # chip-level overhead claims
    assert core_area_overhead(ViaConfig(16, 4)) == pytest.approx(0.05, abs=0.01)
    assert core_area_overhead(ViaConfig(16, 2)) == pytest.approx(0.03, abs=0.01)
