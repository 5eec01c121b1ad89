"""Tests for the Table II area/leakage model."""

import re

import pytest

from repro.via import (
    PUBLISHED_SYNTHESIS,
    ViaConfig,
    all_configs,
    area_mm2,
    chip_area_overhead,
    core_area_overhead,
    dse_configs,
    leakage_mw,
    table2,
)


class TestPublishedAnchors:
    """The model must reproduce the paper's synthesis points exactly."""

    @pytest.mark.parametrize(
        "kb,ports,area,leak",
        [(kb, p, a, l) for (kb, p), (a, l) in PUBLISHED_SYNTHESIS.items()],
    )
    def test_anchor_exact(self, kb, ports, area, leak):
        cfg = ViaConfig(kb, ports)
        assert area_mm2(cfg) == pytest.approx(area)
        assert leakage_mw(cfg) == pytest.approx(leak)

    def test_table2_headline_numbers(self):
        # the paper's flagship claims: 16_2p is 0.515 mm^2 and 0.5 mW
        cfg = ViaConfig(16, 2)
        assert area_mm2(cfg) == pytest.approx(0.515)
        assert leakage_mw(cfg) == pytest.approx(0.50)


class TestModelShape:
    def test_area_monotone_in_size(self):
        assert area_mm2(ViaConfig(16, 2)) > area_mm2(ViaConfig(8, 2))
        assert area_mm2(ViaConfig(8, 2)) > area_mm2(ViaConfig(4, 2))

    def test_area_monotone_in_ports(self):
        for kb in (4, 8, 16):
            assert area_mm2(ViaConfig(kb, 4)) > area_mm2(ViaConfig(kb, 2))

    def test_interpolated_config_is_reasonable(self):
        # 32 KB, 2 ports: extrapolation must land above 16_2p and scale
        # roughly linearly-plus in capacity
        a = area_mm2(ViaConfig(32, 2))
        assert 2 * 0.515 * 0.7 < a < 2 * 0.515 * 1.8

    def test_core_chip_overheads_match_paper(self):
        # paper: 16_4p ~5% of a Haswell core / ~1.5% of the chip;
        # 16_2p ~3% / ~1%
        assert core_area_overhead(ViaConfig(16, 4)) == pytest.approx(0.05, abs=0.01)
        assert core_area_overhead(ViaConfig(16, 2)) == pytest.approx(0.03, abs=0.01)
        assert chip_area_overhead(ViaConfig(16, 4)) == pytest.approx(0.015, abs=0.004)
        assert chip_area_overhead(ViaConfig(16, 2)) == pytest.approx(0.01, abs=0.003)

    def test_table2_renders_all_configs(self):
        text = table2()
        for cfg in all_configs():
            assert cfg.name in text

    def test_table2_header_columns_are_separate(self):
        header = table2().splitlines()[2]
        assert re.split(r"\s{2,}", header.strip()) == [
            "Config", "Area (mm^2)", "Leakage (mW)", "Core ovh", "Chip ovh",
        ]

    def test_dse_configs_are_the_four_from_fig9(self):
        names = {c.name for c in dse_configs()}
        assert names == {"4_2p", "4_4p", "16_2p", "16_4p"}

