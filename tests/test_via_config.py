"""Tests for the VIA configuration geometry (Table I VIA rows)."""

import pytest

from repro.errors import ConfigError
from repro.via import (
    DEFAULT_VIA,
    VIA_4_2P,
    VIA_8_4P,
    VIA_16_2P,
    VIA_16_4P,
    ViaConfig,
    all_configs,
    dse_configs,
)


class TestGeometry:
    def test_entries_are_four_byte_blocks(self):
        # Section IV-A: the SRAM is built from four-byte blocks
        assert VIA_16_2P.sram_entries == 16 * 1024 // 4
        assert VIA_4_2P.sram_entries == 4 * 1024 // 4

    def test_cam_is_quarter_of_sram(self):
        # the published "8 KB, CAM:2KB" data point fixes the ratio
        assert VIA_8_4P.cam_kb == 2
        assert VIA_16_2P.cam_kb == 4
        assert VIA_4_2P.cam_kb == 1

    def test_csb_block_size_is_half_capacity(self):
        # Section V-B: CSB blocks tuned to half the SSPM storage
        for cfg in all_configs():
            assert cfg.csb_block_size == cfg.sram_entries // 2

    def test_names_match_paper_convention(self):
        assert {c.name for c in all_configs()} == {
            "4_2p", "4_4p", "8_2p", "8_4p", "16_2p", "16_4p",
        }

    def test_default_is_the_selected_sweet_spot(self):
        # Section VI-B: 16 KB / 2 ports is the chosen configuration
        assert DEFAULT_VIA == VIA_16_2P

    def test_dse_set_matches_figure9(self):
        assert {c.name for c in dse_configs()} == {
            "4_2p", "4_4p", "16_2p", "16_4p",
        }
        assert VIA_16_4P in dse_configs()

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigError):
            ViaConfig(0, 2)
        with pytest.raises(ConfigError):
            ViaConfig(16, 0)

    def test_configs_are_hashable_value_objects(self):
        assert ViaConfig(16, 2) == VIA_16_2P
        assert len({ViaConfig(16, 2), VIA_16_2P, VIA_4_2P}) == 2
