"""Unit tests for the Smart Scratchpad Memory (paper Section IV-A)."""

import numpy as np
import pytest

from repro.errors import SSPMCapacityError, SSPMError
from repro.via import SSPM, ViaConfig


@pytest.fixture
def sspm():
    return SSPM(ViaConfig(4, 2))


class TestDirectMapped:
    def test_write_then_read(self, sspm):
        sspm.dm_write([3, 5], [1.5, 2.5])
        np.testing.assert_allclose(sspm.dm_read([3, 5]), [1.5, 2.5])

    def test_unwritten_reads_zero(self, sspm):
        np.testing.assert_allclose(sspm.dm_read([0, 100]), [0.0, 0.0])

    def test_valid_bitmap_distinguishes_written_zero(self, sspm):
        sspm.dm_write([7], [0.0])
        # the entry holds an explicit zero; a read returns it
        assert sspm.dm_read([7])[0] == 0.0
        sspm.dm_accumulate([7], [2.0])
        assert sspm.dm_read([7])[0] == 2.0

    def test_accumulate_from_invalid_starts_at_zero(self, sspm):
        out = sspm.dm_accumulate([9], [4.0])
        assert out[0] == 4.0
        assert sspm.dm_read([9])[0] == 4.0

    def test_accumulate_ops(self, sspm):
        sspm.dm_write([1], [10.0])
        assert sspm.dm_accumulate([1], [3.0], op="add")[0] == 13.0
        assert sspm.dm_accumulate([1], [3.0], op="sub")[0] == 10.0
        assert sspm.dm_accumulate([1], [2.0], op="mult")[0] == 20.0

    def test_accumulate_duplicate_lanes_combine_in_order(self, sspm):
        sspm.dm_accumulate([4, 4, 4], [1.0, 2.0, 3.0])
        assert sspm.dm_read([4])[0] == 6.0

    def test_unknown_accumulate_op(self, sspm):
        with pytest.raises(SSPMError):
            sspm.dm_accumulate([0], [1.0], op="xor")

    def test_index_out_of_range(self, sspm):
        entries = sspm.config.sram_entries
        with pytest.raises(SSPMError):
            sspm.dm_write([entries], [1.0])
        with pytest.raises(SSPMError):
            sspm.dm_read([-1])

    def test_shape_mismatch(self, sspm):
        with pytest.raises(SSPMError):
            sspm.dm_write([1, 2], [1.0])
        with pytest.raises(SSPMError):
            sspm.dm_accumulate([1, 2], [1.0])


class TestClear:
    def test_full_clear_invalidates_everything(self, sspm):
        sspm.dm_write([0, 10], [1.0, 2.0])
        sspm.clear()
        np.testing.assert_allclose(sspm.dm_read([0, 10]), [0.0, 0.0])

    def test_segment_clear_leaves_rest(self, sspm):
        sspm.dm_write([5, 50], [1.0, 2.0])
        sspm.clear(segment=(0, 20))
        assert sspm.dm_read([5])[0] == 0.0
        assert sspm.dm_read([50])[0] == 2.0

    def test_clear_resets_cam_state(self, sspm):
        sspm.cam_write([100, 200], [1.0, 2.0])
        assert sspm.element_count == 2
        sspm.clear()
        assert sspm.element_count == 0
        vals, matched = sspm.cam_read([100])
        assert not matched[0]

    def test_segment_out_of_range(self, sspm):
        with pytest.raises(SSPMError):
            sspm.clear(segment=(0, sspm.config.sram_entries + 1))
        with pytest.raises(SSPMError):
            sspm.clear(segment=(-1, 5))


class TestCAM:
    def test_insert_and_read(self, sspm):
        sspm.cam_write([1000, 2000], [1.0, 2.0])
        vals, matched = sspm.cam_read([2000, 1000, 3000])
        np.testing.assert_allclose(vals, [2.0, 1.0, 0.0])
        np.testing.assert_array_equal(matched, [True, True, False])

    def test_rewrite_updates_in_place(self, sspm):
        sspm.cam_write([42], [1.0])
        sspm.cam_write([42], [9.0])
        assert sspm.element_count == 1
        vals, _ = sspm.cam_read([42])
        assert vals[0] == 9.0

    def test_accumulating_write(self, sspm):
        sspm.cam_write([7], [3.0], op="add")
        sspm.cam_write([7], [4.0], op="add")
        vals, _ = sspm.cam_read([7])
        assert vals[0] == 7.0

    def test_insertion_is_in_order(self, sspm):
        sspm.cam_write([30, 10, 20], [3.0, 1.0, 2.0])
        idx = sspm.cam_tracked_indices(0, 3)
        np.testing.assert_array_equal(idx, [30, 10, 20])
        vals = sspm.cam_slot_values(0, 3)
        np.testing.assert_allclose(vals, [3.0, 1.0, 2.0])

    def test_tracked_indices_past_count_are_minus_one(self, sspm):
        sspm.cam_write([5], [1.0])
        idx = sspm.cam_tracked_indices(0, 4)
        np.testing.assert_array_equal(idx, [5, -1, -1, -1])

    def test_capacity_overflow_raises(self):
        small = SSPM(ViaConfig(4, 2))
        cap = small.config.cam_entries
        small.cam_write(np.arange(cap), np.ones(cap))
        with pytest.raises(SSPMCapacityError):
            small.cam_write([10**6], [1.0])

    def test_element_count_register(self, sspm):
        assert sspm.element_count == 0
        sspm.cam_write([1, 2, 3], [1.0, 1.0, 1.0])
        assert sspm.element_count == 3

    def test_bad_windows_rejected(self, sspm):
        with pytest.raises(SSPMError):
            sspm.cam_tracked_indices(-1, 2)
        with pytest.raises(SSPMError):
            sspm.cam_slot_values(0, -2)

    def test_unknown_cam_op(self, sspm):
        with pytest.raises(SSPMError):
            sspm.cam_write([1], [1.0], op="max")


class TestGeometry:
    def test_entries_follow_config(self):
        cfg = ViaConfig(16, 2)
        s = SSPM(cfg)
        assert cfg.sram_entries == 16 * 1024 // 4
        assert cfg.cam_entries == 4 * 1024 // 4
        assert s.config.csb_block_size == cfg.sram_entries // 2

    def test_config_names(self):
        assert ViaConfig(16, 2).name == "16_2p"
        assert ViaConfig(4, 4).name == "4_4p"
