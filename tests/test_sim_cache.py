"""Unit tests for the cache, DRAM and hierarchy models."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.sim import (
    Cache,
    CacheConfig,
    DRAMModel,
    MachineConfig,
    MemoryHierarchy,
    OpCounters,
    compress_lines,
    stream_lines,
)


def tiny_cache(size_kb=1, ways=2, latency=4):
    return Cache(CacheConfig(size_kb, ways, latency))


class TestCacheBasics:
    def test_cold_miss_then_hit(self):
        c = tiny_cache()
        hit, victim = c.access_line(42, write=False)
        assert not hit and victim is None
        hit, _ = c.access_line(42, write=False)
        assert hit

    def test_stats_track_hits_and_misses(self):
        c = tiny_cache()
        c.access_line(1, False)
        c.access_line(1, False)
        c.access_line(2, False)
        assert c.stats.accesses == 3
        assert c.stats.hits == 1
        assert c.stats.misses == 2
        assert c.stats.hit_rate == pytest.approx(1 / 3)

    def test_lru_eviction_order(self):
        c = tiny_cache(size_kb=1, ways=2)  # 8 sets with 64B lines
        sets = c.num_sets
        # three lines mapping to set 0
        a, b, d = 0, sets, 2 * sets
        c.access_line(a, False)
        c.access_line(b, False)
        c.access_line(a, False)  # refresh a; b is now LRU
        c.access_line(d, False)  # evicts b
        assert c.probe(a)
        assert not c.probe(b)
        assert c.probe(d)

    def test_dirty_victim_reported(self):
        c = tiny_cache(size_kb=1, ways=1)
        sets = c.num_sets
        c.access_line(0, write=True)
        hit, victim = c.access_line(sets, write=False)  # same set, evicts 0
        assert not hit
        assert victim == 0
        assert c.stats.writebacks == 1

    def test_clean_victim_not_reported(self):
        c = tiny_cache(size_kb=1, ways=1)
        sets = c.num_sets
        c.access_line(0, write=False)
        _hit, victim = c.access_line(sets, write=False)
        assert victim is None

    def test_reset_clears_everything(self):
        c = tiny_cache()
        c.access_line(5, True)
        c.reset()
        assert not c.probe(5)
        assert c.stats.accesses == 0
        assert c.occupancy() == 0.0

    def test_occupancy_grows(self):
        c = tiny_cache()
        assert c.occupancy() == 0.0
        c.access_line(1, False)
        assert c.occupancy() > 0.0

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(0, 2, 4)
        with pytest.raises(ConfigError):
            CacheConfig(1, 3, 4)  # 1 KB not divisible into 3 ways


class TestLineHelpers:
    def test_compress_collapses_consecutive(self):
        addrs = np.array([0, 8, 16, 64, 64, 128])
        lines, counts = compress_lines(addrs, 64)
        np.testing.assert_array_equal(lines, [0, 1, 2])
        np.testing.assert_array_equal(counts, [3, 2, 1])

    def test_compress_keeps_nonconsecutive_repeats(self):
        addrs = np.array([0, 64, 0])
        lines, _ = compress_lines(addrs, 64)
        np.testing.assert_array_equal(lines, [0, 1, 0])

    def test_compress_empty(self):
        lines, counts = compress_lines(np.array([]), 64)
        assert lines.size == 0 and counts.size == 0

    def test_stream_lines_spans_boundaries(self):
        np.testing.assert_array_equal(stream_lines(60, 8, 64), [0, 1])
        np.testing.assert_array_equal(stream_lines(0, 64, 64), [0])
        assert stream_lines(0, 0, 64).size == 0


class TestDRAM:
    def test_occupancy_scales_with_traffic(self):
        d = DRAMModel(200, 12.8, 64)
        for _ in range(10):
            d.read_line()
        assert d.traffic_bytes == 640
        assert d.occupancy_cycles() == pytest.approx(640 / 12.8)

    def test_writes_count_toward_traffic(self):
        d = DRAMModel(200, 12.8, 64)
        d.write_line()
        assert d.stats.writes == 1
        assert d.traffic_bytes == 64


class TestHierarchy:
    """The hierarchy's walk, the one production pricing runs."""

    def setup_method(self):
        self.h = MemoryHierarchy(MachineConfig())

    def test_first_touch_goes_to_dram(self):
        assert self.h.walk([1000], write=False) == [3]
        assert self.h.dram.stats.reads == 1
        assert self.h.level_latency[3] >= self.h.machine.dram_latency

    def test_second_touch_hits_l1(self):
        assert self.h.walk([1000, 1000], write=False) == [3, 0]
        assert self.h.level_latency[0] == self.h.machine.l1.latency

    def test_l2_hit_after_l1_eviction(self):
        # fill L1 set with conflicting lines, first line falls to L2
        sets = self.h.l1.num_sets
        ways = self.h.l1.ways
        self.h.walk([i * sets for i in range(ways + 1)], write=False)
        assert self.h.walk([0], write=False) == [1]

    def test_dirty_eviction_reaches_dram_eventually(self):
        # lines a multiple of the L3 set count apart share a set at every
        # level, so the dirty line 0 is evicted from L1, then L2, then L3,
        # and each write-back refreshes it one level down
        sets = self.h.l3.num_sets
        conflicting = [i * sets for i in range(1, 3 * self.h.l3.ways)]
        self.h.walk([0], write=True)
        self.h.walk(conflicting, write=False)
        for cache in (self.h.l1, self.h.l2, self.h.l3):
            assert cache.stats.writebacks == 1
        assert self.h.dram.stats.writes == 1

    def test_level_stats_keys(self):
        self.h.walk([0], write=False)
        counters = OpCounters()
        state = self.h.priced(counters)
        assert set(state.cache_stats) == {"l1", "l2", "l3", "dram"}
        assert state.counters is counters
        assert state.dram_lines == 1
        assert state.dram_traffic_bytes == self.h.dram.traffic_bytes
