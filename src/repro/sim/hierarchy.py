"""Three-level inclusive memory hierarchy with write-back propagation.

Each demand access walks L1 -> L2 -> L3 -> DRAM until it hits; the line is
allocated in every level above the hit point (inclusive fill).  Dirty
victims cascade downwards and eventually become DRAM write traffic.

The hierarchy returns, per batch, the per-level hit counts and the summed
access latency — the raw material for the core's cycle model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.sim.cache import Cache, compress_lines, stream_lines
from repro.sim.config import MachineConfig
from repro.sim.dram import DRAMModel


@dataclass
class AccessResult:
    """Outcome of a batch of memory accesses."""

    raw_accesses: int = 0
    line_accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    l3_hits: int = 0
    dram_fills: int = 0
    latency_sum: float = 0.0

    def merge(self, other: "AccessResult") -> "AccessResult":
        return AccessResult(
            self.raw_accesses + other.raw_accesses,
            self.line_accesses + other.line_accesses,
            self.l1_hits + other.l1_hits,
            self.l2_hits + other.l2_hits,
            self.l3_hits + other.l3_hits,
            self.dram_fills + other.dram_fills,
            self.latency_sum + other.latency_sum,
        )

    @property
    def misses(self) -> int:
        """Line accesses that missed in the L1."""
        return self.line_accesses - self.l1_hits


class MemoryHierarchy:
    """L1/L2/L3 caches in front of a bandwidth-limited DRAM channel."""

    def __init__(self, machine: MachineConfig):
        self.machine = machine
        self.l1 = Cache(machine.l1)
        self.l2 = Cache(machine.l2)
        self.l3 = Cache(machine.l3)
        self.dram = DRAMModel(
            machine.dram_latency,
            machine.dram_bw_bytes_per_cycle,
            machine.l1.line_bytes,
        )
        self.line_bytes = machine.l1.line_bytes
        # Cumulative latency by fill level (0=L1 hit .. 3=DRAM fill),
        # left-associated exactly like the per-line sums used to be so that
        # float configs stay bit-identical.
        m = machine
        self._level_latency = (
            m.l1.latency,
            m.l1.latency + m.l2.latency,
            m.l1.latency + m.l2.latency + m.l3.latency,
            m.l1.latency + m.l2.latency + m.l3.latency + self.dram.latency,
        )

    # ------------------------------------------------------------------
    def reset(self) -> None:
        for c in (self.l1, self.l2, self.l3):
            c.reset()
        self.dram.reset()

    # ------------------------------------------------------------------
    def _walk(self, line: int, write: bool) -> int:
        """Walk one line through the hierarchy; returns the fill level.

        0 = L1 hit, 1 = L2 hit, 2 = L3 hit, 3 = DRAM fill.  Dirty victims
        cascade downwards as a side effect (inclusive write-back).
        """
        hit, victim = self.l1.access_line(line, write)
        if victim is not None:
            self._writeback_to_l2(victim)
        if hit:
            return 0

        hit, victim = self.l2.access_line(line, False)
        if victim is not None:
            self._writeback_to_l3(victim)
        if hit:
            return 1

        hit, victim = self.l3.access_line(line, False)
        if victim is not None:
            self.dram.write_line()
        if hit:
            return 2

        self.dram.read_line()
        return 3

    def access_line(self, line: int, write: bool) -> AccessResult:
        """One demand line access through the full hierarchy."""
        res = AccessResult(raw_accesses=0, line_accesses=1)
        level = self._walk(line, write)
        if level == 0:
            res.l1_hits = 1
        elif level == 1:
            res.l2_hits = 1
        elif level == 2:
            res.l3_hits = 1
        else:
            res.dram_fills = 1
        res.latency_sum = self._level_latency[level]
        return res

    def _writeback_to_l2(self, line: int) -> None:
        _hit, victim = self.l2.access_line(line, True)
        if victim is not None:
            self._writeback_to_l3(victim)

    def _writeback_to_l3(self, line: int) -> None:
        _hit, victim = self.l3.access_line(line, True)
        if victim is not None:
            self.dram.write_line()

    # ------------------------------------------------------------------
    # Batch entry points used by the core
    # ------------------------------------------------------------------
    def access_addresses(self, addresses: np.ndarray, *, write: bool = False) -> AccessResult:
        """Access a sequence of byte addresses (LSQ-coalesced per line)."""
        lines, _counts = compress_lines(addresses, self.line_bytes)
        return self._walk_batch(lines, write, int(np.asarray(addresses).size))

    def access_stream(self, base: int, nbytes: int, *, write: bool = False) -> AccessResult:
        """Access a contiguous byte range (one pass, line granularity)."""
        lines = stream_lines(base, nbytes, self.line_bytes)
        return self._walk_batch(lines, write, int(lines.size))

    def _walk_batch(self, lines: np.ndarray, write: bool, raw: int) -> AccessResult:
        """Walk a batch of line ids, accumulating counters in plain ints.

        Latency accumulates per line as ``0.0 + lat_0 + lat_1 + ...`` — the
        same left fold the old per-line ``AccessResult.merge`` chain did, so
        fractional-latency configs price bit-identically.
        """
        walk = self._walk
        lat = self._level_latency
        hits = [0, 0, 0, 0]
        latency_sum = 0.0
        for line in lines.tolist():
            level = walk(line, write)
            hits[level] += 1
            latency_sum = latency_sum + lat[level]
        return AccessResult(
            raw_accesses=raw,
            line_accesses=int(lines.size),
            l1_hits=hits[0],
            l2_hits=hits[1],
            l3_hits=hits[2],
            dram_fills=hits[3],
            latency_sum=latency_sum,
        )

    # ------------------------------------------------------------------
    def level_stats(self) -> Dict[str, dict]:
        """Per-level counter snapshot for reports."""
        out = {}
        for name, cache in (("l1", self.l1), ("l2", self.l2), ("l3", self.l3)):
            s = cache.stats
            out[name] = {
                "accesses": s.accesses,
                "hits": s.hits,
                "misses": s.misses,
                "writebacks": s.writebacks,
                "hit_rate": s.hit_rate,
            }
        out["dram"] = {
            "reads": self.dram.stats.reads,
            "writes": self.dram.stats.writes,
            "traffic_bytes": self.dram.traffic_bytes,
        }
        return out
