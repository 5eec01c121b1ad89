"""The memory side of pricing: three cache levels, DRAM and the line walk.

:class:`MemoryHierarchy` is the one owner of the memory model.  It builds
the L1/L2/L3 :class:`~repro.sim.cache.Cache` objects and the
:class:`~repro.sim.dram.DRAMModel` channel for a machine, holds the
cumulative latency of each service level, walks demand line accesses
through the levels (:meth:`MemoryHierarchy.walk`), and snapshots its DRAM
totals and per-level stats into a :class:`~repro.sim.stats.PricedState`
(:meth:`MemoryHierarchy.priced`).  A :class:`~repro.sim.core.Core` owns one
for the record path; a cross-machine replay
(:func:`~repro.sim.columnar.price_columnar`) builds a fresh one.

Each demand access walks L1 -> L2 -> L3 -> DRAM until it hits; the line is
allocated in every level above the hit point (inclusive fill).  Dirty
victims cascade downwards and eventually become DRAM write traffic.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

import numpy as np
import numpy.typing as npt

from repro.sim.cache import Cache
from repro.sim.config import MachineConfig
from repro.sim.dram import DRAMModel
from repro.sim.stats import OpCounters, PricedState


class MemoryHierarchy:
    """L1/L2/L3 caches in front of a bandwidth-limited DRAM channel."""

    def __init__(self, machine: MachineConfig) -> None:
        self.machine = machine
        self.l1 = Cache(machine.l1)
        self.l2 = Cache(machine.l2)
        self.l3 = Cache(machine.l3)
        self.dram = DRAMModel(
            machine.dram_latency,
            machine.dram_bw_bytes_per_cycle,
            machine.l1.line_bytes,
        )
        m = machine
        #: cumulative access latency by service level (0 = L1 hit .. 3 =
        #: DRAM fill); ``np.take`` over it prices a whole trace of levels
        self.level_latency: npt.NDArray[np.float64] = np.cumsum(
            [m.l1.latency, m.l2.latency, m.l3.latency, m.dram_latency],
            dtype=np.float64,
        )

    def walk(self, lines: Iterable[int], write: bool) -> List[int]:
        """Walk demand accesses to ``lines`` in order; their service levels.

        Level 0 is an L1 hit, 1 an L2 hit, 2 an L3 hit and 3 a DRAM fill.
        A dirty victim is written back to the next level down at once, in
        the middle of the miss that evicted it, because the write-back
        perturbs that level's LRU state before the miss reaches it.
        """
        l1, l2, l3, dram = self.l1, self.l2, self.l3, self.dram
        levels: List[int] = []
        for line in lines:
            hit, victim = l1.access_line(line, write)
            if victim is not None:
                _h, v2 = l2.access_line(victim, True)
                if v2 is not None:
                    _h, v3 = l3.access_line(v2, True)
                    if v3 is not None:
                        dram.write_line()
            if hit:
                levels.append(0)
                continue
            hit, victim = l2.access_line(line, False)
            if victim is not None:
                _h, v3 = l3.access_line(victim, True)
                if v3 is not None:
                    dram.write_line()
            if hit:
                levels.append(1)
                continue
            hit, victim = l3.access_line(line, False)
            if victim is not None:
                dram.write_line()
            if hit:
                levels.append(2)
                continue
            dram.read_line()
            levels.append(3)
        return levels

    def priced(self, counters: OpCounters) -> PricedState:
        """``counters`` (not copied) with this hierarchy's DRAM totals and
        per-level stats as they stand."""
        cache_stats: Dict[str, Dict[str, Any]] = {}
        for name, cache in (("l1", self.l1), ("l2", self.l2), ("l3", self.l3)):
            s = cache.stats
            cache_stats[name] = {
                "accesses": s.accesses,
                "hits": s.hits,
                "misses": s.misses,
                "writebacks": s.writebacks,
                "hit_rate": s.hit_rate,
            }
        dram = self.dram
        cache_stats["dram"] = {
            "reads": dram.stats.reads,
            "writes": dram.stats.writes,
            "traffic_bytes": dram.traffic_bytes,
        }
        return PricedState(
            counters=counters,
            dram_occupancy_cycles=dram.occupancy_cycles(),
            dram_traffic_bytes=dram.traffic_bytes,
            dram_lines=dram.stats.lines,
            cache_stats=cache_stats,
        )
