"""Counters and result records produced by the machine model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union


@dataclass
class OpCounters:
    """Raw event counts accumulated while a kernel runs."""

    scalar_uops: int = 0
    vector_uops: int = 0
    vector_fma: int = 0
    vector_reduce: int = 0
    vector_permute: int = 0
    vector_conflict: int = 0
    gathers: int = 0
    scatters: int = 0
    gather_elements: int = 0
    scatter_elements: int = 0
    mem_line_accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    l3_hits: int = 0
    dram_fills: int = 0
    stream_miss_latency: float = 0.0
    dependent_miss_latency: float = 0.0
    branches: int = 0
    branch_mispredicts: float = 0.0
    dependency_stall_cycles: float = 0.0
    via_instructions: int = 0
    sspm_accesses: int = 0
    sspm_busy_cycles: float = 0.0
    cam_searches: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass
class PricedState:
    """The priced totals of one run, before cycles and energy.

    Everything :func:`repro.sim.core.build_result` needs besides the
    machine: the counters, and the DRAM totals and per-level cache stats
    that :meth:`repro.sim.hierarchy.MemoryHierarchy.priced` snapshots.  A
    recording stores the one its record run finalized with.  SSPM port
    counts touch exactly one of these numbers (``counters.sspm_busy_cycles``,
    recomputed per target by :func:`repro.sim.columnar.columnar_via_totals`),
    so a same-machine replay is pure arithmetic over this state, with no
    cache re-simulation at all.
    """

    counters: OpCounters
    dram_occupancy_cycles: float
    dram_traffic_bytes: int
    dram_lines: int
    cache_stats: Dict[str, Dict[str, Any]]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "counters": self.counters.as_dict(),
            "dram_occupancy_cycles": self.dram_occupancy_cycles,
            "dram_traffic_bytes": self.dram_traffic_bytes,
            "dram_lines": self.dram_lines,
            "cache_stats": self.cache_stats,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PricedState":
        return cls(
            counters=OpCounters(**data["counters"]),
            dram_occupancy_cycles=data["dram_occupancy_cycles"],
            dram_traffic_bytes=data["dram_traffic_bytes"],
            dram_lines=data["dram_lines"],
            cache_stats=data["cache_stats"],
        )

    def with_counters(self, counters: OpCounters) -> "PricedState":
        """This state with ``counters`` and its own copy of the cache stats,
        so a result built from it cannot reach this state."""
        return PricedState(
            counters,
            self.dram_occupancy_cycles,
            self.dram_traffic_bytes,
            self.dram_lines,
            {k: dict(v) for k, v in self.cache_stats.items()},
        )


@dataclass
class CycleBreakdown:
    """Resource-bound components of the final cycle count.

    ``bound`` components race (the machine is limited by the slowest
    resource); ``exposed`` components add on top (latency the out-of-order
    window could not hide).
    """

    issue_cycles: float = 0.0
    vfu_cycles: float = 0.0
    gather_serial_cycles: float = 0.0
    dram_occupancy_cycles: float = 0.0
    sspm_cycles: float = 0.0
    commit_serial_cycles: float = 0.0
    exposed_stream_latency: float = 0.0
    exposed_dependent_latency: float = 0.0
    branch_penalty_cycles: float = 0.0
    dependency_stall_cycles: float = 0.0

    @property
    def bound_cycles(self) -> float:
        return max(
            self.issue_cycles,
            self.vfu_cycles,
            self.gather_serial_cycles,
            self.dram_occupancy_cycles,
            self.sspm_cycles,
            self.commit_serial_cycles,
        )

    @property
    def bottleneck(self) -> str:
        """Name of the resource that bounds execution."""
        candidates = {
            "issue": self.issue_cycles,
            "vfu": self.vfu_cycles,
            "gather": self.gather_serial_cycles,
            "dram": self.dram_occupancy_cycles,
            "sspm": self.sspm_cycles,
            "commit": self.commit_serial_cycles,
        }
        return max(candidates, key=lambda name: candidates[name])

    @property
    def total_cycles(self) -> float:
        return (
            self.bound_cycles
            + self.exposed_stream_latency
            + self.exposed_dependent_latency
            + self.branch_penalty_cycles
            + self.dependency_stall_cycles
        )

    def as_dict(self) -> Dict[str, Union[float, str]]:
        d: Dict[str, Union[float, str]] = {
            k: getattr(self, k) for k in self.__dataclass_fields__
        }
        d["bound_cycles"] = self.bound_cycles
        d["total_cycles"] = self.total_cycles
        d["bottleneck"] = self.bottleneck
        return d


@dataclass
class SweepCounters:
    """Aggregate observability counters for one sweep-runner invocation.

    Produced by :func:`repro.eval.runner.run_units`; every work unit lands
    in exactly one of ``units_ok`` / ``units_cached`` / ``units_resumed`` /
    ``units_failed`` / ``units_skipped``.  ``cache_corrupt`` counts cache
    entries that failed integrity checks; ``units_corrupt`` counts the
    units those entries belonged to (recomputed, never served) and the
    units whose resume-journal record did not decode (served from the
    cache or recomputed, never resumed).  The supervised-execution
    counters record watchdog activity: ``units_retried`` units that needed
    more than one attempt, ``units_timeout`` units whose final attempt
    exceeded the wall-clock timeout, and ``worker_deaths`` worker
    processes that died (or were killed by the watchdog) and were
    replenished.

    ``narration_flushes`` counts builder flushes through the columnar
    record path: each unit measures its own flushes wherever it runs and
    reports them with its outcome, so the total does not depend on the
    worker count.
    """

    units_total: int = 0
    units_ok: int = 0
    units_cached: int = 0
    units_resumed: int = 0
    units_failed: int = 0
    units_skipped: int = 0
    units_corrupt: int = 0
    units_retried: int = 0
    units_timeout: int = 0
    worker_deaths: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_corrupt: int = 0
    narration_flushes: int = 0
    wall_seconds: float = 0.0
    workers: int = 1

    def as_dict(self) -> Dict[str, float]:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    def merge(self, other: "SweepCounters") -> "SweepCounters":
        """Combine counters from two sweeps (workers: max, wall: sum)."""
        merged = SweepCounters(workers=max(self.workers, other.workers))
        for name in self.__dataclass_fields__:
            if name == "workers":
                continue
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        return merged

    def summary(self) -> str:
        return (
            f"{self.units_total} units: {self.units_ok} computed, "
            f"{self.units_cached} cached, "
            + (f"{self.units_resumed} resumed, " if self.units_resumed else "")
            + f"{self.units_failed} failed, "
            f"{self.units_skipped} skipped "
            + (f"[{self.units_retried} retried] " if self.units_retried else "")
            + (f"[{self.units_timeout} timed out] " if self.units_timeout else "")
            + (f"[{self.worker_deaths} worker death(s)] " if self.worker_deaths else "")
            + (f"[{self.units_corrupt} corrupt unit(s)] " if self.units_corrupt else "")
            + f"(cache {self.cache_hits} hit / {self.cache_misses} miss"
            + (f" / {self.cache_corrupt} corrupt" if self.cache_corrupt else "")
            + f") in {self.wall_seconds:.2f}s with {self.workers} worker(s)"
        )


@dataclass
class KernelResult:
    """Everything measured for one timed kernel execution.

    ``output`` is the kernel's functional result on direct and record
    runs.  A replayed result (:func:`repro.sim.backends.replay_recording`)
    only prices a recorded stream, so its ``output`` is ``None``.
    """

    name: str
    cycles: float
    seconds: float
    breakdown: CycleBreakdown
    counters: OpCounters
    dram_traffic_bytes: int
    energy_pj: float
    memory_bandwidth_gbs: float
    cache_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    output: Optional[object] = None

    def speedup_over(self, baseline: "KernelResult") -> float:
        """Baseline cycles divided by this result's cycles (>1 == faster)."""
        return baseline.cycles / self.cycles if self.cycles else float("inf")

    def energy_ratio_over(self, baseline: "KernelResult") -> float:
        """Baseline energy divided by this result's energy (>1 == greener)."""
        return baseline.energy_pj / self.energy_pj if self.energy_pj else float("inf")

    def summary(self) -> str:
        return (
            f"{self.name}: {self.cycles:,.0f} cycles "
            f"({self.seconds * 1e3:.3f} ms), "
            f"bound={self.breakdown.bottleneck}, "
            f"DRAM={self.dram_traffic_bytes / 1024:.1f} KiB, "
            f"BW={self.memory_bandwidth_gbs:.2f} GB/s, "
            f"E={self.energy_pj / 1e6:.3f} uJ"
        )
