"""Machine configuration — the reproduction's Table I.

:class:`MachineConfig` captures the simulated single-core out-of-order
processor (pipeline widths, vector unit, cache hierarchy, DRAM) and
:func:`table1` renders the same parameter table the paper prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.sim import calibration as cal


def _require_whole_cycles(name: str, value: float) -> None:
    """Latencies are whole cycles: the pricing engine's miss-latency sums
    are exact under any summation order only for integer latencies."""
    try:
        whole = float(value).is_integer()
    except (TypeError, ValueError):
        whole = False
    if not whole:
        raise ConfigError(f"{name} must be a whole number of cycles, got {value!r}")


@dataclass(frozen=True)
class CacheConfig:
    """One cache level."""

    size_kb: int
    ways: int
    latency: int
    line_bytes: int = cal.CACHE_LINE_BYTES

    def __post_init__(self):
        if self.size_kb <= 0 or self.ways <= 0 or self.latency <= 0:
            raise ConfigError(f"invalid cache config: {self}")
        _require_whole_cycles("cache latency", self.latency)
        size_bytes = self.size_kb * 1024
        if size_bytes % (self.ways * self.line_bytes):
            raise ConfigError(
                f"cache size {self.size_kb} KB not divisible into "
                f"{self.ways} ways of {self.line_bytes}-byte lines"
            )

    @property
    def num_sets(self) -> int:
        return self.size_kb * 1024 // (self.ways * self.line_bytes)


@dataclass(frozen=True)
class MachineConfig:
    """Single-core OoO machine model parameters (paper Table I class)."""

    clock_ghz: float = cal.CLOCK_GHZ
    issue_width: int = cal.ISSUE_WIDTH
    rob_entries: int = cal.ROB_ENTRIES
    mshrs: int = cal.MSHRS

    vector_lanes: int = cal.VECTOR_LANES_F64
    vfu_fma_latency: int = cal.VFU_FMA_LATENCY
    gather_base_latency: int = cal.GATHER_BASE_LATENCY
    scatter_base_latency: int = cal.SCATTER_BASE_LATENCY

    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(cal.L1_KB, cal.L1_WAYS, cal.L1_LATENCY)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(cal.L2_KB, cal.L2_WAYS, cal.L2_LATENCY)
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig(cal.L3_KB, cal.L3_WAYS, cal.L3_LATENCY)
    )
    dram_latency: int = cal.DRAM_LATENCY
    dram_bw_bytes_per_cycle: float = cal.DRAM_BW_BYTES_PER_CYCLE

    mlp_stream: float = cal.MLP_STREAM
    mlp_dependent: float = cal.MLP_DEPENDENT

    def __post_init__(self):
        if self.clock_ghz <= 0:
            raise ConfigError(f"clock must be positive, got {self.clock_ghz}")
        if self.issue_width <= 0 or self.rob_entries <= 0 or self.mshrs <= 0:
            raise ConfigError("pipeline widths must be positive")
        if self.vector_lanes <= 0:
            raise ConfigError("vector_lanes must be positive")
        if self.dram_bw_bytes_per_cycle <= 0:
            raise ConfigError("DRAM bandwidth must be positive")
        _require_whole_cycles("dram_latency", self.dram_latency)

    @property
    def vl(self) -> int:
        """Vector length in 64-bit elements (paper: AVX2 = 4 doubles)."""
        return self.vector_lanes

    @property
    def vl32(self) -> int:
        """Vector length in 32-bit elements (AVX2 = 8 ints/floats)."""
        return 2 * self.vector_lanes

    def with_lanes(self, lanes: int) -> "MachineConfig":
        """A copy with a different vector width (for sensitivity studies)."""
        return replace(self, vector_lanes=lanes)

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / (self.clock_ghz * 1e9)


DEFAULT_MACHINE = MachineConfig()


def table1(machine: MachineConfig = DEFAULT_MACHINE) -> str:
    """Render the simulation-parameter table (paper Table I substitute)."""
    rows = [
        ("Core", f"out-of-order, {machine.issue_width}-wide issue, "
                 f"{machine.rob_entries}-entry ROB, {machine.clock_ghz:.1f} GHz"),
        ("Vector unit", f"{machine.vector_lanes * 64}-bit (AVX2-class), "
                        f"{machine.vector_lanes} x f64 lanes, "
                        f"FMA latency {machine.vfu_fma_latency}"),
        ("Gather/scatter", f"{machine.gather_base_latency}/"
                           f"{machine.scatter_base_latency} cycles base latency"),
        ("L1D", f"{machine.l1.size_kb} KB, {machine.l1.ways}-way, "
                f"{machine.l1.latency} cycles"),
        ("L2", f"{machine.l2.size_kb} KB, {machine.l2.ways}-way, "
               f"{machine.l2.latency} cycles"),
        ("L3", f"{machine.l3.size_kb // 1024} MB, {machine.l3.ways}-way, "
               f"{machine.l3.latency} cycles"),
        ("DRAM", f"{machine.dram_latency} cycles, "
                 f"{machine.dram_bw_bytes_per_cycle * machine.clock_ghz:.1f} GB/s"),
        ("MSHRs", f"{machine.mshrs} outstanding misses"),
    ]
    width = max(len(k) for k, _ in rows)
    lines = ["Table I — simulated machine parameters", "-" * 60]
    lines += [f"{k.ljust(width)}  {v}" for k, v in rows]
    return "\n".join(lines)
