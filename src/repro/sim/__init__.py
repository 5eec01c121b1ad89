"""Cycle-approximate machine model — the gem5 full-system substitute.

See DESIGN.md Sections 1 and 5: a single-core out-of-order model whose
timing is driven by the mechanisms the paper's evaluation depends on —
gather/scatter serialization, cache/DRAM traffic, MSHR-limited memory-level
parallelism, and VIA commit-time execution.
"""

from repro.sim.backends import (
    Backend,
    DirectBackend,
    RecorderBackend,
    TraceBackend,
    replay_recording,
)
from repro.sim.cache import Cache, CacheStats, compress_lines, stream_lines
from repro.sim.columnar import (
    ColumnarBuilder,
    ColumnarOps,
    FlushBatch,
    check_columnar_invariants,
    columnar_via_totals,
    concat_columnar,
    price_columnar,
    price_flush,
)
from repro.sim.config import (
    DEFAULT_MACHINE,
    CacheConfig,
    MachineConfig,
    table1,
)
from repro.sim.core import (
    DEFAULT_FLUSH_OPS,
    AddressSpace,
    Array,
    Core,
    narration_flush_count,
)
from repro.sim.dram import DRAMModel, DRAMStats
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.ops import (
    OPS_SCHEMA_VERSION,
    Recording,
    load_recordings,
    save_recordings,
    stream_shape_key,
)
from repro.sim.stats import (
    CycleBreakdown,
    KernelResult,
    OpCounters,
    SweepCounters,
)

__all__ = [
    "Backend",
    "DirectBackend",
    "RecorderBackend",
    "TraceBackend",
    "replay_recording",
    "ColumnarBuilder",
    "ColumnarOps",
    "FlushBatch",
    "check_columnar_invariants",
    "columnar_via_totals",
    "concat_columnar",
    "price_columnar",
    "price_flush",
    "OPS_SCHEMA_VERSION",
    "Recording",
    "load_recordings",
    "save_recordings",
    "stream_shape_key",
    "Cache",
    "CacheStats",
    "compress_lines",
    "stream_lines",
    "DEFAULT_MACHINE",
    "CacheConfig",
    "MachineConfig",
    "table1",
    "AddressSpace",
    "Array",
    "Core",
    "DEFAULT_FLUSH_OPS",
    "narration_flush_count",
    "DRAMModel",
    "DRAMStats",
    "MemoryHierarchy",
    "CycleBreakdown",
    "KernelResult",
    "OpCounters",
    "SweepCounters",
]
