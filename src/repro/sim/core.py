"""The cycle-approximate out-of-order core model.

Kernels do not run real machine code; they *narrate* their execution to a
:class:`Core` as a stream of coarse operations (one call per VL-wide vector
instruction or scalar bookkeeping group) while computing their functional
results in numpy.  Narration is **born columnar**: each narration call
appends one row to an in-core :class:`~repro.sim.columnar.ColumnarBuilder`
through :data:`~repro.sim.columnar.APPEND`, the append path generated from
the op-kind table, and the buffered rows flush to the core's backend,
which prices them through the columnar kernels
(:func:`~repro.sim.columnar.price_flush`) — no per-op object is ever
allocated.  The differential suites pin the priced counters bit for bit
against a per-op scalar reference pricer kept under ``tests/``.

:meth:`Core.finalize` combines the counters into cycles with an
interval-style overlap model:

``cycles = max(resource bounds) + exposed miss latency``

* **Resource bounds** race against each other — issue bandwidth, vector
  unit occupancy, gather/scatter serialization, DRAM channel occupancy,
  SSPM port occupancy, and VIA commit serialization.  A kernel runs as slow
  as its most contended resource, which is how balanced pipelines behave on
  average.
* **Exposed latency** adds on top: cache-miss latency divided by the
  memory-level parallelism the access pattern allows.  Streaming misses
  overlap up to ~MSHR depth; dependent (pointer-chasing) misses barely
  overlap — the paper's Challenge 1.

This is deliberately not a per-instruction scheduler: it is fast enough to
sweep a thousand-matrix collection in Python while preserving the
mechanisms the paper's conclusions rest on (see DESIGN.md Sections 5 and 10).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np
import numpy.typing as npt

from repro.errors import SimulationError
from repro.sim import calibration as cal
from repro.sim.backends import Backend, DirectBackend
from repro.sim.columnar import APPEND, ColumnarBuilder
from repro.sim.config import DEFAULT_MACHINE, MachineConfig
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.stats import CycleBreakdown, KernelResult, OpCounters, PricedState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.via.engine import ViaDevice

_LINE = cal.CACHE_LINE_BYTES

# ---------------------------------------------------------------------------
# Narration flushes
# ---------------------------------------------------------------------------
#: rows buffered core-side before a batch flushes through the columnar
#: pricing kernels; large enough that flush overhead amortizes, small
#: enough that a sweep's peak buffered state stays a few hundred KB
DEFAULT_FLUSH_OPS = 8192

_FLUSH_LOCK = threading.Lock()
_flush_count = 0


def narration_flush_count() -> int:
    """Process-wide count of builder flushes (sweep/serve metrics)."""
    return _flush_count


def _note_flush() -> None:
    global _flush_count
    with _FLUSH_LOCK:
        _flush_count += 1


def build_result(
    *,
    name: str,
    machine: MachineConfig,
    priced: PricedState,
    via_leakage_mw: float,
    output: object = None,
) -> KernelResult:
    """Combine a run's priced state into a :class:`KernelResult`.

    This is the single cycles/energy formula, shared by
    :meth:`Core.finalize` (over its live hierarchy's
    :meth:`~repro.sim.hierarchy.MemoryHierarchy.priced` snapshot) and by
    replay (over a recording's stored or re-priced state, without a live
    core) — keeping them on one code path is what makes replayed results
    bit-identical.  The result holds ``priced.counters`` and
    ``priced.cache_stats`` themselves, not copies.
    """
    m, c = machine, priced.counters
    breakdown = CycleBreakdown(
        issue_cycles=(c.scalar_uops + c.vector_uops) / m.issue_width,
        vfu_cycles=c.vector_uops / cal.VFU_THROUGHPUT_PER_CYCLE,
        gather_serial_cycles=(
            c.gathers * m.gather_base_latency
            + c.scatters * m.scatter_base_latency
        ),
        dram_occupancy_cycles=priced.dram_occupancy_cycles,
        sspm_cycles=c.sspm_busy_cycles,
        commit_serial_cycles=c.via_instructions * cal.COMMIT_ISSUE_OVERHEAD,
        exposed_stream_latency=c.stream_miss_latency / m.mlp_stream,
        exposed_dependent_latency=c.dependent_miss_latency / m.mlp_dependent,
        branch_penalty_cycles=c.branch_mispredicts * cal.BRANCH_MISS_PENALTY,
        dependency_stall_cycles=c.dependency_stall_cycles,
    )
    cycles = breakdown.total_cycles
    seconds = m.cycles_to_seconds(cycles)
    bandwidth = priced.dram_traffic_bytes / seconds / 1e9 if seconds else 0.0
    energy = _energy_pj(c, priced.dram_lines, via_leakage_mw, seconds)
    return KernelResult(
        name=name,
        cycles=cycles,
        seconds=seconds,
        breakdown=breakdown,
        counters=c,
        dram_traffic_bytes=priced.dram_traffic_bytes,
        energy_pj=energy,
        memory_bandwidth_gbs=bandwidth,
        cache_stats=priced.cache_stats,
        output=output,
    )


def _energy_pj(
    c: OpCounters, dram_lines: int, via_leak_mw: float, seconds: float
) -> float:
    e = cal.ENERGY_PJ
    dynamic = (
        c.scalar_uops * e["scalar_op"]
        + c.vector_uops * e["vector_op"]
        + c.mem_line_accesses * e["l1_access"]
        + (c.mem_line_accesses - c.l1_hits) * e["l2_access"]
        + (c.mem_line_accesses - c.l1_hits - c.l2_hits) * e["l3_access"]
        + dram_lines * e["dram_line"]
        + c.sspm_accesses * e["sspm_access"]
        + c.cam_searches * e["cam_search"]
        + (c.gathers + c.scatters) * e["gather_overhead"]
    )
    leakage = (cal.CORE_LEAKAGE_MW + via_leak_mw) * 1e-3 * seconds * 1e12
    return dynamic + leakage


@dataclass(frozen=True)
class Array:
    """A named region of the simulated address space.

    Kernels convert element indices into byte addresses through this handle
    so the cache model sees a realistic layout.
    """

    name: str
    base: int
    nbytes: int
    elem_bytes: int

    @property
    def num_elems(self) -> int:
        return self.nbytes // self.elem_bytes

    def addr(self, indices: npt.ArrayLike) -> npt.NDArray[np.int64]:
        """Byte addresses of the given element indices."""
        idx = np.asarray(indices, dtype=np.int64)
        return np.asarray(self.base + idx * self.elem_bytes, dtype=np.int64)

    def addr_range(self, start: int, count: int) -> Tuple[int, int]:
        """(base, nbytes) of elements ``[start, start+count)``."""
        return self.base + start * self.elem_bytes, count * self.elem_bytes


class AddressSpace:
    """Bump allocator handing out line-aligned simulated arrays.

    Allocation order fully determines base addresses, which is why
    replaying a recorded op stream (allocations included) reproduces the
    exact address trace the original run generated.
    """

    def __init__(self, base: int = 0x1000_0000) -> None:
        self._next = base
        self._arrays: Dict[str, Array] = {}

    def alloc(self, name: str, num_elems: int, elem_bytes: int = 8) -> Array:
        if num_elems < 0 or elem_bytes <= 0:
            raise SimulationError(
                f"bad allocation {name!r}: {num_elems} x {elem_bytes}B"
            )
        nbytes = max(num_elems, 1) * elem_bytes
        arr = Array(name, self._next, nbytes, elem_bytes)
        # advance to the next line boundary so arrays never share lines
        self._next += (nbytes + _LINE - 1) // _LINE * _LINE
        self._arrays[name] = arr
        return arr

    def __getitem__(self, name: str) -> Array:
        return self._arrays[name]


class Core:
    """Cycle-approximate OoO core with an attached memory hierarchy.

    Parameters
    ----------
    machine:
        Machine configuration (defaults to the Table I machine).
    via:
        Optional VIA device (:class:`repro.via.engine.ViaDevice`).  When
        present, VIA instructions report their SSPM occupancy here through
        :meth:`record_via_op`.
    backend:
        Op-stream backend (defaults to :class:`~repro.sim.backends.DirectBackend`);
        it receives narration as columnar flush batches.
    flush_ops:
        Buffered-row threshold at which the builder flushes
        (default :data:`DEFAULT_FLUSH_OPS`; keyword-only).
    """

    def __init__(
        self,
        machine: MachineConfig = DEFAULT_MACHINE,
        via: Optional["ViaDevice"] = None,
        backend: Optional[Backend] = None,
        *,
        flush_ops: int = DEFAULT_FLUSH_OPS,
    ) -> None:
        self.machine = machine
        self.memory = MemoryHierarchy(machine)
        self.mem = AddressSpace()
        self._counters = OpCounters()
        self._backend: Backend = (
            backend if backend is not None else DirectBackend()
        )
        self._builder = ColumnarBuilder(max(1, int(flush_ops)))
        self.via = via
        if via is not None:
            via.attach(self)

    # ------------------------------------------------------------------
    # Batched-narration plumbing
    # ------------------------------------------------------------------
    @property
    def counters(self) -> OpCounters:
        """Priced counters, current through everything narrated so far.

        Reading them drains the narration buffer first, so mid-kernel
        observers (invariant checks, tests, the VIA engine) always see
        totals priced through every narrated op.
        """
        if self._builder.rows:
            self._flush()
        return self._counters

    @property
    def backend(self) -> Backend:
        return self._backend

    @backend.setter
    def backend(self, value: Backend) -> None:
        # drain buffered narration into the backend that observed it
        # (TracedCore swaps in a TraceBackend this way)
        self._flush()
        self._backend = value

    def _flush(self) -> None:
        """Price and hand off all buffered narration rows."""
        b = self._builder
        if not b.rows:
            return
        # detach before dispatch: pricing reads ``core.counters``, which
        # must not re-enter the flush
        batch = b.take()
        _note_flush()
        self._backend.flush(batch, self)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def alloc(self, name: str, num_elems: int, elem_bytes: int = 8) -> Array:
        """Allocate a simulated array (line-aligned)."""
        # eager allocation keeps handles usable immediately; the builder
        # row preserves the op in the stream so replays re-derive the
        # identical address space
        arr = self.mem.alloc(name, int(num_elems), int(elem_bytes))
        if APPEND["alloc"](self._builder, arr, int(num_elems), int(elem_bytes)):
            self._flush()
        return arr

    # ------------------------------------------------------------------
    # Scalar / vector compute
    # ------------------------------------------------------------------
    def scalar_ops(self, count: int) -> None:
        """Record ``count`` scalar bookkeeping uops (loop control, etc.)."""
        if APPEND["scalar_ops"](self._builder, int(count)):
            self._flush()

    def vector_op(self, kind: str = "alu", count: int = 1) -> None:
        """Record ``count`` VL-wide vector ALU instructions.

        ``kind`` selects the latency/energy class: ``alu``, ``fma``,
        ``reduce``, ``permute``, ``conflict``, ``mask``.
        """
        if APPEND["vector_op"](self._builder, kind, int(count)):
            self._flush()

    def branches(self, count: int, mispredict_rate: float) -> None:
        """Record conditional branches with a given mispredict rate.

        Sparse merge loops (SpMA Algorithm 2, SpMM index search) branch on
        data comparisons the predictor cannot learn; every mispredict costs
        a front-end refill.
        """
        if APPEND["branches"](self._builder, int(count), float(mispredict_rate)):
            self._flush()

    def dependency_stall(self, cycles: float) -> None:
        """Record serialization the OoO window cannot hide.

        Used for true dependence chains: per-row horizontal reductions
        feeding the next iteration, or read-modify-write chains on the same
        address (scalar histogram bins).
        """
        if APPEND["dependency_stall"](self._builder, float(cycles)):
            self._flush()

    # ------------------------------------------------------------------
    # Memory operations
    # ------------------------------------------------------------------
    def load_stream(self, array: Array, start: int, count: int) -> None:
        """Contiguous load of ``count`` elements starting at ``start``."""
        if APPEND["load_stream"](self._builder, array, int(start), int(count)):
            self._flush()

    def store_stream(self, array: Array, start: int, count: int) -> None:
        """Contiguous store of ``count`` elements starting at ``start``."""
        if APPEND["store_stream"](self._builder, array, int(start), int(count)):
            self._flush()

    def gather(
        self,
        array: Array,
        indices: npt.ArrayLike,
        *,
        n_instr: Optional[int] = None,
    ) -> None:
        """Vector gather ``array[indices]`` (paper Challenge 1).

        Charged the published fixed cost per gather instruction plus the
        memory-system cost of each element access, classified as dependent
        (the indices themselves were loaded first — pointer chasing).

        ``n_instr`` overrides the default ``ceil(len / VL)`` instruction
        count; kernels pass it when short rows fragment vectors (a row of
        two entries still needs a whole gather instruction).
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            return
        vl = self.machine.vl
        if n_instr is None:
            n_instr = (idx.size + vl - 1) // vl
        if APPEND["gather"](self._builder, array, idx, int(n_instr)):
            self._flush()

    def scatter(
        self,
        array: Array,
        indices: npt.ArrayLike,
        *,
        n_instr: Optional[int] = None,
    ) -> None:
        """Vector scatter to ``array[indices]`` (store-load forwarding
        traffic when used for partial results)."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            return
        vl = self.machine.vl
        if n_instr is None:
            n_instr = (idx.size + vl - 1) // vl
        if APPEND["scatter"](self._builder, array, idx, int(n_instr)):
            self._flush()

    def gather_serial(self, n_instr: int, elements_per_instr: int) -> None:
        """Account gather instructions whose memory side is billed elsewhere.

        Sliding-window kernels re-read the same lines thousands of times;
        simulating every element address is pointless when the stream side
        is already charged via :meth:`load_stream`/:meth:`bulk_stream`.
        This records only the instructions' fixed serialization cost and
        issue bandwidth.
        """
        n_instr = int(n_instr)
        if n_instr <= 0:
            return
        if APPEND["gather_serial"](self._builder, n_instr, int(elements_per_instr)):
            self._flush()

    def scatter_serial(self, n_instr: int, elements_per_instr: int) -> None:
        """Scatter counterpart of :meth:`gather_serial`."""
        n_instr = int(n_instr)
        if n_instr <= 0:
            return
        if APPEND["scatter_serial"](self._builder, n_instr, int(elements_per_instr)):
            self._flush()

    def load_windows(
        self, array: Array, starts: npt.ArrayLike, width: int
    ) -> None:
        """Vector loads of ``width`` contiguous elements at computed starts.

        Models formats that read small windows at data-dependent offsets
        (e.g. SPC5 reading ``x[col0 : col0+VL]`` per block): one vector uop
        per window, memory classified as dependent because the start comes
        from a just-loaded header, but *without* the gather fixed cost —
        these are plain (possibly unaligned) vector loads.
        """
        start_idx = np.asarray(starts, dtype=np.int64)
        if start_idx.size == 0 or width <= 0:
            return
        if APPEND["load_windows"](self._builder, array, start_idx, int(width)):
            self._flush()

    def scalar_load(
        self, array: Array, indices: npt.ArrayLike, *, dependent: bool = False
    ) -> None:
        """Scalar loads of individual elements."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            return
        if APPEND["scalar_load"](self._builder, array, idx, bool(dependent)):
            self._flush()

    def scalar_store(
        self, array: Array, indices: npt.ArrayLike, *, dependent: bool = False
    ) -> None:
        """Scalar stores of individual elements."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            return
        if APPEND["scalar_store"](self._builder, array, idx, bool(dependent)):
            self._flush()

    def bulk_stream(
        self, array: Array, *, passes: int, write: bool = False
    ) -> None:
        """Aggregate accounting for re-streaming an array ``passes`` times.

        Inner-product SpMM re-reads all of matrix ``B`` once per row of
        ``A`` — simulating millions of identical line accesses per matrix
        is pointless, so repeat passes are classified analytically: the
        array is served by the smallest cache level that fits it (first
        pass runs through the detailed model and warms the hierarchy).
        """
        if passes <= 0:
            return
        if APPEND["bulk_stream"](self._builder, array, int(passes), bool(write)):
            self._flush()

    # ------------------------------------------------------------------
    # VIA hook
    # ------------------------------------------------------------------
    def record_via_op(
        self,
        *,
        sspm_elements: int,
        cam_searches: int,
        port_cycles: Optional[float] = None,
        port_passes: Optional[int] = None,
        count: int = 1,
    ) -> None:
        """Account VIA instructions' SSPM work (called by the engine).

        The engine passes ``port_passes`` — the FIVU profile's pass count —
        and the port-cycle cost is derived at pricing time from the VIA
        configuration of whichever core prices the op: a VIA op touching
        ``k`` SSPM elements per pass needs ``ceil(k / ports)`` scratchpad
        cycles per pass (Section IV-B, preprocessing-1 nested pipeline).
        A pre-computed ``port_cycles`` is also accepted and pins the cost
        (legacy callers / cores without a VIA device).  The commit
        handshake adds a fixed overhead and VIA instructions serialize at
        commit (Section IV-E).  ``count`` bulk-records that many identical
        instructions (per-instruction operand values do not change the
        timing, only the element counts do).
        """
        if APPEND["record_via_op"](
            self._builder,
            int(sspm_elements),
            int(cam_searches),
            int(count),
            None if port_passes is None else int(port_passes),
            None if port_cycles is None else float(port_cycles),
        ):
            self._flush()

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def finalize(self, name: str, *, output: object = None) -> KernelResult:
        """Combine the accumulated counters into a :class:`KernelResult`."""
        self._flush()
        self._backend.on_finalize(self, name)
        return build_result(
            name=name,
            machine=self.machine,
            priced=self.memory.priced(self._counters),
            via_leakage_mw=self.via.leakage_mw if self.via is not None else 0.0,
            output=output,
        )
