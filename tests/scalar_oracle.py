"""Scalar reference pricer: the per-op walk the columnar engine must match.

Production prices every op stream with the columnar engine
(:mod:`repro.sim.columnar`): narration flushes through
:func:`~repro.sim.columnar.price_flush`, replays through
:func:`~repro.sim.columnar.columnar_via_totals` and
:func:`~repro.sim.columnar.price_columnar`.  This module keeps the engine it
replaced as a test oracle — one op record (:mod:`tests.op_records`) at a
time, each priced against a live :class:`~repro.sim.core.Core` — and the
differential, property and invariant suites compare production against it
bit for bit:

* :func:`apply` prices one op on a core; its memory side walks each line
  through the core's caches with a reference walk of its own
  (:func:`_walk`, one line per call, dirty victims written back through
  helpers), independent of
  :meth:`repro.sim.hierarchy.MemoryHierarchy.walk`, the walk production
  runs, though both drive the same :class:`~repro.sim.cache.Cache`
  objects;
* :func:`via_totals` prices a stream's VIA ops under a port configuration;
* :func:`price_flush` is a per-op stand-in for
  :func:`repro.sim.columnar.price_flush`;
* :func:`replay` re-prices a recording the scalar way, with per-op
  invariant checks when asked;
* :func:`scalar_pricing` installs both, so narration through any backend
  prices op by op and sweep replays walk ops too.
"""

from __future__ import annotations

import contextlib
import dataclasses
import weakref
from typing import Callable, Dict, Iterator, List, Optional
from unittest import mock

import numpy as np

from repro.errors import InvariantError, SimulationError
from repro.sim import calibration as cal
from repro.sim import columnar
from repro.sim.backends import _counters_violation, check_result_invariants
from repro.sim.cache import compress_lines, stream_lines
from repro.sim.columnar import FlushBatch, stream_uop_count
from repro.sim.config import MachineConfig
from repro.sim.core import Array, Core, build_result
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.ops import Recording
from repro.sim.stats import KernelResult, OpCounters
from repro.via.config import ViaConfig
from repro.via.fivu import FivuTiming

from tests.op_records import (
    AllocOp,
    BranchesOp,
    BulkStreamOp,
    DependencyStallOp,
    LoadWindowsOp,
    Op,
    ScalarOpsOp,
    VectorOpOp,
    ViaOpRecord,
    from_ops,
    to_ops,
)

_LINE = cal.CACHE_LINE_BYTES


# ----------------------------------------------------------------------
# the reference walk: one line at a time through a core's caches
# ----------------------------------------------------------------------
def _walk(memory: MemoryHierarchy, line: int, write: bool) -> int:
    """Walk one demand access through the hierarchy; returns the fill level.

    0 = L1 hit, 1 = L2 hit, 2 = L3 hit, 3 = DRAM fill.  Dirty victims
    cascade downwards as a side effect (inclusive write-back).
    """
    hit, victim = memory.l1.access_line(line, write)
    if victim is not None:
        _writeback_to_l2(memory, victim)
    if hit:
        return 0
    hit, victim = memory.l2.access_line(line, False)
    if victim is not None:
        _writeback_to_l3(memory, victim)
    if hit:
        return 1
    hit, victim = memory.l3.access_line(line, False)
    if victim is not None:
        memory.dram.write_line()
    if hit:
        return 2
    memory.dram.read_line()
    return 3


def _writeback_to_l2(memory: MemoryHierarchy, line: int) -> None:
    _hit, victim = memory.l2.access_line(line, True)
    if victim is not None:
        _writeback_to_l3(memory, victim)


def _writeback_to_l3(memory: MemoryHierarchy, line: int) -> None:
    _hit, victim = memory.l3.access_line(line, True)
    if victim is not None:
        memory.dram.write_line()


def _access_lines(
    core: Core, lines: np.ndarray, *, write: bool, dependent: bool
) -> None:
    """Walk line ids in order and add their cost to the core's counters.

    Latency accumulates per line as ``0.0 + lat_0 + lat_1 + ...``, a left
    fold over each line's cumulative fill latency.
    """
    m = core.machine
    level_latency = (
        m.l1.latency,
        m.l1.latency + m.l2.latency,
        m.l1.latency + m.l2.latency + m.l3.latency,
        m.l1.latency + m.l2.latency + m.l3.latency + m.dram_latency,
    )
    hits = [0, 0, 0, 0]
    latency_sum = 0.0
    for line in lines.tolist():
        level = _walk(core.memory, line, write)
        hits[level] += 1
        latency_sum = latency_sum + level_latency[level]
    c = core.counters
    c.mem_line_accesses += int(lines.size)
    c.l1_hits += hits[0]
    c.l2_hits += hits[1]
    c.l3_hits += hits[2]
    c.dram_fills += hits[3]
    # latency beyond the (pipelined) L1 hit cost is what stalls expose
    miss_latency = max(latency_sum - int(lines.size) * m.l1.latency, 0.0)
    if dependent:
        c.dependent_miss_latency += miss_latency
    else:
        c.stream_miss_latency += miss_latency


def _access_addresses(
    core: Core, addresses: np.ndarray, *, write: bool, dependent: bool
) -> None:
    """Access byte addresses, LSQ-coalesced per line."""
    lines, _counts = compress_lines(addresses, core.machine.l1.line_bytes)
    _access_lines(core, lines, write=write, dependent=dependent)


def _stream_uops(core: Core, count: int, elem_bytes: int) -> None:
    core.counters.vector_uops += stream_uop_count(core.machine, count, elem_bytes)


def _price_stream(
    core: Core, array: Array, start: int, count: int, *, write: bool
) -> None:
    """Detailed-model cost of one contiguous stream access."""
    base, nbytes = array.addr_range(start, count)
    lines = stream_lines(base, nbytes, core.machine.l1.line_bytes)
    _access_lines(core, lines, write=write, dependent=False)
    _stream_uops(core, count, array.elem_bytes)


def _port_cycles(op: ViaOpRecord, via_config: Optional[ViaConfig]) -> float:
    if op.port_cycles is not None:
        return float(op.port_cycles)
    if via_config is None:
        raise SimulationError("cannot price a VIA op without a VIA configuration")
    # the op constructor guarantees port_passes when port_cycles is None
    assert op.port_passes is not None
    return float(
        FivuTiming(
            sspm_elements=op.sspm_elements,
            cam_searches=op.cam_searches,
            port_passes=op.port_passes,
        ).port_cycles(via_config)
    )


# ----------------------------------------------------------------------
# per-kind pricing
# ----------------------------------------------------------------------
def _alloc(op: AllocOp, core: Core) -> None:
    core.mem.alloc(op.name, op.num_elems, op.elem_bytes)


def _scalar_ops(op: ScalarOpsOp, core: Core) -> None:
    core.counters.scalar_uops += op.count


def _vector_op(op: VectorOpOp, core: Core) -> None:
    c = core.counters
    c.vector_uops += op.count
    if op.op_kind == "fma":
        c.vector_fma += op.count
    elif op.op_kind == "reduce":
        c.vector_reduce += op.count
    elif op.op_kind == "permute":
        c.vector_permute += op.count
    elif op.op_kind == "conflict":
        c.vector_conflict += op.count


def _branches(op: BranchesOp, core: Core) -> None:
    c = core.counters
    c.scalar_uops += op.count
    c.branches += op.count
    c.branch_mispredicts += op.count * op.mispredict_rate


def _dependency_stall(op: DependencyStallOp, core: Core) -> None:
    core.counters.dependency_stall_cycles += op.cycles


def _stream(op, core: Core) -> None:
    _price_stream(
        core, core.mem[op.array], op.start, op.count,
        write=op.kind == "store_stream",
    )


def _indexed_vector(op, core: Core) -> None:
    write = op.kind == "scatter"
    c = core.counters
    if write:
        c.scatters += op.n_instr
        c.scatter_elements += int(op.indices.size)
    else:
        c.gathers += op.n_instr
        c.gather_elements += int(op.indices.size)
    c.vector_uops += op.n_instr
    arr = core.mem[op.array]
    _access_addresses(core, arr.addr(op.indices), write=write, dependent=True)


def _serial_indexed(op, core: Core) -> None:
    c = core.counters
    if op.kind == "scatter_serial":
        c.scatters += op.n_instr
        c.scatter_elements += op.n_instr * op.elements_per_instr
    else:
        c.gathers += op.n_instr
        c.gather_elements += op.n_instr * op.elements_per_instr
    c.vector_uops += op.n_instr


def _load_windows(op: LoadWindowsOp, core: Core) -> None:
    arr = core.mem[op.array]
    core.counters.vector_uops += int(op.starts.size)
    offsets = np.arange(op.width, dtype=np.int64)
    addrs = (op.starts[:, None] + offsets[None, :]).ravel() * arr.elem_bytes
    addrs += arr.base
    _access_addresses(core, addrs, write=False, dependent=True)


def _scalar_indexed(op, core: Core) -> None:
    core.counters.scalar_uops += int(op.indices.size)
    arr = core.mem[op.array]
    _access_addresses(
        core,
        arr.addr(op.indices),
        write=op.kind == "scalar_store",
        dependent=op.dependent,
    )


def _bulk_stream(op: BulkStreamOp, core: Core) -> None:
    arr = core.mem[op.array]
    _price_stream(core, arr, 0, arr.num_elems, write=op.write)
    extra = op.passes - 1
    if extra <= 0:
        return
    m = core.machine
    lines = -(-arr.nbytes // _LINE)
    c = core.counters
    # residency level: smallest cache whose capacity holds the array
    if arr.nbytes <= m.l1.size_kb * 1024:
        level_latency, level = 0.0, "l1"
    elif arr.nbytes <= m.l2.size_kb * 1024:
        level_latency, level = float(m.l2.latency), "l2"
    elif arr.nbytes <= m.l3.size_kb * 1024:
        level_latency, level = float(m.l2.latency + m.l3.latency), "l3"
    else:
        level_latency, level = (
            float(m.l2.latency + m.l3.latency + m.dram_latency),
            "dram",
        )
    c.mem_line_accesses += extra * lines
    if level == "l1":
        c.l1_hits += extra * lines
    elif level == "l2":
        c.l2_hits += extra * lines
    elif level == "l3":
        c.l3_hits += extra * lines
    else:
        c.dram_fills += extra * lines
        core.memory.dram.read_lines(extra * lines)
    c.stream_miss_latency += extra * lines * level_latency
    _stream_uops(core, arr.num_elems * extra, arr.elem_bytes)


def _add_via(totals: OpCounters, op: ViaOpRecord, port_cycles: float) -> None:
    totals.via_instructions += op.count
    totals.vector_uops += op.count
    totals.sspm_accesses += op.sspm_elements * op.count
    totals.cam_searches += op.cam_searches * op.count
    totals.sspm_busy_cycles += (
        port_cycles + cal.COMMIT_ISSUE_OVERHEAD
    ) * op.count


def _via(op: ViaOpRecord, core: Core) -> None:
    if op.port_cycles is None and core.via is None:
        raise SimulationError("cannot price a VIA op on a core without a VIA device")
    via_config = core.via.config if core.via is not None else None
    _add_via(core.counters, op, _port_cycles(op, via_config))


_APPLY: Dict[str, Callable[..., None]] = {
    "alloc": _alloc,
    "scalar_ops": _scalar_ops,
    "vector_op": _vector_op,
    "branches": _branches,
    "dependency_stall": _dependency_stall,
    "load_stream": _stream,
    "store_stream": _stream,
    "gather": _indexed_vector,
    "scatter": _indexed_vector,
    "gather_serial": _serial_indexed,
    "scatter_serial": _serial_indexed,
    "load_windows": _load_windows,
    "scalar_load": _scalar_indexed,
    "scalar_store": _scalar_indexed,
    "bulk_stream": _bulk_stream,
    "record_via_op": _via,
}


def apply(op: Op, core: Core) -> None:
    """Price one op against a live core's counters and memory hierarchy."""
    _APPLY[op.kind](op, core)


# ----------------------------------------------------------------------
# stream-level entry points
# ----------------------------------------------------------------------
def via_totals(ops: List[Op], via_config: Optional[ViaConfig]) -> OpCounters:
    """Counter contributions of a stream's VIA ops, accumulated in order
    from zero — what each :class:`ViaOpRecord` adds to a live core."""
    totals = OpCounters()
    for op in ops:
        if isinstance(op, ViaOpRecord):
            _add_via(totals, op, _port_cycles(op, via_config))
    return totals


def price_flush(batch: FlushBatch, core: Core) -> None:
    """Per-op stand-in for :func:`repro.sim.columnar.price_flush`.

    Alloc rows are skipped, as in production: the core allocates eagerly
    at narration time so kernels can keep using the returned handles.
    """
    for op in to_ops(batch.cols):
        if not isinstance(op, AllocOp):
            apply(op, core)


#: op lists materialized once per recording: warm replays walk resident
#: ops, and only a freshly loaded recording pays the conversion
_OPS: "weakref.WeakKeyDictionary[Recording, List[Op]]" = weakref.WeakKeyDictionary()


def recording_ops(recording: Recording) -> List[Op]:
    """The recording's stream as op records (materialized once)."""
    ops = _OPS.get(recording)
    if ops is None:
        ops = _OPS[recording] = to_ops(recording.columnar())
    return ops


def make_recording(
    name: str,
    machine: MachineConfig,
    via_config: Optional[ViaConfig],
    ops: List[Op],
) -> Recording:
    """A synthetic recording (no stored pricing state) built from op records.

    The oracle walks the given op objects themselves, so a test can hand
    it ops corrupted after construction — exactly what its per-op
    invariant checks exist to catch.
    """
    recording = Recording(
        name=name,
        machine=machine,
        via_config=via_config,
        columnar=from_ops(ops),
    )
    _OPS[recording] = list(ops)
    return recording


def replay(
    recording: Recording,
    machine: Optional[MachineConfig] = None,
    via_config: Optional[ViaConfig] = None,
    *,
    validate: bool = False,
) -> KernelResult:
    """Re-price a recording by walking its ops one at a time.

    Same two tiers as :func:`repro.sim.backends.replay_recording`: a
    same-machine replay reuses the recording's stored pricing state and
    re-prices only the VIA ops; any other machine walks every non-VIA op
    through a fresh core.  With ``validate=True`` each op's counter delta
    is checked as it is priced and the finished result is checked too.
    """
    if machine is None:
        machine = recording.machine
    if via_config is None:
        via_config = recording.via_config
    name = recording.name
    if (
        recording.via_config is not None
        and via_config is not None
        and via_config.name != recording.via_config.name
    ):
        name = name.replace(recording.via_config.name, via_config.name)
    if via_config is not None:
        from repro.via import area

        via_leak = area.leakage_mw(via_config)
    else:
        via_leak = 0.0
    ops = recording_ops(recording)
    via_side = via_totals(ops, via_config)
    if recording.priced is not None and machine == recording.machine:
        p = recording.priced
        counters = dataclasses.replace(p.counters)
        counters.sspm_busy_cycles = via_side.sspm_busy_cycles
        result = build_result(
            name=name,
            machine=machine,
            priced=p.with_counters(counters),
            via_leakage_mw=via_leak,
        )
        return check_result_invariants(result) if validate else result
    core = Core(machine)
    for op in ops:
        if isinstance(op, ViaOpRecord):
            continue
        before = dataclasses.replace(core.counters)
        apply(op, core)
        if validate:
            problem = _counters_violation(before, core.counters)
            if problem is not None:
                raise InvariantError(
                    f"op {op.kind!r} violated a model invariant: {problem}"
                )
    counters = dataclasses.replace(core.counters)
    counters.via_instructions += via_side.via_instructions
    counters.vector_uops += via_side.vector_uops
    counters.sspm_accesses += via_side.sspm_accesses
    counters.cam_searches += via_side.cam_searches
    counters.sspm_busy_cycles += via_side.sspm_busy_cycles
    result = build_result(
        name=name,
        machine=machine,
        priced=core.memory.priced(counters),
        via_leakage_mw=via_leak,
    )
    return check_result_invariants(result) if validate else result


@contextlib.contextmanager
def scalar_pricing() -> Iterator[None]:
    """Price everything inside the block the scalar way.

    Backends look ``price_flush`` up on :mod:`repro.sim.columnar` at call
    time, so patching it there reroutes direct, recording, traced and
    validating narration alike; sweep units replay through the name
    :mod:`repro.eval.units` imported, so patching that reroutes every
    record/replay sweep to :func:`replay`.
    """
    from repro.eval import units

    with mock.patch.object(columnar, "price_flush", price_flush), \
            mock.patch.object(units, "replay_recording", replay):
        yield
