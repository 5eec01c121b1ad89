"""Pricing backends for the op-stream IR.

Narration reaches a backend as whole :class:`~repro.sim.columnar.FlushBatch`
column blocks from the core's narration buffer, via :meth:`Backend.flush`;
no per-op objects exist on this path.  Every backend prices a flush through
:func:`~repro.sim.columnar.price_flush`, directly or through the backend it
wraps:

* :class:`DirectBackend` — price immediately and retain nothing (the
  default);
* :class:`RecorderBackend` — capture the stream *and* price it, so a
  recording run produces both the artifact and the baseline result in one
  pass.  The stream is captured as the flushed column blocks themselves:
  the recording is born columnar;
* :class:`TraceBackend` — log a :class:`~repro.sim.trace.TraceEvent` per
  flushed row, rendered from the op-kind table, then delegate to an inner
  backend (installed by :class:`~repro.sim.trace.TracedCore`);
* :class:`InvariantBackend` — delegate, then assert the model's
  conservation laws (gem5-style runtime self-checking) at flush
  granularity: structurally via
  :func:`~repro.sim.columnar.check_columnar_invariants`, then monotone
  non-negative counters, cache hit totals that account for every line
  access, bounded branch mispredicts, and SSPM occupancy within capacity
  over the whole batch's counter delta.

Replay is not a backend but a driver: :func:`replay_recording` re-prices a
recorded stream under a target machine/VIA pair through the same columnar
kernels direct execution uses, so replayed results are bit-identical by
construction.  Every run, direct, recorded or replayed, ends as one
:class:`~repro.sim.stats.PricedState` handed to
:func:`~repro.sim.core.build_result`; a live core's comes from its
hierarchy's :meth:`~repro.sim.hierarchy.MemoryHierarchy.priced`.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from typing import TYPE_CHECKING, List, Optional

from repro.errors import InvariantError
from repro.sim import columnar
from repro.sim.config import MachineConfig
from repro.sim.ops import Recording, ReplayMismatchError, stream_shape_key
from repro.sim.stats import OpCounters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Core
    from repro.sim.stats import KernelResult
    from repro.sim.trace import Trace
    from repro.via.config import ViaConfig


class Backend:
    """Base backend: price each narration batch as it is flushed."""

    def flush(self, batch: columnar.FlushBatch, core: "Core") -> None:
        """Price one narration batch against the core's live state."""
        # looked up on the module at call time, so a wrapper installed on
        # ``columnar.price_flush`` (profilers, test pricers) sees every flush
        columnar.price_flush(batch, core)

    def on_finalize(self, core: "Core", name: str) -> None:
        """Called by :meth:`Core.finalize` before the result is built."""


class DirectBackend(Backend):
    """Price immediately, retain nothing (the default backend)."""


class RecorderBackend(Backend):
    """Capture the op stream while pricing it.

    After the kernel calls ``finalize``, :attr:`recording` holds the
    complete :class:`~repro.sim.ops.Recording` (stream + configurations +
    priced state), ready for :func:`~repro.sim.ops.save_recordings`; the
    kernel's functional output stays on the record run's own result.
    Flushed column blocks are stitched with
    :func:`~repro.sim.columnar.concat_columnar` at finalize, so the
    recording carries native struct-of-arrays columns end to end.
    """

    def __init__(self) -> None:
        self._chunks: List[columnar.ColumnarOps] = []
        self.recording: Optional[Recording] = None

    def flush(self, batch: columnar.FlushBatch, core: "Core") -> None:
        self._chunks.append(batch.cols)
        super().flush(batch, core)

    def on_finalize(self, core: "Core", name: str) -> None:
        self.recording = Recording(
            name=name,
            machine=core.machine,
            via_config=core.via.config if core.via is not None else None,
            columnar=columnar.concat_columnar(self._chunks),
            priced=core.memory.priced(dataclasses.replace(core.counters)),
        )


class TraceBackend(Backend):
    """Log every flushed row to a :class:`~repro.sim.trace.Trace`, then
    delegate.

    Rows are logged in narration order, each read back with
    :func:`~repro.sim.columnar.decode_row` and rendered by its
    :class:`~repro.sim.columnar.OpKind`, so the trace reads op by op
    although narration arrives in batches; tracing is opt-in, so only
    traced runs pay for the decoding.
    """

    def __init__(self, trace: "Trace", inner: Optional[Backend] = None) -> None:
        self.trace = trace
        self.inner = inner if inner is not None else DirectBackend()

    def flush(self, batch: columnar.FlushBatch, core: "Core") -> None:
        cols = batch.cols
        for i in range(len(cols)):
            kind, values = columnar.decode_row(cols, i)
            self.trace.add(kind.name, *kind.render(values))
        self.inner.flush(batch, core)

    def on_finalize(self, core: "Core", name: str) -> None:
        self.inner.on_finalize(core, name)


#: integer counters that classify where each line access was served; their
#: deltas must sum to the delta of ``mem_line_accesses`` on every flush
_CACHE_LEVEL_FIELDS = ("l1_hits", "l2_hits", "l3_hits", "dram_fills")

#: slack for float-accumulated counters (mispredicts, latencies)
_FLOAT_SLACK = 1e-9


def _counters_violation(before: OpCounters, after: OpCounters) -> Optional[str]:
    """First conservation-law violation in a counter delta, or ``None``.

    The laws checked are the ones every op (and so every batch of ops)
    must preserve regardless of its kind — they are how
    :func:`repro.sim.core.build_result` prices results:

    * every counter is monotone (ops only ever add work) and finite;
    * cache accounting conserves lines: each new line access is served by
      exactly one of L1/L2/L3/DRAM;
    * branch mispredicts cannot exceed the branches that produced them.
    """
    for name in before.__dataclass_fields__:
        b, a = getattr(before, name), getattr(after, name)
        if not math.isfinite(a):
            return f"counter {name} became non-finite ({a!r})"
        if a < b - _FLOAT_SLACK:
            return f"counter {name} decreased from {b!r} to {a!r}"
    d_lines = after.mem_line_accesses - before.mem_line_accesses
    d_served = sum(
        getattr(after, f) - getattr(before, f) for f in _CACHE_LEVEL_FIELDS
    )
    if d_served != d_lines:
        return (
            f"cache conservation broken: {d_lines} new line accesses but "
            f"{d_served} served (l1+l2+l3+dram)"
        )
    d_branches = after.branches - before.branches
    d_mispredicts = after.branch_mispredicts - before.branch_mispredicts
    if d_mispredicts > d_branches + _FLOAT_SLACK:
        return (
            f"{d_mispredicts} new branch mispredicts exceed "
            f"{d_branches} new branches"
        )
    return None


def _sspm_violation(core: "Core") -> Optional[str]:
    """SSPM occupancy bound, when a VIA device is attached."""
    via = core.via
    if via is None:
        return None
    occupancy = via.sspm.element_count
    capacity = via.config.cam_entries
    if not (0 <= occupancy <= capacity):
        return (
            f"SSPM occupancy {occupancy} outside [0, {capacity}] "
            f"({via.config.name})"
        )
    return None


def check_result_invariants(result: "KernelResult") -> "KernelResult":
    """Validate a finished :class:`~repro.sim.stats.KernelResult`.

    Used by validating replays (whose fast path is pure arithmetic over a
    stored :class:`~repro.sim.stats.PricedState`, so there are no counter
    deltas to check) and by :meth:`InvariantBackend.on_finalize`: the
    cycle breakdown's priced components must all be finite and
    non-negative, and the total must dominate every component — the
    model's cycle-conservation law.
    """
    zero = OpCounters()
    problem = _counters_violation(zero, result.counters)
    if problem is not None:
        raise InvariantError(f"{result.name}: {problem}")
    breakdown = result.breakdown.as_dict()
    total = result.breakdown.total_cycles
    for name, value in breakdown.items():
        if name == "bottleneck":
            continue
        if not math.isfinite(value):
            raise InvariantError(
                f"{result.name}: cycle component {name} is non-finite ({value!r})"
            )
        if value < 0:
            raise InvariantError(
                f"{result.name}: cycle component {name} is negative ({value!r})"
            )
        if name not in ("total_cycles",) and value > total + _FLOAT_SLACK * max(
            1.0, total
        ):
            raise InvariantError(
                f"{result.name}: cycle component {name}={value!r} exceeds "
                f"total_cycles={total!r}"
            )
    if not math.isfinite(result.energy_pj) or result.energy_pj < 0:
        raise InvariantError(
            f"{result.name}: energy {result.energy_pj!r} is not a "
            "finite non-negative number"
        )
    return result


class InvariantBackend(Backend):
    """Delegate to ``inner``, then assert the model's conservation laws.

    Validation runs at flush granularity: :meth:`flush` first runs
    :func:`~repro.sim.columnar.check_columnar_invariants` over the batch's
    columns (structural laws, SSPM footprint vs capacity), then prices the
    batch through the inner backend and checks the counter-delta laws over
    the whole batch — so the first flush that corrupts the model raises
    :class:`~repro.errors.InvariantError`, not some later observer.  Wrap
    any backend: ``InvariantBackend()`` validates direct pricing,
    ``InvariantBackend(RecorderBackend())`` validates while recording.
    """

    def __init__(self, inner: Optional[Backend] = None) -> None:
        self.inner = inner if inner is not None else DirectBackend()

    def flush(self, batch: columnar.FlushBatch, core: "Core") -> None:
        n = len(batch.cols)
        try:
            capacity = (
                core.via.config.cam_entries if core.via is not None else None
            )
            columnar.check_columnar_invariants(batch.cols, capacity=capacity)
        except InvariantError as exc:
            raise InvariantError(
                f"flush of {n} narrated ops violated a model invariant: {exc}"
            ) from exc
        before = dataclasses.replace(core.counters)
        self.inner.flush(batch, core)
        problem = _counters_violation(before, core.counters)
        if problem is None:
            problem = _sspm_violation(core)
        if problem is not None:
            raise InvariantError(
                f"flush of {n} narrated ops violated a model invariant: "
                f"{problem}"
            )

    def on_finalize(self, core: "Core", name: str) -> None:
        self.inner.on_finalize(core, name)
        problem = _counters_violation(OpCounters(), core.counters)
        if problem is None:
            problem = _sspm_violation(core)
        if problem is not None:
            raise InvariantError(f"finalize({name!r}): {problem}")


#: guards every Recording's ``_machine_memo``: the recording store's load
#: memo hands the *same* Recording object to concurrent serve executor
#: threads, so the per-machine pricing memo is cross-thread shared state
_MEMO_LOCK = threading.Lock()


def replay_recording(
    recording: Recording,
    *,
    machine: Optional[MachineConfig] = None,
    via_config: Optional["ViaConfig"] = None,
    validate: bool = False,
) -> "KernelResult":
    """Re-price a recorded op stream under a target configuration.

    No functional numpy runs: the recorded columns are priced as if on a
    fresh core (cold caches, same bump-allocated address space), so the
    result carries timing only: its ``output`` is ``None``.  The target
    must be stream-shape compatible with the recording (same vector lanes, L1
    latency, and SSPM capacity — see :func:`~repro.sim.ops.stream_shape_key`);
    anything else, notably SSPM *port* counts and all pure-pricing machine
    knobs, may differ freely.

    Raises :class:`~repro.sim.ops.ReplayMismatchError` if the target would
    have produced a different op stream.

    Two cost tiers, both bit-identical to direct execution:

    * **same machine** (the Fig. 9 port sweep): the record run's stored
      :class:`~repro.sim.stats.PricedState` already holds every counter the
      ports cannot touch, so only the VIA ops are re-priced
      (:func:`~repro.sim.columnar.columnar_via_totals`) — pure arithmetic,
      no cache simulation;
    * **different machine**: the machine-dependent ops are priced through
      the detailed model (:func:`~repro.sim.columnar.price_columnar`,
      memoized per target machine on the recording), and the VIA-op totals
      are added on top — VIA ops never touch the memory hierarchy, so the
      split is exact.

    With ``validate=True`` the replay self-checks: the stream runs through
    :func:`~repro.sim.columnar.check_columnar_invariants` (a cross-machine
    memory pass checks its finished counters too), and every path runs
    :func:`check_result_invariants` over the finished result — so a corrupt
    or mis-priced artifact raises :class:`~repro.errors.InvariantError`
    instead of producing a silently wrong number.  Validation never changes
    the result.
    """
    from repro.sim.core import build_result

    if machine is None:
        machine = recording.machine
    if via_config is None:
        via_config = recording.via_config
    target_key = stream_shape_key(machine, via_config)
    if target_key != recording.shape_key:
        raise ReplayMismatchError(
            f"cannot replay {recording.name!r}: recorded stream shape "
            f"{recording.shape_key} != target {target_key}"
        )
    name = recording.name
    if (
        recording.via_config is not None
        and via_config is not None
        and via_config.name != recording.via_config.name
    ):
        # kernel names embed the config they ran under; retarget the label
        name = name.replace(recording.via_config.name, via_config.name)
    if via_config is not None:
        from repro.via import area

        via_leak = area.leakage_mw(via_config)
    else:
        via_leak = 0.0
    cols = recording.columnar()
    via_side = columnar.columnar_via_totals(cols, via_config)
    if validate:
        columnar.check_columnar_invariants(cols)
    if recording.priced is not None and machine == recording.machine:
        state = recording.priced
        counters = dataclasses.replace(state.counters)
        counters.sspm_busy_cycles = via_side.sspm_busy_cycles
    else:
        with _MEMO_LOCK:
            memo = recording._machine_memo.get(machine)
        if memo is None:
            memo = columnar.price_columnar(cols, machine, validate=validate)
            with _MEMO_LOCK:
                # recordings are shared across serve executor threads via
                # the store's load memo; a concurrent pricer may have won
                # the race to populate this machine's entry — keep the first
                # one so every thread reads the same state
                memo = recording._machine_memo.setdefault(machine, memo)
        state = memo
        counters = dataclasses.replace(state.counters)
        counters.via_instructions += via_side.via_instructions
        counters.vector_uops += via_side.vector_uops
        counters.sspm_accesses += via_side.sspm_accesses
        counters.cam_searches += via_side.cam_searches
        counters.sspm_busy_cycles += via_side.sspm_busy_cycles
    result = build_result(
        name=name,
        machine=machine,
        priced=state.with_counters(counters),
        via_leakage_mw=via_leak,
    )
    return check_result_invariants(result) if validate else result
