"""Columnar (struct-of-arrays) op streams and the pricing engine.

Every op stream is priced here.  The stream is held as per-field NumPy
columns — mirroring the ``.npz`` artifact layout — and priced as array
arithmetic:

* :func:`columnar_via_totals` prices every :class:`~repro.sim.ops.ViaOpRecord`
  of a stream in one vectorized pass (the port-dependent side of replay);
* :func:`price_columnar` is the cross-machine memory pass: allocation bases
  from a cumulative sum, per-op counters from masked reductions, cache-level
  latencies from an ``np.take`` over the machine's latency table, and hit /
  mispredict attribution from per-kind masks;
* :func:`check_columnar_invariants` expresses the model's conservation
  laws (the ones :class:`~repro.sim.backends.InvariantBackend` checks) as
  whole-array assertions, including SSPM occupancy as a running prefix
  maximum;
* :class:`ColumnarBuilder` / :func:`price_flush` run the same kernels on
  the *record* path: a :class:`~repro.sim.core.Core` appends one row per
  narration call (no ``Op`` object on the hot path) and flushes batches
  through the pricing helpers against its live cache hierarchy — op
  streams are born columnar and :func:`concat_columnar` stitches the
  flushed batches back into one stream for the recorder.

Bit-identity contract
---------------------

Pricing a stream in columns gives bit for bit the result of pricing it one
op at a time (the per-op reference pricer under ``tests/`` pins this),
because nothing about the arithmetic is reordered where order could matter:

* integer counters commute exactly under any summation order;
* the three float counters that accumulate op by op
  (``sspm_busy_cycles``, ``branch_mispredicts``,
  ``dependency_stall_cycles``) are summed with ``np.cumsum``, whose running
  accumulation performs the same left-to-right float64 additions as a
  per-op loop;
* miss-latency sums stay exact under any order because cache and DRAM
  latencies are integers (``CacheConfig.latency`` / ``dram_latency``;
  the configs reject anything else), so every per-line latency is an
  integer-valued float64;
* the stateful cache walk itself drives the model's
  :class:`~repro.sim.cache.Cache` objects in recorded op order — only the
  *attribution* of its outcomes is vectorized.

Column layout (one row per op; roles depend on the ``kinds`` discriminator)
---------------------------------------------------------------------------

===============  =========  =====================  ==========  ==================  ==========
kind             ``count``  ``aux``                ``misc``    ``extra``/``fval``  pool window
===============  =========  =====================  ==========  ==================  ==========
alloc            num_elems  elem_bytes             —           —                   —
scalar_ops       count      —                      —           —                   —
vector_op        count      op-kind id             —           —                   —
branches         count      —                      —           fval=rate           —
dependency_stall —          —                      —           fval=cycles         —
load/store_stream count     start                  —           —                   —
gather/scatter   n_instr    —                      —           —                   indices
*_serial         n_instr    elements_per_instr     —           —                   —
load_windows     width      —                      —           —                   starts
scalar_load/store —         dependent flag         —           —                   indices
bulk_stream      passes     write flag             —           —                   —
record_via_op    count      sspm_elements          cam_search  extra=port_passes   —
                                                               fval=port_cycles
===============  =========  =====================  ==========  ==================  ==========

``array_id`` indexes the ``names`` table for ops naming a simulated array
(−1 otherwise); ``off``/``num`` reference a window of the shared ``pool``
of int64 indices.  ``port_passes`` uses −1 for "not recorded",
``port_cycles`` uses NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, cast

import numpy as np
import numpy.typing as npt

from repro.errors import InvariantError, RecordingError, SimulationError
from repro.sim import calibration as cal
from repro.sim.cache import Cache, compress_lines, stream_lines
from repro.sim.config import MachineConfig
from repro.sim.dram import DRAMModel
from repro.sim.ops import (
    VECTOR_OP_KINDS,
    AllocOp,
    BranchesOp,
    BulkStreamOp,
    DependencyStallOp,
    GatherOp,
    GatherSerialOp,
    LoadStreamOp,
    LoadWindowsOp,
    Op,
    ScalarLoadOp,
    ScalarOpsOp,
    ScalarStoreOp,
    ScatterOp,
    ScatterSerialOp,
    StoreStreamOp,
    VectorOpOp,
    ViaOpRecord,
)
from repro.sim.stats import OpCounters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Array, Core
    from repro.via.config import ViaConfig

__all__ = [
    "COLUMNS",
    "KIND_IDS",
    "KIND_ORDER",
    "ColumnarBuilder",
    "ColumnarOps",
    "ColumnarPriced",
    "FlushBatch",
    "check_columnar_invariants",
    "columnar_via_totals",
    "concat_columnar",
    "machine_latency_table",
    "price_columnar",
    "price_flush",
    "stream_uop_count",
]

_LINE = cal.CACHE_LINE_BYTES
_ALLOC_BASE = 0x1000_0000

#: op-kind discriminator values, in schema order — stable across sessions
#: because the artifact format depends on it (``kinds`` stores these ids)
KIND_ORDER: Tuple[str, ...] = (
    "alloc",
    "scalar_ops",
    "vector_op",
    "branches",
    "dependency_stall",
    "load_stream",
    "store_stream",
    "gather",
    "scatter",
    "gather_serial",
    "scatter_serial",
    "load_windows",
    "scalar_load",
    "scalar_store",
    "bulk_stream",
    "record_via_op",
)

KIND_IDS: Dict[str, int] = {kind: i for i, kind in enumerate(KIND_ORDER)}

_ALLOC = KIND_IDS["alloc"]
_SCALAR_OPS = KIND_IDS["scalar_ops"]
_VECTOR_OP = KIND_IDS["vector_op"]
_BRANCHES = KIND_IDS["branches"]
_DEP_STALL = KIND_IDS["dependency_stall"]
_LOAD_STREAM = KIND_IDS["load_stream"]
_STORE_STREAM = KIND_IDS["store_stream"]
_GATHER = KIND_IDS["gather"]
_SCATTER = KIND_IDS["scatter"]
_GATHER_SERIAL = KIND_IDS["gather_serial"]
_SCATTER_SERIAL = KIND_IDS["scatter_serial"]
_LOAD_WINDOWS = KIND_IDS["load_windows"]
_SCALAR_LOAD = KIND_IDS["scalar_load"]
_SCALAR_STORE = KIND_IDS["scalar_store"]
_BULK_STREAM = KIND_IDS["bulk_stream"]
_VIA = KIND_IDS["record_via_op"]

#: kinds that name a simulated array (``array_id`` must be valid)
_ARRAY_KINDS = (
    _ALLOC,
    _LOAD_STREAM,
    _STORE_STREAM,
    _GATHER,
    _SCATTER,
    _LOAD_WINDOWS,
    _SCALAR_LOAD,
    _SCALAR_STORE,
    _BULK_STREAM,
)

#: kinds that reference a window of the index pool
_POOL_KINDS = (_GATHER, _SCATTER, _LOAD_WINDOWS, _SCALAR_LOAD, _SCALAR_STORE)

#: serialized column names (the ``pool`` array and ``names`` table ride
#: alongside; see :func:`repro.sim.ops.save_recordings`)
COLUMNS: Tuple[str, ...] = (
    "kinds",
    "count",
    "aux",
    "misc",
    "extra",
    "fval",
    "array_id",
    "off",
    "num",
)

_IntArray = npt.NDArray[np.int64]
_FloatArray = npt.NDArray[np.float64]


def stream_uop_count(machine: MachineConfig, count: int, elem_bytes: int) -> int:
    """Issue cost of one contiguous vector access (VL elements per uop)."""
    per_uop = max(1, (machine.vl * 8) // max(elem_bytes, 1))
    return max(1, -(-int(count) // per_uop))


def _as_column(
    name: str, values: object, dtype: "np.dtype[np.generic]"
) -> npt.NDArray[np.generic]:
    try:
        arr = np.asarray(values, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise RecordingError(f"columnar field {name!r} is malformed: {exc}") from exc
    if arr.ndim != 1:
        raise RecordingError(
            f"columnar field {name!r} must be one-dimensional, got shape {arr.shape}"
        )
    return arr


@dataclass
class ColumnarOps:
    """A recorded op stream as struct-of-arrays columns.

    Construction validates the structural contract — equal column lengths,
    known kind ids, in-bounds name-table and index-pool references — and
    raises :class:`~repro.errors.RecordingError` on any violation, so a
    truncated or tampered column can never silently broadcast into a
    wrong-but-plausible pricing result.
    """

    kinds: npt.NDArray[np.uint8]
    count: _IntArray
    aux: _IntArray
    misc: _IntArray
    extra: _IntArray
    fval: _FloatArray
    array_id: _IntArray
    off: _IntArray
    num: _IntArray
    pool: _IntArray
    names: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.kinds = cast(
            npt.NDArray[np.uint8], _as_column("kinds", self.kinds, np.dtype(np.uint8))
        )
        for name in ("count", "aux", "misc", "extra", "array_id", "off", "num"):
            setattr(
                self,
                name,
                _as_column(name, getattr(self, name), np.dtype(np.int64)),
            )
        self.fval = cast(
            _FloatArray, _as_column("fval", self.fval, np.dtype(np.float64))
        )
        self.pool = cast(
            _IntArray, _as_column("pool", self.pool, np.dtype(np.int64))
        )
        self.names = tuple(str(n) for n in self.names)
        n = int(self.kinds.size)
        for name in COLUMNS[1:]:
            col = getattr(self, name)
            if int(col.size) != n:
                raise RecordingError(
                    f"columnar stream is ragged: column {name!r} has "
                    f"{int(col.size)} rows, kinds has {n}"
                )
        if n and int(self.kinds.max()) >= len(KIND_ORDER):
            raise RecordingError(
                f"columnar stream carries unknown op-kind id "
                f"{int(self.kinds.max())} (schema knows {len(KIND_ORDER)})"
            )
        needs_array = np.isin(self.kinds, np.asarray(_ARRAY_KINDS, dtype=np.uint8))
        if needs_array.any():
            ids = self.array_id[needs_array]
            if int(ids.min()) < 0 or int(ids.max()) >= len(self.names):
                raise RecordingError(
                    "columnar stream references an array name outside its "
                    f"name table (ids in [{int(ids.min())}, {int(ids.max())}], "
                    f"{len(self.names)} names)"
                )
        pooled = np.isin(self.kinds, np.asarray(_POOL_KINDS, dtype=np.uint8))
        if pooled.any():
            off = self.off[pooled]
            num = self.num[pooled]
            if int(off.min()) < 0 or int(num.min()) < 0:
                raise RecordingError(
                    "columnar stream carries a negative index-pool reference"
                )
            end = off + num
            if int(end.max(initial=0)) > int(self.pool.size):
                raise RecordingError(
                    f"columnar stream references pool slice ending at "
                    f"{int(end.max(initial=0))} but the pool holds only "
                    f"{int(self.pool.size)} indices (truncated artifact?)"
                )

    def __len__(self) -> int:
        return int(self.kinds.size)

    # ------------------------------------------------------------------
    @classmethod
    def from_ops(cls, ops: List[Op]) -> "ColumnarOps":
        """Convert a list of op records into columns (one pass)."""
        n = len(ops)
        kinds = np.zeros(n, dtype=np.uint8)
        count = np.zeros(n, dtype=np.int64)
        aux = np.zeros(n, dtype=np.int64)
        misc = np.zeros(n, dtype=np.int64)
        extra = np.full(n, -1, dtype=np.int64)
        fval = np.full(n, np.nan, dtype=np.float64)
        array_id = np.full(n, -1, dtype=np.int64)
        off = np.zeros(n, dtype=np.int64)
        num = np.zeros(n, dtype=np.int64)
        name_ids: Dict[str, int] = {}
        chunks: List[_IntArray] = []
        pool_size = 0

        def intern(name: str) -> int:
            return name_ids.setdefault(name, len(name_ids))

        def pooled(i: int, arr: npt.NDArray[np.int64]) -> None:
            nonlocal pool_size
            data = np.ascontiguousarray(arr, dtype=np.int64)
            off[i] = pool_size
            num[i] = int(data.size)
            chunks.append(data)
            pool_size += int(data.size)

        for i, op in enumerate(ops):
            kinds[i] = KIND_IDS[op.kind]
            if isinstance(op, AllocOp):
                count[i] = op.num_elems
                aux[i] = op.elem_bytes
                array_id[i] = intern(op.name)
            elif isinstance(op, ScalarOpsOp):
                count[i] = op.count
            elif isinstance(op, VectorOpOp):
                count[i] = op.count
                aux[i] = VECTOR_OP_KINDS.index(op.op_kind)
            elif isinstance(op, BranchesOp):
                count[i] = op.count
                fval[i] = op.mispredict_rate
            elif isinstance(op, DependencyStallOp):
                fval[i] = op.cycles
            elif isinstance(op, (LoadStreamOp, StoreStreamOp)):
                count[i] = op.count
                aux[i] = op.start
                array_id[i] = intern(op.array)
            elif isinstance(op, (GatherOp, ScatterOp)):
                count[i] = op.n_instr
                array_id[i] = intern(op.array)
                pooled(i, op.indices)
            elif isinstance(op, (GatherSerialOp, ScatterSerialOp)):
                count[i] = op.n_instr
                aux[i] = op.elements_per_instr
            elif isinstance(op, LoadWindowsOp):
                count[i] = op.width
                array_id[i] = intern(op.array)
                pooled(i, op.starts)
            elif isinstance(op, (ScalarLoadOp, ScalarStoreOp)):
                aux[i] = int(op.dependent)
                array_id[i] = intern(op.array)
                pooled(i, op.indices)
            elif isinstance(op, BulkStreamOp):
                count[i] = op.passes
                aux[i] = int(op.write)
                array_id[i] = intern(op.array)
            elif isinstance(op, ViaOpRecord):
                count[i] = op.count
                aux[i] = op.sspm_elements
                misc[i] = op.cam_searches
                extra[i] = -1 if op.port_passes is None else op.port_passes
                fval[i] = np.nan if op.port_cycles is None else op.port_cycles
            else:  # pragma: no cover - new op kinds must extend this table
                raise RecordingError(
                    f"no columnar encoding for op kind {op.kind!r}"
                )
        pool = (
            np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
        )
        return cls(
            kinds=kinds,
            count=count,
            aux=aux,
            misc=misc,
            extra=extra,
            fval=fval,
            array_id=array_id,
            off=off,
            num=num,
            pool=pool,
            names=tuple(name_ids),
        )

    def to_ops(self) -> List[Op]:
        """Materialize the columns back into op records (trace rows)."""
        ops: List[Op] = []
        names = self.names
        pool = self.pool
        for i in range(len(self)):
            k = int(self.kinds[i])
            if k == _ALLOC:
                ops.append(
                    AllocOp(
                        names[int(self.array_id[i])],
                        int(self.count[i]),
                        int(self.aux[i]),
                    )
                )
            elif k == _SCALAR_OPS:
                ops.append(ScalarOpsOp(int(self.count[i])))
            elif k == _VECTOR_OP:
                ops.append(
                    VectorOpOp(
                        VECTOR_OP_KINDS[int(self.aux[i])], int(self.count[i])
                    )
                )
            elif k == _BRANCHES:
                ops.append(
                    BranchesOp(int(self.count[i]), float(self.fval[i]))
                )
            elif k == _DEP_STALL:
                ops.append(DependencyStallOp(float(self.fval[i])))
            elif k in (_LOAD_STREAM, _STORE_STREAM):
                cls = LoadStreamOp if k == _LOAD_STREAM else StoreStreamOp
                ops.append(
                    cls(
                        names[int(self.array_id[i])],
                        int(self.aux[i]),
                        int(self.count[i]),
                    )
                )
            elif k in (_GATHER, _SCATTER):
                icls = GatherOp if k == _GATHER else ScatterOp
                window = pool[int(self.off[i]) : int(self.off[i] + self.num[i])]
                ops.append(
                    icls(
                        names[int(self.array_id[i])],
                        window,
                        int(self.count[i]),
                    )
                )
            elif k in (_GATHER_SERIAL, _SCATTER_SERIAL):
                scls = GatherSerialOp if k == _GATHER_SERIAL else ScatterSerialOp
                ops.append(scls(int(self.count[i]), int(self.aux[i])))
            elif k == _LOAD_WINDOWS:
                window = pool[int(self.off[i]) : int(self.off[i] + self.num[i])]
                ops.append(
                    LoadWindowsOp(
                        names[int(self.array_id[i])],
                        window,
                        int(self.count[i]),
                    )
                )
            elif k in (_SCALAR_LOAD, _SCALAR_STORE):
                mcls = ScalarLoadOp if k == _SCALAR_LOAD else ScalarStoreOp
                window = pool[int(self.off[i]) : int(self.off[i] + self.num[i])]
                ops.append(
                    mcls(
                        names[int(self.array_id[i])],
                        window,
                        bool(self.aux[i]),
                    )
                )
            elif k == _BULK_STREAM:
                ops.append(
                    BulkStreamOp(
                        names[int(self.array_id[i])],
                        int(self.count[i]),
                        bool(self.aux[i]),
                    )
                )
            else:
                pp = int(self.extra[i])
                pc = float(self.fval[i])
                ops.append(
                    ViaOpRecord(
                        sspm_elements=int(self.aux[i]),
                        cam_searches=int(self.misc[i]),
                        count=int(self.count[i]),
                        port_passes=None if pp < 0 else pp,
                        port_cycles=None if np.isnan(pc) else pc,
                    )
                )
        return ops


# ---------------------------------------------------------------------------
# VIA-op pricing (the port-dependent side of every replay)
# ---------------------------------------------------------------------------
def _port_cycles_vec(
    sspm_elements: _IntArray, port_passes: _IntArray, ports: int
) -> _IntArray:
    """Vectorized :meth:`repro.via.fivu.FivuTiming.port_cycles`."""
    per_pass = np.maximum(
        1, sspm_elements // np.maximum(port_passes, 1)
    )
    cycles = port_passes * -(-per_pass // ports)
    return cast(_IntArray, np.where(sspm_elements == 0, 0, cycles))


def columnar_via_totals(
    cols: ColumnarOps, via_config: Optional["ViaConfig"]
) -> OpCounters:
    """Counter contributions of a stream's VIA ops under a port configuration.

    This is the whole port-dependent side of pricing: replaying a recording
    under a sibling port variant only needs this pass.  The integer
    counters are plain masked sums (exact under any order);
    ``sspm_busy_cycles`` is the last element of an ``np.cumsum`` over the
    per-op busy terms, which performs the identical left-to-right float64
    additions as a per-op accumulation loop — bit-identical, not merely
    close.
    """
    totals = OpCounters()
    mask = cols.kinds == _VIA
    if not mask.any():
        return totals
    cnt = cols.count[mask]
    se = cols.aux[mask]
    cs = cols.misc[mask]
    pp = cols.extra[mask]
    pc = cols.fval[mask]
    derive = np.isnan(pc)
    if derive.any():
        if via_config is None:
            raise SimulationError(
                "cannot price a VIA op without a VIA configuration"
            )
        derived = _port_cycles_vec(se, pp, via_config.ports)
        pc = np.where(derive, derived.astype(np.float64), pc)
    terms = (pc + float(cal.COMMIT_ISSUE_OVERHEAD)) * cnt
    totals.via_instructions = int(cnt.sum())
    totals.vector_uops = int(cnt.sum())
    totals.sspm_accesses = int((se * cnt).sum())
    totals.cam_searches = int((cs * cnt).sum())
    totals.sspm_busy_cycles = float(np.cumsum(terms)[-1])
    return totals


# ---------------------------------------------------------------------------
# Cross-machine memory pricing
# ---------------------------------------------------------------------------
def machine_latency_table(machine: MachineConfig) -> _FloatArray:
    """Cumulative hit latency per service level (L1, L2, L3, DRAM).

    Indexed by the level an access was served at; ``np.take`` over this
    table prices a whole trace of classified accesses at once.
    """
    m = machine
    return np.asarray(
        [
            float(m.l1.latency),
            float(m.l1.latency + m.l2.latency),
            float(m.l1.latency + m.l2.latency + m.l3.latency),
            float(m.l1.latency + m.l2.latency + m.l3.latency + m.dram_latency),
        ],
        dtype=np.float64,
    )


@dataclass
class ColumnarPriced:
    """Output of :func:`price_columnar`: the machine-dependent pricing state.

    The exact shape :func:`repro.sim.core.build_result` consumes — the VIA
    side (:func:`columnar_via_totals`) is added on top by the replay
    driver (VIA ops never touch the memory hierarchy, so the split is
    exact).
    """

    counters: OpCounters = field(default_factory=OpCounters)
    dram_occupancy_cycles: float = 0.0
    dram_traffic_bytes: int = 0
    dram_lines: int = 0
    cache_stats: Dict[str, Dict[str, object]] = field(default_factory=dict)


def _alloc_tables(
    cols: ColumnarOps,
) -> Tuple[_IntArray, _IntArray, _IntArray, _IntArray]:
    """Vectorized bump allocation: per-alloc-row base/elem_bytes/nbytes.

    Returns ``(alloc_rows, bases, elem_bytes, nbytes)`` in stream order —
    the cumulative sum over line-aligned sizes reproduces the
    :class:`~repro.sim.core.AddressSpace` bases exactly.
    """
    alloc_rows = np.flatnonzero(cols.kinds == _ALLOC)
    num_elems = cols.count[alloc_rows]
    elem_bytes = cols.aux[alloc_rows]
    if alloc_rows.size and int(elem_bytes.min()) <= 0:
        raise SimulationError("alloc: elem_bytes must be > 0")
    nbytes = np.maximum(num_elems, 1) * elem_bytes
    aligned = (nbytes + _LINE - 1) // _LINE * _LINE
    bases = _ALLOC_BASE + np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(aligned)[:-1]]
    )
    return alloc_rows, bases, elem_bytes, nbytes


def _governing_alloc(
    cols: ColumnarOps, alloc_rows: _IntArray, mem_rows: _IntArray
) -> _IntArray:
    """For each memory row, the index (into ``alloc_rows``) of the
    allocation in effect at that point of the stream (last one wins,
    mirroring the core's address-space dict)."""
    out = np.full(mem_rows.size, -1, dtype=np.int64)
    if mem_rows.size == 0:
        return out
    mem_ids = cols.array_id[mem_rows]
    alloc_ids = cols.array_id[alloc_rows]
    for aid in np.unique(mem_ids):
        a_pos = np.flatnonzero(alloc_ids == aid)
        m_pos = np.flatnonzero(mem_ids == aid)
        if a_pos.size == 0:
            raise SimulationError(
                f"columnar stream accesses array "
                f"{cols.names[int(aid)]!r} before allocating it"
            )
        slot = np.searchsorted(alloc_rows[a_pos], mem_rows[m_pos], side="left") - 1
        if int(slot.min()) < 0:
            raise SimulationError(
                f"columnar stream accesses array "
                f"{cols.names[int(aid)]!r} before allocating it"
            )
        out[m_pos] = a_pos[slot]
    return out


#: kinds whose rows touch the memory hierarchy (the sequential trace)
_MEM_KINDS = (
    _LOAD_STREAM,
    _STORE_STREAM,
    _GATHER,
    _SCATTER,
    _LOAD_WINDOWS,
    _SCALAR_LOAD,
    _SCALAR_STORE,
    _BULK_STREAM,
)


def _seeded_cumsum(start: float, terms: _FloatArray) -> float:
    """Left-to-right float64 accumulation of ``terms`` on top of ``start``.

    ``np.cumsum`` over ``[start, t0, t1, ...]`` performs the identical
    addition sequence as ``for t in terms: start += t``, so order-sensitive
    float counters stay bit-identical to a per-op walk even when a stream
    is priced in several flush batches.
    """
    seeded = np.concatenate(
        (np.asarray([start], dtype=np.float64), np.asarray(terms, dtype=np.float64))
    )
    return float(np.cumsum(seeded)[-1])


def _accumulate_compute(cols: ColumnarOps, counters: OpCounters) -> None:
    """Fold a stream's compute-side counters into ``counters``.

    Masked integer sums (order-free and exact) plus order-preserving
    float accumulation for branch mispredicts and dependency stalls.
    Adds on top of whatever ``counters`` already holds, so a stream
    priced flush-by-flush lands on the same totals as one whole pass.
    """
    kinds = cols.kinds

    def ksum(kind: int, col: _IntArray) -> int:
        return int(col[kinds == kind].sum())

    counters.scalar_uops += (
        ksum(_SCALAR_OPS, cols.count)
        + ksum(_BRANCHES, cols.count)
        + ksum(_SCALAR_LOAD, cols.num)
        + ksum(_SCALAR_STORE, cols.num)
    )
    counters.branches += ksum(_BRANCHES, cols.count)
    vec_mask = kinds == _VECTOR_OP
    counters.vector_uops += (
        int(cols.count[vec_mask].sum())
        + ksum(_GATHER, cols.count)
        + ksum(_SCATTER, cols.count)
        + ksum(_GATHER_SERIAL, cols.count)
        + ksum(_SCATTER_SERIAL, cols.count)
        + ksum(_LOAD_WINDOWS, cols.num)
    )
    for name, op_kind in (
        ("vector_fma", "fma"),
        ("vector_reduce", "reduce"),
        ("vector_permute", "permute"),
        ("vector_conflict", "conflict"),
    ):
        sub = vec_mask & (cols.aux == VECTOR_OP_KINDS.index(op_kind))
        setattr(
            counters, name, getattr(counters, name) + int(cols.count[sub].sum())
        )
    counters.gathers += ksum(_GATHER, cols.count) + ksum(_GATHER_SERIAL, cols.count)
    counters.scatters += ksum(_SCATTER, cols.count) + ksum(
        _SCATTER_SERIAL, cols.count
    )
    gs_mask = kinds == _GATHER_SERIAL
    ss_mask = kinds == _SCATTER_SERIAL
    counters.gather_elements += ksum(_GATHER, cols.num) + int(
        (cols.count[gs_mask] * cols.aux[gs_mask]).sum()
    )
    counters.scatter_elements += ksum(_SCATTER, cols.num) + int(
        (cols.count[ss_mask] * cols.aux[ss_mask]).sum()
    )
    br_mask = kinds == _BRANCHES
    if br_mask.any():
        terms = cols.count[br_mask] * cols.fval[br_mask]
        counters.branch_mispredicts = _seeded_cumsum(
            counters.branch_mispredicts, terms
        )
    stall_mask = kinds == _DEP_STALL
    if stall_mask.any():
        counters.dependency_stall_cycles = _seeded_cumsum(
            counters.dependency_stall_cycles, cols.fval[stall_mask]
        )


def _price_memory_rows(
    cols: ColumnarOps,
    mem_rows: _IntArray,
    row_base: _IntArray,
    row_eb: _IntArray,
    row_nbytes: _IntArray,
    machine: MachineConfig,
    l1: Cache,
    l2: Cache,
    l3: Cache,
    dram: DRAMModel,
    counters: OpCounters,
) -> None:
    """Walk a stream's memory rows through live caches, attribute the costs.

    The only sequential work in the engine — LRU state makes the per-line
    hit/miss classification order-dependent, so the walk drives the passed
    :class:`~repro.sim.cache.Cache` / :class:`~repro.sim.dram.DRAMModel`
    objects in recorded op order.  Everything around it is whole-array:
    latency by ``np.take`` over the machine's table, per-op latency sums by
    ``np.bincount`` segments, hit counters by level masks.

    ``row_base`` / ``row_eb`` / ``row_nbytes`` carry the governing
    allocation per memory row (cross-machine replay derives them from the
    stream's alloc rows; the record path captures them live from the
    core's address space).  Counter updates add on top of existing values
    so flush batches compose against a long-lived hierarchy.
    """
    kinds = cols.kinds

    def walk_line(line: int, write: bool) -> int:
        """One demand access; returns the service level (0=L1 .. 3=DRAM).

        Replicates :meth:`repro.sim.hierarchy.MemoryHierarchy.access_line`
        call for call — including mid-miss dirty-victim write-backs, which
        perturb lower-level LRU state and therefore must stay in sequence.
        """
        hit, victim = l1.access_line(line, write)
        if victim is not None:
            _h, v2 = l2.access_line(victim, True)
            if v2 is not None:
                _h, v3 = l3.access_line(v2, True)
                if v3 is not None:
                    dram.write_line()
        if hit:
            return 0
        hit, victim = l2.access_line(line, False)
        if victim is not None:
            _h, v3 = l3.access_line(victim, True)
            if v3 is not None:
                dram.write_line()
        if hit:
            return 1
        hit, victim = l3.access_line(line, False)
        if victim is not None:
            dram.write_line()
        if hit:
            return 2
        dram.read_line()
        return 3

    line_bytes = machine.l1.line_bytes
    levels_per_op: List[npt.NDArray[np.int8]] = []
    nlines = np.zeros(mem_rows.size, dtype=np.int64)
    dependent = np.zeros(mem_rows.size, dtype=bool)
    stream_extra_latency = np.zeros(mem_rows.size, dtype=np.float64)
    stream_uops_total = 0
    bulk_extra_lines = {"l1": 0, "l2": 0, "l3": 0, "dram": 0}
    l1_cap = machine.l1.size_kb * 1024
    l2_cap = machine.l2.size_kb * 1024
    l3_cap = machine.l3.size_kb * 1024

    for j, row in enumerate(mem_rows):
        k = int(kinds[row])
        base = int(row_base[j])
        eb = int(row_eb[j])
        write = False
        if k in (_LOAD_STREAM, _STORE_STREAM):
            start = int(cols.aux[row])
            count = int(cols.count[row])
            lines = stream_lines(base + start * eb, count * eb, line_bytes)
            write = k == _STORE_STREAM
            stream_uops_total += stream_uop_count(machine, count, eb)
        elif k == _BULK_STREAM:
            nb = int(row_nbytes[j])
            num_elems = nb // eb
            write = bool(cols.aux[row])
            lines = stream_lines(base, nb, line_bytes)
            stream_uops_total += stream_uop_count(machine, num_elems, eb)
            extra = int(cols.count[row]) - 1
            if extra > 0:
                blines = -(-nb // _LINE)
                if nb <= l1_cap:
                    level_latency, level = 0.0, "l1"
                elif nb <= l2_cap:
                    level_latency, level = float(machine.l2.latency), "l2"
                elif nb <= l3_cap:
                    level_latency, level = (
                        float(machine.l2.latency + machine.l3.latency),
                        "l3",
                    )
                else:
                    level_latency, level = (
                        float(
                            machine.l2.latency
                            + machine.l3.latency
                            + machine.dram_latency
                        ),
                        "dram",
                    )
                bulk_extra_lines[level] += extra * blines
                stream_extra_latency[j] = extra * blines * level_latency
                stream_uops_total += stream_uop_count(
                    machine, num_elems * extra, eb
                )
        else:
            window = cols.pool[int(cols.off[row]) : int(cols.off[row] + cols.num[row])]
            if k == _LOAD_WINDOWS:
                width = int(cols.count[row])
                offsets = np.arange(width, dtype=np.int64)
                addrs = (window[:, None] + offsets[None, :]).ravel() * eb + base
            else:
                addrs = base + window * eb
            lines, _counts = compress_lines(addrs, line_bytes)
            write = k in (_SCATTER, _SCALAR_STORE)
            dependent[j] = k in (_GATHER, _SCATTER, _LOAD_WINDOWS) or (
                k in (_SCALAR_LOAD, _SCALAR_STORE) and bool(cols.aux[row])
            )
        lv = np.fromiter(
            (walk_line(line, write) for line in lines.tolist()),
            dtype=np.int8,
            count=lines.size,
        )
        levels_per_op.append(lv)
        nlines[j] = lines.size

    levels = (
        np.concatenate(levels_per_op)
        if levels_per_op
        else np.zeros(0, dtype=np.int8)
    )
    counters.vector_uops += stream_uops_total

    # vectorized attribution: latency-table lookup + per-op segments
    table = machine_latency_table(machine)
    lat = np.take(table, levels)
    seg = np.repeat(np.arange(mem_rows.size, dtype=np.int64), nlines)
    latsum = np.bincount(seg, weights=lat, minlength=mem_rows.size)
    miss = np.maximum(latsum - nlines * float(machine.l1.latency), 0.0)
    stream_terms = np.where(dependent, 0.0, miss) + stream_extra_latency
    dep_terms = np.where(dependent, miss, 0.0)
    if mem_rows.size:
        counters.stream_miss_latency = _seeded_cumsum(
            counters.stream_miss_latency, stream_terms
        )
        counters.dependent_miss_latency = _seeded_cumsum(
            counters.dependent_miss_latency, dep_terms
        )
    counters.mem_line_accesses += int(levels.size) + sum(bulk_extra_lines.values())
    counters.l1_hits += int((levels == 0).sum()) + bulk_extra_lines["l1"]
    counters.l2_hits += int((levels == 1).sum()) + bulk_extra_lines["l2"]
    counters.l3_hits += int((levels == 2).sum()) + bulk_extra_lines["l3"]
    counters.dram_fills += int((levels == 3).sum()) + bulk_extra_lines["dram"]
    if bulk_extra_lines["dram"]:
        dram.read_lines(bulk_extra_lines["dram"])


def _cache_stats(
    l1: Cache, l2: Cache, l3: Cache, dram: DRAMModel
) -> Dict[str, Dict[str, object]]:
    """Per-level statistics in the shape ``build_result`` consumes."""
    cache_stats: Dict[str, Dict[str, object]] = {}
    for name, cache in (("l1", l1), ("l2", l2), ("l3", l3)):
        s = cache.stats
        cache_stats[name] = {
            "accesses": s.accesses,
            "hits": s.hits,
            "misses": s.misses,
            "writebacks": s.writebacks,
            "hit_rate": s.hit_rate,
        }
    cache_stats["dram"] = {
        "reads": dram.stats.reads,
        "writes": dram.stats.writes,
        "traffic_bytes": dram.traffic_bytes,
    }
    return cache_stats


def price_columnar(
    cols: ColumnarOps, machine: MachineConfig, *, validate: bool = False
) -> ColumnarPriced:
    """Price a stream's non-VIA side on a fresh machine (cross-machine replay).

    The only sequential work is the cache walk itself — LRU state makes the
    per-line hit/miss classification order-dependent, so the walk drives
    the model's own :class:`~repro.sim.cache.Cache` objects in recorded op
    order (identical call sequence, identical state).  Every
    attribution step around it is whole-array: allocation bases by
    cumulative sum, per-access latency by ``np.take`` over the machine's
    latency table, per-op latency sums by ``np.bincount`` segments, hit
    counters by level masks, and the order-sensitive float counters by
    ``np.cumsum`` in op order.

    With ``validate=True`` the stream and the finished counters are run
    through :func:`check_columnar_invariants`.
    """
    counters = OpCounters()
    _accumulate_compute(cols, counters)

    # ---- memory trace: sequential cache walk, vectorized attribution ----
    alloc_rows, bases, a_eb, a_nbytes = _alloc_tables(cols)
    mem_rows = np.flatnonzero(
        np.isin(cols.kinds, np.asarray(_MEM_KINDS, dtype=np.uint8))
    )
    governing = _governing_alloc(cols, alloc_rows, mem_rows)
    l1 = Cache(machine.l1)
    l2 = Cache(machine.l2)
    l3 = Cache(machine.l3)
    dram = DRAMModel(
        machine.dram_latency,
        machine.dram_bw_bytes_per_cycle,
        machine.l1.line_bytes,
    )

    _price_memory_rows(
        cols,
        mem_rows,
        bases[governing],
        a_eb[governing],
        a_nbytes[governing],
        machine,
        l1,
        l2,
        l3,
        dram,
        counters,
    )
    priced = ColumnarPriced(
        counters=counters,
        dram_occupancy_cycles=dram.occupancy_cycles(),
        dram_traffic_bytes=dram.traffic_bytes,
        dram_lines=dram.stats.lines,
        cache_stats=_cache_stats(l1, l2, l3, dram),
    )
    if validate:
        check_columnar_invariants(cols, counters=counters)
    return priced


# ---------------------------------------------------------------------------
# Batched narration: the record-path builder and flush pricing
# ---------------------------------------------------------------------------
@dataclass
class FlushBatch:
    """One detached builder batch: columns plus live allocation context.

    ``base`` / ``elem_bytes`` / ``nbytes`` are row-aligned with ``cols``
    and carry the governing allocation captured when each row was
    appended — the record-path equivalent of the replay engine's
    :func:`_alloc_tables` + :func:`_governing_alloc` derivation (which
    cannot run per batch, because the governing alloc row may live in an
    earlier flush).
    """

    cols: ColumnarOps
    base: _IntArray
    elem_bytes: _IntArray
    nbytes: _IntArray


#: vector-op kind -> aux code, precomputed for the per-op append path
_VEC_KIND_CODE: Dict[str, int] = {k: i for i, k in enumerate(VECTOR_OP_KINDS)}

#: builder column storage and the default each slot is re-armed with
_BUILDER_FILLS: Tuple[Tuple[str, float], ...] = (
    ("_kinds", 0),
    ("_count", 0),
    ("_aux", 0),
    ("_misc", 0),
    ("_extra", -1),
    ("_fval", np.nan),
    ("_array_id", -1),
    ("_off", 0),
    ("_num", 0),
    ("_base", 0),
    ("_eb", 0),
    ("_nb", 0),
)


class ColumnarBuilder:
    """Append-only struct-of-arrays narration buffer (the record path).

    A preallocated, geometrically-grown row set mirroring the
    :class:`ColumnarOps` column layout, plus per-row side arrays capturing
    the governing allocation (base / elem_bytes / nbytes) live from the
    core's address space, so :func:`price_flush` can price memory rows
    without re-deriving allocation tables.  Append methods validate
    exactly like the corresponding :class:`~repro.sim.ops.Op`
    constructors — verbatim messages — so narration faults on the same bad
    operands an op record would reject, just without ever building the
    object.  The name-intern table persists across :meth:`take` calls;
    batch pool offsets restart at zero each flush and
    :func:`concat_columnar` re-bases them when stitching.
    """

    #: rows buffered since the last :meth:`take` (plain attribute — it is
    #: read once per narrated op by the core's flush check)
    rows: int

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError(
                f"builder capacity must be positive, got {capacity}"
            )
        self._cap = capacity
        self.rows = 0
        self._kinds = np.zeros(capacity, dtype=np.uint8)
        self._count = np.zeros(capacity, dtype=np.int64)
        self._aux = np.zeros(capacity, dtype=np.int64)
        self._misc = np.zeros(capacity, dtype=np.int64)
        self._extra = np.full(capacity, -1, dtype=np.int64)
        self._fval = np.full(capacity, np.nan, dtype=np.float64)
        self._array_id = np.full(capacity, -1, dtype=np.int64)
        self._off = np.zeros(capacity, dtype=np.int64)
        self._num = np.zeros(capacity, dtype=np.int64)
        self._base = np.zeros(capacity, dtype=np.int64)
        self._eb = np.zeros(capacity, dtype=np.int64)
        self._nb = np.zeros(capacity, dtype=np.int64)
        self._pool_chunks: List[_IntArray] = []
        self._pool_n = 0
        self._names: Dict[str, int] = {}

    def _grow(self) -> None:
        cap = self._cap * 2
        for name, fill in _BUILDER_FILLS:
            old = getattr(self, name)
            grown = np.full(cap, fill, dtype=old.dtype)
            grown[: self._cap] = old
            setattr(self, name, grown)
        self._cap = cap

    def _row(self, kind: int) -> int:
        i = self.rows
        if i == self._cap:
            self._grow()
        self._kinds[i] = kind
        self.rows = i + 1
        return i

    def _set_array(self, i: int, arr: "Array") -> None:
        self._array_id[i] = self._names.setdefault(arr.name, len(self._names))
        self._base[i] = arr.base
        self._eb[i] = arr.elem_bytes
        self._nb[i] = arr.nbytes

    def _pooled(self, i: int, data: _IntArray) -> None:
        window = np.ascontiguousarray(data, dtype=np.int64)
        self._off[i] = self._pool_n
        self._num[i] = int(window.size)
        self._pool_chunks.append(window)
        self._pool_n += int(window.size)

    # -- one append method per op kind (validation mirrors the Op ctor;
    #    checks are inlined with verbatim messages — this path runs once
    #    per narrated op, so no kwargs-dict guard helper) --
    def alloc(self, arr: "Array", num_elems: int, elem_bytes: int) -> None:
        if num_elems < 0:
            raise SimulationError(
                f"alloc: num_elems must be >= 0, got {num_elems!r}"
            )
        if elem_bytes <= 0:
            raise SimulationError(
                f"alloc: elem_bytes must be > 0, got {elem_bytes!r}"
            )
        i = self._row(_ALLOC)
        self._count[i] = num_elems
        self._aux[i] = elem_bytes
        self._set_array(i, arr)

    def scalar_ops(self, count: int) -> None:
        if count < 0:
            raise SimulationError(
                f"scalar_ops: count must be >= 0, got {count!r}"
            )
        i = self._row(_SCALAR_OPS)
        self._count[i] = count

    def vector_op(self, op_kind: str, count: int) -> None:
        code = _VEC_KIND_CODE.get(op_kind)
        if code is None:
            raise SimulationError(f"unknown vector op kind {op_kind!r}")
        if count < 0:
            raise SimulationError(
                f"vector_op: count must be >= 0, got {count!r}"
            )
        i = self._row(_VECTOR_OP)
        self._count[i] = count
        self._aux[i] = code

    def branches(self, count: int, mispredict_rate: float) -> None:
        if not (0.0 <= mispredict_rate <= 1.0):
            raise SimulationError(
                f"mispredict_rate must be in [0, 1], got {mispredict_rate}"
            )
        if count < 0:
            raise SimulationError(
                f"branches: count must be >= 0, got {count!r}"
            )
        i = self._row(_BRANCHES)
        self._count[i] = count
        self._fval[i] = mispredict_rate

    def dependency_stall(self, cycles: float) -> None:
        if cycles < 0:
            raise SimulationError(
                f"stall cycles must be >= 0, got {cycles}"
            )
        i = self._row(_DEP_STALL)
        self._fval[i] = cycles

    def load_stream(self, arr: "Array", start: int, count: int) -> None:
        if start < 0:
            raise SimulationError(
                f"load_stream: start must be >= 0, got {start!r}"
            )
        if count < 0:
            raise SimulationError(
                f"load_stream: count must be >= 0, got {count!r}"
            )
        i = self._row(_LOAD_STREAM)
        self._count[i] = count
        self._aux[i] = start
        self._set_array(i, arr)

    def store_stream(self, arr: "Array", start: int, count: int) -> None:
        if start < 0:
            raise SimulationError(
                f"store_stream: start must be >= 0, got {start!r}"
            )
        if count < 0:
            raise SimulationError(
                f"store_stream: count must be >= 0, got {count!r}"
            )
        i = self._row(_STORE_STREAM)
        self._count[i] = count
        self._aux[i] = start
        self._set_array(i, arr)

    def gather(self, arr: "Array", indices: _IntArray, n_instr: int) -> None:
        if n_instr < 0:
            raise SimulationError(
                f"gather: n_instr must be >= 0, got {n_instr!r}"
            )
        i = self._row(_GATHER)
        self._count[i] = n_instr
        self._set_array(i, arr)
        self._pooled(i, indices)

    def scatter(self, arr: "Array", indices: _IntArray, n_instr: int) -> None:
        if n_instr < 0:
            raise SimulationError(
                f"scatter: n_instr must be >= 0, got {n_instr!r}"
            )
        i = self._row(_SCATTER)
        self._count[i] = n_instr
        self._set_array(i, arr)
        self._pooled(i, indices)

    def gather_serial(self, n_instr: int, elements_per_instr: int) -> None:
        if n_instr < 0:
            raise SimulationError(
                f"gather_serial: n_instr must be >= 0, got {n_instr!r}"
            )
        if elements_per_instr < 0:
            raise SimulationError(
                "gather_serial: elements_per_instr must be >= 0, "
                f"got {elements_per_instr!r}"
            )
        i = self._row(_GATHER_SERIAL)
        self._count[i] = n_instr
        self._aux[i] = elements_per_instr

    def scatter_serial(self, n_instr: int, elements_per_instr: int) -> None:
        if n_instr < 0:
            raise SimulationError(
                f"scatter_serial: n_instr must be >= 0, got {n_instr!r}"
            )
        if elements_per_instr < 0:
            raise SimulationError(
                "scatter_serial: elements_per_instr must be >= 0, "
                f"got {elements_per_instr!r}"
            )
        i = self._row(_SCATTER_SERIAL)
        self._count[i] = n_instr
        self._aux[i] = elements_per_instr

    def load_windows(self, arr: "Array", starts: _IntArray, width: int) -> None:
        if width < 0:
            raise SimulationError(
                f"load_windows: width must be >= 0, got {width!r}"
            )
        i = self._row(_LOAD_WINDOWS)
        self._count[i] = width
        self._set_array(i, arr)
        self._pooled(i, starts)

    def scalar_load(
        self, arr: "Array", indices: _IntArray, dependent: bool
    ) -> None:
        i = self._row(_SCALAR_LOAD)
        self._aux[i] = int(dependent)
        self._set_array(i, arr)
        self._pooled(i, indices)

    def scalar_store(
        self, arr: "Array", indices: _IntArray, dependent: bool
    ) -> None:
        i = self._row(_SCALAR_STORE)
        self._aux[i] = int(dependent)
        self._set_array(i, arr)
        self._pooled(i, indices)

    def bulk_stream(self, arr: "Array", passes: int, write: bool) -> None:
        if passes < 0:
            raise SimulationError(
                f"bulk_stream: passes must be >= 0, got {passes!r}"
            )
        i = self._row(_BULK_STREAM)
        self._count[i] = passes
        self._aux[i] = int(write)
        self._set_array(i, arr)

    def record_via_op(
        self,
        *,
        sspm_elements: int,
        cam_searches: int,
        count: int,
        port_passes: Optional[int],
        port_cycles: Optional[float],
    ) -> None:
        if port_passes is None and port_cycles is None:
            raise SimulationError(
                "record_via_op needs port_passes (FIVU profile) or "
                "port_cycles (pre-computed cost)"
            )
        if sspm_elements < 0:
            raise SimulationError(
                f"record_via_op: sspm_elements must be >= 0, got {sspm_elements!r}"
            )
        if cam_searches < 0:
            raise SimulationError(
                f"record_via_op: cam_searches must be >= 0, got {cam_searches!r}"
            )
        if count < 0:
            raise SimulationError(
                f"record_via_op: count must be >= 0, got {count!r}"
            )
        if port_passes is not None and port_passes < 0:
            raise SimulationError(
                f"record_via_op: port_passes must be >= 0, got {port_passes!r}"
            )
        if port_cycles is not None and port_cycles < 0:
            raise SimulationError(
                f"record_via_op: port_cycles must be >= 0, got {port_cycles!r}"
            )
        i = self._row(_VIA)
        self._count[i] = count
        self._aux[i] = sspm_elements
        self._misc[i] = cam_searches
        if port_passes is not None:
            self._extra[i] = port_passes
        if port_cycles is not None:
            self._fval[i] = port_cycles

    # ------------------------------------------------------------------
    def take(self) -> FlushBatch:
        """Detach the buffered rows as a flush batch and reset the buffer.

        The used prefix is copied out and re-armed with column defaults in
        place, so the preallocated storage is immediately reusable and a
        later grow can never alias a batch already handed out.
        """
        n = self.rows
        cols = ColumnarOps(
            kinds=self._kinds[:n].copy(),
            count=self._count[:n].copy(),
            aux=self._aux[:n].copy(),
            misc=self._misc[:n].copy(),
            extra=self._extra[:n].copy(),
            fval=self._fval[:n].copy(),
            array_id=self._array_id[:n].copy(),
            off=self._off[:n].copy(),
            num=self._num[:n].copy(),
            pool=(
                np.concatenate(self._pool_chunks)
                if self._pool_chunks
                else np.zeros(0, dtype=np.int64)
            ),
            names=tuple(self._names),
        )
        batch = FlushBatch(
            cols=cols,
            base=self._base[:n].copy(),
            elem_bytes=self._eb[:n].copy(),
            nbytes=self._nb[:n].copy(),
        )
        for name, fill in _BUILDER_FILLS:
            getattr(self, name)[:n] = fill
        self._pool_chunks = []
        self._pool_n = 0
        self.rows = 0
        return batch


def price_flush(batch: FlushBatch, core: "Core") -> None:
    """Price one flushed narration batch against a live core.

    Compute counters go through :func:`_accumulate_compute`, memory rows
    through :func:`_price_memory_rows` against the core's *own* cache
    hierarchy (LRU and DRAM state persist across flushes), VIA rows with
    port cycles derived from the core's attached device.  Alloc rows are
    skipped — the core allocates eagerly at narration time so
    kernels can keep using the returned handles.
    """
    cols = batch.cols
    counters = core.counters
    _accumulate_compute(cols, counters)
    mem_rows = np.flatnonzero(
        np.isin(cols.kinds, np.asarray(_MEM_KINDS, dtype=np.uint8))
    )
    if mem_rows.size:
        mh = core.memory
        _price_memory_rows(
            cols,
            mem_rows,
            batch.base[mem_rows],
            batch.elem_bytes[mem_rows],
            batch.nbytes[mem_rows],
            core.machine,
            mh.l1,
            mh.l2,
            mh.l3,
            mh.dram,
            counters,
        )
    via_mask = cols.kinds == _VIA
    if via_mask.any():
        cnt = cols.count[via_mask]
        se = cols.aux[via_mask]
        cs = cols.misc[via_mask]
        pp = cols.extra[via_mask]
        pc = cols.fval[via_mask]
        derive = np.isnan(pc)
        if derive.any():
            if core.via is None:
                raise SimulationError(
                    "cannot price a VIA op on a core without a VIA device"
                )
            derived = _port_cycles_vec(se, pp, core.via.config.ports)
            pc = np.where(derive, derived.astype(np.float64), pc)
        counters.via_instructions += int(cnt.sum())
        counters.vector_uops += int(cnt.sum())
        counters.sspm_accesses += int((se * cnt).sum())
        counters.cam_searches += int((cs * cnt).sum())
        terms = (pc + float(cal.COMMIT_ISSUE_OVERHEAD)) * cnt
        counters.sspm_busy_cycles = _seeded_cumsum(
            counters.sspm_busy_cycles, terms
        )


def concat_columnar(chunks: Sequence[ColumnarOps]) -> ColumnarOps:
    """Stitch flushed batches back into one stream (recorder capture).

    Name tables are merged by string (each batch may have interned a
    different prefix of the final table) and pooled rows' ``off`` values
    are re-based by the running pool length; the result carries exactly
    the columns :meth:`ColumnarOps.from_ops` would produce for the
    concatenated op list.
    """
    if not chunks:
        return ColumnarOps(
            kinds=np.zeros(0, dtype=np.uint8),
            count=np.zeros(0, dtype=np.int64),
            aux=np.zeros(0, dtype=np.int64),
            misc=np.zeros(0, dtype=np.int64),
            extra=np.zeros(0, dtype=np.int64),
            fval=np.zeros(0, dtype=np.float64),
            array_id=np.zeros(0, dtype=np.int64),
            off=np.zeros(0, dtype=np.int64),
            num=np.zeros(0, dtype=np.int64),
            pool=np.zeros(0, dtype=np.int64),
            names=(),
        )
    if len(chunks) == 1:
        return chunks[0]
    merged: Dict[str, int] = {}
    array_ids: List[_IntArray] = []
    offs: List[_IntArray] = []
    pool_base = 0
    for chunk in chunks:
        remap = np.asarray(
            [merged.setdefault(name, len(merged)) for name in chunk.names],
            dtype=np.int64,
        )
        aid = chunk.array_id.copy()
        mask = aid >= 0
        if mask.any():
            aid[mask] = remap[aid[mask]]
        array_ids.append(aid)
        off = chunk.off.copy()
        pooled = np.isin(chunk.kinds, np.asarray(_POOL_KINDS, dtype=np.uint8))
        off[pooled] += pool_base
        offs.append(off)
        pool_base += int(chunk.pool.size)
    return ColumnarOps(
        kinds=np.concatenate([c.kinds for c in chunks]),
        count=np.concatenate([c.count for c in chunks]),
        aux=np.concatenate([c.aux for c in chunks]),
        misc=np.concatenate([c.misc for c in chunks]),
        extra=np.concatenate([c.extra for c in chunks]),
        fval=np.concatenate([c.fval for c in chunks]),
        array_id=np.concatenate(array_ids),
        off=np.concatenate(offs),
        num=np.concatenate([c.num for c in chunks]),
        pool=np.concatenate([c.pool for c in chunks]),
        names=tuple(merged),
    )


# ---------------------------------------------------------------------------
# Whole-array invariant checking
# ---------------------------------------------------------------------------
_FLOAT_SLACK = 1e-9

#: multiplicity columns that must be non-negative, per kind
_NON_NEGATIVE_ROLES: Tuple[Tuple[int, str], ...] = (
    (_ALLOC, "count"),
    (_SCALAR_OPS, "count"),
    (_VECTOR_OP, "count"),
    (_BRANCHES, "count"),
    (_LOAD_STREAM, "count"),
    (_LOAD_STREAM, "aux"),
    (_STORE_STREAM, "count"),
    (_STORE_STREAM, "aux"),
    (_GATHER, "count"),
    (_SCATTER, "count"),
    (_GATHER_SERIAL, "count"),
    (_GATHER_SERIAL, "aux"),
    (_SCATTER_SERIAL, "count"),
    (_SCATTER_SERIAL, "aux"),
    (_LOAD_WINDOWS, "count"),
    (_BULK_STREAM, "count"),
    (_VIA, "count"),
    (_VIA, "aux"),
    (_VIA, "misc"),
)


def check_columnar_invariants(
    cols: ColumnarOps,
    *,
    counters: Optional[OpCounters] = None,
    capacity: Optional[int] = None,
) -> None:
    """Assert the model's conservation laws over whole columns at once.

    The laws :class:`~repro.sim.backends.InvariantBackend` also checks on
    counter deltas, expressed over the stream's columns:

    * every multiplicity column is non-negative and every float operand is
      finite, so no op can ever *decrease* a monotone counter;
    * per-op branch mispredict rates stay within [0, 1] (mispredicts can
      never exceed the branches that produced them);
    * with ``capacity`` given, the SSPM footprint law: the running prefix
      maximum (``np.maximum.accumulate``) of per-pass element counts never
      exceeds the scratchpad capacity — the whole-stream expression of the
      live occupancy bound (checked only when a capacity is known, as the
      live occupancy check needs an attached VIA device);
    * with ``counters`` given, the finished totals obey the zero-to-final
      delta laws: finite non-negative counters, cache-hit conservation
      (every line access served by exactly one level), and total
      mispredicts bounded by total branches.

    Raises :class:`~repro.errors.InvariantError` on the first violated law.
    """
    kinds = cols.kinds
    for kind, col_name in _NON_NEGATIVE_ROLES:
        col = getattr(cols, col_name)[kinds == kind]
        if col.size and int(col.min()) < 0:
            raise InvariantError(
                f"op kind {KIND_ORDER[kind]!r} carries a negative "
                f"{col_name!r} multiplicity ({int(col.min())})"
            )
    br = cols.fval[kinds == _BRANCHES]
    if br.size and (
        not np.isfinite(br).all() or float(br.min()) < 0.0 or float(br.max()) > 1.0
    ):
        raise InvariantError(
            "branch mispredict rates must lie in [0, 1] "
            "(mispredicts cannot exceed branches)"
        )
    stalls = cols.fval[kinds == _DEP_STALL]
    if stalls.size and (not np.isfinite(stalls).all() or float(stalls.min()) < 0.0):
        raise InvariantError("dependency stalls must be finite and >= 0")
    via = kinds == _VIA
    if via.any():
        pp = cols.extra[via]
        pc = cols.fval[via]
        missing = (pp < 0) & np.isnan(pc)
        if missing.any():
            raise InvariantError(
                "VIA op carries neither port_passes nor port_cycles"
            )
        has_pc = ~np.isnan(pc)
        if has_pc.any() and float(pc[has_pc].min()) < 0.0:
            raise InvariantError("VIA port_cycles must be >= 0")
    if capacity is not None and via.any():
        se = cols.aux[via]
        pp = np.maximum(cols.extra[via], 1)
        footprint = np.maximum(1, se // pp)
        footprint = np.where(se == 0, 0, footprint)
        running = np.maximum.accumulate(footprint)
        if int(running[-1]) > capacity:
            peak = int(running[-1])
            raise InvariantError(
                f"SSPM footprint {peak} exceeds capacity {capacity} "
                "(occupancy prefix maximum out of bounds)"
            )
    if counters is None:
        return
    values = counters.as_dict()
    arr = np.asarray([float(v) for v in values.values()], dtype=np.float64)
    if not np.isfinite(arr).all():
        bad = [k for k, v in values.items() if not np.isfinite(float(v))]
        raise InvariantError(f"counter(s) {bad} became non-finite")
    if float(arr.min()) < -_FLOAT_SLACK:
        bad = [k for k, v in values.items() if float(v) < -_FLOAT_SLACK]
        raise InvariantError(f"counter(s) {bad} are negative")
    served = (
        counters.l1_hits + counters.l2_hits + counters.l3_hits + counters.dram_fills
    )
    if served != counters.mem_line_accesses:
        raise InvariantError(
            f"cache conservation broken: {counters.mem_line_accesses} line "
            f"accesses but {served} served (l1+l2+l3+dram)"
        )
    if counters.branch_mispredicts > counters.branches + _FLOAT_SLACK:
        raise InvariantError(
            f"{counters.branch_mispredicts} branch mispredicts exceed "
            f"{counters.branches} branches"
        )
