"""Columnar (struct-of-arrays) op streams, the op-kind table, and pricing.

An op stream is held as per-field NumPy columns — the arrays a recording
artifact stores — and every op kind is one row of :data:`OP_KINDS`: its
name and kind id, the column each operand fills and how that column reads
back, which operands must be non-negative, its other checks with their
messages, and its trace rendering.  Everything per-kind is read from that
table:

* :class:`ColumnarBuilder` appends narration rows through :data:`APPEND`,
  one straight-line function per kind generated from the table (checks,
  then one store per column);
* :func:`decode_row` reads a row back into its operand values, and
  :meth:`OpKind.render` turns them into a trace event;
* :class:`ColumnarOps` validation and :func:`check_columnar_invariants`
  take the array, pool and non-negative roles from the table.

Pricing is array arithmetic over the columns:

* :func:`columnar_via_totals` prices every ``record_via_op`` row of a
  stream in one vectorized pass (the port-dependent side of replay);
* :func:`price_columnar` is the cross-machine memory pass: allocation bases
  from a cumulative sum, per-op counters from masked reductions, a walk of
  a fresh :class:`~repro.sim.hierarchy.MemoryHierarchy`, cache-level
  latencies from an ``np.take`` over its level latencies, and hit /
  mispredict attribution from per-kind masks; it returns the
  :class:`~repro.sim.stats.PricedState` the hierarchy snapshots;
* :func:`check_columnar_invariants` expresses the model's conservation
  laws (the ones :class:`~repro.sim.backends.InvariantBackend` checks) as
  whole-array assertions, including SSPM occupancy as a running prefix
  maximum;
* :class:`ColumnarBuilder` / :func:`price_flush` run the same kernels on
  the *record* path: a :class:`~repro.sim.core.Core` appends one row per
  narration call (no per-op object) and flushes batches through the
  pricing helpers against its own long-lived
  :class:`~repro.sim.hierarchy.MemoryHierarchy` — op streams are born
  columnar and :func:`concat_columnar` stitches the flushed batches back
  into one stream for the recorder.

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
* the stateful cache walk itself,
  :meth:`~repro.sim.hierarchy.MemoryHierarchy.walk`, drives the model's
  :class:`~repro.sim.cache.Cache` objects in recorded op order — only the
  *attribution* of its outcomes is vectorized.

Columns
-------

One row per op; the ``kinds`` discriminator says which :data:`OP_KINDS`
row gives the other columns their roles.  ``count``, ``aux``, ``misc`` and
``extra`` are int64 and ``fval`` float64; an unused ``extra`` holds −1 and
an unused ``fval`` NaN, which is how an omitted optional operand
(``port_passes``, ``port_cycles``) reads back as ``None``.  ``array_id``
indexes the ``names`` table for ops naming a simulated array (−1
otherwise); ``off``/``num`` reference a window of the shared ``pool`` of
int64 indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    cast,
)

import numpy as np
import numpy.typing as npt

from repro.errors import InvariantError, RecordingError, SimulationError
from repro.sim import calibration as cal
from repro.sim.cache import compress_lines, stream_lines
from repro.sim.config import MachineConfig
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.stats import OpCounters, PricedState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Array, Core
    from repro.via.config import ViaConfig

__all__ = [
    "APPEND",
    "COLUMNS",
    "KIND_IDS",
    "KIND_ORDER",
    "OP_KINDS",
    "VALIDATE",
    "VECTOR_OP_KINDS",
    "ColumnarBuilder",
    "ColumnarOps",
    "FlushBatch",
    "OpKind",
    "Operand",
    "check_columnar_invariants",
    "columnar_via_totals",
    "concat_columnar",
    "decode_row",
    "price_columnar",
    "price_flush",
    "stream_uop_count",
]

_LINE = cal.CACHE_LINE_BYTES
_ALLOC_BASE = 0x1000_0000

#: vector-op kinds the cycle model understands (see OpCounters)
VECTOR_OP_KINDS = ("alu", "mask", "fma", "reduce", "permute", "conflict")


# ---------------------------------------------------------------------------
# The op-kind table
# ---------------------------------------------------------------------------
class Operand(NamedTuple):
    """One narration operand: the column it fills and how it reads back."""

    name: str
    #: a numeric column of :data:`COLUMNS`; ``"array"`` for a simulated
    #: array (``array_id`` into the name table), ``"pool"`` for a window of
    #: the index pool (``off``/``num``)
    column: str
    #: ``">= 0"`` or ``"> 0"``; a value outside raises
    #: ``"<kind>: <name> must be <bound>, got <value>"``
    bound: Optional[str] = None
    #: ``None`` is accepted and stored as the column default (−1 or NaN)
    optional: bool = False
    #: stored as 0/1, read back as a ``bool``
    flag: bool = False
    #: stored as the index into these names, read back as the name
    choices: Tuple[str, ...] = ()


class OpKind(NamedTuple):
    """One op kind: its operands in ``Core`` narration order and its checks."""

    name: str
    operands: Tuple[Operand, ...]
    #: ``(failing condition, message)``: a Python expression and an
    #: f-string body over the operand names (``VECTOR_OP_KINDS`` in
    #: scope); they run in order, before the operand bounds
    checks: Tuple[Tuple[str, str], ...] = ()
    #: the operand whose value (for an index window, its length) is the
    #: trace multiplicity, at least 1; without one an event counts 1
    trace: Optional[str] = None

    def render(self, values: Sequence[Any]) -> Tuple[str, int]:
        """Trace detail and multiplicity of one row's operand values.

        The detail lists the scalar operands as ``name=repr`` in order,
        then each index window by its length.
        """
        named = list(zip(self.operands, values))
        detail = [f"{o.name}={v!r}" for o, v in named if o.column != "pool"]
        detail += [f"{o.name}=<{v.size} elems>" for o, v in named if o.column == "pool"]
        count = 1
        for o, v in named:
            if o.name == self.trace:
                count = max(int(v.size) if o.column == "pool" else int(v), 1)
        return ", ".join(detail), count


_STREAM = (
    Operand("array", "array"),
    Operand("start", "aux", ">= 0"),
    Operand("count", "count", ">= 0"),
)
_INDEXED = (
    Operand("array", "array"),
    Operand("indices", "pool"),
    Operand("n_instr", "count", ">= 0"),
)
_SERIAL = (
    Operand("n_instr", "count", ">= 0"),
    Operand("elements_per_instr", "aux", ">= 0"),
)
_SCALAR_INDEXED = (
    Operand("array", "array"),
    Operand("indices", "pool"),
    Operand("dependent", "aux", flag=True),
)

#: every op kind, in kind-id order — the ``kinds`` column stores the index
#: into this table, so the order is part of the artifact format
OP_KINDS: Tuple[OpKind, ...] = (
    OpKind(
        "alloc",
        (
            Operand("name", "array"),
            Operand("num_elems", "count", ">= 0"),
            Operand("elem_bytes", "aux", "> 0"),
        ),
        trace="num_elems",
    ),
    OpKind("scalar_ops", (Operand("count", "count", ">= 0"),), trace="count"),
    OpKind(
        "vector_op",
        (
            Operand("op_kind", "aux", choices=VECTOR_OP_KINDS),
            Operand("count", "count", ">= 0"),
        ),
        checks=(
            ("op_kind not in VECTOR_OP_KINDS", "unknown vector op kind {op_kind!r}"),
        ),
        trace="count",
    ),
    OpKind(
        "branches",
        (Operand("count", "count", ">= 0"), Operand("mispredict_rate", "fval")),
        checks=(
            (
                "not (0.0 <= mispredict_rate <= 1.0)",
                "mispredict_rate must be in [0, 1], got {mispredict_rate}",
            ),
        ),
        trace="count",
    ),
    OpKind(
        "dependency_stall",
        (Operand("cycles", "fval"),),
        checks=(("cycles < 0", "stall cycles must be >= 0, got {cycles}"),),
    ),
    OpKind("load_stream", _STREAM, trace="count"),
    OpKind("store_stream", _STREAM, trace="count"),
    OpKind("gather", _INDEXED, trace="indices"),
    OpKind("scatter", _INDEXED, trace="indices"),
    OpKind("gather_serial", _SERIAL, trace="n_instr"),
    OpKind("scatter_serial", _SERIAL, trace="n_instr"),
    OpKind(
        "load_windows",
        (
            Operand("array", "array"),
            Operand("starts", "pool"),
            Operand("width", "count", ">= 0"),
        ),
        trace="starts",
    ),
    OpKind("scalar_load", _SCALAR_INDEXED, trace="indices"),
    OpKind("scalar_store", _SCALAR_INDEXED, trace="indices"),
    OpKind(
        "bulk_stream",
        (
            Operand("array", "array"),
            Operand("passes", "count", ">= 0"),
            Operand("write", "aux", flag=True),
        ),
        trace="passes",
    ),
    OpKind(
        "record_via_op",
        (
            Operand("sspm_elements", "aux", ">= 0"),
            Operand("cam_searches", "misc", ">= 0"),
            Operand("count", "count", ">= 0"),
            Operand("port_passes", "extra", ">= 0", optional=True),
            Operand("port_cycles", "fval", ">= 0", optional=True),
        ),
        checks=(
            (
                "port_passes is None and port_cycles is None",
                "record_via_op needs port_passes (FIVU profile) or "
                "port_cycles (pre-computed cost)",
            ),
        ),
        trace="count",
    ),
)

#: op-kind names in kind-id order (the ``kinds`` column stores the index)
KIND_ORDER: Tuple[str, ...] = tuple(kind.name for kind in OP_KINDS)

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


def _kinds_with(column: str) -> Tuple[int, ...]:
    return tuple(
        i for i, kind in enumerate(OP_KINDS)
        if any(o.column == column for o in kind.operands)
    )


#: kinds that name a simulated array (``array_id`` must be valid)
_ARRAY_KINDS = _kinds_with("array")

#: kinds that reference a window of the index pool
_POOL_KINDS = _kinds_with("pool")

#: serialized column names, one artifact array each (the ``pool`` array
#: and ``names`` table ride alongside; see
#: :func:`repro.sim.ops.save_recordings`)
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


def decode_row(cols: ColumnarOps, i: int) -> Tuple[OpKind, Tuple[Any, ...]]:
    """Row ``i`` of a stream read back as its kind and operand values.

    Values come back in narration order, decoded the way the table says:
    array names from the name table, index windows as pool slices, flags
    as ``bool``, choices as names, and an unused optional column as
    ``None``.
    """
    kind = OP_KINDS[int(cols.kinds[i])]
    values: List[Any] = []
    for o in kind.operands:
        value: Any
        if o.column == "array":
            value = cols.names[int(cols.array_id[i])]
        elif o.column == "pool":
            off = int(cols.off[i])
            value = cols.pool[off : off + int(cols.num[i])]
        elif o.column == "fval":
            value = float(cols.fval[i])
            if o.optional and math.isnan(value):
                value = None
        else:
            value = int(getattr(cols, o.column)[i])
            if o.choices:
                value = o.choices[value]
            elif o.flag:
                value = bool(value)
            elif o.optional and value < 0:
                value = None
        values.append(value)
    return kind, tuple(values)


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


def _add_via_rows(
    cols: ColumnarOps, ports: Optional[int], counters: OpCounters, no_ports: str
) -> None:
    """Add a stream's ``record_via_op`` rows to ``counters``.

    Rows without recorded ``port_cycles`` derive them from ``ports``
    (``no_ports`` is the error when there are none).  The integer counters
    are plain masked sums (exact under any order); ``sspm_busy_cycles``
    accumulates the per-op busy terms left to right on top of its current
    value (:func:`_seeded_cumsum`), the same float64 additions as a per-op
    loop — bit-identical, not merely close.
    """
    mask = cols.kinds == _VIA
    if not mask.any():
        return
    cnt = cols.count[mask]
    se = cols.aux[mask]
    pc = cols.fval[mask]
    derive = np.isnan(pc)
    if derive.any():
        if ports is None:
            raise SimulationError(no_ports)
        derived = _port_cycles_vec(se, cols.extra[mask], ports)
        pc = np.where(derive, derived.astype(np.float64), pc)
    instructions = int(cnt.sum())
    counters.via_instructions += instructions
    counters.vector_uops += instructions
    counters.sspm_accesses += int((se * cnt).sum())
    counters.cam_searches += int((cols.misc[mask] * cnt).sum())
    counters.sspm_busy_cycles = _seeded_cumsum(
        counters.sspm_busy_cycles, (pc + float(cal.COMMIT_ISSUE_OVERHEAD)) * cnt
    )


def columnar_via_totals(
    cols: ColumnarOps, via_config: Optional["ViaConfig"]
) -> OpCounters:
    """Counter contributions of a stream's VIA ops under a port configuration.

    This is the whole port-dependent side of pricing: replaying a recording
    under a sibling port variant only needs this pass.  The busy cycles
    accumulate from 0.0; every term is >= 0, so that gives the same bits
    as an ``np.cumsum`` over the terms alone.
    """
    totals = OpCounters()
    _add_via_rows(
        cols,
        None if via_config is None else via_config.ports,
        totals,
        "cannot price a VIA op without a VIA configuration",
    )
    return totals


# ---------------------------------------------------------------------------
# Cross-machine memory pricing
# ---------------------------------------------------------------------------
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
    seeded = np.empty(len(terms) + 1, dtype=np.float64)
    seeded[0] = start
    seeded[1:] = terms
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
    memory: MemoryHierarchy,
    counters: OpCounters,
) -> None:
    """Walk a stream's memory rows through a live hierarchy, attribute the
    costs.

    The only sequential work in the engine — LRU state makes the per-line
    hit/miss classification order-dependent, so
    :meth:`~repro.sim.hierarchy.MemoryHierarchy.walk` drives the
    hierarchy's caches in recorded op order.  Everything around it is
    whole-array: latency by ``np.take`` over the hierarchy's level
    latencies, per-op latency sums by ``np.bincount`` segments, hit
    counters by level masks.

    ``row_base`` / ``row_eb`` / ``row_nbytes`` carry the governing
    allocation per memory row (cross-machine replay derives them from the
    stream's alloc rows; the record path captures them live from the
    core's address space).  Counter updates add on top of existing values
    so flush batches compose against a long-lived hierarchy.
    """
    kinds = cols.kinds
    machine = memory.machine
    walk = memory.walk
    latency = memory.level_latency
    line_bytes = machine.l1.line_bytes
    walked: List[int] = []
    nlines = np.zeros(mem_rows.size, dtype=np.int64)
    dependent = np.zeros(mem_rows.size, dtype=bool)
    stream_extra_latency = np.zeros(mem_rows.size, dtype=np.float64)
    stream_uops_total = 0
    # repeat-pass lines of bulk streams, by the level that serves them
    bulk_lines = [0, 0, 0, 0]
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
                # served by the smallest cache that holds the whole array
                if nb <= l1_cap:
                    level = 0
                elif nb <= l2_cap:
                    level = 1
                elif nb <= l3_cap:
                    level = 2
                else:
                    level = 3
                bulk_lines[level] += extra * blines
                stream_extra_latency[j] = (
                    extra * blines * (latency[level] - latency[0])
                )
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
        walked += walk(lines.tolist(), write)
        nlines[j] = lines.size

    levels = np.array(walked, dtype=np.int8)
    counters.vector_uops += stream_uops_total

    # vectorized attribution: latency-table lookup + per-op segments
    lat = np.take(latency, levels)
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
    served = np.bincount(levels, minlength=4) + bulk_lines
    counters.mem_line_accesses += int(served.sum())
    counters.l1_hits += int(served[0])
    counters.l2_hits += int(served[1])
    counters.l3_hits += int(served[2])
    counters.dram_fills += int(served[3])
    if bulk_lines[3]:
        memory.dram.read_lines(bulk_lines[3])


def price_columnar(
    cols: ColumnarOps, machine: MachineConfig, *, validate: bool = False
) -> PricedState:
    """Price a stream's non-VIA side on a fresh machine (cross-machine replay).

    The result is the :class:`~repro.sim.stats.PricedState` a record run on
    ``machine`` would have finalized with, less its VIA ops, which the
    replay driver adds on top (VIA ops never touch the memory hierarchy, so
    the split is exact).  The only sequential work is the cache walk of a
    fresh :class:`~repro.sim.hierarchy.MemoryHierarchy`, in recorded op
    order.  Every attribution step around it is whole-array: allocation
    bases by cumulative sum, per-access latency by ``np.take`` over the
    hierarchy's level latencies, per-op latency sums by ``np.bincount``
    segments, hit counters by level masks, and the order-sensitive float
    counters by ``np.cumsum`` in op order.

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
    memory = MemoryHierarchy(machine)
    _price_memory_rows(
        cols,
        mem_rows,
        bases[governing],
        a_eb[governing],
        a_nbytes[governing],
        memory,
        counters,
    )
    if validate:
        check_columnar_invariants(cols, counters=counters)
    return memory.priced(counters)


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
    without re-deriving allocation tables.  Rows go in through
    :data:`APPEND`, which validates each operand against the table before
    storing it, so narration faults on a bad operand at the call that
    carried it.  The name-intern table persists across :meth:`take` calls;
    batch pool offsets restart at zero each flush and
    :func:`concat_columnar` re-bases them when stitching.
    """

    #: rows buffered since the last :meth:`take` (plain attribute — it is
    #: read once per narrated op by the core's flush check)
    rows: int

    def __init__(self, flush_rows: int, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError(
                f"builder capacity must be positive, got {capacity}"
            )
        #: an append that fills the buffer to this many rows reports it full
        self.flush_rows = flush_rows
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


#: the Python source of each bound's failing condition
_BOUND_FAILS = {">= 0": "< 0", "> 0": "<= 0"}


def _compile(kind_id: int, kind: OpKind) -> Tuple[Callable[..., bool], Callable[..., None]]:
    """Generate a kind's append and validate functions from its table row.

    ``append(builder, *operands)`` runs the kind's checks, then the
    operand bounds, each raising :class:`~repro.errors.SimulationError`
    with its message; then it stores one row and returns whether the
    buffer reached ``builder.flush_rows``.  ``validate(*operands)`` runs
    the same checks alone.  The code is generated straight-line, one
    ``if`` per check and one store per column: a narrated op costs what a
    hand-written method did, where a loop over the row's operands cost
    about half as much again per ``record_via_op`` row.
    """
    checks = list(kind.checks)
    for o in kind.operands:
        if o.bound is not None:
            fails = f"{o.name} {_BOUND_FAILS[o.bound]}"
            if o.optional:
                fails = f"{o.name} is not None and {fails}"
            message = f"{kind.name}: {o.name} must be {o.bound}, got {{{o.name}!r}}"
            checks.append((fails, message))
    check_lines = [
        f"    if {fails}:\n        raise SimulationError(f{message!r})"
        for fails, message in checks
    ]
    namespace: Dict[str, Any] = {
        "__name__": __name__,
        "SimulationError": SimulationError,
        "VECTOR_OP_KINDS": VECTOR_OP_KINDS,
    }
    store_lines = [f"    self._kinds[i] = {kind_id}"]
    for o in kind.operands:
        if o.column == "array":
            store = f"self._set_array(i, {o.name})"
        elif o.column == "pool":
            store = f"self._pooled(i, {o.name})"
        elif o.choices:
            namespace[f"{o.name}_codes"] = {c: j for j, c in enumerate(o.choices)}
            store = f"self._{o.column}[i] = {o.name}_codes[{o.name}]"
        else:
            store = f"self._{o.column}[i] = {o.name}"
        if o.optional:
            store = f"if {o.name} is not None:\n        {store}"
        store_lines.append(f"    {store}")
    params = ", ".join(o.name for o in kind.operands)
    source = "\n".join(
        [f"def validate_{kind.name}({params}):", *check_lines, "    return None", ""]
        + [f"def append_{kind.name}(self, {params}):", *check_lines]
        + ["    i = self.rows", "    if i == self._cap:", "        self._grow()"]
        + store_lines
        + ["    self.rows = i + 1", "    return i + 1 >= self.flush_rows", ""]
    )
    exec(compile(source, f"<op kind {kind.name}>", "exec"), namespace)
    return (
        cast(Callable[..., bool], namespace[f"append_{kind.name}"]),
        cast(Callable[..., None], namespace[f"validate_{kind.name}"]),
    )


_COMPILED = {kind.name: _compile(i, kind) for i, kind in enumerate(OP_KINDS)}

#: kind name -> ``append(builder, *operands) -> full``: validate one
#: narrated op and store it as a builder row (see :func:`_compile`)
APPEND: Dict[str, Callable[..., bool]] = {k: f[0] for k, f in _COMPILED.items()}

#: kind name -> ``validate(*operands)``: the same checks, without a row
VALIDATE: Dict[str, Callable[..., None]] = {k: f[1] for k, f in _COMPILED.items()}


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
        _price_memory_rows(
            cols,
            mem_rows,
            batch.base[mem_rows],
            batch.elem_bytes[mem_rows],
            batch.nbytes[mem_rows],
            core.memory,
            counters,
        )
    _add_via_rows(
        cols,
        None if core.via is None else core.via.config.ports,
        counters,
        "cannot price a VIA op on a core without a VIA device",
    )


def concat_columnar(chunks: Sequence[ColumnarOps]) -> ColumnarOps:
    """Stitch flushed batches back into one stream (recorder capture).

    Name tables are merged by string (each batch may have interned a
    different prefix of the final table) and pooled rows' ``off`` values
    are re-based by the running pool length; the result carries exactly
    the columns one unflushed builder would have produced for the whole
    narration.
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

#: multiplicity columns that must be non-negative, per kind: the table's
#: ``>= 0`` operands that are always present (an optional operand's column
#: holds its "absent" default, -1 or NaN)
_NON_NEGATIVE_ROLES: Tuple[Tuple[int, str], ...] = tuple(
    sorted(
        (
            (i, o.column)
            for i, kind in enumerate(OP_KINDS)
            for o in kind.operands
            if o.bound == ">= 0" and not o.optional
        ),
        key=lambda role: (role[0], COLUMNS.index(role[1])),
    )
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
