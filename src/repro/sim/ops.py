"""Recorded op streams — the narration channel of the simulator.

Kernels narrate their execution as coarse events (streaming loads, gathers,
vector ALU groups, VIA instructions...).  The event vocabulary is the
op-kind table :data:`repro.sim.columnar.OP_KINDS`, and a stream is its
columns.  This module defines the :class:`Recording` that lets the *same*
stream be

* priced immediately (the direct backend),
* captured to a compact on-disk artifact (the recorder backend), and
* re-priced later under a different machine/VIA configuration without
  re-executing any functional numpy (replay).

This is the trace-driven separation standard in vector-architecture
simulators: the op stream is the functional/timing seam.  Streams live as
struct-of-arrays columns (:class:`repro.sim.columnar.ColumnarOps`) and are
priced by the columnar engine on the record and replay paths alike, which
is what makes replayed timing bit-identical to direct execution by
construction.

Stream shape
------------

An op stream is not universal: kernels *shape* their narration using a few
configuration values (vector length for chunking, SSPM capacity for strip
and batch sizes, the L1 latency baked into one histogram stall).  Two
configurations with the same :func:`stream_shape_key` produce identical
streams and may share recordings; everything else (cache geometry, DRAM,
MLP, SSPM *ports*) only affects pricing and can be swept at replay time.

Serialization
-------------

:func:`save_recordings` / :func:`load_recordings` persist a dict of
:class:`Recording` objects into one ``np.savez_compressed`` artifact: a JSON
meta blob (schema version, configs, priced state, checksum) plus native npz
arrays — the op stream stored *columnar* (schema v2: one array per
:data:`repro.sim.columnar.COLUMNS` field plus the shared int64 index pool,
exactly the struct-of-arrays the vectorized engine prices), and the
functional outputs.  Loading never materializes per-op Python objects:
:class:`Recording` holds the columns.  Any truncation, tampering, or schema
mismatch raises :class:`RecordingError` — callers treat that as a cache miss
and re-record.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import zipfile
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple

import numpy as np
import numpy.typing as npt

from repro.errors import InvariantError, RecordingError, ReplayMismatchError
from repro.sim.columnar import COLUMNS, ColumnarOps, ColumnarPriced
from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.stats import OpCounters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.stats import KernelResult
    from repro.via.config import ViaConfig

#: bump whenever the op-kind table's column layout or the artifact format
#: change; folded into recording cache keys so stale artifacts invalidate
#: cleanly.
#: v2: op streams persist as struct-of-arrays columns (repro.sim.columnar)
#: instead of per-op JSON payloads
OPS_SCHEMA_VERSION = 2

__all__ = [
    "OPS_SCHEMA_VERSION",
    "InvariantError",
    "PricedState",
    "Recording",
    "RecordingError",
    "ReplayMismatchError",
    "load_recordings",
    "machine_shape_key",
    "save_recordings",
    "stream_shape_key",
]


# ---------------------------------------------------------------------------
# Stream shape keys
# ---------------------------------------------------------------------------

#: machine fields deliberately outside :func:`machine_shape_key`, checked
#: by the VIA101 cache-key hygiene rule (``python -m repro.analysis``).
#: Everything here is consumed at *pricing* time — replay applies it to a
#: recorded stream — so it must stay out of the stream-shape key or the
#: record/replay store stops deduplicating across pricing variants.
KEY_EXEMPT = {
    "MachineConfig": {
        "clock_ghz": "pricing-only: scales cycles to seconds",
        "issue_width": "pricing-only: scalar-issue throughput",
        "rob_entries": "pricing-only: overlap window",
        "mshrs": "pricing-only: outstanding-miss cap",
        "vfu_fma_latency": "pricing-only: vector FMA cost",
        "gather_base_latency": "pricing-only: gather cost",
        "scatter_base_latency": "pricing-only: scatter cost",
        "l2": "pricing-only: hit costs priced at replay",
        "l3": "pricing-only: hit costs priced at replay",
        "dram_latency": "pricing-only: miss cost",
        "dram_bw_bytes_per_cycle": "pricing-only: stream bandwidth",
        "mlp_stream": "pricing-only: stream overlap factor",
        "mlp_dependent": "pricing-only: dependent-miss overlap factor",
    },
    "CacheConfig": {
        "size_kb": "pricing-only: hit/miss split priced at replay",
        "ways": "pricing-only: conflict behaviour priced at replay",
        "line_bytes": "pricing-only: line-granularity pricing",
    },
}


def machine_shape_key(machine: MachineConfig) -> Dict[str, Any]:
    """The machine parameters that shape narration (not just pricing).

    ``vector_lanes`` sets every chunk count kernels compute; ``l1.latency``
    is read by the scalar-histogram narration when sizing its RMW stall.
    All other machine knobs are consumed at pricing time.
    """
    return {
        "vector_lanes": machine.vector_lanes,
        "l1_latency": machine.l1.latency,
    }


def stream_shape_key(
    machine: MachineConfig, via_config: Optional["ViaConfig"]
) -> Dict[str, Any]:
    """Everything that determines the *shape* of a narrated op stream.

    VIA kernels read ``sram_entries`` / ``cam_entries`` / ``csb_block_size``
    (all derived from ``sram_kb``) for strip, batch, and tile loops; the
    port count never reaches narration — it is applied when a
    ``record_via_op`` row is priced.  Hence the Fig. 9 DSE's four
    configurations collapse into two shape groups (4 KB and 16 KB), each
    recorded once and replayed per port variant.
    """
    key = machine_shape_key(machine)
    key["via_sram_kb"] = via_config.sram_kb if via_config is not None else None
    return key


# ---------------------------------------------------------------------------
# Recordings
# ---------------------------------------------------------------------------
@dataclass
class PricedState:
    """Priced totals captured when a recording's run finalized.

    Everything :func:`repro.sim.core.build_result` needs, frozen at record
    time.  SSPM port counts touch exactly one of these numbers
    (``counters.sspm_busy_cycles``, recomputed per target by
    :func:`repro.sim.columnar.columnar_via_totals`), so a same-machine
    replay is pure arithmetic over this state — no cache re-simulation at
    all.
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


class Recording:
    """One kernel execution captured as an op stream plus its output.

    ``machine`` / ``via_config`` are the configurations the stream was
    narrated under; :func:`repro.sim.backends.replay_recording` re-prices
    the stream under any shape-compatible pair.  ``priced`` is the record
    run's pricing state (same-machine replays reuse it instead of
    re-simulating memory); ``_machine_memo`` caches the one memory pass a
    cross-machine replay needs, keyed by target machine.  The stream itself
    is held as struct-of-arrays columns, the shape the pricing engine reads.
    """

    def __init__(
        self,
        name: str,
        machine: MachineConfig,
        via_config: Optional["ViaConfig"],
        columnar: ColumnarOps,
        output: Any = None,
        priced: Optional[PricedState] = None,
    ) -> None:
        self.name = name
        self.machine = machine
        self.via_config = via_config
        self.output = output
        self.priced = priced
        self._columnar = columnar
        #: per-machine memoized memory passes; shared across serve executor
        #: threads, guarded by backends._MEMO_LOCK
        self._machine_memo: Dict[MachineConfig, ColumnarPriced] = {}

    @property
    def shape_key(self) -> Dict[str, Any]:
        return stream_shape_key(self.machine, self.via_config)

    def columnar(self) -> ColumnarOps:
        """The op stream as struct-of-arrays columns."""
        return self._columnar

    def replay(
        self,
        machine: Optional[MachineConfig] = None,
        via_config: Optional["ViaConfig"] = None,
        *,
        validate: bool = False,
    ) -> "KernelResult":
        """Re-price this stream; see :func:`repro.sim.backends.replay_recording`."""
        from repro.sim.backends import replay_recording

        return replay_recording(
            self, machine=machine, via_config=via_config, validate=validate
        )


# -- config (de)serialization ------------------------------------------------
def _machine_to_dict(machine: MachineConfig) -> Dict[str, Any]:
    return dataclasses.asdict(machine)


def _machine_from_dict(data: Dict[str, Any]) -> MachineConfig:
    kwargs = dict(data)
    for level in ("l1", "l2", "l3"):
        kwargs[level] = CacheConfig(**kwargs[level])
    return MachineConfig(**kwargs)


def _via_to_dict(cfg: Optional["ViaConfig"]) -> Optional[Dict[str, Any]]:
    return None if cfg is None else dataclasses.asdict(cfg)


def _via_from_dict(data: Optional[Dict[str, Any]]) -> Optional["ViaConfig"]:
    if data is None:
        return None
    from repro.via.config import ViaConfig

    return ViaConfig(**data)


# -- output (de)serialization ------------------------------------------------
def _encode_output(
    output: Any, arrays: Dict[str, npt.NDArray[Any]], prefix: str
) -> Dict[str, Any]:
    """Encode a kernel output into a JSON spec + named npz arrays.

    Handles the output types kernels actually return: ``None``, python/numpy
    scalars, ndarrays, and the COO/CSR sparse matrices.
    """
    from repro.formats.coo import COOMatrix
    from repro.formats.csr import CSRMatrix

    def stash(suffix: str, arr: npt.NDArray[Any]) -> str:
        key = f"{prefix}{suffix}"
        arrays[key] = np.asarray(arr)
        return key

    if output is None:
        return {"type": "none"}
    if isinstance(output, (bool, int, float, np.integer, np.floating)):
        return {"type": "scalar", "value": float(output)}
    if isinstance(output, np.ndarray):
        return {"type": "ndarray", "key": stash("nd", output)}
    if isinstance(output, CSRMatrix):
        return {
            "type": "csr",
            "shape": [int(output.rows), int(output.cols)],
            "row_ptr": stash("rp", output.row_ptr),
            "col_idx": stash("ci", output.col_idx),
            "data": stash("dt", output.data),
        }
    if isinstance(output, COOMatrix):
        return {
            "type": "coo",
            "shape": [int(output.rows), int(output.cols)],
            "row": stash("r", output.row),
            "col": stash("c", output.col),
            "data": stash("d", output.data),
        }
    raise RecordingError(
        f"cannot serialize kernel output of type {type(output).__name__}"
    )


def _decode_output(spec: Dict[str, Any], arrays: Mapping[str, Any]) -> Any:
    from repro.formats.coo import COOMatrix
    from repro.formats.csr import CSRMatrix

    kind = spec["type"]
    if kind == "none":
        return None
    if kind == "scalar":
        return spec["value"]
    if kind == "ndarray":
        return arrays[spec["key"]]
    if kind == "csr":
        return CSRMatrix(
            tuple(spec["shape"]),
            arrays[spec["row_ptr"]],
            arrays[spec["col_idx"]],
            arrays[spec["data"]],
        )
    if kind == "coo":
        return COOMatrix(
            tuple(spec["shape"]),
            arrays[spec["row"]],
            arrays[spec["col"]],
            arrays[spec["data"]],
        )
    raise RecordingError(f"unknown output spec type {kind!r}")


def _checksum(meta_blob: bytes, arrays: Mapping[str, npt.NDArray[Any]]) -> str:
    """Digest of the meta blob plus every npz array (name, dtype, shape,
    bytes) — so tampering with any column, pool, or output is detected."""
    digest = hashlib.sha256()
    digest.update(meta_blob)
    for key in sorted(arrays):
        arr = np.ascontiguousarray(arrays[key])
        digest.update(key.encode("utf-8"))
        digest.update(arr.dtype.str.encode("ascii"))
        digest.update(repr(arr.shape).encode("ascii"))
        digest.update(arr.tobytes())
    return digest.hexdigest()


def save_recordings(
    path: Any,
    recordings: Dict[str, Recording],
    *,
    extra_meta: Optional[Dict[str, Any]] = None,
) -> None:
    """Persist named recordings into one compressed ``.npz`` artifact.

    Schema v2 stores each entry's op stream as its struct-of-arrays columns
    (``ops{i}_<column>`` plus ``ops{i}_pool``; see
    :class:`repro.sim.columnar.ColumnarOps`) — the exact representation the
    pricing engine reads, so loading is zero-copy into the pricing path.
    """
    arrays: Dict[str, npt.NDArray[Any]] = {}
    entries: Dict[str, Any] = {}
    for i, (label, rec) in enumerate(recordings.items()):
        cols = rec.columnar()
        prefix = f"ops{i}_"
        for column in COLUMNS:
            arrays[prefix + column] = getattr(cols, column)
        arrays[prefix + "pool"] = cols.pool
        entries[label] = {
            "name": rec.name,
            "machine": _machine_to_dict(rec.machine),
            "via": _via_to_dict(rec.via_config),
            "ops": {"prefix": prefix, "names": list(cols.names)},
            "output": _encode_output(rec.output, arrays, prefix=f"out{i}_"),
            "priced": None if rec.priced is None else rec.priced.to_dict(),
        }
    meta: Dict[str, Any] = {
        "schema": OPS_SCHEMA_VERSION,
        "entries": entries,
        "extra": extra_meta or {},
    }
    meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    meta["checksum"] = _checksum(meta_blob, arrays)
    np.savez_compressed(
        path,
        meta=np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
        ),
        **arrays,
    )


def load_recordings(path: Any) -> Tuple[Dict[str, Recording], Dict[str, Any]]:
    """Load an artifact; returns ``(recordings, extra_meta)``.

    Raises :class:`RecordingError` on any integrity or schema failure —
    truncated zip, garbled JSON, checksum mismatch, a schema version this
    code does not understand, or ragged/out-of-bounds op columns (the
    structural validation in :class:`repro.sim.columnar.ColumnarOps`).
    """
    try:
        with np.load(path, allow_pickle=False) as npz:
            meta = json.loads(bytes(npz["meta"].tobytes()).decode("utf-8"))
            arrays = {k: npz[k] for k in npz.files if k != "meta"}
    except (OSError, ValueError, KeyError, zipfile.BadZipFile,
            json.JSONDecodeError, io.UnsupportedOperation) as exc:
        raise RecordingError(f"unreadable recording artifact {path}: {exc}") from exc
    try:
        if meta.get("schema") != OPS_SCHEMA_VERSION:
            raise RecordingError(
                f"recording schema {meta.get('schema')!r} != {OPS_SCHEMA_VERSION}"
            )
        stored = meta.pop("checksum", None)
        meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")
        if stored != _checksum(meta_blob, arrays):
            raise RecordingError(f"recording checksum mismatch in {path}")
        recordings: Dict[str, Recording] = {}
        for label, entry in meta["entries"].items():
            spec = entry["ops"]
            prefix = spec["prefix"]
            cols = ColumnarOps(
                pool=arrays[prefix + "pool"],
                names=tuple(spec["names"]),
                **{col: arrays[prefix + col] for col in COLUMNS},
            )
            priced = entry.get("priced")
            recordings[label] = Recording(
                name=entry["name"],
                machine=_machine_from_dict(entry["machine"]),
                via_config=_via_from_dict(entry["via"]),
                columnar=cols,
                output=_decode_output(entry["output"], arrays),
                priced=None if priced is None else PricedState.from_dict(priced),
            )
        return recordings, meta.get("extra", {})
    except RecordingError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise RecordingError(f"malformed recording artifact {path}: {exc}") from exc
