"""Recorded op streams — the narration channel of the simulator.

Kernels narrate their execution as coarse events (streaming loads, gathers,
vector ALU groups, VIA instructions...).  The event vocabulary is the
op-kind table :data:`repro.sim.columnar.OP_KINDS`, and a stream is its
columns.  This module defines the :class:`Recording` — a stream, the
configurations it was narrated under and its priced state (a
:class:`~repro.sim.stats.PricedState`, also importable from here),
nothing the pricing does not read — that lets the *same* stream be

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
:class:`Recording` objects into one artifact file (schema v4): a magic tag,
the sha256 of the uncompressed payload, and one zlib stream of that
payload.  The payload is a length-prefixed JSON header (schema version,
configs, priced state, extra meta, and an array table giving each array's
dtype, length and byte offset) followed by the raw bytes of every array —
the op stream stored *columnar*, one array per
:data:`repro.sim.columnar.COLUMNS` field plus the shared int64 index pool,
exactly the struct-of-arrays the vectorized engine prices.  Kernel outputs
are not stored: a replay prices, it does not compute, so its result carries
``output=None``.  Loading reads the file once, checks the digest before it
trusts the header, and never materializes per-op Python objects: the
columns :class:`Recording` holds are read-only views of the decompressed
buffer.  Any truncation, tampering, or schema mismatch raises
:class:`RecordingError` — callers treat that as a cache miss and re-record.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Any, BinaryIO, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigError, InvariantError, RecordingError, ReplayMismatchError
from repro.sim.columnar import COLUMNS, ColumnarOps
from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.stats import PricedState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.via.config import ViaConfig

#: bump whenever the op-kind table's column layout or the artifact format
#: change; folded into recording cache keys so stale artifacts invalidate
#: cleanly.
#: v2: op streams persist as struct-of-arrays columns (repro.sim.columnar)
#: instead of per-op JSON payloads
#: v3: kernel outputs are no longer stored (no ``out{i}_*`` arrays, no
#: ``"output"`` meta entry)
#: v4: one checksummed zlib buffer per artifact (header, then raw arrays)
#: instead of a zip archive with one ``.npy`` member per array
OPS_SCHEMA_VERSION = 4

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
class Recording:
    """One kernel execution captured as exactly what replay prices.

    ``machine`` / ``via_config`` are the configurations the stream was
    narrated under; :func:`repro.sim.backends.replay_recording` re-prices
    the stream under any shape-compatible pair.  ``priced`` is the record
    run's pricing state (same-machine replays reuse it instead of
    re-simulating memory); ``_machine_memo`` caches the one memory pass a
    cross-machine replay needs, keyed by target machine.  The stream itself
    is held as struct-of-arrays columns, the shape the pricing engine reads.
    The kernel's functional output is not part of a recording: the record
    run returns it, and a replay's result carries ``output=None``.
    """

    def __init__(
        self,
        name: str,
        machine: MachineConfig,
        via_config: Optional["ViaConfig"],
        columnar: ColumnarOps,
        priced: Optional[PricedState] = None,
    ) -> None:
        self.name = name
        self.machine = machine
        self.via_config = via_config
        self.priced = priced
        self._columnar = columnar
        #: per-machine memoized memory passes; shared across serve executor
        #: threads, guarded by backends._MEMO_LOCK
        self._machine_memo: Dict[MachineConfig, PricedState] = {}

    @property
    def shape_key(self) -> Dict[str, Any]:
        return stream_shape_key(self.machine, self.via_config)

    def columnar(self) -> ColumnarOps:
        """The op stream as struct-of-arrays columns."""
        return self._columnar


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


# -- the artifact container -------------------------------------------------
#: first bytes of every artifact file; anything else (a v3 ``.npz`` zip
#: included) is not an artifact this code reads
_MAGIC = b"VIAOPS\x00\x00"
#: the sha256 of the uncompressed payload follows the magic tag
_DIGEST_END = len(_MAGIC) + hashlib.sha256().digest_size
#: every array starts at a multiple of this many payload bytes, so the
#: int64 and float64 views a load hands out are aligned
_ALIGN = 8
#: width of the payload's little-endian header-length prefix
_LEN_BYTES = 8


def save_recordings(
    path: Union[str, "os.PathLike[str]", BinaryIO],
    recordings: Dict[str, Recording],
    *,
    extra_meta: Optional[Dict[str, Any]] = None,
) -> None:
    """Persist named recordings into one checksummed, compressed artifact.

    Schema v4 stores each entry's op stream as its struct-of-arrays columns
    (``ops{i}_<column>`` plus ``ops{i}_pool``; see
    :class:`repro.sim.columnar.ColumnarOps`) — the exact representation the
    pricing engine reads — as raw bytes after a JSON header, so loading
    hands the pricing path views of one buffer.  ``path`` is a file path or
    a binary handle.
    """
    table: Dict[str, Dict[str, Any]] = {}
    chunks: List[bytes] = []
    offset = 0
    entries: Dict[str, Any] = {}
    for i, (label, rec) in enumerate(recordings.items()):
        cols = rec.columnar()
        prefix = f"ops{i}_"
        for name in (*COLUMNS, "pool"):
            arr = getattr(cols, name)
            raw = arr.tobytes()
            raw += bytes(-len(raw) % _ALIGN)
            table[prefix + name] = {"dtype": arr.dtype.str, "length": arr.size, "offset": offset}
            chunks.append(raw)
            offset += len(raw)
        entries[label] = {
            "name": rec.name,
            "machine": _machine_to_dict(rec.machine),
            "via": _via_to_dict(rec.via_config),
            "ops": {"prefix": prefix, "names": list(cols.names)},
            "priced": None if rec.priced is None else rec.priced.to_dict(),
        }
    meta = {"schema": OPS_SCHEMA_VERSION, "entries": entries, "extra": extra_meta or {}}
    header = json.dumps({**meta, "arrays": table}, sort_keys=True).encode("utf-8")
    # space-pad the header so the body starts aligned too
    header += b" " * (-(_LEN_BYTES + len(header)) % _ALIGN)
    payload = b"".join([len(header).to_bytes(_LEN_BYTES, "little"), header, *chunks])
    blob = _MAGIC + hashlib.sha256(payload).digest() + zlib.compress(payload)
    if isinstance(path, (str, os.PathLike)):
        Path(path).write_bytes(blob)
    else:
        path.write(blob)


def load_recordings(
    path: Union[str, "os.PathLike[str]"],
) -> Tuple[Dict[str, Recording], Dict[str, Any]]:
    """Load an artifact; returns ``(recordings, extra_meta)``.

    The file is read once; its digest is checked before the header is
    trusted, and the columns are views of the decompressed buffer.  Raises
    :class:`RecordingError` on any integrity or schema failure — an
    unreadable or foreign file, a truncated or garbled stream, a digest
    mismatch, a schema version this code does not understand, a malformed
    header, or ragged/out-of-bounds op columns (the structural validation
    in :class:`repro.sim.columnar.ColumnarOps`).
    """
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise RecordingError(f"unreadable recording artifact {path}: {exc}") from exc
    if not blob.startswith(_MAGIC):
        raise RecordingError(f"{path} is not a recording artifact")
    try:
        payload = zlib.decompress(memoryview(blob)[_DIGEST_END:])
    except zlib.error as exc:
        raise RecordingError(f"unreadable recording artifact {path}: {exc}") from exc
    if hashlib.sha256(payload).digest() != blob[len(_MAGIC) : _DIGEST_END]:
        raise RecordingError(f"recording checksum mismatch in {path}")
    try:
        size = int.from_bytes(payload[:_LEN_BYTES], "little")
        header = json.loads(payload[_LEN_BYTES : _LEN_BYTES + size])
        if header["schema"] != OPS_SCHEMA_VERSION:
            raise RecordingError(
                f"recording schema {header['schema']!r} != {OPS_SCHEMA_VERSION}"
            )
        # read-only views; numpy refuses a table entry that leaves the body
        body = memoryview(payload)[_LEN_BYTES + size :]
        arrays = {
            name: np.frombuffer(
                body, dtype=spec["dtype"], count=spec["length"], offset=spec["offset"]
            )
            for name, spec in header["arrays"].items()
        }
        recordings: Dict[str, Recording] = {}
        for label, entry in header["entries"].items():
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
                priced=None if priced is None else PricedState.from_dict(priced),
            )
        return recordings, header.get("extra", {})
    except RecordingError:
        raise
    except (AttributeError, ConfigError, IndexError, KeyError, RecursionError,
            TypeError, ValueError) as exc:
        raise RecordingError(f"malformed recording artifact {path}: {exc}") from exc
