"""Content-addressed store for recorded op-stream artifacts.

A :class:`repro.storage.FileStore` of compressed ``.npz`` files at
``<root>/<key[:2]>/<key>.npz``, written atomically, verified on load
(schema version + checksum + key match), and *self-healing* — any
unreadable or mismatched artifact is deleted and treated as a miss, so the
caller re-records instead of ever consuming rot.

The key (:func:`recording_key`) hashes only what determines the *stream*:
the matrix spec, kernel, formats, the stream-shaping subset of the machine
config, the SSPM capacity, the code fingerprint, and the IR schema
version.  SSPM port counts and pure-pricing machine knobs are deliberately
absent — that is what lets one recording serve every port variant of a
Fig. 9 shape group.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro.errors import RecordingError
from repro.sim.ops import (
    OPS_SCHEMA_VERSION,
    Recording,
    load_recordings,
    machine_shape_key,
    save_recordings,
)
from repro.storage import FileStore, digest, write_atomic

#: kernel families whose *baseline* narration never reads the VIA config.
#: Their baseline recordings drop the SSPM capacity from the key, so one
#: baseline artifact serves every shape group of the Fig. 9 DSE — the
#: second group's record run replays it instead of re-running the kernel.
SHARED_BASELINE_KERNELS = frozenset({"spma", "spmm"})

#: fields deliberately outside :func:`recording_key`, checked by the
#: VIA101 cache-key hygiene rule (``python -m repro.analysis``).  The
#: machine side is covered by :func:`repro.sim.ops.machine_shape_key`,
#: which carries its own exemptions.
KEY_EXEMPT = {
    "WorkUnit": {
        "record_dir": "the recording is invariant to where it is stored",
        "validate": "invariant checking only verifies streams; it never "
        "changes them",
    },
    "ViaConfig": {
        "ports": "pure-pricing knob applied at replay time; excluding it "
        "is what lets one recording serve every port variant",
    },
}


def recording_key(unit, code_version: str, *, part: str = "via") -> str:
    """Stable content hash of everything that shapes a unit's op streams.

    Two units hash equal iff direct execution would narrate identical op
    streams for them, so their recordings are interchangeable: same spec,
    kernel, formats, vector length, L1 latency, and SSPM capacity.  Port
    counts and all other machine knobs only affect pricing and are applied
    at replay time.

    ``part`` separates a unit's two artifacts: ``"via"`` (the VIA kernel
    streams plus the unit's skeleton metadata) and ``"base"`` (the baseline
    kernel streams).  For :data:`SHARED_BASELINE_KERNELS` the base key
    additionally drops the SSPM capacity — those baselines narrate
    identically under every VIA configuration.
    """
    kernel = unit.kernel or unit.kind
    via_sram_kb: Optional[int] = unit.via_config.sram_kb
    if part == "base" and kernel in SHARED_BASELINE_KERNELS:
        via_sram_kb = None
    payload = {
        "kernel": kernel,
        "part": part,
        "spec": {
            "name": unit.spec.name,
            "domain": unit.spec.domain,
            "n": unit.spec.n,
            "seed": unit.spec.seed,
            "params": unit.spec.params,
        },
        "formats": list(unit.formats),
        "max_n": unit.max_n,
        "machine_shape": machine_shape_key(unit.machine),
        "via_sram_kb": via_sram_kb,
        "code": code_version,
        "ops_schema": OPS_SCHEMA_VERSION,
    }
    return digest(payload)


#: process-local artifact cache keyed by (path, mtime_ns, size) — any write
#: or tamper changes the stat signature, so stale entries can never be
#: served after the file on disk changes.  Guarded by a lock because the
#: serving layer (:mod:`repro.serve`) replays from executor threads.
_LOAD_MEMO: "OrderedDict[Tuple[str, int, int], Tuple[Dict[str, Recording], Dict[str, Any]]]" = OrderedDict()
_LOAD_MEMO_MAX = 256
_LOAD_MEMO_LOCK = threading.Lock()


def _remember(
    memo_key: Tuple[str, int, int],
    found: Tuple[Dict[str, Recording], Dict[str, Any]],
) -> None:
    with _LOAD_MEMO_LOCK:
        _LOAD_MEMO[memo_key] = found
        while len(_LOAD_MEMO) > _LOAD_MEMO_MAX:
            _LOAD_MEMO.popitem(last=False)


class RecordingStore(FileStore):
    """On-disk artifact store, one ``save_recordings`` file per key."""

    suffix = ".npz"

    def get(
        self, key: str
    ) -> Optional[Tuple[Dict[str, Recording], Dict[str, Any]]]:
        """Load ``(recordings, extra_meta)`` for a key, or ``None``.

        Corrupt, truncated, schema-stale, or mis-keyed artifacts are
        deleted on sight so the next record run rewrites them cleanly.
        """
        path = self._path(key)
        try:
            st = path.stat()
        except OSError:
            return None
        memo_key = (str(path), st.st_mtime_ns, st.st_size)
        with _LOAD_MEMO_LOCK:
            hit = _LOAD_MEMO.get(memo_key)
            if hit is not None:
                _LOAD_MEMO.move_to_end(memo_key)
                return hit
        try:
            recordings, extra = load_recordings(path)
            if extra.get("key") != key:
                raise RecordingError(
                    f"artifact {path} is filed under the wrong key"
                )
        except RecordingError:
            path.unlink(missing_ok=True)
            return None
        _remember(memo_key, (recordings, extra))
        return recordings, extra

    def has(self, key: str) -> bool:
        """Whether an artifact file exists for ``key`` (no integrity load).

        A cheap existence probe for observability (the serving layer's
        replay-hit accounting); the authoritative integrity check still
        happens in :meth:`get` when the artifact is actually consumed.
        """
        return self._path(key).exists()

    def put(
        self,
        key: str,
        recordings: Dict[str, Recording],
        *,
        extra_meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Atomically persist recordings under a key."""
        path = self._path(key)
        meta = dict(extra_meta or {})
        meta["key"] = key
        write_atomic(
            path, lambda fh: save_recordings(fh, recordings, extra_meta=meta)
        )
        # pre-seed the load memo: in-process readers (the replay phase of a
        # record/replay sweep) skip the decompress-and-rebuild round trip
        st = path.stat()
        _remember((str(path), st.st_mtime_ns, st.st_size), (dict(recordings), meta))
