"""Versioned, checksummed, content-addressed storage for model artifacts.

A :class:`repro.storage.JsonStore` like the sweep result cache: one JSON
file per artifact at ``<root>/<key[:2]>/<key>.json``, where the key is the
:func:`~repro.storage.digest` of the payload — an artifact's identity
*is* its content, so retraining on identical data at identical settings
re-produces the same key and the store naturally deduplicates.

Two deliberate differences from the result cache:

* corruption is an **error**, not a miss.  A cache miss is recomputed in
  milliseconds; a silently vanished model would make a serving endpoint
  fall back to the analytic estimator without anyone noticing.  A bad
  schema, checksum mismatch, or key mismatch raises
  :class:`~repro.errors.ModelError` and the rotten file is deleted so the
  next write can land cleanly.
* a ``LATEST`` pointer file names the most recently stored key, so CLI
  consumers (``python -m repro.model predict``, the serve estimator) can
  load "the current model" without threading keys through every call.

No timestamps anywhere: artifacts must be byte-reproducible from their
inputs, and the model subsystem runs under the determinism checker's
worker scope.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.errors import ModelError
from repro.storage import JsonStore, digest, write_atomic

#: bump when the artifact envelope schema changes shape
STORE_FORMAT = 1

_LATEST = "LATEST"


class ModelStore(JsonStore):
    """Content-addressed artifact store rooted at a directory."""

    format_version = STORE_FORMAT

    def put(self, payload: Dict[str, Any]) -> str:
        """Store an artifact payload; returns its content key.

        Also moves the ``LATEST`` pointer.  Both writes are atomic, so a
        concurrent reader never sees a torn file and concurrent writers
        never collide.
        """
        if not isinstance(payload, dict):
            raise ModelError("model artifact payload must be a dict")
        key = digest(payload)
        self._write(key, payload)
        write_atomic(self.root / _LATEST, lambda fh: fh.write(key.encode("utf-8")))
        return key

    def get(self, key: str) -> Dict[str, Any]:
        """Load an artifact payload by key.

        Missing key → ``ModelError``.  Corrupt entry (unparseable, wrong
        schema version, key or checksum mismatch) → the file is deleted
        and ``ModelError`` raised: a rotten model is rejected, never
        served.
        """
        entry, status = self._read(key)
        if status == "miss":
            raise ModelError(f"model artifact {key!r} not found in {self.root}")
        if entry is None:
            raise ModelError(f"model artifact {key!r} is corrupt; entry deleted")
        return dict(entry["payload"])

    def latest_key(self) -> Optional[str]:
        """The key named by the ``LATEST`` pointer, or None if unset."""
        pointer = self.root / _LATEST
        if not pointer.exists():
            return None
        key = pointer.read_text(encoding="utf-8").strip()
        return key or None

    def get_latest(self) -> Dict[str, Any]:
        """Load the artifact the ``LATEST`` pointer names."""
        key = self.latest_key()
        if key is None:
            raise ModelError(f"model store {self.root} has no LATEST artifact")
        return self.get(key)
