"""Content-addressed file storage shared by every store in the package.

The sweep result cache (:class:`repro.eval.runner.ResultCache`), the
op-stream recording store (:class:`repro.eval.recordings.RecordingStore`)
and the cost-model store (:class:`repro.model.store.ModelStore`) keep one
file per key at ``<root>/<key[:2]>/<key><suffix>``.  This module owns what
they share: the atomic write, the canonical digest behind every content
key and checksum, the source fingerprint every key embeds, the layout, and
the JSON envelope with its integrity check.  What a bad entry *means*
stays with each store: a miss to recompute, or an error.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, BinaryIO, Callable, Dict, Iterator, List, Optional, Tuple, Union

import repro


def write_atomic(path: Union[str, Path], write: Callable[[BinaryIO], object]) -> None:
    """Create or replace ``path`` with what ``write`` puts in a binary handle.

    Every writer fills its own ``mkstemp`` file next to the target and
    renames it over the target, so readers never see a torn file and two
    writers of one key never collide.  The ``.tmp`` suffix keeps
    half-written files out of store globs.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".tmp-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, target)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def digest(obj: Any) -> str:
    """sha256 hex digest of ``obj``'s canonical (sorted-keys, compact) JSON."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_code_version_cache: Optional[str] = None


def code_version() -> str:
    """Fingerprint of every source file that can influence sweep results.

    Hashing the package sources (rather than trusting a version string)
    means any edit to kernels, formats, the machine model, or the unit
    computation invalidates stale cache entries automatically.
    """
    global _code_version_cache
    if _code_version_cache is None:
        root = Path(repro.__file__).parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
        _code_version_cache = digest.hexdigest()
    return _code_version_cache


class FileStore:
    """One file per key at ``<root>/<key[:2]>/<key><suffix>``."""

    #: file-name extension of an entry, set by each store
    suffix: str

    def __init__(self, root: str):
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{self.suffix}"

    def _files(self) -> List[Path]:
        return sorted(self.root.glob(f"*/*{self.suffix}"))

    def keys(self) -> List[str]:
        """Every stored key, sorted."""
        return [p.name[: -len(self.suffix)] for p in self._files()]

    def __len__(self) -> int:
        return len(self._files())

    def invalidate(self, key: Optional[str] = None) -> int:
        """Delete one entry (or, with no key, every entry); returns count."""
        paths = self._files() if key is None else [self._path(key)]
        present = [p for p in paths if p.exists()]
        for path in present:
            path.unlink(missing_ok=True)
        return len(present)


class JsonStore(FileStore):
    """Entries in the ``{format, key, payload, checksum[, context]}`` envelope.

    The checksum is the :func:`digest` of the payload alone, so sidecar
    ``context`` can come and go without invalidating entries.
    """

    suffix = ".json"
    format_version = 1

    def _verify(self, path: Path) -> Optional[Dict[str, Any]]:
        """The entry at ``path`` if it passes every integrity check."""
        try:
            entry = json.loads(path.read_bytes())
        except ValueError:  # not JSON, or not UTF-8
            return None
        if (
            isinstance(entry, dict)
            and entry.get("format") == self.format_version
            and entry.get("key") == path.name[: -len(self.suffix)]
            and "payload" in entry
            and entry.get("checksum") == digest(entry["payload"])
        ):
            return entry
        return None

    def _read(self, key: str) -> Tuple[Optional[Dict[str, Any]], str]:
        """``(entry, status)``, status one of ``hit``/``miss``/``corrupt``.

        A corrupt entry (unparseable, not an object, or a wrong format,
        key or checksum) is deleted so the next write lands cleanly.
        """
        path = self._path(key)
        try:
            entry = self._verify(path)
        except FileNotFoundError:
            return None, "miss"
        if entry is None:
            path.unlink(missing_ok=True)
            return None, "corrupt"
        return entry, "hit"

    def _write(
        self, key: str, payload: Any, context: Optional[Dict[str, Any]] = None
    ) -> None:
        entry: Dict[str, Any] = {
            "format": self.format_version,
            "key": key,
            "payload": payload,
            "checksum": digest(payload),
        }
        if context is not None:
            entry["context"] = context
        # no sort_keys: the payload's dict order must survive the round
        # trip so a stored record stays bit-identical to a computed one
        blob = json.dumps(entry).encode("utf-8")
        write_atomic(self._path(key), lambda fh: fh.write(blob))

    def entries(self) -> Iterator[Dict[str, Any]]:
        """Every entry that passes the integrity check, in key order.

        Rot is skipped but left in place; :meth:`_read` deletes it on the
        path that would otherwise serve it.
        """
        for path in self._files():
            try:
                entry = self._verify(path)
            except OSError:
                continue
            if entry is not None:
                yield entry
