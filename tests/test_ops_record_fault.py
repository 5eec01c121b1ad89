"""Fault-injection tests for the op-stream recording store.

Mirrors ``test_runner_fault.py`` for the artifact layer: a truncated,
garbled, bit-flipped, tampered, schema-stale, or mis-filed recording must
be detected by the integrity checks, dropped, and transparently
re-recorded — the sweep's records stay bit-identical and the store heals
itself.  The columnar artifacts add a second defense line: a mutation
that *re-signs* the digest (so integrity passes) must still be rejected by
the header checks or the structural validation in
:class:`repro.sim.columnar.ColumnarOps` — an array-table entry past the
body, ragged column lengths and out-of-bounds index-pool slices raise a
structured :class:`~repro.errors.RecordingError` instead of mispricing.
The v4 container is read and re-sealed here with ``zlib`` and ``hashlib``
rather than through the code under test.  Also pins the key discipline:
SSPM port counts and pure-pricing machine knobs stay out of
:func:`recording_key`, while the IR schema version, the artifact part, and
the SSPM capacity feed it, and the key values themselves are pinned.
"""

import hashlib
import json
import zlib

import numpy as np
import pytest

from repro.errors import RecordingError
from repro.eval import RunnerConfig, run_units
from repro.eval import recordings as recordings_mod
from repro.eval.recordings import RecordingStore, recording_key
from repro.eval.runner import code_version
from repro.eval.units import record_units, replay_units, spmv_units
from repro.matrices import small_collection
from repro.sim.columnar import COLUMNS, KIND_IDS
from repro.sim.ops import load_recordings, save_recordings
from repro.via.config import VIA_4_2P, VIA_16_2P, VIA_16_4P

from tests.test_runner_fault import PIN_CODE, PIN_UNIT

pytestmark = pytest.mark.smoke


@pytest.fixture
def warmed(tmp_path):
    coll = small_collection(2, seed=41, max_n=128)
    direct = spmv_units(coll, formats=("csr",))
    rdir = str(tmp_path / "rec")
    recs = record_units(direct, record_dir=rdir)
    baseline = run_units(recs, RunnerConfig())
    store = RecordingStore(rdir)
    path = store._path(recording_key(recs[0], code_version(), part="via"))
    assert path.exists()
    return direct, rdir, baseline, path


#: the v4 container: this tag, the sha256 of the uncompressed payload, and
#: one zlib stream of the payload (an 8-byte little-endian header length,
#: the JSON header with its array table, then the raw arrays)
MAGIC = b"VIAOPS\x00\x00"
DIGEST_END = len(MAGIC) + 32


def _read_v4(path):
    """``(header, body, digest)``: the header keeps its array table."""
    blob = path.read_bytes()
    assert blob[: len(MAGIC)] == MAGIC
    payload = zlib.decompress(blob[DIGEST_END:])
    size = int.from_bytes(payload[:8], "little")
    header = json.loads(payload[8 : 8 + size])
    return header, payload[8 + size :], blob[len(MAGIC) : DIGEST_END]


def _write_v4(path, header, body, digest=None):
    """Seal an artifact; the digest is the payload's own unless a (stale)
    one is given."""
    head = json.dumps(header).encode("utf-8")
    payload = len(head).to_bytes(8, "little") + head + body
    digest = digest or hashlib.sha256(payload).digest()
    path.write_bytes(MAGIC + digest + zlib.compress(payload))


def _arrays(header, body):
    return {
        name: np.frombuffer(
            body, dtype=spec["dtype"], count=spec["length"], offset=spec["offset"]
        )
        for name, spec in header["arrays"].items()
    }


def _rewrite(path, *, schema=None, drop_checksum_for=None, key=None):
    """Re-save an artifact with a targeted inconsistency injected."""
    if key is not None:
        recordings, extra = load_recordings(path)
        extra = dict(extra)
        extra["key"] = key
        save_recordings(path, recordings, extra_meta=extra)
        return
    header, body, digest = _read_v4(path)
    if schema is not None:
        # re-signed: the schema check, not the digest, must reject it
        header["schema"] = schema
        digest = None
    if drop_checksum_for is not None:
        # mutate the payload without refreshing the checksum
        entry = next(iter(header["entries"].values()))
        entry["priced"]["counters"][drop_checksum_for] += 1
    _write_v4(path, header, body, digest)


def _rewrite_signed(path, mutate):
    """Re-save with a mutation and a *refreshed* digest.

    The artifact then passes the integrity check, so only the columnar
    structural validation stands between the mutation and a replay.
    """
    header, body, _ = _read_v4(path)
    arrays = _arrays(header, body)
    mutate(header, arrays)
    table, body = {}, b""
    for name, arr in arrays.items():
        table[name] = {
            "dtype": arr.dtype.str, "length": int(arr.size), "offset": len(body)
        }
        body += arr.tobytes()
    header["arrays"] = table
    _write_v4(path, header, body)


def _first_prefix(meta):
    return next(iter(meta["entries"].values()))["ops"]["prefix"]


def _assert_same_content(got, want):
    """Two ``load_recordings`` results hold equal streams, configs, priced
    state and extra meta."""
    (got_recs, got_extra), (want_recs, want_extra) = got, want
    assert got_extra == want_extra
    assert list(got_recs) == list(want_recs)
    for label, rec in want_recs.items():
        other = got_recs[label]
        assert (other.name, other.machine, other.via_config, other.priced) == (
            rec.name, rec.machine, rec.via_config, rec.priced
        )
        assert other.columnar().names == rec.columnar().names
        for column in (*COLUMNS, "pool"):
            np.testing.assert_array_equal(
                getattr(other.columnar(), column), getattr(rec.columnar(), column)
            )


class TestArtifactRot:
    def _assert_selfhealed(self, direct, rdir, baseline):
        replays = replay_units(direct, record_dir=rdir)
        healed = run_units(replays, RunnerConfig())
        assert healed.records == baseline.records
        # the store is whole again: a second pass is pure replay and agrees
        again = run_units(replays, RunnerConfig())
        assert again.records == baseline.records
        store = RecordingStore(rdir)
        code = code_version()
        for unit in replays:
            assert store.get(recording_key(unit, code, part="via")) is not None
            assert store.get(recording_key(unit, code, part="base")) is not None

    def test_truncated_artifact_is_rerecorded(self, warmed):
        direct, rdir, baseline, path = warmed
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        self._assert_selfhealed(direct, rdir, baseline)

    @pytest.mark.parametrize("garbage", ["not-a-zip", "v3-zip"])
    def test_garbage_artifact_is_rerecorded(self, warmed, garbage):
        direct, rdir, baseline, path = warmed
        if garbage == "v3-zip":
            # the v3 layout: an npz of the JSON meta and one member per array
            header, body, _ = _read_v4(path)
            arrays = _arrays(header, body)
            del header["arrays"]
            header["schema"] = 3
            meta = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
            with path.open("wb") as fh:
                np.savez_compressed(fh, meta=meta, **arrays)
        else:
            path.write_bytes(b"this is not a zip archive")
        self._assert_selfhealed(direct, rdir, baseline)

    def test_tampered_payload_fails_checksum(self, warmed):
        direct, rdir, baseline, path = warmed
        _rewrite(path, drop_checksum_for="via_instructions")
        self._assert_selfhealed(direct, rdir, baseline)

    @pytest.mark.parametrize("schema", [1, 2, 3, 999])
    def test_wrong_schema_version_is_dropped(self, warmed, schema):
        # schemas 1 (per-op JSON), 2 (columns plus kernel outputs) and 3
        # (an npz zip) are retired layouts: the generic version check drops
        # them like any other stale artifact
        direct, rdir, baseline, path = warmed
        _rewrite(path, schema=schema)
        with pytest.raises(RecordingError, match="schema"):
            load_recordings(path)
        self._assert_selfhealed(direct, rdir, baseline)

    def test_mis_filed_key_is_detected(self, warmed):
        direct, rdir, baseline, path = warmed
        _rewrite(path, key="f" * 64)
        self._assert_selfhealed(direct, rdir, baseline)
        assert not path.exists() or path.stat().st_size > 0

    def test_every_artifact_corrupt_at_once(self, warmed):
        direct, rdir, baseline, _ = warmed
        store = RecordingStore(rdir)
        artifacts = list(store.root.glob(f"*/*{store.suffix}"))
        assert artifacts
        for artifact in artifacts:
            artifact.write_bytes(b"\x00" * 64)
        self._assert_selfhealed(direct, rdir, baseline)

    def test_array_table_entry_past_the_body_is_rejected(self, warmed):
        """A re-signed array-table entry that ends past the payload must
        raise a structured error, never read a short or foreign view."""
        direct, rdir, baseline, path = warmed
        header, body, _ = _read_v4(path)
        spec = header["arrays"][_first_prefix(header) + "pool"]
        spec["offset"], spec["length"] = len(body), max(spec["length"], 1)
        _write_v4(path, header, body)
        with pytest.raises(RecordingError, match="malformed"):
            load_recordings(path)
        assert RecordingStore(rdir).get(path.stem) is None
        assert not path.exists()
        self._assert_selfhealed(direct, rdir, baseline)

    def test_truncated_column_is_rejected_and_healed(self, warmed):
        """A ragged op column (one array shorter than its siblings) must
        raise a structured error from the columnar loader, turn into a
        store miss through :class:`RecordingStore`, and self-heal."""
        direct, rdir, baseline, path = warmed

        def chop_one_column(meta, arrays):
            prefix = _first_prefix(meta)
            arrays[prefix + "count"] = arrays[prefix + "count"][:-1]

        _rewrite_signed(path, chop_one_column)
        with pytest.raises(RecordingError, match="ragged"):
            load_recordings(path)
        store = RecordingStore(rdir)
        assert store.get(path.stem) is None  # dropped on sight...
        assert not path.exists()  # ...and deleted, not served
        self._assert_selfhealed(direct, rdir, baseline)

    def test_truncated_index_pool_is_rejected_and_healed(self, warmed):
        """A pool slice pointing past the end of the shared index pool
        (the on-disk shape of a truncated pool array) must be rejected."""
        direct, rdir, baseline, path = warmed

        def overrun_pool(meta, arrays):
            prefix = _first_prefix(meta)
            kinds = arrays[prefix + "kinds"]
            pooled = np.isin(
                kinds,
                np.asarray(
                    [
                        KIND_IDS[k]
                        for k in (
                            "gather",
                            "scatter",
                            "load_windows",
                            "scalar_load",
                            "scalar_store",
                        )
                    ],
                    dtype=kinds.dtype,
                ),
            )
            assert pooled.any()  # spmv streams always gather
            num = arrays[prefix + "num"].copy()
            num[pooled] += arrays[prefix + "pool"].size + 1
            arrays[prefix + "num"] = num

        _rewrite_signed(path, overrun_pool)
        with pytest.raises(RecordingError, match="pool"):
            load_recordings(path)
        assert RecordingStore(rdir).get(path.stem) is None
        assert not path.exists()
        self._assert_selfhealed(direct, rdir, baseline)

    def test_bit_flips_are_rejected_or_harmless(self, warmed, tmp_path):
        """Flip bits 0 and 7 of the first 64 bytes and of every 7th byte
        after them: each load must raise :class:`RecordingError` or return
        the original content.  Any other exception would escape the
        store's drop-and-re-record policy and leave the rot on disk, so a
        rejected flip left in the store must self-heal."""
        direct, rdir, baseline, path = warmed
        original = path.read_bytes()
        want = load_recordings(path)
        probe = tmp_path / "flipped"
        rejected = None
        for pos in [*range(64), *range(64, len(original), 7)]:
            for bit in (0, 7):
                flipped = bytearray(original)
                flipped[pos] ^= 1 << bit
                probe.write_bytes(flipped)
                try:
                    got = load_recordings(probe)
                except RecordingError:
                    rejected = bytes(flipped)
                    continue
                _assert_same_content(got, want)
        assert rejected is not None
        path.write_bytes(rejected)
        self._assert_selfhealed(direct, rdir, baseline)
        _assert_same_content(load_recordings(path), want)

    def test_load_memo_never_serves_a_corrupted_file(self, warmed):
        """The in-process memo is stat-keyed: any on-disk change misses."""
        _, rdir, _, path = warmed
        store = RecordingStore(rdir)
        key = path.stem
        assert store.get(key) is not None  # memo warm
        path.write_bytes(b"rotten")
        assert store.get(key) is None
        assert not path.exists()  # dropped, not served


class TestKeyDiscipline:
    def _unit(self, via_config=VIA_16_2P, kernel="spmv"):
        coll = small_collection(1, seed=51, max_n=128)
        units = spmv_units(coll, formats=("csr",), via_config=via_config)
        recs = record_units(units, record_dir="/tmp/unused")
        import dataclasses

        return dataclasses.replace(recs[0], kernel=kernel)

    def test_port_count_is_not_in_the_key(self):
        a = recording_key(self._unit(VIA_16_2P), "c0")
        b = recording_key(self._unit(VIA_16_4P), "c0")
        assert a == b

    def test_sram_capacity_is_in_the_key(self):
        a = recording_key(self._unit(VIA_16_2P), "c0")
        b = recording_key(self._unit(VIA_4_2P), "c0")
        assert a != b

    def test_parts_are_separate_artifacts(self):
        u = self._unit()
        assert recording_key(u, "c0", part="via") != recording_key(
            u, "c0", part="base"
        )

    def test_code_version_is_in_the_key(self):
        u = self._unit()
        assert recording_key(u, "c0") != recording_key(u, "c1")

    def test_ops_schema_version_is_in_the_key(self, monkeypatch):
        u = self._unit()
        before = recording_key(u, "c0")
        monkeypatch.setattr(recordings_mod, "OPS_SCHEMA_VERSION", 999)
        assert recording_key(u, "c0") != before

    def test_shared_baseline_drops_capacity_only_for_base_part(self):
        a16 = self._unit(VIA_16_2P, kernel="spma")
        a4 = self._unit(VIA_4_2P, kernel="spma")
        assert recording_key(a16, "c0", part="base") == recording_key(
            a4, "c0", part="base"
        )
        assert recording_key(a16, "c0", part="via") != recording_key(
            a4, "c0", part="via"
        )
        # spmv baselines read the block size — capacity stays in their key
        s16 = self._unit(VIA_16_2P)
        s4 = self._unit(VIA_4_2P)
        assert recording_key(s16, "c0", part="base") != recording_key(
            s4, "c0", part="base"
        )


def test_recording_keys_are_pinned():
    """Both artifact keys of one fixed unit, computed before the storage
    code was consolidated: a drift would orphan every stored recording."""
    assert recording_key(PIN_UNIT, PIN_CODE, part="via") == (
        "da69aad7b12c34ea8910247ab1671df10111d9ab4ad90fa15ab85491149ea69e"
    )
    assert recording_key(PIN_UNIT, PIN_CODE, part="base") == (
        "94b9bbe5e5058e15c6775898e6aeed8737fa6e036490d50707f27ee0a5b8908c"
    )
