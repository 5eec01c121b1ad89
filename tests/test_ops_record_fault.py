"""Fault-injection tests for the op-stream recording store.

Mirrors ``test_runner_fault.py`` for the artifact layer: a truncated,
garbled, tampered, schema-stale, or mis-filed recording must be detected
by the integrity checks, dropped, and transparently re-recorded — the
sweep's records stay bit-identical and the store heals itself.  The v2
columnar artifacts add a second defense line: a mutation that *re-signs*
the checksum (so integrity passes) must still be rejected by the
structural validation in :class:`repro.sim.columnar.ColumnarOps` — ragged
column lengths and out-of-bounds index-pool slices raise a structured
:class:`~repro.errors.RecordingError` instead of mispricing.  Also pins
the key discipline: SSPM port counts and pure-pricing machine knobs stay
out of :func:`recording_key`, while the IR schema version, the artifact
part, and the SSPM capacity feed it.
"""

import json

import numpy as np
import pytest

from repro.errors import RecordingError
from repro.eval import RunnerConfig, run_units
from repro.eval import recordings as recordings_mod
from repro.eval.recordings import RecordingStore, recording_key
from repro.eval.runner import code_version
from repro.eval.units import record_units, replay_units, spmv_units
from repro.matrices import small_collection
from repro.sim.columnar import KIND_IDS
from repro.sim.ops import _checksum, load_recordings, save_recordings
from repro.via.config import VIA_4_2P, VIA_16_2P, VIA_16_4P

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


def _rewrite(path, *, schema=None, drop_checksum_for=None, key=None):
    """Re-save an artifact with a targeted inconsistency injected."""
    if key is not None:
        recordings, extra = load_recordings(path)
        extra = dict(extra)
        extra["key"] = key
        save_recordings(path, recordings, extra_meta=extra)
        return
    with np.load(path, allow_pickle=False) as npz:
        meta = json.loads(bytes(npz["meta"].tobytes()).decode("utf-8"))
        arrays = {k: npz[k] for k in npz.files if k != "meta"}
    if schema is not None:
        meta["schema"] = schema
    if drop_checksum_for is not None:
        # mutate the payload without refreshing the checksum
        entry = next(iter(meta["entries"].values()))
        entry["priced"]["counters"][drop_checksum_for] += 1
    np.savez_compressed(
        path,
        meta=np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
        ),
        **arrays,
    )


def _rewrite_signed(path, mutate):
    """Re-save with a mutation and a *refreshed* checksum.

    The artifact then passes the integrity check, so only the columnar
    structural validation stands between the mutation and a replay.
    """
    with np.load(path, allow_pickle=False) as npz:
        meta = json.loads(bytes(npz["meta"].tobytes()).decode("utf-8"))
        arrays = {k: npz[k] for k in npz.files if k != "meta"}
    meta.pop("checksum", None)
    mutate(meta, arrays)
    meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    meta["checksum"] = _checksum(meta_blob, arrays)
    np.savez_compressed(
        path,
        meta=np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
        ),
        **arrays,
    )


def _first_prefix(meta):
    return next(iter(meta["entries"].values()))["ops"]["prefix"]


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

    def test_garbage_artifact_is_rerecorded(self, warmed):
        direct, rdir, baseline, path = warmed
        path.write_bytes(b"this is not a zip archive")
        self._assert_selfhealed(direct, rdir, baseline)

    def test_tampered_payload_fails_checksum(self, warmed):
        direct, rdir, baseline, path = warmed
        _rewrite(path, drop_checksum_for="via_instructions")
        self._assert_selfhealed(direct, rdir, baseline)

    @pytest.mark.parametrize("schema", [1, 999])
    def test_wrong_schema_version_is_dropped(self, warmed, schema):
        # schema 1 is the retired per-op JSON layout: the generic version
        # check drops it like any other stale artifact
        direct, rdir, baseline, path = warmed
        _rewrite(path, schema=schema)
        self._assert_selfhealed(direct, rdir, baseline)

    def test_mis_filed_key_is_detected(self, warmed):
        direct, rdir, baseline, path = warmed
        _rewrite(path, key="f" * 64)
        self._assert_selfhealed(direct, rdir, baseline)
        assert not path.exists() or path.stat().st_size > 0

    def test_every_artifact_corrupt_at_once(self, warmed):
        direct, rdir, baseline, _ = warmed
        for npz in RecordingStore(rdir).root.rglob("*.npz"):
            npz.write_bytes(b"\x00" * 64)
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
