"""Fault-injection tests for the sweep runner.

Two failure classes the runner must degrade gracefully under:

* **kernel faults** — a unit that raises mid-sweep becomes a recorded
  :class:`UnitFailure` (with traceback) and the sweep completes with every
  other record intact, sequentially and under a worker pool;
* **cache rot** — a truncated, garbled, or tampered cache entry is
  detected by the integrity checks, dropped, and recomputed — never
  served.

It also pins the cache's on-disk format: the key of one fixed unit, and a
hand-written entry in the ``{format, key, payload, checksum, context}``
envelope that must read back as a hit.  A silent key or envelope drift
would throw away every existing cache.
"""

import hashlib
import json
import os

import pytest

from repro.errors import SweepError
from repro.eval import (
    ResultCache,
    RunnerConfig,
    WorkUnit,
    run_units,
    spmv_units,
    unit_cache_key,
)
from repro.eval import units as units_mod
from repro.eval.runner import code_version
from repro.matrices import MatrixSpec, small_collection
from repro.sim.config import DEFAULT_MACHINE
from repro.via.config import VIA_16_2P

pytestmark = pytest.mark.smoke


def _explode(unit: WorkUnit):
    raise RuntimeError(f"injected kernel fault for {unit.spec.name}")


@pytest.fixture(autouse=True)
def _boom_kind():
    """Register a unit kind that always raises; fork-based workers inherit
    the registry, so the injection reaches pool processes too."""
    units_mod.UNIT_KINDS["boom"] = _explode
    yield
    units_mod.UNIT_KINDS.pop("boom", None)


def _mixed_units():
    coll = small_collection(3, seed=21, max_n=128)
    good = spmv_units(coll, formats=("csr",))
    bad = WorkUnit("boom", MatrixSpec("poison", "random", 64, 1, {}))
    return [good[0], bad, good[1], good[2]]


class TestKernelFaults:
    def test_failure_is_recorded_and_sweep_completes(self):
        result = run_units(_mixed_units(), RunnerConfig())
        assert len(result.records) == 3
        assert [f.name for f in result.failures] == ["poison"]
        failure = result.failures[0]
        assert failure.index == 1 and failure.kind == "boom"
        assert "injected kernel fault" in failure.error
        assert "RuntimeError" in failure.traceback
        assert result.counters.units_failed == 1
        assert result.counters.units_ok == 3

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork workers")
    def test_failure_is_recorded_under_worker_pool(self):
        result = run_units(_mixed_units(), RunnerConfig(workers=2))
        assert len(result.records) == 3
        assert [f.name for f in result.failures] == ["poison"]

    def test_failure_lands_in_journal(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        run_units(
            _mixed_units(), RunnerConfig(journal_path=str(journal))
        )
        lines = [json.loads(l) for l in journal.read_text().splitlines()]
        assert len(lines) == 4
        failed = [l for l in lines if l["status"] == "failed"]
        assert len(failed) == 1
        assert failed[0]["name"] == "poison"
        assert "injected kernel fault" in failed[0]["error"]

    def test_failures_never_poison_the_cache(self, tmp_path):
        """A failed unit must be retried next run, not served as a hit."""
        config = RunnerConfig(cache_dir=str(tmp_path / "c"))
        first = run_units(_mixed_units(), config)
        assert first.counters.units_failed == 1
        second = run_units(_mixed_units(), config)
        assert second.counters.units_failed == 1  # retried, failed again
        assert second.counters.cache_hits == 3  # the good units hit

    def test_strict_mode_raises_like_the_sequential_path(self):
        with pytest.raises(SweepError, match="injected kernel fault"):
            run_units(_mixed_units(), RunnerConfig(capture_errors=False))

    def test_unknown_kind_is_a_recorded_failure(self):
        unit = WorkUnit("no-such-kernel", MatrixSpec("x", "random", 64, 1, {}))
        result = run_units([unit], RunnerConfig())
        assert result.records == []
        assert len(result.failures) == 1
        assert "no-such-kernel" in result.failures[0].error


class TestCacheRot:
    @pytest.fixture
    def warmed(self, tmp_path):
        coll = small_collection(2, seed=31, max_n=128)
        units = spmv_units(coll, formats=("csr",))
        config = RunnerConfig(cache_dir=str(tmp_path / "c"))
        baseline = run_units(units, config)
        cache = ResultCache(config.cache_dir)
        key = unit_cache_key(units[0], code_version())
        path = cache._path(key)
        assert path.exists()
        return units, config, baseline, path

    def _assert_recomputed(self, units, config, baseline):
        result = run_units(units, config)
        assert result.counters.cache_corrupt == 1
        assert result.counters.cache_hits == len(units) - 1
        assert result.counters.units_ok == 1
        assert result.records == baseline.records  # identical after repair
        # the repaired entry is valid again: next run is all hits
        healed = run_units(units, config)
        assert healed.counters.cache_hits == len(units)
        assert healed.records == baseline.records

    def test_truncated_entry_is_recomputed(self, warmed):
        units, config, baseline, path = warmed
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        self._assert_recomputed(units, config, baseline)

    # valid JSON that is not an object must be rot too, not an
    # AttributeError out of run_units on every later sweep
    @pytest.mark.parametrize(
        "garbage",
        ["{this is not json", "[]", "null", "42"],
        ids=["not-json", "list", "null", "number"],
    )
    def test_garbage_entry_is_recomputed(self, warmed, garbage):
        units, config, baseline, path = warmed
        path.write_text(garbage)
        self._assert_recomputed(units, config, baseline)

    def test_tampered_payload_fails_checksum(self, warmed):
        units, config, baseline, path = warmed
        entry = json.loads(path.read_text())
        entry["payload"]["speedup"]["csr"] = 999.0  # checksum now stale
        path.write_text(json.dumps(entry))
        self._assert_recomputed(units, config, baseline)

    def test_key_mismatch_is_detected(self, warmed):
        units, config, baseline, path = warmed
        entry = json.loads(path.read_text())
        entry["key"] = "f" * 64  # entry filed under the wrong address
        path.write_text(json.dumps(entry))
        self._assert_recomputed(units, config, baseline)

    def test_wrong_format_version_is_dropped(self, warmed):
        units, config, baseline, path = warmed
        entry = json.loads(path.read_text())
        entry["format"] = 999
        path.write_text(json.dumps(entry))
        self._assert_recomputed(units, config, baseline)


#: one fixed unit and code-version string; the keys below were computed
#: from them before the storage code was consolidated and must never drift
PIN_CODE = "pinned-code-version"
PIN_UNIT = WorkUnit(
    "record",
    MatrixSpec("structural_0000", "structural", 67, 169129130,
               {"bandwidth": 2, "fill": 0.5}),
    DEFAULT_MACHINE,
    VIA_16_2P,
    formats=("csr", "csb"),
    kernel="spmv",
    record_dir="/nowhere",
)


class TestOnDiskFormat:
    def test_unit_cache_key_is_pinned(self):
        assert unit_cache_key(PIN_UNIT, PIN_CODE) == (
            "ced73a85a2763418d16007875a1157f7bbc51649d54a4b41b6ab33adbd7a91a2"
        )

    def test_hand_written_entry_reads_back_as_a_hit(self, tmp_path):
        key = "ab" + "0" * 62
        payload = {"name": "m", "speedup": {"csr": 1.5}, "nnz": 3}
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        entry = {
            "format": 1,
            "key": key,
            "payload": payload,
            "checksum": hashlib.sha256(blob.encode("utf-8")).hexdigest(),
            "context": {"kernel": "spmv"},
        }
        path = tmp_path / key[:2] / f"{key}.json"
        path.parent.mkdir()
        path.write_text(json.dumps(entry))
        cache = ResultCache(str(tmp_path))
        assert cache.get(key) == (payload, "hit")
        assert len(cache) == 1
