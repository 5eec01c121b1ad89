"""Tests for the run journal: append semantics, flush ordering, failure
modes, and the corrupt-cache telemetry it carries.

The journal is the runner's crash-recovery record — ``resume=`` replays it
— so these tests pin down the properties resume depends on: every line is
flushed the moment its unit completes (even when the very next statement
raises), journals append across resumed runs rather than truncating, a
torn tail is tolerated, and an unwritable journal fails the sweep loudly
up front instead of silently losing telemetry.
"""

import json
from pathlib import Path

import pytest

from repro.errors import SweepError
from repro.eval import ResultCache, RunnerConfig, WorkUnit, run_units, spmv_units
from repro.eval import units as units_mod
from repro.eval.runner import _Journal, _load_resume_map, code_version
from repro.eval.units import unit_cache_key
from repro.matrices import MatrixSpec, small_collection

pytestmark = pytest.mark.smoke


def _boom(unit: WorkUnit):
    raise RuntimeError(f"injected kernel fault for {unit.spec.name}")


@pytest.fixture(autouse=True)
def _boom_kind():
    units_mod.UNIT_KINDS["boom"] = _boom
    yield
    units_mod.UNIT_KINDS.pop("boom", None)


def _lines(path) -> list:
    return [json.loads(l) for l in Path(path).read_text().splitlines()]


class TestAppendSemantics:
    def test_journal_appends_across_resumed_runs(self, tmp_path):
        coll = small_collection(3, seed=41, max_n=128)
        units = spmv_units(coll, formats=("csr",))
        journal = str(tmp_path / "j.jsonl")

        run_units(units, RunnerConfig(journal_path=journal))
        run_units(units, RunnerConfig(journal_path=journal, resume=journal))

        lines = _lines(journal)
        assert [l["status"] for l in lines] == ["ok"] * 3 + ["resumed"] * 3
        # the resumed lines re-assert the full record, so a third resume
        # can be served from the *latest* line for each key
        assert all("record" in l and "key" in l for l in lines)
        third = run_units(
            units, RunnerConfig(journal_path=journal, resume=journal)
        )
        assert third.counters.units_resumed == 3

    def test_completed_lines_carry_resume_payload(self, tmp_path):
        coll = small_collection(2, seed=43, max_n=128)
        units = spmv_units(coll, formats=("csr",))
        journal = str(tmp_path / "j.jsonl")
        result = run_units(units, RunnerConfig(journal_path=journal))
        version = code_version()
        for line, unit, record in zip(_lines(journal), units, result.records):
            assert line["key"] == unit_cache_key(unit, version)
            assert line["record"] == record.to_dict()
            assert line["wall_s"] >= 0 and line["worker"] > 0


class TestFlushOrdering:
    def test_failure_line_is_flushed_before_strict_mode_raises(
        self, tmp_path
    ):
        """capture_errors=False raises on the failing unit — but the
        journal must already hold every line up to and including it."""
        coll = small_collection(2, seed=45, max_n=128)
        good = spmv_units(coll, formats=("csr",))
        bad = WorkUnit("boom", MatrixSpec("poison", "random", 64, 1, {}))
        journal = str(tmp_path / "j.jsonl")
        with pytest.raises(SweepError, match="injected kernel fault"):
            run_units(
                [good[0], bad, good[1]],
                RunnerConfig(journal_path=journal, capture_errors=False),
            )
        lines = _lines(journal)
        assert [l["status"] for l in lines] == ["ok", "failed"]
        assert "injected kernel fault" in lines[1]["error"]

    def test_every_line_is_durable_without_close(self, tmp_path):
        """Lines are readable while the journal is still open — flush
        happens per write, not at close (the crash-safety property)."""
        journal = _Journal(str(tmp_path / "j.jsonl"))
        journal.write(status="ok", unit=0)
        assert _lines(tmp_path / "j.jsonl") == [{"status": "ok", "unit": 0}]
        journal.write(status="failed", unit=1)
        assert len(_lines(tmp_path / "j.jsonl")) == 2
        journal.close()

    def test_close_is_idempotent(self, tmp_path):
        journal = _Journal(str(tmp_path / "j.jsonl"))
        journal.close()
        journal.close()
        disabled = _Journal(None)
        disabled.write(status="ok")  # no-op, no file
        disabled.close()


class TestUnwritableJournal:
    def test_parent_is_a_file_raises_sweep_error(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        with pytest.raises(SweepError, match="not writable"):
            _Journal(str(blocker / "j.jsonl"))

    def test_journal_path_is_a_directory_raises_sweep_error(self, tmp_path):
        target = tmp_path / "is-a-dir"
        target.mkdir()
        with pytest.raises(SweepError, match="not writable"):
            _Journal(str(target))

    def test_run_units_fails_fast_before_computing_anything(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        coll = small_collection(1, seed=47, max_n=96)
        with pytest.raises(SweepError, match="not writable"):
            run_units(
                spmv_units(coll, formats=("csr",)),
                RunnerConfig(journal_path=str(blocker / "j.jsonl")),
            )


class TestResumeMap:
    def test_missing_resume_journal_raises(self, tmp_path):
        with pytest.raises(SweepError, match="does not exist"):
            _load_resume_map(str(tmp_path / "nope.jsonl"))

    def test_torn_tail_and_garbage_lines_are_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        good = {"key": "k1", "status": "ok", "record": {"name": "x"}}
        path.write_text(
            json.dumps(good) + "\n"
            + "not json at all\n"
            + "[1, 2, 3]\n"  # json, but not an object
            + json.dumps({"status": "ok"}) + "\n"  # no key
            + json.dumps(good)[: len(json.dumps(good)) // 2]  # torn tail
        )
        entries = _load_resume_map(str(path))
        assert list(entries) == ["k1"]

    def test_failed_lines_are_never_resumed(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            json.dumps({"key": "k1", "status": "failed", "error": "x"}) + "\n"
            + json.dumps({"key": "k2", "status": "ok", "record": None}) + "\n"
        )
        entries = _load_resume_map(str(path))
        assert list(entries) == ["k2"]

    def test_latest_line_wins_per_key(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            json.dumps({"key": "k", "status": "ok", "record": {"v": 1}}) + "\n"
            + json.dumps({"key": "k", "status": "ok", "record": {"v": 2}}) + "\n"
        )
        assert _load_resume_map(str(path))["k"]["record"] == {"v": 2}

    def test_stale_journal_from_other_units_resumes_nothing(self, tmp_path):
        """Keys embed the unit hash, so a journal from different units (or
        different code) silently yields zero resume hits — never wrong
        records."""
        coll = small_collection(2, seed=49, max_n=128)
        units_a = spmv_units(coll, formats=("csr",))
        units_b = spmv_units(coll, formats=("csb",))
        journal = str(tmp_path / "j.jsonl")
        run_units(units_a, RunnerConfig(journal_path=journal))
        crossed = run_units(units_b, RunnerConfig(resume=journal))
        assert crossed.counters.units_resumed == 0
        assert crossed.counters.units_ok == len(units_b)


class TestUndecodableResumeRecord:
    """A completed journal line whose ``record`` is JSON but no sweep
    record: the unit is recomputed (or served from the cache), counted
    corrupt, and the rest of the journal still resumes."""

    @staticmethod
    def _damage_first_line(journal, record):
        lines = _lines(journal)
        assert lines[0]["status"] == "ok"
        lines[0]["record"] = record
        Path(journal).write_text("".join(json.dumps(l) + "\n" for l in lines))

    @pytest.mark.parametrize(
        "record", [[1, 2], {"name": "x"}, "text"],
        ids=["list", "partial-record", "string"],
    )
    def test_unit_is_recomputed(self, tmp_path, record):
        coll = small_collection(3, seed=55, max_n=128)
        units = spmv_units(coll, formats=("csr",))
        journal = str(tmp_path / "j.jsonl")
        clean = run_units(units, RunnerConfig(journal_path=journal))
        self._damage_first_line(journal, record)

        resumed = run_units(units, RunnerConfig(resume=journal))
        assert resumed.records == clean.records
        assert resumed.counters.units_resumed == len(units) - 1
        assert resumed.counters.units_ok == 1
        assert resumed.counters.units_corrupt == 1

    def test_unit_falls_through_to_the_cache(self, tmp_path):
        coll = small_collection(2, seed=57, max_n=128)
        units = spmv_units(coll, formats=("csr",))
        cache_dir = str(tmp_path / "c")
        journal = str(tmp_path / "j.jsonl")
        clean = run_units(
            units, RunnerConfig(cache_dir=cache_dir, journal_path=journal)
        )
        self._damage_first_line(journal, [1, 2])

        resumed = run_units(
            units, RunnerConfig(cache_dir=cache_dir, resume=journal)
        )
        assert resumed.records == clean.records
        assert resumed.counters.units_resumed == len(units) - 1
        assert resumed.counters.units_cached == 1
        assert resumed.counters.units_corrupt == 1

    def test_rotten_record_is_journaled_and_summarized(self, tmp_path):
        coll = small_collection(3, seed=55, max_n=128)
        units = spmv_units(coll, formats=("csr",))
        journal = str(tmp_path / "j.jsonl")
        run_units(units, RunnerConfig(journal_path=journal))
        self._damage_first_line(journal, [1, 2])

        fresh = str(tmp_path / "resumed.jsonl")
        resumed = run_units(
            units, RunnerConfig(resume=journal, journal_path=fresh)
        )
        by_unit = {line["unit"]: line for line in _lines(fresh)}
        assert by_unit[0]["status"] == "ok"
        assert by_unit[0]["resume"] == "corrupt"
        for i in range(1, len(units)):
            assert by_unit[i]["status"] == "resumed"
            assert "resume" not in by_unit[i]
        assert "[1 corrupt unit(s)]" in resumed.counters.summary()


class TestCorruptCacheTelemetry:
    def test_corrupt_entry_is_journaled_and_counted(self, tmp_path):
        coll = small_collection(2, seed=51, max_n=128)
        units = spmv_units(coll, formats=("csr",))
        cache_dir = str(tmp_path / "c")
        run_units(units, RunnerConfig(cache_dir=cache_dir))

        # garble one cached entry on disk
        key = unit_cache_key(units[0], code_version())
        entry_path = ResultCache(cache_dir)._path(key)
        entry_path.write_text("{ definitely not valid json")

        journal = str(tmp_path / "j.jsonl")
        result = run_units(
            units, RunnerConfig(cache_dir=cache_dir, journal_path=journal)
        )
        assert result.counters.units_corrupt == 1
        assert result.counters.cache_corrupt == 1
        assert result.counters.cache_hits == 1
        assert result.counters.units_ok == 1  # recomputed, never served
        by_unit = {l["unit"]: l for l in _lines(journal)}
        assert by_unit[0]["cache"] == "corrupt"
        assert by_unit[0]["status"] == "ok"
        assert by_unit[1]["cache"] == "hit"

    def test_resume_takes_precedence_over_cache(self, tmp_path):
        coll = small_collection(1, seed=53, max_n=96)
        units = spmv_units(coll, formats=("csr",))
        cache_dir = str(tmp_path / "c")
        journal = str(tmp_path / "j.jsonl")
        run_units(
            units, RunnerConfig(cache_dir=cache_dir, journal_path=journal)
        )
        again = run_units(
            units, RunnerConfig(cache_dir=cache_dir, resume=journal)
        )
        assert again.counters.units_resumed == 1
        assert again.counters.cache_hits == 0  # never consulted
