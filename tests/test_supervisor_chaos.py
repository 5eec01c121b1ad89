"""Chaos tests: the supervised runner under worker murder and hangs.

The acceptance bar for the supervised execution layer: a sweep whose
workers are SIGKILLed mid-unit and whose units sleep past the wall-clock
timeout must still complete, record the failures with their full retry
history, and a subsequent ``resume=`` run must recompute *only* the failed
units and land bit-identical to an undisturbed sequential run.

Fault injection rides the :data:`~repro.eval.units.UNIT_KINDS` registry
(fork-based workers inherit it).  The injected kinds delegate the actual
computation to the real ``spmv`` path, so their records are bit-comparable
to plain units:

* ``chaos_kill_once`` — SIGKILLs its own worker on the first attempt (a
  sentinel file remembers the murder), computes normally on retry;
* ``chaos_sleepy`` — sleeps far past the sweep timeout while a flag file
  exists, computes normally once the flag is gone.
"""

import dataclasses
import json
import multiprocessing
import os
import signal
import time
from pathlib import Path

import pytest

from repro.errors import SweepInterrupted
from repro.eval import RunnerConfig, WorkUnit, run_units, spmv_units
from repro.eval import units as units_mod
from repro.eval.units import compute_unit
from repro.matrices import small_collection

pytestmark = [
    pytest.mark.smoke,
    pytest.mark.skipif(
        not hasattr(os, "fork"), reason="chaos kinds need fork workers"
    ),
]


def _as_spmv(unit: WorkUnit):
    """Delegate to the real spmv computation (bit-identical records)."""
    return compute_unit(dataclasses.replace(unit, kind="spmv"))


def _kill_once(unit: WorkUnit):
    sentinel = Path(unit.record_dir) / f"killed-{unit.spec.name}"
    if not sentinel.exists():
        sentinel.touch()
        os.kill(os.getpid(), signal.SIGKILL)
    return _as_spmv(unit)


def _sleepy(unit: WorkUnit):
    if (Path(unit.record_dir) / "slow-mode").exists():
        time.sleep(30)
    return _as_spmv(unit)


@pytest.fixture(autouse=True)
def _chaos_kinds():
    units_mod.UNIT_KINDS["chaos_kill_once"] = _kill_once
    units_mod.UNIT_KINDS["chaos_sleepy"] = _sleepy
    yield
    units_mod.UNIT_KINDS.pop("chaos_kill_once", None)
    units_mod.UNIT_KINDS.pop("chaos_sleepy", None)


def _chaos_units(tmp_path):
    """Three healthy units, one worker-killer, one sleeper."""
    coll = small_collection(5, seed=31, max_n=128)
    plain = spmv_units(coll, formats=("csr",))
    units = list(plain)
    units[1] = dataclasses.replace(
        units[1], kind="chaos_kill_once", record_dir=str(tmp_path)
    )
    units[3] = dataclasses.replace(
        units[3], kind="chaos_sleepy", record_dir=str(tmp_path)
    )
    return units, plain


class TestChaosSurvival:
    def test_sweep_survives_murder_and_hangs_then_resumes_bit_identical(
        self, tmp_path
    ):
        units, plain = _chaos_units(tmp_path)
        journal = str(tmp_path / "run.jsonl")
        (tmp_path / "slow-mode").touch()  # the sleeper hangs for now

        chaos = run_units(
            units,
            RunnerConfig(
                workers=2,
                timeout_s=1.0,
                retries=1,
                backoff_s=0.01,
                journal_path=journal,
            ),
        )

        # the sweep completed: murdered unit recovered on retry, sleeper
        # timed out on every attempt and is the only failure
        assert chaos.counters.units_ok == 4
        assert chaos.counters.units_failed == 1
        assert chaos.counters.units_retried >= 1
        assert chaos.counters.units_timeout == 1
        # two timeout kills + at least one SIGKILL'd worker replaced
        assert chaos.counters.worker_deaths >= 3
        assert len(chaos.records) == 4

        failure = chaos.failures[0]
        assert failure.kind == "chaos_sleepy"
        assert failure.transient and failure.attempts == 2
        assert len(failure.history) == 2
        assert all("timed out" in line for line in failure.history)

        # the journal carries the retry history and resume keys
        lines = [json.loads(l) for l in Path(journal).read_text().splitlines()]
        failed = [l for l in lines if l["status"] == "failed"]
        assert len(failed) == 1
        assert failed[0]["attempts"] == 2
        assert len(failed[0]["retry_history"]) == 2
        assert all("key" in l for l in lines)

        # resume: the hang is cured; only the failed unit may recompute
        (tmp_path / "slow-mode").unlink()
        resumed = run_units(
            units,
            RunnerConfig(journal_path=journal, resume=journal),
        )
        assert resumed.counters.units_resumed == 4
        assert resumed.counters.units_ok == 1
        assert resumed.counters.units_failed == 0

        # ...and the result is bit-identical to an undisturbed sequential
        # run of the same logical units (every chaos kind computes spmv)
        undisturbed = run_units(plain)
        assert [r.to_dict() for r in resumed.records] == [
            r.to_dict() for r in undisturbed.records
        ]

    def test_worker_death_without_retries_is_a_transient_failure(
        self, tmp_path
    ):
        units, _ = _chaos_units(tmp_path)
        killer = units[1]
        result = run_units([killer], RunnerConfig(workers=2, retries=0))
        assert result.records == []
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.transient and not failure.attempts > 1
        assert "lost its worker" in failure.error
        assert result.counters.worker_deaths >= 1

    def test_timeout_failure_reports_wallclock_and_worker(self, tmp_path):
        units, _ = _chaos_units(tmp_path)
        sleeper = units[3]
        (tmp_path / "slow-mode").touch()
        start = time.monotonic()
        result = run_units(
            [sleeper],
            RunnerConfig(workers=1, timeout_s=0.5, retries=0),
        )
        elapsed = time.monotonic() - start
        assert elapsed < 20  # the 30s sleep was cut short
        assert result.counters.units_timeout == 1
        failure = result.failures[0]
        assert failure.transient
        assert "timed out" in failure.error
        assert "0.5s wall-clock" in failure.history[0]

    def test_parallel_chaos_keeps_healthy_records_ordered(self, tmp_path):
        units, plain = _chaos_units(tmp_path)
        (tmp_path / "slow-mode").touch()
        chaos = run_units(
            units,
            RunnerConfig(workers=3, timeout_s=1.0, retries=1, backoff_s=0.01),
        )
        healthy = run_units([plain[i] for i in (0, 1, 2, 4)])
        assert [r.to_dict() for r in chaos.records] == [
            r.to_dict() for r in healthy.records
        ]


class TestInterrupt:
    def test_sigint_flushes_completed_units_and_carries_partial_result(
        self, tmp_path
    ):
        coll = small_collection(4, seed=33, max_n=128)
        units = spmv_units(coll, formats=("csr",))
        journal = str(tmp_path / "int.jsonl")
        fired = []

        def interrupt_after_first(name):
            if not fired:
                fired.append(name)
                os.kill(os.getpid(), signal.SIGINT)

        with pytest.raises(SweepInterrupted) as excinfo:
            run_units(
                units,
                RunnerConfig(journal_path=journal),
                progress=interrupt_after_first,
            )
        exc = excinfo.value
        assert exc.signum == signal.SIGINT
        partial = exc.result
        assert 1 <= len(partial.records) < len(units)
        assert partial.counters.units_ok == len(partial.records)

        # every completed unit is already durable in the journal
        lines = [json.loads(l) for l in Path(journal).read_text().splitlines()]
        assert len(lines) == len(partial.records)
        assert all(l["status"] == "ok" and "record" in l for l in lines)

        # and the journal resumes: nothing completed is recomputed
        resumed = run_units(
            units, RunnerConfig(journal_path=journal, resume=journal)
        )
        assert resumed.counters.units_resumed == len(partial.records)
        assert resumed.counters.units_ok == len(units) - len(partial.records)
        undisturbed = run_units(units)
        assert [r.to_dict() for r in resumed.records] == [
            r.to_dict() for r in undisturbed.records
        ]

    def test_sigint_handlers_are_restored(self):
        coll = small_collection(1, seed=35, max_n=96)
        before = signal.getsignal(signal.SIGINT)
        run_units(spmv_units(coll, formats=("csr",)), RunnerConfig())
        assert signal.getsignal(signal.SIGINT) is before


class TestSupervisedEquivalence:
    def test_single_worker_supervised_matches_inline(self):
        """workers=1 with a timeout still routes through the supervisor
        and must stay bit-identical to the plain inline path."""
        coll = small_collection(3, seed=37, max_n=128)
        units = spmv_units(coll, formats=("csr", "csb"))
        inline = run_units(units)
        supervised = run_units(units, RunnerConfig(workers=1, timeout_s=60))
        assert supervised.counters.worker_deaths == 0
        assert [r.to_dict() for r in supervised.records] == [
            r.to_dict() for r in inline.records
        ]

    def test_counters_match_across_worker_counts(self):
        """Each unit's counters travel back from its worker, so one and
        two workers report the same sweep counters."""
        coll = small_collection(3, seed=37, max_n=128)
        units = spmv_units(coll, formats=("csr", "csb"))

        def counters(workers):
            out = run_units(units, RunnerConfig(workers=workers)).counters.as_dict()
            del out["wall_seconds"], out["workers"]
            return out

        one = counters(1)
        assert one["narration_flushes"] > 0
        assert counters(2) == one

    def test_fork_context_available(self):
        # the chaos suite assumes fork; make the assumption explicit
        assert multiprocessing.get_context("fork") is not None
