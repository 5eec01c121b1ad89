"""Unit tests for the supervised subprocess worker pool.

Each failure path in :mod:`repro.serve.pool` is driven deterministically
through the :mod:`repro.serve.chaos` fault plan:

* a worker crash mid-job is retried transparently and the slot respawns;
* a job that crashes every attempt fails ``worker_crash`` with its
  attempt history;
* a job key that keeps killing workers trips the poison circuit breaker
  — and later submissions with the same key are refused at submit time;
* a hung worker is SIGKILLed on the per-job timeout and the timeout is
  *not* retried (it is deterministic);
* corrupted replies replace the worker and retry the job;
* cancel kills a running job's worker promptly;
* ``stop()`` resolves every outstanding future and reaps every worker
  process and the supervisor thread — no leaks, ever.
"""

import asyncio
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import JobCancelled, ServeError
from repro.serve.chaos import ChaosConfig
from repro.serve.jobs import JobSpec, JobState
from repro.serve.pool import PoisonJobError, PoolConfig, WorkerPool
from repro.serve.scheduler import Scheduler, ServiceConfig


def _request(kind="sleep", **fields):
    """A wire-shaped pool request for a job of ``kind``."""
    spec = {"kind": kind, **fields}
    if kind == "sleep":
        spec.setdefault("duration_s", 0.01)
    return {
        "spec": spec,
        "cache_dir": None,
        "record_dir": None,
        "validate": False,
    }


def _pid_gone(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:  # pragma: no cover - alive under another uid
        return False
    return False


def _supervisor_threads():
    return [
        t for t in threading.enumerate()
        if t.name == "repro-serve-pool" and t.is_alive()
    ]


@pytest.fixture
def make_pool():
    """Build + start pools; every pool is stopped at test teardown."""
    pools = []

    def factory(chaos_spec=None, **config):
        chaos = ChaosConfig.parse(chaos_spec) if chaos_spec else None
        pool = WorkerPool(PoolConfig(chaos=chaos, **config))
        pools.append(pool)
        pool.start()
        return pool

    yield factory
    for pool in pools:
        pool.stop()


class TestDispatch:
    def test_roundtrip_and_health(self, make_pool):
        pool = make_pool(workers=2)
        task = pool.submit(_request("sleep", duration_s=0.01))
        out = task.future.result(timeout=60)
        assert out["payload"] == {"slept_s": 0.01}
        assert set(out["metrics"]) >= {"units_executed", "cache_hits"}

        health = pool.health()
        assert len(health["workers"]) == 2
        assert all(
            w["state"] in ("spawning", "idle", "busy", "respawning")
            for w in health["workers"]
        )
        assert health["quarantined_keys"] == []

    def test_submit_after_stop_fails_structured(self, make_pool):
        pool = make_pool(workers=1)
        pool.stop()
        task = pool.submit(_request())
        with pytest.raises(ServeError) as info:
            task.future.result(timeout=5)
        assert info.value.code == "stopped"


class TestWake:
    def test_submit_dispatches_to_an_idle_pool_without_a_poll_tick(
        self, make_pool, monkeypatch
    ):
        """``submit`` wakes the supervisor itself: with every idle-wait
        bound stretched to 10 s, a job sent to an idle pool still
        completes at once."""
        from repro.eval import supervisor
        from repro.serve import pool as pool_mod

        for module in (supervisor, pool_mod):
            monkeypatch.setattr(module, "_TICK", 10.0, raising=False)
        pool = make_pool(workers=1)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if [w.get("state") for w in pool.health()["workers"]] == ["idle"]:
                break
            time.sleep(0.01)
        begin = time.monotonic()
        task = pool.submit(_request("sleep", duration_s=0.01))
        assert task.future.result(timeout=30)["payload"] == {"slept_s": 0.01}
        assert time.monotonic() - begin < 2.0

    def test_concurrent_submits_never_lose_a_wakeup(self, make_pool):
        """Eight threads submit at once with a tiny switch interval to
        shake out interleavings.  The supervisor has no poll tick, so a
        lost wakeup would strand a job until the result timeout."""
        pool = make_pool(workers=3)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as submitters:
                tasks = list(
                    submitters.map(
                        lambda _: pool.submit(_request("sleep", duration_s=0.0)),
                        range(200),
                    )
                )
        finally:
            sys.setswitchinterval(previous)
        for task in tasks:
            assert task.future.result(timeout=60)["payload"] == {"slept_s": 0.0}


class TestCrashRecovery:
    def test_one_crash_is_retried_transparently(self, make_pool):
        pool = make_pool(chaos_spec="crash:times=1", workers=2, retries=2)
        task = pool.submit(_request("sleep", duration_s=0.01))
        out = task.future.result(timeout=60)
        assert out["payload"] == {"slept_s": 0.01}

        snap = pool.metrics.snapshot()
        assert snap["pool_retries"] == 1
        assert snap["pool_worker_restarts"] >= 1

    def test_crash_on_every_attempt_fails_worker_crash(self, make_pool):
        pool = make_pool(chaos_spec="crash:times=8", workers=1, retries=1)
        task = pool.submit(_request("sleep", duration_s=0.01))
        with pytest.raises(ServeError) as info:
            task.future.result(timeout=60)
        assert info.value.code == "worker_crash"
        # the message carries the per-attempt history
        assert "attempt 1" in str(info.value)
        assert "attempt 2" in str(info.value)
        assert pool.metrics.snapshot()["pool_retries"] == 1

    def test_corrupt_reply_replaces_worker_and_retries(self, make_pool):
        pool = make_pool(chaos_spec="corrupt:times=1", workers=1, retries=2)
        task = pool.submit(_request("sleep", duration_s=0.01))
        out = task.future.result(timeout=60)
        assert out["payload"] == {"slept_s": 0.01}

        snap = pool.metrics.snapshot()
        assert snap["pool_corrupt_replies"] == 1
        assert snap["pool_worker_restarts"] >= 1

    def test_slow_start_lands_in_respawn_histogram(self, make_pool):
        pool = make_pool(
            chaos_spec="slow_start:times=1:delay=0.3", workers=1
        )
        task = pool.submit(_request("sleep", duration_s=0.01))
        task.future.result(timeout=60)
        hist = pool.metrics.snapshot()["pool_respawn_seconds"]
        assert hist["count"] >= 1
        assert hist["max"] >= 0.3


class TestPoison:
    def test_quarantine_then_submit_time_breaker(self, make_pool):
        pool = make_pool(
            chaos_spec="crash:times=8",
            workers=1,
            retries=5,
            poison_threshold=2,
        )
        task = pool.submit(
            _request("sleep", duration_s=0.01), poison_key="pk-1"
        )
        with pytest.raises(PoisonJobError) as info:
            task.future.result(timeout=60)
        assert info.value.code == "poison_job"
        assert "2 worker crash(es)" in str(info.value)

        # the circuit breaker now refuses the key without dispatching
        again = pool.submit(
            _request("sleep", duration_s=0.01), poison_key="pk-1"
        )
        assert again.future.done()
        with pytest.raises(PoisonJobError):
            again.future.result(timeout=5)

        assert pool.health()["quarantined_keys"] == ["pk-1"]
        assert pool.metrics.snapshot()["pool_poison_jobs"] == 2

    def test_success_forgives_crash_history(self, make_pool):
        pool = make_pool(
            chaos_spec="crash:times=1",
            workers=1,
            retries=2,
            poison_threshold=2,
        )
        task = pool.submit(
            _request("sleep", duration_s=0.01), poison_key="pk-2"
        )
        task.future.result(timeout=60)  # crash once, then succeed
        with pool._lock:
            assert pool._crash_counts == {}
        assert pool.health()["quarantined_keys"] == []


class TestTimeouts:
    def test_timeout_kills_worker_and_reclaims_slot(self, make_pool):
        pool = make_pool(workers=1)
        task = pool.submit(
            _request("sleep", duration_s=30.0), timeout_s=0.3
        )
        begin = time.monotonic()
        with pytest.raises(ServeError) as info:
            task.future.result(timeout=30)
        assert time.monotonic() - begin < 5.0
        assert info.value.code == "timeout"

        snap = pool.metrics.snapshot()
        assert snap["pool_timeout_kills"] == 1
        assert snap["pool_retries"] == 0  # timeouts are not retried

        # the killed slot respawned: the pool keeps serving
        ok = pool.submit(_request("sleep", duration_s=0.01))
        assert ok.future.result(timeout=60)["payload"] == {"slept_s": 0.01}

    def test_hang_fault_drives_the_timeout_watchdog(self, make_pool):
        pool = make_pool(chaos_spec="hang:delay=60", workers=1)
        task = pool.submit(
            _request("sleep", duration_s=0.01), timeout_s=0.5
        )
        with pytest.raises(ServeError) as info:
            task.future.result(timeout=30)
        assert info.value.code == "timeout"
        assert pool.metrics.snapshot()["pool_timeout_kills"] == 1


class TestCancel:
    def test_cancel_queued_never_dispatches(self, make_pool):
        pool = make_pool(workers=1)
        busy = pool.submit(_request("sleep", duration_s=1.0))
        queued = pool.submit(_request("sleep", duration_s=1.0))
        assert pool.cancel(queued) is True
        with pytest.raises(JobCancelled):
            queued.future.result(timeout=5)
        busy.future.result(timeout=60)
        assert pool.cancel(busy) is False  # already terminal

    def test_cancel_running_kills_the_worker(self, make_pool):
        pool = make_pool(workers=1)
        task = pool.submit(_request("sleep", duration_s=30.0))
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if any(
                w.get("state") == "busy"
                for w in pool.health()["workers"]
            ):
                break
            time.sleep(0.01)
        assert pool.cancel(task) is True
        with pytest.raises(JobCancelled):
            task.future.result(timeout=5)

        # the killed slot respawns and serves again, long before the
        # cancelled sleep would have finished
        ok = pool.submit(_request("sleep", duration_s=0.01))
        assert ok.future.result(timeout=60)["payload"] == {"slept_s": 0.01}
        assert pool.metrics.snapshot()["pool_worker_restarts"] >= 1


class TestStop:
    def test_stop_resolves_futures_and_leaks_nothing(self):
        pool = WorkerPool(PoolConfig(workers=2))
        pool.start()
        tasks = [
            pool.submit(_request("sleep", duration_s=30.0))
            for _ in range(3)  # two in flight, one queued
        ]
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if sum(
                1 for w in pool.health()["workers"]
                if w.get("state") == "busy"
            ) == 2:
                break
            time.sleep(0.01)
        pids = [
            w["pid"] for w in pool.health()["workers"] if "pid" in w
        ]
        assert pids

        pool.stop()
        for task in tasks:
            with pytest.raises(ServeError) as info:
                task.future.result(timeout=5)
            assert info.value.code == "stopped"
        for pid in pids:
            assert _pid_gone(pid), f"worker {pid} outlived stop()"
        assert _supervisor_threads() == []
        pool.stop()  # idempotent

    def test_scheduler_stop_reclaims_timed_out_and_running_jobs(self):
        """The teardown satellite: ``Scheduler.stop()`` SIGKILLs workers
        holding abandoned/running jobs and leaks neither processes nor
        the supervisor thread."""

        async def case():
            s = Scheduler(ServiceConfig())
            await s.start()
            job = s.submit(
                JobSpec.from_payload(
                    {"kind": "sleep", "duration_s": 30.0, "timeout_s": 60.0}
                )
            )
            for _ in range(500):
                if job.state is JobState.RUNNING:
                    break
                await asyncio.sleep(0.01)
            assert job.state is JobState.RUNNING
            pids = [
                w["pid"]
                for w in s.pool.health()["workers"]
                if "pid" in w
            ]
            begin = time.monotonic()
            await s.stop()
            elapsed = time.monotonic() - begin
            done = s.get(job.job_id)
            return pids, elapsed, done

        pids, elapsed, done = asyncio.run(case())
        # stop() did not wait out the 30 s sleep: the worker was killed
        assert elapsed < 15.0
        assert done.state is JobState.FAILED
        assert done.error["code"] == "stopped"
        for pid in pids:
            assert _pid_gone(pid), f"worker {pid} outlived Scheduler.stop()"
        assert _supervisor_threads() == []
