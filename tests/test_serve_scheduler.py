"""Scheduler behaviour: admission, shedding, batching, deadlines, drain.

These tests drive :class:`repro.serve.scheduler.Scheduler` directly inside
``asyncio.run`` — no sockets — so each policy is observable in isolation:
load shedding returns ``queue_full`` with a retry hint, priorities reorder
dispatch, a job reaches an idle pool at once, compatible replay requests
share one batch (and one recording) even when they arrive while its
leader runs, deadlines fail stale queued work, cancellation and drain
produce structured ``cancelled`` payloads, and per-job timeouts abandon
the executor thread without wedging the service.  The batch and poison
keys the scheduler coalesces and quarantines on are pinned by value.
"""

import asyncio

import pytest

from repro.errors import AdmissionError
from repro.serve.jobs import JobSpec, JobState
from repro.serve.scheduler import Scheduler, ServiceConfig


def run(coro):
    return asyncio.run(coro)


def sleep_spec(duration=0.05, **kw):
    return JobSpec.from_payload({"kind": "sleep", "duration_s": duration, **kw})


async def _started(config=None, **kw):
    scheduler = Scheduler(config or ServiceConfig(**kw))
    await scheduler.start()
    return scheduler


async def _until_running(job, timeout_s=10.0):
    """Poll until ``job`` has been dispatched and started."""
    loop = asyncio.get_running_loop()
    end = loop.time() + timeout_s
    while job.state is not JobState.RUNNING:
        assert job.state is JobState.PENDING, job.state
        assert loop.time() < end, f"{job.job_id} never started"
        await asyncio.sleep(0.001)


class TestAdmission:
    def test_submit_executes_and_completes(self):
        async def case():
            s = await _started()
            job = s.submit(JobSpec(kind="report"))
            done = await s.wait(job.job_id, timeout=10)
            assert done.state is JobState.DONE
            assert "Table" in done.result["text"] or "SSPM" in done.result["text"]
            assert s.metrics.snapshot()["jobs_completed"] == 1
            await s.stop()

        run(case())

    def test_queue_full_sheds_with_retry_hint(self):
        async def case():
            s = await _started(max_queue=2, retry_after_s=0.5)
            # the burst never yields to the loop, so the batcher has not
            # dispatched anything when the third submit arrives
            s.submit(sleep_spec())
            s.submit(sleep_spec())
            with pytest.raises(AdmissionError) as info:
                s.submit(sleep_spec())
            assert info.value.code == "queue_full"
            assert info.value.retry_after_s == 0.5
            assert s.metrics.snapshot()["jobs_shed"] == 1
            await s.stop()

        run(case())

    def test_unknown_job_id(self):
        async def case():
            s = await _started()
            from repro.errors import ServeError

            with pytest.raises(ServeError) as info:
                s.get("job-999999")
            assert info.value.code == "not_found"
            await s.stop()

        run(case())


class TestPrioritiesAndBatching:
    def test_higher_priority_dispatches_first(self):
        async def case():
            # one worker; submitted without yielding, all three land in
            # one dispatch pass; sleep jobs share a batch key and
            # max_batch=1, so each waits for the one before it
            s = await _started(executor_workers=1, max_batch=1)
            low = s.submit(sleep_spec(0.01, priority=0, seed=1))
            mid = s.submit(sleep_spec(0.01, priority=5, seed=2))
            high = s.submit(sleep_spec(0.01, priority=9, seed=3))
            jobs = [low, mid, high]
            for j in jobs:
                await s.wait(j.job_id, timeout=10)
            order = sorted(jobs, key=lambda j: j.started_at)
            assert [j.job_id for j in order] == [
                high.job_id, mid.job_id, low.job_id
            ]
            await s.stop()

        run(case())

    def test_compatible_replays_share_one_batch_and_recording(self):
        async def case():
            s = await _started(max_batch=16)
            specs = [
                JobSpec(kind="replay", kernel="spma", count=1, seed=42,
                        max_n=96, ports=p)
                for p in (1, 2, 4, 8)
            ]
            jobs = [s.submit(spec) for spec in specs]
            for j in jobs:
                await s.wait(j.job_id, timeout=60)
            assert all(j.state is JobState.DONE for j in jobs)
            assert all(j.batch_size == 4 for j in jobs)
            snap = s.metrics.snapshot()
            assert snap["batches_executed"] == 1
            assert snap["jobs_batched"] == 4
            # first job records; the other three replay the stored streams
            assert snap["replay_hits"] == 3
            assert snap["replay_misses"] == 1
            await s.stop()

        run(case())

    def test_idle_pool_dispatches_without_a_window(self):
        async def case():
            s = await _started()
            try:
                job = s.submit(sleep_spec(0.01))
                for _ in range(5):  # loop turns only, no wall clock
                    await asyncio.sleep(0)
                assert job.state is not JobState.PENDING
                assert (await s.wait(job.job_id, timeout=10)).state is JobState.DONE
            finally:
                await s.stop()

        run(case())

    def test_port_variants_join_a_running_leaders_batch(self):
        async def case():
            s = await _started(max_batch=16)
            try:
                specs = [
                    JobSpec(kind="replay", kernel="spma", count=1, seed=43,
                            max_n=96, ports=p)
                    for p in (1, 2, 4, 8)
                ]
                leader = s.submit(specs[0])
                await _until_running(leader)
                late = [s.submit(spec) for spec in specs[1:]]
                assert leader.state is JobState.RUNNING
                jobs = [leader, *late]
                for j in jobs:
                    await s.wait(j.job_id, timeout=60)
                assert all(j.state is JobState.DONE for j in jobs)
                snap = s.metrics.snapshot()
                # the leader records; the late arrivals waited for it and
                # replay its streams, in the same batch
                assert snap["replay_misses"] == 1
                assert snap["replay_hits"] == 3
                assert snap["batches_executed"] == 1
                assert [j.batch_size for j in jobs] == [4, 4, 4, 4]
            finally:
                await s.stop()

        run(case())

    def test_replay_matches_direct_simulation_bit_identically(self):
        async def case():
            s = await _started()
            direct = s.submit(
                JobSpec(kind="simulate", kernel="spma", count=1, seed=9,
                        max_n=96, ports=4)
            )
            replayed = s.submit(
                JobSpec(kind="replay", kernel="spma", count=1, seed=9,
                        max_n=96, ports=4)
            )
            d = await s.wait(direct.job_id, timeout=60)
            r = await s.wait(replayed.job_id, timeout=60)
            assert d.result["records"] == r.result["records"]
            await s.stop()

        run(case())

    def test_sweep_expands_per_config_on_one_recording(self):
        async def case():
            s = await _started()
            job = s.submit(
                JobSpec(kind="sweep", kernel="spma", count=1, seed=5,
                        max_n=96, sram_kb=16, port_sweep=(1, 2, 4))
            )
            done = await s.wait(job.job_id, timeout=120)
            assert done.state is JobState.DONE
            configs = done.result["configs"]
            assert sorted(configs) == ["16_1p", "16_2p", "16_4p"]
            for payload in configs.values():
                assert payload["geomean_speedup"]["csr"] > 0
            snap = s.metrics.snapshot()
            assert snap["replay_hits"] >= 2  # configs 2 and 3 reuse config 1's
            await s.stop()

        run(case())

    def test_incompatible_kinds_do_not_batch(self):
        async def case():
            s = await _started()
            a = s.submit(JobSpec(kind="simulate", count=1, seed=3, max_n=96))
            b = s.submit(JobSpec(kind="report"))
            await s.wait(a.job_id, timeout=60)
            await s.wait(b.job_id, timeout=60)
            assert s.metrics.snapshot()["batches_executed"] == 2
            await s.stop()

        run(case())

    def test_repeat_requests_hit_the_result_cache(self):
        async def case():
            s = await _started()
            spec = JobSpec(kind="simulate", count=1, seed=11, max_n=96)
            first = s.submit(spec)
            await s.wait(first.job_id, timeout=60)
            second = s.submit(spec)
            done = await s.wait(second.job_id, timeout=60)
            assert done.result["counters"]["units_cached"] == 1
            assert s.metrics.snapshot()["cache_hits"] >= 1
            assert done.result["records"] == first.result["records"]
            await s.stop()

        run(case())


class TestDeadlinesTimeoutsCancellation:
    def test_deadline_expired_in_queue_fails_structured(self):
        async def case():
            s = await _started(executor_workers=1)
            try:
                # sleep jobs share one batch key: the deadline job waits
                # in the queue behind the running 0.4 s leader
                leader = s.submit(sleep_spec(0.4))
                await _until_running(leader)
                job = s.submit(sleep_spec(0.01, deadline_s=0.05))
                done = await s.wait(job.job_id, timeout=10)
                assert done.state is JobState.FAILED
                assert done.error["code"] == "deadline_exceeded"
                assert done.error["retry_after_s"] > 0
            finally:
                await s.stop()

        run(case())

    def test_leader_cancelled_before_start_hands_over(self):
        async def case():
            s = await _started()
            try:
                leader = s.submit(sleep_spec(0.01))
                follower = s.submit(sleep_spec(0.01))
                await asyncio.sleep(0)  # one turn: the batcher dispatches
                # the leader left the queue but has not started; the
                # follower waits on it
                assert leader.state is JobState.PENDING
                assert s.queue_depth == 1
                s.cancel(leader.job_id)
                done = await s.wait(follower.job_id, timeout=10)
                assert leader.state is JobState.CANCELLED
                assert done.state is JobState.DONE
                assert done.batch_size == 1
                assert s.metrics.snapshot()["batches_executed"] == 1
            finally:
                await s.stop()

        run(case())

    def test_execution_timeout_abandons_and_reports(self):
        async def case():
            s = await _started()
            job = s.submit(sleep_spec(5.0, timeout_s=0.1))
            done = await s.wait(job.job_id, timeout=10)
            assert done.state is JobState.FAILED
            assert done.error["code"] == "timeout"
            assert done.abandoned
            # the service keeps serving after the abandoned thread
            ok = s.submit(JobSpec(kind="report"))
            assert (await s.wait(ok.job_id, timeout=10)).state is JobState.DONE
            await s.stop()

        run(case())

    def test_cancel_queued_job(self):
        async def case():
            s = await _started()
            # cancelled before the batcher's next turn: still queued
            job = s.submit(sleep_spec(1.0))
            cancelled = s.cancel(job.job_id)
            assert cancelled.state is JobState.CANCELLED
            assert cancelled.error["code"] == "cancelled"
            done = await s.wait(job.job_id, timeout=1)  # already terminal
            assert done.state is JobState.CANCELLED
            assert s.metrics.snapshot()["jobs_cancelled"] == 1
            await s.stop()

        run(case())

    def test_cancel_terminal_job_is_idempotent(self):
        async def case():
            s = await _started()
            job = s.submit(JobSpec(kind="report"))
            await s.wait(job.job_id, timeout=10)
            again = s.cancel(job.job_id)
            assert again.state is JobState.DONE  # unchanged
            await s.stop()

        run(case())


class TestDrain:
    def test_drain_cancels_queued_completes_inflight(self):
        async def case():
            s = await _started(executor_workers=1, max_batch=1)
            running = s.submit(sleep_spec(0.3))
            # give the batcher a tick to dispatch the first job
            await asyncio.sleep(0.1)
            queued = [s.submit(sleep_spec(0.2)) for _ in range(3)]
            summary = await s.drain()
            assert summary["cancelled"] >= 1
            done = await s.wait(running.job_id, timeout=5)
            assert done.state is JobState.DONE  # in-flight ran to completion
            for job in queued:
                j = await s.wait(job.job_id, timeout=5)
                if j.state is JobState.CANCELLED:
                    assert j.error["code"] == "drained"
                else:  # dispatched before the drain flushed the queue
                    assert j.state is JobState.DONE
            await s.stop()

        run(case())

    def test_submissions_after_drain_are_refused(self):
        async def case():
            s = await _started()
            await s.drain()
            with pytest.raises(AdmissionError) as info:
                s.submit(JobSpec(kind="report"))
            assert info.value.code == "draining"
            await s.stop()

        run(case())

    def test_failing_unit_reports_unit_failed(self):
        async def case():
            s = await _started()
            # break the workload by pointing replay at an unwritable
            # record dir: the first (recording) job must fail structurally
            s.record_dir = "/proc/definitely-not-writable/recordings"
            job = s.submit(JobSpec(kind="replay", count=1, seed=2, max_n=96))
            done = await s.wait(job.job_id, timeout=60)
            assert done.state is JobState.FAILED
            assert done.error["code"] in ("unit_failed", "internal",
                                          "repro_error")
            assert done.error["reason"]
            await s.stop()

        run(case())


def test_batch_and_poison_keys_are_pinned():
    """Key values computed before the storage code was consolidated."""
    replay = JobSpec(kind="replay", kernel="spmv", count=2, seed=7,
                     max_n=128, formats=("csr", "csb"), sram_kb=16, ports=4)
    assert replay.batch_key() == "338b249bb3f2bce1"
    assert replay.poison_key() == "e073debd8e8061b0"
    simulate = JobSpec(kind="simulate", kernel="spma", count=1, seed=3,
                       ports=8, priority=5, deadline_s=9.0)
    assert simulate.batch_key() == "07b50ca172db21b7"
    assert simulate.poison_key() == "d438d1e53a0a69a5"
