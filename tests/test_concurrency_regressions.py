"""Regressions for concurrency bugs: the static checker's audit and the
benchmark's serve runs found them.

Three fixes are pinned here:

* the per-recording machine memo in :func:`repro.sim.backends.replay_recording`
  was a check-then-act on a plain dict; concurrent cross-machine replays of
  one shared :class:`~repro.sim.ops.Recording` (the recording store hands the
  same object to every executor thread) could double-build the memory pass
  and race the dict.  Now a lock plus ``setdefault`` makes the first pricing
  win: concurrent replays stay bit-identical to direct execution and exactly
  one entry is memoized per target machine;
* :class:`~repro.serve.scheduler.Scheduler` once mutated
  ``Job.cancel_requested`` and ``Job.abandoned`` across the loop↔executor
  boundary with no lock.  Execution now lives in subprocess pool workers
  (:mod:`repro.serve.pool`), and the observable contract got stronger:
  cancelling a *running* sleep job SIGKILLs its worker and resolves the
  job ``cancelled`` promptly instead of sleeping out the full duration —
  and the pool respawns the slot, so the service keeps serving;
* :meth:`~repro.eval.runner.ResultCache.put` wrote every entry through the
  fixed temp name ``<key>.tmp``, so two serve pool workers storing the
  same unit at once raced, and the loser's ``os.replace`` failed with
  ``FileNotFoundError``.  Each writer now gets its own temp file, and
  :meth:`~repro.model.store.ModelStore.put` (whose ``<key>.tmp`` and
  ``LATEST.tmp`` names raced the same way) writes through the same
  atomic-write helper.
"""

import asyncio
import dataclasses
import functools
import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.eval.runner import ResultCache
from repro.formats.csr import CSRMatrix
from repro.kernels.spmv import SPMV_VARIANTS
from repro.matrices.collection import small_collection
from repro.model.store import ModelStore
from repro.serve.jobs import JobSpec, JobState
from repro.serve.scheduler import Scheduler, ServiceConfig
from repro.sim.backends import RecorderBackend, replay_recording
from repro.sim.config import DEFAULT_MACHINE
from repro.via.config import VIA_16_2P

from tests.test_ops_replay_differential import assert_result_identical


def test_concurrent_cross_machine_replay_shares_one_memo_entry():
    coo = small_collection(1, seed=11, max_n=160).specs[0].build()
    x = np.random.default_rng(3).standard_normal(coo.cols)
    mat = CSRMatrix.from_coo(coo)
    _, via_fn = SPMV_VARIANTS["csr"]

    backend = RecorderBackend()
    via_fn(mat, x, DEFAULT_MACHINE, VIA_16_2P, backend=backend)
    recording = backend.recording

    # a pure-pricing knob: stream-shape compatible, so replay takes the
    # cross-machine path that prices and memoizes a memory pass
    target = dataclasses.replace(
        DEFAULT_MACHINE, dram_latency=DEFAULT_MACHINE.dram_latency + 40
    )
    want = via_fn(mat, x, target, VIA_16_2P)

    n_threads = 8
    barrier = threading.Barrier(n_threads)
    results = [None] * n_threads
    errors = []

    def worker(i):
        try:
            barrier.wait(timeout=30)  # maximise overlap on the cold memo
            results[i] = replay_recording(recording, machine=target)
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)

    assert errors == []
    for got in results:
        assert got is not None
        assert_result_identical(got, want)
    # check-then-act would have installed whichever duplicate pass lost
    # the race; setdefault-under-lock leaves exactly one per machine
    assert len(recording._machine_memo) == 1


def test_cancel_while_running_kills_the_worker_promptly():
    async def case():
        s = Scheduler(ServiceConfig())
        await s.start()
        job = s.submit(
            JobSpec.from_payload(
                {"kind": "sleep", "duration_s": 5.0, "timeout_s": 30.0}
            )
        )
        for _ in range(500):
            if job.state is JobState.RUNNING:
                break
            await asyncio.sleep(0.01)
        assert job.state is JobState.RUNNING

        begin = time.monotonic()
        s.cancel(job.job_id)
        done = await s.wait(job.job_id, timeout=10)
        elapsed = time.monotonic() - begin

        # the pool killed the sleeping worker instead of waiting it out;
        # pre-pool behaviour slept the full 5 s before completing
        assert elapsed < 2.0
        assert done.state is JobState.CANCELLED
        assert done.error["code"] == "cancelled"

        # the killed slot respawned: the service keeps serving
        ok = s.submit(JobSpec(kind="report"))
        assert (await s.wait(ok.job_id, timeout=30)).state is JobState.DONE
        await s.stop()

    asyncio.run(case())


_CACHE_KEY = "c" * 64


def _put_repeatedly(root, store, payloads, rounds, barrier, failures):
    if store == "cache":
        put = functools.partial(ResultCache(root).put, _CACHE_KEY)
    else:
        put = ModelStore(root).put
    barrier.wait(timeout=30)  # start both writers together
    for i in range(rounds):
        try:
            put(payloads[i % len(payloads)])
        except OSError:
            with failures.get_lock():
                failures.value += 1


def _race_two_writers(root, store, payloads_per_writer):
    """Two spawned processes, 300 puts each into one store; returns the
    number of puts that failed."""
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    failures = ctx.Value("i", 0)
    writers = [
        ctx.Process(
            target=_put_repeatedly,
            args=(str(root), store, payloads, 300, barrier, failures),
        )
        for payloads in payloads_per_writer
    ]
    try:
        for proc in writers:
            proc.start()
        for proc in writers:
            proc.join(timeout=120)
    finally:
        for proc in writers:
            if proc.is_alive():
                proc.kill()
                proc.join()
    assert [proc.exitcode for proc in writers] == [0, 0]
    return failures.value


def test_concurrent_puts_of_one_key_never_fail(tmp_path):
    payload = {"name": "unit", "cycles": [float(i) for i in range(2000)]}
    assert _race_two_writers(tmp_path, "cache", [[payload], [payload]]) == 0
    cache = ResultCache(str(tmp_path))
    assert cache.get(_CACHE_KEY)[1] == "hit"
    assert len(cache) == 1
    # no writer left a temp file behind
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == [
        f"{_CACHE_KEY}.json"
    ]


@pytest.mark.parametrize("distinct", [1, 2], ids=["one-payload", "two-payloads"])
def test_concurrent_model_store_puts_never_fail(tmp_path, distinct):
    payloads = [
        {"model": i, "trees": [float(j) for j in range(2000)]}
        for i in range(distinct)
    ]
    # with two payloads the writers start on different ones
    assert _race_two_writers(tmp_path, "model", [payloads, payloads[::-1]]) == 0
    store = ModelStore(str(tmp_path))
    keys = store.keys()
    assert len(keys) == distinct  # one entry per key
    assert sorted(store.get(key)["model"] for key in keys) == list(range(distinct))
    assert store.latest_key() in keys
    # no writer left a temp file behind
    files = sorted(p.name for p in tmp_path.rglob("*") if p.is_file())
    assert files == sorted(["LATEST"] + [f"{key}.json" for key in keys])
