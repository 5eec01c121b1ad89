"""Asyncio job scheduler: admission control, batching, pooled execution.

The scheduler is the service's brain.  Requests flow through four stages:

1. **admission** — a bounded queue.  A submit that would exceed
   ``max_queue`` is *shed immediately* with a structured ``queue_full``
   error carrying ``retry_after_s`` (backpressure the client can act on);
   once the service drains, submits are refused with ``draining``.
2. **batching** — no timer: the batcher wakes on every submit and every
   leader completion, and dispatches each queued job at once in
   ``(-priority, cost, seq)`` order, as the *leader* of a batch.  A job
   whose :meth:`~repro.serve.jobs.JobSpec.batch_key` matches a running
   leader stays queued (``PENDING``, counted by ``max_queue``) and joins
   that batch, up to ``max_batch``.  Replay-family keys exclude SSPM
   ports, so a port sweep that arrives while its leader records is
   served by **one** op-stream recording: the leader records (replay
   units self-heal on a store miss), and when it finishes the jobs that
   waited on it re-price the stored streams.
3. **execution** — each batch is dispatched job-by-job to the supervised
   subprocess :class:`~repro.serve.pool.WorkerPool`: long-lived workers
   with warm imports, futures-over-pipes, crash isolation.  A worker that
   segfaults or is OOM-killed loses only its own job (retried with
   backoff, then failed ``worker_crash``); a job past its ``timeout_s``
   gets its worker SIGKILLed and the slot respawned — the structured
   ``timeout`` error marks the job ``abandoned``; a job that keeps
   killing workers trips the per-key poison circuit breaker
   (``poison_job``).  Cancelling a *running* job kills its worker and
   reclaims the slot.  Results inherit the PR-1 result cache, the PR-2
   :class:`~repro.eval.recordings.RecordingStore`, per-unit fault capture,
   and invariant checking via :mod:`repro.serve.execution`.
4. **completion** — deadlines are re-checked at dispatch
   (``deadline_exceeded``), cancellations are honoured for queued jobs,
   and every terminal transition feeds the metrics registry: queue-wait /
   service-time histograms, shed/cancel counters, replay and result-cache
   hit counters, queue-depth / in-flight gauges, and the pool's own
   health instruments (restarts, poison count, respawn latency).

The scheduler owns no sockets — :mod:`repro.serve.server` is one frontend;
tests drive the scheduler directly.
"""

from __future__ import annotations

import asyncio
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import AdmissionError, JobCancelled, ServeError
from repro.serve.chaos import ChaosConfig
from repro.serve.jobs import (
    Job,
    JobSpec,
    JobState,
    error_payload,
)
from repro.serve.metrics import MetricsRegistry
from repro.serve.pool import PoolConfig, PoolTask, WorkerPool


@dataclass(frozen=True)
class ServiceConfig:
    """Operating envelope of one scheduler instance.

    ``max_queue`` bounds *queued* jobs: admitted, not yet dispatched,
    which means waiting on a running leader with their batch key.  A job
    whose key has no running leader dispatches at once, to the pool's
    FIFO if every worker is busy, where ``max_queue``, priorities,
    deadlines and ``max_queue_cost`` no longer reach it.  ``max_batch``
    caps the jobs one batch serves; ``executor_workers`` sizes the
    subprocess worker pool (concurrent jobs).  ``pool_retries`` and
    ``pool_backoff_s`` govern retry of jobs whose worker died;
    ``poison_threshold`` is the per-key crash budget before the circuit
    breaker opens.
    ``cache_dir``/``record_dir`` plug the service into the result cache
    and recording store (both default to per-instance temp directories);
    ``chaos`` injects a deterministic fault plan into the workers.

    ``model_dir`` points at a :class:`~repro.model.store.ModelStore`
    whose LATEST artifact backs ``estimate`` jobs and cost-aware
    admission (absent/empty → the deterministic analytic fallback).
    ``max_queue_cost`` switches admission to predicted-cost accounting:
    on top of the ``max_queue`` slot bound, the sum of predicted cycles
    queued may not exceed it — a queue full of cheap report jobs admits
    many, one monster sweep fills it alone — and batches dispatch
    cheapest-first within a priority level.  ``None`` (the default)
    keeps the historical flat-slot behaviour exactly.
    """

    max_queue: int = 64
    max_batch: int = 16
    executor_workers: int = 2
    default_timeout_s: float = 120.0
    drain_timeout_s: float = 30.0
    retry_after_s: float = 0.25
    pool_retries: int = 2
    pool_backoff_s: float = 0.05
    poison_threshold: int = 3
    spawn_timeout_s: float = 60.0
    mp_context: Optional[str] = None
    chaos: Optional[ChaosConfig] = None
    cache_dir: Optional[str] = None
    record_dir: Optional[str] = None
    validate: bool = False
    model_dir: Optional[str] = None
    max_queue_cost: Optional[float] = None

    def __post_init__(self):
        if self.max_queue_cost is not None and self.max_queue_cost <= 0:
            raise ServeError(
                f"max_queue_cost must be > 0, got {self.max_queue_cost}"
            )
        if self.max_queue < 1:
            raise ServeError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.executor_workers < 1:
            raise ServeError(
                f"executor_workers must be >= 1, got {self.executor_workers}"
            )
        if self.default_timeout_s <= 0:
            raise ServeError(
                f"default_timeout_s must be > 0, got {self.default_timeout_s}"
            )

    def pool_config(self) -> PoolConfig:
        """The worker-pool slice of this service configuration."""
        return PoolConfig(
            workers=self.executor_workers,
            retries=self.pool_retries,
            backoff_s=self.pool_backoff_s,
            poison_threshold=self.poison_threshold,
            spawn_timeout_s=self.spawn_timeout_s,
            mp_context=self.mp_context,
            chaos=self.chaos,
        )


class Scheduler:
    """Admission queue + batcher + worker pool; see the module docstring."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.config = config or ServiceConfig()
        self.metrics = metrics or MetricsRegistry()
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        if self.config.cache_dir is None or self.config.record_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-serve-")
        base = self._tmp.name if self._tmp is not None else ""
        self.cache_dir = self.config.cache_dir or f"{base}/cache"
        self.record_dir = self.config.record_dir or f"{base}/recordings"
        self.jobs: Dict[str, Job] = {}
        # (-priority, cost, seq, job); cost is 0.0 unless cost-aware
        # admission is on, so the default order is untouched
        self._queue: List[Tuple[int, float, int, Job]] = []
        self._seq = 0
        # the estimator always loads: with no model_dir (or an empty
        # store) it is the deterministic analytic fallback, so estimate
        # jobs and cost accounting work before any model is trained
        from repro.model.cost import JobCostEstimator

        self.estimator = JobCostEstimator.load(self.config.model_dir)
        self._queue_cost = 0.0
        self._job_cost: Dict[str, float] = {}
        self._wakeup: Optional[asyncio.Event] = None
        self._done_events: Dict[str, asyncio.Event] = {}
        self._batcher: Optional[asyncio.Task] = None
        self._inflight: set = set()
        # batch keys whose leader is running; queued jobs with one wait
        self._leading: set = set()
        self.pool = WorkerPool(
            self.config.pool_config(), metrics=self.metrics
        )
        self._pool_tasks: Dict[str, PoolTask] = {}
        self._draining = False
        self._stopped = False
        self.started_at = time.monotonic()
        m = self.metrics
        self._m_submitted = m.counter("jobs_submitted", "jobs admitted")
        self._m_shed = m.counter("jobs_shed", "submissions rejected at admission")
        self._m_done = m.counter("jobs_completed", "jobs finished successfully")
        self._m_failed = m.counter("jobs_failed", "jobs finished with an error")
        self._m_cancelled = m.counter("jobs_cancelled", "jobs cancelled before completion")
        self._m_batches = m.counter("batches_executed", "scheduler batches dispatched")
        self._m_batched_jobs = m.counter(
            "jobs_batched", "jobs that shared a batch with at least one other job"
        )
        self._m_replay_hits = m.counter(
            "replay_hits", "replay units served from an existing recording"
        )
        self._m_replay_misses = m.counter(
            "replay_misses", "replay units that had to record first"
        )
        self._m_cache_hits = m.counter(
            "cache_hits", "work units served from the result cache"
        )
        self._m_cache_misses = m.counter(
            "cache_misses", "work units that missed the result cache"
        )
        self._m_units = m.counter("units_executed", "work units run to completion")
        self._m_narration_flushes = m.counter(
            "narration_flushes",
            "columnar builder flushes on the batched record path",
        )
        self._m_depth = m.gauge("queue_depth", "jobs admitted and waiting")
        self._m_inflight = m.gauge("jobs_inflight", "jobs currently executing")
        self._m_queue_wait = m.histogram(
            "queue_wait_seconds", "admission-to-dispatch wait"
        )
        self._m_service = m.histogram(
            "service_seconds", "dispatch-to-completion time"
        )
        self._m_batch_size = m.histogram("batch_size", "jobs per executed batch")
        self._m_estimate_hits = m.counter(
            "model_estimate_hits",
            "estimate jobs answered synchronously at admission",
        )
        self._m_cost_admitted = m.counter(
            "model_cost_admissions",
            "jobs admitted under predicted-cost accounting",
        )
        self._m_cost_shed = m.counter(
            "model_cost_shed",
            "submissions shed because the queue cost budget was exhausted",
        )
        self._m_queue_cost = m.gauge(
            "model_queue_cost", "predicted cycles of all queued jobs"
        )
        self._m_predict = m.histogram(
            "model_predict_seconds",
            "cost-model prediction latency (estimates and admission)",
        )

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        """Spawn the worker pool and start the batching stage."""
        if self._batcher is not None:
            return
        self._wakeup = asyncio.Event()
        self.pool.start()
        self._batcher = asyncio.create_task(self._batch_loop(), name="serve-batcher")
        if self._queue:  # jobs admitted before the batcher existed
            self._wakeup.set()

    async def stop(self) -> None:
        """Hard stop: cancel the batcher, reap the worker pool.

        Every outstanding pool future is resolved (code ``stopped``) and
        every worker subprocess is killed and joined — a timed-out or
        wedged job cannot leak a process past this call.
        """
        self._stopped = True
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            self._batcher = None
        # reap the pool first: it resolves in-flight futures, which lets
        # the gathered batch tasks below finish promptly
        self.pool.stop()
        if self._inflight:
            await asyncio.gather(*self._inflight, return_exceptions=True)
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    async def drain(self) -> Dict[str, int]:
        """Graceful shutdown of the work stages.

        New submissions are already refused (``draining``); every queued
        job is cancelled with a structured payload, in-flight batches are
        awaited (bounded by ``drain_timeout_s``), and waiters are
        released.  Returns a small summary for the server's log line.
        """
        self._draining = True
        cancelled = 0
        for _, _, _, job in self._queue:
            self._release_cost(job)
            if not job.terminal:
                self._finish(
                    job,
                    JobState.CANCELLED,
                    error=error_payload(
                        JobCancelled(
                            "service drained before the job was dispatched",
                            code="drained",
                        )
                    ),
                )
                cancelled += 1
        self._queue.clear()
        self._m_depth.set(0)
        if self._wakeup is not None:
            self._wakeup.set()
        waited = list(self._inflight)
        if waited:
            done, pending = await asyncio.wait(
                waited, timeout=self.config.drain_timeout_s
            )
            for task in pending:  # pragma: no cover - drain timeout
                task.cancel()
        return {"cancelled": cancelled, "completed_inflight": len(waited)}

    # ------------------------------------------------------------------
    # admission

    def submit(self, spec: JobSpec) -> Job:
        """Admit one job or shed it with a structured admission error.

        ``estimate`` jobs never queue: they are resolved synchronously
        right here through the cost model (microseconds warm), reaching
        a terminal state before this method returns.
        """
        if self._draining or self._stopped:
            self._m_shed.inc()
            raise AdmissionError(
                "service is draining and no longer admits jobs",
                code="draining",
            )
        if spec.kind == "estimate":
            return self._resolve_estimate(spec)
        if len(self._queue) >= self.config.max_queue:
            self._m_shed.inc()
            raise AdmissionError(
                f"admission queue is full ({self.config.max_queue} jobs); "
                "retry after the suggested backoff",
                code="queue_full",
                retry_after_s=self.config.retry_after_s,
            )
        cost = 0.0
        if self.config.max_queue_cost is not None:
            cost = self._predicted_cost(spec)
            # an over-budget job is only shed while other work is queued:
            # with an empty queue it must admit, or a job costing more
            # than the whole budget could never run at all
            if self._queue and self._queue_cost + cost > self.config.max_queue_cost:
                self._m_shed.inc()
                self._m_cost_shed.inc()
                raise AdmissionError(
                    f"queue cost budget is exhausted (predicted "
                    f"{self._queue_cost + cost:.0f} of "
                    f"{self.config.max_queue_cost:.0f} cycles); "
                    "retry after the suggested backoff",
                    code="queue_full",
                    retry_after_s=self.config.retry_after_s,
                )
        job = Job(spec=spec)
        self.jobs[job.job_id] = job
        self._done_events[job.job_id] = asyncio.Event()
        self._seq += 1
        self._queue.append((-spec.priority, cost, self._seq, job))
        if self.config.max_queue_cost is not None:
            self._job_cost[job.job_id] = cost
            self._queue_cost += cost
            self._m_queue_cost.set(self._queue_cost)
            self._m_cost_admitted.inc()
        self._m_submitted.inc()
        self._m_depth.set(len(self._queue))
        if self._wakeup is not None:
            self._wakeup.set()
        return job

    def _predicted_cost(self, spec: JobSpec) -> float:
        """Model-predicted cost of one job, with prediction timing."""
        t0 = time.perf_counter()
        cost = self.estimator.admission_cost(spec)
        self._m_predict.observe(time.perf_counter() - t0)
        return cost

    def _resolve_estimate(self, spec: JobSpec) -> Job:
        """Answer an estimate job inline — no queue, no worker pool."""
        job = Job(spec=spec)
        self.jobs[job.job_id] = job
        self._done_events[job.job_id] = asyncio.Event()
        self._m_submitted.inc()
        job.state = JobState.RUNNING
        job.started_at = time.monotonic()
        try:
            t0 = time.perf_counter()
            result = self.estimator.estimate_workload(
                kernel=spec.kernel,
                count=spec.count,
                seed=spec.seed,
                min_n=spec.min_n,
                max_n=spec.max_n,
                formats=spec.formats,
                sram_kb=spec.sram_kb,
                ports=spec.ports,
            )
            elapsed = time.perf_counter() - t0
            self._m_predict.observe(elapsed)
            result["predict_s"] = round(elapsed, 9)
            self._m_estimate_hits.inc()
            self._finish(job, JobState.DONE, result=result)
        except Exception as exc:  # malformed artifact, feature mismatch
            self._finish(job, JobState.FAILED, error=error_payload(exc))
        return job

    def _release_cost(self, job: Job) -> None:
        """Return a job's predicted cost to the queue budget."""
        cost = self._job_cost.pop(job.job_id, None)
        if cost is not None:
            self._queue_cost = max(0.0, self._queue_cost - cost)
            self._m_queue_cost.set(self._queue_cost)

    def get(self, job_id: str) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise ServeError(
                f"unknown job id {job_id!r}", code="not_found"
            ) from None

    def cancel(self, job_id: str) -> Job:
        """Cancel a job.  Queued jobs resolve immediately; a *running*
        job's worker is SIGKILLed and its slot respawned — the job
        reaches ``cancelled`` promptly instead of running to completion.
        """
        job = self.get(job_id)
        if job.terminal:
            return job
        if job.state == JobState.PENDING:
            self._queue = [entry for entry in self._queue if entry[3] is not job]
            self._m_depth.set(len(self._queue))
            self._release_cost(job)
            self._finish(
                job,
                JobState.CANCELLED,
                error=error_payload(JobCancelled("cancelled by client request")),
            )
        elif job.state == JobState.RUNNING:
            task = self._pool_tasks.get(job_id)
            if task is not None:
                self.pool.cancel(task)  # wakes the pool, which kills the worker
        return job

    async def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Block until a job reaches a terminal state (or raise timeout)."""
        job = self.get(job_id)
        event = self._done_events.get(job_id)
        if job.terminal or event is None:
            return job
        await asyncio.wait_for(event.wait(), timeout)
        return job

    # ------------------------------------------------------------------
    # batching stage

    async def _batch_loop(self) -> None:
        assert self._wakeup is not None
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            self._dispatch()

    def _dispatch(self) -> None:
        """Dispatch every queued job at once, except one whose batch key
        has a running leader: that job stays queued and joins the
        leader's batch (:meth:`_lead`).  Priority first; under cost-aware
        admission, cheapest next (shortest-job-first within a priority
        level); arrival last.  Synchronous, so no submit or cancel can
        interleave with the pass over the queue."""
        waiting = []
        for entry in sorted(self._queue):
            job = entry[3]
            key = job.spec.batch_key()
            if key in self._leading:
                waiting.append(entry)
                continue
            self._release_cost(job)
            if self._runnable(job):
                self._leading.add(key)
                task = asyncio.create_task(
                    self._lead(job, key), name=f"serve-batch-{key[:8]}"
                )
                self._inflight.add(task)
                task.add_done_callback(self._inflight.discard)
        self._queue = waiting
        self._m_depth.set(len(waiting))

    def _runnable(self, job: Job) -> bool:
        """The dispatch-time check: a job cancelled while queued, or past
        its deadline (failed here, ``deadline_exceeded``), does not run."""
        if job.terminal:
            return False
        if job.deadline_exceeded():
            self._finish(
                job,
                JobState.FAILED,
                error=error_payload(
                    ServeError(
                        f"deadline of {job.spec.deadline_s}s expired "
                        "while the job was queued",
                        code="deadline_exceeded",
                        retry_after_s=self.config.retry_after_s,
                    )
                ),
            )
            return False
        return True

    # ------------------------------------------------------------------
    # execution stage

    async def _lead(self, leader: Job, key: str) -> None:
        """Run one batch: the leader alone, then the jobs that waited on it.

        For a replay-family batch the leader records the op streams; the
        queued jobs that share its key are pure readers of that recording
        and the result cache, so once the leader is terminal up to
        ``max_batch - 1`` of them dispatch concurrently across the pool.
        A leader cancelled between dispatch and start ran nothing, so the
        batch is not counted and the next queued job with its key leads.
        """
        ran = await self._run_one(leader)
        self._leading.discard(key)
        followers: List[Job] = []
        if ran:
            room = self.config.max_batch - 1
            waiting = []
            for entry in sorted(self._queue):
                job = entry[3]
                if len(followers) < room and job.spec.batch_key() == key:
                    self._release_cost(job)
                    if self._runnable(job):
                        followers.append(job)
                else:
                    waiting.append(entry)
            self._queue = waiting
            self._m_depth.set(len(waiting))
            size = 1 + len(followers)
            self._m_batches.inc()
            self._m_batch_size.observe(size)
            if size > 1:
                self._m_batched_jobs.inc(size)
            for job in (leader, *followers):
                job.batch_size = size
        assert self._wakeup is not None
        self._wakeup.set()  # same-key jobs still queued lead the next batch
        if followers:
            await asyncio.gather(*(self._run_one(job) for job in followers))

    async def _run_one(self, job: Job) -> bool:
        """Dispatch one job to the pool and finish it; True if it ran."""
        if job.terminal:  # cancelled between dispatch and start
            return False
        job.state = JobState.RUNNING
        job.started_at = time.monotonic()
        self._m_inflight.add(1)
        self._m_queue_wait.observe(job.queue_wait_s())
        timeout = (
            job.spec.timeout_s
            if job.spec.timeout_s is not None
            else self.config.default_timeout_s
        )
        # cache/record dirs are read at dispatch time on purpose:
        # tests repoint them on a live scheduler to seed failures
        request = {
            "spec": job.spec.to_payload(),
            "cache_dir": self.cache_dir,
            "record_dir": self.record_dir,
            "validate": self.config.validate,
        }
        handle = self.pool.submit(
            request,
            timeout_s=timeout,
            poison_key=job.spec.poison_key(),
            kind=job.spec.kind,
        )
        self._pool_tasks[job.job_id] = handle
        try:
            outcome = await asyncio.wrap_future(handle.future)
            self._apply_exec_metrics(outcome["metrics"])
            self._finish(job, JobState.DONE, result=outcome["payload"])
        except JobCancelled as exc:
            self._finish(job, JobState.CANCELLED, error=error_payload(exc))
        except ServeError as exc:
            if exc.code == "timeout":
                # the worker was SIGKILLed and the slot respawned;
                # the flag records that the attempt was reclaimed
                job.abandoned = True
            self._finish(job, JobState.FAILED, error=error_payload(exc))
        except Exception as exc:  # per-job fault isolation
            self._finish(job, JobState.FAILED, error=error_payload(exc))
        finally:
            self._pool_tasks.pop(job.job_id, None)
            self._m_inflight.add(-1)
        return True

    def _apply_exec_metrics(self, deltas: Dict[str, int]) -> None:
        """Fold a worker's per-job counter deltas into the registry."""
        self._m_units.inc(deltas.get("units_executed", 0))
        self._m_cache_hits.inc(deltas.get("cache_hits", 0))
        self._m_cache_misses.inc(deltas.get("cache_misses", 0))
        self._m_narration_flushes.inc(deltas.get("narration_flushes", 0))
        self._m_replay_hits.inc(deltas.get("replay_hits", 0))
        self._m_replay_misses.inc(deltas.get("replay_misses", 0))

    # ------------------------------------------------------------------
    # completion

    def _finish(
        self,
        job: Job,
        state: JobState,
        *,
        result: Optional[Dict[str, Any]] = None,
        error: Optional[Dict[str, Any]] = None,
    ) -> None:
        if job.terminal:
            return
        job.state = state
        job.finished_at = time.monotonic()
        job.result = result
        job.error = error
        if job.started_at is not None:
            self._m_service.observe(job.finished_at - job.started_at)
        if state == JobState.DONE:
            self._m_done.inc()
        elif state == JobState.CANCELLED:
            self._m_cancelled.inc()
        else:
            self._m_failed.inc()
        event = self._done_events.get(job.job_id)
        if event is not None:
            event.set()

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Cheap point-in-time service stats (the ``stats`` request)."""
        states: Dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state.value] = states.get(job.state.value, 0) + 1
        return {
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "queue_depth": self.queue_depth,
            "inflight": self.inflight,
            "draining": self._draining,
            "jobs_by_state": states,
            "cache_dir": self.cache_dir,
            "record_dir": self.record_dir,
            "queue_cost": round(self._queue_cost, 3),
            "model": {
                "source": self.estimator.source,
                "key": self.estimator.model_key,
            },
            "pool": self.pool.health(),
        }
