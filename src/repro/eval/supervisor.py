"""The supervised worker pool shared by the sweep runner and the serve tier.

A bare ``multiprocessing.Pool`` has no defenses: a hung kernel stalls it
forever, an OOM-killed worker poisons it, and a transient failure cannot
be retried.  :class:`SupervisedPool` is the one pool both callers run on:
long-lived worker subprocesses, each owning a private duplex pipe, fed
futures-over-pipes and supervised from one background thread.  It
guarantees:

* **one job in flight per worker** — every failure (timeout, crash, OOM
  kill) is attributable to the job that caused it;
* **death detection** — a worker that exits or is killed is noticed via
  pipe EOF (no polling races); its job is retried or failed, never lost;
* **timeout reclamation** — a job past its ``timeout_s`` gets its worker
  SIGKILLed and fails with code ``timeout``; the slot respawns;
* **replenishment** — the pool respawns back to size, with exponential
  backoff on consecutive spawn failures so a broken environment cannot
  fork-bomb the host;
* **bounded retries** — a job whose worker died is re-queued with
  exponential backoff up to ``retries`` extra attempts;
* **poison quarantine** — a job ``poison_key`` that keeps killing
  workers trips a per-key circuit breaker after ``poison_threshold``
  crashes and fails fast with ``poison_job`` from then on;
* **graceful stop** — idle workers get a sentinel and a join; busy ones
  are killed; every outstanding future resolves (``stopped``).

The supervisor thread sleeps in one ``connection.wait`` over the worker
pipes plus a wake channel that :meth:`SupervisedPool.submit`,
:meth:`~SupervisedPool.cancel` and :meth:`~SupervisedPool.stop` write to,
bounded by the nearest deadline, retry or respawn time: queued work is
dispatched the moment it arrives, never on a poll tick.

Each caller brings its own worker entry point and rules.  The sweep
(:func:`run_supervised`) runs :func:`execute_unit` in ``fork`` workers
with no pool-side retries and retries timeouts and deaths itself; the
serve tier (:mod:`repro.serve.pool`) adds warm imports, chaos faults,
poison keys and its metrics registry.  This module imports only the
standard library and :mod:`repro.errors` on the pool side, so the sweep
path never loads :mod:`repro.serve`.

Thread discipline: caller-side methods (``submit``/``cancel``/``stop``/
``health``) only flip state under ``self._lock``; *all* process lifecycle
— spawn, kill, pipe close — happens in the supervisor thread, so no pipe
fd is closed while another thread waits on it.  The ``repro.analysis``
locks family (VIA301-VIA303) checks this convention.
"""

from __future__ import annotations

import os
import queue
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import JobCancelled, ServeError
from repro.eval.units import compute_unit
from repro.sim.core import narration_flush_count

if TYPE_CHECKING:
    from concurrent.futures import Future

    from repro.eval.units import WorkUnit
    from repro.serve.chaos import ChaosConfig
    from repro.sim.stats import SweepCounters

#: how often :func:`run_supervised` re-checks its ``should_stop`` flag
_TICK = 0.05

#: retry backoff is capped so a long chain cannot stall a run
_BACKOFF_CAP = 30.0

#: consecutive-spawn-failure backoff cap (crash-loop protection)
_SPAWN_BACKOFF_CAP = 5.0


def execute_unit(task: Tuple[int, "WorkUnit"]):
    """Run one unit in the current process; never raises.

    Returns ``(index, status, payload, wall_s, worker_pid, flushes)``
    where status is ``ok`` (payload = SweepRecord or None for
    self-filtered units) or ``failed`` (payload = (error, traceback)
    strings), and ``flushes`` is the unit's own narration-flush count.
    Shared by the runner's inline path and the sweep workers.
    """
    index, unit = task
    start = time.perf_counter()
    flushes = narration_flush_count()
    try:
        record = compute_unit(unit)
        status, payload = "ok", record
    except Exception as exc:  # per-unit fault isolation
        status, payload = "failed", (repr(exc), traceback.format_exc())
    return (
        index,
        status,
        payload,
        time.perf_counter() - start,
        os.getpid(),
        narration_flush_count() - flushes,
    )


@dataclass
class UnitOutcome:
    """Final fate of one work unit under supervision."""

    index: int
    status: str  # "ok" | "failed"
    payload: object  # SweepRecord/None, or (error, traceback) strings
    wall_s: float
    worker: int
    attempts: int = 1
    history: List[str] = field(default_factory=list)
    transient: bool = False
    timed_out: bool = False
    narration_flushes: int = 0


class WorkerCrashError(ServeError):
    """A job lost its worker (crash/OOM/corruption) on every attempt."""

    def __init__(self, message: str) -> None:
        super().__init__(message, code="worker_crash", retry_after_s=1.0)


class PoisonJobError(ServeError):
    """A job key crossed the crash threshold and is quarantined."""

    def __init__(self, message: str) -> None:
        super().__init__(message, code="poison_job")


class WorkerJobError(ServeError):
    """A job failed *inside* a worker; carries the worker's structured
    error payload (code + retry hint) across the pipe unchanged."""

    def __init__(self, payload: Dict[str, Any]) -> None:
        super().__init__(
            str(payload.get("reason", "job failed in worker")),
            code=str(payload.get("code", "internal")),
            retry_after_s=payload.get("retry_after_s"),
        )


@dataclass(frozen=True)
class PoolConfig:
    """Operating envelope of one worker pool.

    ``retries`` bounds extra attempts for transient (worker-death)
    failures; ``poison_threshold`` is the per-key crash budget before the
    circuit breaker opens; ``spawn_timeout_s`` bounds worker bootstrap
    (up to the ready handshake).  ``mp_context`` and ``chaos`` are read
    by the serve pool: the start method (default ``fork`` where
    available, else ``spawn``; override with ``REPRO_SERVE_MP_CONTEXT``)
    and the fault plan its workers honour.
    """

    workers: int = 2
    retries: int = 2
    backoff_s: float = 0.05
    poison_threshold: int = 3
    spawn_timeout_s: float = 60.0
    mp_context: Optional[str] = None
    chaos: Optional["ChaosConfig"] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServeError(f"workers must be >= 1, got {self.workers}")
        if self.retries < 0:
            raise ServeError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_s < 0:
            raise ServeError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.poison_threshold < 1:
            raise ServeError(
                f"poison_threshold must be >= 1, got {self.poison_threshold}"
            )
        if self.spawn_timeout_s <= 0:
            raise ServeError(
                f"spawn_timeout_s must be > 0, got {self.spawn_timeout_s}"
            )


@dataclass
class PoolTask:
    """One job's dispatch state, carried across retries.

    ``future`` resolves exactly once with the worker's ``ok`` payload or
    an exception; serve callers bridge it into asyncio with
    :func:`asyncio.wrap_future`.  ``history`` holds one line per failed
    attempt; ``pid`` is the worker the latest attempt ran on.
    """

    request: Any
    future: "Future[Any]"
    timeout_s: Optional[float] = None
    poison_key: Optional[str] = None
    attempt: int = 1
    ready_at: float = 0.0
    started_at: float = 0.0
    pid: int = 0
    cancelled: bool = False
    history: List[str] = field(default_factory=list)


def _attempts_text(task: PoolTask) -> str:
    return "; ".join(
        f"attempt {n}: {line}" for n, line in enumerate(task.history, 1)
    )


class _WorkerHandle:
    """Supervisor-side view of one worker process; ``__init__`` spawns it.

    This is the only place a worker process is created.
    """

    __slots__ = (
        "slot", "proc", "conn", "spawned_at", "ready", "task", "deadline",
        "jobs_done",
    )

    def __init__(
        self,
        ctx: Any,
        target: Callable[..., None],
        args: Tuple[Any, ...] = (),
        slot: int = 0,
    ) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        try:
            self.proc = ctx.Process(
                target=target, args=(child_conn, *args), daemon=True
            )
            self.proc.start()
        except BaseException:
            # a failed spawn must not strand the pipe fds — under fd
            # exhaustion the leak would make every later spawn fail too
            parent_conn.close()
            child_conn.close()
            raise
        # close our copy of the child end or EOF detection never fires
        child_conn.close()
        self.conn = parent_conn
        self.slot = slot
        self.spawned_at = time.monotonic()
        self.ready = False
        self.task: Optional[PoolTask] = None
        self.deadline: Optional[float] = None
        self.jobs_done = 0

    def kill(self) -> None:
        """SIGKILL, reap, close the pipe; harmless on an exited worker."""
        try:
            self.proc.kill()
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass
        self.proc.join(timeout=2.0)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass

    def stop_gently(self) -> None:
        """Ask an idle worker to exit; kill it if it lingers."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(timeout=2.0)
        self.kill()


def ignore_sigint() -> None:
    """Workers ignore SIGINT: a terminal Ctrl-C reaches the whole process
    group, and shutdown is always the pool's decision (sentinel, EOF or
    SIGKILL)."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover
        pass


def worker_loop(conn: Any, handle: Callable[[Any], Any]) -> None:
    """Worker body: ready handshake, then one reply per request.

    ``handle`` maps a request to its reply, ``("ok", payload)`` or
    ``("error", payload)``.  Returns on the ``None`` sentinel or when the
    pool's end of the pipe goes away.
    """
    try:
        conn.send(("ready", os.getpid()))
        while True:
            request = conn.recv()
            if request is None:
                return
            conn.send(handle(request))
    except (EOFError, OSError):  # the pool went away
        return
    finally:
        conn.close()


def _sweep_worker(conn: Any) -> None:
    """Sweep worker: runs :func:`execute_unit`, looked up at call time."""
    ignore_sigint()
    worker_loop(conn, lambda task: ("ok", execute_unit(task)))


class _Tally:
    """Instrument stand-in for a pool run without a metrics registry."""

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    add = inc

    def set(self, value: float) -> None:
        self.value = value

    def observe(self, value: float) -> None:
        pass


class _Tallies:
    """Registry stand-in: every instrument is a bare :class:`_Tally`."""

    def counter(self, *_: Any) -> _Tally:
        return _Tally()

    gauge = histogram = counter


class SupervisedPool:
    """Supervised pool of long-lived worker subprocesses.

    See the module docstring for the policy.  Lifecycle: :meth:`start` →
    :meth:`submit`/:meth:`cancel` → :meth:`stop`.  ``target(conn,
    *args)`` is the worker entry point, run in a process from ``ctx``;
    ``metrics`` is a registry with ``counter``/``gauge``/``histogram``
    factories (the serve tier passes its own).
    """

    #: name of the supervisor thread
    thread_name = "repro-pool"

    def __init__(
        self,
        config: PoolConfig,
        *,
        ctx: Any,
        target: Callable[..., None],
        args: Tuple[Any, ...] = (),
        metrics: Any = None,
    ):
        self.config = config
        self.metrics = metrics if metrics is not None else _Tallies()
        self._ctx = ctx
        self._target = target
        self._args = args
        #: guards every piece of supervisor state shared between callers
        #: (submit/cancel/stop/health) and the supervisor thread;
        #: re-entrant so helpers compose without hand-off rules
        self._lock = threading.RLock()
        self._workers: Dict[int, Optional[_WorkerHandle]] = {}
        self._respawn_at: Dict[int, float] = {}
        self._spawn_failures = 0
        self._queue: Deque[PoolTask] = deque()
        self._waiting: List[PoolTask] = []
        self._crash_counts: Dict[str, int] = {}
        self._quarantined: Dict[str, int] = {}
        self._started = False
        self._stopped = False
        self._thread: Optional[threading.Thread] = None
        #: the wake channel; ``_wake_pending`` keeps at most one byte in it
        self._wake_r: Any = None
        self._wake_w: Any = None
        self._wake_pending = False
        m = self.metrics
        self._m_restarts = m.counter(
            "pool_worker_restarts",
            "pool workers respawned after death, kill, or spawn failure",
        )
        self._m_timeout_kills = m.counter(
            "pool_timeout_kills", "workers SIGKILLed on per-job timeout"
        )
        self._m_retries = m.counter(
            "pool_retries", "job attempts re-queued after worker death"
        )
        self._m_corrupt = m.counter(
            "pool_corrupt_replies",
            "protocol-violating worker replies (worker replaced)",
        )
        self._m_poison = m.counter(
            "pool_poison_jobs", "jobs refused by the poison circuit breaker"
        )
        self._m_alive = m.gauge(
            "pool_workers_alive", "workers past the ready handshake"
        )
        self._m_respawn = m.histogram(
            "pool_respawn_seconds", "worker spawn-to-ready latency"
        )
        self._g_inflight = [
            m.gauge(
                f"pool_worker_{slot}_inflight",
                f"jobs in flight on pool worker slot {slot}",
            )
            for slot in range(self.config.workers)
        ]

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> None:
        """Spawn the workers and the supervisor thread (idempotent).

        A spawn failure that cannot be retried reaps the workers already
        started, stops the pool and propagates.
        """
        with self._lock:
            if self._started:
                return
            self._started = True
            self._wake_r, self._wake_w = mp_connection.Pipe(duplex=False)
            try:
                for slot in range(self.config.workers):
                    self._spawn(slot)
            except BaseException:
                self._stopped = True
                self._teardown()
                raise
            self._thread = threading.Thread(
                target=self._supervise, name=self.thread_name, daemon=True
            )
            self._thread.start()

    def stop(self, timeout_s: float = 10.0) -> None:
        """Stop the pool: resolve every outstanding future, reap every
        worker process.  Safe to call twice; blocks until the supervisor
        thread has torn everything down (bounded by ``timeout_s``)."""
        with self._lock:
            self._stopped = True
            self._wake()
            thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout_s)
        with self._lock:
            if self._workers or self._wake_r is not None:
                # never started, or the join timed out
                self._teardown()

    # ------------------------------------------------------------------
    # caller-side API

    def submit(
        self,
        request: Any,
        *,
        timeout_s: Optional[float] = None,
        poison_key: Optional[str] = None,
    ) -> PoolTask:
        """Queue one job; returns its :class:`PoolTask` immediately.

        The task's future may already be resolved on return: a stopped
        pool fails with ``stopped``, a quarantined key with
        ``poison_job`` (the circuit breaker rejecting without dispatch).
        """
        # imported on first use: a sweep's workers fork before it, so
        # they never carry concurrent.futures (and logging) in their RSS
        from concurrent.futures import Future

        task = PoolTask(
            request=request,
            future=Future(),
            timeout_s=timeout_s,
            poison_key=poison_key,
        )
        with self._lock:
            if self._stopped or not self._started:
                task.future.set_exception(
                    ServeError(
                        "worker pool is not accepting jobs", code="stopped"
                    )
                )
                return task
            if poison_key is not None and poison_key in self._quarantined:
                self._m_poison.inc()
                task.future.set_exception(
                    PoisonJobError(
                        f"job key {poison_key} is quarantined after "
                        f"{self._quarantined[poison_key]} worker crash(es)"
                    )
                )
                return task
            self._queue.append(task)
            self._wake()
        return task

    def cancel(self, task: PoolTask) -> bool:
        """Cancel a task: queued tasks resolve immediately; a running
        task's worker is killed by the supervisor as soon as it wakes.

        Returns ``False`` when the task already reached a terminal state.
        """
        with self._lock:
            if task.future.done():
                return False
            if task in self._queue:
                self._queue.remove(task)
            elif task in self._waiting:
                self._waiting.remove(task)
            task.cancelled = True
            task.future.set_exception(
                JobCancelled("job cancelled while in the worker pool")
            )
            self._wake()
            return True

    def health(self) -> Dict[str, Any]:
        """Point-in-time worker table + supervisor state snapshot."""
        with self._lock:
            workers: List[Dict[str, Any]] = []
            for slot in sorted(self._workers):
                worker = self._workers[slot]
                if worker is None:
                    workers.append({"slot": slot, "state": "respawning"})
                    continue
                if not worker.ready:
                    state = "spawning"
                elif worker.task is not None:
                    state = "busy"
                else:
                    state = "idle"
                workers.append(
                    {
                        "slot": slot,
                        "pid": worker.proc.pid,
                        "state": state,
                        "jobs_done": worker.jobs_done,
                    }
                )
            return {
                "workers": workers,
                "queued": len(self._queue),
                "retry_waiting": len(self._waiting),
                "restarts": int(self._m_restarts.value),
                "quarantined_keys": sorted(self._quarantined),
            }

    def _wake(self) -> None:
        """Interrupt the supervisor's wait so it sees new state."""
        with self._lock:
            if self._wake_w is not None and not self._wake_pending:
                self._wake_pending = True
                self._wake_w.send_bytes(b"")

    # ------------------------------------------------------------------
    # supervisor thread

    def _supervise(self) -> None:
        try:
            while not self._stop_requested():
                self._check_spawns()
                self._promote_retries()
                self._reap_cancelled()
                self._assign()
                self._enforce_deadlines()
                live, wake, timeout = self._wait_plan()
                try:
                    readable = mp_connection.wait([*live, wake], timeout=timeout)
                except OSError:  # pragma: no cover - fd raced a respawn
                    readable = []
                for conn in readable:
                    if conn is wake:
                        self._drain_wake()
                    else:
                        self._on_readable(live[conn])
        finally:
            self._teardown()

    def _stop_requested(self) -> bool:
        with self._lock:
            return self._stopped

    def _wait_plan(self) -> Tuple[Dict[Any, _WorkerHandle], Any, Optional[float]]:
        """The pipes to wait on, and for how long: until the nearest
        deadline, spawn timeout, retry or respawn — forever if none."""
        with self._lock:
            live = {w.conn: w for w in self._workers.values() if w is not None}
            times = [w.deadline for w in live.values() if w.deadline is not None]
            times += [
                w.spawned_at + self.config.spawn_timeout_s
                for w in live.values()
                if not w.ready
            ]
            times += [task.ready_at for task in self._waiting]
            times += list(self._respawn_at.values())
            timeout = (
                max(0.0, min(times) - time.monotonic()) if times else None
            )
            return live, self._wake_r, timeout

    def _drain_wake(self) -> None:
        with self._lock:
            self._wake_pending = False
            while self._wake_r.poll():
                self._wake_r.recv_bytes()

    # -- spawning ------------------------------------------------------

    def _spawn(self, slot: int) -> None:
        """Start a fresh worker in ``slot`` (or schedule a retry)."""
        with self._lock:
            try:
                worker = _WorkerHandle(self._ctx, self._target, self._args, slot)
            except OSError:
                # spawn failed (fd/process exhaustion): back off before
                # retrying so a broken environment cannot crash-loop
                self._spawn_failures += 1
                backoff = min(
                    0.1 * (2 ** (self._spawn_failures - 1)),
                    _SPAWN_BACKOFF_CAP,
                )
                self._workers[slot] = None
                self._respawn_at[slot] = time.monotonic() + backoff
                return
            self._workers[slot] = worker
            self._respawn_at.pop(slot, None)

    def _check_spawns(self) -> None:
        """Respawn empty slots whose backoff expired; kill stuck spawns."""
        with self._lock:
            now = time.monotonic()
            for slot in list(self._respawn_at):
                if self._workers.get(slot) is None and now >= self._respawn_at[slot]:
                    self._spawn(slot)
            for worker in list(self._workers.values()):
                if worker is None or worker.ready:
                    continue
                if now - worker.spawned_at > self.config.spawn_timeout_s:
                    # bootstrap wedged (import deadlock, chaos slow_start
                    # past the budget): reclaim the slot
                    self._replace(worker)

    # -- dispatch ------------------------------------------------------

    def _promote_retries(self) -> None:
        with self._lock:
            now = time.monotonic()
            ready = [t for t in self._waiting if t.ready_at <= now]
            if ready:
                self._waiting = [t for t in self._waiting if t.ready_at > now]
                self._queue.extend(ready)

    def _reap_cancelled(self) -> None:
        """Kill workers whose running task was cancelled caller-side."""
        with self._lock:
            for worker in list(self._workers.values()):
                if (
                    worker is not None
                    and worker.task is not None
                    and worker.task.cancelled
                ):
                    self._replace(worker)

    def _assign(self) -> None:
        with self._lock:
            for worker in list(self._workers.values()):
                if worker is None or not worker.ready or worker.task is not None:
                    continue
                task = self._next_task()
                if task is None:
                    return
                task.started_at = time.monotonic()
                task.pid = worker.proc.pid or 0
                try:
                    worker.conn.send(task.request)
                except (BrokenPipeError, OSError):
                    # the idle worker died between jobs; requeue + replace
                    self._queue.appendleft(task)
                    self._replace(worker)
                    continue
                worker.task = task
                worker.deadline = (
                    task.started_at + task.timeout_s
                    if task.timeout_s is not None
                    else None
                )
                self._g_inflight[worker.slot].set(1)

    def _next_task(self) -> Optional[PoolTask]:
        with self._lock:
            while self._queue:
                task = self._queue.popleft()
                if not task.future.done():
                    return task
            return None

    # -- collection ----------------------------------------------------

    def _on_readable(self, worker: _WorkerHandle) -> None:
        with self._lock:
            if self._workers.get(worker.slot) is not worker:  # pragma: no cover
                return  # the slot was respawned since the wait began
            try:
                msg = worker.conn.recv()
            except (EOFError, OSError):
                self._on_death(worker)
                return
            if not worker.ready:
                if isinstance(msg, tuple) and len(msg) == 2 and msg[0] == "ready":
                    worker.ready = True
                    self._spawn_failures = 0
                    self._m_alive.add(1)
                    self._m_respawn.observe(time.monotonic() - worker.spawned_at)
                else:  # pragma: no cover - garbled handshake
                    self._replace(worker)
                return
            task = worker.task
            if (
                not isinstance(msg, tuple)
                or len(msg) != 2
                or msg[0] not in ("ok", "error")
            ):
                # corrupted reply: the worker cannot be trusted any more —
                # replace it and retry the job as a transient failure
                self._m_corrupt.inc()
                self._replace(worker)
                if task is not None and not task.cancelled:
                    self._score_transient(
                        task, reason="worker returned a corrupted reply"
                    )
                return
            worker.task = None
            worker.deadline = None
            worker.jobs_done += 1
            self._g_inflight[worker.slot].set(0)
            if task is None or task.future.done():
                # cancelled while the result was in the pipe: the future
                # is already resolved; the late result is discarded
                return
            status, payload = msg
            if status == "ok":
                if task.poison_key is not None:
                    # an eventual success is not poison: forgive history
                    self._crash_counts.pop(task.poison_key, None)
                task.future.set_result(payload)
            else:
                # deterministic in-worker failure: no retry, pass the
                # structured payload through unchanged
                task.future.set_exception(WorkerJobError(payload))

    def _on_death(self, worker: _WorkerHandle) -> None:
        """A worker's pipe hit EOF — it exited or was killed externally."""
        with self._lock:
            task = worker.task
            pid = worker.proc.pid
            self._replace(worker)
            if task is None or task.future.done():
                return
            self._score_crash(
                task,
                reason=(
                    f"worker {pid} died mid-job "
                    f"(exitcode {worker.proc.exitcode})"
                ),
            )

    def _enforce_deadlines(self) -> None:
        with self._lock:
            now = time.monotonic()
            for worker in list(self._workers.values()):
                if (
                    worker is None
                    or worker.task is None
                    or worker.deadline is None
                    or now < worker.deadline
                ):
                    continue
                if worker.conn.poll():  # result raced the deadline
                    continue
                task = worker.task
                pid = worker.proc.pid
                self._m_timeout_kills.inc()
                self._replace(worker)
                if task.future.done():
                    continue
                # a timeout is deterministic (the job would time out
                # again); fail it now instead of burning retries
                task.history.append(
                    f"timed out after {task.timeout_s:.4g}s wall-clock "
                    f"(worker {pid} killed)"
                )
                task.future.set_exception(
                    ServeError(
                        f"job exceeded its {task.timeout_s:.4g}s execution "
                        f"timeout (worker {pid} killed)",
                        code="timeout",
                        retry_after_s=1.0,
                    )
                )

    # -- failure scoring -----------------------------------------------

    def _score_crash(self, task: PoolTask, *, reason: str) -> None:
        """A worker died under ``task``: poison-check, then retry."""
        with self._lock:
            if task.poison_key is not None:
                crashes = self._crash_counts.get(task.poison_key, 0) + 1
                self._crash_counts[task.poison_key] = crashes
                if crashes >= self.config.poison_threshold:
                    # circuit breaker: this job reliably kills workers
                    self._quarantined[task.poison_key] = crashes
                    self._m_poison.inc()
                    task.history.append(reason)
                    task.future.set_exception(
                        PoisonJobError(
                            f"job quarantined after {crashes} worker "
                            f"crash(es): {_attempts_text(task)}"
                        )
                    )
                    return
            self._score_transient(task, reason=reason)

    def _score_transient(self, task: PoolTask, *, reason: str) -> None:
        """Retry a transiently-failed task, or fail it for good."""
        with self._lock:
            task.history.append(reason)
            if task.attempt <= self.config.retries:
                backoff = min(
                    self.config.backoff_s * (2 ** (task.attempt - 1)),
                    _BACKOFF_CAP,
                )
                task.attempt += 1
                task.ready_at = time.monotonic() + backoff
                self._waiting.append(task)
                self._m_retries.inc()
                return
            task.future.set_exception(
                WorkerCrashError(
                    f"job lost its worker on all {task.attempt} "
                    f"attempt(s): {_attempts_text(task)}"
                )
            )

    # -- worker replacement --------------------------------------------

    def _replace(self, worker: _WorkerHandle) -> None:
        """Kill + reap ``worker`` and spawn a successor in its slot."""
        with self._lock:
            if worker.ready:
                self._m_alive.add(-1)
            worker.task = None
            worker.deadline = None
            self._g_inflight[worker.slot].set(0)
            self._m_restarts.inc()
            worker.kill()
            self._spawn(worker.slot)

    # -- teardown ------------------------------------------------------

    def _teardown(self) -> None:
        """Resolve every outstanding future; reap every worker process."""
        with self._lock:
            stopped = ServeError("worker pool stopped", code="stopped")
            for task in list(self._queue) + list(self._waiting):
                if not task.future.done():
                    task.future.set_exception(stopped)
            self._queue.clear()
            self._waiting.clear()
            for worker in self._workers.values():
                if worker is None:
                    continue
                task = worker.task
                if task is not None and not task.future.done():
                    task.future.set_exception(stopped)
                if task is not None or not worker.ready:
                    worker.kill()  # busy or mid-bootstrap: no point being gentle
                else:
                    worker.stop_gently()
            self._workers.clear()
            self._respawn_at.clear()
            self._m_alive.set(0)
            for gauge in self._g_inflight:
                gauge.set(0)
            for end in (self._wake_r, self._wake_w):
                if end is not None:
                    end.close()
            self._wake_r = self._wake_w = None


# ----------------------------------------------------------------------
# the sweep's client


def run_supervised(
    pending: Sequence[Tuple[int, "WorkUnit"]],
    ctx: Any,
    *,
    workers: int,
    timeout_s: Optional[float],
    retries: int,
    backoff_s: float,
    on_outcome: Callable[[UnitOutcome], None],
    should_stop: Optional[Callable[[], bool]] = None,
    counters: Optional["SweepCounters"] = None,
) -> bool:
    """Run ``pending`` units on a :class:`SupervisedPool`, the sweep's way.

    The pool retries nothing; this client keeps the sweep's rules.  A
    unit that raises is never retried (:func:`execute_unit` returns it as
    ``failed``).  A worker death and a timeout are both transient: they
    share one budget of ``retries`` extra attempts with exponential
    backoff from ``backoff_s``, and each failed attempt adds one history
    line.  Outcomes reach ``on_outcome`` in completion order; every
    worker death and kill lands in ``counters.worker_deaths``.

    Returns ``True`` when every unit reached a final outcome, ``False``
    when ``should_stop`` ended dispatch early (outcomes already delivered
    stay delivered — the caller flushes them).
    """
    if not pending:
        return True
    units = dict(pending)
    history: Dict[int, List[str]] = {index: [] for index in units}
    finished: "queue.SimpleQueue[Tuple[int, PoolTask]]" = queue.SimpleQueue()
    backlog: List[Tuple[float, int]] = []  # (ready_at, index) in backoff
    pool = SupervisedPool(
        PoolConfig(workers=min(workers, len(units)), retries=0),
        ctx=ctx,
        target=_sweep_worker,
    )

    def submit(index: int) -> None:
        task = pool.submit((index, units[index]), timeout_s=timeout_s)
        task.future.add_done_callback(lambda _: finished.put((index, task)))

    try:
        pool.start()
        for index in units:
            submit(index)
        remaining = len(units)
        while remaining:
            if should_stop is not None and should_stop():
                return False
            now = time.monotonic()
            for ready_at, index in backlog:
                if ready_at <= now:
                    submit(index)
            backlog = [entry for entry in backlog if entry[0] > now]
            wait = min([_TICK] + [ready_at - now for ready_at, _ in backlog])
            try:
                index, task = finished.get(timeout=max(wait, 0.0))
            except queue.Empty:
                continue
            attempt = len(history[index]) + 1
            exc = task.future.exception()
            if exc is None:
                _, status, payload, wall_s, pid, flushes = task.future.result()
                outcome = UnitOutcome(
                    index, status, payload, wall_s, pid, narration_flushes=flushes
                )
            else:
                detail = task.history[-1] if task.history else str(exc)
                history[index].append(f"attempt {attempt}: {detail}")
                if attempt <= retries:
                    backoff = min(backoff_s * (2 ** (attempt - 1)), _BACKOFF_CAP)
                    backlog.append((time.monotonic() + backoff, index))
                    continue
                timed_out = getattr(exc, "code", None) == "timeout"
                kind = "timed out" if timed_out else "lost its worker"
                error = f"SweepError('unit {index} {kind} on all {attempt} attempt(s)')"
                outcome = UnitOutcome(
                    index,
                    "failed",
                    (error, ""),
                    wall_s=time.monotonic() - task.started_at,
                    worker=task.pid,
                    transient=True,
                    timed_out=timed_out,
                )
            outcome.attempts = attempt
            outcome.history = list(history[index])
            remaining -= 1
            on_outcome(outcome)
        return True
    finally:
        pool.stop()
        if counters is not None:
            counters.worker_deaths += pool.health()["restarts"]
