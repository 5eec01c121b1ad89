"""Regression pins for the spawn-path leaks the lifecycle analysis found.

The VIA501/VIA502 audit found three spawn-failure paths that stranded
pipe file descriptors: a spawn that closed its pipe ends only on
``OSError``, a worker handle with no guard at all around process
construction, and a pool built in a list comprehension, so a failure on
the Nth spawn left the N-1 live workers unreachable by teardown.

Sweeps and serving now share one pool, and every worker is spawned by
``_WorkerHandle.__init__``; these tests pin each behaviour of that one
path exactly once.  They drive the real pool with real pipes and
scripted processes and assert every descriptor ends up closed.  Leaked
fds compound: under fd exhaustion (the very condition that makes spawns
fail) a leak per retry turns a transient stall into a permanent one.
"""

import multiprocessing as mp

import pytest

from repro.errors import ServeError
from repro.eval.supervisor import PoolConfig, SupervisedPool, _WorkerHandle


class _InertProc:
    """A process double: records lifecycle calls, runs nothing."""

    pid = 0
    exitcode = None

    def __init__(self):
        self.reaped = False

    def start(self):
        pass

    def kill(self):
        self.reaped = True

    def join(self, timeout=None):
        self.reaped = True

    def is_alive(self):
        return False


class _FailsOnStart(_InertProc):
    def start(self):
        raise RuntimeError("start refused")


class _RecordingCtx:
    """Real pipes, scripted process construction.

    ``outcomes`` is consumed one entry per ``Process(...)`` call: an
    exception instance is raised from the constructor, the string
    ``"start-fail"`` yields a process whose ``start()`` raises, and
    ``"ok"`` yields an inert process.
    """

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.pipes = []
        self.procs = []

    def Pipe(self, duplex=True):
        pair = mp.get_context("spawn").Pipe(duplex)
        self.pipes.append(pair)
        return pair

    def Process(self, *args, **kwargs):
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, BaseException):
            raise outcome
        proc = _FailsOnStart() if outcome == "start-fail" else _InertProc()
        self.procs.append(proc)
        return proc

    def all_pipe_ends_closed(self):
        return all(conn.closed for pair in self.pipes for conn in pair)


def _pool(outcomes, workers=1):
    ctx = _RecordingCtx(outcomes)
    return SupervisedPool(
        PoolConfig(workers=workers), ctx=ctx, target=lambda conn: None
    ), ctx


class TestPoolSpawn:
    def test_non_oserror_from_start_closes_both_pipe_ends(self):
        pool, ctx = _pool(["start-fail"])
        with pytest.raises(RuntimeError):
            pool._spawn(0)
        assert ctx.all_pipe_ends_closed()
        assert 0 not in pool._workers

    def test_oserror_still_backs_off_and_closes_pipes(self):
        pool, ctx = _pool([OSError(24, "too many open files")])
        pool._spawn(0)  # retryable: schedules a respawn, does not raise
        assert ctx.all_pipe_ends_closed()
        assert pool._workers[0] is None
        assert 0 in pool._respawn_at


class TestWorkerHandleSpawn:
    def test_successful_spawn_keeps_only_the_parent_end(self):
        ctx = _RecordingCtx(["ok"])
        handle = _WorkerHandle(ctx, target=lambda conn: None)
        ((parent, child),) = ctx.pipes
        assert not parent.closed and child.closed
        handle.kill()
        assert ctx.all_pipe_ends_closed()


class TestSupervisorPartialPool:
    def test_nth_spawn_failure_reaps_the_live_workers(self):
        pool, ctx = _pool(
            ["ok", "ok", RuntimeError("third spawn fails")], workers=3
        )
        with pytest.raises(RuntimeError):
            pool.start()
        assert pool._workers == {}
        assert ctx.all_pipe_ends_closed()
        assert len(ctx.procs) == 2 and all(proc.reaped for proc in ctx.procs)
        # the failed start left a stopped pool, not a half-started one
        assert pool._thread is None
        task = pool.submit("job")
        with pytest.raises(ServeError) as info:
            task.future.result(timeout=5)
        assert info.value.code == "stopped"
