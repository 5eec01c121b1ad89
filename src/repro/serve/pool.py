"""The serve tier's worker pool: crash-isolated execution of jobs.

Jobs run on the one supervised pool the sweep runner also uses,
:class:`repro.eval.supervisor.SupervisedPool` — death detection, deadline
kills, respawn with backoff, bounded retries and the poison circuit
breaker live there.  This module adds what only serving needs:

* the worker entry point — warm imports before the ready handshake, then
  :func:`repro.serve.execution.execute_request` per job, with in-worker
  failures mapped to structured error payloads;
* the :class:`repro.serve.chaos.ChaosConfig` fault plan, honoured at two
  injection points (bootstrap, job dispatch) and given a shared token
  directory when the plan names none;
* the serve :class:`~repro.serve.metrics.MetricsRegistry`
  (``pool_worker_restarts``, ``pool_retries``, …);
* the start method: ``fork`` where available, else ``spawn``, or
  whatever ``REPRO_SERVE_MP_CONTEXT`` names.

Serving's rules ride on the pool's defaults: a job past its timeout fails
at once with code ``timeout`` (a timeout is deterministic, so it is not
retried), a worker death is retried up to ``PoolConfig.retries`` times,
and the scheduler passes a poison key with every job.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import tempfile
import time
from typing import Any, Dict, Optional

from repro.eval.supervisor import (
    PoisonJobError,
    PoolConfig,
    PoolTask,
    SupervisedPool,
    WorkerCrashError,
    WorkerJobError,
    ignore_sigint,
    worker_loop,
)
from repro.serve.chaos import CHAOS_CRASH_EXIT, ChaosConfig, apply_start_fault
from repro.serve.metrics import MetricsRegistry

__all__ = [
    "ENV_MP_CONTEXT",
    "PoisonJobError",
    "PoolConfig",
    "PoolTask",
    "WorkerCrashError",
    "WorkerJobError",
    "WorkerPool",
]

#: multiprocessing start-method override (``fork``/``spawn``/``forkserver``)
ENV_MP_CONTEXT = "REPRO_SERVE_MP_CONTEXT"


def _worker_main(conn: Any, chaos: Optional[ChaosConfig]) -> None:
    """Serve worker process: warm imports, ready handshake, one job at a
    time, with the chaos plan's faults injected before each job."""
    ignore_sigint()
    from repro.serve.execution import execute_request, warm_imports
    from repro.serve.jobs import error_payload

    warm_imports()
    apply_start_fault(chaos)

    def handle(request: Dict[str, Any]) -> Any:
        if chaos is not None:
            rule = chaos.job_fault(str(request.get("spec", {}).get("kind", "")))
            if rule is not None:
                if rule.fault == "crash":
                    os._exit(CHAOS_CRASH_EXIT)
                elif rule.fault == "hang":
                    time.sleep(rule.delay_s)
                elif rule.fault == "corrupt":
                    return "chaos-corrupt-reply"
        try:
            return ("ok", execute_request(request))
        except Exception as exc:  # per-job fault isolation
            return ("error", error_payload(exc))

    worker_loop(conn, handle)


def _resolve_context(name: Optional[str]) -> Any:
    name = name or os.environ.get(ENV_MP_CONTEXT) or None
    if name is None:
        name = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    return mp.get_context(name)


class WorkerPool(SupervisedPool):
    """The serve worker pool (see the module docstring).

    Lifecycle: :meth:`start` → :meth:`submit`/:meth:`cancel` →
    :meth:`stop`; :meth:`health` feeds the ``stats`` verb.
    """

    thread_name = "repro-serve-pool"

    def __init__(
        self,
        config: Optional[PoolConfig] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
    ):
        config = config or PoolConfig()
        chaos = config.chaos
        self._chaos_tmp: Optional[tempfile.TemporaryDirectory] = None
        if chaos is not None and chaos.state_dir is None:
            # the token directory must be shared by every worker process
            self._chaos_tmp = tempfile.TemporaryDirectory(
                prefix="repro-serve-chaos-"
            )
            chaos = chaos.with_state_dir(self._chaos_tmp.name)
        super().__init__(
            config,
            ctx=_resolve_context(config.mp_context),
            target=_worker_main,
            args=(chaos,),
            metrics=metrics or MetricsRegistry(),
        )

    def stop(self, timeout_s: float = 10.0) -> None:
        super().stop(timeout_s)
        if self._chaos_tmp is not None:
            self._chaos_tmp.cleanup()
            self._chaos_tmp = None
