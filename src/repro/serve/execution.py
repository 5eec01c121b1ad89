"""Worker-side job execution for the serve worker pool.

This module is the code that actually runs inside a pool worker process:
:func:`execute_request` takes the wire-shaped request the scheduler ships
over the worker pipe — a job-spec payload plus the execution context
(cache/record directories, validation flag) — and produces the job's
result payload together with the counter deltas the scheduler folds into
its metrics registry.

It deliberately holds **no scheduler state**: everything a job needs
travels in the request, so the same function serves the in-process unit
tests and the long-lived subprocess workers identically, and a worker
that dies mid-job loses nothing that cannot be re-dispatched.

:func:`warm_imports` preloads the heavy execution stack (NumPy, the sweep
runner, the kernel/sim layers) at worker bootstrap, before the ready
handshake — so the first job on a fresh or respawned worker pays import
cost exactly once, never per request.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro.errors import ServeError
from repro.serve.jobs import JobSpec, expand_sweep
from repro.storage import code_version

#: metric counter deltas a job execution can report back to the scheduler
METRIC_KEYS = (
    "units_executed",
    "cache_hits",
    "cache_misses",
    "narration_flushes",
    "replay_hits",
    "replay_misses",
)


def warm_imports() -> None:
    """Preload the execution stack so jobs never pay import cost."""
    import numpy  # noqa: F401
    from repro.eval import runner, units  # noqa: F401
    from repro.matrices import collection  # noqa: F401
    from repro.sim import core  # noqa: F401
    from repro.via import engine  # noqa: F401


def _zero_metrics() -> Dict[str, int]:
    return {key: 0 for key in METRIC_KEYS}


def execute_request(request: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job request synchronously; returns ``{payload, metrics}``.

    ``request`` carries ``spec`` (a :meth:`JobSpec.to_payload` dict),
    ``cache_dir``, ``record_dir``, and ``validate``.  Exceptions propagate
    to the caller — in a pool worker they are mapped to the structured
    error payload before crossing the pipe.
    """
    spec = JobSpec.from_payload(request["spec"])
    metrics = _zero_metrics()
    payload = _execute_spec(
        spec,
        cache_dir=request.get("cache_dir"),
        record_dir=request.get("record_dir"),
        validate=bool(request.get("validate", False)),
        metrics=metrics,
    )
    return {"payload": payload, "metrics": metrics}


def _execute_spec(
    spec: JobSpec,
    *,
    cache_dir: Optional[str],
    record_dir: Optional[str],
    validate: bool,
    metrics: Dict[str, int],
) -> Dict[str, Any]:
    if spec.kind == "estimate":
        # the scheduler resolves estimates synchronously at admission;
        # one reaching a worker means the dispatch path is broken
        raise ServeError(
            "estimate jobs are answered at admission and must never "
            "dispatch to a pool worker",
            code="internal",
        )
    if spec.kind == "sleep":
        # a plain sleep: cancellation of a running sleep job is handled by
        # the supervisor killing this worker, not by cooperative polling
        time.sleep(spec.duration_s)
        return {"slept_s": spec.duration_s}
    if spec.kind == "report":
        from repro.sim import table1
        from repro.via import table2

        return {"text": table1() + "\n" + table2()}
    if spec.kind == "sweep":
        per_config: Dict[str, Any] = {}
        for sub in expand_sweep(spec):
            per_config[f"{sub.sram_kb}_{sub.ports}p"] = _run_sim(
                sub,
                cache_dir=cache_dir,
                record_dir=record_dir,
                validate=validate,
                metrics=metrics,
            )
        return {"configs": per_config}
    return _run_sim(
        spec,
        cache_dir=cache_dir,
        record_dir=record_dir,
        validate=validate,
        metrics=metrics,
    )


def _run_sim(
    spec: JobSpec,
    *,
    cache_dir: Optional[str],
    record_dir: Optional[str],
    validate: bool,
    metrics: Dict[str, int],
) -> Dict[str, Any]:
    """Execute a simulate/replay spec through the sweep runner."""
    from repro.eval.harness import geomean
    from repro.eval.runner import RunnerConfig, run_units

    units = _build_units(
        spec, record_dir=record_dir, validate=validate
    )
    if spec.kind == "replay":
        _count_replay_hits(units, record_dir=record_dir, metrics=metrics)
    config = RunnerConfig(
        workers=1,
        cache_dir=cache_dir,
        capture_errors=True,
    )
    result = run_units(units, config)
    metrics["units_executed"] += len(units)
    metrics["cache_hits"] += result.counters.cache_hits
    metrics["cache_misses"] += result.counters.cache_misses
    metrics["narration_flushes"] += result.counters.narration_flushes
    if result.failures:
        first = result.failures[0]
        raise ServeError(
            f"{len(result.failures)} of {len(units)} work unit(s) "
            f"failed; first: {first.kind}/{first.name}: {first.error}",
            code="unit_failed",
        )
    records = [
        {"name": r.name, "n": r.n, "nnz": r.nnz, "speedup": dict(r.speedup)}
        for r in result.records
    ]
    fmts = sorted(result.records[0].speedup) if result.records else []
    summary = {
        fmt: geomean(
            (r.speedup[fmt] for r in result.records if fmt in r.speedup),
            warn_label=f"serve geomean {fmt}",
        )
        for fmt in fmts
    }
    return {
        "records": records,
        "geomean_speedup": summary,
        "counters": {
            "units_ok": result.counters.units_ok,
            "units_cached": result.counters.units_cached,
            "cache_hits": result.counters.cache_hits,
            "cache_misses": result.counters.cache_misses,
            "narration_flushes": result.counters.narration_flushes,
        },
    }


def _build_units(
    spec: JobSpec, *, record_dir: Optional[str], validate: bool
) -> List[Any]:
    from repro.eval.units import (
        replay_units,
        spma_units,
        spmm_units,
        spmv_units,
    )
    from repro.matrices.collection import MatrixCollection
    from repro.via.config import ViaConfig

    collection = MatrixCollection(
        spec.count, seed=spec.seed, min_n=spec.min_n, max_n=spec.max_n
    )
    via = ViaConfig(spec.sram_kb, spec.ports)
    if spec.kernel == "spmv":
        units = spmv_units(
            collection,
            formats=spec.formats,
            via_config=via,
            validate=validate,
        )
    elif spec.kernel == "spma":
        units = spma_units(collection, via_config=via, validate=validate)
    else:
        units = spmm_units(
            collection, via_config=via, max_n=spec.max_n, validate=validate
        )
    if spec.kind == "replay":
        units = replay_units(units, record_dir=record_dir)
    return list(units)


def _count_replay_hits(
    units: List[Any], *, record_dir: Optional[str], metrics: Dict[str, int]
) -> None:
    """Score replay units against the store *before* execution.

    A unit whose recording artifact already exists is a replay hit — it
    will re-price stored streams instead of running the kernel; a miss
    records first (self-heal).  Counted here because the self-healing
    replay path hides the distinction downstream.
    """
    from repro.eval.recordings import RecordingStore, recording_key

    store = RecordingStore(record_dir)
    code = code_version()
    for unit in units:
        if store.has(recording_key(unit, code, part="via")) and store.has(
            recording_key(unit, code, part="base")
        ):
            metrics["replay_hits"] += 1
        else:
            metrics["replay_misses"] += 1
