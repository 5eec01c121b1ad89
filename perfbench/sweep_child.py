"""One sweep repetition in a fresh process: set up, time one ``run_dse``, report.

``run.py`` starts this script once per repetition, so every repetition is
a cold start, as it is for a user regenerating a figure.  Modes:

* ``record`` — ``sweep_record``: a Fig. 9 DSE that records its op streams;
* ``store``  — ``sweep_replay``'s set-up: the same DSE, recording the store
  that the replay repetitions re-price;
* ``replay`` — ``sweep_replay``: the 2-capacity x ports grid over that store.

Measurements go to ``--out`` as JSON; ``--spawned-ns`` is the parent's
``perf_counter_ns`` when it started this process (the clock is system-wide).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import time
from pathlib import Path


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _journal(path: Path, parent_pid: int) -> dict:
    lines = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    worker_walls = [e["wall_s"] for e in lines if e.get("worker") != parent_pid]
    # every unit's full record (baseline and VIA cycles, ratios, features),
    # in an order that does not depend on which worker finished first
    records = sorted(
        json.dumps({k: e.get(k) for k in ("kind", "kernel", "name", "via", "machine", "record")}, sort_keys=True)
        for e in lines
    )
    return {
        "records_digest": hashlib.sha256("\n".join(records).encode()).hexdigest(),
        "units": len(lines),
        "failed": sum(1 for e in lines if e.get("status") == "failed"),
        "statuses": sorted({e.get("status") for e in lines}),
        "worker_busy_s": sum(worker_walls),
        "worker_units": len(worker_walls),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("record", "store", "replay"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--work", required=True)
    parser.add_argument("--store", default=None)
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--out", required=True)
    parser.add_argument("--cpu", type=int, default=None, help="pin this process tree to one CPU")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    import inputs
    from repro.eval import RunnerConfig, run_dse

    workload = "sweep_record" if args.mode == "record" else "sweep_replay"
    size = inputs.SWEEP_SIZES[workload][1 if args.smoke else 0]
    collection = inputs.sweep_collection(args.seed, size)
    work = Path(args.work)
    workers = inputs.REPLAY_WORKERS if args.mode == "replay" else 1
    runner = RunnerConfig(
        workers=workers,
        cache_dir=str(work / "cache"),
        journal_path=str(work / "journal.jsonl"),
    )
    configs = inputs.replay_configs(args.smoke) if args.mode == "replay" else None
    record_dir = args.store if args.mode != "record" else str(work / "recordings")

    dse = run_dse
    tracer = None
    if args.trace_dir is not None:
        import spans

        tracer = spans.Tracer(args.trace_dir, keep=())
        spans.install(tracer)
        dse = tracer.wrap("frame.timed", run_dse)

    setup_done = time.perf_counter_ns()
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter_ns()
    result = dse(collection, configs=configs, record_dir=record_dir, runner=runner)
    end = time.perf_counter_ns()
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if tracer is not None:
        tracer.flush()

    journal = _journal(work / "journal.jsonl", os.getpid())
    blob = json.dumps({"cycles": result.cycles, "units": journal.pop("records_digest")}, sort_keys=True)
    peak_kb = self1.ru_maxrss + (workers * kids1.ru_maxrss if workers > 1 else 0)
    report = {
        "mode": args.mode,
        "pid": os.getpid(),
        "workers": workers,
        "setup_s": (setup_done - args.spawned_ns) / 1e9,
        "wall_s": (end - start) / 1e9,
        "latency_s": (end - args.spawned_ns) / 1e9,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        "peak_rss_mb": peak_kb / 1024.0,
        "digest": hashlib.sha256(blob.encode()).hexdigest(),
        "cells": sum(len(v) for v in result.cycles.values()),
        "journal": journal,
    }
    Path(args.out).write_text(json.dumps(report))


if __name__ == "__main__":
    main()
