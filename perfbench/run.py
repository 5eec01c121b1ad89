"""perfbench — the repository's end-to-end benchmark, with a traced per-layer run.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (see ``inputs.py`` for the seeded inputs):

* ``sweep_record`` — a cold Fig. 9 DSE: ``run_dse(collection, record_dir=...)``
  over the four ``dse_configs()``, fresh result cache and journal, the
  runner's default ``workers=1``;
* ``sweep_replay`` — re-prices a store recorded during set-up: 2 SSPM
  capacities x ports 1-8 as 16 ``ViaConfig``s, ``workers=2``;
* ``serve_mix`` — seeded open-loop arrivals against a live
  ``python -m repro.serve serve`` at its default ``ServiceConfig``.

Each sweep repetition runs in a fresh process (``sweep_child.py``) and the
run reports medians over the repetitions that fit in ``--seconds``.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` traced and untraced repetitions alternate (for serve_mix an
untraced and a traced server each take a full schedule), and the line
carries the per-layer metrics from the traced ones.  Every run checks the
simulated results against ``digests.json``.

End-to-end metrics (``--trace 0``), medians over a run's repetitions:

* ``setup_s`` — sweep_record: interpreter start, imports and the collection;
  sweep_replay: recording the store (3 per run); serve_mix: server start
  until the ready file exists and every pool worker is ready (3 per run);
* ``wall_s`` — host seconds of the timed phase: one ``run_dse`` call, or
  for serve_mix the first scheduled send to the last reply;
* ``cpu_s`` — user+system CPU of the program's processes in the timed
  phase: the DSE process and its sweep workers, or the server and its
  pool workers;
* ``latency_p50_ms``/``latency_p95_ms`` — serve_mix: each request from
  its scheduled send time; sweeps: each DSE from process start to result
  (nearest rank over a handful of repetitions, so the p95 is the slowest);
* ``peak_rss_mb`` — sweeps: the DSE process's peak RSS plus ``workers``
  times the largest worker peak; serve_mix: the server's and pool
  workers' ``VmHWM``.

The processes this starts get ``OPENBLAS_NUM_THREADS=1`` (and the OpenMP/MKL
equivalents), no ``REPRO_*`` variables, and a ``TMPDIR`` inside the
checkout; all files go under ``.perfbench/`` and are removed at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import arith
import inputs
import serve_load
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("sweep_record", "sweep_replay", "serve_mix")

#: thread count of the BLAS/OpenMP pools in every process the benchmark starts
BLAS_THREADS = "1"

#: seconds a whole run may take, set-up included; a repetition that would
#: overrun it is killed and the run fails without a result
RUN_BUDGET_S = 170.0

#: repetitions per sweep run, however short ``--seconds`` is
MIN_REPS = 2

#: stores recorded (sweep_replay) and servers started (serve_mix) per run
SETUPS = 3

#: a serve run is invalid when the generator ran this late at its p95 ...
LATE_LIMIT_MS = 25.0
#: ... or this many requests were still unanswered when the schedule ended
BACKLOG_LIMIT = 24

#: unattributed time may be at most this share of the time the frames cover
UNATTRIBUTED_TOLERANCE = 0.10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "matrices.build_s": "s",
    "matrices.builds": "count",
    "matrices.stats_s": "s",
    "matrices.sample_s": "s",
    "formats.convert_s": "s",
    "kernels.exec_s": "s",
    "kernels.calls": "count",
    "via.exec_s": "s",
    "via.instrs": "count",
    "sim.flush_s": "s",
    "sim.flushes": "count",
    "sim.rows": "count",
    "sim.finalize_s": "s",
    "sim.walk_s": "s",
    "sim.walks": "count",
    "recordings.put_s": "s",
    "recordings.put_mb": "MB",
    "recordings.get_s": "s",
    "recordings.loads": "count",
    "recordings.memo_hit_ratio": "ratio",
    "replay.price_s": "s",
    "replay.calls": "count",
    "runner.key_s": "s",
    "runner.cache_get_s": "s",
    "runner.cache_put_s": "s",
    "runner.journal_s": "s",
    "runner.units": "count",
    "supervisor.spawns": "count",
    "supervisor.wait_s": "s",
    "supervisor.busy_frac": "ratio",
    "supervisor.idle_s": "s",
    "dse.record_s": "s",
    "dse.replay_s": "s",
    "dse.direct_s": "s",
    "model.predict_p50_ms": "ms",
    "serve.prepare_s": "s",
    "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_p95_ms": "ms",
    "serve.service_p50_ms": "ms",
    "serve.service_p95_ms": "ms",
    "serve.exec_p50_ms": "ms",
    "serve.exec_p95_ms": "ms",
    "serve.transport_p50_ms": "ms",
    "serve.front_p50_ms": "ms",
    "serve.front_p95_ms": "ms",
    "serve.simulate_p50_ms": "ms",
    "serve.replay_p50_ms": "ms",
    "serve.estimate_p50_ms": "ms",
    "serve.estimate_p95_ms": "ms",
    "serve.batch_size_mean": "jobs",
    "serve.batched_frac": "ratio",
    "serve.replay_hit_ratio": "ratio",
    "serve.cache_hit_ratio": "ratio",
    "serve.shed": "count",
    "serve.failed": "count",
    "serve.pool_restarts": "count",
    "serve.pool_retries": "count",
    "serve.gen_late_p95_ms": "ms",
    "serve.end_queue_depth": "jobs",
    "unattributed_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


@dataclass
class Ctx:
    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    work: Path
    env: Dict[str, str]
    started: float = field(default_factory=time.perf_counter)

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.started)


def child_env(tmp: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["TMPDIR"] = str(tmp)
    return env


def _proc_stat_cpu() -> List[int]:
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def _digest(obj: Any) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _spec_key(spec: Dict[str, Any]) -> str:
    return _digest(spec)[:16]


def _log_tail(path: Path, lines: int = 30) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


# ----------------------------------------------------------------------
# sweeps


def _sweep_child(ctx: Ctx, mode: str, rep_dir: Path, *, store: Optional[Path], traced: bool) -> dict:
    rep_dir.mkdir(parents=True)
    out = rep_dir / "result.json"
    log = rep_dir / "child.log"
    cmd = [
        sys.executable,
        str(HERE / "sweep_child.py"),
        "--mode", mode,
        "--seed", str(ctx.seed),
        "--work", str(rep_dir),
        "--out", str(out),
    ]
    if ctx.smoke:
        cmd.append("--smoke")
    if store is not None:
        cmd += ["--store", str(store)]
    if traced:
        cmd += ["--trace-dir", str(rep_dir / "spans")]
    if ctx.workload in inputs.PINNED_WORKLOADS:
        cmd += ["--cpu", str(min(os.sched_getaffinity(0)))]
    with open(log, "w") as fh:
        spawned = time.perf_counter_ns()
        proc = subprocess.Popen(cmd + ["--spawned-ns", str(spawned)], env=ctx.env, stdout=fh, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=max(1.0, ctx.remaining()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code is None:
        raise BenchError(f"{mode} repetition ran past the run budget")
    if code != 0 or not out.exists():
        raise BenchError(f"{mode} repetition exited {code}:\n{_log_tail(log)}")
    rep = json.loads(out.read_text())
    rep["took_s"] = (time.perf_counter_ns() - spawned) / 1e9
    rep["traced"] = traced
    rep["spans_dir"] = str(rep_dir / "spans") if traced else None
    return rep


def _repeat(ctx: Ctx, one: Callable[[int, bool], dict]) -> List[dict]:
    """Repetitions until the next would overrun ``--seconds``; traced ones alternate."""
    reps: List[dict] = []
    began = time.perf_counter()
    while True:
        if len(reps) >= MIN_REPS:
            typical = sorted(r["took_s"] for r in reps)[len(reps) // 2]
            elapsed = time.perf_counter() - began
            if elapsed + typical > ctx.seconds or typical > ctx.remaining():
                break
        reps.append(one(len(reps), ctx.trace and len(reps) % 2 == 1))
    return reps


def run_sweep(ctx: Ctx) -> dict:
    setups: List[float] = []
    store = None
    if ctx.workload == "sweep_replay":
        for k in range(SETUPS):
            store = ctx.work / f"store{k}" / "recordings"
            setups.append(_sweep_child(ctx, "store", store.parent, store=store, traced=False)["latency_s"])
        mode = "replay"
    else:
        mode = "record"
    reps = _repeat(ctx, lambda i, traced: _sweep_child(ctx, mode, ctx.work / f"rep{i}", store=store, traced=traced))
    if ctx.workload == "sweep_record":
        setups = [r["setup_s"] for r in reps if not r["traced"]]
    return {"reps": reps, "setups": setups, "store_artifacts": _count_artifacts(store)}


def _count_artifacts(store: Optional[Path]) -> int:
    return sum(1 for _ in store.rglob("*.npz")) if store is not None else 0


# ----------------------------------------------------------------------
# serve_mix


def _read_proc(pid: int, name: str) -> Optional[str]:
    try:
        return Path(f"/proc/{pid}/{name}").read_text()
    except OSError:
        return None


def _cpu_ticks(pid: int, *, with_children: bool) -> int:
    text = _read_proc(pid, "stat")
    if text is None:
        return 0
    rest = text[text.rindex(")") + 2 :].split()
    fields = rest[11:15] if with_children else rest[11:13]
    return sum(int(x) for x in fields)


def _hwm_kb(pid: int) -> int:
    text = _read_proc(pid, "status") or ""
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


class Server:
    """One ``python -m repro.serve serve`` started through ``serve_launcher.py``."""

    def __init__(self, ctx: Ctx, name: str, traced: bool):
        self.ctx = ctx
        self.dir = ctx.work / name
        self.traced = traced
        self.spans_dir = self.dir / "spans"
        self.proc: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0
        self.setup_s = 0.0
        self.worker_pids: List[int] = []

    def start(self) -> None:
        self.dir.mkdir(parents=True)
        ready = self.dir / "ready"
        cmd = [sys.executable, str(HERE / "serve_launcher.py")]
        if self.traced:
            cmd += ["--trace-dir", str(self.spans_dir)]
        cmd += [
            "--", "serve", "--port", "0",
            "--ready-file", str(ready),
            "--cache-dir", str(self.dir / "cache"),
            "--record-dir", str(self.dir / "recordings"),
        ]
        self._log = open(self.dir / "server.log", "w")
        began = time.perf_counter_ns()
        self.proc = subprocess.Popen(cmd, env=self.ctx.env, stdout=self._log, stderr=subprocess.STDOUT)
        deadline = time.perf_counter() + min(60.0, self.ctx.remaining())
        while not ready.exists():
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise BenchError(f"server did not become ready:\n{_log_tail(self.dir / 'server.log')}")
            time.sleep(0.002)
        host, port = ready.read_text().split()
        self.host, self.port = host, int(port)
        while True:
            workers = self.stats()["pool"]["workers"]
            if workers and all(w.get("state") == "idle" for w in workers):
                break
            if time.perf_counter() > deadline:
                raise BenchError("server pool workers never became ready")
            time.sleep(0.002)
        self.setup_s = (time.perf_counter_ns() - began) / 1e9
        self.worker_pids = [w["pid"] for w in workers]

    def stats(self) -> Dict[str, Any]:
        return serve_load.ask(self.host, self.port, {"type": "stats"})["stats"]

    def metrics(self) -> Dict[str, Any]:
        return serve_load.ask(self.host, self.port, {"type": "metrics"})["metrics"]

    def stop(self) -> None:
        """SIGTERM (graceful drain), wait, and make sure no pool worker outlives it."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        deadline = time.perf_counter() + 5.0
        for pid in self.worker_pids:
            while _read_proc(pid, "stat") is not None and time.perf_counter() < deadline:
                time.sleep(0.01)
            if _read_proc(pid, "stat") is not None:
                os.kill(pid, signal.SIGKILL)
        self.proc = None


def _strip_result(result: Dict[str, Any]) -> Dict[str, Any]:
    """A reply's simulated content: cache telemetry and timings are not results."""
    return {k: v for k, v in result.items() if k not in ("counters", "predict_s")}


def _serve_phase(ctx: Ctx, server: Server) -> dict:
    schedule = inputs.serve_schedule(ctx.seed, inputs.SERVE_RATE, ctx.seconds)
    pids = [server.proc.pid] + server.worker_pids
    ticks0 = _cpu_ticks(pids[0], with_children=True) + sum(_cpu_ticks(p, with_children=False) for p in pids[1:])
    result = serve_load.run(server.host, server.port, schedule, connections=inputs.SERVE_CONNECTIONS)
    workers_now = [w.get("pid") for w in server.stats()["pool"]["workers"] if w.get("pid")]
    ticks1 = _cpu_ticks(pids[0], with_children=True) + sum(
        _cpu_ticks(p, with_children=False) for p in set(workers_now) | set(pids[1:])
    )
    peak_kb = _hwm_kb(pids[0]) + sum(_hwm_kb(p) for p in workers_now)
    server.worker_pids = sorted(set(server.worker_pids) | set(workers_now))
    return {
        "load": result,
        "cpu_s": (ticks1 - ticks0) / os.sysconf("SC_CLK_TCK"),
        "peak_rss_mb": peak_kb / 1024.0,
        "metrics": server.metrics(),
    }


def run_serve(ctx: Ctx) -> dict:
    setups: List[float] = []
    phases: Dict[str, dict] = {}
    plan = [("untraced", False)] + ([("traced", True)] if ctx.trace else [])
    for k in range(max(0, SETUPS - len(plan))):
        server = Server(ctx, f"setup{k}", traced=False)
        try:
            server.start()
            setups.append(server.setup_s)
        finally:
            server.stop()
    for name, traced in plan:
        server = Server(ctx, name, traced=traced)
        try:
            server.start()
            setups.append(server.setup_s)
            phases[name] = _serve_phase(ctx, server)
        finally:
            server.stop()
        phases[name]["spans_dir"] = str(server.spans_dir) if traced else None
    return {"setups": setups, "phases": phases}


# ----------------------------------------------------------------------
# checks and metrics


def _pins() -> Dict[str, Any]:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


@dataclass
class Verdict:
    tally: arith.Tally
    notes: List[str] = field(default_factory=list)
    valid: bool = True

    @property
    def correct(self) -> bool:
        return self.valid and self.tally.failed == 0 and self.tally.attempted > 0


def check_sweep(ctx: Ctx, data: dict, pins: Dict[str, Any], verdict: Verdict) -> None:
    """Score every unit; a repetition whose DSE digest is wrong fails all its units."""
    reps = data["reps"]
    key = ("smoke:" if ctx.smoke else "") + ctx.workload
    pinned = pins.get(key, {}).get(str(ctx.seed))
    counts: Dict[str, int] = {}
    for rep in reps:
        counts[rep["digest"]] = counts.get(rep["digest"], 0) + 1
    expected = pinned or max(counts, key=counts.get)
    if pinned is None:
        verdict.notes.append(
            f"digest {expected} (seed {ctx.seed}; only seed {inputs.DEFAULT_SEED} is pinned, "
            f"so repetitions are checked against each other)"
        )
    for rep in reps:
        journal = rep["journal"]
        good = journal["units"] - journal["failed"]
        verdict.tally.ok(good)
        if journal["failed"]:
            verdict.tally.fail("unit failed", journal["failed"])
        if rep["digest"] != expected:
            verdict.tally.mismatch("result digest mismatch", good)
            verdict.notes.append(f"repetition digest {rep['digest']} != expected {expected}")


def sweep_end_to_end(data: dict) -> Dict[str, float]:
    reps = [r for r in data["reps"] if not r["traced"]]
    latency_ms = [r["latency_s"] * 1e3 for r in reps]
    return {
        "setup_s": arith.median(data["setups"]),
        "wall_s": arith.median(r["wall_s"] for r in reps),
        "cpu_s": arith.median(r["cpu_s"] for r in reps),
        "latency_p50_ms": arith.median(latency_ms),
        "latency_p95_ms": arith.nearest_rank(latency_ms, 95),
        "peak_rss_mb": arith.median(r["peak_rss_mb"] for r in reps),
    }


def span_layers(docs: List[dict]) -> Dict[str, float]:
    """Per-layer self times and counts from one traced repetition's spans."""
    every = spans.totals(docs)

    def col(name: str, i: int) -> float:
        return every.get(name, [0, 0.0, 0.0, 0.0])[i]

    found = col("recordings.get", 3)
    loads = col("recordings.load", 0)
    out = {
        "matrices.build_s": col("matrices.build", 2),
        "matrices.builds": col("matrices.build", 0),
        "matrices.stats_s": col("matrices.stats", 2),
        "matrices.sample_s": col("matrices.sample", 2),
        "formats.convert_s": col("formats.convert", 2),
        "kernels.exec_s": col("kernels.exec", 2),
        "kernels.calls": col("kernels.exec", 0),
        "via.exec_s": col("via.exec", 2),
        "via.instrs": col("via.exec", 0),
        "sim.flush_s": col("sim.flush", 2),
        "sim.flushes": col("sim.flush", 0),
        "sim.rows": col("sim.flush", 3),
        "sim.finalize_s": col("sim.finalize", 2),
        "sim.walk_s": col("sim.walk", 2),
        "sim.walks": col("sim.walk", 0),
        "recordings.put_s": col("recordings.put", 2),
        "recordings.put_mb": col("recordings.put", 3) / 1e6,
        "recordings.get_s": col("recordings.get", 2) + col("recordings.load", 2),
        "recordings.loads": loads,
        "recordings.memo_hit_ratio": max(0.0, found - loads) / found if found else 0.0,
        "replay.price_s": col("replay.price", 2),
        "replay.calls": col("replay.price", 0),
        "runner.key_s": col("runner.key", 2),
        "runner.cache_get_s": col("runner.cache_get", 2),
        "runner.cache_put_s": col("runner.cache_put", 2),
        "runner.journal_s": col("runner.journal", 2),
        "runner.units": sum(col(f"dse.{k}", 3) for k in ("record", "replay", "direct")),
        "supervisor.spawns": col("supervisor.spawn", 0),
        "supervisor.wait_s": col("supervisor.run", 2),
        "dse.record_s": col("dse.record", 2),
        "dse.replay_s": col("dse.replay", 2),
        "dse.direct_s": col("dse.direct", 2),
        "serve.prepare_s": col("serve.prepare", 2),
        "unattributed_s": sum(col(f, 2) for f in spans.FRAMES),
    }
    return out


def _coverage(docs: List[dict]) -> float:
    """Time the frames cover: the timed phase plus every worker's operations."""
    root = spans.totals(docs, root=True)
    workers = spans.totals(docs, root=False)
    covered = root.get("frame.timed", [0, 0.0])[1]
    for frame in ("frame.unit", "frame.request"):
        covered += workers.get(frame, [0, 0.0])[1]
    return covered


def sweep_per_layer(data: dict) -> Dict[str, Any]:
    traced = [r for r in data["reps"] if r["traced"]]
    untraced = [r for r in data["reps"] if not r["traced"]]
    rows = []
    for rep in traced:
        docs = spans.load(rep["spans_dir"])
        row = span_layers(docs)
        sup = spans.totals(docs, root=True).get("supervisor.run", [0, 0.0])[1]
        capacity = rep["workers"] * sup
        busy = rep["journal"]["worker_busy_s"]
        row["supervisor.busy_frac"] = busy / capacity if capacity else 0.0
        row["supervisor.idle_s"] = capacity - busy if capacity else 0.0
        row["_covered_s"] = _coverage(docs)
        rows.append(row)
    merged = {k: arith.median(r[k] for r in rows) for k in rows[0]}
    merged["trace.overhead_frac"] = (
        arith.median(r["wall_s"] for r in traced) / arith.median(r["wall_s"] for r in untraced) - 1.0
    )
    merged["_docs"] = spans.load(traced[len(traced) // 2]["spans_dir"])
    return merged


def check_serve(ctx: Ctx, phase: dict, pins: Dict[str, Any], verdict: Verdict) -> List[dict]:
    """Score every request; returns the answered ones with their timings."""
    pinned = pins.get("serve_mix", {})
    seen: Dict[str, str] = {}
    done: List[dict] = []
    load = phase["load"]
    for sent in load.sent:
        if sent.reply is None:
            verdict.tally.fail("lost (no reply)")
            continue
        if not sent.reply.get("ok"):
            verdict.tally.fail(f"error {sent.reply.get('error', {}).get('code')}")
            continue
        job = sent.reply["job"]
        if job.get("state") != "done":
            error = job.get("error") or {}
            verdict.tally.fail(f"job {job.get('state')} ({error.get('code')}: {error.get('reason', '')[:160]})")
            continue
        key = _spec_key(sent.spec)
        digest = _digest(_strip_result(job["result"]))
        if digest != pinned.get(key, digest) or digest != seen.setdefault(key, digest):
            verdict.tally.fail("result digest mismatch")
            continue
        verdict.tally.ok()
        done.append(
            {
                "kind": sent.spec["kind"],
                "spec": sent.spec,
                "latency_ms": (sent.recv_ns - sent.due_ns) / 1e6,
                "queue_ms": job.get("queue_wait_s", 0.0) * 1e3,
                "service_ms": job.get("service_s", 0.0) * 1e3,
                "recv_ns": sent.recv_ns,
            }
        )
    unpinned = {k: v for k, v in sorted(seen.items()) if k not in pinned}
    note = f"unpinned serve specs, checked against each other only: {json.dumps(unpinned)}"
    if unpinned and note not in verdict.notes:
        verdict.notes.append(note)
    late = [(s.sent_ns - s.due_ns) / 1e6 for s in load.sent]
    phase["gen_late_p95_ms"] = arith.nearest_rank(late, 95)
    depth = (load.end_stats or {}).get("queue_depth", BACKLOG_LIMIT + 1)
    phase["end_queue_depth"] = depth
    if not ctx.smoke and not arith.supports(len(load.sent), 95):
        verdict.valid = False
        verdict.notes.append(f"invalid: {len(load.sent)} requests cannot support a p95")
    if phase["gen_late_p95_ms"] > LATE_LIMIT_MS:
        verdict.valid = False
        verdict.notes.append(f"invalid: generator p95 lateness {phase['gen_late_p95_ms']:.1f} ms > {LATE_LIMIT_MS} ms")
    if load.outstanding_at_end > BACKLOG_LIMIT or depth > BACKLOG_LIMIT:
        verdict.valid = False
        verdict.notes.append(
            f"invalid: backlog grew ({load.outstanding_at_end} unanswered, queue depth {depth} "
            f"at the end of the schedule; limit {BACKLOG_LIMIT})"
        )
    return done


def _serve_counts(ctx: Ctx, phase: dict) -> str:
    """Requests, schedule health, and the measured share of repeats."""
    m = phase["metrics"]
    units = m.get("cache_hits", 0) + m.get("cache_misses", 0)
    replays = m.get("replay_hits", 0) + m.get("replay_misses", 0)
    return (
        f"{len(phase['load'].sent)} requests at {inputs.SERVE_RATE:g}/s over {ctx.seconds:g} s; "
        f"generator p95 lateness {phase['gen_late_p95_ms']:.2f} ms; at the end of the schedule "
        f"{phase['load'].outstanding_at_end} unanswered, queue depth {phase['end_queue_depth']}; "
        f"repeats: {m.get('cache_hits', 0):g}/{units:g} units from the result cache, "
        f"{m.get('replay_hits', 0):g}/{replays:g} replay units from existing recordings"
    )


def serve_end_to_end(data: dict, done: List[dict]) -> Dict[str, float]:
    phase = data["phases"]["untraced"]
    latency = [d["latency_ms"] for d in done]
    last = max(d["recv_ns"] for d in done)
    return {
        "setup_s": arith.median(data["setups"]),
        "wall_s": (last - phase["load"].start_ns) / 1e9,
        "cpu_s": phase["cpu_s"],
        "latency_p50_ms": arith.median(latency),
        "latency_p95_ms": arith.nearest_rank(latency, 95),
        "peak_rss_mb": phase["peak_rss_mb"],
    }


def _match_exec(done: List[dict], docs: List[dict]) -> List[float]:
    """Per pool job, service minus its worker's ``execute_request`` time.

    Jobs and exec spans of one spec are paired in completion order.
    """
    def ident(spec: Dict[str, Any]) -> tuple:
        return (spec["kind"], spec.get("kernel"), spec.get("seed"), spec.get("ports"))

    execs: Dict[tuple, List[float]] = {}
    for start, end, tag in sorted(spans.kept(docs, "frame.request"), key=lambda s: s[1]):
        execs.setdefault(ident(json.loads(tag)), []).append((end - start) / 1e6)
    out = []
    for job in sorted(done, key=lambda d: d["recv_ns"]):
        queue = execs.get(ident(job["spec"]))
        if job["kind"] != "estimate" and queue:
            out.append(job["service_ms"] - queue.pop(0))
    return out


def serve_per_layer(data: dict, done_traced: List[dict], done_untraced: List[dict]) -> Dict[str, Any]:
    phase = data["phases"]["traced"]
    docs = spans.load(phase["spans_dir"])
    out: Dict[str, Any] = span_layers(docs)

    def p(values: List[float], pct: float) -> float:
        return arith.nearest_rank(values, pct) if values else 0.0

    pool = [d for d in done_traced if d["kind"] != "estimate"]
    execs = [(e - s) / 1e6 for s, e, _ in spans.kept(docs, "frame.request")]
    predicts = [(e - s) / 1e6 for s, e, _ in spans.kept(docs, "model.predict")]
    front = [d["latency_ms"] - d["queue_ms"] - d["service_ms"] for d in done_traced]
    by_kind = {k: [d["latency_ms"] for d in done_traced if d["kind"] == k] for k in ("simulate", "replay", "estimate")}
    metrics = phase["metrics"]
    batch = metrics.get("batch_size", {})
    hits, misses = metrics.get("cache_hits", 0), metrics.get("cache_misses", 0)
    rhits, rmisses = metrics.get("replay_hits", 0), metrics.get("replay_misses", 0)
    out.update(
        {
            "model.predict_p50_ms": p(predicts, 50),
            "serve.queue_wait_p50_ms": p([d["queue_ms"] for d in pool], 50),
            "serve.queue_wait_p95_ms": p([d["queue_ms"] for d in pool], 95),
            "serve.service_p50_ms": p([d["service_ms"] for d in pool], 50),
            "serve.service_p95_ms": p([d["service_ms"] for d in pool], 95),
            "serve.exec_p50_ms": p(execs, 50),
            "serve.exec_p95_ms": p(execs, 95),
            "serve.transport_p50_ms": p(_match_exec(done_traced, docs), 50),
            "serve.front_p50_ms": p(front, 50),
            "serve.front_p95_ms": p(front, 95),
            "serve.simulate_p50_ms": p(by_kind["simulate"], 50),
            "serve.replay_p50_ms": p(by_kind["replay"], 50),
            "serve.estimate_p50_ms": p(by_kind["estimate"], 50),
            "serve.estimate_p95_ms": p(by_kind["estimate"], 95),
            "serve.batch_size_mean": batch.get("sum", 0.0) / batch["count"] if batch.get("count") else 0.0,
            "serve.batched_frac": metrics.get("jobs_batched", 0) / batch["sum"] if batch.get("sum") else 0.0,
            "serve.replay_hit_ratio": rhits / (rhits + rmisses) if rhits + rmisses else 0.0,
            "serve.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "serve.shed": metrics.get("jobs_shed", 0),
            "serve.failed": metrics.get("jobs_failed", 0),
            "serve.pool_restarts": metrics.get("pool_worker_restarts", 0),
            "serve.pool_retries": metrics.get("pool_retries", 0),
            "serve.gen_late_p95_ms": phase["gen_late_p95_ms"],
            "serve.end_queue_depth": phase["end_queue_depth"],
            "trace.overhead_frac": p([d["latency_ms"] for d in done_traced], 50)
            / p([d["latency_ms"] for d in done_untraced], 50)
            - 1.0,
        }
    )
    out["_covered_s"] = _coverage(docs)
    out["_docs"] = docs
    out["_queue_share"] = sum(d["queue_ms"] for d in pool) / sum(d["latency_ms"] for d in pool) if pool else 0.0
    out["_queue_share_median"] = arith.median(d["queue_ms"] / d["latency_ms"] for d in pool) if pool else 0.0
    out["_samples"] = {k: len(v) for k, v in by_kind.items()}
    return out


# ----------------------------------------------------------------------
# report and entry point


def layer_report(ctx: Ctx, layers: Dict[str, Any]) -> List[str]:
    """Findings first, then every span's self time, coverage and overhead."""
    docs = layers["_docs"]
    root = spans.totals(docs, root=True)
    workers = spans.totals(docs, root=False)
    zero = [0, 0.0, 0.0, 0.0]
    self_s = {n: root.get(n, zero)[2] + workers.get(n, zero)[2] for n in set(root) | set(workers)}
    total_self = sum(self_s.values())
    ranked = sorted(self_s, key=lambda n: -self_s[n])
    lines = []
    if ctx.workload == "sweep_record":
        top = ", ".join(f"{n} {100 * self_s[n] / total_self:.0f}%" for n in ranked[:7])
        lines.append(f"finding: sweep_record's cold time goes to {top} (share of self time)")
    if ctx.workload == "serve_mix":
        lines.append(
            f"finding: queue wait is {100 * layers['_queue_share']:.0f}% of serve_mix pool-job "
            f"latency (sum over jobs; median per job {100 * layers['_queue_share_median']:.0f}%); "
            f"the batch window is 20 ms"
        )
        lines.append(f"samples per kind: {layers['_samples']}")
    lines.append(f"{'span':<22}{'calls':>12}{'self_s main':>13}{'self_s workers':>16}{'share':>8}")
    for n in ranked:
        r, w = root.get(n, zero), workers.get(n, zero)
        share = 100 * self_s[n] / total_self if total_self else 0.0
        lines.append(f"{n:<22}{int(r[0] + w[0]):>12}{r[2]:>13.4f}{w[2]:>16.4f}{share:>7.1f}%")
    if "supervisor.run" in root:
        lines.append("(supervisor.run's self time is the main process waiting on its workers, whose spans break it down)")
    covered = layers["_covered_s"]
    share = layers["unattributed_s"] / covered if covered else 0.0
    state = "within" if share <= UNATTRIBUTED_TOLERANCE else "EXCEEDS"
    lines.append(
        f"unattributed_s {layers['unattributed_s']:.4f} s = {100 * share:.1f}% of the {covered:.3f} s "
        f"the frames cover ({state} the {100 * UNATTRIBUTED_TOLERANCE:.0f}% tolerance)"
    )
    lines.append(f"tracing overhead {100 * layers['trace.overhead_frac']:+.1f}% (traced vs untraced median)")
    return lines


def environment(ctx: Ctx, stat0: List[int], stat1: List[int]) -> Dict[str, Any]:
    import numpy

    busy, steal = arith.cpu_shares(stat0, stat1)
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "program_cpus": 1 if ctx.workload in inputs.PINNED_WORKLOADS else nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "cpu_busy_share": round(busy, 4),
        "cpu_steal_share": round(steal, 4),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs; runs in seconds")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}/repro; run from a checkout", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    ctx = Ctx(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, work, child_env(work / "tmp"))
    verdict = Verdict(arith.Tally())
    pins = _pins()
    stat0 = _proc_stat_cpu()
    try:
        if ctx.workload == "serve_mix":
            data = run_serve(ctx)
            stat1 = _proc_stat_cpu()
            done = check_serve(ctx, data["phases"]["untraced"], pins, verdict)
            done_traced = check_serve(ctx, data["phases"]["traced"], pins, verdict) if ctx.trace else []
            e2e = serve_end_to_end(data, done) if done else {}
            layers = serve_per_layer(data, done_traced, done) if ctx.trace and done_traced else None
            counts = _serve_counts(ctx, data["phases"]["untraced"])
        else:
            data = run_sweep(ctx)
            stat1 = _proc_stat_cpu()
            check_sweep(ctx, data, pins, verdict)
            e2e = sweep_end_to_end(data)
            layers = sweep_per_layer(data) if ctx.trace else None
            counts = (
                f"{len(data['reps'])} repetitions, {data['reps'][0]['journal']['units']} units each"
                + (f", store of {data['store_artifacts']} artifacts" if data["store_artifacts"] else "")
            )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print(f"perfbench {ctx.workload} seed {ctx.seed}: {counts}")
    print("env: " + json.dumps(environment(ctx, stat0, stat1), sort_keys=True))
    for note in verdict.notes:
        print(f"note: {note}")
    if verdict.tally.reasons:
        print(f"failures: {verdict.tally.reasons}")
    if not verdict.correct:
        # the result line carries no reasons; stderr says why the run failed
        invalid = [n for n in verdict.notes if n.startswith("invalid:")]
        print(f"perfbench: incorrect run: failures {verdict.tally.reasons} {invalid}", file=sys.stderr)
    if not verdict.valid:
        e2e = {k: v for k, v in e2e.items() if not k.startswith("latency_")}
    for name, value in e2e.items():
        print(f"  {name:<16} {value:12.4f} {END_TO_END[name]}")
    if layers is not None:
        for line in layer_report(ctx, layers):
            print(line)
    if ctx.trace:
        values = {k: float(layers.get(k, 0.0)) for k in PER_LAYER} if layers else {}
        units = PER_LAYER
    else:
        values, units = e2e, END_TO_END
    print(f"operations: {verdict.tally.attempted} attempted, {verdict.tally.failed} failed")
    print(
        json.dumps(
            {
                "correct": verdict.correct,
                "attempted": verdict.tally.attempted,
                "failed": verdict.tally.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
