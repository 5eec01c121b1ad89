"""Self-tests for the benchmark's own arithmetic and a smoke run of each workload.

Run with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import arith  # noqa: E402
import run  # noqa: E402
import serve_load  # noqa: E402
import spans  # noqa: E402


# ----------------------------------------------------------------------
# percentiles and the ten-beyond rule


def test_nearest_rank_picks_a_sample():
    values = list(range(1, 101))
    assert arith.nearest_rank(values, 50) == 50
    assert arith.nearest_rank(values, 95) == 95
    assert arith.nearest_rank(values, 100) == 100
    assert arith.nearest_rank([7.0], 95) == 7.0
    assert arith.nearest_rank([3, 1, 2], 50) == 2


@pytest.mark.parametrize("bad", [0, -1, 101])
def test_nearest_rank_rejects_bad_percentiles(bad):
    with pytest.raises(ValueError):
        arith.nearest_rank([1, 2], bad)
    with pytest.raises(ValueError):
        arith.nearest_rank([], 50)


def test_ten_samples_beyond_rule():
    assert arith.samples_beyond(200, 95) == 10
    assert arith.supports(200, 95) and not arith.supports(199, 95)
    assert arith.supports(20, 50) and not arith.supports(19, 50)
    assert arith.supports(1000, 99) and not arith.supports(999, 99)


def test_cpu_shares_from_proc_stat():
    before = [100, 0, 50, 1000, 10, 0, 0, 20]
    after = [200, 0, 100, 1790, 20, 0, 0, 70]
    # busy = user 100 + system 50 + steal 50 of 1000 ticks; idle and iowait excluded
    assert arith.cpu_shares(before, after) == pytest.approx((200 / 1000, 50 / 200))
    assert arith.cpu_shares(before, before) == (0.0, 0.0)


# ----------------------------------------------------------------------
# self time


def test_self_time_of_nested_spans(tmp_path, monkeypatch):
    ticks = itertools.count(0, 10)
    monkeypatch.setattr(spans.time, "perf_counter_ns", lambda: next(ticks))
    tracer = spans.Tracer(str(tmp_path))

    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: (leaf(), leaf()))
    top = tracer.wrap("frame.timed", lambda: (mid(), leaf()))
    top()
    tracer.flush()
    totals = spans.totals(spans.load(str(tmp_path)))
    # the clock advances 10 ns per read: leaves last 10 ns, mid 50 ns with
    # 20 ns in leaves, the root 90 ns with 60 ns in mid and one leaf
    assert totals["leaf"] == pytest.approx([3, 30e-9, 30e-9, 0.0])
    assert totals["mid"] == pytest.approx([1, 50e-9, 30e-9, 0.0])
    assert totals["frame.timed"] == pytest.approx([1, 90e-9, 30e-9, 0.0])


def test_forked_worker_starts_with_no_spans(tmp_path):
    tracer = spans.Tracer(str(tmp_path))
    tracer.wrap("x", lambda: None)()
    pid = os.fork()
    if pid == 0:
        os._exit(0 if not tracer.tree and not tracer.kept else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert tracer.tree


def test_tracer_counts_amounts_and_keeps_tagged_spans(tmp_path):
    tracer = spans.Tracer(str(tmp_path), keep=("req",))
    req = tracer.wrap("req", lambda x: x * 2, amount=lambda a, k, r: float(r), tag=lambda a: a[0])
    assert req(3) == 6 and req(4) == 8
    tracer.flush()
    docs = spans.load(str(tmp_path))
    assert spans.totals(docs)["req"][3] == 14.0
    assert [t for _, _, t in spans.kept(docs, "req")] == [3, 4]


def test_traced_call_that_raises_keeps_its_own_exception(tmp_path):
    def put(path):
        raise FileNotFoundError("the program's own error")

    def size(args, _kw, _result):  # like recordings.put's amount: stats the written file
        return float(Path(args[0]).stat().st_size)

    tracer = spans.Tracer(str(tmp_path))
    traced = tracer.wrap("put", put, amount=size)
    with pytest.raises(FileNotFoundError, match="the program's own error"):
        traced(str(tmp_path / "missing"))
    assert tracer.tree[("", "put")][:1] == [1] and tracer.tree[("", "put")][3] == 0.0


# ----------------------------------------------------------------------
# failure accounting


def test_tally_counts_failures_against_attempts():
    tally = arith.Tally()
    tally.ok(5)
    tally.fail("lost")
    tally.mismatch("digest", 2)
    assert (tally.attempted, tally.failed) == (6, 3)
    assert tally.reasons == {"lost": 1, "digest": 2}


def _ctx(tmp_path, smoke=True):
    return run.Ctx("serve_mix", 1, 1.0, False, smoke, tmp_path, {})


def _sent(index, spec, reply, late_ms=0.0):
    due = 1_000_000_000 + index * 10_000_000
    sent = serve_load.Sent(index, spec, due, due + int(late_ms * 1e6))
    if reply is not None:
        sent.recv_ns, sent.reply = sent.sent_ns + 5_000_000, reply
    return sent


def _done(result):
    return {"ok": True, "job": {"state": "done", "result": result, "queue_wait_s": 0.001, "service_s": 0.002}}


def test_serve_scoring_counts_lost_failed_and_wrong_replies(tmp_path):
    spec = {"kind": "simulate", "seed": 11}
    good = {"records": [1], "counters": {"cache_hits": 0}}
    pins = {"serve_mix": {run._spec_key(spec): run._digest({"records": [1]})}}
    load = serve_load.LoadResult(
        sent=[
            _sent(0, spec, _done(good)),
            _sent(1, spec, _done(dict(good, counters={"cache_hits": 1}))),
            _sent(2, spec, None),
            _sent(3, spec, {"ok": False, "error": {"code": "queue_full"}}),
            _sent(4, spec, {"ok": True, "job": {"state": "failed", "error": {"code": "internal"}}}),
            _sent(5, spec, _done({"records": [2]})),
        ],
        outstanding_at_end=0,
        end_stats={"queue_depth": 0},
        start_ns=0,
    )
    verdict = run.Verdict(arith.Tally())
    done = run.check_serve(_ctx(tmp_path), {"load": load}, pins, verdict)
    assert len(done) == 2
    assert (verdict.tally.attempted, verdict.tally.failed) == (6, 4)
    assert not verdict.correct


def _load(sent, outstanding=0, depth=0):
    return serve_load.LoadResult(sent, outstanding, {"queue_depth": depth}, 0)


@pytest.mark.parametrize(
    "late_ms,outstanding,depth",
    [(run.LATE_LIMIT_MS + 5, 0, 0), (0.0, run.BACKLOG_LIMIT + 1, 0), (0.0, 0, run.BACKLOG_LIMIT + 1)],
)
def test_serve_run_is_invalid_when_schedule_slips_or_backlog_grows(tmp_path, late_ms, outstanding, depth):
    spec = {"kind": "estimate", "seed": 11}
    sent = [_sent(i, spec, _done({"x": 1}), late_ms=late_ms) for i in range(3)]
    verdict = run.Verdict(arith.Tally())
    run.check_serve(_ctx(tmp_path), {"load": _load(sent, outstanding, depth)}, {}, verdict)
    assert verdict.tally.failed == 0
    assert not verdict.valid and not verdict.correct


def test_serve_run_needs_enough_requests_for_its_p95(tmp_path):
    spec = {"kind": "estimate", "seed": 11}
    for smoke, valid in ((True, True), (False, False)):
        verdict = run.Verdict(arith.Tally())
        run.check_serve(_ctx(tmp_path, smoke), {"load": _load([_sent(0, spec, _done({"x": 1}))])}, {}, verdict)
        assert verdict.valid is valid


# ----------------------------------------------------------------------
# BENCHMARK.json and the command-line behaviour


def test_benchmark_json_names_every_metric_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_record", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def _smoke(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, check=False,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_of_each_workload(workload):
    result = _smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run_prints_every_per_layer_metric():
    result = _smoke("sweep_record", 1)
    assert result["correct"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["kernels.calls"]["value"] > 0
    assert result["metrics"]["sim.walks"]["value"] > 0
