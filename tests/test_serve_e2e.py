"""End-to-end: a real ``python -m repro.serve serve`` process over TCP.

Acceptance criteria for the serving subsystem:

* a live server handles >= 32 concurrent client requests (mixed
  simulate / replay / metrics) with **zero lost responses**;
* once the admission queue is full it sheds load with a structured
  ``queue_full`` error (code + reason + retry hint);
* on SIGTERM it drains cleanly — in-flight work completes or is
  reported cancelled, every waiter gets a response, and the process
  exits on its own.
"""

import json
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.serve.client import ServeClient, ServeRequestError, read_ready_file

REPO = Path(__file__).resolve().parents[1]


def _spawn_server(tmp_path, *extra_args, name="srv"):
    """Start a serve process on an ephemeral port; return (proc, addr)."""
    ready = tmp_path / f"{name}.ready"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--ready-file", str(ready),
            "--cache-dir", str(tmp_path / f"{name}-cache"),
            "--record-dir", str(tmp_path / f"{name}-rec"),
            *extra_args,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + 30
    while not ready.exists():
        if proc.poll() is not None:
            raise AssertionError(
                f"server died before ready: {proc.stderr.read()}"
            )
        if time.monotonic() > deadline:
            proc.kill()
            raise AssertionError("server never wrote the ready file")
        time.sleep(0.02)
    return proc, read_ready_file(ready)


def _stop(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve-e2e")
    proc, addr = _spawn_server(tmp, "--max-queue", "128")
    yield addr
    _stop(proc)


class TestRoundTrip:
    def test_ping_reports_version_and_protocol(self, server):
        with ServeClient(**server) as client:
            pong = client.ping()
        assert pong["protocol"] == 1
        assert pong["version"]
        assert pong["draining"] is False

    def test_submit_poll_result(self, server):
        with ServeClient(**server) as client:
            job = client.submit({"kind": "report"})
            assert job["state"] in ("pending", "running", "done")
            result = client.result(job["job_id"], timeout_s=30)
        assert result["state"] == "done"
        assert "Table" in result["result"]["text"]

    def test_submit_wait_inline(self, server):
        with ServeClient(**server) as client:
            job = client.submit(
                {"kind": "simulate", "kernel": "spmv", "count": 1,
                 "seed": 77, "max_n": 96},
                wait=True, wait_timeout_s=60,
            )
        assert job["state"] == "done"
        assert job["result"]["geomean_speedup"]["csr"] > 0

    def test_bad_request_is_structured(self, server):
        with ServeClient(**server) as client:
            with pytest.raises(ServeRequestError) as info:
                client.submit({"kind": "teleport"})
        assert info.value.payload["code"] == "bad_request"
        assert "unknown job kind" in info.value.payload["reason"]

    def test_metrics_text_scrape(self, server):
        with ServeClient(**server) as client:
            client.submit({"kind": "report"}, wait=True, wait_timeout_s=30)
            text = client.metrics_text()
        assert "# TYPE serve_jobs_submitted counter" in text
        assert "serve_service_seconds_count" in text


class TestConcurrency:
    def test_32_concurrent_mixed_requests_zero_lost(self, server):
        """The headline acceptance test: 32 clients, no lost responses."""
        base = {"count": 1, "max_n": 96, "kernel": "spma"}

        def one(i):
            kind = ("simulate", "replay", "metrics")[i % 3]
            with ServeClient(**server, timeout_s=120) as client:
                if kind == "metrics":
                    snap = client.metrics()
                    return ("metrics", snap["jobs_submitted"] >= 0)
                payload = dict(base, kind=kind, seed=100 + (i % 4),
                               ports=1 + (i % 4))
                job = client.submit(payload)
                done = client.result(job["job_id"], timeout_s=120)
                return (kind, done["state"] == "done")

        with ThreadPoolExecutor(max_workers=32) as pool:
            results = list(pool.map(one, range(32)))

        assert len(results) == 32  # zero lost responses
        assert all(ok for _, ok in results), results
        kinds = {k for k, _ in results}
        assert kinds == {"simulate", "replay", "metrics"}

        with ServeClient(**server) as client:
            snap = client.metrics()
        # replay jobs sharing a recording key must actually have replayed
        assert snap["replay_hits"] > 0
        assert snap["jobs_completed"] >= 21  # the non-metrics requests

    def test_concurrent_requests_on_one_connection(self, server):
        # the protocol is async per line: several ids in flight at once
        with ServeClient(**server) as client:
            jobs = [client.submit({"kind": "report"}) for _ in range(4)]
            for job in jobs:
                done = client.result(job["job_id"], timeout_s=30)
                assert done["state"] == "done"


class TestShedding:
    def test_queue_full_returns_structured_error(self, tmp_path):
        proc, addr = _spawn_server(
            tmp_path, "--workers", "1", "--max-queue", "2", name="shed",
        )
        try:
            # shed_retries=0: this test pins the raw shed payload; the
            # default client would absorb the shed with backoff retries
            with ServeClient(**addr, shed_retries=0) as client:
                # sleep jobs share one batch key: while a 1 s sleep runs,
                # the next two wait on it in the queue and fill it
                leader = client.submit({"kind": "sleep", "duration_s": 1.0})
                deadline = time.monotonic() + 30
                while client.status(leader["job_id"])["state"] != "running":
                    assert time.monotonic() < deadline, "leader never ran"
                    time.sleep(0.01)
                for _ in range(2):
                    client.submit({"kind": "sleep", "duration_s": 0.05})
                with pytest.raises(ServeRequestError) as info:
                    client.submit({"kind": "sleep", "duration_s": 0.05})
                payload = info.value.payload
                assert payload["code"] == "queue_full"
                assert "retry" in payload["reason"]
                assert payload["retry_after_s"] > 0
                snap = client.metrics()
                assert snap["jobs_shed"] == 1
        finally:
            _stop(proc)

    def test_default_client_absorbs_shed_with_backoff(self, tmp_path):
        """The shed-retry satellite: the default client honours the
        ``queue_full`` retry hint instead of failing on first shed."""
        proc, addr = _spawn_server(
            tmp_path, "--max-queue", "2", "--workers", "2",
            name="shed-retry",
        )
        try:
            with ServeClient(**addr) as client:
                # more submissions than the queue holds at once: with
                # retries every one is eventually admitted and completes
                jobs = [
                    client.submit({"kind": "sleep", "duration_s": 0.02})
                    for _ in range(6)
                ]
                for job in jobs:
                    final = client.result(job["job_id"], timeout_s=30)
                    assert final["state"] == "done"
                snap = client.metrics()
                # the server really did shed (the retries were exercised,
                # not just admitted on a quiet queue) — and yet every
                # submission above got through
                assert snap["jobs_completed"] >= 6
        finally:
            _stop(proc)


class TestEstimate:
    """``estimate`` jobs round-trip through the live server without
    ever dispatching to the worker pool."""

    def test_estimate_round_trips_without_pool_dispatch(self, server):
        with ServeClient(**server) as client:
            before = client.metrics()
            job = client.submit(
                {"kind": "estimate", "kernel": "spmv", "count": 2,
                 "seed": 5, "max_n": 96},
                wait=True, wait_timeout_s=30,
            )
            after = client.metrics()
        assert job["state"] == "done"
        result = job["result"]
        assert result["source"] == "fallback"  # server has no --model-dir
        assert result["unit_count"] == 2
        assert result["predicted_cycles_total"] > 0
        assert after["model_estimate_hits"] == before["model_estimate_hits"] + 1
        # the pool never saw the job: no work units were executed for it
        assert after["units_executed"] == before["units_executed"]

    def test_estimate_served_from_cli_trained_model(self, tmp_path):
        # a tiny sweep writes a self-describing journal...
        from repro.eval.harness import sweep_spmv
        from repro.eval.runner import RunnerConfig
        from repro.matrices.collection import small_collection

        journal = tmp_path / "sweep.jsonl"
        sweep_spmv(
            small_collection(count=4, max_n=96),
            formats=("csr",),
            runner=RunnerConfig(workers=1, journal_path=str(journal)),
        )

        # ...the CLI trains and stores a model from it...
        model_dir = tmp_path / "models"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        out = subprocess.run(
            [
                sys.executable, "-m", "repro.model", "train",
                "--journal", str(journal),
                "--model-dir", str(model_dir),
                "--n-estimators", "20", "--json",
            ],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        key = json.loads(out.stdout)["key"]

        # ...and a server started with --model-dir answers from it
        proc, addr = _spawn_server(
            tmp_path, "--model-dir", str(model_dir), name="model",
        )
        try:
            with ServeClient(**addr) as client:
                job = client.submit(
                    {"kind": "estimate", "kernel": "spmv", "count": 2,
                     "seed": 5, "max_n": 96},
                    wait=True, wait_timeout_s=30,
                )
                snap = client.metrics()
            assert job["state"] == "done"
            assert job["result"]["source"] == "model"
            assert job["result"]["model_key"] == key
            assert snap["model_estimate_hits"] == 1
            assert snap["units_executed"] == 0
        finally:
            _stop(proc)


class TestGracefulDrain:
    def test_sigterm_drains_inflight_and_reports_cancelled(self, tmp_path):
        proc, addr = _spawn_server(
            tmp_path, "--max-queue", "32", "--workers", "1",
            "--max-batch", "1", name="drain",
        )
        client = ServeClient(**addr, timeout_s=60)
        try:
            inflight = client.submit({"kind": "sleep", "duration_s": 1.0})
            time.sleep(0.3)  # let it dispatch
            queued = [
                client.submit({"kind": "sleep", "duration_s": 0.5})
                for _ in range(3)
            ]
            proc.send_signal(signal.SIGTERM)

            # every waiter still gets a response while the server drains
            done = client.result(inflight["job_id"], timeout_s=30)
            assert done["state"] == "done"
            for job in queued:
                final = client.result(job["job_id"], timeout_s=30)
                assert final["state"] in ("cancelled", "done")
                if final["state"] == "cancelled":
                    assert final["error"]["code"] == "drained"

            proc.wait(timeout=30)
            assert proc.returncode == 0
            stderr = proc.stderr.read()
            assert "drain" in stderr.lower()
        finally:
            client.close()
            _stop(proc)

    def test_submit_during_drain_is_refused(self, tmp_path):
        proc, addr = _spawn_server(
            tmp_path, "--workers", "1", "--max-batch", "1", name="drain2",
        )
        client = ServeClient(**addr, timeout_s=60)
        try:
            client.submit({"kind": "sleep", "duration_s": 1.0})
            time.sleep(0.3)
            proc.send_signal(signal.SIGTERM)
            time.sleep(0.2)
            with pytest.raises(ServeRequestError) as info:
                client.submit({"kind": "report"})
            assert info.value.payload["code"] == "draining"
            proc.wait(timeout=30)
            assert proc.returncode == 0
        finally:
            client.close()
            _stop(proc)
