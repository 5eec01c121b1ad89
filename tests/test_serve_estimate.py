"""Estimate jobs and cost-aware admission in the scheduler.

``estimate`` jobs must resolve synchronously at admission — terminal
before ``submit`` returns, zero work units executed, the worker pool
never touched.  Cost-aware admission (``max_queue_cost``) sheds on a
predicted-cycle budget on top of the slot budget, releases cost when
jobs leave the queue, and orders batches cheapest-first within a
priority level.  The worker-side guard is pinned too: an estimate spec
reaching :func:`repro.serve.execution.execute_request` is a dispatch
bug and raises.
"""

import asyncio

import pytest

from repro.errors import AdmissionError, ServeError
from repro.serve.execution import execute_request
from repro.serve.jobs import JobSpec, JobState
from repro.serve.scheduler import Scheduler, ServiceConfig

pytestmark = pytest.mark.model


def run(coro):
    return asyncio.run(coro)


def estimate_spec(**kw):
    payload = {"kind": "estimate", "kernel": "spmv", "count": 2,
               "min_n": 64, "max_n": 96, "formats": ["csr"]}
    payload.update(kw)
    return JobSpec.from_payload(payload)


def sim_spec(**kw):
    payload = {"kind": "simulate", "kernel": "spmv", "count": 1,
               "min_n": 64, "max_n": 96, "formats": ["csr"]}
    payload.update(kw)
    return JobSpec.from_payload(payload)


class TestEstimateJobs:
    def test_estimate_is_a_valid_kind(self):
        spec = estimate_spec()
        assert spec.kind == "estimate"
        # workload validation applies: bad kernel still rejected
        with pytest.raises(ServeError):
            estimate_spec(kernel="gemm")
        # replay-only knobs stay rejected
        with pytest.raises(ServeError):
            estimate_spec(engine="columnar")

    def test_resolves_synchronously_without_pool(self):
        async def case():
            s = Scheduler(ServiceConfig(executor_workers=1))
            # no start(): there is no batcher and no pool process yet —
            # the estimate must still answer
            job = s.submit(estimate_spec())
            assert job.terminal
            assert job.state is JobState.DONE
            assert job.result["source"] == "fallback"
            assert job.result["unit_count"] == 2
            assert job.result["predicted_cycles_total"] > 0
            assert job.result["predict_s"] >= 0
            snap = s.metrics.snapshot()
            assert snap["model_estimate_hits"] == 1
            assert snap["units_executed"] == 0
            assert snap["jobs_inflight"] == 0
            assert s.queue_depth == 0
            await s.stop()

        run(case())

    def test_estimate_waits_resolve_immediately(self):
        async def case():
            s = Scheduler(ServiceConfig(executor_workers=1))
            job = s.submit(estimate_spec())
            done = await s.wait(job.job_id, timeout=1)
            assert done.state is JobState.DONE
            await s.stop()

        run(case())

    def test_worker_refuses_estimate_dispatch(self, tmp_path):
        with pytest.raises(ServeError) as info:
            execute_request(
                {
                    "spec": estimate_spec().to_payload(),
                    "cache_dir": str(tmp_path),
                    "record_dir": str(tmp_path),
                }
            )
        assert info.value.code == "internal"


class TestCostAwareAdmission:
    def test_budget_sheds_second_job(self):
        async def case():
            s = Scheduler(
                ServiceConfig(executor_workers=1, max_queue_cost=1.0)
            )
            first = s.submit(sim_spec())  # over budget but queue is empty
            assert s.metrics.snapshot()["model_cost_admissions"] == 1
            with pytest.raises(AdmissionError) as info:
                s.submit(sim_spec())
            assert info.value.code == "queue_full"
            snap = s.metrics.snapshot()
            assert snap["model_cost_shed"] == 1
            assert snap["model_queue_cost"] > 0
            assert not first.terminal
            await s.stop()

        run(case())

    def test_cancel_releases_queue_cost(self):
        async def case():
            s = Scheduler(
                ServiceConfig(executor_workers=1, max_queue_cost=1e12)
            )
            job = s.submit(sim_spec())
            assert s.metrics.snapshot()["model_queue_cost"] > 0
            s.cancel(job.job_id)
            assert s.metrics.snapshot()["model_queue_cost"] == 0
            # budget restored: a new submit admits again
            s.submit(sim_spec())
            await s.stop()

        run(case())

    def test_drain_releases_queue_cost(self):
        async def case():
            s = Scheduler(
                ServiceConfig(executor_workers=1, max_queue_cost=1e12)
            )
            s.submit(sim_spec())
            await s.drain()
            assert s.metrics.snapshot()["model_queue_cost"] == 0
            assert s.stats()["queue_cost"] == 0
            await s.stop()

        run(case())

    def test_prediction_latency_is_recorded(self):
        async def case():
            s = Scheduler(
                ServiceConfig(executor_workers=1, max_queue_cost=1e12)
            )
            s.submit(sim_spec())
            s.submit(estimate_spec())
            hist = s.metrics.snapshot()["model_predict_seconds"]
            assert hist["count"] == 2
            await s.stop()

        run(case())

    def test_flat_accounting_unchanged_by_default(self):
        async def case():
            s = Scheduler(ServiceConfig(executor_workers=1))
            s.submit(sim_spec())
            s.submit(sim_spec())
            snap = s.metrics.snapshot()
            assert snap["model_cost_admissions"] == 0
            assert snap["model_queue_cost"] == 0
            # queue entries carry cost 0.0 so ordering is pure
            # (-priority, seq) exactly as before
            assert [entry[1] for entry in s._queue] == [0.0, 0.0]
            await s.stop()

        run(case())

    def test_invalid_budget_rejected(self):
        with pytest.raises(ServeError):
            ServiceConfig(max_queue_cost=0.0)

    def test_cheapest_first_within_priority(self):
        async def case():
            s = Scheduler(
                ServiceConfig(executor_workers=1, max_queue_cost=1e12)
            )
            big = s.submit(sim_spec(count=8))
            small = s.submit(sim_spec(count=1))
            entries = sorted(s._queue)
            assert [e[3].job_id for e in entries] == [
                small.job_id, big.job_id,
            ]
            # priority still dominates cost
            urgent = s.submit(sim_spec(count=8, priority=5))
            entries = sorted(s._queue)
            assert entries[0][3].job_id == urgent.job_id
            await s.stop()

        run(case())


class TestModelBackedEstimate:
    def test_estimate_uses_stored_model(self, tmp_path):
        import numpy as np

        from repro.model import CostModel, ModelStore
        from repro.model.dataset import FEATURE_NAMES, Dataset

        rng = np.random.default_rng(3)
        n = 32
        dataset = Dataset(
            X=rng.random((n, len(FEATURE_NAMES))),
            y=rng.random(n) * 1000 + 100,
            feature_names=tuple(FEATURE_NAMES),
            row_ids=tuple(f"r{i}" for i in range(n)),
            kernels=("spmv",) * n,
        )
        model = CostModel.train(dataset, n_estimators=5)
        store_dir = str(tmp_path / "models")
        key = ModelStore(store_dir).put(model.to_payload())

        async def case():
            s = Scheduler(
                ServiceConfig(executor_workers=1, model_dir=store_dir)
            )
            assert s.stats()["model"] == {"source": "model", "key": key}
            job = s.submit(estimate_spec())
            assert job.state is JobState.DONE
            assert job.result["source"] == "model"
            assert job.result["model_key"] == key
            await s.stop()

        run(case())
