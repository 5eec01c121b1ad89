"""Unit and property tests for the learned cost model (repro.model).

Covers the from-scratch tree ensemble (fit/predict sanity, seeded
determinism), dataset mining (journal lines and cache entries carry
enough context to featurize without rebuilding matrices), the
content-addressed artifact store (bit-identical predictions after
reload, corrupt artifacts rejected — including a hypothesis round-trip
property — and its on-disk key and envelope pinned by value), and the
guided-DSE differential: same ``best_config`` as the
exhaustive sweep while simulating at most half the configurations.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.eval.harness import sweep_spma, sweep_spmv
from repro.eval.runner import RunnerConfig
from repro.matrices.collection import small_collection
from repro.model import (
    FEATURE_NAMES,
    CostModel,
    GradientBoostedTrees,
    JobCostEstimator,
    ModelStore,
    RegressionTree,
    build_dataset,
    feature_vector,
    holdout_split,
    mape,
    mine,
    mine_cache,
    mine_journal,
)

pytestmark = pytest.mark.model


# ----------------------------------------------------------------------
# trees


def _toy(n=160, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 4))
    y = 4.0 * X[:, 0] - 2.0 * X[:, 1] * X[:, 2] + 0.05 * rng.random(n)
    return X, y


class TestRegressionTree:
    def test_fits_a_step_function_exactly(self):
        X = np.arange(8, dtype=float).reshape(-1, 1)
        y = np.where(X[:, 0] < 4, 1.0, 5.0)
        tree = RegressionTree.fit(X, y, max_depth=2, min_samples_leaf=1)
        assert np.array_equal(tree.predict(X), y)

    def test_reduces_error_over_the_mean(self):
        X, y = _toy()
        tree = RegressionTree.fit(X, y, max_depth=5)
        sse_tree = float(np.sum((tree.predict(X) - y) ** 2))
        sse_mean = float(np.sum((y - y.mean()) ** 2))
        assert sse_tree < 0.5 * sse_mean

    def test_payload_roundtrip_bit_identical(self):
        X, y = _toy()
        tree = RegressionTree.fit(X, y)
        clone = RegressionTree.from_payload(
            json.loads(json.dumps(tree.to_payload()))
        )
        assert np.array_equal(clone.predict(X), tree.predict(X))

    def test_malformed_payload_rejected(self):
        X, y = _toy(16)
        payload = RegressionTree.fit(X, y, max_depth=2).to_payload()
        ragged = dict(payload, feature=payload["feature"][:-1])
        with pytest.raises(ModelError):
            RegressionTree.from_payload(ragged)
        bad_child = dict(payload, left=[99] * len(payload["left"]))
        with pytest.raises(ModelError):
            RegressionTree.from_payload(bad_child)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ModelError):
            RegressionTree.fit(np.zeros((0, 3)), np.zeros(0))
        with pytest.raises(ModelError):
            RegressionTree.fit(np.zeros((4, 3)), np.zeros(5))


class TestGradientBoostedTrees:
    def test_improves_over_single_tree(self):
        X, y = _toy()
        one = RegressionTree.fit(X, y, max_depth=3)
        boosted = GradientBoostedTrees.fit(
            X, y, n_estimators=60, max_depth=3, seed=1
        )
        sse_one = float(np.sum((one.predict(X) - y) ** 2))
        sse_boost = float(np.sum((boosted.predict(X) - y) ** 2))
        assert sse_boost < sse_one

    def test_same_seed_is_bit_deterministic(self):
        X, y = _toy()
        a = GradientBoostedTrees.fit(X, y, n_estimators=25, seed=7)
        b = GradientBoostedTrees.fit(X, y, n_estimators=25, seed=7)
        assert a.to_payload() == b.to_payload()
        assert np.array_equal(a.predict(X), b.predict(X))

    def test_different_seed_differs(self):
        X, y = _toy()
        a = GradientBoostedTrees.fit(X, y, n_estimators=25, seed=7)
        b = GradientBoostedTrees.fit(X, y, n_estimators=25, seed=8)
        assert a.to_payload() != b.to_payload()

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ModelError):
            GradientBoostedTrees.from_payload(
                {"base_score": 0.0, "learning_rate": 0.1, "trees": []}
            )


class TestSplitsAndMetrics:
    def test_holdout_split_deterministic_and_disjoint(self):
        ids = [f"row-{i}" for i in range(64)]
        train, hold = holdout_split(64, ids, 0.25)
        train2, hold2 = holdout_split(64, ids, 0.25)
        assert np.array_equal(train, train2)
        assert np.array_equal(hold, hold2)
        assert set(train.tolist()).isdisjoint(hold.tolist())
        assert len(train) + len(hold) == 64
        assert 0 < len(hold) < 64

    def test_mape_ignores_nonpositive_truths(self):
        truth = np.array([0.0, 100.0])
        pred = np.array([50.0, 110.0])
        assert mape(truth, pred) == pytest.approx(0.1)


# ----------------------------------------------------------------------
# dataset mining (journal + cache carry features and context)


@pytest.fixture(scope="module")
def sweep_dirs(tmp_path_factory):
    base = tmp_path_factory.mktemp("model-sweeps")
    journal = str(base / "sweep.jsonl")
    cache = str(base / "cache")
    coll = small_collection(count=5, max_n=128)
    cfg = RunnerConfig(workers=1, cache_dir=cache, journal_path=journal)
    sweep_spmv(coll, formats=("csr", "csb"), runner=cfg)
    sweep_spma(coll, runner=cfg)
    return journal, cache


class TestDatasetMining:
    def test_journal_lines_are_self_describing(self, sweep_dirs):
        journal, _ = sweep_dirs
        lines = [
            json.loads(x)
            for x in open(journal, encoding="utf-8")
            if x.strip()
        ]
        assert lines
        for entry in lines:
            assert entry["record"]["features"]["nnz"] > 0
            assert "via" in entry and "machine" in entry
            assert entry["kernel"] in ("spmv", "spma")

    def test_mine_journal_rows(self, sweep_dirs):
        journal, _ = sweep_dirs
        rows = mine_journal(journal)
        # 5 matrices x (2 spmv formats + 1 spma format)
        assert len(rows) == 15
        assert all(r.cycles > 0 for r in rows)
        assert all(r.features.shape == (len(FEATURE_NAMES),) for r in rows)

    def test_cache_mining_matches_journal_mining(self, sweep_dirs):
        journal, cache = sweep_dirs
        from_journal = build_dataset(mine_journal(journal))
        from_cache = build_dataset(mine_cache(cache))
        assert from_journal.row_ids == from_cache.row_ids
        assert np.array_equal(from_journal.X, from_cache.X)
        assert np.array_equal(from_journal.y, from_cache.y)

    def test_duplicate_rows_deduplicate(self, sweep_dirs):
        journal, _ = sweep_dirs
        rows = mine_journal(journal)
        assert len(build_dataset(rows + rows)) == len(rows)

    def test_missing_journal_is_an_error(self, tmp_path):
        with pytest.raises(ModelError):
            mine_journal(str(tmp_path / "nope.jsonl"))

    def test_empty_mining_is_an_error(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ModelError):
            mine(journals=[str(empty)])

    def test_feature_vector_rejects_unknown_kernel_and_format(self):
        structure = {k: 1.0 for k in FEATURE_NAMES}
        via = {"sram_kb": 16, "ports": 2}
        machine = {"l1": {"size_kb": 32, "latency": 2}}
        with pytest.raises(ModelError):
            feature_vector(
                structure, kernel="gemm", fmt="csr", via=via, machine=machine
            )
        with pytest.raises(ModelError):
            feature_vector(
                structure, kernel="spmv", fmt="coo", via=via, machine=machine
            )


# ----------------------------------------------------------------------
# cost model + artifact store


class TestCostModelAndStore:
    @pytest.fixture(scope="class")
    def trained(self, sweep_dirs):
        journal, _ = sweep_dirs
        dataset = mine(journals=[journal])
        return dataset, CostModel.train(dataset, n_estimators=40)

    def test_holdout_metrics_present(self, trained):
        _, model = trained
        assert model.metrics["mape"] == model.metrics["mape"]  # not NaN
        assert set(model.metrics["per_kernel"]) == {"spmv", "spma"}

    def test_store_roundtrip_predictions_bit_identical(
        self, trained, tmp_path
    ):
        dataset, model = trained
        store = ModelStore(str(tmp_path / "models"))
        key = store.put(model.to_payload())
        clone = CostModel.from_payload(store.get(key))
        assert np.array_equal(clone.predict(dataset.X), model.predict(dataset.X))
        assert store.latest_key() == key
        assert store.keys() == [key]

    def test_identical_training_yields_identical_key(self, trained, tmp_path):
        dataset, model = trained
        again = CostModel.train(dataset, n_estimators=40)
        store = ModelStore(str(tmp_path / "models"))
        assert store.put(model.to_payload()) == store.put(again.to_payload())

    def test_corrupt_artifact_rejected_and_deleted(self, trained, tmp_path):
        _, model = trained
        store = ModelStore(str(tmp_path / "models"))
        key = store.put(model.to_payload())
        path = store._path(key)
        entry = json.loads(path.read_text())
        entry["payload"]["feature_names"][0] = "tampered"
        path.write_text(json.dumps(entry))
        with pytest.raises(ModelError):
            store.get(key)
        assert not path.exists()  # rot is deleted, never served

    def test_missing_key_rejected(self, tmp_path):
        with pytest.raises(ModelError):
            ModelStore(str(tmp_path / "models")).get("0" * 64)

    def test_feature_width_mismatch_rejected(self, trained):
        _, model = trained
        with pytest.raises(ModelError):
            model.predict(np.zeros((2, 3)))

    def test_estimator_falls_back_without_model(self, tmp_path):
        est = JobCostEstimator.load(str(tmp_path / "does-not-exist"))
        assert est.source == "fallback"
        out = est.estimate_workload(
            kernel="spmv", count=2, seed=2021, min_n=64, max_n=96,
            formats=("csr",), sram_kb=16, ports=2,
        )
        assert out["source"] == "fallback"
        assert out["predicted_cycles_total"] > 0
        # deterministic: same request, same answer
        again = est.estimate_workload(
            kernel="spmv", count=2, seed=2021, min_n=64, max_n=96,
            formats=("csr",), sram_kb=16, ports=2,
        )
        assert again == out


#: a fixed artifact payload and its content key, computed before the
#: storage code was consolidated; a drift would orphan every stored model
PIN_PAYLOAD = {"kind": "cost-model", "b": [1, 2.5], "a": {"z": 1, "y": None}}
PIN_KEY = "8a8749f2603aee2edaca6e0bc7cc628a2bc7b2a49d6ec9c84579cf8f301670fb"


class TestModelStoreFormat:
    def test_content_key_is_pinned(self, tmp_path):
        assert ModelStore(str(tmp_path)).put(PIN_PAYLOAD) == PIN_KEY

    def test_hand_written_artifact_reads_back(self, tmp_path):
        blob = json.dumps(PIN_PAYLOAD, sort_keys=True, separators=(",", ":"))
        checksum = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        assert checksum == PIN_KEY
        entry = {
            "format": 1,
            "key": PIN_KEY,
            "payload": PIN_PAYLOAD,
            "checksum": checksum,
        }
        path = tmp_path / PIN_KEY[:2] / f"{PIN_KEY}.json"
        path.parent.mkdir()
        path.write_text(json.dumps(entry, sort_keys=True))
        (tmp_path / "LATEST").write_text(PIN_KEY)
        store = ModelStore(str(tmp_path))
        assert store.get(PIN_KEY) == PIN_PAYLOAD
        assert store.get_latest() == PIN_PAYLOAD
        assert store.keys() == [PIN_KEY]


# hypothesis property: the artifact serialize/load round trip is lossless
# for arbitrary (well-formed) training data, and predictions after reload
# are bit-identical on unseen inputs.
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n=st.integers(min_value=8, max_value=48),
    k=st.integers(min_value=1, max_value=5),
)
def test_artifact_roundtrip_property(seed, n, k):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, k))
    y = rng.random(n) * 10 + 0.1
    model = GradientBoostedTrees.fit(
        X, y, n_estimators=5, max_depth=3, seed=seed
    )
    wire = json.dumps(model.to_payload(), sort_keys=True)
    clone = GradientBoostedTrees.from_payload(json.loads(wire))
    probe = rng.standard_normal((16, k))
    assert np.array_equal(clone.predict(probe), model.predict(probe))
    # and a second dump is byte-stable (content-addressing relies on it)
    assert json.dumps(clone.to_payload(), sort_keys=True) == wire


# ----------------------------------------------------------------------
# guided DSE differential


class TestGuidedDse:
    def test_guided_matches_exhaustive_best_config(self, tmp_path):
        from repro.eval.dse import run_dse

        journal = str(tmp_path / "dse.jsonl")
        # deterministic end to end: this workload/seed/tree-count triple
        # is pinned, so ranking success is reproducible, not luck — the
        # full-size differential lives in benchmarks/bench_model.py
        coll = small_collection(count=4, max_n=160)
        exhaustive = run_dse(
            coll,
            runner=RunnerConfig(workers=1, journal_path=journal),
            spmm_max_n=160,
        )
        model = CostModel.train(mine(journals=[journal]), n_estimators=60)
        guided = run_dse(
            coll, strategy="guided", model=model, spmm_max_n=160
        )
        assert guided.strategy == "guided"
        assert guided.simulated_fraction() <= 0.5
        for kernel in exhaustive.cycles:
            assert guided.best_config(kernel) == exhaustive.best_config(kernel)
            for name, cycles in guided.cycles[kernel].items():
                # survivors are simulated, not predicted: bit-identical
                assert cycles == exhaustive.cycles[kernel][name]
            assert set(guided.predicted[kernel]) == set(
                exhaustive.cycles[kernel]
            )

    def test_unknown_strategy_rejected(self):
        from repro.eval.dse import run_dse

        with pytest.raises(ValueError):
            run_dse(small_collection(count=1), strategy="bogus")

    def test_bad_keep_rejected(self):
        from repro.eval.dse import run_dse

        with pytest.raises(ValueError):
            run_dse(
                small_collection(count=1), strategy="guided", guided_keep=0.0
            )
