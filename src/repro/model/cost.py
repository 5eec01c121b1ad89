"""The trained cost model and its serving-side estimator.

:class:`CostModel` wraps the gradient-boosted ensemble with the artifact
contract: it trains on **log** cycles (targets span four orders of
magnitude across matrix sizes; squared loss on raw cycles would fit only
the largest), predicts raw cycles by exponentiating, and packs/unpacks a
pure-JSON payload whose integrity the :class:`~repro.model.store.
ModelStore` guards.  Feature order is pinned to
:data:`~repro.model.dataset.FEATURE_NAMES` — an artifact trained against
a different feature set is refused at load, not silently mis-indexed.

:class:`JobCostEstimator` is what the serve scheduler and guided DSE
consume: given a workload description (kernel, collection parameters,
VIA geometry) it featurizes every unit exactly the way the dataset miner
does and predicts cycles in one vectorized call.  It always works — with
no trained artifact it falls back to a deterministic analytic estimate
(cycles proportional to nnz with per-kernel/format factors), flagged
``source="fallback"`` so callers can tell a learned answer from a guess.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError
from repro.model.dataset import (
    Dataset,
    feature_vector,
    spec_structure_features,
)
from repro.model.trees import FloatArray, GradientBoostedTrees, mape

#: bump when the artifact payload schema changes shape
ARTIFACT_FORMAT = 1
ARTIFACT_KIND = "gbrt"

#: analytic fallback: cycles ≈ kernel_factor × format_factor × nnz + row tax
_FALLBACK_KERNEL = {"spmv": 4.0, "spma": 6.0, "spmm": 24.0}
_FALLBACK_FORMAT = {"csr": 1.0, "csb": 0.8, "spc5": 0.9, "sellcs": 0.9}
_FALLBACK_ROW_TAX = 10.0


@dataclass(frozen=True)
class CostModel:
    """A trained ensemble plus the metadata that makes it an artifact."""

    ensemble: GradientBoostedTrees
    feature_names: Tuple[str, ...]
    training: Dict[str, Any]
    metrics: Dict[str, Any]

    # ------------------------------------------------------------------
    @classmethod
    def train(
        cls,
        dataset: Dataset,
        *,
        holdout_fraction: float = 0.25,
        n_estimators: int = 150,
        learning_rate: float = 0.1,
        max_depth: int = 4,
        min_samples_leaf: int = 2,
        subsample: float = 0.8,
        seed: int = 7,
    ) -> "CostModel":
        """Train on the identity-hashed train split, score on the holdout.

        Deterministic end to end: the split hashes row ids, the boosting
        subsampler is seeded, and tree construction tie-breaks stably —
        the same dataset at the same settings yields a byte-identical
        artifact (and therefore the same store key).
        """
        if len(dataset) < 4:
            raise ModelError(
                f"need at least 4 training rows, got {len(dataset)}"
            )
        train, holdout = dataset.split(holdout_fraction)
        score_on = holdout if len(holdout) else train
        ensemble = GradientBoostedTrees.fit(
            train.X,
            np.log(train.y),
            n_estimators=n_estimators,
            learning_rate=learning_rate,
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            subsample=subsample,
            seed=seed,
        )
        model = cls(
            ensemble=ensemble,
            feature_names=tuple(dataset.feature_names),
            training={
                "rows": len(train),
                "holdout_rows": len(holdout),
                "holdout_fraction": float(holdout_fraction),
                "seed": int(seed),
                "params": {
                    "n_estimators": int(n_estimators),
                    "learning_rate": float(learning_rate),
                    "max_depth": int(max_depth),
                    "min_samples_leaf": int(min_samples_leaf),
                    "subsample": float(subsample),
                },
            },
            metrics={},
        )
        scored = model.evaluate(score_on)
        scored["scored_on"] = "holdout" if len(holdout) else "train"
        # dataclass is frozen; metrics dict is the one mutable pocket,
        # filled exactly once here
        model.metrics.update(scored)
        return model

    # ------------------------------------------------------------------
    def predict(self, X: FloatArray) -> FloatArray:
        """Predicted cycles (raw, not log) for rows in FEATURE_NAMES order."""
        mat = np.asarray(X, dtype=np.float64)
        if mat.ndim == 1:
            mat = mat.reshape(1, -1)
        if mat.shape[1] != len(self.feature_names):
            raise ModelError(
                f"feature-set mismatch: model expects "
                f"{len(self.feature_names)} features, got {mat.shape[1]}"
            )
        return np.exp(self.ensemble.predict(mat))

    def evaluate(self, dataset: Dataset) -> Dict[str, Any]:
        """Holdout-style accuracy: overall MAPE plus per-kernel breakdown."""
        if tuple(dataset.feature_names) != self.feature_names:
            raise ModelError(
                "feature-set mismatch between model and dataset"
            )
        pred = self.predict(dataset.X)
        kernels = np.asarray(dataset.kernels)
        per_kernel: Dict[str, Any] = {}
        for kernel in sorted(set(dataset.kernels)):
            mask = kernels == kernel
            per_kernel[kernel] = {
                "rows": int(mask.sum()),
                "mape": mape(dataset.y[mask], pred[mask]),
            }
        return {
            "rows": len(dataset),
            "mape": mape(dataset.y, pred),
            "per_kernel": per_kernel,
        }

    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """Pure-JSON artifact payload; round-trips bit-identically."""
        return {
            "format": ARTIFACT_FORMAT,
            "kind": ARTIFACT_KIND,
            "target": "via_cycles",
            "log_target": True,
            "feature_names": list(self.feature_names),
            "ensemble": self.ensemble.to_payload(),
            "training": self.training,
            "metrics": self.metrics,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "CostModel":
        """Rebuild from an artifact payload, strictly validated."""
        if not isinstance(payload, Mapping):
            raise ModelError("model artifact payload must be an object")
        if payload.get("format") != ARTIFACT_FORMAT:
            raise ModelError(
                f"unsupported artifact format {payload.get('format')!r}"
            )
        if payload.get("kind") != ARTIFACT_KIND:
            raise ModelError(
                f"unsupported artifact kind {payload.get('kind')!r}"
            )
        names = payload.get("feature_names")
        if (
            not isinstance(names, (list, tuple))
            or not names
            or not all(isinstance(n, str) for n in names)
        ):
            raise ModelError("artifact feature_names must be a string list")
        try:
            ensemble = GradientBoostedTrees.from_payload(payload["ensemble"])
        except KeyError as exc:
            raise ModelError("artifact is missing its ensemble") from exc
        return cls(
            ensemble=ensemble,
            feature_names=tuple(names),
            training=dict(payload.get("training", {})),
            metrics=dict(payload.get("metrics", {})),
        )


# ----------------------------------------------------------------------
# workload estimation (guided DSE ranking, serve `estimate` jobs)


def _fallback_cycles(
    structure: Mapping[str, float], kernel: str, fmt: str
) -> float:
    """Deterministic analytic estimate used when no model is loaded."""
    nnz = float(structure.get("nnz", 0.0))
    rows = float(structure.get("rows", 0.0))
    factor = _FALLBACK_KERNEL.get(kernel, 8.0) * _FALLBACK_FORMAT.get(fmt, 1.0)
    return factor * nnz + _FALLBACK_ROW_TAX * rows


class JobCostEstimator:
    """Predicts workload cost without simulating anything.

    Holds an optional :class:`CostModel`; with none (or a feature-set
    mismatch at predict time) every answer comes from the analytic
    fallback and says so.  Spec featurization is memoized per (matrix
    spec, CSB block size) in :mod:`repro.model.dataset`, so the warm
    path is pure dictionary lookups plus one vectorized tree descent —
    microseconds, never touching a worker.
    """

    def __init__(
        self,
        model: Optional[CostModel] = None,
        *,
        model_key: Optional[str] = None,
    ):
        self.model = model
        self.model_key = model_key

    @classmethod
    def load(cls, model_dir: Optional[str]) -> "JobCostEstimator":
        """Estimator backed by the store's LATEST artifact.

        A missing directory or empty store yields a fallback-only
        estimator (serving must come up before any model is trained);
        a *corrupt* LATEST artifact still raises — rot is never served.
        """
        if not model_dir:
            return cls()
        from repro.model.store import ModelStore

        store = ModelStore(model_dir)
        key = store.latest_key()
        if key is None:
            return cls()
        return cls(CostModel.from_payload(store.get(key)), model_key=key)

    @property
    def source(self) -> str:
        return "model" if self.model is not None else "fallback"

    # ------------------------------------------------------------------
    def predict_units(
        self,
        units: Sequence[Tuple[str, Dict[str, float]]],
        *,
        kernel: str,
        fmt: str,
        via: Mapping[str, Any],
        machine: Mapping[str, Any],
    ) -> List[float]:
        """Cycles for ``(name, structure_features)`` units, one batch."""
        if not units:
            return []
        if self.model is not None:
            X = np.stack(
                [
                    feature_vector(
                        structure, kernel=kernel, fmt=fmt,
                        via=via, machine=machine,
                    )
                    for _, structure in units
                ]
            )
            return [float(v) for v in self.model.predict(X)]
        return [
            _fallback_cycles(structure, kernel, fmt)
            for _, structure in units
        ]

    def estimate_workload(
        self,
        *,
        kernel: str,
        count: int,
        seed: int,
        min_n: int,
        max_n: int,
        formats: Sequence[str],
        sram_kb: int,
        ports: int,
    ) -> Dict[str, Any]:
        """Estimate a simulate-shaped workload; the ``estimate`` job body.

        Mirrors the serve execution path's unit construction (same
        collection sampler, same per-kernel format conventions) so the
        estimate prices exactly the units ``simulate`` would run.
        """
        from repro.matrices.collection import MatrixCollection
        from repro.sim.config import DEFAULT_MACHINE
        from repro.via.config import ViaConfig

        collection = MatrixCollection(count, seed=seed, min_n=min_n, max_n=max_n)
        via_cfg = ViaConfig(sram_kb, ports)
        via = {"sram_kb": via_cfg.sram_kb, "ports": via_cfg.ports}
        machine = dataclasses.asdict(DEFAULT_MACHINE)
        fmts = tuple(formats) if kernel == "spmv" else ("csr",)
        featurized = [
            (
                spec.name,
                spec_structure_features(
                    spec, block_size=via_cfg.csb_block_size
                ),
            )
            for spec in collection.specs
        ]
        units: List[Dict[str, Any]] = []
        total = 0.0
        for fmt in fmts:
            cycles = self.predict_units(
                featurized, kernel=kernel, fmt=fmt, via=via, machine=machine
            )
            for (name, structure), value in zip(featurized, cycles):
                units.append(
                    {
                        "name": name,
                        "format": fmt,
                        "n": int(structure["rows"]),
                        "nnz": int(structure["nnz"]),
                        "predicted_cycles": value,
                    }
                )
                total += value
        return {
            "source": self.source,
            "model_key": self.model_key,
            "kernel": kernel,
            "unit_count": len(units),
            "units": units,
            "predicted_cycles_total": total,
        }

    # ------------------------------------------------------------------
    def admission_cost(self, spec: Any) -> float:
        """Predicted cost (in cycles) of one job for queue accounting.

        Duck-typed over :class:`~repro.serve.jobs.JobSpec` so the model
        package never imports the serve layer.  Sim-family jobs price
        their actual units (sweeps once per port configuration); report
        and sleep jobs get small fixed costs so a cost budget still
        admits them under load.
        """
        kind = getattr(spec, "kind", None)
        if kind == "report":
            return 1.0e6
        if kind == "sleep":
            return 1.0e6 * (1.0 + float(getattr(spec, "duration_s", 0.0)))
        if kind not in ("simulate", "replay", "sweep", "estimate"):
            return 1.0e6
        estimate = self.estimate_workload(
            kernel=spec.kernel,
            count=spec.count,
            seed=spec.seed,
            min_n=spec.min_n,
            max_n=spec.max_n,
            formats=spec.formats,
            sram_kb=spec.sram_kb,
            ports=spec.ports,
        )
        total = float(estimate["predicted_cycles_total"])
        if kind == "sweep":
            total *= max(1, len(getattr(spec, "port_sweep", ()) or ()))
        return total
