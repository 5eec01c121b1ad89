"""Design-space exploration — regenerates Figure 9 and Table II.

Figure 9 sweeps the four SSPM configurations (4_2p, 4_4p, 16_2p, 16_4p)
over the three sparse kernels and reports each kernel's speedup normalized
to its own 4_2p configuration.  Table II pairs those configurations with
their synthesized area and leakage (see :mod:`repro.via.area`).

With ``record_dir`` set, the sweep runs in record/replay mode over the
op-stream IR (:mod:`repro.sim.ops`): each matrix×kernel executes *once per
stream-shape group* (the four configurations collapse into two — SSPM
ports never shape the op stream), and every configuration re-prices the
recorded streams.  Results are bit-identical to direct execution; only the
wall time changes, from O(configs × full runs) to
O(shape groups × full runs + configs × cheap replays).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.eval.harness import geomean, sweep_spma, sweep_spmm, sweep_spmv
from repro.matrices.collection import MatrixCollection
from repro.sim.config import DEFAULT_MACHINE, MachineConfig
from repro.via.config import ViaConfig, dse_configs

if TYPE_CHECKING:
    from repro.eval.runner import RunnerConfig

DSE_KERNELS = ("spmv", "spma", "spmm")


@dataclass(frozen=True)
class DseResult:
    """Per-kernel mean VIA cycles for every configuration swept.

    Under ``strategy="guided"`` only the model-ranked survivors were
    simulated: ``cycles`` holds just those entries (bit-identical to
    their exhaustive counterparts), ``predicted`` holds the model's
    ranking scores for *every* candidate, and ``simulated`` names the
    survivors per kernel.  Exhaustive results leave the guided fields at
    their defaults, so existing consumers are untouched.
    """

    #: kernel -> config name -> geomean VIA cycles over the collection
    cycles: Dict[str, Dict[str, float]]
    baseline_config: str = "4_2p"
    strategy: str = "exhaustive"
    #: every candidate config name, in sweep order
    candidates: Tuple[str, ...] = ()
    #: kernel -> config names actually simulated (guided survivors)
    simulated: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: kernel -> config name -> model-predicted geomean cycles
    predicted: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def normalized_speedup(self, kernel: str) -> Dict[str, float]:
        """Figure 9's y-axis: speedup of each config over 4_2p.

        Guided results only support this when the baseline survived the
        halving for ``kernel`` (a ``KeyError`` otherwise — there is no
        simulated baseline to normalize against).
        """
        per_config = self.cycles[kernel]
        base = per_config[self.baseline_config]
        return {name: base / c for name, c in per_config.items()}

    def best_config(self, kernel: str) -> str:
        per_config = self.cycles[kernel]
        return min(per_config, key=per_config.get)

    def simulated_fraction(self) -> float:
        """Simulated kernel×config cells over candidate cells (1.0 = all)."""
        if not self.candidates:
            return 1.0
        total = len(self.candidates) * len(self.cycles)
        done = sum(len(v) for v in self.cycles.values())
        return done / total if total else 1.0


def _dse_unit_lists(
    kernel: str,
    collection: MatrixCollection,
    cfg: ViaConfig,
    machine: MachineConfig,
    limit: Optional[int],
    spmm_collection: Optional[MatrixCollection],
    spmm_max_n: int,
    validate: bool = False,
):
    """The work-unit list and metric format for one kernel×config cell."""
    from repro.eval.units import spma_units, spmm_units, spmv_units

    if kernel == "spmv":
        units = spmv_units(
            collection,
            formats=("csb",),
            machine=machine,
            via_config=cfg,
            limit=limit,
            validate=validate,
        )
        return units, "csb"
    if kernel == "spma":
        units = spma_units(
            collection, machine=machine, via_config=cfg, limit=limit,
            validate=validate,
        )
        return units, "csr"
    units = spmm_units(
        spmm_collection if spmm_collection is not None else collection,
        machine=machine,
        via_config=cfg,
        limit=limit,
        max_n=spmm_max_n,
        validate=validate,
    )
    return units, "csr"


def run_dse(
    collection: MatrixCollection,
    *,
    configs: Optional[List[ViaConfig]] = None,
    machine: MachineConfig = DEFAULT_MACHINE,
    limit: Optional[int] = None,
    spmm_collection: Optional[MatrixCollection] = None,
    spmm_max_n: int = 1024,
    runner: Optional["RunnerConfig"] = None,
    record_dir: Optional[str] = None,
    validate: bool = False,
    strategy: str = "exhaustive",
    model: Any = None,
    guided_keep: float = 0.5,
) -> DseResult:
    """Sweep every configuration over the three kernels (Figure 9).

    SpMV runs the CSB flow (the paper's DSE uses the best-performing
    format); SpMA and SpMM run the CSR flows.  CSB block sizes follow each
    configuration (half the SSPM), so the sweep captures the capacity
    effect as well as the port effect.

    ``runner`` is forwarded to every underlying sweep — the DSE re-sweeps
    the same collection once per configuration, so a cached parallel
    :class:`~repro.eval.runner.RunnerConfig` pays off most here.

    ``record_dir`` switches to record/replay mode: each matrix×kernel runs
    functionally once per SSPM-capacity group, writing op-stream artifacts
    into that directory, and every configuration is priced by replaying
    them (bit-identical to the direct sweep, see
    ``tests/test_ops_replay_differential.py``).

    ``validate`` routes every op (direct, record, and replay) through the
    runtime invariant checker
    (:class:`~repro.sim.backends.InvariantBackend`).

    ``strategy="guided"`` prunes the sweep with the learned cost model
    (:mod:`repro.model`): per kernel, every candidate is *ranked* by
    predicted geomean cycles and the candidate pool is successively
    halved down to ``ceil(len(configs) × guided_keep)`` survivors, which
    are the only configurations simulated.  Survivor cycle counts are
    bit-identical to the exhaustive sweep's (same units, same cache
    keys); only the pruned cells are absent.  ``model`` may be a
    :class:`~repro.model.cost.CostModel`, a
    :class:`~repro.model.cost.JobCostEstimator`, a model-store directory
    path, or ``None`` (the deterministic analytic fallback).
    """
    configs = list(configs) if configs is not None else dse_configs()
    if strategy not in ("exhaustive", "guided"):
        raise ValueError(
            f"unknown DSE strategy {strategy!r}; "
            "expected 'exhaustive' or 'guided'"
        )
    if strategy == "guided":
        return _run_dse_guided(
            collection,
            configs=configs,
            machine=machine,
            limit=limit,
            spmm_collection=spmm_collection,
            spmm_max_n=spmm_max_n,
            runner=runner,
            record_dir=record_dir,
            validate=validate,
            model=model,
            keep=guided_keep,
        )
    if record_dir is not None:
        return _run_dse_replay(
            collection,
            configs=configs,
            machine=machine,
            limit=limit,
            spmm_collection=spmm_collection,
            spmm_max_n=spmm_max_n,
            runner=runner,
            record_dir=record_dir,
            validate=validate,
        )
    cycles: Dict[str, Dict[str, float]] = {k: {} for k in DSE_KERNELS}
    for cfg in configs:
        spmv_recs = sweep_spmv(
            collection,
            formats=("csb",),
            machine=machine,
            via_config=cfg,
            limit=limit,
            runner=runner,
            validate=validate,
        )
        cycles["spmv"][cfg.name] = geomean(
            r.via_cycles["csb"] for r in spmv_recs
        )
        spma_recs = sweep_spma(
            collection, machine=machine, via_config=cfg, limit=limit,
            runner=runner, validate=validate,
        )
        cycles["spma"][cfg.name] = geomean(
            r.via_cycles["csr"] for r in spma_recs
        )
        spmm_recs = sweep_spmm(
            spmm_collection if spmm_collection is not None else collection,
            machine=machine,
            via_config=cfg,
            limit=limit,
            max_n=spmm_max_n,
            runner=runner,
            validate=validate,
        )
        cycles["spmm"][cfg.name] = geomean(
            r.via_cycles["csr"] for r in spmm_recs
        )
    return DseResult(cycles=cycles)


def _run_dse_replay(
    collection: MatrixCollection,
    *,
    configs: List[ViaConfig],
    machine: MachineConfig,
    limit: Optional[int],
    spmm_collection: Optional[MatrixCollection],
    spmm_max_n: int,
    runner: Optional["RunnerConfig"],
    record_dir: str,
    validate: bool = False,
) -> DseResult:
    """Record once per stream-shape group, replay once per configuration."""
    from repro.eval.harness import _run
    from repro.eval.units import record_units, replay_units

    # one representative per shape group: ports never shape the op stream,
    # so configs differing only in ports share recordings
    representatives: Dict[int, ViaConfig] = {}
    for cfg in configs:
        representatives.setdefault(cfg.sram_kb, cfg)
    for rep in representatives.values():
        for kernel in DSE_KERNELS:
            units, _ = _dse_unit_lists(
                kernel, collection, rep, machine, limit,
                spmm_collection, spmm_max_n, validate,
            )
            _run(record_units(units, record_dir=record_dir), runner, None)
    cycles: Dict[str, Dict[str, float]] = {k: {} for k in DSE_KERNELS}
    for cfg in configs:
        for kernel in DSE_KERNELS:
            units, fmt = _dse_unit_lists(
                kernel, collection, cfg, machine, limit,
                spmm_collection, spmm_max_n, validate,
            )
            recs = _run(
                replay_units(units, record_dir=record_dir),
                runner,
                None,
            )
            cycles[kernel][cfg.name] = geomean(
                r.via_cycles[fmt] for r in recs
            )
    return DseResult(cycles=cycles)


# ----------------------------------------------------------------------
# model-guided search


def _resolve_estimator(model: Any):
    """Accept a CostModel, an estimator, a store path, or None."""
    from repro.model.cost import CostModel, JobCostEstimator

    if model is None:
        return JobCostEstimator()
    if isinstance(model, JobCostEstimator):
        return model
    if isinstance(model, CostModel):
        return JobCostEstimator(model)
    if isinstance(model, str):
        return JobCostEstimator.load(model)
    raise TypeError(
        f"model must be a CostModel, JobCostEstimator, store path, or "
        f"None, got {type(model).__name__}"
    )


def _kernel_specs(
    kernel: str,
    collection: MatrixCollection,
    limit: Optional[int],
    spmm_collection: Optional[MatrixCollection],
    spmm_max_n: int,
):
    """The matrix specs one kernel's sweep actually simulates."""
    source = (
        spmm_collection
        if kernel == "spmm" and spmm_collection is not None
        else collection
    )
    specs = source.specs
    if limit is not None:
        specs = specs[:limit]
    if kernel == "spmm":
        specs = [s for s in specs if s.n <= spmm_max_n]
    return specs


def _predicted_geomean(
    estimator: Any,
    kernel: str,
    fmt: str,
    cfg: ViaConfig,
    machine: MachineConfig,
    specs,
) -> float:
    """Model-predicted geomean VIA cycles for one kernel×config cell."""
    import dataclasses

    from repro.model.dataset import spec_structure_features

    featurized = [
        (s.name, spec_structure_features(s, block_size=cfg.csb_block_size))
        for s in specs
    ]
    cycles = estimator.predict_units(
        featurized,
        kernel=kernel,
        fmt=fmt,
        via={"sram_kb": cfg.sram_kb, "ports": cfg.ports},
        machine=dataclasses.asdict(machine),
    )
    return geomean(cycles, warn_label=f"guided DSE predict {kernel}")


def _run_dse_guided(
    collection: MatrixCollection,
    *,
    configs: List[ViaConfig],
    machine: MachineConfig,
    limit: Optional[int],
    spmm_collection: Optional[MatrixCollection],
    spmm_max_n: int,
    runner: Optional["RunnerConfig"],
    record_dir: Optional[str],
    validate: bool,
    model: Any,
    keep: float,
) -> DseResult:
    """Rank by predicted cycles, halve to survivors, simulate survivors.

    The halving schedule: per kernel, the candidate pool (ordered by
    predicted geomean cycles, best first) is cut in half each rung until
    it reaches ``ceil(len(configs) × keep)``.  With the paper's four
    Figure 9 configurations and the default ``keep=0.5`` that is one
    rung to two survivors — half the simulation work of the exhaustive
    sweep, per kernel.
    """
    if not (0.0 < keep <= 1.0):
        raise ValueError(f"guided_keep must be in (0, 1], got {keep}")
    from repro.eval.harness import _run
    from repro.eval.units import record_units, replay_units

    estimator = _resolve_estimator(model)
    target = max(1, math.ceil(len(configs) * keep))
    predicted: Dict[str, Dict[str, float]] = {}
    survivors: Dict[str, List[ViaConfig]] = {}
    for kernel in DSE_KERNELS:
        fmt = "csb" if kernel == "spmv" else "csr"
        specs = _kernel_specs(
            kernel, collection, limit, spmm_collection, spmm_max_n
        )
        scores = {
            cfg.name: _predicted_geomean(
                estimator, kernel, fmt, cfg, machine, specs
            )
            for cfg in configs
        }
        predicted[kernel] = scores
        # successive halving on the static ranking: candidate order is
        # (score, sweep position) so prediction ties resolve stably
        order = {cfg.name: i for i, cfg in enumerate(configs)}
        pool = sorted(configs, key=lambda c: (scores[c.name], order[c.name]))
        while len(pool) > target:
            pool = pool[: max(target, (len(pool) + 1) // 2)]
        survivors[kernel] = sorted(pool, key=lambda c: order[c.name])

    cycles: Dict[str, Dict[str, float]] = {k: {} for k in DSE_KERNELS}
    for kernel in DSE_KERNELS:
        fmt = "csb" if kernel == "spmv" else "csr"
        if record_dir is not None:
            # record once per surviving capacity group, then replay
            reps: Dict[int, ViaConfig] = {}
            for cfg in survivors[kernel]:
                reps.setdefault(cfg.sram_kb, cfg)
            for rep in reps.values():
                units, _ = _dse_unit_lists(
                    kernel, collection, rep, machine, limit,
                    spmm_collection, spmm_max_n, validate,
                )
                _run(
                    record_units(units, record_dir=record_dir), runner, None
                )
        for cfg in survivors[kernel]:
            units, _ = _dse_unit_lists(
                kernel, collection, cfg, machine, limit,
                spmm_collection, spmm_max_n, validate,
            )
            if record_dir is not None:
                units = replay_units(units, record_dir=record_dir)
            recs = _run(units, runner, None)
            cycles[kernel][cfg.name] = geomean(
                r.via_cycles[fmt] for r in recs
            )
    return DseResult(
        cycles=cycles,
        strategy="guided",
        candidates=tuple(cfg.name for cfg in configs),
        simulated={
            k: tuple(cfg.name for cfg in v) for k, v in survivors.items()
        },
        predicted=predicted,
    )
