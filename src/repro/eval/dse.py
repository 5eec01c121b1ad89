"""Design-space exploration — regenerates Figure 9 and Table II.

Figure 9 sweeps the four SSPM configurations (4_2p, 4_4p, 16_2p, 16_4p)
over the three sparse kernels and reports each kernel's speedup normalized
to its own 4_2p configuration.  Table II pairs those configurations with
their synthesized area and leakage (see :mod:`repro.via.area`).

A DSE is a list of (kernel, configuration) cells — every cell for the
exhaustive sweep, the model-ranked survivors for the guided one — and one
function, :func:`_simulate`, runs the list.  Without ``record_dir`` the
cells run as one direct batch.  With it, the sweep runs in record/replay
mode over the op-stream IR (:mod:`repro.sim.ops`): SSPM ports never shape
an op stream, so the cells split into SSPM-capacity groups, and each group
is one batch that records a representative per kernel followed by one
batch that re-prices every cell by replaying those recordings.  Results
are bit-identical to direct execution; only the wall time changes, from
O(configs × full runs) to O(capacity groups × full runs + configs × cheap
replays).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.eval.harness import SPMM_MAX_N, geomean
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


def run_dse(
    collection: MatrixCollection,
    *,
    configs: Optional[List[ViaConfig]] = None,
    machine: MachineConfig = DEFAULT_MACHINE,
    limit: Optional[int] = None,
    spmm_collection: Optional[MatrixCollection] = None,
    spmm_max_n: int = SPMM_MAX_N,
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

    ``runner`` executes every batch: one direct batch, or a record and a
    replay batch per SSPM-capacity group.  A DSE re-sweeps the same
    collection once per configuration, so a cached parallel
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

    def unit_lists(kernel: str, cfg: ViaConfig) -> Tuple[List[Any], str]:
        """One cell's work units and the format its metric reads."""
        from repro.eval.units import spma_units, spmm_units, spmv_units

        hw = dict(machine=machine, via_config=cfg, limit=limit, validate=validate)
        if kernel == "spmv":
            return spmv_units(collection, formats=("csb",), **hw), "csb"
        if kernel == "spma":
            return spma_units(collection, **hw), "csr"
        source = spmm_collection if spmm_collection is not None else collection
        return spmm_units(source, max_n=spmm_max_n, **hw), "csr"

    if strategy == "exhaustive":
        cells = [(kernel, cfg) for cfg in configs for kernel in DSE_KERNELS]
        return DseResult(cycles=_simulate(cells, unit_lists, runner, record_dir))
    predicted, survivors = _guided_survivors(
        collection,
        configs=configs,
        machine=machine,
        limit=limit,
        spmm_collection=spmm_collection,
        spmm_max_n=spmm_max_n,
        model=model,
        keep=guided_keep,
    )
    cells = [(kernel, cfg) for kernel in DSE_KERNELS for cfg in survivors[kernel]]
    return DseResult(
        cycles=_simulate(cells, unit_lists, runner, record_dir),
        strategy="guided",
        candidates=tuple(cfg.name for cfg in configs),
        simulated={
            k: tuple(cfg.name for cfg in v) for k, v in survivors.items()
        },
        predicted=predicted,
    )


def _simulate(
    cells: List[Tuple[str, ViaConfig]],
    unit_lists: Callable[[str, ViaConfig], Tuple[List[Any], str]],
    runner: Optional["RunnerConfig"],
    record_dir: Optional[str],
) -> Dict[str, Dict[str, float]]:
    """Geomean VIA cycles of every (kernel, config) cell, in cell order.

    Without ``record_dir`` the cells run as one direct batch.  With it,
    they split into SSPM-capacity groups in the order their configs first
    appear.  Each group records the units of its first cell per kernel,
    then replays all its cells; groups run one after another, so a later
    group's record batch replays the capacity-free baselines
    (:data:`~repro.eval.recordings.SHARED_BASELINE_KERNELS`) an earlier
    group stored.  One batch per group, not one for the whole DSE, keeps
    each worker's artifact memo to one group's recordings.

    A batch's per-unit records split back into cells by position; a unit
    that self-filters (SpMM above ``spmm_max_n``) or fails holds ``None``.
    """
    from repro.eval.runner import RunnerConfig, run_units
    from repro.eval.units import record_units, replay_units

    config = runner if runner is not None else RunnerConfig(capture_errors=False)
    groups: Dict[Optional[int], List[Tuple[str, ViaConfig]]] = {}
    for kernel, cfg in cells:
        kb = cfg.sram_kb if record_dir is not None else None
        groups.setdefault(kb, []).append((kernel, cfg))
    means: Dict[Tuple[str, str], float] = {}
    for group in groups.values():
        lists = [unit_lists(kernel, cfg) for kernel, cfg in group]
        batch = [unit for units, _ in lists for unit in units]
        if record_dir is not None:
            reps: Dict[str, List[Any]] = {}
            for (kernel, _), (units, _) in zip(group, lists):
                reps.setdefault(kernel, units)
            run_units(
                [u for units in reps.values()
                 for u in record_units(units, record_dir=record_dir)],
                config,
            )
            batch = replay_units(batch, record_dir=record_dir)
        records = iter(run_units(batch, config).unit_records)
        for (kernel, cfg), (units, fmt) in zip(group, lists):
            cell = [next(records) for _ in units]
            means[kernel, cfg.name] = geomean(
                r.via_cycles[fmt] for r in cell if r is not None
            )
    cycles: Dict[str, Dict[str, float]] = {k: {} for k in DSE_KERNELS}
    for kernel, cfg in cells:
        cycles[kernel][cfg.name] = means[kernel, cfg.name]
    return cycles


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


def _guided_survivors(
    collection: MatrixCollection,
    *,
    configs: List[ViaConfig],
    machine: MachineConfig,
    limit: Optional[int],
    spmm_collection: Optional[MatrixCollection],
    spmm_max_n: int,
    model: Any,
    keep: float,
) -> Tuple[Dict[str, Dict[str, float]], Dict[str, List[ViaConfig]]]:
    """Rank by predicted cycles and halve to survivors, per kernel.

    Returns the model's scores for every candidate and the survivors in
    sweep order.  The halving schedule: per kernel, the candidate pool
    (ordered by predicted geomean cycles, best first) is cut in half each
    rung until it reaches ``ceil(len(configs) × keep)``.  With the
    paper's four Figure 9 configurations and the default ``keep=0.5``
    that is one rung to two survivors — half the simulation work of the
    exhaustive sweep, per kernel.
    """
    if not (0.0 < keep <= 1.0):
        raise ValueError(f"guided_keep must be in (0, 1], got {keep}")
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
    return predicted, survivors
