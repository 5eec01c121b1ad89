"""Picklable sweep work units — the quantum of evaluation execution.

A :class:`WorkUnit` names one (matrix spec, kernel, parameters) cell of the
paper's evaluation grid.  Units are frozen, picklable, and self-contained:
:func:`compute_unit` materializes the matrix from the spec and runs the
baseline/VIA kernel pair without touching any shared state, so units can be
shipped to ``multiprocessing`` workers or hashed into a content-addressed
result cache (:mod:`repro.eval.runner`).

Unit kinds are dispatched through the :data:`UNIT_KINDS` registry so tests
(and future kernels) can plug in new unit types without editing the runner.
Beyond the direct kinds (``spmv``/``spma``/``spmm``) there are two
op-stream kinds riding the IR seam (:mod:`repro.sim.ops`):

* ``record`` — run the unit's kernel pair once per format with a
  :class:`~repro.sim.backends.RecorderBackend`, persist the op streams and
  their priced state (not the kernels' functional outputs) to a
  :class:`~repro.eval.recordings.RecordingStore` artifact, and return the
  (direct-identical) :class:`SweepRecord`;
* ``replay`` — load the artifact and re-price the recorded streams under
  the unit's own machine/VIA configuration without executing any numpy.
  A missing or corrupt artifact self-heals: the unit records under its own
  configuration instead (bit-identical by construction).

Every unit's execution is a pure function of the unit, so record-once /
replay-per-config sweeps (the Fig. 9 DSE) return bit-identical records to
direct per-config runs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import ReproError, SweepError
from repro.eval.harness import SPMM_MAX_N, SweepRecord
from repro.eval.recordings import RecordingStore, recording_key
from repro.formats.coo import COOMatrix
from repro.formats.csb import CSBMatrix
from repro.formats.csc import CSCMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.sellcs import SellCSigmaMatrix
from repro.formats.spc5 import SPC5Matrix
from repro.kernels import spma as spma_mod
from repro.kernels import spmm as spmm_mod
from repro.kernels import spmv as spmv_mod
from repro.matrices.collection import MatrixCollection, MatrixSpec
from repro.matrices.stats import nnz_per_row_metric, structure_stats
from repro.sim.backends import (
    Backend,
    InvariantBackend,
    RecorderBackend,
    replay_recording,
)
from repro.sim.config import DEFAULT_MACHINE, MachineConfig
from repro.sim.ops import OPS_SCHEMA_VERSION, Recording
from repro.sim.stats import KernelResult
from repro.storage import code_version, digest
from repro.via.config import DEFAULT_VIA, ViaConfig

#: master seed for the dense operand vectors; combined with each spec's own
#: seed so a unit's input is a pure function of the unit (not of sweep order)
X_VECTOR_SEED = 12345


@dataclass(frozen=True)
class WorkUnit:
    """One cell of the evaluation grid: matrix spec x kernel x parameters.

    ``kernel`` names the underlying kernel family for the ``record`` and
    ``replay`` kinds (whose ``kind`` no longer encodes it); direct kinds
    leave it empty.  ``record_dir`` points record/replay units at their
    artifact store; it never enters the result-cache key because a unit's
    record is invariant to where its artifact lives.  ``validate`` routes
    every op through the :class:`~repro.sim.backends.InvariantBackend`
    runtime checker; like ``record_dir`` it stays out of the cache key
    because validation only *checks* results, it never changes them.
    """

    kind: str
    spec: MatrixSpec
    machine: MachineConfig = DEFAULT_MACHINE
    via_config: ViaConfig = DEFAULT_VIA
    formats: Tuple[str, ...] = ()
    max_n: Optional[int] = None
    kernel: str = ""
    record_dir: Optional[str] = None
    validate: bool = False


def _x_vector(spec: MatrixSpec, cols: int) -> np.ndarray:
    """Deterministic dense operand, independent of sweep order."""
    rng = np.random.default_rng([X_VECTOR_SEED, spec.seed, cols])
    return rng.standard_normal(cols)


def _sibling(spec: MatrixSpec, coo_a: COOMatrix, seed_shift: int) -> COOMatrix:
    """Structurally-similar second operand (paper: same-shape additions)."""
    sibling = MatrixSpec(
        name=spec.name + "_b",
        domain=spec.domain,
        n=spec.n,
        seed=spec.seed + seed_shift,
        params=spec.params,
    )
    coo_b = sibling.build()
    if coo_b.shape != coo_a.shape:  # grid/kron generators round dims
        coo_b = COOMatrix(
            coo_a.shape,
            coo_b.row % coo_a.shape[0],
            coo_b.col % coo_a.shape[1],
            coo_b.data,
        )
    return coo_b


def build_spmv_format(
    coo: COOMatrix, fmt: str, machine: MachineConfig, via: ViaConfig
):
    if fmt == "csr":
        return CSRMatrix.from_coo(coo)
    if fmt == "csb":
        return CSBMatrix.from_coo(coo, block_size=via.csb_block_size)
    if fmt == "spc5":
        return SPC5Matrix.from_coo(coo, vl=machine.vl)
    if fmt == "sellcs":
        return SellCSigmaMatrix.from_coo(coo, c=machine.vl, sigma=16 * machine.vl)
    raise SweepError(f"unknown SpMV format {fmt!r}")


def _unit_features(
    coo: COOMatrix,
    *,
    csb: Optional[CSBMatrix] = None,
    block_size: Optional[int] = None,
) -> Dict[str, float]:
    """The record's ``features`` dict: StructureStats as plain floats.

    The CSB block size follows the unit's VIA configuration (half the
    SSPM) so the features describe the matrix exactly as the simulated
    hardware sees it — the same convention the cost-model consumers use
    when featurizing unseen specs (:mod:`repro.model.dataset`).
    """
    stats = structure_stats(
        coo,
        csb_block_size=block_size if block_size is not None else 256,
        csb=csb,
    )
    return {k: float(v) for k, v in stats.as_dict().items()}


#: one kernel-pair execution: ``fn(backend) -> KernelResult``
_Runner = Callable[[Optional[Backend]], KernelResult]


@dataclass
class UnitPlan:
    """A unit's execution, decomposed so every backend shares one source.

    ``skeleton`` is the :class:`SweepRecord` with the structural fields
    filled; ``runs`` maps each format to a ``(baseline, via)`` pair of
    callables taking an op-stream backend.  Direct execution passes
    ``None``, recording passes a :class:`RecorderBackend` per run — so
    direct, record, and (transitively) replay all price the exact same
    narration.
    """

    skeleton: SweepRecord
    runs: Dict[str, Tuple[_Runner, _Runner]]


def _fill_record(
    rec: SweepRecord, fmt: str, base: KernelResult, via: KernelResult
) -> None:
    """Derive one format's ratio columns from a baseline/VIA result pair."""
    rec.speedup[fmt] = base.cycles / via.cycles
    rec.energy_ratio[fmt] = base.energy_pj / via.energy_pj
    rec.bandwidth_ratio[fmt] = (
        via.memory_bandwidth_gbs / base.memory_bandwidth_gbs
        if base.memory_bandwidth_gbs
        else float("nan")
    )
    rec.baseline_cycles[fmt] = base.cycles
    rec.via_cycles[fmt] = via.cycles


def _plan_spmv(unit: WorkUnit) -> UnitPlan:
    spec, machine, via_config = unit.spec, unit.machine, unit.via_config
    coo = spec.build()
    x = _x_vector(spec, coo.cols)
    csb = CSBMatrix.from_coo(coo, block_size=via_config.csb_block_size)
    per_block = csb.nnz_per_block()
    skeleton = SweepRecord(
        name=spec.name,
        domain=spec.domain,
        n=coo.rows,
        nnz=coo.nnz,
        metric=float(np.median(per_block)) if per_block.size else 0.0,
        features=_unit_features(coo, csb=csb),
    )
    runs: Dict[str, Tuple[_Runner, _Runner]] = {}
    for fmt in unit.formats:
        mat = csb if fmt == "csb" else build_spmv_format(coo, fmt, machine, via_config)
        base_fn, via_fn = spmv_mod.SPMV_VARIANTS[fmt]
        runs[fmt] = (
            lambda backend=None, mat=mat, base_fn=base_fn: base_fn(
                mat, x, machine, backend=backend
            ),
            lambda backend=None, mat=mat, via_fn=via_fn: via_fn(
                mat, x, machine, via_config, backend=backend
            ),
        )
    return UnitPlan(skeleton, runs)


def _plan_spma(unit: WorkUnit) -> UnitPlan:
    spec, machine, via_config = unit.spec, unit.machine, unit.via_config
    coo_a = spec.build()
    coo_b = _sibling(spec, coo_a, seed_shift=1)
    a = CSRMatrix.from_coo(coo_a)
    b = CSRMatrix.from_coo(coo_b)
    skeleton = SweepRecord(
        name=spec.name,
        domain=spec.domain,
        n=coo_a.rows,
        nnz=coo_a.nnz,
        metric=nnz_per_row_metric(coo_a),
        features=_unit_features(coo_a, block_size=via_config.csb_block_size),
    )
    runs = {
        "csr": (
            lambda backend=None: spma_mod.spma_csr_baseline(
                a, b, machine, backend=backend
            ),
            lambda backend=None: spma_mod.spma_via(
                a, b, machine, via_config, backend=backend
            ),
        )
    }
    return UnitPlan(skeleton, runs)


def _plan_spmm(unit: WorkUnit) -> Optional[UnitPlan]:
    spec, machine, via_config = unit.spec, unit.machine, unit.via_config
    max_n = unit.max_n if unit.max_n is not None else SPMM_MAX_N
    if spec.n > max_n:
        return None
    coo_a = spec.build()
    if coo_a.rows > max_n:
        return None
    coo_b = _sibling(spec, coo_a, seed_shift=2)
    a = CSRMatrix.from_coo(coo_a)
    b = CSCMatrix.from_coo(coo_b)
    skeleton = SweepRecord(
        name=spec.name,
        domain=spec.domain,
        n=coo_a.rows,
        nnz=coo_a.nnz,
        metric=nnz_per_row_metric(coo_a),
        features=_unit_features(coo_a, block_size=via_config.csb_block_size),
    )
    runs = {
        "csr": (
            lambda backend=None: spmm_mod.spmm_csr_baseline(
                a, b, machine, backend=backend
            ),
            lambda backend=None: spmm_mod.spmm_via(
                a, b, machine, via_config, backend=backend
            ),
        )
    }
    return UnitPlan(skeleton, runs)


#: kernel family -> plan builder (used by direct, record, and self-heal paths)
PLAN_KINDS: Dict[str, Callable[[WorkUnit], Optional[UnitPlan]]] = {
    "spmv": _plan_spmv,
    "spma": _plan_spma,
    "spmm": _plan_spmm,
}


def _execute_plan(
    plan: Optional[UnitPlan], *, validate: bool = False
) -> Optional[SweepRecord]:
    """Direct execution: price every run immediately, fill the record.

    With ``validate`` on, every op routes through a fresh
    :class:`InvariantBackend` so a mis-priced op raises
    :class:`~repro.errors.InvariantError` at the op that broke the model
    (results are unchanged — the checker wraps the direct pricing path).
    """
    if plan is None:
        return None
    rec = plan.skeleton
    for fmt, (base_run, via_run) in plan.runs.items():
        base = base_run(InvariantBackend() if validate else None)
        via = via_run(InvariantBackend() if validate else None)
        _fill_record(rec, fmt, base, via)
    return rec


def _compute_direct(unit: WorkUnit) -> Optional[SweepRecord]:
    return _execute_plan(PLAN_KINDS[unit.kind](unit), validate=unit.validate)


def _record(run: _Runner, validate: bool) -> Tuple[KernelResult, Recording]:
    """Run one kernel on a recorder; its result and captured op stream."""
    recorder = RecorderBackend()
    result = run(InvariantBackend(recorder) if validate else recorder)
    return result, recorder.recording


def _compute_recorded(unit: WorkUnit) -> Optional[SweepRecord]:
    """The one path of ``record`` and ``replay`` units.

    A unit has two artifacts, each fetched once: its VIA streams (plus
    skeleton metadata) under the ``via`` key and its baseline streams
    under the ``base`` key.  With both stored, the streams are re-priced
    under this unit's machine/VIA configuration and no matrix is built.
    Otherwise the kernel pair runs on a recorder and the artifacts are
    written, so a replay miss (or rot the store discarded) self-heals.  A
    stored baseline is replayed, not re-run: for
    :data:`~repro.eval.recordings.SHARED_BASELINE_KERNELS` another shape
    group's record run supplies it.  Every path returns the record direct
    execution would.  Without ``record_dir`` a record unit records
    without storing, and a replay unit is an error.
    """
    store = via_key = base_key = via_found = base_found = None
    if unit.record_dir is not None:
        store = RecordingStore(unit.record_dir)
        code = code_version()
        via_key = recording_key(unit, code, part="via")
        base_key = recording_key(unit, code, part="base")
        via_found, base_found = store.get(via_key), store.get(base_key)
    elif unit.kind == "replay":
        raise ReproError("replay unit needs a record_dir")

    def replay_base(fmt: str) -> KernelResult:
        return replay_recording(
            base_found[0][f"{fmt}/base"],
            machine=unit.machine,
            validate=unit.validate,
        )

    if via_found is not None and base_found is not None:
        via_recs, extra = via_found
        rec = SweepRecord(**extra["skeleton"])
        try:
            for fmt in extra["formats"]:
                base = replay_base(fmt)
                via = replay_recording(
                    via_recs[f"{fmt}/via"],
                    machine=unit.machine,
                    via_config=unit.via_config,
                    validate=unit.validate,
                )
                _fill_record(rec, fmt, base, via)
            return rec
        except KeyError:
            pass  # an artifact lacks a format: record afresh
    plan = PLAN_KINDS[unit.kernel](unit)
    if plan is None:
        return None
    rec = plan.skeleton
    base_results: Dict[str, KernelResult] = {}
    if base_found is not None:
        try:
            base_results = {fmt: replay_base(fmt) for fmt in plan.runs}
        except KeyError:
            pass  # the stored baseline lacks a format: record it afresh
    if not base_results:
        base_recordings = {}
        for fmt, (base_run, _via_run) in plan.runs.items():
            base_results[fmt], base_recordings[f"{fmt}/base"] = _record(
                base_run, unit.validate
            )
        if store is not None:
            store.put(base_key, base_recordings)
    via_recordings = {}
    for fmt, (_base_run, via_run) in plan.runs.items():
        via, via_recordings[f"{fmt}/via"] = _record(via_run, unit.validate)
        _fill_record(rec, fmt, base_results[fmt], via)
    if store is not None:
        store.put(
            via_key,
            via_recordings,
            extra_meta={
                "skeleton": {
                    "name": rec.name,
                    "domain": rec.domain,
                    "n": int(rec.n),
                    "nnz": int(rec.nnz),
                    "metric": float(rec.metric),
                    "features": {
                        k: float(v) for k, v in rec.features.items()
                    },
                },
                "formats": sorted(plan.runs),
            },
        )
    return rec


#: unit-kind dispatch table; extensible (tests register fault-injection kinds)
UNIT_KINDS: Dict[str, Callable[[WorkUnit], Optional[SweepRecord]]] = {
    "spmv": _compute_direct,
    "spma": _compute_direct,
    "spmm": _compute_direct,
    "record": _compute_recorded,
    "replay": _compute_recorded,
}


def compute_unit(unit: WorkUnit) -> Optional[SweepRecord]:
    """Execute one work unit; ``None`` means the unit filtered itself out."""
    try:
        fn = UNIT_KINDS[unit.kind]
    except KeyError:
        raise ReproError(f"unknown work-unit kind {unit.kind!r}") from None
    return fn(unit)


# ----------------------------------------------------------------------
# unit-list builders used by the harness sweeps and by tests


def _iter_specs(
    collection: MatrixCollection, limit: Optional[int]
) -> List[MatrixSpec]:
    specs = collection.specs
    return specs[:limit] if limit is not None else specs


def spmv_units(
    collection: MatrixCollection,
    *,
    formats: Iterable[str],
    machine: MachineConfig = DEFAULT_MACHINE,
    via_config: ViaConfig = DEFAULT_VIA,
    limit: Optional[int] = None,
    validate: bool = False,
) -> List[WorkUnit]:
    fmts = tuple(formats)
    return [
        WorkUnit("spmv", spec, machine, via_config, formats=fmts,
                 validate=validate)
        for spec in _iter_specs(collection, limit)
    ]


def spma_units(
    collection: MatrixCollection,
    *,
    machine: MachineConfig = DEFAULT_MACHINE,
    via_config: ViaConfig = DEFAULT_VIA,
    limit: Optional[int] = None,
    validate: bool = False,
) -> List[WorkUnit]:
    return [
        WorkUnit("spma", spec, machine, via_config, validate=validate)
        for spec in _iter_specs(collection, limit)
    ]


def spmm_units(
    collection: MatrixCollection,
    *,
    machine: MachineConfig = DEFAULT_MACHINE,
    via_config: ViaConfig = DEFAULT_VIA,
    limit: Optional[int] = None,
    max_n: int = SPMM_MAX_N,
    validate: bool = False,
) -> List[WorkUnit]:
    return [
        WorkUnit("spmm", spec, machine, via_config, max_n=max_n,
                 validate=validate)
        for spec in _iter_specs(collection, limit)
    ]


def record_units(units: Iterable[WorkUnit], *, record_dir: str) -> List[WorkUnit]:
    """Turn direct units into ``record`` units targeting an artifact store."""
    return [
        dataclasses.replace(
            u,
            kind="record",
            kernel=u.kernel or u.kind,
            record_dir=record_dir,
        )
        for u in units
    ]


def replay_units(
    units: Iterable[WorkUnit],
    *,
    record_dir: str,
    machine: Optional[MachineConfig] = None,
    via_config: Optional[ViaConfig] = None,
) -> List[WorkUnit]:
    """Turn direct units into ``replay`` units re-priced under a target.

    ``machine``/``via_config`` default to each unit's own configuration;
    pass a different (stream-shape compatible) pair to sweep pricing knobs
    against one set of recordings.
    """
    return [
        dataclasses.replace(
            u,
            kind="replay",
            kernel=u.kernel or u.kind,
            record_dir=record_dir,
            machine=machine if machine is not None else u.machine,
            via_config=via_config if via_config is not None else u.via_config,
        )
        for u in units
    ]


# ----------------------------------------------------------------------
# content-addressed cache keys

#: fields deliberately outside :func:`unit_cache_key`, checked by the
#: VIA101 cache-key hygiene rule (``python -m repro.analysis``)
KEY_EXEMPT = {
    "WorkUnit": {
        "record_dir": "a unit's record is invariant to where (or whether) "
        "its op-stream artifact is stored",
        "validate": "invariant checking only verifies results; it never "
        "changes them",
    },
}


def unit_cache_key(unit: WorkUnit, code_version: str) -> str:
    """Stable content hash of everything that determines a unit's record.

    Two units hash equal iff they would produce the same
    :class:`SweepRecord` under the same code: the matrix spec, the kernel
    kind and its parameters, both hardware configurations, the code
    fingerprint, and the op-stream IR schema version all feed the key.
    ``record_dir`` and ``validate`` deliberately do not: a unit's record is
    invariant to where (or whether) its op-stream artifact is stored, and
    invariant checking only verifies results — it never changes them.
    """
    payload = {
        "kind": unit.kind,
        "kernel": unit.kernel,
        "spec": {
            "name": unit.spec.name,
            "domain": unit.spec.domain,
            "n": unit.spec.n,
            "seed": unit.spec.seed,
            "params": unit.spec.params,
        },
        "formats": list(unit.formats),
        "max_n": unit.max_n,
        "machine": dataclasses.asdict(unit.machine),
        "via": dataclasses.asdict(unit.via_config),
        "code": code_version,
        "ops_schema": OPS_SCHEMA_VERSION,
    }
    return digest(payload)
