"""Evaluation harness: sweep kernels over the matrix collection.

The harness regenerates the paper's evaluation data (Section VII): for each
matrix in a collection it runs baseline and VIA variants of a kernel on the
same machine model and records the speedup plus the structural metric the
paper categorizes by (CSB block density for Fig. 10, nnz/row for Fig. 11).

Each record also carries energy and memory-bandwidth ratios, used for the
Section VII-A prose claims (3.8x energy reduction, 2.5x bandwidth increase
for CSB SpMV).

Execution is delegated to :mod:`repro.eval.runner`: every sweep decomposes
into picklable :class:`~repro.eval.units.WorkUnit` items, so passing a
:class:`~repro.eval.runner.RunnerConfig` via ``runner=`` fans the sweep out
over a process pool and/or serves results from the content-addressed cache.
With ``runner=None`` (the default) the sweep runs inline and raises on the
first kernel error, exactly like the historical sequential path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional

import numpy as np

if TYPE_CHECKING:  # runner imports harness; keep the cycle import-time free
    from repro.eval.runner import RunnerConfig
    from repro.matrices.collection import MatrixCollection
    from repro.sim.config import MachineConfig
    from repro.via.config import ViaConfig

SPMV_FORMATS = ("csr", "csb", "spc5", "sellcs")

#: the largest matrix dimension an SpMM sweep runs: the reproduction's
#: scope for SpMM, not a limit of the kernel.  Unit and recording keys
#: carry ``max_n`` by value.
SPMM_MAX_N = 1024

#: SweepRecord fields holding per-format mappings (serialization order)
_RECORD_DICT_FIELDS = (
    "speedup",
    "energy_ratio",
    "bandwidth_ratio",
    "baseline_cycles",
    "via_cycles",
)


@dataclass
class SweepRecord:
    """One matrix's results for one kernel sweep.

    ``features`` carries the matrix's :class:`~repro.matrices.stats.
    StructureStats` descriptors (as plain floats), filled by the unit
    planners so every journal line and cache entry is self-describing —
    the cost-model dataset (:mod:`repro.model.dataset`) mines journals
    without re-building any matrix.
    """

    name: str
    domain: str
    n: int
    nnz: int
    metric: float
    speedup: Dict[str, float] = field(default_factory=dict)
    energy_ratio: Dict[str, float] = field(default_factory=dict)
    bandwidth_ratio: Dict[str, float] = field(default_factory=dict)
    baseline_cycles: Dict[str, float] = field(default_factory=dict)
    via_cycles: Dict[str, float] = field(default_factory=dict)
    features: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-safe payload; ``from_dict`` round-trips bit-identically."""
        out = {
            "name": self.name,
            "domain": self.domain,
            "n": int(self.n),
            "nnz": int(self.nnz),
            "metric": float(self.metric),
        }
        for key in _RECORD_DICT_FIELDS:
            out[key] = {k: float(v) for k, v in getattr(self, key).items()}
        out["features"] = {k: float(v) for k, v in self.features.items()}
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SweepRecord":
        return cls(
            name=data["name"],
            domain=data["domain"],
            n=int(data["n"]),
            nnz=int(data["nnz"]),
            metric=float(data["metric"]),
            features=dict(data.get("features", {})),
            **{key: dict(data.get(key, {})) for key in _RECORD_DICT_FIELDS},
        )


def geomean(values: Iterable[float], *, warn_label: str = "geomean") -> float:
    """Geometric mean — the standard aggregate for speedup ratios.

    Two degenerate cases return NaN but mean different things:

    * *no data* — the input was empty; silent, because aggregating an
      empty category is routine (e.g. a format absent from a sweep);
    * *all values filtered out* — data arrived but every value was
      non-positive (or NaN), so the geomean is undefined; a
      ``RuntimeWarning`` flags it because silently dropping measurements
      has masked real regressions before.

    Dropping *some* non-positive values also warns, with the drop count.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return float("nan")  # no data: vacuously undefined, not suspicious
    positive = arr[arr > 0]
    if positive.size == 0:
        warnings.warn(
            f"{warn_label}: all {arr.size} value(s) are non-positive or NaN; "
            "geometric mean is undefined — returning NaN",
            RuntimeWarning,
            stacklevel=2,
        )
        return float("nan")
    if positive.size < arr.size:
        warnings.warn(
            f"{warn_label}: dropped {arr.size - positive.size} non-positive "
            f"or NaN value(s) out of {arr.size} before averaging",
            RuntimeWarning,
            stacklevel=2,
        )
    return float(np.exp(np.log(positive).mean()))


def _run(units, runner: Optional["RunnerConfig"], progress):
    """Execute units through the runner; default = strict inline run."""
    from repro.eval.runner import RunnerConfig, run_units

    if runner is None:
        runner = RunnerConfig(capture_errors=False)
    return run_units(units, runner, progress=progress).records


def sweep_spmv(
    collection: "MatrixCollection",
    *,
    formats: Iterable[str] = SPMV_FORMATS,
    machine: Optional["MachineConfig"] = None,
    via_config: Optional["ViaConfig"] = None,
    limit: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    runner: Optional["RunnerConfig"] = None,
    validate: bool = False,
) -> List[SweepRecord]:
    """Run baseline + VIA SpMV for every matrix and format (Fig. 10 data).

    The per-record ``metric`` is the matrix's median non-zeros per CSB
    block at the configured block size — the x-axis of Figure 10.
    ``validate=True`` routes every op through the runtime invariant
    checker (:class:`~repro.sim.backends.InvariantBackend`).
    """
    from repro.eval.units import spmv_units

    units = spmv_units(
        collection,
        formats=formats,
        **_hw(machine, via_config),
        limit=limit,
        validate=validate,
    )
    return _run(units, runner, progress)


def sweep_spma(
    collection: "MatrixCollection",
    *,
    machine: Optional["MachineConfig"] = None,
    via_config: Optional["ViaConfig"] = None,
    limit: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    runner: Optional["RunnerConfig"] = None,
    validate: bool = False,
) -> List[SweepRecord]:
    """Run baseline + VIA SpMA per matrix (Fig. 11 data).

    The second operand is a structurally-similar matrix generated from the
    spec with a shifted seed, mirroring the paper's same-shape additions.
    The metric is the average non-zeros per non-empty row.
    """
    from repro.eval.units import spma_units

    units = spma_units(
        collection, **_hw(machine, via_config), limit=limit,
        validate=validate,
    )
    return _run(units, runner, progress)


def sweep_spmm(
    collection: "MatrixCollection",
    *,
    machine: Optional["MachineConfig"] = None,
    via_config: Optional["ViaConfig"] = None,
    limit: Optional[int] = None,
    max_n: int = SPMM_MAX_N,
    progress: Optional[Callable[[str], None]] = None,
    runner: Optional["RunnerConfig"] = None,
    validate: bool = False,
) -> List[SweepRecord]:
    """Run baseline + VIA SpMM per matrix (Section VII-C data).

    ``A`` is the spec's matrix in CSR; ``B`` a structural sibling in CSC.
    Matrices above ``max_n`` are skipped.  That cut is the reproduction's
    scope for SpMM (the Fig. 9 and Fig. 11b collections stay below it),
    as the paper's own cut at 20,000 rows is its scope.
    """
    from repro.eval.units import spmm_units

    units = spmm_units(
        collection, **_hw(machine, via_config), limit=limit, max_n=max_n,
        validate=validate,
    )
    return _run(units, runner, progress)


def _hw(machine, via_config) -> dict:
    """Resolve hardware-config defaults lazily (import-cycle free)."""
    from repro.sim.config import DEFAULT_MACHINE
    from repro.via.config import DEFAULT_VIA

    return {
        "machine": machine if machine is not None else DEFAULT_MACHINE,
        "via_config": via_config if via_config is not None else DEFAULT_VIA,
    }
