"""Dataset mining and featurization for the learned cost model.

Every sweep journal line since the feature-recording satellite carries
the matrix's :class:`~repro.matrices.stats.StructureStats` (inside the
record) plus the unit's kernel/VIA/machine context — so a training
dataset mines **from journals alone**, without re-building a single
matrix.  Result-cache entries carry the same sidecar ``context``; both
sources produce identical rows for identical units.

One row per (unit, format) with a stored VIA cycle count:

* structure features — the record's ``features`` dict, verbatim;
* VIA features — ``sram_kb``/``ports`` plus the derived geometry
  (entry counts, CSB block size) so capacity effects are learnable;
* machine features — the flattened :class:`~repro.sim.config.
  MachineConfig` (cache sizes/latencies, DRAM, MLP, lanes);
* kernel / format one-hots.

Rows are deduplicated by identity (latest mined wins — journals are
append-only across resumed runs) and sorted, so dataset assembly is a
pure function of the mined content, not of file order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Tuple

import numpy as np

from repro.errors import ModelError
from repro.model.trees import FloatArray, holdout_split
from repro.storage import digest

#: structure descriptors, in StructureStats field order
STRUCTURE_KEYS: Tuple[str, ...] = (
    "rows",
    "cols",
    "nnz",
    "density",
    "avg_nnz_per_row",
    "max_nnz_per_row",
    "empty_rows",
    "bandwidth",
    "csb_block_size",
    "csb_num_blocks",
    "median_nnz_per_block",
)

#: VIA geometry: the two free knobs plus their derived capacities
VIA_KEYS: Tuple[str, ...] = (
    "via_sram_kb",
    "via_ports",
    "via_sram_entries",
    "via_cam_entries",
    "via_csb_block_size",
)

#: flattened machine knobs (nested cache levels become level_field)
MACHINE_KEYS: Tuple[str, ...] = (
    "clock_ghz",
    "issue_width",
    "rob_entries",
    "mshrs",
    "vector_lanes",
    "vfu_fma_latency",
    "gather_base_latency",
    "scatter_base_latency",
    "l1_size_kb",
    "l1_latency",
    "l2_size_kb",
    "l2_latency",
    "l3_size_kb",
    "l3_latency",
    "dram_latency",
    "dram_bw_bytes_per_cycle",
    "mlp_stream",
    "mlp_dependent",
)

KERNELS: Tuple[str, ...] = ("spmv", "spma", "spmm")
FORMATS: Tuple[str, ...] = ("csr", "csb", "spc5", "sellcs")

#: canonical feature order — models store this list and refuse mismatches
FEATURE_NAMES: Tuple[str, ...] = (
    STRUCTURE_KEYS
    + VIA_KEYS
    + MACHINE_KEYS
    + tuple(f"kernel_{k}" for k in KERNELS)
    + tuple(f"format_{f}" for f in FORMATS)
)


def _via_features(via: Mapping[str, Any]) -> Dict[str, float]:
    from repro.via.config import ViaConfig

    cfg = ViaConfig(int(via["sram_kb"]), int(via["ports"]))
    return {
        "via_sram_kb": float(cfg.sram_kb),
        "via_ports": float(cfg.ports),
        "via_sram_entries": float(cfg.sram_entries),
        "via_cam_entries": float(cfg.cam_entries),
        "via_csb_block_size": float(cfg.csb_block_size),
    }


def _machine_features(machine: Mapping[str, Any]) -> Dict[str, float]:
    flat: Dict[str, float] = {}
    for level in ("l1", "l2", "l3"):
        cache = machine.get(level) or {}
        flat[f"{level}_size_kb"] = float(cache.get("size_kb", 0))
        flat[f"{level}_latency"] = float(cache.get("latency", 0))
    for key in MACHINE_KEYS:
        if key in flat:
            continue
        flat[key] = float(machine.get(key, 0))
    return flat


def feature_vector(
    structure: Mapping[str, Any],
    *,
    kernel: str,
    fmt: str,
    via: Mapping[str, Any],
    machine: Mapping[str, Any],
) -> FloatArray:
    """One row of the design matrix, in :data:`FEATURE_NAMES` order."""
    if kernel not in KERNELS:
        raise ModelError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    if fmt not in FORMATS:
        raise ModelError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    values = dict(_via_features(via))
    values.update(_machine_features(machine))
    for key in STRUCTURE_KEYS:
        values[key] = float(structure.get(key, 0.0))
    for k in KERNELS:
        values[f"kernel_{k}"] = 1.0 if k == kernel else 0.0
    for f in FORMATS:
        values[f"format_{f}"] = 1.0 if f == fmt else 0.0
    return np.asarray([values[name] for name in FEATURE_NAMES], dtype=np.float64)


@dataclass(frozen=True)
class Row:
    """One mined training example: features → VIA cycles."""

    row_id: str
    kernel: str
    features: FloatArray
    cycles: float


@dataclass(frozen=True)
class Dataset:
    """An assembled design matrix plus targets and row identities."""

    X: FloatArray
    y: FloatArray
    feature_names: Tuple[str, ...]
    row_ids: Tuple[str, ...]
    kernels: Tuple[str, ...]

    def __len__(self) -> int:
        return int(self.X.shape[0])

    def split(
        self, holdout_fraction: float = 0.25
    ) -> Tuple["Dataset", "Dataset"]:
        """Deterministic identity-hashed train/holdout partition."""
        train, hold = holdout_split(
            len(self), list(self.row_ids), holdout_fraction
        )
        return self._take(train), self._take(hold)

    def _take(self, idx: np.ndarray) -> "Dataset":
        return Dataset(
            X=self.X[idx],
            y=self.y[idx],
            feature_names=self.feature_names,
            row_ids=tuple(self.row_ids[int(i)] for i in idx),
            kernels=tuple(self.kernels[int(i)] for i in idx),
        )


def _machine_tag(machine: Mapping[str, Any]) -> str:
    return digest(_machine_features(machine))[:8]


def rows_from_entry(entry: Mapping[str, Any]) -> List[Row]:
    """The training rows one journal line (or cache entry view) yields.

    Needs: a record with non-empty ``features`` and ``via_cycles``, plus
    the kernel/via/machine context.  Entries missing any of it (old
    journals, skipped units, failures) yield nothing — mining is
    best-effort by design.
    """
    record = entry.get("record")
    via = entry.get("via")
    machine = entry.get("machine")
    kernel = entry.get("kernel")
    if not isinstance(record, Mapping) or not via or not machine:
        return []
    structure = record.get("features")
    cycles = record.get("via_cycles")
    if not structure or not cycles or kernel not in KERNELS:
        return []
    name = record.get("name", "?")
    tag = _machine_tag(machine)
    via_name = f"{int(via['sram_kb'])}_{int(via['ports'])}p"
    rows: List[Row] = []
    for fmt in sorted(cycles):
        if fmt not in FORMATS:
            continue
        value = float(cycles[fmt])
        if not (value > 0 and np.isfinite(value)):
            continue
        rows.append(
            Row(
                row_id=f"{name}:{kernel}:{fmt}:{via_name}:{tag}",
                kernel=str(kernel),
                features=feature_vector(
                    structure, kernel=str(kernel), fmt=fmt,
                    via=via, machine=machine,
                ),
                cycles=value,
            )
        )
    return rows


def mine_journal(path: str) -> List[Row]:
    """Training rows from one sweep-journal JSONL file.

    Torn lines (the tail of a crashed run) and pre-feature lines are
    skipped silently; a missing file is an error — pointing the miner at
    nothing is a caller bug, not sparse data.
    """
    if not Path(path).exists():
        raise ModelError(f"journal {path!r} does not exist")
    from repro.eval.runner import read_journal

    rows: List[Row] = []
    for entry in read_journal(path):
        if entry.get("status") in ("ok", "cached", "resumed"):
            rows.extend(rows_from_entry(entry))
    return rows


def mine_cache(cache_dir: str) -> List[Row]:
    """Training rows from a result-cache directory.

    Every entry that passes the cache's integrity check and carries the
    ``context`` sidecar yields rows.  Rot is skipped, not deleted: the
    cache's own ``get`` handles deletion; the miner only refuses to
    *learn* from it.
    """
    if not Path(cache_dir).exists():
        raise ModelError(f"cache directory {cache_dir!r} does not exist")
    from repro.eval.runner import ResultCache

    rows: List[Row] = []
    for entry in ResultCache(cache_dir).entries():
        payload = entry["payload"]
        context = entry.get("context")
        if isinstance(payload, dict) and isinstance(context, dict):
            rows.extend(rows_from_entry({"record": payload, **context}))
    return rows


def build_dataset(rows: Iterable[Row]) -> Dataset:
    """Assemble rows into a :class:`Dataset`, deduplicated and sorted.

    Later duplicates win (journals append across resumed runs, so the
    freshest measurement of a row id is the last one mined), and the
    final order is sorted by row id — assembly is order-independent.
    """
    latest: Dict[str, Row] = {}
    for row in rows:
        latest[row.row_id] = row
    if not latest:
        raise ModelError(
            "no training rows mined — journals/cache entries need records "
            "with features, via_cycles, and kernel/via/machine context"
        )
    ordered = [latest[k] for k in sorted(latest)]
    return Dataset(
        X=np.stack([r.features for r in ordered]),
        y=np.asarray([r.cycles for r in ordered], dtype=np.float64),
        feature_names=FEATURE_NAMES,
        row_ids=tuple(r.row_id for r in ordered),
        kernels=tuple(r.kernel for r in ordered),
    )


def mine(
    journals: Iterable[str] = (),
    cache_dirs: Iterable[str] = (),
) -> Dataset:
    """One-call mining: journals + cache directories → :class:`Dataset`."""
    rows: List[Row] = []
    for path in journals:
        rows.extend(mine_journal(path))
    for path in cache_dirs:
        rows.extend(mine_cache(path))
    return build_dataset(rows)


# ----------------------------------------------------------------------
# spec featurization for unseen workloads (guided DSE, serve estimates)

#: bounded memo of spec structure features; keyed by spec identity and
#: block size.  Plain dict + FIFO eviction: consumers are single-threaded
#: (the asyncio scheduler event loop, the DSE driver).
_SPEC_MEMO: Dict[str, Dict[str, float]] = {}
_SPEC_MEMO_MAX = 512


def spec_structure_features(spec: Any, *, block_size: int) -> Dict[str, float]:
    """StructureStats for a :class:`~repro.matrices.collection.MatrixSpec`.

    Builds the matrix once per (spec, block size) and memoizes — warm
    calls are dictionary lookups, which is what lets serve ``estimate``
    jobs answer in microseconds after first touch.
    """
    from repro.matrices.stats import structure_stats

    key = json.dumps(
        {
            "name": spec.name,
            "domain": spec.domain,
            "n": spec.n,
            "seed": spec.seed,
            "params": spec.params,
            "block": int(block_size),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    hit = _SPEC_MEMO.get(key)
    if hit is not None:
        return hit
    stats = structure_stats(spec.build(), csb_block_size=int(block_size))
    features = {k: float(v) for k, v in stats.as_dict().items()}
    if len(_SPEC_MEMO) >= _SPEC_MEMO_MAX:
        _SPEC_MEMO.pop(next(iter(_SPEC_MEMO)))
    _SPEC_MEMO[key] = features
    return features
