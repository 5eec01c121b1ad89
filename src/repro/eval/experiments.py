"""The paper's evaluation artifacts, each defined once.

One function per artifact of Section VII (DESIGN.md Section 3) owns the
artifact's fixed inputs, runs it and returns an :class:`Artifact`.  The
benchmark modules (``pytest benchmarks/``) save each text under
``benchmarks/results/`` and check its values; ``python -m
repro.eval.report_cli`` prints them all.  Only those two import this
module, so sweep and serve workers never load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional

import numpy as np

from repro.eval.categories import aggregate_ratio, categorize
from repro.eval.dse import run_dse
from repro.eval.harness import (
    SPMM_MAX_N,
    geomean,
    sweep_spma,
    sweep_spmm,
    sweep_spmv,
)
from repro.eval.reporting import (
    render_categories,
    render_dse,
    render_ratio_line,
    render_table,
)
from repro.eval.runner import RunnerConfig
from repro.kernels import (
    histogram_scalar_baseline,
    histogram_vector_baseline,
    histogram_via,
    stencil_vector_baseline,
    stencil_via,
)
from repro.matrices import MatrixCollection, dse_collection
from repro.sim import table1 as machine_table
from repro.via import all_configs
from repro.via import table2 as area_table

#: the default evaluation collection: 24 matrices, seed 2021, n 192-2,048
#: (the paper sweeps 1,024 matrices up to n = 20,000)
MATRICES = 24
SEED = 2021
MAX_N = 2048

HISTOGRAM_BINS = 1024
HISTOGRAM_KEYS = 32_768


@dataclass(frozen=True)
class Artifact:
    """One regenerated paper artifact.

    ``name`` is its file stem under ``benchmarks/results/``, ``title``
    its section header in the full report, ``text`` the rendered table
    or figure, and ``data`` the values its benchmark module checks.
    """

    name: str
    title: str
    text: str
    data: Any = None


def evaluation_collection(
    matrices: int = MATRICES, *, max_n: int = MAX_N, seed: int = SEED
) -> MatrixCollection:
    """The collection Figures 10 and 11 sweep."""
    return MatrixCollection(matrices, seed=seed, min_n=192, max_n=max_n)


def table1() -> Artifact:
    """Table I: the simulated machine and the SSPM configurations."""
    rows = [
        (
            cfg.name,
            f"{cfg.sram_kb} KB",
            f"{cfg.cam_kb} KB",
            cfg.ports,
            cfg.sram_entries,
            cfg.cam_entries,
            cfg.csb_block_size,
        )
        for cfg in all_configs()
    ]
    via_rows = render_table(
        "Table I (VIA rows) — SSPM configurations",
        ["config", "SRAM", "CAM", "ports", "entries", "cam entries", "CSB beta"],
        rows,
    )
    return Artifact(
        "table1_config",
        "T1 — simulation parameters",
        machine_table() + "\n\n" + via_rows,
    )


def table2() -> Artifact:
    """Table II: SSPM area and leakage per configuration (22 nm)."""
    return Artifact("table2_area", "T2 — SSPM synthesis results", area_table())


def fig9(runner: Optional[RunnerConfig] = None) -> Artifact:
    """Figure 9: the design-space exploration; ``data`` is the DseResult."""
    # SpMM runs its own collection of smaller but denser matrices
    spmm = MatrixCollection(6, seed=99, min_n=256, max_n=768)
    result = run_dse(
        dse_collection(), spmm_collection=spmm, spmm_max_n=SPMM_MAX_N,
        runner=runner,
    )
    return Artifact(
        "fig9_dse", "F9 — design-space exploration", render_dse(result), result
    )


def fig10(
    collection: MatrixCollection, runner: Optional[RunnerConfig] = None
) -> Artifact:
    """Figure 10 and its Section VII-A prose claims; ``data`` is the
    SpMV sweep records."""
    records = sweep_spmv(collection, runner=runner)
    text = render_categories(
        "Figure 10 — SpMV speedup by CSB block-density category",
        categorize(records),
        metric_label="nnz/block",
    )
    energy = aggregate_ratio(records, "energy_ratio", "csb")
    bandwidth = aggregate_ratio(records, "bandwidth_ratio", "csb")
    text += "\n" + render_ratio_line("CSB energy reduction", energy, 3.8)
    text += "\n" + render_ratio_line("CSB bandwidth increase", bandwidth, 2.5)
    return Artifact("fig10_spmv", "F10 — SpMV (paper avg: CSB 4.22x)", text, records)


def fig11(
    collection: MatrixCollection, runner: Optional[RunnerConfig] = None
) -> Artifact:
    """Figure 11; ``data`` is the SpMA sweep records."""
    records = sweep_spma(collection, runner=runner)
    text = render_categories(
        "Figure 11 — SpMA speedup by nnz-per-row category",
        categorize(records),
        metric_label="nnz/row",
    ) + "\n(paper average: 6.14x)"
    return Artifact("fig11_spma", "F11 — SpMA", text, records)


def fig11b(
    matrices: int = MATRICES, runner: Optional[RunnerConfig] = None
) -> Artifact:
    """SpMM (Section VII-C) on its own collection, half the size of the
    evaluation collection's ``matrices`` and at least 6; ``data`` is the
    SpMM sweep records."""
    # smaller, denser matrices than the evaluation collection's
    spmm = MatrixCollection(max(matrices // 2, 6), seed=77, min_n=192, max_n=768)
    records = sweep_spmm(spmm, max_n=SPMM_MAX_N, runner=runner)
    text = render_categories(
        "SpMM speedup by nnz-per-row category (paper avg: 6.00x)",
        categorize(records),
        metric_label="nnz/row",
    )
    return Artifact("fig11b_spmm", "F11b — SpMM", text, records)


def histogram_key_streams() -> Dict[str, np.ndarray]:
    """Figure 12a's three key distributions (uniform, gaussian, zipf-like)."""
    rng = np.random.default_rng(42)
    uniform = rng.integers(0, HISTOGRAM_BINS, size=HISTOGRAM_KEYS)
    gaussian = np.clip(
        (
            rng.normal(HISTOGRAM_BINS / 2, HISTOGRAM_BINS / 8, HISTOGRAM_KEYS)
        ).astype(np.int64),
        0,
        HISTOGRAM_BINS - 1,
    )
    zipf = np.minimum(
        (HISTOGRAM_BINS * rng.random(HISTOGRAM_KEYS) ** 3).astype(np.int64),
        HISTOGRAM_BINS - 1,
    )
    return {"uniform": uniform, "gaussian": gaussian, "zipf": zipf}


def fig12a() -> Artifact:
    """Figure 12a; ``data`` maps each key stream to its (scalar, vector,
    VIA) kernel results."""
    results = {}
    for name, keys in histogram_key_streams().items():
        results[name] = (
            histogram_scalar_baseline(keys, HISTOGRAM_BINS),
            histogram_vector_baseline(keys, HISTOGRAM_BINS),
            histogram_via(keys, HISTOGRAM_BINS, functional=False),
        )
    rows = [
        [name, f"{s.cycles / via.cycles:.2f}x", f"{v.cycles / via.cycles:.2f}x"]
        for name, (s, v, via) in results.items()
    ]
    s_avg = geomean(s.cycles / via.cycles for s, v, via in results.values())
    v_avg = geomean(v.cycles / via.cycles for s, v, via in results.values())
    rows.append(["geomean", f"{s_avg:.2f}x", f"{v_avg:.2f}x"])
    text = render_table(
        "Figure 12a — histogram speedup of VIA "
        "(paper: 5.49x scalar, 4.51x vector)",
        ["keys", "vs scalar", "vs vector"],
        rows,
    )
    return Artifact("fig12a_histogram", "F12a — histogram", text, results)


def fig12b() -> Artifact:
    """Figure 12b; ``data`` maps each image size to its (baseline, VIA)
    kernel results."""
    rng = np.random.default_rng(3)
    results = {}
    for size in (128, 256, 512):
        image = rng.standard_normal((size, size))
        results[size] = (
            stencil_vector_baseline(image),
            stencil_via(image, functional=False),
        )
    rows = [
        [
            f"{size}px",
            f"{b.cycles:,.0f}",
            f"{v.cycles:,.0f}",
            f"{b.cycles / v.cycles:.2f}x",
        ]
        for size, (b, v) in results.items()
    ]
    avg = geomean(b.cycles / v.cycles for b, v in results.values())
    rows.append(["geomean", "", "", f"{avg:.2f}x"])
    text = render_table(
        "Figure 12b — 4x4 Gaussian filter speedup (paper avg: 3.39x)",
        ["image", "baseline cycles", "VIA cycles", "speedup"],
        rows,
    )
    return Artifact("fig12b_stencil", "F12b — stencil", text, results)


def evaluation(
    matrices: int = MATRICES,
    *,
    max_n: int = MAX_N,
    seed: int = SEED,
    include_dse: bool = True,
) -> Iterator[Artifact]:
    """Run every artifact in report order, yielding each as it finishes."""
    collection = evaluation_collection(matrices, max_n=max_n, seed=seed)
    yield table1()
    yield table2()
    yield fig10(collection)
    yield fig11(collection)
    yield fig11b(matrices)
    yield fig12a()
    yield fig12b()
    if include_dse:
        yield fig9()
