"""Full-report CLI: regenerate every paper artifact in one run.

Usage::

    python -m repro.eval.report_cli                # default scale
    python -m repro.eval.report_cli --matrices 48 --max-n 4096
    python -m repro.eval.report_cli --out report.txt
    python -m repro.eval.report_cli --dse-timing   # record/replay speedup

This is the scripted equivalent of ``pytest benchmarks/ --benchmark-only``
for users who want the artifacts without the benchmarking machinery.

Naming note: this module *renders and runs* the full report; the
text-table renderers live in :mod:`repro.eval.reporting`.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

import numpy as np

from repro.eval.categories import aggregate_ratio, categorize
from repro.eval.dse import run_dse
from repro.eval.harness import geomean, sweep_spma, sweep_spmm, sweep_spmv
from repro.eval.reporting import (
    render_categories,
    render_dse,
    render_ratio_line,
    render_table,
)
from repro.kernels import (
    histogram_scalar_baseline,
    histogram_vector_baseline,
    histogram_via,
    stencil_vector_baseline,
    stencil_via,
)
from repro.matrices import MatrixCollection, dse_collection
from repro.sim import table1
from repro.via import table2


def build_report(
    *,
    matrices: int = 16,
    max_n: int = 1024,
    seed: int = 2021,
    include_dse: bool = True,
    log=print,
) -> str:
    """Run every experiment and return the combined text report."""
    sections: List[str] = []
    t0 = time.perf_counter()

    def section(title: str, body: str) -> None:
        sections.append(f"{'=' * 72}\n{title}\n{'=' * 72}\n{body}")
        log(f"[{time.perf_counter() - t0:7.1f}s] {title}")

    collection = MatrixCollection(matrices, seed=seed, min_n=192, max_n=max_n)

    section("T1 — simulation parameters", table1())
    section("T2 — SSPM synthesis results", table2())

    spmv_records = sweep_spmv(collection)
    body = render_categories(
        "Figure 10 — SpMV speedup by CSB block-density category",
        categorize(spmv_records),
        metric_label="nnz/block",
    )
    body += "\n" + render_ratio_line(
        "CSB energy reduction",
        aggregate_ratio(spmv_records, "energy_ratio", "csb"),
        3.8,
    )
    body += "\n" + render_ratio_line(
        "CSB bandwidth increase",
        aggregate_ratio(spmv_records, "bandwidth_ratio", "csb"),
        2.5,
    )
    section("F10 — SpMV (paper avg: CSB 4.22x)", body)

    spma_records = sweep_spma(collection)
    section(
        "F11 — SpMA (paper avg: 6.14x)",
        render_categories(
            "Figure 11 — SpMA speedup by nnz-per-row category",
            categorize(spma_records),
            metric_label="nnz/row",
        ),
    )

    spmm_records = sweep_spmm(collection, max_n=min(max_n, 1024))
    section(
        "F11b — SpMM (paper avg: 6.00x)",
        render_categories(
            "SpMM speedup by nnz-per-row category",
            categorize(spmm_records),
            metric_label="nnz/row",
        ),
    )

    section("F12a — histogram (paper: 5.49x / 4.51x)", _histogram_section())
    section("F12b — stencil (paper avg: 3.39x)", _stencil_section())

    if include_dse:
        dse = run_dse(
            dse_collection(),
            spmm_collection=MatrixCollection(4, seed=99, min_n=256, max_n=640),
        )
        section("F9 — design-space exploration", render_dse(dse))

    sections.append(f"report generated in {time.perf_counter() - t0:.1f}s")
    return "\n\n".join(sections)


def _histogram_section() -> str:
    rng = np.random.default_rng(42)
    rows = []
    ratios_s, ratios_v = [], []
    for name, keys in (
        ("uniform", rng.integers(0, 1024, 16384)),
        ("zipf", np.minimum((1024 * rng.random(16384) ** 3).astype(int), 1023)),
    ):
        s = histogram_scalar_baseline(keys, 1024)
        v = histogram_vector_baseline(keys, 1024)
        via = histogram_via(keys, 1024, functional=False)
        ratios_s.append(s.cycles / via.cycles)
        ratios_v.append(v.cycles / via.cycles)
        rows.append(
            [name, f"{ratios_s[-1]:.2f}x", f"{ratios_v[-1]:.2f}x"]
        )
    rows.append(["geomean", f"{geomean(ratios_s):.2f}x", f"{geomean(ratios_v):.2f}x"])
    return render_table(
        "Figure 12a — histogram speedups", ["keys", "vs scalar", "vs vector"], rows
    )


def _stencil_section() -> str:
    rng = np.random.default_rng(3)
    rows = []
    ratios = []
    for size in (128, 256):
        image = rng.standard_normal((size, size))
        base = stencil_vector_baseline(image)
        via = stencil_via(image, functional=False)
        ratios.append(base.cycles / via.cycles)
        rows.append([f"{size}px", f"{ratios[-1]:.2f}x"])
    rows.append(["geomean", f"{geomean(ratios):.2f}x"])
    return render_table(
        "Figure 12b — Gaussian filter speedups", ["image", "speedup"], rows
    )


def dse_timing_report(
    *,
    matrices: int = 6,
    max_n: int = 640,
    seed: int = 2021,
    log=print,
) -> str:
    """Measure the record/replay DSE against per-config direct sweeps.

    Runs the same configuration sweep three ways — direct (every config
    re-executes every kernel), cold record/replay (record once per
    SSPM-capacity group into a fresh store, replay every config), and warm
    replay (second pass over the same store) — and reports wall times plus
    a bit-identity check of every kernel×config cell.  Two sweeps are
    timed: the paper's four Fig. 9 configurations, and a 2-capacity ×
    4-port sweep where the replay economics are starker (one recording per
    capacity serves four port variants).
    """
    import tempfile

    from repro.via.config import ViaConfig, dse_configs

    collection = MatrixCollection(matrices, seed=seed, min_n=192, max_n=max_n)
    sweeps = [
        ("Fig. 9 (4 configs)", dse_configs()),
        (
            "port scaling (8 configs)",
            [ViaConfig(kb, p) for kb in (4, 16) for p in (1, 2, 4, 8)],
        ),
    ]
    rows = []
    for label, configs in sweeps:
        t0 = time.perf_counter()
        direct = run_dse(collection, configs=configs)
        t_direct = time.perf_counter() - t0
        log(f"{label}: direct {t_direct:.2f}s")
        with tempfile.TemporaryDirectory() as td:
            t0 = time.perf_counter()
            replayed = run_dse(collection, configs=configs, record_dir=td)
            t_cold = time.perf_counter() - t0
            t0 = time.perf_counter()
            warm = run_dse(collection, configs=configs, record_dir=td)
            t_warm = time.perf_counter() - t0
        identical = all(
            replayed.cycles[k][c] == v and warm.cycles[k][c] == v
            for k, per_cfg in direct.cycles.items()
            for c, v in per_cfg.items()
        )
        log(
            f"{label}: record+replay {t_cold:.2f}s "
            f"({t_direct / t_cold:.2f}x), warm {t_warm:.2f}s, "
            f"identical={identical}"
        )
        rows.append([
            label,
            f"{t_direct:.2f}s",
            f"{t_cold:.2f}s",
            f"{t_direct / t_cold:.2f}x",
            f"{t_warm:.2f}s",
            f"{t_direct / t_warm:.2f}x",
            "yes" if identical else "NO",
        ])
    return render_table(
        "DSE wall time — per-config direct vs record/replay",
        ["sweep", "direct", "cold replay", "speedup", "warm replay",
         "speedup", "bit-identical"],
        rows,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval.report_cli",
        description="Regenerate the paper's evaluation artifacts.",
    )
    parser.add_argument("--matrices", type=int, default=16,
                        help="matrices in the collection (default 16)")
    parser.add_argument("--max-n", type=int, default=1024,
                        help="largest matrix dimension (default 1024)")
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--skip-dse", action="store_true",
                        help="skip the (slow) Figure 9 sweep")
    parser.add_argument("--out", type=str, default=None,
                        help="also write the report to this file")
    parser.add_argument("--dse-timing", action="store_true",
                        help="measure the record/replay DSE against "
                             "per-config direct sweeps and exit")
    args = parser.parse_args(argv)

    if args.dse_timing:
        report = dse_timing_report(seed=args.seed)
        print(report)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(report + "\n")
        return 0

    report = build_report(
        matrices=args.matrices,
        max_n=args.max_n,
        seed=args.seed,
        include_dse=not args.skip_dse,
    )
    print(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
