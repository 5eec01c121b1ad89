"""Full-report CLI: regenerate every paper artifact in one run.

Usage::

    python -m repro.eval.report_cli                # default scale
    python -m repro.eval.report_cli --matrices 48 --max-n 4096
    python -m repro.eval.report_cli --out report.txt
    python -m repro.eval.report_cli --dse-timing   # record/replay speedup

The report prints the same artifacts as ``pytest benchmarks/``: both run
the one definition of each in :mod:`repro.eval.experiments` at the same
default scale, so every section's body equals its checked-in
``benchmarks/results/`` file.  Use this to get the artifacts without the
benchmarking machinery.

Naming note: this module *renders and runs* the full report; the
text-table renderers live in :mod:`repro.eval.reporting`.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.eval import experiments
from repro.eval.dse import run_dse
from repro.eval.reporting import render_table
from repro.matrices import MatrixCollection


def build_report(
    *,
    matrices: int = experiments.MATRICES,
    max_n: int = experiments.MAX_N,
    seed: int = experiments.SEED,
    include_dse: bool = True,
    log=print,
) -> str:
    """Run every experiment and return the combined text report."""
    sections: List[str] = []
    t0 = time.perf_counter()
    for artifact in experiments.evaluation(
        matrices, max_n=max_n, seed=seed, include_dse=include_dse
    ):
        sections.append(
            f"{'=' * 72}\n{artifact.title}\n{'=' * 72}\n{artifact.text}"
        )
        log(f"[{time.perf_counter() - t0:7.1f}s] {artifact.title}")
    sections.append(f"report generated in {time.perf_counter() - t0:.1f}s")
    return "\n\n".join(sections)


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
    parser.add_argument("--matrices", type=int, default=experiments.MATRICES,
                        help="matrices in the collection (default %(default)s)")
    parser.add_argument("--max-n", type=int, default=experiments.MAX_N,
                        help="largest matrix dimension (default %(default)s)")
    parser.add_argument("--seed", type=int, default=experiments.SEED)
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
