"""Fixed-input layer benchmark for VIA execution at paper density.

Times the VIA kernels whose SSPM work dominates a unit at the paper's
density — ``spma_via``, ``spmv_csr_via``, ``spmv_csb_via`` and
``spmm_via`` — on one fixed matrix, ``random_0933`` from
``paper_collection()`` (n = 2,047, about 28 nonzeros per row), at the
paper's selected 16_2p configuration.  SpMA adds the matrix's sibling
(the same spec, seed + 1, as the sweep's SpMA units pair them); SpMM
multiplies it by the sibling with seed + 2 in CSC, as the sweep's SpMM
units pair them, into a product of 1,344,225 entries; SpMV multiplies a
fixed ``x``.

Each kernel's figure is the fastest of ``--repeats`` runs, each timed with
``time.process_time`` (CPU time of this process, so a descheduled
interval on a shared host does not count).  Every run's cycle count is
checked against the value pinned below, so a faster kernel that priced
differently fails, and writes no summary, instead of reporting a gain.

Run::

    PYTHONPATH=src python benchmarks/bench_via.py [--repeats 5] [--json PATH]

To compare two checkouts, run the same script against each one's sources
(``PYTHONPATH=<checkout>/src``).  ``pytest benchmarks`` does not collect
it.  CI runs it once per push (``--repeats 1 --json /tmp/...``) for its
cycle pins alone; no timing is gated.  The checked-in run is
``benchmarks/results/BENCH_via.json``, summarized in EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.formats.csb import CSBMatrix
from repro.formats.csc import CSCMatrix
from repro.formats.csr import CSRMatrix
from repro.kernels.spma import spma_via
from repro.kernels.spmm import spmm_via
from repro.kernels.spmv import spmv_csb_via, spmv_csr_via
from repro.matrices.collection import paper_collection
from repro.sim.config import DEFAULT_MACHINE
from repro.via.config import VIA_16_2P

DEFAULT_JSON = Path(__file__).resolve().parent / "results" / "BENCH_via.json"

MATRIX = "random_0933"

#: cycles of each kernel on the fixed inputs at 16_2p
PINNED_CYCLES = {
    "spma_via": 399798.5,
    "spmv_csr_via": 417129.375,
    "spmv_csb_via": 118961.25,
    "spmm_via": 102005149.125,
}


def _inputs():
    spec = next(s for s in paper_collection().specs if s.name == MATRIX)
    coo = spec.build()

    def sibling(seed_shift):
        return dataclasses.replace(
            spec, name=spec.name + "_b", seed=spec.seed + seed_shift
        ).build()

    a = CSRMatrix.from_coo(coo)
    b = CSRMatrix.from_coo(sibling(1))
    b_csc = CSCMatrix.from_coo(sibling(2))
    csb = CSBMatrix.from_coo(coo, block_size=VIA_16_2P.csb_block_size)
    x = np.linspace(-1.0, 1.0, coo.cols)
    m, cfg = DEFAULT_MACHINE, VIA_16_2P
    kernels = {
        "spma_via": lambda: spma_via(a, b, m, cfg),
        "spmv_csr_via": lambda: spmv_csr_via(a, x, m, cfg),
        "spmv_csb_via": lambda: spmv_csb_via(csb, x, m, cfg),
        "spmm_via": lambda: spmm_via(a, b_csc, m, cfg),
    }
    return spec, coo, kernels


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed runs per kernel; the fastest counts (default 5)")
    parser.add_argument("--json", metavar="PATH",
                        help=f"summary JSON path (default {DEFAULT_JSON})")
    args = parser.parse_args(argv)

    spec, coo, kernels = _inputs()
    print(f"{MATRIX}: n={coo.rows}, nnz={coo.nnz} "
          f"({coo.nnz / coo.rows:.1f} per row), {VIA_16_2P.name}")
    rows = {}
    mismatched = []
    for name, run in kernels.items():
        best = float("inf")
        cycles = None
        for _ in range(max(1, args.repeats)):
            t0 = time.process_time()
            result = run()
            best = min(best, time.process_time() - t0)
            cycles = result.cycles
            if cycles != PINNED_CYCLES[name]:
                mismatched.append(f"{name}: {cycles!r} != pinned {PINNED_CYCLES[name]!r}")
        rows[name] = {"best_s": round(best, 4), "cycles": cycles}
        print(f"  {name:<14} {best * 1e3:9.1f} ms   cycles {cycles!r}")

    if mismatched:
        # a run that priced differently is not a timing of this benchmark
        print("CYCLES CHANGED, nothing written: " + "; ".join(mismatched),
              file=sys.stderr)
        return 1
    summary = {
        "matrix": {"name": MATRIX, "n": coo.rows, "nnz": coo.nnz, "seed": spec.seed},
        "via_config": VIA_16_2P.name,
        "repeats": args.repeats,
        "timer": "time.process_time, fastest run",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernels": rows,
    }
    out = Path(args.json) if args.json else DEFAULT_JSON
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
