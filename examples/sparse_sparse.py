#!/usr/bin/env python
"""Sparse-sparse workloads: SpMA and SpMM with CAM-mode index matching.

The paper's intro motivates SpMM with AI workloads (sparse gradient
updates) and SpMA with iterative solvers that combine sparse operators.
This example mimics both:

* accumulate two sparse gradient matrices (SpMA);
* chain two sparse operators, computing their product (SpMM).

Both baselines burn their cycles in software index matching — compares and
unpredictable branches for SpMA, per-element index searches against every
column for SpMM.  VIA's index table resolves the matching in hardware.

Run:  python examples/sparse_sparse.py
"""

from repro.formats import CSCMatrix, CSRMatrix
from repro.kernels import (
    reference,
    spma_csr_baseline,
    spma_via,
    spmm_csr_baseline,
    spmm_via,
)
from repro.matrices import power_law, random_uniform


def spma_demo() -> None:
    print("=== SpMA: accumulate two sparse gradient matrices ===")
    a = CSRMatrix.from_coo(random_uniform(800, 0.01, 11))
    b = CSRMatrix.from_coo(random_uniform(800, 0.01, 12))
    base = spma_csr_baseline(a, b)
    via = spma_via(a, b)
    golden = CSRMatrix.from_coo(reference.spma(a, b))
    assert via.output.allclose(golden)
    print(f"operands: {a.nnz} + {b.nnz} nnz -> {golden.nnz} nnz")
    print(f"baseline: {base.cycles:12,.0f} cycles "
          f"({base.counters.branch_mispredicts:,.0f} mispredicted branches)")
    print(f"VIA:      {via.cycles:12,.0f} cycles "
          f"({via.counters.cam_searches:,} CAM searches, 0 branches)")
    print(f"speedup:  {base.cycles / via.cycles:.2f}x  (paper avg: 6.14x)\n")


def spmm_demo() -> None:
    print("=== SpMM: chain two sparse operators (A @ B) ===")
    a = CSRMatrix.from_coo(power_law(500, 5.0, 2.0, 13))
    b = CSCMatrix.from_coo(power_law(500, 5.0, 2.0, 14))
    base = spmm_csr_baseline(a, b)
    via = spmm_via(a, b)
    golden = CSRMatrix.from_coo(reference.spmm(a, b))
    assert via.output.allclose(golden)
    print(f"operands: {a.nnz} x {b.nnz} nnz -> {golden.nnz} nnz")
    print(f"baseline: {base.cycles:12,.0f} cycles (bottleneck: "
          f"{base.breakdown.bottleneck})")
    print(f"VIA:      {via.cycles:12,.0f} cycles (bottleneck: "
          f"{via.breakdown.bottleneck})")
    print(f"speedup:  {base.cycles / via.cycles:.2f}x  (paper avg: 6.00x)")


if __name__ == "__main__":
    spma_demo()
    spmm_demo()
