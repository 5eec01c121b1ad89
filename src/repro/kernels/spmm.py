"""Sparse matrix-matrix multiplication (SpMM) — paper Algorithm 3, VII-C.

``C = A @ B`` as the classic inner-product formulation: ``A`` in CSR
(row-major traversal), ``B`` in CSC (column-major traversal).  For every
non-empty (row, column) pair the kernel must *index match* the row's
column indices against the column's row indices — the paper's Challenge 2.

Baseline: a sorted two-pointer merge per pair (how a vector-ISA CPU
actually finds matches in sorted streams), with data-dependent branches and
a full re-stream of ``B`` per row of ``A``.

VIA: the row of ``A`` is loaded once into the CAM-mode SSPM, then every
column of ``B`` streams through ``vidxmult.c`` — the index table resolves
the matching in hardware, unmatched lanes contribute zero, and the vector
unit reduces the products (Figure 4).

Because the pair loop touches ``rows(A) x cols(B)`` combinations, the
timing here is narrated with aggregate counts (numpy reductions over the
row/column length vectors).  The functional result is a sparse product
(:func:`_product`) whose cost grows with the number of multiplies and
output entries, not with ``rows(A) x cols(B)``; tests compare it with the
dense golden reference.  The CAM semantics themselves are exercised
end-to-end by the SpMA kernel and the VIA unit tests.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ShapeError
from repro.formats.csc import CSCMatrix
from repro.formats.csr import CSRMatrix
from repro.kernels.common import (
    INDEX_BYTES,
    VALUE_BYTES,
    make_core,
    make_via_core,
)
from repro.sim.backends import Backend
from repro.sim import KernelResult, MachineConfig, calibration as cal
from repro.via import Mode, Opcode, ViaConfig


def _check_pair(a: CSRMatrix, b: CSCMatrix) -> None:
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"SpMM inner dimensions differ: {a.shape} @ {b.shape}")


def _product(a: CSRMatrix, b: CSCMatrix) -> CSRMatrix:
    """``A @ B`` in canonical CSR, expanded row by row (Gustavson).

    Every stored ``A[i, k]`` multiplies every stored ``B[k, j]``.  A stable
    sort by output position keeps each position's products in order of
    ``k``, and they are summed per position.  A position whose products
    sum to exactly zero is dropped, as ``COOMatrix.from_dense`` drops the
    golden dense product's zeros; the timing reads the entry count.
    Values may differ from the dense product's BLAS sums in the last bits.
    Time and memory grow with the number of products and output entries:
    no ``rows x cols`` array is built.
    """
    rows, cols = a.rows, b.cols
    # B's entries row-major: a stable sort of its CSC entries by row keeps
    # each row's columns increasing
    b_order = np.argsort(b.row_idx, kind="stable")
    b_col = np.repeat(np.arange(cols, dtype=np.int64), b.col_lengths())[b_order]
    b_val = b.data[b_order]
    b_ptr = np.zeros(b.rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(b.row_idx, minlength=b.rows), out=b_ptr[1:])
    # one product per (A entry, entry of B's row at that entry's column)
    k = a.col_idx
    fan = b_ptr[k + 1] - b_ptr[k]
    total = int(fan.sum())
    if total == 0:
        return CSRMatrix((rows, cols), np.zeros(rows + 1, dtype=np.int64), [], [])
    a_row = np.repeat(np.arange(rows, dtype=np.int64), a.row_lengths())
    first = np.cumsum(fan) - fan
    b_pos = np.arange(total) + np.repeat(b_ptr[k] - first, fan)
    keys = np.repeat(a_row, fan) * cols + b_col[b_pos]
    vals = np.repeat(a.data, fan) * b_val[b_pos]
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    sums = np.add.reduceat(vals, starts)
    keep = sums != 0.0
    keys, sums = keys[starts[keep]], sums[keep]
    row_ptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // cols, minlength=rows), out=row_ptr[1:])
    return CSRMatrix((rows, cols), row_ptr, keys % cols, sums)


def spmm_csr_baseline(
    a: CSRMatrix, b: CSCMatrix, machine: Optional[MachineConfig] = None,
    backend: Optional[Backend] = None,
) -> KernelResult:
    """Inner-product SpMM with software index matching (Algorithm 3).

    Work model per non-empty (row i, column j) pair: a two-pointer merge
    over the ``len(row_i) + len(col_j)`` sorted indices, each step a
    compare/advance with an unpredictable branch.  Memory: ``A``'s row
    streams once; all of ``B`` re-streams once per non-empty row of ``A``
    (served from whatever cache level holds it).
    """
    _check_pair(a, b)
    core = make_core(machine, backend)
    rows = a.rows
    a_arr = core.alloc("a_entries", a.nnz, INDEX_BYTES + VALUE_BYTES)
    a_rp = core.alloc("a_row_ptr", rows + 1, INDEX_BYTES)
    b_arr = core.alloc("b_entries", b.nnz, INDEX_BYTES + VALUE_BYTES)
    b_cp = core.alloc("b_col_ptr", b.cols + 1, INDEX_BYTES)

    row_len = a.row_lengths()
    col_len = b.col_lengths()
    ne_rows = int((row_len > 0).sum())
    ne_cols = int((col_len > 0).sum())

    core.load_stream(a_rp, 0, rows + 1)
    core.load_stream(a_arr, 0, a.nnz)
    core.bulk_stream(b_cp, passes=max(ne_rows, 1))
    core.bulk_stream(b_arr, passes=max(ne_rows, 1))

    # sum over non-empty pairs of (row_len + col_len)
    merge_steps = int(a.nnz) * ne_cols + ne_rows * int(b.nnz)
    core.scalar_ops(cal.SPMM_STEP_UOPS * merge_steps + 4 * ne_rows * ne_cols)
    core.branches(merge_steps, cal.SPMM_SEARCH_MISPREDICT)

    result = _product(a, b)
    c_arr = core.alloc("c_entries", max(result.nnz, 1), INDEX_BYTES + VALUE_BYTES)
    core.scalar_ops(2 * result.nnz)
    core.store_stream(c_arr, 0, result.nnz)

    return core.finalize("spmm_csr_baseline", output=result)


def spmm_via(
    a: CSRMatrix,
    b: CSCMatrix,
    machine: Optional[MachineConfig] = None,
    via_config: Optional[ViaConfig] = None,
    backend: Optional[Backend] = None,
) -> KernelResult:
    """SpMM on VIA: hardware index matching in the CAM-mode SSPM (Fig. 4).

    Per non-empty row of ``A``: ``vidxclear`` + ``vidxload.c`` of the row
    (its column indices become the tracked indices).  Then every non-empty
    column of ``B`` streams through ``vidxmult.c`` in VL chunks: matched
    lanes return ``a_val * b_val``, unmatched return zero, and a vector
    reduction accumulates the pair's dot product.  Rows longer than the
    index table are tiled, multiplying the number of ``B`` passes.
    """
    _check_pair(a, b)
    core, dev = make_via_core(machine, via_config, backend)
    rows = a.rows
    a_arr = core.alloc("a_entries", a.nnz, INDEX_BYTES + VALUE_BYTES)
    a_rp = core.alloc("a_row_ptr", rows + 1, INDEX_BYTES)
    # B's indices and values stream as separate arrays (as CSC stores them)
    b_idx = core.alloc("b_row_idx", b.nnz, INDEX_BYTES)
    b_dat = core.alloc("b_data", b.nnz, VALUE_BYTES)
    b_cp = core.alloc("b_col_ptr", b.cols + 1, INDEX_BYTES)

    row_len = a.row_lengths()
    col_len = b.col_lengths()
    ne_cols = int((col_len > 0).sum())
    cap = dev.config.cam_entries
    # rows longer than the index table tile into ceil(len/cap) passes
    tiles_per_row = np.where(row_len > 0, -(-row_len // cap), 0)
    total_passes = int(tiles_per_row.sum())

    core.load_stream(a_rp, 0, rows + 1)
    core.load_stream(a_arr, 0, a.nnz)
    core.bulk_stream(b_cp, passes=max(total_passes, 1))
    core.bulk_stream(b_idx, passes=max(total_passes, 1))
    core.bulk_stream(b_dat, passes=max(total_passes, 1))

    # row loads into the CAM (once per tile; a.nnz total elements)
    dev.account_bulk(Opcode.VIDXLOAD, int(a.nnz), mode=Mode.CAM)
    # every B column streams through vidxmult.c once per row pass
    dev.account_bulk(
        Opcode.VIDXMULT, total_passes * int(b.nnz), mode=Mode.CAM
    )
    result = _product(a, b)
    # one reduction + scalar store per produced output entry
    core.vector_op("reduce", result.nnz)
    core.scalar_ops(4 * total_passes * ne_cols + 2 * result.nnz)

    c_arr = core.alloc("c_entries", max(result.nnz, 1), INDEX_BYTES + VALUE_BYTES)
    core.store_stream(c_arr, 0, result.nnz)

    return core.finalize(f"spmm_via_{dev.config.name}", output=result)
