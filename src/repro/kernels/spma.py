"""Sparse matrix addition (SpMA) kernels — paper Algorithm 2 and VII-B.

``C = A + B`` with CSR operands.  The baseline is the Eigen-style merge:
two sorted index streams compared element by element, with data-dependent
branches the predictor cannot learn.  The VIA variant loads one row into
the CAM-mode SSPM, accumulates the other row with ``vidxadd.c`` (index
matching in hardware, misses insert in order), then drains the result row
with ``vidxcount`` + ``vidxmov`` — no comparisons, no branches.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ShapeError
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.kernels.common import (
    INDEX_BYTES,
    VALUE_BYTES,
    make_core,
    make_via_core,
)
from repro.sim.backends import Backend
from repro.sim import KernelResult, MachineConfig, calibration as cal
from repro.via import ViaConfig


def _check_pair(a: CSRMatrix, b: CSRMatrix) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"SpMA operands differ in shape: {a.shape} vs {b.shape}")


def spma_csr_baseline(
    a: CSRMatrix, b: CSRMatrix, machine: Optional[MachineConfig] = None,
    backend: Optional[Backend] = None,
) -> KernelResult:
    """Merge-based CSR SpMA (Algorithm 2, Eigen-style).

    Per output row the two sorted column streams are merged: every step
    compares the heads, consumes one (or both on a match) and appends to
    ``C``.  The comparison outcome depends on unrelated index streams, so a
    fixed fraction of the branches mispredict (see calibration).
    """
    _check_pair(a, b)
    core = make_core(machine, backend)
    rows = a.rows
    a_arr = core.alloc("a_entries", a.nnz, INDEX_BYTES + VALUE_BYTES)
    b_arr = core.alloc("b_entries", b.nnz, INDEX_BYTES + VALUE_BYTES)
    a_rp = core.alloc("a_row_ptr", rows + 1, INDEX_BYTES)
    b_rp = core.alloc("b_row_ptr", rows + 1, INDEX_BYTES)

    result = _spma_reference(a, b)
    c_arr = core.alloc("c_entries", max(result.nnz, 1), INDEX_BYTES + VALUE_BYTES)

    core.load_stream(a_rp, 0, rows + 1)
    core.load_stream(b_rp, 0, rows + 1)
    core.load_stream(a_arr, 0, a.nnz)
    core.load_stream(b_arr, 0, b.nnz)

    # merge work: one iteration per consumed input entry (compare, select,
    # pointer advances, bounds check, result append) plus per-row result
    # setup — the Eigen-style software cost model from the calibration file
    steps = a.nnz + b.nnz
    core.scalar_ops(cal.SPMA_STEP_UOPS * steps + cal.SPMA_ROW_UOPS * rows)
    core.branches(steps, cal.SPMA_MERGE_MISPREDICT)
    core.branches(steps, cal.SPMA_INSERT_MISPREDICT)  # result-append checks
    core.branches(2 * rows, cal.SPMA_MERGE_MISPREDICT)  # row loop exits
    core.store_stream(c_arr, 0, result.nnz)

    return core.finalize("spma_csr_baseline", output=result)


def spma_via(
    a: CSRMatrix,
    b: CSRMatrix,
    machine: Optional[MachineConfig] = None,
    via_config: Optional[ViaConfig] = None,
    backend: Optional[Backend] = None,
) -> KernelResult:
    """SpMA on VIA: CAM-mode index matching (Section III-B2).

    Rows are packed into SSPM *fills*: as many consecutive rows as the
    index table holds are processed per ``vidxclear`` (the tracked index
    is the linearized ``row * cols + col`` key, which keeps VL lanes from
    different rows independent).  Per row of a fill: ``vidxload.c``
    inserts the row's A entries, then ``vidxadd.c`` streams its B entries
    through the index table — matching keys accumulate, new keys insert
    in order.  All of a fill's per-row pairs run against the SSPM in one
    step (:meth:`~repro.via.engine.ViaDevice.cam_fill`), which appends
    each row's instruction rows as the per-row calls would.  Per fill,
    ``vidxcount`` + ``vidxmov`` then drain the result entries to memory.

    Larger SSPMs pack more rows per fill and amortize the fill overheads —
    the capacity effect the paper's Figure 9 measures for SpMA.  Single
    rows wider than the index table fall back to column-segment tiling,
    each segment a one-row fill.

    The flow runs functionally through the SSPM: the returned matrix is
    assembled from the scratchpad drains.
    """
    _check_pair(a, b)
    core, dev = make_via_core(machine, via_config, backend)
    rows, cols = a.shape
    a_arr = core.alloc("a_entries", a.nnz, INDEX_BYTES + VALUE_BYTES)
    b_arr = core.alloc("b_entries", b.nnz, INDEX_BYTES + VALUE_BYTES)
    a_rp = core.alloc("a_row_ptr", rows + 1, INDEX_BYTES)
    b_rp = core.alloc("b_row_ptr", rows + 1, INDEX_BYTES)

    core.load_stream(a_rp, 0, rows + 1)
    core.load_stream(b_rp, 0, rows + 1)
    core.load_stream(a_arr, 0, a.nnz)
    core.load_stream(b_arr, 0, b.nnz)

    cap = dev.config.cam_entries
    out_rows, out_cols, out_vals = [], [], []
    total_out = 0
    a_len, b_len = a.row_lengths(), b.row_lengths()
    row_base = np.arange(rows, dtype=np.int64) * cols
    a_keys = np.repeat(row_base, a_len) + a.col_idx
    b_keys = np.repeat(row_base, b_len) + b.col_idx

    def flush(batch_rows) -> None:
        nonlocal total_out
        if not batch_rows:
            return
        dev.vidxclear()
        ends = batch_rows + [batch_rows[-1] + 1]
        dev.cam_fill(
            _fill_operand(a, a_keys, ends),
            _fill_operand(b, b_keys, ends),
            row_uops=6,
        )
        n = dev.vidxcount()
        if n:
            keys, vals = dev.vidxmov(0, n)
            # decode linearized keys back to (row, col): shift + mask class
            core.vector_op("alu", 2 * (-(-n // core.machine.vl)))
            out_rows.append(keys // cols)
            out_cols.append(keys % cols)
            out_vals.append(vals)
            total_out += n
        core.scalar_ops(4)

    batch, batch_fill = [], 0
    for r in range(rows):
        upper = int(a_len[r] + b_len[r])  # union upper bound
        if upper == 0:
            core.scalar_ops(2)
            continue
        if upper > cap:
            # a single row wider than the index table: segment its columns
            flush(batch)
            batch, batch_fill = [], 0
            ac, av = a.row_slice(r)
            bc, bv = b.row_slice(r)
            for a_seg, b_seg in _column_segments(ac, bc, cap):
                dev.vidxclear()
                dev.cam_fill(
                    (av[a_seg], ac[a_seg], [0, a_seg.size]),
                    (bv[b_seg], bc[b_seg], [0, b_seg.size]),
                    row_uops=0,
                )
                n = dev.vidxcount()
                idx, vals = dev.vidxmov(0, n)
                out_rows.append(np.full(n, r, dtype=np.int64))
                out_cols.append(idx)
                out_vals.append(vals)
                total_out += n
            core.scalar_ops(6)
            continue
        if batch_fill + upper > cap:
            flush(batch)
            batch, batch_fill = [], 0
        batch.append(r)
        batch_fill += upper
    flush(batch)

    c_arr = core.alloc("c_entries", max(total_out, 1), INDEX_BYTES + VALUE_BYTES)
    core.store_stream(c_arr, 0, total_out)

    if out_rows:
        result = COOMatrix(
            a.shape,
            np.concatenate(out_rows),
            np.concatenate(out_cols),
            np.concatenate(out_vals),
        )
    else:
        result = COOMatrix.empty(a.shape)
    return core.finalize(f"spma_via_{dev.config.name}", output=CSRMatrix.from_coo(result))


def _fill_operand(m: CSRMatrix, keys: np.ndarray, ends: list):
    """One operand of a fill as ``(values, keys, row_ptr)``.

    ``ends`` is the fill's rows and one past its last.  Only empty rows
    fall between a fill's rows, so its entries are one contiguous slice.
    """
    ptr = m.row_ptr[ends]
    lo, hi = int(ptr[0]), int(ptr[-1])
    return m.data[lo:hi], keys[lo:hi], ptr - lo


def _spma_reference(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    from repro.kernels import reference

    return CSRMatrix.from_coo(reference.spma(a, b))


def _column_segments(ac: np.ndarray, bc: np.ndarray, cap: int):
    """Split two sorted column-index rows so each segment's union fits.

    Yields ``(a_positions, b_positions)`` index arrays.  The common case —
    the whole union fits the index table — yields a single full segment.
    """
    union = np.union1d(ac, bc)
    if union.size <= cap:
        yield np.arange(ac.size), np.arange(bc.size)
        return
    for lo in range(0, union.size, cap):
        seg_cols = union[lo : lo + cap]
        lo_col, hi_col = seg_cols[0], seg_cols[-1]
        a_pos = np.flatnonzero((ac >= lo_col) & (ac <= hi_col))
        b_pos = np.flatnonzero((bc >= lo_col) & (bc <= hi_col))
        yield a_pos, b_pos
