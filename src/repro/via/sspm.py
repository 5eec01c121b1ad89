"""The Smart Scratchpad Memory (SSPM) — paper Section IV-A.

The SSPM is the functional heart of VIA.  It consists of three blocks
(Figure 5):

1. **SRAM cells** — the value storage, organized as four-byte blocks, each
   holding one element;
2. **valid bitmap** — one bit per SRAM entry, used in direct-mapped mode to
   distinguish written entries (reads of unwritten entries return zero) and
   cleared wholesale by the flash-zeroing ``vidxclear`` instruction;
3. **index tracking logic** — the CAM functionality: an index table storing
   the application indices under which values were written, an insertion
   logic that allocates table/SRAM slots strictly *in order* (the paper's
   area optimization over out-of-order issue-queue CAMs), and an element
   count register.

Two operating modes share the SRAM:

* **direct-mapped** (sparse-dense kernels, e.g. SpMV): the application
  index addresses the SRAM directly;
* **CAM-based** (sparse-sparse kernels, e.g. SpMA/SpMM): the application
  index is searched in the index table; reads of unmatched indices return
  zero, writes of unmatched indices insert a new tracked entry.

The class is functional only.  What each VIA instruction asks of the
scratchpad (element touches, CAM searches, port passes) is the FIVU's
profile (:func:`repro.via.fivu.fivu_timing`), which the core prices; the
index table's banking and clock gating (Figure 6) are not modeled.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import SSPMCapacityError, SSPMError
from repro.via.config import DEFAULT_VIA, ViaConfig


class SSPM:
    """Functional model of the smart scratchpad.

    Parameters
    ----------
    config:
        Hardware geometry (capacity, ports, CAM size).
    """

    def __init__(self, config: ViaConfig = DEFAULT_VIA):
        self.config = config
        self._sram = np.zeros(config.sram_entries, dtype=float)
        self._valid = np.zeros(config.sram_entries, dtype=bool)
        # CAM index table: tracked application indices, allocated in order.
        self._cam_index = np.full(config.cam_entries, -1, dtype=np.int64)
        self._cam_map: Dict[int, int] = {}
        self._element_count = 0

    # ------------------------------------------------------------------
    # Shared state
    # ------------------------------------------------------------------
    @property
    def element_count(self) -> int:
        """Value of the element count register (tracked CAM indices)."""
        return self._element_count

    def clear(self, *, segment: Optional[Tuple[int, int]] = None) -> None:
        """Flash-zero the valid bitmap and reset the index tracking logic.

        ``segment=(start, count)`` clears only that bitmap range, as the
        ``vidxclear`` segment mode does; the index table and element count
        register are reset in both modes (Section IV-C).
        """
        if segment is None:
            self._valid[:] = False
        else:
            start, count = segment
            self._check_range(start, count)
            self._valid[start : start + count] = False
        self._cam_index[: self._element_count] = -1
        self._cam_map.clear()
        self._element_count = 0

    # ------------------------------------------------------------------
    # Direct-mapped mode (Section III-B1)
    # ------------------------------------------------------------------
    def dm_write(self, indices, values) -> None:
        """Write ``values`` at SRAM positions ``indices``; set valid bits."""
        idx = self._check_indices(indices)
        vals = np.asarray(values, dtype=float)
        if vals.shape != idx.shape:
            raise SSPMError(
                f"indices and values must match, got {idx.shape} vs {vals.shape}"
            )
        # duplicate indices within one vector resolve in lane order, like a
        # scatter: the highest lane wins
        self._sram[idx] = vals
        self._valid[idx] = True

    def dm_accumulate(self, indices, values, op: str = "add") -> np.ndarray:
        """Read-modify-write: ``sram[idx] = sram[idx] (op) value``.

        Unwritten entries behave as zero (valid bitmap semantics) and become
        valid afterwards.  Duplicate indices within the vector combine
        sequentially in lane order, matching the element-serial SSPM port
        pipeline.  Returns the values written back.
        """
        idx = self._check_indices(indices)
        vals = np.asarray(values, dtype=float)
        if vals.shape != idx.shape:
            raise SSPMError("indices and values must have the same shape")
        func = _OPS.get(op)
        if func is None:
            raise SSPMError(f"unknown accumulate op {op!r}")
        out = np.empty(idx.size, dtype=float)
        for lane in range(idx.size):  # lane order matters for duplicates
            i = int(idx[lane])
            current = self._sram[i] if self._valid[i] else 0.0
            result = func(current, float(vals[lane]))
            self._sram[i] = result
            self._valid[i] = True
            out[lane] = result
        return out

    def dm_read(self, indices) -> np.ndarray:
        """Read SRAM positions; unwritten entries return zero."""
        idx = self._check_indices(indices)
        out = np.where(self._valid[idx], self._sram[idx], 0.0)
        return out.astype(float)

    # ------------------------------------------------------------------
    # CAM-based mode (Section III-B2)
    # ------------------------------------------------------------------
    def cam_write(self, indices, values, op: str = "store") -> None:
        """Write through the index table (Section IV-A, CAM write).

        Each application index is searched; a match updates the existing
        SRAM slot (``store`` overwrites, ``add``/``sub``/``mult``
        accumulate), a miss makes the insertion logic allocate the next
        free table/SRAM slot in order.
        """
        idx = np.asarray(indices, dtype=np.int64).ravel()
        vals = np.asarray(values, dtype=float).ravel()
        if vals.shape != idx.shape:
            raise SSPMError("indices and values must have the same shape")
        if op != "store" and op not in _OPS:
            raise SSPMError(f"unknown CAM write op {op!r}")
        for app_idx, v in zip(idx, vals):
            slot = self._cam_map.get(int(app_idx))
            if slot is None:
                slot = self._cam_insert(int(app_idx))
                self._sram[slot] = v if op == "store" else _OPS.get(op, _store)(0.0, v)
            else:
                if op == "store":
                    self._sram[slot] = v
                else:
                    self._sram[slot] = _OPS[op](self._sram[slot], v)
            self._valid[slot] = True

    def cam_read(self, indices) -> Tuple[np.ndarray, np.ndarray]:
        """Search the index table and read matched SRAM slots.

        Returns ``(values, matched)``: unmatched indices yield 0.0 with a
        False match flag — this *is* the index-matching operation the FIVU
        exposes to the vector unit (Figure 4, step 3).
        """
        idx = np.asarray(indices, dtype=np.int64).ravel()
        values = np.zeros(idx.size, dtype=float)
        matched = np.zeros(idx.size, dtype=bool)
        for lane, app_idx in enumerate(idx):
            slot = self._cam_map.get(int(app_idx))
            if slot is not None:
                values[lane] = self._sram[slot]
                matched[lane] = True
        return values, matched

    def cam_tracked_indices(self, offset: int, count: int) -> np.ndarray:
        """Read ``count`` consecutive tracked indices starting at ``offset``.

        This is the ``vidxmov`` index-drain used when SpMA stores the result
        row back to memory; reading past the element count yields -1.
        """
        if offset < 0 or count < 0:
            raise SSPMError(f"bad index-table window ({offset}, {count})")
        out = np.full(count, -1, dtype=np.int64)
        hi = min(offset + count, self._element_count)
        if hi > offset:
            out[: hi - offset] = self._cam_index[offset:hi]
        return out

    def cam_slot_values(self, offset: int, count: int) -> np.ndarray:
        """Read SRAM values of consecutive CAM slots (result-row drain)."""
        if offset < 0 or count < 0:
            raise SSPMError(f"bad slot window ({offset}, {count})")
        out = np.zeros(count, dtype=float)
        hi = min(offset + count, self._element_count)
        if hi > offset:
            out[: hi - offset] = self._sram[offset:hi]
        return out

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _cam_insert(self, app_idx: int) -> int:
        if self._element_count >= self.config.cam_entries:
            raise SSPMCapacityError(
                f"index table full ({self.config.cam_entries} entries); "
                "the working set must be tiled to fit the SSPM"
            )
        slot = self._element_count
        self._cam_index[slot] = app_idx
        self._cam_map[app_idx] = slot
        self._element_count += 1
        return slot

    def _check_indices(self, indices) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64).ravel()
        if idx.size and (idx.min() < 0 or idx.max() >= self.config.sram_entries):
            raise SSPMError(
                f"direct-mapped index out of range [0, {self.config.sram_entries})"
            )
        return idx

    def _check_range(self, start: int, count: int) -> None:
        if start < 0 or count < 0 or start + count > self.config.sram_entries:
            raise SSPMError(
                f"segment ({start}, {count}) outside "
                f"[0, {self.config.sram_entries})"
            )


def _store(_current: float, value: float) -> float:
    return value


_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mult": lambda a, b: a * b,
}
