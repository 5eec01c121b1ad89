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

Every access takes a whole operand — any number of lanes, not just one
VL-wide instruction's — in one step, with the semantics of its
lanes applied one at a time in order: a repeated index keeps its last
store and accumulates in lane order, CAM misses insert in order of first
occurrence, and a CAM overflow applies every lane before the overflowing
one.  (``tests/test_via_bulk.py`` pins each access against a lane-by-lane
reference.)

The class is functional only.  What each VIA instruction asks of the
scratchpad (element touches, CAM searches, port passes) is the FIVU's
profile (:func:`repro.via.fivu.fivu_timing`), which the core prices; the
index table's banking and clock gating (Figure 6) are not modeled.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

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
        """Write ``values`` at SRAM positions ``indices``; set valid bits.

        A repeated index keeps its last lane, as lane-by-lane stores do.
        """
        idx = self._check_indices(indices)
        vals = np.asarray(values, dtype=float)
        if vals.shape != idx.shape:
            raise SSPMError(
                f"indices and values must match, got {idx.shape} vs {vals.shape}"
            )
        last = _last_lanes(idx)
        self._sram[idx[last]] = vals[last]
        self._valid[idx] = True

    def dm_accumulate(self, indices, values, op: str = "add") -> np.ndarray:
        """Read-modify-write: ``sram[idx] = sram[idx] (op) value``.

        Unwritten entries behave as zero (valid bitmap semantics) and become
        valid afterwards.  Duplicate indices within the operand combine
        sequentially in lane order (``ufunc.at`` applies its lanes in
        order), matching the element-serial SSPM port pipeline.  Returns
        the value each lane's entry holds afterwards.
        """
        idx = self._check_indices(indices)
        vals = np.asarray(values, dtype=float)
        if vals.shape != idx.shape:
            raise SSPMError("indices and values must have the same shape")
        func = _UFUNCS.get(op)
        if func is None:
            raise SSPMError(f"unknown accumulate op {op!r}")
        self._sram[idx[~self._valid[idx]]] = 0.0
        self._valid[idx] = True
        func.at(self._sram, idx, vals)
        return self._sram[idx]

    def dm_read(self, indices) -> np.ndarray:
        """Read SRAM positions; unwritten entries return zero."""
        idx = self._check_indices(indices)
        out = np.where(self._valid[idx], self._sram[idx], 0.0)
        return out.astype(float)

    # ------------------------------------------------------------------
    # CAM-based mode (Section III-B2)
    # ------------------------------------------------------------------
    def cam_write(
        self, indices, values, op: str = "store", stores: Optional[np.ndarray] = None
    ) -> None:
        """Write through the index table (Section IV-A, CAM write).

        Each application index is searched; a match updates the existing
        SRAM slot (``store`` overwrites, ``add``/``sub``/``mult``
        accumulate), a miss makes the insertion logic allocate the next
        free table/SRAM slot in order of first occurrence.  ``stores``, a
        per-lane mask, makes the lanes it marks store and the others apply
        ``op``, so one operand can mix ``vidxload.c`` and ``vidxadd.c``
        lanes.  The operand applies as its lanes would one at a time: each
        slot keeps its last store, then the accumulations after it in lane
        order, and if the table fills, every lane before the overflowing
        one is applied before :class:`~repro.errors.SSPMCapacityError` is
        raised.
        """
        idx = np.asarray(indices, dtype=np.int64).ravel()
        vals = np.asarray(values, dtype=float).ravel()
        if vals.shape != idx.shape:
            raise SSPMError("indices and values must have the same shape")
        if op != "store" and op not in _UFUNCS:
            raise SSPMError(f"unknown CAM write op {op!r}")
        if stores is None:
            stores = np.zeros(idx.size, dtype=bool)
        stores = np.asarray(stores, dtype=bool).ravel() | (op == "store")
        if stores.shape != idx.shape:
            raise SSPMError("indices and the store mask must have the same shape")
        slots, stop = self._cam_slots(idx)
        slots, vals, stores = slots[:stop], vals[:stop], stores[:stop]
        lanes = np.flatnonzero(stores)
        lanes = lanes[_last_lanes(slots[lanes])]
        self._sram[slots[lanes]] = vals[lanes]
        if op != "store":
            last_store = np.full(self.config.cam_entries, -1, dtype=np.int64)
            last_store[slots[lanes]] = lanes
            after = np.arange(stop) > last_store[slots]
            _UFUNCS[op].at(self._sram, slots[after], vals[after])
        if stop < idx.size:
            raise SSPMCapacityError(
                f"index table full ({self.config.cam_entries} entries); "
                "the working set must be tiled to fit the SSPM"
            )

    def cam_read(self, indices) -> Tuple[np.ndarray, np.ndarray]:
        """Search the index table and read matched SRAM slots.

        Returns ``(values, matched)``: unmatched indices yield 0.0 with a
        False match flag — this *is* the index-matching operation the FIVU
        exposes to the vector unit (Figure 4, step 3).
        """
        idx = np.asarray(indices, dtype=np.int64).ravel()
        slots = self._cam_find(idx.tolist())
        matched = slots >= 0
        values = np.zeros(idx.size, dtype=float)
        values[matched] = self._sram[slots[matched]]
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
    def _cam_find(self, keys: List[int]) -> np.ndarray:
        """Each key's index-table slot, or -1 where the key is untracked."""
        get = self._cam_map.get
        return np.fromiter(
            map(get, keys, itertools.repeat(-1)), dtype=np.int64, count=len(keys)
        )

    def _cam_slots(self, idx: np.ndarray) -> Tuple[np.ndarray, int]:
        """Search every lane and insert the misses in first-occurrence order.

        Returns the lanes' slots and how many leading lanes were served:
        all of them, or those before the first lane whose new index found
        the table full (that index and later new ones are not inserted).
        """
        keys = idx.tolist()
        tracked = self._cam_map
        new = [k for k in dict.fromkeys(keys) if k not in tracked]
        base = self._element_count
        free = self.config.cam_entries - base
        if new:
            fits = new[:free]
            end = base + len(fits)
            self._cam_index[base:end] = fits
            tracked.update(zip(fits, range(base, end)))
            self._sram[base:end] = 0.0
            self._valid[base:end] = True
            self._element_count = end
        slots = self._cam_find(keys)
        if len(new) <= free:
            return slots, idx.size
        return slots, int(np.argmax(slots < 0))

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


def _last_lanes(idx: np.ndarray) -> np.ndarray:
    """Lane of each distinct index's last occurrence (store semantics)."""
    last = dict(zip(idx.tolist(), range(idx.size)))
    return np.fromiter(last.values(), dtype=np.int64, count=len(last))


#: accumulate ops; ``ufunc.at`` applies repeated indices in lane order
_UFUNCS = {"add": np.add, "sub": np.subtract, "mult": np.multiply}
