"""Per-chunk VIA reference: the helpers one VL chunk at a time, the SSPM one lane at a time.

Production runs every VIA helper operand against the SSPM in one
vectorized step (:mod:`repro.via.engine`, :mod:`repro.via.sspm`).  This
module keeps the chunk-by-chunk, lane-by-lane execution it replaced, as
the test oracle:

* :class:`LaneSSPM` performs each SSPM access one lane at a time over the
  same state arrays (SRAM, valid bitmap, index table, element count);
* :class:`ChunkViaDevice` splits each helper operand into VL-wide chunks
  with :func:`chunks` and runs each through :meth:`ViaDevice.execute`,
  which builds one instruction and appends one builder row per chunk, on
  a :class:`LaneSSPM`; it runs a SpMA fill (:meth:`ViaDevice.cam_fill`)
  as the per-row ``vidxload``/``vidxadd`` and ``scalar_ops`` calls the
  kernel made before fills ran in one step.

``tests/test_via_bulk.py`` compares production against both, state, return
values, exceptions and builder rows alike.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ISAError, SSPMCapacityError, SSPMError
from repro.via.config import DEFAULT_VIA, ViaConfig
from repro.via.engine import ViaDevice
from repro.via.isa import Dest, Mode, Opcode, ViaInstruction
from repro.via.sspm import SSPM

_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mult": lambda a, b: a * b,
}


class LaneSSPM(SSPM):
    """The SSPM with every access applied one lane at a time."""

    def dm_write(self, indices, values) -> None:
        idx = self._check_indices(indices)
        vals = np.asarray(values, dtype=float)
        if vals.shape != idx.shape:
            raise SSPMError(
                f"indices and values must match, got {idx.shape} vs {vals.shape}"
            )
        for i, v in zip(idx.tolist(), vals.tolist()):
            self._sram[i] = v
            self._valid[i] = True

    def dm_accumulate(self, indices, values, op: str = "add") -> np.ndarray:
        """Lane-order read-modify-write; returns each lane's running value."""
        idx = self._check_indices(indices)
        vals = np.asarray(values, dtype=float)
        if vals.shape != idx.shape:
            raise SSPMError("indices and values must have the same shape")
        func = _OPS.get(op)
        if func is None:
            raise SSPMError(f"unknown accumulate op {op!r}")
        out = np.empty(idx.size, dtype=float)
        for lane in range(idx.size):
            i = int(idx[lane])
            current = self._sram[i] if self._valid[i] else 0.0
            result = func(current, float(vals[lane]))
            self._sram[i] = result
            self._valid[i] = True
            out[lane] = result
        return out

    def cam_write(self, indices, values, op: str = "store", stores=None) -> None:
        """Each lane stores if ``op`` or its ``stores`` flag says so, else
        applies ``op``."""
        idx = np.asarray(indices, dtype=np.int64).ravel()
        vals = np.asarray(values, dtype=float).ravel()
        if vals.shape != idx.shape:
            raise SSPMError("indices and values must have the same shape")
        if op != "store" and op not in _OPS:
            raise SSPMError(f"unknown CAM write op {op!r}")
        if stores is None:
            stores = np.zeros(idx.size, dtype=bool)
        stores = np.asarray(stores, dtype=bool).ravel()
        if stores.shape != idx.shape:
            raise SSPMError("indices and the store mask must have the same shape")
        for key, v, store in zip(idx.tolist(), vals.tolist(), stores.tolist()):
            lane_op = "store" if store else op
            slot = self._lookup(key)
            if slot is None:
                slot = self._insert(key)
                current = 0.0
            else:
                current = self._sram[slot]
            self._sram[slot] = v if lane_op == "store" else _OPS[lane_op](current, v)
            self._valid[slot] = True

    def cam_read(self, indices) -> Tuple[np.ndarray, np.ndarray]:
        idx = np.asarray(indices, dtype=np.int64).ravel()
        values = np.zeros(idx.size, dtype=float)
        matched = np.zeros(idx.size, dtype=bool)
        for lane, key in enumerate(idx.tolist()):
            slot = self._lookup(key)
            if slot is not None:
                values[lane] = self._sram[slot]
                matched[lane] = True
        return values, matched

    def _lookup(self, key: int) -> Optional[int]:
        hits = np.flatnonzero(self._cam_index[: self._element_count] == key)
        return int(hits[0]) if hits.size else None

    def _insert(self, key: int) -> int:
        if self._element_count >= self.config.cam_entries:
            raise SSPMCapacityError(
                f"index table full ({self.config.cam_entries} entries); "
                "the working set must be tiled to fit the SSPM"
            )
        slot = self._element_count
        self._cam_index[slot] = key
        self._element_count += 1
        return slot


def chunks(data, idx, vl: int):
    """Split (data, idx) into VL-sized instruction operands."""
    data = np.asarray(data, dtype=float).ravel()
    idx = np.asarray(idx, dtype=np.int64).ravel()
    if data.size != idx.size:
        raise ISAError(f"data ({data.size}) and idx ({idx.size}) must match")
    for lo in range(0, data.size, vl):
        yield data[lo : lo + vl], idx[lo : lo + vl]


class ChunkViaDevice(ViaDevice):
    """A VIA device whose helpers execute one VL chunk per instruction."""

    def __init__(self, config: ViaConfig = DEFAULT_VIA):
        super().__init__(config)
        self.sspm = LaneSSPM(config)

    def vidxload(self, data, idx, mode: Mode = Mode.DIRECT) -> None:
        for d, i in chunks(data, idx, self.vl):
            self.execute(ViaInstruction.load(d, i, mode))

    def vidxblkmult(self, data, idx, *, idx_offset: int, offset: int) -> None:
        for d, i in chunks(data, idx, self.vl):
            self.execute(ViaInstruction.blkmult(d, i, idx_offset, offset))

    def vidxmov(self, offset: int, count: int) -> Tuple[np.ndarray, np.ndarray]:
        idx_parts = [np.zeros(0, dtype=np.int64)]
        val_parts = [np.zeros(0, dtype=float)]
        done = 0
        while done < count:
            take = min(self.vl, count - done)
            i, v = self.execute(ViaInstruction.mov(offset + done, take))
            idx_parts.append(i)
            val_parts.append(v)
            done += take
        return np.concatenate(idx_parts), np.concatenate(val_parts)

    def cam_fill(self, a, b, *, row_uops: int) -> None:
        """A SpMA fill as the kernel issued it, one helper call per row."""
        (a_vals, a_keys, a_ptr), (b_vals, b_keys, b_ptr) = a, b
        for r in range(len(a_ptr) - 1):
            a_row = slice(a_ptr[r], a_ptr[r + 1])
            b_row = slice(b_ptr[r], b_ptr[r + 1])
            self.vidxload(a_vals[a_row], a_keys[a_row], Mode.CAM)
            self.vidxadd(b_vals[b_row], b_keys[b_row], mode=Mode.CAM, dest=Dest.SSPM)
            if row_uops:
                self._core.scalar_ops(row_uops)

    def _arith_helper(self, op: Opcode, data, idx, mode, dest, offset):
        outs, masks = [], []
        for d, i in chunks(data, idx, self.vl):
            res = self.execute(
                ViaInstruction.arith(op, d, i, mode, dest=dest, offset=offset)
            )
            if res is None:
                continue
            if isinstance(res, tuple):
                outs.append(res[0])
                masks.append(res[1])
            else:
                outs.append(res)
        if not outs:
            return None
        values = np.concatenate(outs)
        if masks:
            return values, np.concatenate(masks)
        return values

