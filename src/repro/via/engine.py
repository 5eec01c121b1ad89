"""The VIA device: functional + timed execution of VIA instructions.

:class:`ViaDevice` bundles the SSPM with the FIVU timing model and plugs
into a :class:`repro.sim.core.Core`.  Kernels talk to it through
assembly-like helpers (``vidxload``, ``vidxadd`` ...) that chunk arbitrary
arrays into VL-sized instructions, execute each functionally against the
SSPM, and report the SSPM work to the core's cycle model.

Operand-order conventions for the arithmetic instructions (Section IV-C:
"These instructions always use data placed in the VRF (Data) to compute
with values stored in the SSPM"):

* destination **VRF**:   ``result = data (op) sspm[idx]``
  (``vidxsub`` computes ``data - sspm[idx]``);
* destination **SSPM**:  ``sspm[idx + offset] = sspm[idx + offset] (op) data``
  — an in-scratchpad accumulation, the pattern SpMV partial sums and
  histograms rely on (``vidxsub`` subtracts the VRF data).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ISAError
from repro.via import area
from repro.via.config import DEFAULT_VIA, ViaConfig
from repro.via.fivu import fivu_timing
from repro.via.isa import ARITH_OPS, Dest, Mode, Opcode, ViaInstruction
from repro.via.sspm import SSPM


class ViaDevice:
    """VIA hardware instance: SSPM + FIVU attached to a simulated core.

    The device is usable standalone (functional mode, e.g. in unit tests);
    when attached to a core every executed instruction also feeds the
    timing and energy accounting.
    """

    def __init__(self, config: ViaConfig = DEFAULT_VIA):
        self.config = config
        self.sspm = SSPM(config)
        self._core = None
        #: set to the machine's 32-bit VL by kernels operating on 4-byte
        #: elements (the SSPM's native block size) — doubles lanes per op
        self.vl_override: Optional[int] = None

    # ------------------------------------------------------------------
    def attach(self, core) -> None:
        """Called by :class:`repro.sim.core.Core` when the device is fitted."""
        self._core = core

    @property
    def vl(self) -> int:
        """Vector length in elements (from the attached machine, or 4)."""
        if self.vl_override is not None:
            return self.vl_override
        return self._core.machine.vl if self._core is not None else 4

    @property
    def leakage_mw(self) -> float:
        """Static power the device adds to the core (Table II model)."""
        return area.leakage_mw(self.config)

    # ------------------------------------------------------------------
    # Instruction execution
    # ------------------------------------------------------------------
    def execute(self, instr: ViaInstruction):
        """Execute one VIA instruction functionally and account its timing.

        Returns the instruction's architectural result: an ndarray for
        VRF-destination arithmetic, ``(values, matched)`` for CAM reads,
        ``(indices, values)`` for ``vidxmov``, an int for ``vidxcount``,
        ``None`` for pure SSPM writes.
        """
        if instr.num_elements > self.vl:
            raise ISAError(
                f"{instr.mnemonic} operates on {instr.num_elements} elements "
                f"but VL is {self.vl}; chunk the operands"
            )
        result = self._dispatch(instr)
        timing = fivu_timing(instr)
        if self._core is not None:
            # pass the FIVU profile, not pre-computed port cycles: the op is
            # priced against the VIA config of whichever core replays it
            self._core.record_via_op(
                sspm_elements=timing.sspm_elements,
                cam_searches=timing.cam_searches,
                port_passes=timing.port_passes,
            )
        return result

    def _dispatch(self, instr: ViaInstruction):
        op = instr.opcode
        if op is Opcode.VIDXCLEAR:
            self.sspm.clear(segment=instr.segment)
            return None
        if op is Opcode.VIDXCOUNT:
            return self.sspm.element_count
        if op is Opcode.VIDXMOV:
            idx = self.sspm.cam_tracked_indices(instr.offset, instr.count)
            vals = self.sspm.cam_slot_values(instr.offset, instr.count)
            return idx, vals
        if op is Opcode.VIDXLOAD:
            if instr.mode is Mode.DIRECT:
                self.sspm.dm_write(instr.idx, instr.data)
            else:
                self.sspm.cam_write(instr.idx, instr.data, op="store")
            return None
        if op in ARITH_OPS:
            return self._arith(instr, ARITH_OPS[op])
        if op is Opcode.VIDXBLKMULT:
            return self._blkmult(instr)
        raise ISAError(f"unimplemented opcode {op}")

    def _arith(self, instr: ViaInstruction, op_name: str):
        data = np.asarray(instr.data, dtype=float)
        idx = np.asarray(instr.idx, dtype=np.int64)
        if instr.dest is Dest.VRF:
            if instr.mode is Mode.DIRECT:
                stored = self.sspm.dm_read(idx + instr.offset)
                matched = None
            else:
                stored, matched = self.sspm.cam_read(idx + instr.offset)
            result = _vrf_combine(op_name, data, stored)
            if matched is not None:
                return result, matched
            return result
        # destination SSPM: in-scratchpad accumulation at idx + offset
        out_idx = idx + instr.offset
        if instr.mode is Mode.DIRECT:
            self.sspm.dm_accumulate(out_idx, data, op=op_name)
        else:
            self.sspm.cam_write(out_idx, data, op=op_name)
        return None

    def _blkmult(self, instr: ViaInstruction):
        """Block multiply-accumulate (Section IV-C, ``vidxblkmult``)."""
        rows = instr.idx >> instr.idx_offset
        cols = instr.idx & ((1 << instr.idx_offset) - 1)
        vec = self.sspm.dm_read(cols)
        prod = np.asarray(instr.data, dtype=float) * vec
        self.sspm.dm_accumulate(instr.offset + rows, prod, op="add")
        return None

    # ------------------------------------------------------------------
    # Assembly-like helpers (auto-chunking to VL)
    # ------------------------------------------------------------------
    def vidxclear(self, segment: Optional[Tuple[int, int]] = None) -> None:
        """Reset the SSPM (``vidxclear``)."""
        self.execute(ViaInstruction.clear(segment))

    def vidxcount(self) -> int:
        """Read the element count register (``vidxcount``)."""
        return self.execute(ViaInstruction.count_())

    def vidxload(self, data, idx, mode: Mode = Mode.DIRECT) -> None:
        """Store VRF data into the SSPM, chunked to VL (``vidxload.X``)."""
        for d, i in _chunks(data, idx, self.vl):
            self.execute(ViaInstruction.load(d, i, mode))

    def vidxadd(self, data, idx, *, mode=Mode.DIRECT, dest=Dest.VRF, offset=0):
        return self._arith_helper(Opcode.VIDXADD, data, idx, mode, dest, offset)

    def vidxsub(self, data, idx, *, mode=Mode.DIRECT, dest=Dest.VRF, offset=0):
        return self._arith_helper(Opcode.VIDXSUB, data, idx, mode, dest, offset)

    def vidxmult(self, data, idx, *, mode=Mode.DIRECT, dest=Dest.VRF, offset=0):
        return self._arith_helper(Opcode.VIDXMULT, data, idx, mode, dest, offset)

    def vidxblkmult(self, data, idx, *, idx_offset: int, offset: int) -> None:
        """Block multiply-accumulate, chunked to VL (``vidxblkmult.d``)."""
        for d, i in _chunks(data, idx, self.vl):
            self.execute(ViaInstruction.blkmult(d, i, idx_offset, offset))

    def vidxmov(self, offset: int, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Drain ``count`` CAM entries starting at ``offset`` (``vidxmov``)."""
        idx_parts, val_parts = [], []
        done = 0
        while done < count:
            take = min(self.vl, count - done)
            i, v = self.execute(ViaInstruction.mov(offset + done, take))
            idx_parts.append(i)
            val_parts.append(v)
            done += take
        return np.concatenate(idx_parts), np.concatenate(val_parts)

    def drain(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read back every tracked (index, value) pair: count + mov loop."""
        n = self.vidxcount()
        if n == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=float)
        return self.vidxmov(0, n)

    # ------------------------------------------------------------------
    # Bulk timing-only accounting
    # ------------------------------------------------------------------
    def account_bulk(
        self,
        opcode: Opcode,
        total_elements: int,
        *,
        mode: Mode = Mode.DIRECT,
        dest: Dest = Dest.VRF,
    ) -> None:
        """Record the timing of many identical VIA instructions at once.

        Some kernels (inner-product SpMM sweeps over every (row, column)
        pair) would need millions of functional SSPM calls per matrix; the
        semantics are identical across instructions, so the harness computes
        the functional result in numpy and accounts the instructions here.
        The per-instruction timing is the same FIVU model used by
        :meth:`execute`: one instruction per VL elements, each priced at
        ``min(VL, total_elements)``, so a partial tail costs a full one.
        The SSPM is not touched.

        Only vector-operand opcodes make sense in bulk.
        """
        if total_elements <= 0:
            return
        if opcode in (Opcode.VIDXCOUNT, Opcode.VIDXCLEAR):
            raise ISAError(f"{opcode.value} carries no vector elements")
        vl = self.vl
        n_instr = -(-int(total_elements) // vl)
        proto = self._prototype(opcode, mode, dest, min(vl, total_elements))
        timing = fivu_timing(proto)
        if self._core is not None:
            self._core.record_via_op(
                sspm_elements=timing.sspm_elements,
                cam_searches=timing.cam_searches,
                port_passes=timing.port_passes,
                count=n_instr,
            )

    def _prototype(self, opcode, mode, dest, k) -> ViaInstruction:
        data = np.zeros(k)
        idx = np.zeros(k, dtype=np.int64)
        if opcode is Opcode.VIDXBLKMULT:
            return ViaInstruction.blkmult(data, idx, 1, 0)
        if opcode is Opcode.VIDXLOAD:
            return ViaInstruction.load(data, idx, mode)
        if opcode in ARITH_OPS:
            return ViaInstruction.arith(opcode, data, idx, mode, dest=dest)
        if opcode is Opcode.VIDXMOV:
            return ViaInstruction.mov(0, k)
        raise ISAError(f"cannot build bulk prototype for {opcode}")

    def _arith_helper(self, op, data, idx, mode, dest, offset):
        outs, masks = [], []
        for d, i in _chunks(data, idx, self.vl):
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


def _vrf_combine(op_name: str, data: np.ndarray, stored: np.ndarray) -> np.ndarray:
    if op_name == "add":
        return data + stored
    if op_name == "sub":
        return data - stored
    return data * stored


def _chunks(data, idx, vl: int):
    """Split (data, idx) into VL-sized instruction operands."""
    data = np.asarray(data, dtype=float).ravel()
    idx = np.asarray(idx, dtype=np.int64).ravel()
    if data.size != idx.size:
        raise ISAError(f"data ({data.size}) and idx ({idx.size}) must match")
    for lo in range(0, data.size, vl):
        yield data[lo : lo + vl], idx[lo : lo + vl]
