"""The VIA device: functional + timed execution of VIA instructions.

:class:`ViaDevice` bundles the SSPM with the FIVU timing model and plugs
into a :class:`repro.sim.core.Core`.  Kernels talk to it through
assembly-like helpers (``vidxload``, ``vidxadd`` ...) that take operands of
any length.  Architecturally an operand is one VL-wide instruction per
chunk.  The helpers run the whole operand against the SSPM in one
vectorized step — the SSPM applies lanes in order, which is chunk order —
and then append the chunks' rows to the core's cycle model: one
full-width row per whole chunk, then the tail at its own width, the rows
:meth:`ViaDevice.execute` appends chunk by chunk.  ``execute`` remains the
single-instruction path: the assembler, ``vidxclear`` and ``vidxcount``,
and the chunk-by-chunk runs of an operand that fails partway or of a
``vidxblkmult`` whose read and write windows meet.

A SpMA fill issues one ``vidxload.c`` and one ``vidxadd.c`` per row.
:meth:`ViaDevice.cam_fill` runs a whole fill's pairs against the SSPM in
one step, in program order, then appends each row's chunk rows as the
per-row helper calls do.

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

import dataclasses
import functools
import weakref
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.errors import ISAError, SimulationError, SSPMCapacityError, SSPMError
from repro.via import area
from repro.via.config import DEFAULT_VIA, ViaConfig
from repro.via.fivu import FivuTiming, fivu_timing
from repro.via.isa import ARITH_OPS, Dest, Mode, Opcode, ViaInstruction
from repro.via.sspm import SSPM

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Core


class ViaDevice:
    """VIA hardware instance: SSPM + FIVU attached to a simulated core.

    The device is usable standalone (functional mode, e.g. in unit tests);
    when attached to a core every executed instruction also feeds the
    timing and energy accounting.

    The core owns its device, and the device refers back to the core only
    weakly, so the pair is no reference cycle: a kernel's whole machine is
    freed when the kernel returns, without waiting for the cyclic
    collector.  A device used after its core is gone raises
    :class:`~repro.errors.SimulationError`.
    """

    def __init__(self, config: ViaConfig = DEFAULT_VIA):
        self.config = config
        self.sspm = SSPM(config)
        self._core_ref: Optional[weakref.ReferenceType["Core"]] = None
        #: set to the machine's 32-bit VL by kernels operating on 4-byte
        #: elements (the SSPM's native block size) — doubles lanes per op
        self.vl_override: Optional[int] = None

    # ------------------------------------------------------------------
    def attach(self, core: "Core") -> None:
        """Called by :class:`repro.sim.core.Core` when the device is fitted."""
        self._core_ref = weakref.ref(core)

    @property
    def _core(self) -> Optional["Core"]:
        """The attached core, or ``None`` for a standalone device."""
        if self._core_ref is None:
            return None
        core = self._core_ref()
        if core is None:
            raise SimulationError(
                f"VIA device {self.config.name} used after its core was freed"
            )
        return core

    @property
    def vl(self) -> int:
        """Vector length in elements (from the attached machine, or 4)."""
        if self.vl_override is not None:
            return self.vl_override
        core = self._core
        return core.machine.vl if core is not None else 4

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
        core = self._core
        if core is not None:
            # pass the FIVU profile, not pre-computed port cycles: the op is
            # priced against the VIA config of whichever core replays it
            core.record_via_op(
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
    # Assembly-like helpers (one VL-wide instruction per chunk)
    # ------------------------------------------------------------------
    def vidxclear(self, segment: Optional[Tuple[int, int]] = None) -> None:
        """Reset the SSPM (``vidxclear``)."""
        self.execute(ViaInstruction.clear(segment))

    def vidxcount(self) -> int:
        """Read the element count register (``vidxcount``)."""
        return self.execute(ViaInstruction.count_())

    def vidxload(self, data, idx, mode: Mode = Mode.DIRECT) -> None:
        """Store VRF data into the SSPM, one ``vidxload.X`` per VL chunk."""
        data, idx = _operands(data, idx)
        if idx.size:
            self._run(ViaInstruction.load(data, idx, mode))

    def vidxadd(self, data, idx, *, mode=Mode.DIRECT, dest=Dest.VRF, offset=0):
        return self._arith_helper(Opcode.VIDXADD, data, idx, mode, dest, offset)

    def vidxsub(self, data, idx, *, mode=Mode.DIRECT, dest=Dest.VRF, offset=0):
        return self._arith_helper(Opcode.VIDXSUB, data, idx, mode, dest, offset)

    def vidxmult(self, data, idx, *, mode=Mode.DIRECT, dest=Dest.VRF, offset=0):
        return self._arith_helper(Opcode.VIDXMULT, data, idx, mode, dest, offset)

    def vidxblkmult(self, data, idx, *, idx_offset: int, offset: int) -> None:
        """Block multiply-accumulate, one ``vidxblkmult.d`` per VL chunk.

        In one step the whole operand reads the input half, then
        accumulates into the output half.  That is chunk order only when
        no lane reads a position the operand writes, so an operand whose
        read and write sets meet runs chunk by chunk instead.
        """
        data, idx = _operands(data, idx)
        if not idx.size:
            return
        instr = ViaInstruction.blkmult(data, idx, idx_offset, offset)
        cols = idx & ((1 << idx_offset) - 1)
        if np.isin(cols, offset + (idx >> idx_offset)).any():
            self._per_chunk(instr)
        else:
            self._run(instr)

    def vidxmov(self, offset: int, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Drain ``count`` CAM entries starting at ``offset`` (``vidxmov``)."""
        if count == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=float)
        return self._run(ViaInstruction.mov(offset, count))

    def drain(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read back every tracked (index, value) pair: count + mov."""
        return self.vidxmov(0, self.vidxcount())

    def cam_fill(self, a, b, *, row_uops: int) -> None:
        """Run one SpMA fill's rows against the CAM-mode SSPM in one step.

        Row by row, the program is ``vidxload.c`` of the row's A lanes,
        ``vidxadd.c`` of its B lanes into the SSPM, and ``row_uops`` scalar
        uops of loop overhead.  ``a`` and ``b`` are CSR-shaped operands
        ``(values, keys, row_ptr)`` over the same rows, each ``row_ptr``
        indexing its own arrays from 0.  Every lane runs in one
        :meth:`SSPM.cam_write <repro.via.sspm.SSPM.cam_write>` in that
        program order, A lanes storing and B lanes accumulating; then each
        row appends its chunk rows and its scalar uops, the rows the
        per-row helper calls append.  A CAM overflow leaves what those
        calls leave: the lanes before the overflowing one applied, and the
        rows before it accounted up to its operand's last whole chunk.
        """
        (a_vals, a_keys, a_ptr), (b_vals, b_keys, b_ptr) = a, b
        a_vals, a_keys = _operands(a_vals, a_keys)
        b_vals, b_keys = _operands(b_vals, b_keys)
        a_ptr = np.asarray(a_ptr, dtype=np.int64)
        b_ptr = np.asarray(b_ptr, dtype=np.int64)
        a_len, b_len = np.diff(a_ptr), np.diff(b_ptr)
        # program order: row r's A lanes, then its B lanes, then row r + 1
        a_pos = np.arange(a_keys.size) + np.repeat(b_ptr[:-1], a_len)
        b_pos = np.arange(b_keys.size) + np.repeat(a_ptr[1:], b_len)
        n = a_keys.size + b_keys.size
        keys, vals = np.empty(n, dtype=np.int64), np.empty(n)
        keys[a_pos], keys[b_pos] = a_keys, b_keys
        vals[a_pos], vals[b_pos] = a_vals, b_vals
        stores = np.zeros(n, dtype=bool)
        stores[a_pos] = True
        try:
            self.sspm.cam_write(keys, vals, op="add", stores=stores)
        except SSPMCapacityError:
            _, matched = self.sspm.cam_read(keys)
            self._account_fill(a_len, b_len, row_uops, int(np.argmin(matched)))
            raise
        self._account_fill(a_len, b_len, row_uops, n)

    def _account_fill(self, a_len, b_len, row_uops: int, stop: int) -> None:
        """Append the rows a fill's per-row helper calls append, for its
        first ``stop`` lanes in program order.
        """
        core = self._core
        if core is None:
            return
        for a_n, b_n in zip(a_len.tolist(), b_len.tolist()):
            for form, k in ((_LOAD_CAM, a_n), (_ADD_CAM_SSPM, b_n)):
                if stop < k:
                    self._account_chunks(form, stop - stop % self.vl)
                    return
                self._account_chunks(form, k)
                stop -= k
            if row_uops:
                core.scalar_ops(row_uops)

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
        timing = _chunk_timing(opcode, mode, dest, min(vl, total_elements))
        core = self._core
        if core is not None:
            core.record_via_op(
                sspm_elements=timing.sspm_elements,
                cam_searches=timing.cam_searches,
                port_passes=timing.port_passes,
                count=n_instr,
            )

    # ------------------------------------------------------------------
    # Whole-operand execution
    # ------------------------------------------------------------------
    def _arith_helper(self, op, data, idx, mode, dest, offset):
        data, idx = _operands(data, idx)
        if not idx.size:
            return None
        return self._run(
            ViaInstruction.arith(op, data, idx, mode, dest=dest, offset=offset)
        )

    def _run(self, instr: ViaInstruction):
        """Execute a whole operand's instruction in one step, then append
        the rows of its VL chunks.

        ``instr`` carries the whole operand; it is checked as each chunk's
        instruction would be and runs through the same dispatch as
        :meth:`execute`.  An error leaves what chunk-by-chunk execution
        leaves: a CAM overflow keeps every lane before the overflowing one
        and the rows of the whole chunks before it; any other SSPM error is
        raised before the SSPM changes, so the operand re-runs chunk by
        chunk, which applies and accounts the chunks before the failing
        one and raises its error.
        """
        form = (instr.opcode, instr.mode, instr.dest)
        try:
            result = self._dispatch(instr)
        except SSPMCapacityError:
            _, matched = self.sspm.cam_read(instr.idx + instr.offset)
            lane = int(np.argmin(matched))
            self._account_chunks(form, lane - lane % self.vl)
            raise
        except SSPMError:
            self._per_chunk(instr)
            raise
        self._account_chunks(form, instr.num_elements)
        return result

    def _account_chunks(self, form: Tuple[Opcode, Mode, Dest], n: int) -> None:
        """Append the rows :meth:`execute` appends for the first ``n``
        elements of an operand of ``form`` (opcode, mode, destination) run
        one VL chunk per instruction: ``n // VL`` full-width rows, then one
        row for the tail at its own width.
        """
        core = self._core
        if core is None:
            return
        vl = self.vl
        full, tail = divmod(n, vl)
        for width, rows in ((vl, full), (tail, 1)):
            if width and rows:
                timing = _chunk_timing(*form, width)
                for _ in range(rows):
                    core.record_via_op(
                        sspm_elements=timing.sspm_elements,
                        cam_searches=timing.cam_searches,
                        port_passes=timing.port_passes,
                    )

    def _per_chunk(self, instr: ViaInstruction) -> None:
        """Execute a whole operand's instruction one VL chunk at a time."""
        vl = self.vl
        for lo in range(0, instr.num_elements, vl):
            if instr.opcode is Opcode.VIDXMOV:
                chunk = dataclasses.replace(
                    instr, offset=instr.offset + lo, count=min(vl, instr.count - lo)
                )
            else:
                chunk = dataclasses.replace(
                    instr, data=instr.data[lo : lo + vl], idx=instr.idx[lo : lo + vl]
                )
            self.execute(chunk)


#: the forms of a SpMA fill's two instructions (:meth:`ViaDevice.cam_fill`)
_LOAD_CAM = (Opcode.VIDXLOAD, Mode.CAM, Dest.VRF)
_ADD_CAM_SSPM = (Opcode.VIDXADD, Mode.CAM, Dest.SSPM)


@functools.lru_cache(maxsize=None)
def _chunk_timing(opcode: Opcode, mode: Mode, dest: Dest, k: int) -> FivuTiming:
    """FIVU profile of one ``k``-element instruction of a given form.

    Memoized without a bound: ``k`` never exceeds VL, so there are a few
    dozen keys, and the profile is frozen.
    """
    return fivu_timing(_prototype(opcode, mode, dest, k))


def _prototype(opcode, mode, dest, k) -> ViaInstruction:
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


def _vrf_combine(op_name: str, data: np.ndarray, stored: np.ndarray) -> np.ndarray:
    if op_name == "add":
        return data + stored
    if op_name == "sub":
        return data - stored
    return data * stored


def _operands(data, idx) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten a helper's (data, idx) operand pair; the lengths must match."""
    data = np.asarray(data, dtype=float).ravel()
    idx = np.asarray(idx, dtype=np.int64).ravel()
    if data.size != idx.size:
        raise ISAError(f"data ({data.size}) and idx ({idx.size}) must match")
    return data, idx
