"""Tests for the VIA ISA definitions, FIVU timing and execution engine."""

import numpy as np
import pytest

from repro.errors import ISAError
from repro.sim import Core, MachineConfig
from repro.via import (
    Dest,
    Mode,
    Opcode,
    ViaConfig,
    ViaDevice,
    ViaInstruction,
    area_mm2,
    fivu_timing,
)


class TestInstructionValidation:
    def test_load_requires_matching_operands(self):
        with pytest.raises(ISAError):
            ViaInstruction(Opcode.VIDXLOAD, mode=Mode.DIRECT)
        with pytest.raises(ISAError):
            ViaInstruction(
                Opcode.VIDXLOAD,
                mode=Mode.DIRECT,
                data=np.zeros(2),
                idx=np.zeros(3, dtype=np.int64),
            )

    def test_moded_opcodes_require_mode(self):
        with pytest.raises(ISAError):
            ViaInstruction(
                Opcode.VIDXADD, data=np.zeros(2), idx=np.zeros(2, dtype=np.int64)
            )

    def test_unmoded_opcodes_reject_mode(self):
        with pytest.raises(ISAError):
            ViaInstruction(Opcode.VIDXCOUNT, mode=Mode.DIRECT)

    def test_blkmult_constraints(self):
        data = np.ones(2)
        idx = np.zeros(2, dtype=np.int64)
        with pytest.raises(ISAError):  # CAM mode invalid
            ViaInstruction(
                Opcode.VIDXBLKMULT, mode=Mode.CAM, data=data, idx=idx,
                dest=Dest.SSPM, idx_offset=4,
            )
        with pytest.raises(ISAError):  # must write to SSPM
            ViaInstruction(
                Opcode.VIDXBLKMULT, mode=Mode.DIRECT, data=data, idx=idx,
                dest=Dest.VRF, idx_offset=4,
            )
        with pytest.raises(ISAError):  # idx_offset required
            ViaInstruction(
                Opcode.VIDXBLKMULT, mode=Mode.DIRECT, data=data, idx=idx,
                dest=Dest.SSPM,
            )

    def test_mov_needs_count(self):
        with pytest.raises(ISAError):
            ViaInstruction(Opcode.VIDXMOV, count=0)

    def test_count_takes_no_vectors(self):
        with pytest.raises(ISAError):
            ViaInstruction(
                Opcode.VIDXCOUNT, data=np.zeros(1), idx=np.zeros(1, dtype=np.int64)
            )

    def test_segment_only_on_clear(self):
        with pytest.raises(ISAError):
            ViaInstruction(Opcode.VIDXCOUNT, segment=(0, 4))

    def test_mnemonics(self):
        i = ViaInstruction.load([1.0], [0], Mode.CAM)
        assert i.mnemonic == "vidxload.c"
        assert ViaInstruction.count_().mnemonic == "vidxcount"

    def test_arith_constructor_rejects_non_arith(self):
        with pytest.raises(ISAError):
            ViaInstruction.arith(Opcode.VIDXLOAD, [1.0], [0], Mode.DIRECT)


class TestFivuTiming:
    def test_load_is_single_pass(self):
        t = fivu_timing(ViaInstruction.load(np.ones(4), np.arange(4)))
        assert t.sspm_elements == 4
        assert t.port_passes == 1
        assert t.cam_searches == 0

    def test_cam_load_counts_searches(self):
        t = fivu_timing(ViaInstruction.load(np.ones(4), np.arange(4), Mode.CAM))
        assert t.cam_searches == 4

    def test_sspm_dest_doubles_elements(self):
        vrf = fivu_timing(
            ViaInstruction.arith(Opcode.VIDXADD, np.ones(4), np.arange(4), Mode.DIRECT)
        )
        sspm = fivu_timing(
            ViaInstruction.arith(
                Opcode.VIDXADD, np.ones(4), np.arange(4), Mode.DIRECT, dest=Dest.SSPM
            )
        )
        assert sspm.sspm_elements == 2 * vrf.sspm_elements
        assert sspm.port_passes == 2

    def test_blkmult_two_passes(self):
        t = fivu_timing(ViaInstruction.blkmult(np.ones(4), np.arange(4), 8, 0))
        assert t.port_passes == 2
        assert t.sspm_elements == 8

    def test_port_cycles_scale_with_ports(self):
        instr = ViaInstruction.load(np.ones(8), np.arange(8))
        t = fivu_timing(instr)
        assert t.port_cycles(ViaConfig(16, 2)) > t.port_cycles(ViaConfig(16, 4))

    def test_scalar_ops_have_no_port_cycles(self):
        t = fivu_timing(ViaInstruction.count_())
        assert t.port_cycles(ViaConfig(16, 2)) == 0


class TestEngineFunctional:
    def setup_method(self):
        self.dev = ViaDevice(ViaConfig(16, 2))

    def test_load_read_roundtrip_direct(self):
        self.dev.vidxload([1.0, 2.0, 3.0], [10, 20, 30])
        out = self.dev.vidxadd(np.zeros(3), [10, 20, 30])
        np.testing.assert_allclose(out, [1.0, 2.0, 3.0])

    def test_vrf_dest_semantics(self):
        self.dev.vidxload([5.0], [0])
        assert self.dev.vidxadd([2.0], [0])[0] == 7.0
        assert self.dev.vidxsub([2.0], [0])[0] == -3.0  # data - sspm
        assert self.dev.vidxmult([2.0], [0])[0] == 10.0

    def test_sspm_dest_accumulates(self):
        self.dev.vidxadd([1.0], [4], dest=Dest.SSPM)
        self.dev.vidxadd([2.0], [4], dest=Dest.SSPM)
        out = self.dev.vidxadd([0.0], [4])
        assert out[0] == 3.0

    def test_sspm_dest_offset_moves_output(self):
        self.dev.vidxadd([1.5], [0], dest=Dest.SSPM, offset=100)
        assert self.dev.vidxadd([0.0], [100])[0] == 1.5

    def test_cam_mode_returns_match_mask(self):
        self.dev.vidxload([1.0, 2.0], [111, 222], Mode.CAM)
        vals, matched = self.dev.vidxmult([10.0, 10.0], [222, 333], mode=Mode.CAM)
        np.testing.assert_allclose(vals, [20.0, 0.0])
        np.testing.assert_array_equal(matched, [True, False])

    def test_count_and_drain(self):
        self.dev.vidxload([1.0, 2.0, 3.0], [7, 8, 9], Mode.CAM)
        assert self.dev.vidxcount() == 3
        idx, vals = self.dev.drain()
        np.testing.assert_array_equal(idx, [7, 8, 9])
        np.testing.assert_allclose(vals, [1.0, 2.0, 3.0])

    def test_drain_empty(self):
        idx, vals = self.dev.drain()
        assert idx.size == 0 and vals.size == 0

    def test_mov_zero_count_returns_empty_arrays(self):
        core = Core(MachineConfig(), via=self.dev)
        idx, vals = self.dev.vidxmov(0, 0)
        assert idx.dtype == np.int64 and idx.size == 0
        assert vals.dtype == np.float64 and vals.size == 0
        assert core.counters.via_instructions == 0  # no builder row

    def test_mov_negative_count_rejected(self):
        with pytest.raises(ISAError):
            self.dev.vidxmov(0, -1)

    def test_clear_resets(self):
        self.dev.vidxload([1.0], [5])
        self.dev.vidxclear()
        assert self.dev.vidxadd([0.0], [5])[0] == 0.0

    def test_blkmult_semantics(self):
        # vector chunk at cols 0..3, accumulate rows at offset 8
        self.dev.vidxload([1.0, 2.0, 3.0, 4.0], [0, 1, 2, 3])
        # entries (row=0,col=1)=10 and (row=1,col=3)=100 with 2-bit col field
        idx = np.array([(0 << 2) | 1, (1 << 2) | 3])
        self.dev.vidxblkmult([10.0, 100.0], idx, idx_offset=2, offset=8)
        out = self.dev.vidxadd([0.0, 0.0], [8, 9])
        np.testing.assert_allclose(out, [20.0, 400.0])  # 10*2, 100*4

    def test_chunking_splits_long_operands(self):
        core = Core(MachineConfig(), via=self.dev)
        n = 3 * self.dev.vl + 1
        self.dev.vidxload(np.ones(n), np.arange(n))
        assert core.counters.via_instructions == 4

    def test_oversize_instruction_rejected(self):
        with pytest.raises(ISAError):
            self.dev.execute(
                ViaInstruction.load(np.ones(100), np.arange(100))
            )

    def test_mismatched_helper_operands(self):
        with pytest.raises(ISAError):
            self.dev.vidxload(np.ones(3), np.arange(4))


class TestEngineTiming:
    def test_attached_device_reports_to_core(self):
        dev = ViaDevice(ViaConfig(16, 2))
        core = Core(MachineConfig(), via=dev)
        dev.vidxload(np.ones(16), np.arange(16))
        assert core.counters.via_instructions == 4  # 16 elems / VL=4
        assert core.counters.sspm_accesses == 16
        res = core.finalize("via")
        assert res.breakdown.sspm_cycles > 0

    def test_more_ports_fewer_sspm_cycles(self):
        def run(ports):
            dev = ViaDevice(ViaConfig(16, ports))
            core = Core(MachineConfig().with_lanes(8), via=dev)
            dev.vidxblkmult(
                np.ones(512), np.arange(512) % 64, idx_offset=6, offset=0
            )
            return core.finalize("p").breakdown.sspm_cycles

        assert run(2) > run(4)

    def test_leakage_and_area_exposed(self):
        dev = ViaDevice(ViaConfig(16, 2))
        assert dev.leakage_mw == pytest.approx(0.50)
        assert area_mm2(dev.config) == pytest.approx(0.515)
