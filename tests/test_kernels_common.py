"""Tests for the shared kernel plumbing and result bookkeeping."""

import numpy as np
import pytest

from repro.kernels.common import (
    chunk_instr_count,
    make_core,
    make_via_core,
    row_fragmented_elements,
)
from repro.sim import Core, MachineConfig
from repro.via import VIA_4_2P, Dest, Mode, Opcode, ViaDevice


class TestChunkInstrCount:
    def test_empty(self):
        assert chunk_instr_count(np.array([], dtype=int), 4) == 0

    def test_exact_multiples(self):
        assert chunk_instr_count(np.array([4, 8]), 4) == 3

    def test_fragmentation(self):
        # short runs each need a whole instruction
        assert chunk_instr_count(np.array([1, 1, 1, 1]), 4) == 4

    def test_mixed(self):
        assert chunk_instr_count(np.array([5, 3, 0]), 4) == 3

    def test_zero_length_runs_cost_nothing(self):
        assert chunk_instr_count(np.zeros(10, dtype=int), 4) == 0

    def test_fragmented_elements(self):
        assert row_fragmented_elements(np.array([1, 5]), 4) == 12


class TestCoreFactories:
    def test_make_core_defaults(self):
        core = make_core()
        assert isinstance(core, Core)
        assert core.via is None
        assert core.machine.vl == 4

    def test_make_core_custom_machine(self):
        core = make_core(MachineConfig().with_lanes(8))
        assert core.machine.vl == 8

    def test_make_via_core_attaches_device(self):
        core, dev = make_via_core(via_config=VIA_4_2P)
        assert isinstance(dev, ViaDevice)
        assert core.via is dev
        assert dev.config is VIA_4_2P
        # the device sees the machine's VL through the attachment
        assert dev.vl == core.machine.vl

    def test_fresh_cores_have_independent_caches(self):
        core_a = make_core()
        x = core_a.alloc("x", 1000)
        core_a.load_stream(x, 0, 1000)
        core_b = make_core()
        assert core_b.memory.l1.stats.accesses == 0

    def test_each_call_returns_new_device(self):
        _core1, dev1 = make_via_core()
        _core2, dev2 = make_via_core()
        assert dev1 is not dev2
        dev1.vidxload([1.0], [0])
        assert dev2.sspm.element_count == 0
        assert dev2.sspm.dm_read([0])[0] == 0.0


#: (opcode, mode, dest) of every form a kernel accounts in bulk
BULK_FORMS = {
    "vidxload.d": (Opcode.VIDXLOAD, Mode.DIRECT, Dest.VRF),  # stencil
    "vidxload.c": (Opcode.VIDXLOAD, Mode.CAM, Dest.VRF),  # SpMM
    "vidxmult.c-vrf": (Opcode.VIDXMULT, Mode.CAM, Dest.VRF),  # SpMM
    # SPC5, Sell-C-sigma, histogram, CSR5 and stencil
    "vidxadd.d-sspm": (Opcode.VIDXADD, Mode.DIRECT, Dest.SSPM),
    "vidxadd.d-vrf": (Opcode.VIDXADD, Mode.DIRECT, Dest.VRF),
    "vidxmult.d-vrf": (Opcode.VIDXMULT, Mode.DIRECT, Dest.VRF),  # stencil
}


def assert_bulk_prices_like_functional(form: str, n: int) -> None:
    """``account_bulk`` of ``n`` elements prices as the per-chunk helper."""
    opcode, mode, dest = BULK_FORMS[form]
    core_f, dev_f = make_via_core()
    data, idx = np.ones(n), np.arange(n)
    if opcode is Opcode.VIDXLOAD:
        dev_f.vidxload(data, idx, mode)
    else:
        helper = dev_f.vidxadd if opcode is Opcode.VIDXADD else dev_f.vidxmult
        helper(data, idx, mode=mode, dest=dest)
    core_b, dev_b = make_via_core()
    dev_b.account_bulk(opcode, n, mode=mode, dest=dest)
    f, b = core_f.counters, core_b.counters
    for name in (
        "via_instructions", "sspm_accesses", "cam_searches", "sspm_busy_cycles"
    ):
        assert getattr(b, name) == getattr(f, name), name


class TestBulkVsFunctionalConsistency:
    """The bulk FIVU accounting must price identically to functional runs.

    Element counts are multiples of VL: ``account_bulk`` prices a partial
    tail as a full instruction, which the per-chunk helpers do not.
    """

    def test_vidxload_bulk_matches_functional(self):
        assert_bulk_prices_like_functional("vidxload.d", 64)

    def test_vidxadd_sspm_bulk_matches_functional(self):
        assert_bulk_prices_like_functional("vidxadd.d-sspm", 32)

    @pytest.mark.parametrize(
        "form",
        # the two forms above have their own tests
        [f for f in BULK_FORMS if f not in ("vidxload.d", "vidxadd.d-sspm")],
    )
    def test_bulk_form_matches_functional(self, form):
        assert_bulk_prices_like_functional(form, 64)

    def test_bulk_rejects_scalar_opcodes(self):
        from repro.errors import ISAError

        _core, dev = make_via_core()
        with pytest.raises(ISAError):
            dev.account_bulk(Opcode.VIDXCOUNT, 4)

    def test_bulk_zero_elements_is_noop(self):
        core, dev = make_via_core()
        dev.account_bulk(Opcode.VIDXLOAD, 0)
        assert core.counters.via_instructions == 0
