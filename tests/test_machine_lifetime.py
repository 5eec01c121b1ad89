"""A finished kernel frees its simulated machine by reference counting alone.

A VIA kernel's ``Core`` owns its ``ViaDevice``; the device refers back to
the core weakly, so the pair forms no cycle and everything the core holds
(caches, address space, narration builder, backend, SSPM) is freed when
the kernel returns.  The tests run with the cyclic collector disabled, so a
machine that only the collector could free shows up as still alive.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.kernels import common
from repro.sim import Core, MachineConfig
from repro.sim.backends import RecorderBackend
from repro.via import DEFAULT_VIA, ViaDevice
from tests.test_via_bulk import _kernel_runs

_RUNS = dict(_kernel_runs())


@pytest.fixture
def no_collector():
    """Disable the cyclic collector for the test; restore it after."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _tracked(cls, refs):
    """A factory for ``cls`` that keeps a weak reference to each instance."""

    def make(*args, **kwargs):
        obj = cls(*args, **kwargs)
        refs.append(weakref.ref(obj))
        return obj

    return make


@pytest.mark.parametrize("recorded", [False, True], ids=["direct", "recorder"])
@pytest.mark.parametrize("label", sorted(_RUNS))
def test_kernel_leaves_no_machine_behind(monkeypatch, no_collector, label, recorded):
    refs = []
    monkeypatch.setattr(common, "Core", _tracked(Core, refs))
    monkeypatch.setattr(common, "ViaDevice", _tracked(ViaDevice, refs))
    backend = RecorderBackend() if recorded else None
    result = _RUNS[label](DEFAULT_VIA, backend)
    assert result.cycles > 0
    # one Core and one ViaDevice, built through kernels.common
    assert len(refs) == 2
    alive = [type(r()).__name__ for r in refs if r() is not None]
    assert alive == [], f"{label} left {alive} alive after it returned"


def test_device_fails_loudly_once_its_core_is_gone():
    dev = ViaDevice(DEFAULT_VIA)
    core = Core(MachineConfig(), via=dev)
    dev.vidxload(np.ones(8), np.arange(8))
    assert core.counters.via_instructions == 2
    del core
    # not standalone mode, which would run at VL 4 and append no rows
    with pytest.raises(SimulationError, match="core"):
        dev.vidxload(np.ones(8), np.arange(8))
    with pytest.raises(SimulationError, match="core"):
        dev.vl
