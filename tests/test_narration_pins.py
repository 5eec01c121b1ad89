"""Pins on the narration surface: the rendered trace and the error messages.

Two pins that hold the op-kind vocabulary still while its definition moves:

* a golden trace — one kernel of each family (SpMV in all four formats,
  baseline and VIA; SpMA; SpMM; histogram; stencil) runs under a
  :class:`~repro.sim.backends.TraceBackend`, plus a direct ``Core`` script
  that narrates every op kind once (no kernel narrates ``scatter_serial``).
  The sha256 of the ``kind<TAB>detail<TAB>count`` lines, the per-kind mix
  and the coverage of every ``KIND_ORDER`` kind are pinned;
* every builder error message reachable through the ``Core`` narration
  methods, compared with ``str(exc) ==``.  Checks that ``Core`` never
  reaches are left out: ``alloc``'s (``AddressSpace.alloc`` rejects
  first) and the ``gather_serial``/``scatter_serial`` ``n_instr``,
  ``load_windows`` ``width`` and ``bulk_stream`` ``passes`` checks
  (``Core`` returns early on those operands).
"""

import hashlib

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.formats.coo import COOMatrix
from repro.formats.csb import CSBMatrix
from repro.formats.csc import CSCMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.sellcs import SellCSigmaMatrix
from repro.formats.spc5 import SPC5Matrix
from repro.kernels.histogram import (
    histogram_scalar_baseline,
    histogram_vector_baseline,
    histogram_via,
)
from repro.kernels.spma import spma_csr_baseline, spma_via
from repro.kernels.spmm import spmm_csr_baseline, spmm_via
from repro.kernels.spmv import SPMV_VARIANTS
from repro.kernels.stencil import stencil_vector_baseline, stencil_via
from repro.sim.backends import TraceBackend
from repro.sim.columnar import KIND_ORDER
from repro.sim.config import DEFAULT_MACHINE
from repro.sim.core import Core
from repro.sim.trace import Trace
from repro.via.config import VIA_16_2P
from repro.via.engine import ViaDevice

pytestmark = pytest.mark.smoke

_CFG = VIA_16_2P

GOLDEN_SHA256 = "34517fabe467abef659d0a9659eae3a2327c2b57c9a0e2e67e742c727b47a2f6"

GOLDEN_MIX = {
    "alloc": 22040,
    "branches": 83805,
    "bulk_stream": 403,
    "dependency_stall": 9,
    "gather": 2899,
    "gather_serial": 165,
    "load_stream": 13824,
    "load_windows": 445,
    "record_via_op": 11628,
    "scalar_load": 812,
    "scalar_ops": 330239,
    "scalar_store": 811,
    "scatter": 383,
    "scatter_serial": 2,
    "store_stream": 5629,
    "vector_op": 4961,
}


def _spmv_matrix(fmt, coo):
    if fmt == "csr":
        return CSRMatrix.from_coo(coo)
    if fmt == "csb":
        return CSBMatrix.from_coo(coo, block_size=_CFG.csb_block_size)
    if fmt == "spc5":
        return SPC5Matrix.from_coo(coo, vl=DEFAULT_MACHINE.vl)
    return SellCSigmaMatrix.from_coo(
        coo, c=DEFAULT_MACHINE.vl, sigma=16 * DEFAULT_MACHINE.vl
    )


def _fixed_matrix(n=80):
    """A fixed sparse pattern, built without an RNG so the digest cannot
    drift with a NumPy release: a tridiagonal band, strided entries of
    varying count per row, and one denser block."""
    pairs = set()
    for r in range(n):
        pairs.update((r, c) for c in (r - 1, r, r + 1) if 0 <= c < n)
        pairs.update((r, (r * 7 + 3 * k) % n) for k in range(r % 6))
    pairs.update((r, c) for r in range(8) for c in range(40, 56) if (r + c) % 3)
    row, col = (np.asarray(v, dtype=np.int64) for v in zip(*sorted(pairs)))
    data = 1.0 + (row * 3 + col) % 7
    return COOMatrix((n, n), row, col, data)


def _kernel_runs():
    """(label, run(backend)) for one kernel of each family."""
    coo = _fixed_matrix()
    x = np.linspace(-1.0, 1.0, coo.cols)
    a = CSRMatrix.from_coo(coo)
    b = CSCMatrix.from_coo(coo)
    steps = np.arange(300)
    keys = (steps * 37 + (steps // 7) * 11) % 64
    image = (np.arange(144, dtype=np.float64) % 7).reshape(12, 12)
    m = DEFAULT_MACHINE
    runs = []
    for fmt in sorted(SPMV_VARIANTS):
        base_fn, via_fn = SPMV_VARIANTS[fmt]
        mat = _spmv_matrix(fmt, coo)
        runs.append((f"spmv_{fmt}_baseline",
                     lambda be, f=base_fn, mat=mat: f(mat, x, m, backend=be)))
        runs.append((f"spmv_{fmt}_via",
                     lambda be, f=via_fn, mat=mat: f(mat, x, m, _CFG, backend=be)))
    runs += [
        ("spma_baseline", lambda be: spma_csr_baseline(a, a, m, backend=be)),
        ("spma_via", lambda be: spma_via(a, a, m, _CFG, backend=be)),
        ("spmm_baseline", lambda be: spmm_csr_baseline(a, b, m, backend=be)),
        ("spmm_via", lambda be: spmm_via(a, b, m, _CFG, backend=be)),
        ("histogram_scalar",
         lambda be: histogram_scalar_baseline(keys, 64, m, backend=be)),
        ("histogram_vector",
         lambda be: histogram_vector_baseline(keys, 64, m, backend=be)),
        ("histogram_via", lambda be: histogram_via(keys, 64, m, _CFG, backend=be)),
        ("stencil_vector",
         lambda be: stencil_vector_baseline(image, None, m, backend=be)),
        ("stencil_via", lambda be: stencil_via(image, None, m, _CFG, backend=be)),
    ]
    return runs


def _every_kind_once(trace):
    """A direct-``Core`` script narrating each op kind once."""
    core = Core(DEFAULT_MACHINE, via=ViaDevice(_CFG),
                backend=TraceBackend(trace))
    arr = core.alloc("arr", 64, 8)
    core.scalar_ops(3)
    core.vector_op("permute", 2)
    core.branches(5, 0.25)
    core.dependency_stall(7.5)
    core.load_stream(arr, 4, 16)
    core.store_stream(arr, 8, 0)
    core.gather(arr, np.asarray([3, 1, 4, 1, 5]), n_instr=2)
    core.scatter(arr, np.asarray([9, 2, 6]))
    core.gather_serial(3, 4)
    core.scatter_serial(2, 0)
    core.load_windows(arr, np.asarray([0, 8, 16]), 4)
    core.scalar_load(arr, np.asarray([5, 3]), dependent=True)
    core.scalar_store(arr, np.asarray([7]))
    core.bulk_stream(arr, passes=3, write=True)
    core.record_via_op(sspm_elements=6, cam_searches=2, port_passes=2, count=3)
    core.record_via_op(sspm_elements=0, cam_searches=0, port_cycles=4.5)
    core.finalize("every_kind_once")


@pytest.fixture(scope="module")
def golden_trace():
    trace = Trace()
    for _label, run in _kernel_runs():
        run(TraceBackend(trace))
    _every_kind_once(trace)
    return trace


class TestGoldenTrace:
    def test_rendered_lines_are_pinned(self, golden_trace):
        lines = "\n".join(
            f"{ev.kind}\t{ev.detail}\t{ev.count}" for ev in golden_trace.events
        )
        digest = hashlib.sha256(lines.encode("utf-8")).hexdigest()
        assert digest == GOLDEN_SHA256

    def test_kind_mix_is_pinned(self, golden_trace):
        assert golden_trace.mix() == GOLDEN_MIX

    def test_every_kind_appears(self, golden_trace):
        assert set(golden_trace.mix()) == set(KIND_ORDER)


# ----------------------------------------------------------------------
# builder error messages reachable through Core
# ----------------------------------------------------------------------
def _core():
    core = Core(DEFAULT_MACHINE, via=ViaDevice(_CFG))
    return core, core.alloc("arr", 32, 8)


_IDX = np.asarray([1, 2, 3])

_REACHABLE = [
    ("scalar_ops", lambda c, a: c.scalar_ops(-1),
     "scalar_ops: count must be >= 0, got -1"),
    ("vector_op_kind", lambda c, a: c.vector_op("bogus", 1),
     "unknown vector op kind 'bogus'"),
    ("vector_op_count", lambda c, a: c.vector_op("fma", -2),
     "vector_op: count must be >= 0, got -2"),
    ("branches_rate", lambda c, a: c.branches(4, 1.5),
     "mispredict_rate must be in [0, 1], got 1.5"),
    ("branches_count", lambda c, a: c.branches(-3, 0.05),
     "branches: count must be >= 0, got -3"),
    ("dependency_stall", lambda c, a: c.dependency_stall(-2),
     "stall cycles must be >= 0, got -2.0"),
    ("load_stream_start", lambda c, a: c.load_stream(a, -1, 4),
     "load_stream: start must be >= 0, got -1"),
    ("load_stream_count", lambda c, a: c.load_stream(a, 0, -4),
     "load_stream: count must be >= 0, got -4"),
    ("store_stream_start", lambda c, a: c.store_stream(a, -1, 4),
     "store_stream: start must be >= 0, got -1"),
    ("store_stream_count", lambda c, a: c.store_stream(a, 0, -4),
     "store_stream: count must be >= 0, got -4"),
    ("gather", lambda c, a: c.gather(a, _IDX, n_instr=-1),
     "gather: n_instr must be >= 0, got -1"),
    ("scatter", lambda c, a: c.scatter(a, _IDX, n_instr=-1),
     "scatter: n_instr must be >= 0, got -1"),
    ("gather_serial", lambda c, a: c.gather_serial(2, -4),
     "gather_serial: elements_per_instr must be >= 0, got -4"),
    ("scatter_serial", lambda c, a: c.scatter_serial(2, -4),
     "scatter_serial: elements_per_instr must be >= 0, got -4"),
    ("via_timing", lambda c, a: c.record_via_op(sspm_elements=4, cam_searches=0),
     "record_via_op needs port_passes (FIVU profile) or "
     "port_cycles (pre-computed cost)"),
    ("via_sspm_elements",
     lambda c, a: c.record_via_op(sspm_elements=-4, cam_searches=0, port_passes=1),
     "record_via_op: sspm_elements must be >= 0, got -4"),
    ("via_cam_searches",
     lambda c, a: c.record_via_op(sspm_elements=4, cam_searches=-1, port_passes=1),
     "record_via_op: cam_searches must be >= 0, got -1"),
    ("via_count",
     lambda c, a: c.record_via_op(sspm_elements=4, cam_searches=0, port_passes=1,
                                  count=-2),
     "record_via_op: count must be >= 0, got -2"),
    ("via_port_passes",
     lambda c, a: c.record_via_op(sspm_elements=4, cam_searches=0, port_passes=-1),
     "record_via_op: port_passes must be >= 0, got -1"),
    ("via_port_cycles",
     lambda c, a: c.record_via_op(sspm_elements=4, cam_searches=0, port_cycles=-3),
     "record_via_op: port_cycles must be >= 0, got -3.0"),
]


@pytest.mark.parametrize(
    "narrate, message",
    [(narrate, message) for _, narrate, message in _REACHABLE],
    ids=[label for label, _, _ in _REACHABLE],
)
def test_builder_message_is_pinned(narrate, message):
    core, arr = _core()
    with pytest.raises(SimulationError) as exc:
        narrate(core, arr)
    assert str(exc.value) == message
