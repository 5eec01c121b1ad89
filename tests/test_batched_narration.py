"""Differential suite for batched (born-columnar) narration.

Every :class:`~repro.sim.core.Core` buffers narration in a
:class:`~repro.sim.columnar.ColumnarBuilder` and prices whole flushes
through the columnar kernels.  The contract is the same as every other
engine seam in this repo: **bit-identical results** to the per-op scalar
walk (:mod:`tests.scalar_oracle`, installed with ``scalar_pricing``) — not
close, identical.

Three layers of evidence:

* the record-unit differential: recording every kernel family and SpMV
  format under every Fig. 9 VIA config and two machines, once with
  columnar pricing and once with the oracle pricing every flush op by op,
  must produce byte-equal sweep records (validation on, so
  flush-granularity invariant checks ride along);
* direct-core narration across flush boundaries: flush sizes 1 (flush
  after every op), the builder's initial capacity (flush exactly as the
  buffer fills — never grows), and capacity+1 (one geometric growth,
  then flush), plus finalize-time partial flushes;
* a hypothesis fuzz over random op sequences and flush sizes, comparing
  finalized results between the two pricers.

Also pins the narration surface itself: cores always buffer, flushes are
counted, backend swaps drain pending rows, and the recorder keeps
artifacts replayable by both pricers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.units import (
    compute_unit,
    record_units,
    spma_units,
    spmm_units,
    spmv_units,
)
from repro.matrices.collection import small_collection
from repro.sim.backends import (
    DirectBackend,
    InvariantBackend,
    RecorderBackend,
    replay_recording,
)
from repro.sim.config import DEFAULT_MACHINE
from repro.sim.core import DEFAULT_FLUSH_OPS, Core, narration_flush_count
from repro.via.config import VIA_4_2P, VIA_16_2P, VIA_16_4P
from repro.via.engine import ViaDevice

from tests import scalar_oracle
from tests.test_ops_replay_differential import assert_result_identical

pytestmark = [pytest.mark.smoke, pytest.mark.columnar]

#: the builder's initial capacity; flush sizes at/over it exercise growth
_BUILDER_CAPACITY = 1024


# ----------------------------------------------------------------------
# direct-core narration: one deterministic stream, every op kind
# ----------------------------------------------------------------------
def _narrate_everything(core):
    """Drive every narration method, interleaving compute/memory/VIA."""
    rng = np.random.default_rng(5)
    a = core.alloc("a", 4096, 8)
    idx = core.alloc("idx", 4096, 4)
    for i in range(40):
        core.scalar_ops(3)
        core.vector_op("alu", 8)
        core.vector_op("fma", 4)
        core.branches(6, 0.125)
        core.dependency_stall(2.0)
        core.load_stream(a, (i * 32) % 2048, 32)
        core.gather(a, rng.integers(0, 4096, size=12))
        core.scatter(a, rng.integers(0, 4096, size=8))
        core.gather_serial(2, 4)
        core.scatter_serial(1, 4)
        core.load_windows(idx, rng.integers(0, 4000, size=4), 8)
        core.scalar_load(idx, rng.integers(0, 4096, size=5),
                         dependent=i % 2 == 0)
        core.scalar_store(idx, rng.integers(0, 4096, size=3), dependent=False)
        core.bulk_stream(a, passes=2, write=i % 3 == 0)
        core.store_stream(a, (i * 32) % 2048, 32)
        core.record_via_op(
            sspm_elements=16, cam_searches=16, port_passes=2, count=3
        )
        core.record_via_op(sspm_elements=8, cam_searches=0, port_cycles=5.0)
    return core.finalize("everything")


def _run_stream(*, flush_ops=DEFAULT_FLUSH_OPS, backend=None, validate=False):
    backend = backend if backend is not None else RecorderBackend()
    if validate:
        backend = InvariantBackend(backend)
    core = Core(
        DEFAULT_MACHINE,
        via=ViaDevice(VIA_16_2P),
        backend=backend,
        flush_ops=flush_ops,
    )
    return _narrate_everything(core)


class TestFlushBoundaries:
    """Flush sizes 1, builder capacity, and capacity+1 (forced growth)."""

    want = None

    @pytest.fixture(autouse=True)
    def _scalar_reference(self):
        if TestFlushBoundaries.want is None:
            with scalar_oracle.scalar_pricing():
                TestFlushBoundaries.want = _run_stream(flush_ops=1)

    @pytest.mark.parametrize(
        "flush_ops",
        [1, _BUILDER_CAPACITY, _BUILDER_CAPACITY + 1, DEFAULT_FLUSH_OPS],
        ids=["every-op", "at-capacity", "one-growth", "default"],
    )
    def test_bit_identical_across_flush_sizes(self, flush_ops):
        got = _run_stream(flush_ops=flush_ops)
        assert_result_identical(got, self.want)

    def test_flushes_are_counted(self):
        before = narration_flush_count()
        _run_stream(flush_ops=100)
        assert narration_flush_count() > before

    def test_invariant_backend_validates_at_flush_granularity(self):
        got = _run_stream(flush_ops=64, validate=True)
        assert_result_identical(got, self.want)

    def test_direct_backend_matches_recorder(self):
        got = _run_stream(backend=DirectBackend())
        assert_result_identical(got, self.want)

    def test_batched_recording_replays_identically(self):
        recorder = RecorderBackend()
        got = _run_stream(flush_ops=128, backend=recorder)
        replayed = replay_recording(recorder.recording)
        assert_result_identical(replayed, got)
        assert_result_identical(scalar_oracle.replay(recorder.recording), got)


# ----------------------------------------------------------------------
# the record-unit differential: kernels x formats x machines x VIA
# ----------------------------------------------------------------------
def _unit_matrix(machine, via, collection):
    units = list(
        spmv_units(
            collection,
            formats=("csr", "csb", "spc5", "sellcs"),
            machine=machine,
            via_config=via,
            validate=True,
        )
    )
    units += list(
        spma_units(collection, machine=machine, via_config=via, validate=True)
    )
    units += list(
        spmm_units(
            collection, machine=machine, via_config=via, max_n=96,
            validate=True,
        )
    )
    return units


def _record_dicts(pricer, machine, via, collection, record_dir):
    units = record_units(
        _unit_matrix(machine, via, collection), record_dir=record_dir
    )
    if pricer == "columnar":
        return [compute_unit(u).to_dict() for u in units]
    with scalar_oracle.scalar_pricing():
        return [compute_unit(u).to_dict() for u in units]


class TestRecordUnitDifferential:
    @pytest.fixture(scope="class")
    def collection(self):
        return small_collection(2, seed=13, max_n=96)

    @pytest.mark.parametrize("via", [VIA_16_2P, VIA_16_4P, VIA_4_2P],
                             ids=lambda v: v.name)
    def test_batched_recording_bit_identical(self, via, collection, tmp_path):
        scalar = _record_dicts(
            "scalar", DEFAULT_MACHINE, via, collection, str(tmp_path / "s")
        )
        batched = _record_dicts(
            "columnar", DEFAULT_MACHINE, via, collection, str(tmp_path / "b")
        )
        assert scalar == batched

    def test_second_machine(self, collection, tmp_path):
        import dataclasses

        machine = dataclasses.replace(DEFAULT_MACHINE, dram_latency=150)
        scalar = _record_dicts(
            "scalar", machine, VIA_16_2P, collection, str(tmp_path / "s")
        )
        batched = _record_dicts(
            "columnar", machine, VIA_16_2P, collection, str(tmp_path / "b")
        )
        assert scalar == batched


# ----------------------------------------------------------------------
# hypothesis: random op sequences across random flush boundaries
# ----------------------------------------------------------------------
_OP_CHOICES = st.sampled_from([
    ("scalar_ops", 5),
    ("vector_alu", 7),
    ("vector_fma", 3),
    ("branches", 4),
    ("stall", 1.5),
    ("load_stream", 16),
    ("store_stream", 16),
    ("gather", 9),
    ("via_passes", 12),
    ("via_cycles", 6.0),
    ("bulk", 1),
])


def _apply(core, arr, op, seed):
    kind, val = op
    if kind == "scalar_ops":
        core.scalar_ops(val)
    elif kind == "vector_alu":
        core.vector_op("alu", val)
    elif kind == "vector_fma":
        core.vector_op("fma", val)
    elif kind == "branches":
        core.branches(val, 0.25)
    elif kind == "stall":
        core.dependency_stall(val)
    elif kind == "load_stream":
        core.load_stream(arr, seed % 512, val)
    elif kind == "store_stream":
        core.store_stream(arr, seed % 512, val)
    elif kind == "gather":
        core.gather(
            arr, np.random.default_rng(seed).integers(0, 1024, size=val)
        )
    elif kind == "via_passes":
        core.record_via_op(
            sspm_elements=val, cam_searches=val, port_passes=1
        )
    elif kind == "via_cycles":
        core.record_via_op(
            sspm_elements=4, cam_searches=2, port_cycles=val
        )
    else:
        core.bulk_stream(arr, passes=2, write=False)


@settings(max_examples=20, deadline=None)
@given(
    ops=st.lists(_OP_CHOICES, min_size=0, max_size=60),
    flush_ops=st.sampled_from([1, 2, 7, 1024, 1025]),
)
def test_fuzzed_streams_bit_identical(ops, flush_ops):
    def run():
        core = Core(
            DEFAULT_MACHINE,
            via=ViaDevice(VIA_16_2P),
            backend=RecorderBackend(),
            flush_ops=flush_ops,
        )
        arr = core.alloc("buf", 1024, 8)
        for i, op in enumerate(ops):
            _apply(core, arr, op, i)
        return core.finalize("fuzz")

    with scalar_oracle.scalar_pricing():
        scalar = run()
    assert_result_identical(run(), scalar)


# ----------------------------------------------------------------------
# the narration surface
# ----------------------------------------------------------------------
class TestModeSurface:
    def test_default_is_batched(self):
        """Narration always buffers: nothing is priced until a flush."""
        core = Core(DEFAULT_MACHINE, flush_ops=10_000)
        core.scalar_ops(5)
        assert core._counters.scalar_uops == 0
        assert core.counters.scalar_uops == 5  # reading drains the buffer

    def test_backend_swap_flushes_pending_rows(self):
        first = RecorderBackend()
        core = Core(DEFAULT_MACHINE, backend=first, flush_ops=10_000)
        core.alloc("a", 64, 8)
        core.scalar_ops(5)
        core.backend = RecorderBackend()
        # the pending rows landed in the *old* backend before the swap
        assert sum(len(block) for block in first._chunks) == 2
