"""Tests for the runtime invariant layer on the op-stream IR.

Two halves, mirroring the contract of
:class:`~repro.sim.backends.InvariantBackend`:

* **clean pass** — validation wrapped around real kernels (including the
  Fig. 9 DSE sweep) never trips and never perturbs a result bit;
* **provable trip** — a mis-priced narration flush (counter decrement,
  cache-conservation break, phantom mispredicts, non-finite accumulation,
  SSPM over-occupancy) raises :class:`~repro.errors.InvariantError` at
  *that* flush.  Each trip wraps an inner backend that prices the flush
  correctly and then corrupts the core the way a buggy pricer would, so
  every conservation law stays pinned.

Plus the per-op constructor validators in :mod:`repro.sim.ops` and the
finished-result checks in
:func:`~repro.sim.backends.check_result_invariants`.
"""

import dataclasses

import numpy as np
import pytest

from repro.errors import InvariantError, SimulationError
from repro.eval.dse import run_dse
from repro.formats.csr import CSRMatrix
from repro.kernels.spmv import SPMV_VARIANTS
from repro.matrices import small_collection
from repro.sim.backends import (
    DirectBackend,
    InvariantBackend,
    RecorderBackend,
    check_result_invariants,
    replay_recording,
)
from repro.sim.config import DEFAULT_MACHINE
from repro.sim.core import Core
from repro.sim.ops import (
    AllocOp,
    BranchesOp,
    LoadStreamOp,
    ScalarOpsOp,
    VectorOpOp,
)
from repro.via.config import VIA_16_2P
from repro.via.engine import ViaDevice

pytestmark = pytest.mark.smoke


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


# ----------------------------------------------------------------------
# mis-priced flushes: each corruption breaks exactly one conservation law
# ----------------------------------------------------------------------
class _Mispriced:
    """Backend mixin: price each flush correctly, then apply ``corrupt``
    to the core — after the first ``clean`` flushes, which stay honest."""

    def __init__(self, corrupt, *, clean=0):
        super().__init__()
        self._corrupt = corrupt
        self._clean = clean

    def flush(self, batch, core):
        super().flush(batch, core)
        if self._clean:
            self._clean -= 1
        else:
            self._corrupt(core)


class _MispricedDirect(_Mispriced, DirectBackend):
    pass


class _MispricedRecorder(_Mispriced, RecorderBackend):
    pass


def _decrement(core):
    """Prices negative work — monotonicity violation."""
    core.counters.scalar_uops -= 10


def _phantom_access(core):
    """A line access served by no cache level — conservation violation."""
    core.counters.mem_line_accesses += 1


def _phantom_mispredicts(core):
    """Mispredicts without branches."""
    core.counters.branch_mispredicts += 2.0


def _infinite_latency(core):
    """A non-finite accumulation."""
    core.counters.stream_miss_latency = float("inf")


def _overfill_sspm(core):
    """Pushes SSPM occupancy past the CAM capacity."""
    core.via.sspm._element_count = core.via.config.cam_entries + 1


class TestTripsOnMispricedOps:
    def _core(self, corrupt, *, clean=0, via=None):
        # flush after every narrated op, so each trip names one flush
        return Core(
            DEFAULT_MACHINE,
            via=via,
            backend=InvariantBackend(_MispricedDirect(corrupt, clean=clean)),
            flush_ops=1,
        )

    def test_counter_decrement_trips_at_the_flush(self):
        core = self._core(_decrement, clean=1)
        core.scalar_ops(4)  # clean flush first: the checker is per-delta
        with pytest.raises(InvariantError, match="flush of 1 .* decreased"):
            core.scalar_ops(1)

    def test_cache_conservation_trips(self):
        core = self._core(_phantom_access)
        with pytest.raises(InvariantError, match="cache conservation"):
            core.scalar_ops(1)

    def test_phantom_mispredicts_trip(self):
        core = self._core(_phantom_mispredicts)
        with pytest.raises(InvariantError, match="mispredicts"):
            core.scalar_ops(1)

    def test_non_finite_counter_trips(self):
        core = self._core(_infinite_latency)
        with pytest.raises(InvariantError, match="non-finite"):
            core.scalar_ops(1)

    def test_sspm_over_occupancy_trips(self):
        core = self._core(_overfill_sspm, via=ViaDevice(VIA_16_2P))
        with pytest.raises(InvariantError, match="SSPM occupancy"):
            core.scalar_ops(1)

    def test_real_ops_pass_clean(self):
        core = Core(DEFAULT_MACHINE, backend=InvariantBackend(), flush_ops=1)
        arr = core.alloc("a", 1024)
        core.load_stream(arr, 0, 1024)
        core.vector_op("fma", 8)
        core.branches(16, 0.05)
        core.gather(arr, np.arange(0, 64, 2), n_instr=4)
        result = core.finalize("clean", output=None)
        assert result.cycles > 0
        assert arr is core.mem["a"]

    def test_validating_recorder_trips_too(self):
        """InvariantBackend composes around the recorder: a bad flush is
        caught while recording, before a poisoned artifact can be saved."""
        recorder = _MispricedRecorder(_decrement, clean=1)
        core = Core(
            DEFAULT_MACHINE, backend=InvariantBackend(recorder), flush_ops=1
        )
        core.scalar_ops(2)
        with pytest.raises(InvariantError):
            core.scalar_ops(1)
        assert recorder.recording is None


# ----------------------------------------------------------------------
# constructor validators on the op dataclasses
# ----------------------------------------------------------------------
class TestOpValidators:
    def test_negative_counts_are_rejected_at_construction(self):
        with pytest.raises(SimulationError):
            ScalarOpsOp(-1)
        with pytest.raises(SimulationError):
            VectorOpOp("fma", -2)
        with pytest.raises(SimulationError):
            BranchesOp(-3, 0.05)
        with pytest.raises(SimulationError):
            LoadStreamOp("a", 0, -1)
        with pytest.raises(SimulationError):
            AllocOp("a", -8, 8)

    def test_zero_counts_are_fine(self):
        ScalarOpsOp(0)
        LoadStreamOp("a", 0, 0)


# ----------------------------------------------------------------------
# finished-result checks (the replay fast path uses these)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def spmv_run():
    coo = small_collection(1, seed=61, max_n=128).specs[0].build()
    mat = CSRMatrix.from_coo(coo)
    x = np.random.default_rng(3).standard_normal(coo.cols)
    base_fn, _ = SPMV_VARIANTS["csr"]
    return lambda backend=None: base_fn(mat, x, DEFAULT_MACHINE, backend=backend)


class TestResultInvariants:
    def test_clean_result_passes_and_is_returned(self, spmv_run):
        result = spmv_run()
        assert check_result_invariants(result) is result

    def test_fast_path_replay_validates_clean(self, spmv_run):
        backend = RecorderBackend()
        want = spmv_run(backend)
        got = replay_recording(backend.recording, validate=True)
        assert _bits(got.cycles) == _bits(want.cycles)

    def test_corrupted_energy_trips(self, spmv_run):
        result = dataclasses.replace(spmv_run(), energy_pj=-1.0)
        with pytest.raises(InvariantError, match="energy"):
            check_result_invariants(result)

    def test_corrupted_breakdown_component_trips(self, spmv_run):
        result = spmv_run()
        bad = dataclasses.replace(
            result,
            breakdown=dataclasses.replace(result.breakdown, issue_cycles=-5.0),
        )
        with pytest.raises(InvariantError, match="negative"):
            check_result_invariants(bad)

    def test_corrupted_counter_trips(self, spmv_run):
        result = spmv_run()
        bad = dataclasses.replace(
            result,
            counters=dataclasses.replace(result.counters, mem_line_accesses=10**9),
        )
        with pytest.raises(InvariantError, match="cache conservation"):
            check_result_invariants(bad)


# ----------------------------------------------------------------------
# the acceptance bar: validation passes clean on the Fig. 9 sweep and
# changes nothing
# ----------------------------------------------------------------------
class TestFig9Clean:
    def test_validated_dse_is_bit_identical_to_plain(self):
        coll = small_collection(2, seed=63, max_n=128)
        plain = run_dse(coll)
        validated = run_dse(coll, validate=True)
        for kernel, per_config in plain.cycles.items():
            for cfg_name, want in per_config.items():
                assert _bits(validated.cycles[kernel][cfg_name]) == _bits(want)
