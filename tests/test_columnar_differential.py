"""Differential harness pinning the columnar engine to the scalar oracle.

The columnar pricing engine (:mod:`repro.sim.columnar`) promises
*bit-identical* results to the per-op scalar walk — not approximately
equal, identical down to the last float bit (DESIGN.md Section 9).  The
scalar walk lives on as a test oracle (:mod:`tests.scalar_oracle`).  This
suite enforces the contract over the same matrix as
``test_ops_replay_differential.py``: every kernel family and SpMV format,
the four Fig. 9 DSE configurations, cross-machine (memory-pass) replays,
disk round-trips, the capacity-invariant SpMA/SpMM shared-baseline path,
and the end-to-end Fig. 9 DSE.  Each case compares three ways — direct
execution, oracle replay, and columnar replay — all under
``validate=True`` so the invariant checks ride along and must never trip
or perturb a bit.

Also pins the surface around the one engine: replay takes no engine
choice, configs reject the fractional latencies the engine's exactness
rests on, and the cross-machine memo keeps one entry per machine.
"""

import copy
import dataclasses
import tempfile

import numpy as np
import pytest

from repro.errors import ConfigError, ReplayMismatchError, ServeError
from repro.eval import RunnerConfig, run_units
from repro.eval.dse import run_dse
from repro.eval.units import record_units, replay_units, spma_units, spmm_units
from repro.formats.csb import CSBMatrix
from repro.formats.csc import CSCMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.csr5 import CSR5Matrix
from repro.formats.sellcs import SellCSigmaMatrix
from repro.formats.spc5 import SPC5Matrix
from repro.kernels.csr5_spmv import spmv_csr5_via
from repro.kernels.histogram import histogram_via
from repro.kernels.spma import spma_csr_baseline, spma_via
from repro.kernels.spmm import spmm_via
from repro.kernels.spmv import SPMV_VARIANTS, spmv_csr_baseline
from repro.kernels.stencil import stencil_via
from repro.matrices.collection import small_collection
from repro.serve.jobs import JobSpec
from repro.sim.backends import RecorderBackend, replay_recording
from repro.sim.config import DEFAULT_MACHINE, CacheConfig, MachineConfig
from repro.sim.ops import load_recordings, save_recordings
from repro.via.config import (
    VIA_4_2P,
    VIA_4_4P,
    VIA_16_2P,
    VIA_16_4P,
    dse_configs,
)

from tests import scalar_oracle
from tests.test_ops_replay_differential import _bits, assert_result_identical

pytestmark = [pytest.mark.smoke, pytest.mark.columnar]


@pytest.fixture(scope="module")
def coo():
    return small_collection(2, seed=11, max_n=160).specs[0].build()


@pytest.fixture(scope="module")
def x(coo):
    return np.random.default_rng(3).standard_normal(coo.cols)


def _record(run):
    """Run a kernel callable with a recorder; return (result, recording)."""
    backend = RecorderBackend()
    result = run(backend)
    return result, backend.recording


def _replay_both(recording, **kwargs):
    """Replay with the engine and the oracle under validation; assert they
    agree.

    Returns the columnar result for further comparison against direct
    execution — one call checks both halves of the contract.
    """
    scalar = scalar_oracle.replay(recording, validate=True, **kwargs)
    columnar = replay_recording(recording, validate=True, **kwargs)
    assert_result_identical(columnar, scalar)
    return columnar


# ----------------------------------------------------------------------
# per-kernel-family identity, recorded at 2 ports and replayed at 4
# ----------------------------------------------------------------------
class TestKernelFamilies:
    REC, TGT = VIA_16_2P, VIA_16_4P

    def _check(self, make_run):
        _, recording = _record(make_run(self.REC))
        want = make_run(self.TGT)(None)
        got = _replay_both(recording, via_config=self.TGT)
        assert_result_identical(got, want)

    @pytest.mark.parametrize("fmt", sorted(SPMV_VARIANTS))
    def test_spmv_format(self, coo, x, fmt):
        def make_run(cfg):
            if fmt == "csr":
                mat = CSRMatrix.from_coo(coo)
            elif fmt == "csb":
                mat = CSBMatrix.from_coo(coo, block_size=cfg.csb_block_size)
            elif fmt == "spc5":
                mat = SPC5Matrix.from_coo(coo, vl=DEFAULT_MACHINE.vl)
            else:
                mat = SellCSigmaMatrix.from_coo(
                    coo, c=DEFAULT_MACHINE.vl, sigma=16 * DEFAULT_MACHINE.vl
                )
            _, via_fn = SPMV_VARIANTS[fmt]
            return lambda backend=None: via_fn(
                mat, x, DEFAULT_MACHINE, cfg, backend=backend
            )

        self._check(make_run)

    def test_spma(self, coo):
        a = CSRMatrix.from_coo(coo)
        self._check(
            lambda cfg: lambda backend=None: spma_via(
                a, a, DEFAULT_MACHINE, cfg, backend=backend
            )
        )

    def test_spmm(self, coo):
        a = CSRMatrix.from_coo(coo)
        b = CSCMatrix.from_coo(coo)
        self._check(
            lambda cfg: lambda backend=None: spmm_via(
                a, b, DEFAULT_MACHINE, cfg, backend=backend
            )
        )

    def test_histogram(self):
        keys = np.random.default_rng(5).integers(0, 256, size=1500)
        self._check(
            lambda cfg: lambda backend=None: histogram_via(
                keys, 256, DEFAULT_MACHINE, cfg, backend=backend
            )
        )

    def test_stencil(self):
        image = np.random.default_rng(6).standard_normal((40, 40))
        self._check(
            lambda cfg: lambda backend=None: stencil_via(
                image, None, DEFAULT_MACHINE, cfg, backend=backend
            )
        )

    def test_csr5(self, coo, x):
        m = CSR5Matrix.from_coo(coo)
        self._check(
            lambda cfg: lambda backend=None: spmv_csr5_via(
                m, x, DEFAULT_MACHINE, cfg, backend=backend
            )
        )


# ----------------------------------------------------------------------
# the four Fig. 9 configurations, and the surface around the one engine
# ----------------------------------------------------------------------
class TestDseConfigsAndEngines:
    def test_every_config_replays_from_its_shape_group(self, coo, x):
        reps = {}
        for cfg in dse_configs():
            reps.setdefault(cfg.sram_kb, cfg)
        for cfg in dse_configs():
            rep = reps[cfg.sram_kb]
            csb = CSBMatrix.from_coo(coo, block_size=rep.csb_block_size)
            _, recording = _record(
                lambda backend=None: SPMV_VARIANTS["csb"][1](
                    csb, x, DEFAULT_MACHINE, rep, backend=backend
                )
            )
            want = SPMV_VARIANTS["csb"][1](csb, x, DEFAULT_MACHINE, cfg)
            got = _replay_both(recording, via_config=cfg)
            assert_result_identical(got, want)

    def test_cross_capacity_replay_refuses(self, coo, x):
        csb = CSBMatrix.from_coo(coo, block_size=VIA_16_2P.csb_block_size)
        _, recording = _record(
            lambda backend=None: SPMV_VARIANTS["csb"][1](
                csb, x, DEFAULT_MACHINE, VIA_16_2P, backend=backend
            )
        )
        for cfg in (VIA_4_2P, VIA_4_4P):
            with pytest.raises(ReplayMismatchError):
                replay_recording(recording, via_config=cfg)

    def test_replay_entry_points_take_no_engine(self, tmp_path):
        """There is one pricing engine: no replay entry point, work unit or
        job spec accepts an engine choice, and a client that still sends
        one gets the strict validator's unknown-field ``bad_request``."""
        coll = small_collection(1, seed=3, max_n=64)
        units = spma_units(coll, via_config=VIA_16_2P)
        with pytest.raises(TypeError):
            replay_units(units, record_dir=str(tmp_path), engine="columnar")
        with pytest.raises(TypeError):
            run_dse(coll, record_dir=str(tmp_path), engine="columnar")
        with pytest.raises(TypeError):
            dataclasses.replace(units[0], engine="columnar")
        with pytest.raises(ServeError, match="unknown job spec field"):
            JobSpec.from_payload(
                {"kind": "replay", "kernel": "spma", "engine": "columnar"}
            )

    def test_unknown_engine_is_rejected(self, coo, x):
        csb = CSBMatrix.from_coo(coo, block_size=VIA_16_2P.csb_block_size)
        _, recording = _record(
            lambda backend=None: SPMV_VARIANTS["csb"][1](
                csb, x, DEFAULT_MACHINE, VIA_16_2P, backend=backend
            )
        )
        with pytest.raises(TypeError):
            replay_recording(recording, via_config=VIA_16_4P, engine="simd")

    def test_fractional_latency_is_rejected(self):
        """The columnar engine is exact because every latency is a whole
        number of cycles (integer-valued latency sums commute); the configs
        enforce that, so no machine reaches the engine outside its
        contract."""
        with pytest.raises(ConfigError, match="whole number"):
            MachineConfig(dram_latency=100.5)
        with pytest.raises(ConfigError, match="whole number"):
            dataclasses.replace(DEFAULT_MACHINE, dram_latency=100.5)
        with pytest.raises(ConfigError, match="whole number"):
            CacheConfig(32, 8, 4.5)
        # whole-valued floats are still whole cycles
        MachineConfig(dram_latency=150.0)


# ----------------------------------------------------------------------
# artifact round-trip, cross-machine slow path, and the memo discipline
# ----------------------------------------------------------------------
class TestRoundTripAndMachines:
    def test_disk_roundtrip_is_bit_identical(self, coo, x, tmp_path):
        csb = CSBMatrix.from_coo(coo, block_size=VIA_16_2P.csb_block_size)
        recorded, recording = _record(
            lambda backend=None: SPMV_VARIANTS["csb"][1](
                csb, x, DEFAULT_MACHINE, VIA_16_2P, backend=backend
            )
        )
        want = SPMV_VARIANTS["csb"][1](csb, x, DEFAULT_MACHINE, VIA_16_4P)
        path = tmp_path / "rec.rec"
        save_recordings(path, {"k": recording})
        loaded, _ = load_recordings(path)
        got = _replay_both(loaded["k"], via_config=VIA_16_4P)
        assert_result_identical(got, want)
        # the record run computes the output; an artifact does not store it
        np.testing.assert_array_equal(recorded.output, want.output)
        assert got.output is None

    def test_cross_machine_replay_is_bit_identical(self, coo, x):
        # pricing knobs differ, stream shape does not: this exercises the
        # columnar memory pass (sequential cache walk + vector attribution)
        target = dataclasses.replace(
            DEFAULT_MACHINE,
            dram_latency=DEFAULT_MACHINE.dram_latency + 60,
            mlp_stream=DEFAULT_MACHINE.mlp_stream / 2,
        )
        csb = CSBMatrix.from_coo(coo, block_size=VIA_16_2P.csb_block_size)
        _, recording = _record(
            lambda backend=None: SPMV_VARIANTS["csb"][1](
                csb, x, DEFAULT_MACHINE, VIA_16_2P, backend=backend
            )
        )
        want = SPMV_VARIANTS["csb"][1](csb, x, target, VIA_16_4P)
        got = _replay_both(recording, machine=target, via_config=VIA_16_4P)
        assert_result_identical(got, want)

    def test_cross_machine_memo_is_per_machine(self, coo, x):
        """Repeated replays onto one target machine reuse its memo entry;
        a second target machine adds exactly one more."""
        target = dataclasses.replace(
            DEFAULT_MACHINE,
            dram_latency=DEFAULT_MACHINE.dram_latency + 60,
        )
        other = dataclasses.replace(target, mlp_stream=target.mlp_stream / 2)
        csb = CSBMatrix.from_coo(coo, block_size=VIA_16_2P.csb_block_size)
        _, recording = _record(
            lambda backend=None: SPMV_VARIANTS["csb"][1](
                csb, x, DEFAULT_MACHINE, VIA_16_2P, backend=backend
            )
        )
        for _ in range(3):
            replay_recording(recording, machine=target, via_config=VIA_16_4P)
        assert len(recording._machine_memo) == 1
        replay_recording(recording, machine=other, via_config=VIA_16_4P)
        assert len(recording._machine_memo) == 2

    def test_results_do_not_alias_the_recorded_state(self, coo, x):
        """Both replay tiers hand out their own counters and cache stats:
        editing a result leaves the recording's stored state and its
        cross-machine memo as they were."""
        target = dataclasses.replace(
            DEFAULT_MACHINE, dram_latency=DEFAULT_MACHINE.dram_latency + 60
        )
        csb = CSBMatrix.from_coo(coo, block_size=VIA_16_2P.csb_block_size)
        _, recording = _record(
            lambda backend=None: SPMV_VARIANTS["csb"][1](
                csb, x, DEFAULT_MACHINE, VIA_16_2P, backend=backend
            )
        )
        for machine in (DEFAULT_MACHINE, target):
            want = copy.deepcopy(replay_recording(recording, machine=machine))
            spoiled = replay_recording(recording, machine=machine)
            spoiled.cache_stats["l1"]["hits"] += 1
            spoiled.cache_stats["dram"] = {}
            spoiled.counters.l1_hits += 1
            assert_result_identical(
                replay_recording(recording, machine=machine), want
            )


def _tiny_caches(l1, l2, l3):
    """``DEFAULT_MACHINE`` with ``(size_kb, ways)`` caches at each level.

    The L1 latency and vector lanes, which shape the op stream, keep their
    defaults, so a recording made on ``DEFAULT_MACHINE`` replays here.
    """
    m = DEFAULT_MACHINE
    return dataclasses.replace(
        m,
        l1=CacheConfig(*l1, m.l1.latency),
        l2=CacheConfig(*l2, m.l2.latency),
        l3=CacheConfig(*l3, m.l3.latency),
    )


#: caches far smaller than the test inputs, so dirty lines reach DRAM.
#: On SpMA baseline the two geometries between them run every write-back
#: branch of the walk: with three equal levels an L1 victim's write-back
#: evicts a dirty line from L2, whose write-back evicts one from L3; with a
#: 4-way L2 over a 2-way L3 of the same size, a dirty L2 victim of a
#: demand miss evicts a dirty line from L3
TINY_CACHES = {
    "l1-victim-cascade": _tiny_caches((1, 2), (1, 2), (1, 2)),
    "l2-victim-cascade": _tiny_caches((1, 2), (2, 4), (2, 2)),
}


class TestWriteBackCascade:
    """The walk's write-back branches, down to DRAM, priced bit for bit.

    ``DEFAULT_MACHINE``'s 8 MB L3 holds every test input, so elsewhere no
    dirty line is ever evicted to DRAM.
    """

    @staticmethod
    def _kernel(name, coo, x):
        a = CSRMatrix.from_coo(coo)
        return {
            "spma_baseline": lambda m: spma_csr_baseline(a, a, m),
            "spma_via": lambda m: spma_via(a, a, m, VIA_16_2P),
            "spmv_csr_baseline": lambda m: spmv_csr_baseline(a, x, m),
        }[name]

    @pytest.mark.parametrize("geometry", sorted(TINY_CACHES))
    @pytest.mark.parametrize(
        "name", ["spma_baseline", "spma_via", "spmv_csr_baseline"]
    )
    def test_direct_run_matches_the_oracle(self, coo, x, name, geometry):
        run = self._kernel(name, coo, x)
        got = run(TINY_CACHES[geometry])
        with scalar_oracle.scalar_pricing():
            want = run(TINY_CACHES[geometry])
        assert_result_identical(got, want)
        if name == "spma_baseline":
            assert got.cache_stats["dram"]["writes"] > 0
            assert got.cache_stats["l2"]["writebacks"] > 0
            assert got.cache_stats["l3"]["writebacks"] > 0

    @pytest.mark.parametrize("geometry", sorted(TINY_CACHES))
    def test_cross_machine_replay_onto_tiny_caches(self, coo, geometry):
        machine = TINY_CACHES[geometry]
        a = CSRMatrix.from_coo(coo)
        _, recording = _record(
            lambda backend=None: spma_csr_baseline(
                a, a, DEFAULT_MACHINE, backend=backend
            )
        )
        with scalar_oracle.scalar_pricing():
            want = spma_csr_baseline(a, a, machine)
        got = _replay_both(recording, machine=machine)
        assert_result_identical(got, want)
        assert got.cache_stats["dram"]["writes"] > 0


# ----------------------------------------------------------------------
# the capacity-invariant SpMA/SpMM shared-baseline path
# ----------------------------------------------------------------------
class TestSharedBaseline:
    @pytest.mark.parametrize("make_units", [spma_units, spmm_units])
    def test_shared_baseline_replays_columnar_identically(
        self, make_units, tmp_path
    ):
        """SpMA/SpMM baselines drop the SSPM capacity from their key: the
        4KB group's baseline replays the 16KB group's artifact.  That
        replay must reproduce the direct run bit for bit, through the
        columnar engine and through the oracle alike."""
        coll = small_collection(2, seed=41, max_n=128)
        rdir = str(tmp_path / "rec")
        direct = run_units(
            make_units(coll, via_config=VIA_4_2P), RunnerConfig()
        )
        # warm the store with the *other* capacity group only
        warm = record_units(
            make_units(coll, via_config=VIA_16_2P), record_dir=rdir
        )
        run_units(warm, RunnerConfig())
        replays = replay_units(
            make_units(coll, via_config=VIA_4_2P), record_dir=rdir
        )
        got = run_units(replays, RunnerConfig())
        assert got.records == direct.records
        with scalar_oracle.scalar_pricing():
            scalar = run_units(replays, RunnerConfig())
        assert scalar.records == direct.records


# ----------------------------------------------------------------------
# end-to-end: the Fig. 9 DSE priced by the columnar engine
# ----------------------------------------------------------------------
class TestDseEndToEnd:
    def test_columnar_dse_matches_direct_and_scalar(self):
        coll = small_collection(3, seed=9, max_n=128)
        direct = run_dse(coll)
        with tempfile.TemporaryDirectory() as td:
            with scalar_oracle.scalar_pricing():
                scalar = run_dse(coll, record_dir=td)
            columnar = run_dse(coll, record_dir=td, validate=True)
        for kernel, per_config in direct.cycles.items():
            for cfg_name, want in per_config.items():
                assert _bits(scalar.cycles[kernel][cfg_name]) == _bits(want)
                assert _bits(columnar.cycles[kernel][cfg_name]) == _bits(want)
