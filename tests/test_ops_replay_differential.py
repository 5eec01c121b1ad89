"""Differential tests: replayed op streams vs direct execution.

The op-stream IR's whole contract is that the execution strategy cannot
change the science: recording a kernel and re-pricing the stream — same
configuration, a sibling port configuration, or a different pricing
machine — must reproduce direct execution **bit-identically**: every
float in the :class:`CycleBreakdown`, every counter, energy, bandwidth,
DRAM traffic, and the cache statistics.

Covers every kernel family (the four SpMV formats, SpMA, SpMM, histogram,
stencil, CSR5), the four Fig. 9 ``dse_configs`` shape groups, disk
round-trips of the artifacts, and the end-to-end record/replay DSE.  The
direct-execution reference is priced op by op by the scalar oracle
(:mod:`tests.scalar_oracle`), so every case pins the columnar record and
replay path against the per-op walk.
"""

import dataclasses
import json
import tempfile

import numpy as np
import pytest

from repro.errors import ReplayMismatchError
from repro.eval.dse import run_dse
from repro.formats.csb import CSBMatrix
from repro.formats.csc import CSCMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.csr5 import CSR5Matrix
from repro.formats.sellcs import SellCSigmaMatrix
from repro.formats.spc5 import SPC5Matrix
from repro.kernels.csr5_spmv import spmv_csr5_via
from repro.kernels.histogram import histogram_via
from repro.kernels.spma import spma_via
from repro.kernels.spmm import spmm_via
from repro.kernels.spmv import SPMV_VARIANTS
from repro.kernels.stencil import stencil_via
from repro.matrices.collection import small_collection
from repro.sim.backends import RecorderBackend, replay_recording
from repro.sim.columnar import COLUMNS
from repro.sim.config import DEFAULT_MACHINE
from repro.sim.ops import OPS_SCHEMA_VERSION, load_recordings, save_recordings
from repro.via.config import (
    VIA_4_2P,
    VIA_4_4P,
    VIA_16_2P,
    VIA_16_4P,
    dse_configs,
)

from tests import scalar_oracle

pytestmark = pytest.mark.smoke


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def assert_result_identical(got, want):
    """Every observable of a KernelResult, compared bitwise."""
    assert got.name == want.name
    for fld in ("cycles", "seconds", "energy_pj", "memory_bandwidth_gbs"):
        assert _bits(getattr(got, fld)) == _bits(getattr(want, fld)), fld
    assert got.dram_traffic_bytes == want.dram_traffic_bytes
    for k, w in want.breakdown.as_dict().items():
        g = getattr(got.breakdown, k, None)
        g = got.breakdown.as_dict()[k] if g is None else g
        if isinstance(w, float):
            assert _bits(g) == _bits(w), f"breakdown.{k}"
        else:
            assert g == w, f"breakdown.{k}"
    for k, w in want.counters.as_dict().items():
        g = got.counters.as_dict()[k]
        if isinstance(w, float):
            assert _bits(g) == _bits(w), f"counters.{k}"
        else:
            assert g == w, f"counters.{k}"
    assert got.cache_stats == want.cache_stats


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


# ----------------------------------------------------------------------
# per-kernel-family identity, recorded at 2 ports and replayed at 4
# ----------------------------------------------------------------------
class TestKernelFamilies:
    REC, TGT = VIA_16_2P, VIA_16_4P

    def _check(self, make_run):
        """make_run(cfg) -> callable(backend) -> KernelResult.

        Replays run under ``validate=True``: the runtime invariant checks
        must pass clean on every kernel family and never perturb results.
        """
        _, recording = _record(make_run(self.REC))
        with scalar_oracle.scalar_pricing():
            want = make_run(self.TGT)(None)
        got = replay_recording(recording, via_config=self.TGT, validate=True)
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
# the four Fig. 9 configurations: two shape groups, replay across ports
# ----------------------------------------------------------------------
class TestDseConfigs:
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
            with scalar_oracle.scalar_pricing():
                want = SPMV_VARIANTS["csb"][1](csb, x, DEFAULT_MACHINE, cfg)
            got = replay_recording(recording, via_config=cfg, validate=True)
            assert_result_identical(got, want)

    def test_cross_capacity_replay_refuses(self, coo, x):
        csb = CSBMatrix.from_coo(coo, block_size=VIA_16_2P.csb_block_size)
        _, recording = _record(
            lambda backend=None: SPMV_VARIANTS["csb"][1](
                csb, x, DEFAULT_MACHINE, VIA_16_2P, backend=backend
            )
        )
        with pytest.raises(ReplayMismatchError):
            replay_recording(recording, via_config=VIA_4_2P)
        with pytest.raises(ReplayMismatchError):
            replay_recording(recording, via_config=VIA_4_4P)

    def test_replay_rewrites_config_in_kernel_name(self, coo, x):
        csb = CSBMatrix.from_coo(coo, block_size=VIA_16_2P.csb_block_size)
        _, recording = _record(
            lambda backend=None: SPMV_VARIANTS["csb"][1](
                csb, x, DEFAULT_MACHINE, VIA_16_2P, backend=backend
            )
        )
        got = replay_recording(recording, via_config=VIA_16_4P)
        assert VIA_16_4P.name in got.name
        assert VIA_16_2P.name not in got.name


# ----------------------------------------------------------------------
# artifact round-trip and cross-machine (slow-path) replay
# ----------------------------------------------------------------------
class TestRoundTripAndMachines:
    def test_disk_roundtrip_is_bit_identical(self, coo, x, tmp_path):
        csb = CSBMatrix.from_coo(coo, block_size=VIA_16_2P.csb_block_size)
        recorded, recording = _record(
            lambda backend=None: SPMV_VARIANTS["csb"][1](
                csb, x, DEFAULT_MACHINE, VIA_16_2P, backend=backend
            )
        )
        with scalar_oracle.scalar_pricing():
            want = SPMV_VARIANTS["csb"][1](csb, x, DEFAULT_MACHINE, VIA_16_4P)
        path = tmp_path / "rec.npz"
        save_recordings(path, {"k": recording})
        loaded, _ = load_recordings(path)
        got = replay_recording(loaded["k"], via_config=VIA_16_4P)
        assert_result_identical(got, want)
        # the record run computes the output; an artifact does not store it
        np.testing.assert_array_equal(recorded.output, want.output)
        assert got.output is None

    def test_artifact_holds_only_streams_and_meta(self, coo, x, tmp_path):
        """A v3 artifact is ``meta`` plus each entry's op columns and index
        pool: no array and no meta entry for the kernels' outputs (here a
        dense vector and a CSR matrix)."""
        csb = CSBMatrix.from_coo(coo, block_size=VIA_16_2P.csb_block_size)
        a = CSRMatrix.from_coo(coo)
        _, spmv = _record(
            lambda backend=None: SPMV_VARIANTS["csb"][1](
                csb, x, DEFAULT_MACHINE, VIA_16_2P, backend=backend
            )
        )
        _, spma = _record(
            lambda backend=None: spma_via(
                a, a, DEFAULT_MACHINE, VIA_16_2P, backend=backend
            )
        )
        path = tmp_path / "rec.npz"
        save_recordings(path, {"spmv": spmv, "spma": spma})
        with np.load(path, allow_pickle=False) as npz:
            keys = set(npz.files)
            meta = json.loads(bytes(npz["meta"].tobytes()).decode("utf-8"))
        assert keys == {"meta"} | {
            f"ops{i}_{col}" for i in range(2) for col in (*COLUMNS, "pool")
        }
        assert meta["schema"] == OPS_SCHEMA_VERSION
        assert sorted(meta["entries"]) == ["spma", "spmv"]
        for entry in meta["entries"].values():
            assert "output" not in entry

    def test_cross_machine_replay_is_bit_identical(self, coo, x):
        # pricing knobs (DRAM latency, MLP) differ; stream shape does not —
        # this exercises the memory-pass slow path instead of stored state
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
        with scalar_oracle.scalar_pricing():
            want = SPMV_VARIANTS["csb"][1](csb, x, target, VIA_16_4P)
        # validate=True runs the invariant checks on the memory-pass path
        got = replay_recording(
            recording, machine=target, via_config=VIA_16_4P, validate=True
        )
        assert_result_identical(got, want)

    def test_machine_shape_change_refuses(self, coo, x):
        lanes = dataclasses.replace(
            DEFAULT_MACHINE, vector_lanes=DEFAULT_MACHINE.vector_lanes * 2
        )
        csb = CSBMatrix.from_coo(coo, block_size=VIA_16_2P.csb_block_size)
        _, recording = _record(
            lambda backend=None: SPMV_VARIANTS["csb"][1](
                csb, x, DEFAULT_MACHINE, VIA_16_2P, backend=backend
            )
        )
        with pytest.raises(ReplayMismatchError):
            replay_recording(recording, machine=lanes, via_config=VIA_16_2P)


# ----------------------------------------------------------------------
# end-to-end: the Fig. 9 DSE in record/replay mode
# ----------------------------------------------------------------------
class TestDseEndToEnd:
    def test_record_replay_dse_matches_direct(self):
        coll = small_collection(3, seed=9, max_n=128)
        with scalar_oracle.scalar_pricing():
            direct = run_dse(coll)
        with tempfile.TemporaryDirectory() as td:
            # validated record/replay: invariant checks ride every op and
            # must neither trip nor change a single bit of Fig. 9
            replayed = run_dse(coll, record_dir=td, validate=True)
            # a second, warm-store sweep replays everything and must agree
            warm = run_dse(coll, record_dir=td, validate=True)
        for kernel, per_config in direct.cycles.items():
            for cfg_name, want in per_config.items():
                assert _bits(replayed.cycles[kernel][cfg_name]) == _bits(want)
                assert _bits(warm.cycles[kernel][cfg_name]) == _bits(want)
