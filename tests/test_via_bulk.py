"""Whole-operand VIA execution against the per-chunk, per-lane reference.

Production runs each helper operand against the SSPM in one step, then
appends its chunk rows; :mod:`tests.via_reference` keeps the
chunk-by-chunk device and the lane-by-lane SSPM.  Three levels, compared
bit for bit:

* SSPM accesses against :class:`~tests.via_reference.LaneSSPM`;
* every helper, mode, destination and op against
  :class:`~tests.via_reference.ChunkViaDevice`, on pre-filled scratchpads,
  with duplicate indices, both vector lengths, and errors partway through
  an operand — state, return values, exceptions and builder rows;
* a whole SpMA fill (``ViaDevice.cam_fill``) against the reference's
  row-by-row helper calls, overflows included;
* every VIA kernel under each DSE configuration, recorded through a
  :class:`~repro.sim.backends.RecorderBackend` on both devices.
"""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import SSPMCapacityError, SSPMError
from repro.formats import COOMatrix, CSBMatrix, CSR5Matrix, CSCMatrix, CSRMatrix
from repro.formats.sellcs import SellCSigmaMatrix
from repro.formats.spc5 import SPC5Matrix
from repro.kernels import common, spma
from repro.kernels.csr5_spmv import spmv_csr5_via
from repro.kernels.histogram import histogram_via
from repro.kernels.spmm import spmm_via
from repro.kernels.spmv import SPMV_VARIANTS
from repro.kernels.stencil import stencil_via
from repro.sim import Core, MachineConfig
from repro.sim.backends import RecorderBackend
from repro.sim.columnar import COLUMNS
from repro.sim.config import DEFAULT_MACHINE
from repro.sim.core import narration_flush_count
from repro.via import SSPM, Dest, Mode, ViaConfig, ViaDevice, dse_configs
from tests.via_reference import ChunkViaDevice, LaneSSPM

_CFG = ViaConfig(4, 2)  # 1,024 SRAM entries, 256 index-table entries
_ENTRIES = _CFG.sram_entries
_CAP = _CFG.cam_entries

_values = st.floats(-64, 64, allow_nan=False, width=32)


class _Capture(RecorderBackend):
    """A recorder that also notes where each flush fell."""

    def __init__(self):
        super().__init__()
        self.flush_sizes = []

    def flush(self, batch, core):
        self.flush_sizes.append(len(batch.cols.kinds))
        super().flush(batch, core)


def _state(sspm):
    return (
        sspm._sram.tobytes(),
        sspm._valid.tobytes(),
        sspm._cam_index.tobytes(),
        sspm.element_count,
    )


def _copy_state(src, dst):
    dst._sram[:] = src._sram
    dst._valid[:] = src._valid
    dst._cam_index[:] = src._cam_index
    dst._cam_map = dict(src._cam_map)
    dst._element_count = src._element_count


def _assert_cam_map_matches_table(sspm):
    """The production SSPM's lookup dict holds exactly the table's slots."""
    table = sspm._cam_index[: sspm.element_count].tolist()
    assert sspm._cam_map == {key: slot for slot, key in enumerate(table)}


def _outcome(fn):
    """A call's result, or its exception's type and message."""
    try:
        return ("ok", fn())
    except Exception as exc:  # compared between the two sides, not handled
        return ("raised", (type(exc), str(exc)))


def _same(a, b):
    """Bitwise equality of results: None, arrays, tuples of arrays, ints."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return type(a) is type(b) and a == b


def _columns(recording):
    cols = recording.columnar()
    return [np.asarray(getattr(cols, c)).tobytes() for c in COLUMNS] + [
        cols.pool.tobytes(),
        cols.names,
    ]


# ----------------------------------------------------------------------
# pre-filled scratchpads
# ----------------------------------------------------------------------
@st.composite
def prefilled(draw):
    """Production SSPM state: stale invalid entries, CAM slots, DM writes."""
    sspm = SSPM(_CFG)
    low = draw(st.lists(st.integers(0, 60), max_size=12))
    high = draw(st.lists(st.integers(_ENTRIES - 48, _ENTRIES - 1), max_size=12))
    pos = np.asarray(low + high, dtype=np.int64)
    sspm.dm_write(pos, np.arange(pos.size) * 1.5 + 0.25)
    if draw(st.booleans()):
        sspm.clear(segment=(0, 32))  # stale values behind cleared valid bits
    tracked = draw(st.sampled_from([0, 9, _CAP - 7, _CAP - 2]))
    # every third key is tracked, so small operand keys both hit and miss
    sspm.cam_write(np.arange(tracked) * 3, np.arange(tracked) * -0.5)
    more = draw(st.lists(st.integers(0, 60), max_size=6))
    sspm.dm_write(more, [2.0] * len(more))
    return sspm


def _devices(sspm, vl, **core_kw):
    """A production and a reference device on copies of ``sspm``."""
    pair = []
    for dev in (ViaDevice(_CFG), ChunkViaDevice(_CFG)):
        _copy_state(sspm, dev.sspm)
        dev.vl_override = vl
        core = Core(DEFAULT_MACHINE, via=dev, backend=_Capture(), **core_kw)
        pair.append((core, dev))
    return pair


# ----------------------------------------------------------------------
# SSPM accesses against the lane-by-lane loops
# ----------------------------------------------------------------------
_ACCESS = st.sampled_from(
    ["dm_write", "dm_accumulate", "dm_read", "cam_write", "cam_write_mixed", "cam_read"]
)


@given(
    prefilled(),
    _ACCESS,
    st.sampled_from(["store", "add", "sub", "mult"]),
    st.sampled_from([0, 5, _ENTRIES - 36, -2]),
    st.lists(st.tuples(st.integers(0, 40), _values, st.booleans()), max_size=40),
)
@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_sspm_access_matches_lane_loop(sspm, access, op, base, lanes):
    lane_sspm = LaneSSPM(_CFG)
    _copy_state(sspm, lane_sspm)
    idx = np.asarray([base + i for i, _, _ in lanes], dtype=np.int64)
    vals = np.asarray([v for _, v, _ in lanes], dtype=float)
    stores = np.asarray([store for _, _, store in lanes], dtype=bool)
    if access == "dm_accumulate" and op == "store":
        op = "add"

    def call(s):
        if access in ("dm_read", "cam_read"):
            return getattr(s, access)(idx)
        if access == "dm_write":
            return s.dm_write(idx, vals)
        if access == "cam_write_mixed":
            # the marked lanes store, the others apply op
            return s.cam_write(idx, vals, op=op, stores=stores)
        return getattr(s, access)(idx, vals, op=op)

    got, want = _outcome(lambda: call(sspm)), _outcome(lambda: call(lane_sspm))
    assert _state(sspm) == _state(lane_sspm)
    _assert_cam_map_matches_table(sspm)
    if access == "dm_accumulate" and want[0] == "ok":
        # the vectorized form returns each lane's entry after the operand
        want = ("ok", lane_sspm._sram[idx])
    assert got[0] == want[0] and _same(got[1], want[1])


def test_cam_overflow_applies_lanes_before_the_overflowing_one():
    sspm, lane_sspm = SSPM(_CFG), LaneSSPM(_CFG)
    for s in (sspm, lane_sspm):
        s.cam_write(np.arange(_CAP - 2), np.ones(_CAP - 2))
    keys = np.asarray([5, 10**6, 5, 10**6 + 1, 10**6, 10**6 + 2, 7])
    for s in (sspm, lane_sspm):
        with pytest.raises(SSPMCapacityError, match="index table full"):
            s.cam_write(keys, np.arange(7.0), op="add")
    assert _state(sspm) == _state(lane_sspm)
    assert sspm.element_count == _CAP
    _assert_cam_map_matches_table(sspm)


# ----------------------------------------------------------------------
# helpers against the chunk-by-chunk device
# ----------------------------------------------------------------------
_HELPERS = ["vidxload", "vidxadd", "vidxsub", "vidxmult", "vidxblkmult", "vidxmov"]


@st.composite
def helper_call(draw):
    """(helper name, vl, call(dev)) over every mode, destination and op."""
    helper = draw(st.sampled_from(_HELPERS))
    vl = draw(st.sampled_from([4, 8]))
    n = draw(st.integers(0, 3 * vl + 3))
    vals = np.asarray(draw(st.lists(_values, min_size=n, max_size=n)), dtype=float)
    if helper == "vidxmov":
        offset = draw(st.sampled_from([0, 1, 3, _CAP - 3, -1]))
        return helper, vl, lambda dev: dev.vidxmov(offset, n)
    if helper == "vidxblkmult":
        shift = draw(st.sampled_from([2, 3, 4]))
        idx = np.asarray(
            draw(st.lists(st.integers(0, (8 << shift) - 1), min_size=n, max_size=n)),
            dtype=np.int64,
        )
        # small offsets make the output window overlap the input window;
        # the last one runs the output off the end of the SRAM
        offset = draw(st.sampled_from([0, 2, 5, 16, 64, _ENTRIES - 6]))
        return helper, vl, lambda dev: dev.vidxblkmult(
            vals, idx, idx_offset=shift, offset=offset
        )
    mode = draw(st.sampled_from([Mode.DIRECT, Mode.CAM]))
    base = draw(st.sampled_from([0, _ENTRIES - 36, -2])) if mode is Mode.DIRECT else 0
    idx = base + np.asarray(
        draw(st.lists(st.integers(0, 40), min_size=n, max_size=n)), dtype=np.int64
    )
    if helper == "vidxload":
        return helper, vl, lambda dev: dev.vidxload(vals, idx, mode)
    dest = draw(st.sampled_from([Dest.VRF, Dest.SSPM]))
    offset = draw(st.sampled_from([0, 3]))
    return helper, vl, lambda dev: getattr(dev, helper)(
        vals, idx, mode=mode, dest=dest, offset=offset
    )


@given(prefilled(), helper_call())
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_helper_matches_per_chunk_execution(sspm, call):
    _helper, vl, run = call
    (core, dev), (ref_core, ref) = _devices(sspm, vl)
    got, want = _outcome(lambda: run(dev)), _outcome(lambda: run(ref))
    assert got[0] == want[0] and _same(got[1], want[1])
    assert _state(dev.sspm) == _state(ref.sspm)
    _assert_cam_map_matches_table(dev.sspm)
    core.finalize("bulk")
    ref_core.finalize("chunk")
    assert _columns(core.backend.recording) == _columns(ref_core.backend.recording)
    assert core.backend.flush_sizes == ref_core.backend.flush_sizes


def test_cam_overflow_partway_keeps_the_chunk_rows_before_it():
    sspm = SSPM(_CFG)
    sspm.cam_write(np.arange(_CAP - 5), np.ones(_CAP - 5))
    (core, dev), (ref_core, ref) = _devices(sspm, 4)
    keys = 10**6 + np.arange(12)  # the sixth new key overflows, in chunk 1
    for d in (dev, ref):
        with pytest.raises(SSPMCapacityError, match="index table full"):
            d.vidxadd(np.ones(12), keys, mode=Mode.CAM, dest=Dest.SSPM)
    assert _state(dev.sspm) == _state(ref.sspm)
    _assert_cam_map_matches_table(dev.sspm)
    assert core.counters.via_instructions == ref_core.counters.via_instructions == 1


def test_direct_range_error_applies_whole_chunks_before_it():
    (core, dev), (ref_core, ref) = _devices(SSPM(_CFG), 4)
    idx = np.arange(10)
    idx[9] = _ENTRIES  # chunk 2 fails
    for d in (dev, ref):
        with pytest.raises(SSPMError, match="out of range"):
            d.vidxadd(np.ones(10), idx, dest=Dest.SSPM)
    assert _state(dev.sspm) == _state(ref.sspm)
    assert dev.sspm.dm_read(np.arange(10)).tolist() == [1.0] * 8 + [0.0] * 2
    assert core.counters.via_instructions == ref_core.counters.via_instructions == 2


def test_operand_rows_flush_at_the_threshold():
    flushes = []
    for cls in (ViaDevice, ChunkViaDevice):
        dev = cls(_CFG)
        backend = _Capture()
        core = Core(MachineConfig(), via=dev, backend=backend, flush_ops=5)
        core.scalar_ops(1)
        before = narration_flush_count()
        dev.vidxload(np.ones(45), np.arange(45))
        flushes.append((narration_flush_count() - before, backend.flush_sizes))
    assert flushes[0] == flushes[1] == (2, [5, 5])


# ----------------------------------------------------------------------
# a whole SpMA fill against its row-by-row helper calls
# ----------------------------------------------------------------------
@st.composite
def fill_call(draw):
    """(vl, flush_ops, a, b, row_uops) for a fill of 0-5 rows.

    Each row has 0 to 3 * VL + 3 lanes per operand.  Keys are drawn from a
    small range, so they repeat within and across rows and operands (a key
    is often stored after it was accumulated), and on the fuller
    pre-filled scratchpads the new ones overflow the CAM partway through.
    """
    vl = draw(st.sampled_from([4, 8]))
    rows = draw(st.integers(0, 5))
    lanes = st.integers(0, 3 * vl + 3)
    operands = []
    for _ in range(2):
        lengths = draw(st.lists(lanes, min_size=rows, max_size=rows))
        n = sum(lengths)
        keys = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
        vals = draw(st.lists(_values, min_size=n, max_size=n))
        operands.append(_operand(vals, keys, lengths))
    flush_ops = draw(st.sampled_from([5, 8192]))
    row_uops = draw(st.sampled_from([0, 6]))
    return vl, flush_ops, operands[0], operands[1], row_uops


def _operand(vals, keys, lengths):
    """A fill operand ``(values, keys, row_ptr)`` from its rows' lengths."""
    ptr = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
    return np.asarray(vals, dtype=float), np.asarray(keys, dtype=np.int64), ptr


def _tracking(n):
    """A scratchpad whose index table tracks keys 0 .. n - 1."""
    sspm = SSPM(_CFG)
    sspm.cam_write(np.arange(n), np.ones(n))
    return sspm


@given(prefilled(), fill_call())
@example(
    # key 9 accumulates after its store; key 5 is stored after it was
    # accumulated, then accumulates again
    SSPM(_CFG),
    (4, 8192, _operand([1.0, 4.0], [9, 5], [1, 1, 0]),
     _operand([2.0, 3.0, 5.0], [5, 9, 5], [2, 0, 1]), 6),
)
@example(
    # four new keys before row 1's B operand, whose lanes 0-3 hit and whose
    # third new key, at lane 6, overflows: the rows before it and its
    # operand's first whole chunk are kept
    _tracking(_CAP - 6),
    (4, 5, _operand([1.0, 2.0, 3.0, 4.0], [10**6, 10**6 + 1, 0, 10**6 + 2], [2, 2]),
     _operand(np.arange(8.0), [10**7, 1, 2, 3, 4, 10**7 + 1, 10**7 + 2, 10**7 + 3],
              [1, 7]), 6),
)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_cam_fill_matches_row_by_row_helpers(sspm, call):
    vl, flush_ops, a, b, row_uops = call
    (core, dev), (ref_core, ref) = _devices(sspm, vl, flush_ops=flush_ops)
    got = _outcome(lambda: dev.cam_fill(a, b, row_uops=row_uops))
    want = _outcome(lambda: ref.cam_fill(a, b, row_uops=row_uops))
    assert got == want
    assert _state(dev.sspm) == _state(ref.sspm)
    _assert_cam_map_matches_table(dev.sspm)
    core.finalize("fill")
    ref_core.finalize("rows")
    assert _columns(core.backend.recording) == _columns(ref_core.backend.recording)
    assert core.backend.flush_sizes == ref_core.backend.flush_sizes


# ----------------------------------------------------------------------
# every VIA kernel on both devices
# ----------------------------------------------------------------------
def _matrix(n=72, seed=3, per_row=6):
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(n), rng.integers(0, per_row + 1, size=n))
    cols = rng.integers(0, n, size=rows.size)
    return COOMatrix((n, n), rows, cols, rng.uniform(-2.0, 2.0, size=rows.size))


def _wide_pair():
    """Two CSR operands with a row whose union (340) exceeds a 4 KB CAM."""
    n = 600
    a_rows = np.concatenate([np.full(240, 3), np.arange(20)])
    a_cols = np.concatenate([np.arange(0, 480, 2), np.arange(20) * 7 % n])
    b_rows = np.concatenate([np.full(180, 3), np.arange(10, 30)])
    b_cols = np.concatenate([np.arange(0, 540, 3), np.arange(20) * 11 % n])
    return (
        CSRMatrix.from_coo(COOMatrix((n, n), a_rows, a_cols, np.linspace(1, 2, 260))),
        CSRMatrix.from_coo(COOMatrix((n, n), b_rows, b_cols, np.linspace(-1, 3, 200))),
    )


#: (A columns, B columns) per row of :func:`_full_fill_pair`
_FULL_FILL_ROWS = [
    # fill 1 at 4 KB: 80 + 0 + 64 + 64 + 48 = 256 entries, A and B disjoint
    (range(37), range(40, 83)),
    ((), ()),
    (range(64), ()),
    ((), range(10, 74)),
    (range(25), range(100, 123)),
    ((), ()),
    # fill 2: 128 + 60 + 0 + 61 + 7 = 256
    (range(101), range(101, 128)),
    ((), range(60)),
    ((), ()),
    (range(3, 64), ()),
    (range(3), range(120, 124)),
    # fill 3: A and B meet, so B accumulates: 180 lanes, 125 distinct keys
    (range(50), range(25, 75)),
    (range(9), ()),
    ((), ()),
    ((), range(11)),
    (range(0, 90, 3), range(0, 90, 3)),
]


def _full_fill_pair():
    """Two CSR operands whose packed fills close at exactly 256 entries.

    At 4 KB (a 256-entry CAM) the rows pack into three fills, the first
    two of exactly 256 distinct keys, with empty, A-only and B-only rows
    inside them.
    """
    n = 128
    parts = {}
    for side in (0, 1):
        row_cols = [np.asarray(row[side], dtype=np.int64) for row in _FULL_FILL_ROWS]
        rows = np.repeat(np.arange(len(row_cols)), [c.size for c in row_cols])
        cols = np.concatenate(row_cols)
        vals = np.linspace(-1.5 + side, 2.5, rows.size)
        parts[side] = CSRMatrix.from_coo(COOMatrix((n, n), rows, cols, vals))
    return parts[0], parts[1]


def _spmv_operand(fmt, coo, cfg):
    if fmt == "csr":
        return CSRMatrix.from_coo(coo)
    if fmt == "csb":
        return CSBMatrix.from_coo(coo, block_size=min(cfg.csb_block_size, 32))
    if fmt == "spc5":
        return SPC5Matrix.from_coo(coo, vl=DEFAULT_MACHINE.vl)
    return SellCSigmaMatrix.from_coo(coo, c=DEFAULT_MACHINE.vl, sigma=16)


def _kernel_runs():
    """(label, run(cfg, backend)) for every VIA kernel and format."""
    coo, other = _matrix(), _matrix(seed=5)
    x = np.linspace(-1.0, 1.0, coo.cols)
    a, b = CSRMatrix.from_coo(coo), CSRMatrix.from_coo(other)
    wide_a, wide_b = _wide_pair()
    full_a, full_b = _full_fill_pair()
    keys = (np.arange(500) * 37 + np.arange(500) // 7) % 80
    image = (np.arange(196, dtype=np.float64) % 9).reshape(14, 14)
    m = DEFAULT_MACHINE
    runs = [
        (f"spmv_{fmt}", lambda cfg, be, fmt=fmt: SPMV_VARIANTS[fmt][1](
            _spmv_operand(fmt, coo, cfg), x, m, cfg, backend=be))
        for fmt in sorted(SPMV_VARIANTS)
    ]
    runs += [
        ("spmv_csr5", lambda cfg, be: spmv_csr5_via(
            CSR5Matrix.from_coo(coo), x, m, cfg, backend=be)),
        ("spma", lambda cfg, be: spma.spma_via(a, b, m, cfg, backend=be)),
        ("spma_wide_row", lambda cfg, be: spma.spma_via(
            wide_a, wide_b, m, cfg, backend=be)),
        ("spma_full_fills", lambda cfg, be: spma.spma_via(
            full_a, full_b, m, cfg, backend=be)),
        ("spmm", lambda cfg, be: spmm_via(
            a, CSCMatrix.from_coo(other), m, cfg, backend=be)),
        ("histogram", lambda cfg, be: histogram_via(keys, 80, m, cfg, backend=be)),
        ("stencil", lambda cfg, be: stencil_via(image, None, m, cfg, backend=be)),
    ]
    return runs


_RUNS = dict(_kernel_runs())


def _tapped(cls, drains, devices):
    """A device factory that keeps every device and every drained row."""

    def make(config):
        dev = cls(config)
        mov = dev.vidxmov

        def vidxmov(offset, count):
            out = mov(offset, count)
            drains.append(out)
            return out

        dev.vidxmov = vidxmov
        devices.append(dev)
        return dev

    return make


def _record(monkeypatch, run, cfg, *, reference, flush_ops=None):
    drains, devices = [], []
    with monkeypatch.context() as patch:
        cls = ChunkViaDevice if reference else ViaDevice
        patch.setattr(common, "ViaDevice", _tapped(cls, drains, devices))
        if flush_ops is not None:
            patch.setattr(common, "Core", functools.partial(Core, flush_ops=flush_ops))
        backend = _Capture()
        before = narration_flush_count()
        result = run(cfg, backend)
        flushes = narration_flush_count() - before
    return result, backend, flushes, drains, _state(devices[0].sspm)


def _assert_same_run(got, want):
    res, backend, flushes, drains, state = got
    ref_res, ref_backend, ref_flushes, ref_drains, ref_state = want
    assert _columns(backend.recording) == _columns(ref_backend.recording)
    assert repr(backend.recording.priced) == repr(ref_backend.recording.priced)
    assert backend.flush_sizes == ref_backend.flush_sizes
    assert flushes == ref_flushes
    # drained rows in CAM slot order, and the scratchpad the kernel left
    assert len(drains) == len(ref_drains)
    assert all(_same(d, r) for d, r in zip(drains, ref_drains))
    assert state == ref_state
    assert np.float64(res.cycles).tobytes() == np.float64(ref_res.cycles).tobytes()
    assert np.float64(res.energy_pj).tobytes() == np.float64(ref_res.energy_pj).tobytes()
    out, ref_out = res.output, ref_res.output
    if isinstance(out, CSRMatrix):
        out, ref_out = out.to_dense(), ref_out.to_dense()
    assert np.asarray(out).tobytes() == np.asarray(ref_out).tobytes()


@pytest.mark.parametrize("cfg", dse_configs(), ids=lambda c: c.name)
@pytest.mark.parametrize("label", sorted(_RUNS))
def test_kernel_records_like_per_chunk_execution(monkeypatch, label, cfg):
    run = _RUNS[label]
    _assert_same_run(
        _record(monkeypatch, run, cfg, reference=False),
        _record(monkeypatch, run, cfg, reference=True),
    )


@pytest.mark.parametrize(
    "label", ["spma", "spma_full_fills", "spma_wide_row", "spmv_csb", "spmv_csr"]
)
def test_flushes_inside_an_operand_fall_at_the_same_rows(monkeypatch, label):
    run, cfg = _RUNS[label], dse_configs()[0]
    got = _record(monkeypatch, run, cfg, reference=False, flush_ops=7)
    want = _record(monkeypatch, run, cfg, reference=True, flush_ops=7)
    assert got[2] > 1
    _assert_same_run(got, want)


def test_full_fill_pair_closes_its_fills_at_the_cam_size(monkeypatch):
    """The pair pins what it is for: three 4 KB fills, two of them full."""
    cfg = dse_configs()[0]
    assert cfg.cam_entries == 256
    drains = _record(monkeypatch, _RUNS["spma_full_fills"], cfg, reference=False)[3]
    assert [keys.size for keys, _ in drains] == [256, 256, 125]
