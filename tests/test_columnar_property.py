"""Property-based fuzzing of the columnar engine (hypothesis).

The differential suite pins the columnar engine on *kernel-shaped*
streams; this one attacks it with adversarial streams a kernel would
never narrate — in the style of ``test_property_via.py``.  A composite
strategy builds arbitrary-but-well-formed op streams covering every op
dataclass, with the boundary shapes called out in DESIGN.md Section 9
baked into the draw space: zero-length streams, single-op streams,
zero-count and zero-pass memory ops, SSPM occupancy exactly at CAM
capacity, and allocations sized to land on every row of the latency
table (L1-resident through DRAM-spilling).

Three properties, each fuzzed independently:

* replaying a synthetic recording (no stored ``PricedState``, so both
  pricers take the full memory pass) is bit-identical between the
  columnar engine and the scalar oracle (:mod:`tests.scalar_oracle`),
  with validation riding both;
* :func:`tests.op_records.from_ops` → ``to_ops`` (the op-kind table's
  encode and decode) is a lossless round trip, compared field by field
  (``np.array_equal`` for index arrays);
* :func:`check_columnar_invariants` agrees with the oracle's per-op
  invariant checks: both accept every well-formed stream, and both
  reject the same seeded violations.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvariantError
from repro.sim.backends import RecorderBackend, replay_recording
from repro.sim.columnar import (
    COLUMNS,
    KIND_ORDER,
    VECTOR_OP_KINDS,
    check_columnar_invariants,
    columnar_via_totals,
    price_columnar,
)
from repro.sim.config import DEFAULT_MACHINE
from repro.sim.core import Core
from repro.sim.ops import OPS_SCHEMA_VERSION
from repro.via.config import VIA_16_2P
from repro.via.engine import ViaDevice

from tests import scalar_oracle
from tests.op_records import (
    AllocOp,
    BranchesOp,
    BulkStreamOp,
    DependencyStallOp,
    GatherOp,
    GatherSerialOp,
    LoadStreamOp,
    LoadWindowsOp,
    ScalarLoadOp,
    ScalarOpsOp,
    ScalarStoreOp,
    ScatterOp,
    ScatterSerialOp,
    StoreStreamOp,
    VectorOpOp,
    ViaOpRecord,
    from_ops,
    to_ops,
)
from tests.test_ops_replay_differential import assert_result_identical

pytestmark = [pytest.mark.smoke, pytest.mark.columnar]

_CFG = VIA_16_2P
_CAPACITY = _CFG.cam_entries

#: element counts spanning the latency table: L1-resident (rows 0),
#: L2/L3-resident, and DRAM-spilling for 8-byte elements on the default
#: machine — drawn alongside small counts so streams hit every table row
_LEVEL_EDGE_ELEMS = (
    1,
    DEFAULT_MACHINE.l1.size_kb * 1024 // 8,
    DEFAULT_MACHINE.l2.size_kb * 1024 // 8,
    DEFAULT_MACHINE.l3.size_kb * 1024 // 8 + 1024,
)


@st.composite
def _indices(draw, n):
    size = draw(st.integers(1, 24))
    return np.asarray(
        draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size)),
        dtype=np.int64,
    )


@st.composite
def _via_op(draw):
    # occupancy exactly at CAM capacity is a deliberate boundary draw
    se = draw(
        st.one_of(
            st.integers(0, _CAPACITY),
            st.just(_CAPACITY),
            st.just(0),
        )
    )
    pp, pc = draw(
        st.sampled_from(
            [
                (1, None),  # derive port cycles from the config
                (2, None),
                (1, 0.0),  # explicit, boundary zero
                (2, 7.0),
                (None, 3.0),  # cycles known, passes unrecorded
            ]
        )
    )
    return ViaOpRecord(
        sspm_elements=se,
        cam_searches=draw(st.integers(0, 64)),
        count=draw(st.integers(1, 32)),
        port_passes=pp,
        port_cycles=pc,
    )


@st.composite
def op_streams(draw):
    """A well-formed random op stream: allocations first, then ops that
    only reference allocated arrays within bounds."""
    ops = []
    arrays = []
    for i in range(draw(st.integers(0, 3))):
        eb = draw(st.sampled_from([4, 8]))
        n = draw(
            st.one_of(
                st.integers(1, 4096),
                st.sampled_from(_LEVEL_EDGE_ELEMS),
            )
        )
        name = f"arr{i}"
        ops.append(AllocOp(name, n, eb))
        arrays.append((name, n))

    def mem_op(kind):
        name, n = draw(st.sampled_from(arrays))
        if kind == "load_stream" or kind == "store_stream":
            start = draw(st.integers(0, n - 1))
            count = draw(st.integers(0, n - start))  # zero-count boundary
            cls = LoadStreamOp if kind == "load_stream" else StoreStreamOp
            return cls(name, start, count)
        if kind == "gather" or kind == "scatter":
            idx = draw(_indices(n))
            cls = GatherOp if kind == "gather" else ScatterOp
            return cls(name, idx, n_instr=draw(st.integers(1, 4)))
        if kind == "load_windows":
            width = draw(st.integers(1, min(8, n)))
            starts = np.asarray(
                draw(
                    st.lists(
                        st.integers(0, n - width), min_size=1, max_size=12
                    )
                ),
                dtype=np.int64,
            )
            return LoadWindowsOp(name, starts, width)
        if kind == "scalar_load" or kind == "scalar_store":
            cls = ScalarLoadOp if kind == "scalar_load" else ScalarStoreOp
            return cls(name, draw(_indices(n)), draw(st.booleans()))
        # bulk_stream; passes=0 is the raw single-pass boundary
        return BulkStreamOp(name, draw(st.integers(0, 2)), draw(st.booleans()))

    mem_kinds = (
        "load_stream",
        "store_stream",
        "gather",
        "scatter",
        "load_windows",
        "scalar_load",
        "scalar_store",
        "bulk_stream",
    )
    for _ in range(draw(st.integers(0, 20))):
        kind = draw(
            st.sampled_from(
                ("scalar", "vector", "branches", "stall", "serial", "via")
                + (mem_kinds if arrays else ())
            )
        )
        if kind == "scalar":
            ops.append(ScalarOpsOp(draw(st.integers(0, 5000))))
        elif kind == "vector":
            ops.append(
                VectorOpOp(
                    draw(st.sampled_from(VECTOR_OP_KINDS)),
                    draw(st.integers(0, 500)),
                )
            )
        elif kind == "branches":
            ops.append(
                BranchesOp(
                    draw(st.integers(0, 1000)),
                    draw(st.floats(0.0, 1.0, allow_nan=False)),
                )
            )
        elif kind == "stall":
            ops.append(
                DependencyStallOp(
                    draw(st.floats(0.0, 1e4, allow_nan=False))
                )
            )
        elif kind == "serial":
            cls = draw(st.sampled_from([GatherSerialOp, ScatterSerialOp]))
            ops.append(
                cls(draw(st.integers(0, 64)), draw(st.integers(1, 16)))
            )
        elif kind == "via":
            ops.append(draw(_via_op()))
        else:
            ops.append(mem_op(kind))
    return ops


def _recording(ops):
    """A synthetic recording with no stored PricedState, so replay takes
    the full memory pass under both pricers."""
    return scalar_oracle.make_recording(
        f"prop_{_CFG.name}", DEFAULT_MACHINE, _CFG, list(ops)
    )


def _replay_both(rec):
    """Oracle and columnar replay, both validating; assert they agree."""
    scalar = scalar_oracle.replay(rec, validate=True)
    columnar = replay_recording(rec, validate=True)
    assert_result_identical(columnar, scalar)


def _ops_equal(a, b):
    if type(a) is not type(b):
        return False
    for f in dataclasses.fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray) or isinstance(vb, np.ndarray):
            if not np.array_equal(np.asarray(va), np.asarray(vb)):
                return False
        elif va != vb:
            return False
    return True


# ----------------------------------------------------------------------
# fuzzed properties
# ----------------------------------------------------------------------
@given(op_streams())
@settings(max_examples=50, deadline=None)
def test_replay_engines_are_bit_identical(ops):
    rec = _recording(ops)
    _replay_both(rec)


@given(op_streams())
@settings(max_examples=50, deadline=None)
def test_from_ops_to_ops_roundtrip_is_lossless(ops):
    cols = from_ops(ops)
    back = to_ops(cols)
    assert len(back) == len(ops)
    assert all(_ops_equal(a, b) for a, b in zip(ops, back))
    # re-encoding the decoded stream is a fixed point, column for column
    again = from_ops(back)
    for name in ("kinds", "count", "aux", "misc", "extra", "array_id",
                 "off", "num", "pool"):
        np.testing.assert_array_equal(
            getattr(cols, name), getattr(again, name), err_msg=name
        )
    np.testing.assert_array_equal(cols.fval, again.fval)  # NaN-tolerant


@given(op_streams())
@settings(max_examples=50, deadline=None)
def test_via_totals_match_bitwise(ops):
    cols = from_ops(ops)
    want = scalar_oracle.via_totals(ops, _CFG)
    got = columnar_via_totals(cols, _CFG)
    for name, w in want.as_dict().items():
        g = got.as_dict()[name]
        if isinstance(w, float):
            assert np.float64(g).tobytes() == np.float64(w).tobytes(), name
        else:
            assert g == w, name


@given(op_streams())
@settings(max_examples=50, deadline=None)
def test_invariants_accept_every_well_formed_stream(ops):
    """Agreement, accepting half: the oracle's per-op checks ride the
    validated oracle replay above; here the columnar checker must also
    pass every law — structure, occupancy at capacity, and final-counter
    conservation — on the same streams."""
    cols = from_ops(ops)
    priced = price_columnar(cols, DEFAULT_MACHINE, validate=True)
    check_columnar_invariants(
        cols, counters=priced.counters, capacity=_CAPACITY
    )


# ----------------------------------------------------------------------
# deterministic boundaries
# ----------------------------------------------------------------------
def test_kind_ids_and_columns_are_the_artifact_format():
    """Stored artifacts hold kind ids (a row's position in the op-kind
    table) and these column names; moving a table row or renaming a
    column needs an ``OPS_SCHEMA_VERSION`` bump."""
    assert OPS_SCHEMA_VERSION == 3
    assert KIND_ORDER == (
        "alloc", "scalar_ops", "vector_op", "branches", "dependency_stall",
        "load_stream", "store_stream", "gather", "scatter", "gather_serial",
        "scatter_serial", "load_windows", "scalar_load", "scalar_store",
        "bulk_stream", "record_via_op",
    )
    assert COLUMNS == (
        "kinds", "count", "aux", "misc", "extra", "fval", "array_id", "off", "num",
    )
    assert VECTOR_OP_KINDS == ("alu", "mask", "fma", "reduce", "permute", "conflict")


def test_generated_appends_store_the_table_encoding():
    """The builder's generated append path stores, for every kind, the
    columns the test-side encoder derives from the same table."""
    recorder = RecorderBackend()
    core = Core(DEFAULT_MACHINE, via=ViaDevice(_CFG), backend=recorder)
    arr = core.alloc("arr", 64, 4)
    idx = np.asarray([3, 1, 4])
    core.scalar_ops(3)
    core.vector_op("permute", 2)
    core.branches(5, 0.25)
    core.dependency_stall(7.5)
    core.load_stream(arr, 4, 16)
    core.store_stream(arr, 8, 0)
    core.gather(arr, idx, n_instr=2)
    core.scatter(arr, idx[:2], n_instr=1)
    core.gather_serial(3, 4)
    core.scatter_serial(2, 0)
    core.load_windows(arr, idx, 4)
    core.scalar_load(arr, idx, dependent=True)
    core.scalar_store(arr, idx[:1])
    core.bulk_stream(arr, passes=3, write=True)
    core.record_via_op(sspm_elements=6, cam_searches=2, port_passes=2, count=3)
    core.record_via_op(sspm_elements=0, cam_searches=0, port_cycles=4.5)
    core.finalize("every_kind")
    want = from_ops([
        AllocOp("arr", 64, 4),
        ScalarOpsOp(3),
        VectorOpOp("permute", 2),
        BranchesOp(5, 0.25),
        DependencyStallOp(7.5),
        LoadStreamOp("arr", 4, 16),
        StoreStreamOp("arr", 8, 0),
        GatherOp("arr", idx, 2),
        ScatterOp("arr", idx[:2], 1),
        GatherSerialOp(3, 4),
        ScatterSerialOp(2, 0),
        LoadWindowsOp("arr", idx, 4),
        ScalarLoadOp("arr", idx, True),
        ScalarStoreOp("arr", idx[:1], False),
        BulkStreamOp("arr", 3, True),
        ViaOpRecord(6, 2, 3, 2, None),
        ViaOpRecord(0, 0, 1, None, 4.5),
    ])
    got = recorder.recording.columnar()
    for name in COLUMNS + ("pool",):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    assert got.names == want.names


class TestBoundaries:
    def test_zero_length_stream(self):
        rec = _recording([])
        _replay_both(rec)
        assert len(from_ops([])) == 0

    @pytest.mark.parametrize(
        "op",
        [
            AllocOp("a", 16, 8),
            ScalarOpsOp(7),
            VectorOpOp("fma", 12),
            BranchesOp(100, 0.25),
            DependencyStallOp(33.5),
            GatherSerialOp(5, 4),
            ScatterSerialOp(0, 16),
            ViaOpRecord(sspm_elements=8, cam_searches=3, port_passes=1),
        ],
        ids=lambda op: op.kind,
    )
    def test_single_op_stream(self, op):
        ops = [op] if isinstance(op, AllocOp) else [AllocOp("a", 16, 8), op]
        rec = _recording(ops)
        _replay_both(rec)

    def test_occupancy_exactly_at_capacity_passes(self):
        cols = from_ops(
            [ViaOpRecord(sspm_elements=_CAPACITY, cam_searches=0,
                         port_passes=1)]
        )
        check_columnar_invariants(cols, capacity=_CAPACITY)

    def test_occupancy_over_capacity_raises(self):
        cols = from_ops(
            [ViaOpRecord(sspm_elements=_CAPACITY + 1, cam_searches=0,
                         port_passes=1)]
        )
        with pytest.raises(InvariantError, match="capacity"):
            check_columnar_invariants(cols, capacity=_CAPACITY)

    @pytest.mark.parametrize("elems", _LEVEL_EDGE_ELEMS)
    def test_latency_table_edges(self, elems):
        """Streams sized at each cache-level boundary walk a different row
        of the latency table; both engines must agree at every edge."""
        ops = [
            AllocOp("a", elems, 8),
            LoadStreamOp("a", 0, elems),
            LoadStreamOp("a", 0, elems),  # second pass: warm-cache row
        ]
        rec = _recording(ops)
        _replay_both(rec)


# ----------------------------------------------------------------------
# agreement on rejection: both checkers refuse the same violations
# ----------------------------------------------------------------------
def _corrupt(op, field, value):
    """Op constructors validate eagerly, so model corruption can only
    arise *after* construction — which is precisely what the runtime
    invariant checkers exist to catch.  Inject it the same way."""
    object.__setattr__(op, field, value)
    return op


class TestInvariantAgreement:
    @pytest.mark.parametrize(
        "make_bad, match",
        [
            (
                lambda: _corrupt(BranchesOp(10, 0.5), "mispredict_rate", 1.5),
                "mispredict|branches",
            ),
            (
                lambda: _corrupt(DependencyStallOp(5.0), "cycles", -5.0),
                "decreased|>= 0",
            ),
        ],
        ids=["rate_above_one", "negative_stall"],
    )
    def test_both_engines_reject(self, make_bad, match):
        rec = _recording([make_bad()])
        with pytest.raises(InvariantError, match=match):
            scalar_oracle.replay(rec, validate=True)
        rec = _recording([make_bad()])
        with pytest.raises(InvariantError, match=match):
            replay_recording(rec, validate=True)

    def test_via_op_without_timing_rejected(self):
        bad = _corrupt(
            ViaOpRecord(sspm_elements=4, cam_searches=0, port_passes=1),
            "port_passes",
            None,
        )
        cols = from_ops([bad])
        with pytest.raises(InvariantError, match="port"):
            check_columnar_invariants(cols)
