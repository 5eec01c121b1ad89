"""One object per op: the row view of an op stream, for the test oracle.

Production narrates, stores and prices op streams as columns only; each op
kind is a row of :data:`repro.sim.columnar.OP_KINDS`.  The scalar oracle
(:mod:`tests.scalar_oracle`) prices one op object at a time and the
property suite builds streams op by op, so this module keeps a frozen
dataclass per kind and the conversions between op lists and columns.  All
of it is read from the table:

* each class's fields are the kind's operands, in narration order, and its
  constructor runs the kind's checks (:data:`repro.sim.columnar.VALIDATE`);
* :func:`from_ops` stores each operand in the column the table names,
  without validating, so a test can encode an op it corrupted after
  construction;
* :func:`to_ops` reads rows back with :func:`repro.sim.columnar.decode_row`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, ClassVar, Dict, List, Sequence, Tuple, Type

import numpy as np

from repro.sim.columnar import (
    KIND_IDS,
    OP_KINDS,
    VALIDATE,
    ColumnarOps,
    decode_row,
)


@dataclasses.dataclass(frozen=True)
class Op:
    """One narrated event; the subclass fields are the kind's operands."""

    kind: ClassVar[str] = ""

    def operands(self) -> Tuple[Any, ...]:
        return tuple(getattr(self, f.name) for f in dataclasses.fields(self))

    def __post_init__(self) -> None:
        VALIDATE[self.kind](*self.operands())


def _op_class(class_name: str, kind: str, **defaults: Any) -> Type[Op]:
    fields = [
        (o.name, Any, dataclasses.field(default=defaults[o.name]))
        if o.name in defaults
        else (o.name, Any)
        for o in OP_KINDS[KIND_IDS[kind]].operands
    ]
    return dataclasses.make_dataclass(
        class_name, fields, bases=(Op,), frozen=True, namespace={"kind": kind}
    )


AllocOp = _op_class("AllocOp", "alloc")
ScalarOpsOp = _op_class("ScalarOpsOp", "scalar_ops")
VectorOpOp = _op_class("VectorOpOp", "vector_op")
BranchesOp = _op_class("BranchesOp", "branches")
DependencyStallOp = _op_class("DependencyStallOp", "dependency_stall")
LoadStreamOp = _op_class("LoadStreamOp", "load_stream")
StoreStreamOp = _op_class("StoreStreamOp", "store_stream")
GatherOp = _op_class("GatherOp", "gather")
ScatterOp = _op_class("ScatterOp", "scatter")
GatherSerialOp = _op_class("GatherSerialOp", "gather_serial")
ScatterSerialOp = _op_class("ScatterSerialOp", "scatter_serial")
LoadWindowsOp = _op_class("LoadWindowsOp", "load_windows")
ScalarLoadOp = _op_class("ScalarLoadOp", "scalar_load")
ScalarStoreOp = _op_class("ScalarStoreOp", "scalar_store")
BulkStreamOp = _op_class("BulkStreamOp", "bulk_stream")
ViaOpRecord = _op_class(
    "ViaOpRecord", "record_via_op", count=1, port_passes=None, port_cycles=None
)

#: kind -> op class
OP_CLASSES: Dict[str, Type[Op]] = {
    cls.kind: cls
    for cls in (
        AllocOp,
        ScalarOpsOp,
        VectorOpOp,
        BranchesOp,
        DependencyStallOp,
        LoadStreamOp,
        StoreStreamOp,
        GatherOp,
        ScatterOp,
        GatherSerialOp,
        ScatterSerialOp,
        LoadWindowsOp,
        ScalarLoadOp,
        ScalarStoreOp,
        BulkStreamOp,
        ViaOpRecord,
    )
}


def from_ops(ops: Sequence[Op]) -> ColumnarOps:
    """Encode op records as columns (one pass, no validation)."""
    n = len(ops)
    columns: Dict[str, np.ndarray] = {
        "kinds": np.zeros(n, dtype=np.uint8),
        "count": np.zeros(n, dtype=np.int64),
        "aux": np.zeros(n, dtype=np.int64),
        "misc": np.zeros(n, dtype=np.int64),
        "extra": np.full(n, -1, dtype=np.int64),
        "fval": np.full(n, np.nan, dtype=np.float64),
        "array_id": np.full(n, -1, dtype=np.int64),
        "off": np.zeros(n, dtype=np.int64),
        "num": np.zeros(n, dtype=np.int64),
    }
    names: Dict[str, int] = {}
    chunks: List[np.ndarray] = []
    pool_size = 0
    for i, op in enumerate(ops):
        kind_id = KIND_IDS[op.kind]
        columns["kinds"][i] = kind_id
        for o, value in zip(OP_KINDS[kind_id].operands, op.operands()):
            if o.column == "array":
                columns["array_id"][i] = names.setdefault(value, len(names))
            elif o.column == "pool":
                window = np.ascontiguousarray(value, dtype=np.int64)
                columns["off"][i] = pool_size
                columns["num"][i] = window.size
                chunks.append(window)
                pool_size += window.size
            elif value is not None:
                columns[o.column][i] = o.choices.index(value) if o.choices else value
    pool = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
    return ColumnarOps(pool=pool, names=tuple(names), **columns)


def to_ops(cols: ColumnarOps) -> List[Op]:
    """Read columns back as op records (constructed, so validated)."""
    ops: List[Op] = []
    for i in range(len(cols)):
        kind, values = decode_row(cols, i)
        ops.append(OP_CLASSES[kind.name](*values))
    return ops
