"""Span recording for the traced run, installed from the benchmark's own files.

:func:`install` wraps the public entry points of every measured layer.  Each
wrapper times its call with ``perf_counter_ns`` and folds it into an
in-memory call tree keyed by ``(parent span, span)``: calls, total time,
self time (total minus the time of the spans nested in it) and an optional
amount (rows priced, bytes written, units run).  A few span names also
keep every individual span, for per-request percentiles.  Nothing is
written until :meth:`Tracer.flush`.

Where a caller bound a name at import time (``replay_recording`` in
``repro.eval.units``, ``run_supervised``/``execute_unit`` in
``repro.eval.runner``) the wrapper replaces the name the caller looks up,
and registry entries (``SPMV_VARIANTS``) are replaced too.  Both worker
pools fork, so workers inherit the wrappers; a fork handler clears the
inherited spans, and each worker flushes its spans at the end of every
``execute_unit`` / ``execute_request`` because forked workers leave through
``os._exit`` and never run ``atexit`` handlers.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: spans that stand for a whole operation rather than a layer; their self
#: time is what no layer span covers, reported as ``unattributed_s``
FRAMES = ("frame.timed", "frame.unit", "frame.request")

Amount = Callable[[tuple, dict, Any], float]


class Tracer:
    """Process-local span accumulator; one per benchmark process tree."""

    def __init__(self, out_dir: str, keep: Tuple[str, ...] = ()):
        self.out_dir = Path(out_dir)
        self.keep = frozenset(keep)
        self.root_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self._local = threading.local()
        #: (parent, name) -> [calls, total_ns, self_ns, amount]
        self.tree: Dict[Tuple[str, str], List[float]] = {}
        #: (name, start_ns, end_ns, tag) for span names in ``keep``
        self.kept: List[Tuple[str, int, int, Any]] = []

    def wrap(
        self,
        name: Any,
        fn: Callable,
        *,
        amount: Optional[Amount] = None,
        tag: Optional[Callable[[tuple], Any]] = None,
        flush: bool = False,
    ) -> Callable:
        """Return ``fn`` timed as span ``name`` (a string, or ``f(args)``)."""
        tracer = self
        clock = time.perf_counter_ns
        labeler = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = [["", 0]]
            label = labeler(args) if labeler is not None else name
            parent = stack[-1]
            frame = [label, 0]
            stack.append(frame)
            result = None
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                took = end - start
                parent[1] += took
                key = (parent[0], label)
                entry = tracer.tree.get(key)
                if entry is None:
                    entry = tracer.tree[key] = [0, 0, 0, 0.0]
                entry[0] += 1
                entry[1] += took
                entry[2] += took - frame[1]
                # a call that raised has no amount, and its own exception
                # must reach the program unchanged
                if amount is not None and returned:
                    entry[3] += amount(args, kwargs, result)
                if label in tracer.keep:
                    tracer.kept.append(
                        (label, start, end, tag(args) if tag is not None else None)
                    )
                if flush and os.getpid() != tracer.root_pid:
                    tracer.flush()

        return traced

    def flush(self) -> None:
        """Write this process's spans (cumulative, so rewriting is idempotent)."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        pid = os.getpid()
        doc = {
            "pid": pid,
            "root": pid == self.root_pid,
            "tree": [[p, n, *v] for (p, n), v in self.tree.items()],
            "kept": self.kept,
        }
        path = self.out_dir / f"spans-{pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc))
        os.replace(tmp, path)


def load(out_dir: str) -> List[dict]:
    """Every process's flushed spans under ``out_dir``."""
    return [json.loads(p.read_text()) for p in sorted(Path(out_dir).glob("spans-*.json"))]


def totals(docs: List[dict], *, root: Optional[bool] = None) -> Dict[str, List[float]]:
    """Per span name ``[calls, total_s, self_s, amount]``, optionally by process role.

    ``total_s`` skips calls made directly inside a call of the same name,
    so direct recursion is not counted twice.
    """
    out: Dict[str, List[float]] = {}
    for doc in docs:
        if root is not None and doc["root"] != root:
            continue
        for parent, name, calls, total_ns, self_ns, amount in doc["tree"]:
            row = out.setdefault(name, [0, 0.0, 0.0, 0.0])
            row[0] += calls
            if parent != name:
                row[1] += total_ns / 1e9
            row[2] += self_ns / 1e9
            row[3] += amount
    return out


def kept(docs: List[dict], name: str) -> List[Tuple[int, int, Any]]:
    """Individually kept spans of one name: ``(start_ns, end_ns, tag)``."""
    return [(s, e, t) for doc in docs for n, s, e, t in doc["kept"] if n == name]


# ----------------------------------------------------------------------
# the layer boundaries


def _wrap_method(tracer: Tracer, cls: type, attr: str, name: str, **kw) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, **kw)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw, **kw))


def _run_units_label(args: tuple) -> str:
    units = args[0] if args else ()
    kind = units[0].kind if len(units) else "empty"
    return f"dse.{kind if kind in ('record', 'replay') else 'direct'}"


def _put_bytes(args: tuple, _kw: dict, _result: Any) -> float:
    store, key = args[0], args[1]
    return float(store._path(key).stat().st_size)


def _spec_tag(args: tuple) -> str:
    return json.dumps(args[0]["spec"], sort_keys=True)


def install(tracer: Tracer) -> None:
    """Wrap every measured layer's public entry points (see the module docs)."""
    from repro import formats
    from repro.eval import recordings, runner, supervisor, units
    from repro.kernels import spma, spmm, spmv
    from repro.matrices.collection import MatrixCollection, MatrixSpec
    from repro.model.cost import JobCostEstimator
    from repro.serve import execution
    from repro.sim import cache, columnar, core
    from repro.via.engine import ViaDevice

    _wrap_method(tracer, MatrixSpec, "build", "matrices.build")
    _wrap_method(tracer, MatrixCollection, "__init__", "matrices.sample")
    units.structure_stats = tracer.wrap("matrices.stats", units.structure_stats)
    units.nnz_per_row_metric = tracer.wrap("matrices.stats", units.nnz_per_row_metric)

    for cls in (
        formats.COOMatrix,
        formats.CSRMatrix,
        formats.CSCMatrix,
        formats.CSBMatrix,
        formats.CSR5Matrix,
        formats.SPC5Matrix,
        formats.SellCSigmaMatrix,
    ):
        for attr in ("__init__", "from_coo"):
            if attr in cls.__dict__:
                _wrap_method(tracer, cls, attr, "formats.convert")

    wrapped: Dict[int, Callable] = {}
    for module, prefixes in ((spmv, ("spmv_",)), (spma, ("spma_",)), (spmm, ("spmm_",))):
        for attr, fn in list(vars(module).items()):
            if attr.startswith(prefixes) and callable(fn):
                wrapped[id(fn)] = tracer.wrap("kernels.exec", fn)
                setattr(module, attr, wrapped[id(fn)])
    for fmt, pair in list(spmv.SPMV_VARIANTS.items()):
        spmv.SPMV_VARIANTS[fmt] = tuple(wrapped.get(id(f)) or tracer.wrap("kernels.exec", f) for f in pair)

    _wrap_method(tracer, ViaDevice, "execute", "via.exec")
    columnar.price_flush = tracer.wrap(
        "sim.flush", columnar.price_flush, amount=lambda a, k, r: float(len(a[0].cols.kinds))
    )
    _wrap_method(tracer, core.Core, "finalize", "sim.finalize")
    _wrap_method(tracer, cache.Cache, "access_line", "sim.walk")

    _wrap_method(tracer, recordings.RecordingStore, "put", "recordings.put", amount=_put_bytes)
    _wrap_method(
        tracer,
        recordings.RecordingStore,
        "get",
        "recordings.get",
        amount=lambda a, k, r: float(r is not None),
    )
    recordings.load_recordings = tracer.wrap("recordings.load", recordings.load_recordings)
    units.replay_recording = tracer.wrap("replay.price", units.replay_recording)

    runner.unit_cache_key = tracer.wrap("runner.key", runner.unit_cache_key)
    _wrap_method(tracer, runner.ResultCache, "get", "runner.cache_get")
    _wrap_method(tracer, runner.ResultCache, "put", "runner.cache_put")
    _wrap_method(tracer, runner._Journal, "write", "runner.journal")
    runner.run_units = tracer.wrap(
        _run_units_label, runner.run_units, amount=lambda a, k, r: float(len(a[0]))
    )
    runner.run_supervised = tracer.wrap("supervisor.run", runner.run_supervised)
    _wrap_method(tracer, supervisor._WorkerHandle, "__init__", "supervisor.spawn")
    runner.execute_unit = tracer.wrap("frame.unit", runner.execute_unit)
    supervisor.execute_unit = tracer.wrap("frame.unit", supervisor.execute_unit, flush=True)

    _wrap_method(tracer, JobCostEstimator, "estimate_workload", "model.predict")
    _wrap_method(tracer, JobCostEstimator, "admission_cost", "model.predict")
    execution._build_units = tracer.wrap("serve.prepare", execution._build_units)
    execution._count_replay_hits = tracer.wrap("serve.prepare", execution._count_replay_hits)
    execution.execute_request = tracer.wrap(
        "frame.request", execution.execute_request, tag=_spec_tag, flush=True
    )
