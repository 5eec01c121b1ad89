"""Parallel, cached, supervised sweep-execution engine with run telemetry.

The paper's evaluation (Section VII) sweeps 1,024 matrices across kernels
and formats; replaying that loop sequentially repays the full simulation
cost on every figure regeneration — and at that scale a single hung
kernel, OOM-killed worker, or Ctrl-C must not lose the run.  This module
turns a list of :class:`~repro.eval.units.WorkUnit` into
:class:`SweepRecord` results with four defenses:

* **parallelism** — units fan out over the supervised worker pool the
  serve tier also runs on (:mod:`repro.eval.supervisor`); results keep
  unit order, so a parallel sweep is bit-identical to a sequential one;
* **supervision** — a per-unit wall-clock ``timeout_s`` kills hung
  kernels, dead workers (crash, OOM kill) are detected and replenished,
  and transient failures retry with bounded exponential backoff
  (``retries`` / ``backoff_s``); SIGINT/SIGTERM flush every completed
  unit to the journal before raising
  :class:`~repro.errors.SweepInterrupted`;
* **caching + resume** — a content-addressed on-disk cache keyed by
  :func:`repro.eval.units.unit_cache_key` makes re-runs near-free, and
  ``resume=`` replays a prior run's JSONL journal so only units that
  failed (or never ran) are recomputed — bit-identically, because the
  journal stores each completed unit's full record;
* **telemetry** — the journal records per-unit wall time, cycles, cache
  status (including ``corrupt``), worker id and retry history, marks a
  unit whose resume record did not decode with ``"resume": "corrupt"``, and
  aggregate :class:`repro.sim.stats.SweepCounters` summarize the run; a
  unit that raises becomes a recorded :class:`UnitFailure` instead of
  killing the sweep (when ``capture_errors`` is on).

Environment knobs (read by :meth:`RunnerConfig.from_env`):

* ``REPRO_SWEEP_WORKERS`` — pool size (default 1 = inline execution);
* ``REPRO_SWEEP_CACHE`` — cache directory (unset = caching off);
* ``REPRO_SWEEP_NO_CACHE=1`` — escape hatch: ignore any cache directory;
* ``REPRO_SWEEP_JOURNAL`` — JSONL journal path (unset = no journal);
* ``REPRO_SWEEP_TIMEOUT`` — per-unit wall-clock timeout in seconds;
* ``REPRO_SWEEP_RETRIES`` — extra attempts for transient failures.

A CLI is included for demo sweeps::

    python -m repro.eval --kernel spmv --count 8 --workers 2 \
        --cache-dir /tmp/via-cache --journal /tmp/via-run.jsonl \
        --timeout 60 --retries 2
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import signal as signal_mod
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import repro
from repro.errors import SweepError, SweepInterrupted
from repro.eval.harness import SweepRecord, geomean
from repro.eval.supervisor import UnitOutcome, execute_unit, run_supervised
from repro.eval.units import WorkUnit, unit_cache_key
from repro.sim.stats import SweepCounters
from repro.storage import JsonStore, code_version

#: bump when the cache entry layout (not the results) changes
CACHE_FORMAT = 1

#: journal statuses a resumed run may serve without recomputation
_RESUMABLE_STATUSES = ("ok", "cached", "resumed", "skipped")

@dataclass(frozen=True)
class RunnerConfig:
    """Execution policy for one sweep run.

    ``timeout_s`` / ``retries`` / ``backoff_s`` drive the supervised
    dispatch loop; setting either of the first two (or ``workers > 1``)
    routes execution through :mod:`repro.eval.supervisor`.  ``resume``
    names a prior run's journal: units whose completed records it holds
    are served from it bit-identically instead of recomputed.
    Supervised dispatch hands out one unit at a time, so every timeout or
    worker death is attributable to a single unit.
    """

    workers: int = 1
    cache_dir: Optional[str] = None
    use_cache: bool = True
    journal_path: Optional[str] = None
    capture_errors: bool = True
    timeout_s: Optional[float] = None
    retries: int = 0
    backoff_s: float = 0.1
    resume: Optional[str] = None

    def __post_init__(self):
        if self.workers < 1:
            raise SweepError(f"workers must be >= 1, got {self.workers}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise SweepError(f"timeout_s must be > 0, got {self.timeout_s}")
        if self.retries < 0:
            raise SweepError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_s < 0:
            raise SweepError(f"backoff_s must be >= 0, got {self.backoff_s}")

    @property
    def caching(self) -> bool:
        return self.use_cache and self.cache_dir is not None

    @property
    def supervised(self) -> bool:
        """Whether execution needs the watchdog-supervised worker pool."""
        return (
            self.workers > 1
            or self.timeout_s is not None
            or self.retries > 0
        )

    @classmethod
    def from_env(cls, **overrides) -> "RunnerConfig":
        """Build a config from the ``REPRO_SWEEP_*`` environment knobs."""
        timeout = os.environ.get("REPRO_SWEEP_TIMEOUT")
        values = {
            "workers": int(os.environ.get("REPRO_SWEEP_WORKERS", "1")),
            "cache_dir": os.environ.get("REPRO_SWEEP_CACHE") or None,
            "use_cache": os.environ.get("REPRO_SWEEP_NO_CACHE") != "1",
            "journal_path": os.environ.get("REPRO_SWEEP_JOURNAL") or None,
            "timeout_s": float(timeout) if timeout else None,
            "retries": int(os.environ.get("REPRO_SWEEP_RETRIES", "0")),
        }
        values.update(overrides)
        return cls(**values)


@dataclass
class UnitFailure:
    """A work unit that failed for good; the sweep records it and moves on.

    ``transient`` marks failures that *might* succeed on retry (worker
    death, timeout) as opposed to deterministic kernel exceptions;
    ``attempts`` counts how many times the unit ran and ``history`` holds
    one line per failed attempt (the retry history).
    """

    index: int
    kind: str
    name: str
    error: str
    traceback: str = ""
    transient: bool = False
    attempts: int = 1
    history: List[str] = field(default_factory=list)


@dataclass
class SweepResult:
    """Everything one runner invocation produced.

    ``records`` holds the completed records in unit order; ``unit_records``
    is aligned with the input units, ``None`` where a unit failed, filtered
    itself out, or never ran.
    """

    records: List[SweepRecord] = field(default_factory=list)
    unit_records: List[Optional[SweepRecord]] = field(default_factory=list)
    failures: List[UnitFailure] = field(default_factory=list)
    counters: SweepCounters = field(default_factory=SweepCounters)
    journal_path: Optional[str] = None


class ResultCache(JsonStore):
    """Content-addressed on-disk store of serialized :class:`SweepRecord`.

    Layout (``<root>/<key[:2]>/<key>.json``) and envelope come from
    :class:`repro.storage.JsonStore`: each entry embeds its own key and a
    checksum of the payload.  :meth:`get` treats a missing key as a miss
    and any entry that fails the integrity check as *corrupt*: the entry
    is deleted and the unit recomputed, never served.  :func:`run_units`
    does the same with an entry that passes the check but does not
    decode as a :class:`SweepRecord`.
    """

    format_version = CACHE_FORMAT

    def get(self, key: str) -> Tuple[Optional[dict], str]:
        """Return ``(entry_payload, status)``; status in hit/miss/corrupt."""
        entry, status = self._read(key)
        return (entry["payload"] if entry is not None else None), status

    def put(
        self,
        key: str,
        payload: Optional[dict],
        *,
        context: Optional[dict] = None,
    ) -> None:
        """Write one entry; ``context`` is the unit's kernel/machine/VIA
        configuration, mined by the cost-model dataset, outside the
        checksum (so :meth:`get` serves entries with or without it)."""
        self._write(key, payload, context)


def _pool_context():
    """Fork keeps registered UNIT_KINDS visible to workers; fall back
    to the platform default elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class _Journal:
    """Append-only JSONL writer; one line per work-unit outcome.

    Opened in append mode so resumed runs may keep extending one journal
    file.  Every line is flushed as soon as it is written — the journal is
    the crash-recovery record, so a line must hit the OS before the unit
    is considered durable.  An unwritable path (missing permissions, a
    parent that is a file, a directory target) raises
    :class:`~repro.errors.SweepError` immediately rather than losing
    telemetry silently.
    """

    def __init__(self, path: Optional[str]):
        self.path = path
        self._fh = None
        if path is not None:
            try:
                Path(path).parent.mkdir(parents=True, exist_ok=True)
                self._fh = open(path, "a", encoding="utf-8")
            except OSError as exc:
                raise SweepError(
                    f"run journal {path!r} is not writable: {exc}"
                ) from exc

    def write(self, **fields) -> None:
        if self._fh is None:
            return
        try:
            self._fh.write(json.dumps(fields, sort_keys=True) + "\n")
            self._fh.flush()
        except (OSError, ValueError) as exc:
            raise SweepError(
                f"run journal {self.path!r} failed mid-run: {exc}"
            ) from exc

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            finally:
                self._fh = None


def read_journal(path: str) -> Iterator[dict]:
    """Every JSON-object line of a run journal, in file order; torn lines
    (the tail of a crashed run) are skipped.  Callers check existence."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # blank, or the torn tail of a crashed run
            if isinstance(entry, dict):
                yield entry


def unit_context(unit: WorkUnit) -> dict:
    """The hardware/kernel context of one unit, JSON-shaped.

    Written into journal lines and cache entries so the cost-model
    dataset (:mod:`repro.model.dataset`) can mine (features, config) →
    cycles rows from a journal alone, without reconstructing units.
    """
    return {
        "kernel": unit.kernel or unit.kind,
        "via": dataclasses.asdict(unit.via_config),
        "machine": dataclasses.asdict(unit.machine),
    }


def _journal_cycles(record: Optional[SweepRecord]) -> dict:
    if record is None:
        return {}
    return {
        "baseline_cycles": dict(record.baseline_cycles),
        "via_cycles": dict(record.via_cycles),
    }


def _load_resume_map(path: str) -> Dict[str, dict]:
    """Completed-unit journal lines from a prior run, keyed by unit key.

    Only lines that carry a unit ``key`` and a completed status are
    usable; failures are deliberately excluded (they must recompute) and
    torn lines — the expected tail of a crashed run's journal — are
    skipped.  A later line for the same key wins, so a journal extended
    across several resumed runs serves its freshest outcome.
    """
    if not Path(path).exists():
        raise SweepError(f"resume journal {path!r} does not exist")
    entries: Dict[str, dict] = {}
    try:
        for entry in read_journal(path):
            key = entry.get("key")
            if key and entry.get("status") in _RESUMABLE_STATUSES:
                entries[key] = entry
    except OSError as exc:
        raise SweepError(f"resume journal {path!r} is unreadable: {exc}") from exc
    return entries


class _SweepState:
    """Mutable bookkeeping for one :func:`run_units` invocation.

    Outcomes arrive in completion order (cache scan, inline loop, or
    supervised pool); :meth:`finish` journals and counts each one the
    moment it lands, so an interrupt can flush a faithful partial state.
    Deterministic ordering is restored at the end: records are assembled
    from ``slots`` in unit order, bit-identical no matter who computed
    what when.
    """

    def __init__(self, units, config: RunnerConfig, journal, cache, progress):
        self.units = units
        self.config = config
        self.journal = journal
        self.cache = cache
        self.progress = progress
        self.counters = SweepCounters(
            units_total=len(units), workers=config.workers
        )
        self.result = SweepResult(
            counters=self.counters, journal_path=config.journal_path
        )
        self.slots: List[Optional[Tuple[str, object]]] = [None] * len(units)
        self.keys: List[Optional[str]] = [None] * len(units)
        self.cache_status: List[str] = ["off"] * len(units)
        # units whose resume-journal record did not decode
        self.rotten_resume: Set[int] = set()

    def finish(self, outcome: UnitOutcome) -> None:
        """Score one unit's final outcome: counters, cache, journal."""
        i = outcome.index
        unit = self.units[i]
        status = outcome.status
        entry = {
            "unit": i,
            "kind": unit.kind,
            "name": unit.spec.name,
            "wall_s": round(outcome.wall_s, 6),
            "worker": outcome.worker,
            "cache": self.cache_status[i],
            **unit_context(unit),
        }
        if self.keys[i] is not None:
            entry["key"] = self.keys[i]
        if i in self.rotten_resume:
            entry["resume"] = "corrupt"
        if outcome.attempts > 1 or outcome.history:
            entry["attempts"] = outcome.attempts
            entry["retry_history"] = list(outcome.history)
        if outcome.attempts > 1:
            self.counters.units_retried += 1
        self.counters.narration_flushes += outcome.narration_flushes
        if status == "failed":
            error, tb = outcome.payload
            self.counters.units_failed += 1
            if outcome.timed_out:
                self.counters.units_timeout += 1
            self.slots[i] = ("failed", None)
            self.result.failures.append(
                UnitFailure(
                    i,
                    unit.kind,
                    unit.spec.name,
                    error,
                    tb,
                    transient=outcome.transient,
                    attempts=outcome.attempts,
                    history=list(outcome.history),
                )
            )
            self.journal.write(status="failed", error=error, **entry)
            if not self.config.capture_errors:
                raise SweepError(
                    f"work unit {i} ({unit.kind}/{unit.spec.name}) "
                    f"failed: {error}\n{tb}"
                )
        elif status in ("hit", "resumed"):
            record = outcome.payload
            if status == "hit":
                self.counters.units_cached += 1
            else:
                self.counters.units_resumed += 1
            if record is None:
                self.counters.units_skipped += 1
            self.slots[i] = ("done", record)
            self.journal.write(
                status="cached" if status == "hit" else "resumed",
                record=record.to_dict() if record is not None else None,
                **_journal_cycles(record),
                **entry,
            )
        else:  # computed
            record = outcome.payload
            if self.cache is not None:
                self.cache.put(
                    self.keys[i],
                    record.to_dict() if record is not None else None,
                    context=unit_context(unit),
                )
            self.slots[i] = ("done", record)
            if record is None:
                self.counters.units_skipped += 1
                self.journal.write(status="skipped", **entry)
            else:
                self.counters.units_ok += 1
                self.journal.write(
                    status="ok",
                    record=record.to_dict(),
                    **_journal_cycles(record),
                    **entry,
                )
        if self.progress is not None:
            self.progress(unit.spec.name)

    def assemble(self) -> SweepResult:
        """Collect records in unit order from whatever slots completed."""
        self.result.unit_records = [
            slot[1] if slot is not None and slot[0] == "done" else None
            for slot in self.slots
        ]
        self.result.records = [
            r for r in self.result.unit_records if r is not None
        ]
        return self.result


class _SignalFlag:
    """Latches the first SIGINT/SIGTERM so the dispatch loop can stop
    cleanly; restores the previous handlers on exit.  Outside the main
    thread (where handlers cannot be installed) it degrades to a no-op
    flag."""

    def __init__(self):
        self.signum: Optional[int] = None
        self._previous: Dict[int, object] = {}

    def __enter__(self) -> "_SignalFlag":
        if threading.current_thread() is threading.main_thread():
            for sig in (signal_mod.SIGINT, signal_mod.SIGTERM):
                try:
                    self._previous[sig] = signal_mod.signal(sig, self._handle)
                except (ValueError, OSError):  # pragma: no cover
                    pass
        return self

    def __exit__(self, *exc_info) -> None:
        for sig, handler in self._previous.items():
            try:
                signal_mod.signal(sig, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
        self._previous = {}

    def _handle(self, signum, frame) -> None:
        self.signum = signum

    @property
    def set(self) -> bool:
        return self.signum is not None


def run_units(
    units: Sequence[WorkUnit],
    config: Optional[RunnerConfig] = None,
    *,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Execute ``units`` under ``config`` and return ordered results.

    Records come back in unit order no matter how many workers computed
    them, so ``workers=N`` is bit-identical to ``workers=1``.  With a cache
    configured, known-good entries are served without recomputation; with
    ``resume=`` set, units already completed in the named journal are
    served from it; with ``capture_errors`` on, a failing unit becomes a
    :class:`UnitFailure` and the sweep completes.  A unit that exceeds
    ``timeout_s`` or loses its worker is retried up to ``retries`` times
    with exponential backoff before being scored a *transient* failure.

    SIGINT/SIGTERM do not lose the run: every completed unit is already
    flushed to the journal, and :class:`~repro.errors.SweepInterrupted`
    carries the partial :class:`SweepResult`.
    """
    config = config or RunnerConfig()
    units = list(units)
    if any(u.validate for u in units):
        # validated runs dogfood the VIA101 cache-key hygiene rule against
        # the *live* dataclasses: an editable install whose config classes
        # drifted from their key builders fails here, at sweep startup,
        # instead of silently serving poisoned cache entries
        from repro.analysis.keys import assert_key_hygiene

        assert_key_hygiene()
    journal = _Journal(config.journal_path)
    cache = ResultCache(config.cache_dir) if config.caching else None
    need_keys = (
        cache is not None
        or config.journal_path is not None
        or config.resume is not None
    )
    version = code_version() if need_keys else ""
    resume_map = (
        _load_resume_map(config.resume) if config.resume is not None else {}
    )
    state = _SweepState(units, config, journal, cache, progress)
    counters = state.counters
    run_start = time.perf_counter()
    my_pid = os.getpid()
    pending: List[Tuple[int, WorkUnit]] = []

    def _local(index: int, status: str, payload, wall_s: float) -> None:
        state.finish(
            UnitOutcome(
                index=index,
                status=status,
                payload=payload,
                wall_s=wall_s,
                worker=my_pid,
            )
        )

    try:
        with _SignalFlag() as flag:
            for i, unit in enumerate(units):
                lookup_start = time.perf_counter()
                if need_keys:
                    state.keys[i] = unit_cache_key(unit, version)
                if cache is not None:
                    state.cache_status[i] = "miss"
                if state.keys[i] is not None and state.keys[i] in resume_map:
                    payload = resume_map[state.keys[i]].get("record")
                    try:
                        record = (
                            SweepRecord.from_dict(payload)
                            if payload is not None
                            else None
                        )
                    except (KeyError, TypeError, ValueError):
                        # journal lines are unsigned: a record that does not
                        # decode falls through to the cache, or recomputes
                        state.rotten_resume.add(i)
                        counters.units_corrupt += 1
                    else:
                        state.cache_status[i] = "resume"
                        _local(i, "resumed", record,
                               time.perf_counter() - lookup_start)
                        continue
                if cache is None:
                    pending.append((i, unit))
                    continue
                payload, cache_status = cache.get(state.keys[i])
                record = None
                if cache_status == "hit" and payload is not None:
                    try:
                        record = SweepRecord.from_dict(payload)
                    except (KeyError, TypeError, ValueError):
                        # checksummed, but no record: rot like any other
                        cache.invalidate(state.keys[i])
                        cache_status = "corrupt"
                if cache_status == "hit":
                    counters.cache_hits += 1
                    state.cache_status[i] = "hit"
                    _local(i, "hit", record, time.perf_counter() - lookup_start)
                else:
                    counters.cache_misses += 1
                    if cache_status == "corrupt":
                        counters.cache_corrupt += 1
                        if i not in state.rotten_resume:
                            counters.units_corrupt += 1
                        state.cache_status[i] = "corrupt"
                    pending.append((i, unit))

            if pending and config.supervised and not flag.set:
                # return value (stopped-early?) is implied by flag.set below
                run_supervised(
                    pending,
                    _pool_context(),
                    workers=config.workers,
                    timeout_s=config.timeout_s,
                    retries=config.retries,
                    backoff_s=config.backoff_s,
                    on_outcome=state.finish,
                    should_stop=lambda: flag.set,
                    counters=counters,
                )
            else:
                for index, unit in pending:
                    if flag.set:
                        break
                    _, status, payload, wall_s, pid, flushes = execute_unit(
                        (index, unit)
                    )
                    state.finish(
                        UnitOutcome(
                            index=index,
                            status=status,
                            payload=payload,
                            wall_s=wall_s,
                            worker=pid,
                            narration_flushes=flushes,
                        )
                    )

            if flag.set:
                counters.wall_seconds = time.perf_counter() - run_start
                journal.close()
                sig_name = {
                    signal_mod.SIGINT: "SIGINT",
                    signal_mod.SIGTERM: "SIGTERM",
                }.get(flag.signum, str(flag.signum))
                raise SweepInterrupted(
                    f"sweep interrupted by {sig_name} after "
                    f"{counters.units_ok + counters.units_cached + counters.units_resumed}"
                    f"/{counters.units_total} units; completed work is "
                    "flushed to the journal — rerun with resume= to continue",
                    result=state.assemble(),
                    signum=flag.signum,
                )
    finally:
        counters.wall_seconds = time.perf_counter() - run_start
        journal.close()
    return state.assemble()


# ----------------------------------------------------------------------
# CLI — demo sweeps and cache management


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    from repro.eval.units import spma_units, spmm_units, spmv_units
    from repro.matrices.collection import MatrixCollection

    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
        return value

    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Run a demo evaluation sweep through the supervised "
        "parallel cached runner.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {repro.__version__}")
    parser.add_argument("--kernel", choices=("spmv", "spma", "spmm"),
                        default="spmv")
    parser.add_argument("--count", type=positive_int, default=8,
                        help="matrices in the seeded demo collection")
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--max-n", type=int, default=512,
                        help="largest matrix dimension")
    parser.add_argument("--workers", type=positive_int,
                        default=RunnerConfig.workers)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--no-cache", action="store_true",
                        help="escape hatch: ignore --cache-dir")
    parser.add_argument("--invalidate-cache", action="store_true",
                        help="wipe the cache directory before running")
    parser.add_argument("--journal", default=None,
                        help="JSONL run-journal path")
    parser.add_argument("--resume", default=None, metavar="JOURNAL",
                        help="serve units already completed in this prior "
                        "run journal; only the rest recompute")
    parser.add_argument("--timeout", type=float,
                        default=RunnerConfig.timeout_s,
                        help="per-unit wall-clock timeout in seconds")
    parser.add_argument("--retries", type=int, default=RunnerConfig.retries,
                        help="extra attempts for transient failures "
                        "(worker death, timeout)")
    parser.add_argument("--backoff", type=float,
                        default=RunnerConfig.backoff_s,
                        help="base seconds for exponential retry backoff")
    parser.add_argument("--validate", action="store_true",
                        help="run the op-stream invariant checks "
                        "(InvariantBackend) on every unit")
    args = parser.parse_args(argv)

    journal = args.journal
    if journal is None and args.resume is not None:
        journal = args.resume  # keep extending the journal we resume from
    config = RunnerConfig(
        workers=args.workers,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        journal_path=journal,
        timeout_s=args.timeout,
        retries=args.retries,
        backoff_s=args.backoff,
        resume=args.resume,
    )
    if args.invalidate_cache and args.cache_dir:
        dropped = ResultCache(args.cache_dir).invalidate()
        print(f"invalidated {dropped} cache entr{'y' if dropped == 1 else 'ies'}")

    collection = MatrixCollection(
        args.count, seed=args.seed, min_n=64, max_n=args.max_n
    )
    builders = {
        "spmv": lambda: spmv_units(collection, formats=("csr", "csb"),
                                   validate=args.validate),
        "spma": lambda: spma_units(collection, validate=args.validate),
        "spmm": lambda: spmm_units(collection, max_n=args.max_n,
                                   validate=args.validate),
    }
    try:
        result = run_units(builders[args.kernel](), config)
    except SweepInterrupted as exc:
        print(exc)
        return 130

    print(result.counters.summary())
    for failure in result.failures:
        print(f"  FAILED {failure.kind}/{failure.name}: {failure.error}")
        for line in failure.history:
            print(f"    {line}")
    if result.records:
        fmts = sorted(result.records[0].speedup)
        for fmt in fmts:
            mean = geomean(
                r.speedup[fmt] for r in result.records if fmt in r.speedup
            )
            print(f"  {args.kernel}/{fmt}: geomean speedup {mean:.2f}x "
                  f"over {len(result.records)} matrices")
    if config.journal_path:
        print(f"  journal: {config.journal_path}")
    return 1 if result.failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
