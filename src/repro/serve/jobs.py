"""Typed job specs for the simulation service, plus structured errors.

A :class:`JobSpec` is the validated, immutable description of one client
request; a :class:`Job` is its runtime envelope (id, state, timestamps,
result or error payload).  Five kinds:

* ``simulate`` — run a kernel×collection workload directly (the naive
  per-request path: every request pays full simulation cost);
* ``replay`` — the same workload routed through the op-stream
  record/replay store: the first request for a stream-shape group records,
  every compatible request re-prices the recording (pure arithmetic);
* ``sweep`` — a multi-configuration port sweep expanded server-side into
  replay units, so one recording serves all configurations of the batch;
* ``report`` — cheap text artifacts (Table I / Table II), a fast request
  type for health probes and mixed workloads;
* ``sleep`` — a diagnostic kind that holds a pool worker for
  ``duration_s``; used by load tests to fill the admission queue
  deterministically;
* ``estimate`` — a simulate-shaped workload priced by the learned cost
  model (:mod:`repro.model`) instead of simulated: the scheduler answers
  synchronously at admission, in microseconds, without ever touching the
  worker pool.

Batching: :meth:`JobSpec.batch_key` hashes exactly what must match for two
requests to share one scheduler batch.  For ``replay``/``sweep`` kinds the
key deliberately *excludes* SSPM ports — mirroring
:func:`repro.eval.recordings.recording_key`, where ports are a
pure-pricing knob — so an entire port sweep collapses onto one recording.

Errors: :func:`error_payload` maps any exception the service can raise —
admission shedding, cancellation, deadlines, timeouts, and the eval
layer's :class:`~repro.errors.SweepError` / ``SweepInterrupted`` — to the
wire-format ``{"code", "reason", "retry_after_s"}`` payload, so a shed or
cancelled request is always a structured response, never a dropped
connection.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import (
    AdmissionError,
    ConfigError,
    FormatError,
    JobCancelled,
    ReproError,
    ServeError,
    SweepError,
    SweepInterrupted,
)
from repro.storage import digest

JOB_KINDS = ("simulate", "replay", "sweep", "report", "sleep", "estimate")
#: kinds that describe a kernel×collection workload (shared validation)
SIM_FAMILY = ("simulate", "replay", "sweep", "estimate")
KERNELS = ("spmv", "spma", "spmm")
SPMV_FORMATS = ("csr", "csb", "spc5", "sellcs")

#: fields deliberately outside :meth:`JobSpec.batch_key`, checked by the
#: VIA101 cache-key hygiene rule (``python -m repro.analysis``)
KEY_EXEMPT = {
    "JobSpec": {
        "port_sweep": "sweep jobs re-price one recording per port; the "
        "variants are what the batch shares, not what splits it",
        "duration_s": "sleep-job knob; sleep batches are keyed by family "
        "only and never share results",
        "priority": "scheduling order, not work identity",
        "deadline_s": "per-request admission bound; does not change results",
        "timeout_s": "per-request execution bound; does not change results",
    },
}

#: hard ceilings on workload size — a service must bound what one request
#: can cost, independent of queue limits
MAX_COUNT = 64
MAX_N = 4096
MAX_SWEEP_CONFIGS = 16
MAX_SLEEP_S = 300.0


class JobState(str, Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: states a job never leaves
TERMINAL_STATES = (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


def _bad_request(reason: str) -> ServeError:
    return ServeError(reason, code="bad_request")


@dataclass(frozen=True)
class JobSpec:
    """One validated request: what to run, how urgent, how long it may take.

    ``priority`` orders dispatch (higher first) within the admission
    queue; ``deadline_s`` bounds total sojourn time — a job still queued
    past its deadline is failed with ``deadline_exceeded`` instead of
    executing stale work; ``timeout_s`` bounds execution time alone.
    """

    kind: str
    kernel: str = "spmv"
    count: int = 1
    seed: int = 2021
    min_n: int = 64
    max_n: int = 192
    formats: Tuple[str, ...] = ("csr",)
    sram_kb: int = 16
    ports: int = 2
    port_sweep: Tuple[int, ...] = ()
    duration_s: float = 0.1
    priority: int = 0
    deadline_s: Optional[float] = None
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise _bad_request(
                f"unknown job kind {self.kind!r}; expected one of {JOB_KINDS}"
            )
        if self.kind in SIM_FAMILY:
            if self.kernel not in KERNELS:
                raise _bad_request(
                    f"unknown kernel {self.kernel!r}; expected one of {KERNELS}"
                )
            if not (1 <= self.count <= MAX_COUNT):
                raise _bad_request(
                    f"count must be in [1, {MAX_COUNT}], got {self.count}"
                )
            if not (16 <= self.min_n <= self.max_n <= MAX_N):
                raise _bad_request(
                    f"need 16 <= min_n <= max_n <= {MAX_N}, got "
                    f"min_n={self.min_n} max_n={self.max_n}"
                )
            if self.kernel == "spmv":
                bad = [f for f in self.formats if f not in SPMV_FORMATS]
                if bad or not self.formats:
                    raise _bad_request(
                        f"spmv formats must be a non-empty subset of "
                        f"{SPMV_FORMATS}, got {self.formats!r}"
                    )
            if self.sram_kb <= 0 or self.ports <= 0:
                raise _bad_request(
                    f"sram_kb and ports must be positive, got "
                    f"sram_kb={self.sram_kb} ports={self.ports}"
                )
        if self.kind == "sweep":
            if not self.port_sweep:
                raise _bad_request("sweep jobs need a non-empty port_sweep")
            if len(self.port_sweep) > MAX_SWEEP_CONFIGS:
                raise _bad_request(
                    f"port_sweep is capped at {MAX_SWEEP_CONFIGS} "
                    f"configurations, got {len(self.port_sweep)}"
                )
            if any(p <= 0 for p in self.port_sweep):
                raise _bad_request(
                    f"port_sweep entries must be positive, got {self.port_sweep}"
                )
        if self.kind == "sleep" and not (0 <= self.duration_s <= MAX_SLEEP_S):
            raise _bad_request(
                f"duration_s must be in [0, {MAX_SLEEP_S}], got {self.duration_s}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise _bad_request(
                f"deadline_s must be > 0, got {self.deadline_s}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise _bad_request(f"timeout_s must be > 0, got {self.timeout_s}")

    # ------------------------------------------------------------------
    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "JobSpec":
        """Build a spec from a decoded JSON request body, strictly.

        Unknown fields are rejected (a typo like ``prioritty`` must not
        silently run at default priority), tuple-typed fields accept
        lists, and every constraint violation surfaces as a
        ``bad_request`` :class:`~repro.errors.ServeError`.
        """
        if not isinstance(payload, dict):
            raise _bad_request(f"job spec must be an object, got {type(payload).__name__}")
        known = set(cls.__dataclass_fields__)
        unknown = set(payload) - known
        if unknown:
            raise _bad_request(
                f"unknown job spec field(s): {sorted(unknown)}; "
                f"known fields: {sorted(known)}"
            )
        if "kind" not in payload:
            raise _bad_request("job spec needs a 'kind' field")
        coerced = dict(payload)
        for key in ("formats", "port_sweep"):
            if key in coerced:
                value = coerced[key]
                if not isinstance(value, (list, tuple)):
                    raise _bad_request(f"{key} must be a list, got {value!r}")
                coerced[key] = tuple(value)
        try:
            return cls(**coerced)
        except TypeError as exc:  # wrong field type reaching the dataclass
            raise _bad_request(f"malformed job spec: {exc}") from exc

    def to_payload(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            out[name] = list(value) if isinstance(value, tuple) else value
        return out

    # ------------------------------------------------------------------
    def batch_key(self) -> str:
        """Requests with equal keys may execute as one scheduler batch.

        The key covers everything that shapes the *work*: kind family,
        kernel, collection parameters, formats, and SSPM capacity.  Ports
        are included for ``simulate`` (they change the direct run) but
        excluded for ``replay``/``sweep`` — port variants re-price one
        recording, which is precisely the batching win.
        """
        family = "replay" if self.kind in ("replay", "sweep") else self.kind
        payload: Dict[str, Any] = {
            "family": family,
            "kernel": self.kernel,
            "count": self.count,
            "seed": self.seed,
            "min_n": self.min_n,
            "max_n": self.max_n,
            "formats": list(self.formats),
            "sram_kb": self.sram_kb,
        }
        if self.kind in ("simulate", "estimate"):
            payload["ports"] = self.ports
        if self.kind in ("report", "sleep"):
            payload = {"family": self.kind}
        return digest(payload)[:16]

    def poison_key(self) -> str:
        """Identity of the *work* for the pool's poison circuit breaker.

        Two submissions with the same key run the same computation, so a
        worker crash caused by one predicts a crash for the other: the
        :class:`~repro.serve.pool.WorkerPool` counts crashes per key and
        quarantines the key after its threshold.  Scheduling knobs
        (``priority``, ``deadline_s``, ``timeout_s``) are excluded — they
        change *when* and *how long*, never *what* executes, and must not
        let a poison job dodge its quarantine by resubmitting with a
        different priority.
        """
        payload = self.to_payload()
        for name in ("priority", "deadline_s", "timeout_s"):
            payload.pop(name, None)
        return digest(payload)[:16]


_job_seq = itertools.count(1)


@dataclass
class Job:
    """Runtime envelope of one admitted request."""

    spec: JobSpec
    job_id: str = ""
    state: JobState = JobState.PENDING
    submitted_at: float = field(default_factory=time.monotonic)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, Any]] = None
    cancel_requested: bool = False
    #: set when a timed-out job's worker was SIGKILLed and its pool slot
    #: respawned: the attempt was reclaimed, not left running
    abandoned: bool = False
    batch_size: int = 0

    def __post_init__(self) -> None:
        if not self.job_id:
            self.job_id = f"job-{next(_job_seq):06d}"

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def deadline_exceeded(self, now: Optional[float] = None) -> bool:
        if self.spec.deadline_s is None:
            return False
        now = time.monotonic() if now is None else now
        return (now - self.submitted_at) > self.spec.deadline_s

    def queue_wait_s(self) -> float:
        start = self.started_at if self.started_at is not None else time.monotonic()
        return max(0.0, start - self.submitted_at)

    def to_payload(self) -> Dict[str, Any]:
        """Wire-format job status (the ``status``/``result`` responses)."""
        out: Dict[str, Any] = {
            "job_id": self.job_id,
            "state": self.state.value,
            "kind": self.spec.kind,
            "priority": self.spec.priority,
            "queue_wait_s": round(self.queue_wait_s(), 6),
        }
        if self.started_at is not None and self.finished_at is not None:
            out["service_s"] = round(self.finished_at - self.started_at, 6)
        if self.batch_size:
            out["batch_size"] = self.batch_size
        if self.result is not None:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error
        return out


# ----------------------------------------------------------------------
# structured error payloads


def error_payload(exc: BaseException) -> Dict[str, Any]:
    """Map an exception to the wire-format structured error.

    The mapping is the service-layer promotion of the eval layer's
    exception hierarchy: shedding and draining keep their admission codes
    and retry hints, a ``SweepInterrupted`` (the runner's SIGINT/SIGTERM
    flush) becomes a retryable ``interrupted``, a deterministic
    :class:`~repro.errors.SweepError` is permanent (no retry hint), and
    configuration errors surface as ``bad_request`` so clients fix the
    spec instead of retrying.
    """
    code = "internal"
    retry_after_s: Optional[float] = None
    if isinstance(exc, AdmissionError):
        code = exc.code
        retry_after_s = exc.retry_after_s
    elif isinstance(exc, JobCancelled):
        code = exc.code
    elif isinstance(exc, ServeError):
        code = exc.code
        retry_after_s = exc.retry_after_s
    elif isinstance(exc, SweepInterrupted):
        code = "interrupted"
        retry_after_s = 1.0
    elif isinstance(exc, SweepError):
        code = "sweep_error"
    elif isinstance(exc, (ConfigError, FormatError)):
        code = "bad_request"
    elif isinstance(exc, (TimeoutError, asyncio.TimeoutError)):
        # asyncio.TimeoutError is a plain-Exception subclass before 3.11
        code = "timeout"
        retry_after_s = 1.0
    elif isinstance(exc, ReproError):
        code = "repro_error"
    payload: Dict[str, Any] = {
        "code": code,
        "reason": str(exc) or type(exc).__name__,
    }
    if retry_after_s is not None:
        payload["retry_after_s"] = retry_after_s
    return payload


def expand_sweep(spec: JobSpec) -> List[JobSpec]:
    """A ``sweep`` job's per-configuration replay specs, in sweep order."""
    import dataclasses

    return [
        dataclasses.replace(spec, kind="replay", ports=p, port_sweep=())
        for p in spec.port_sweep
    ]
