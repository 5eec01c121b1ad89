"""Exception hierarchy for the VIA reproduction library.

Every error raised deliberately by the library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors such as ``TypeError``.
"""

from __future__ import annotations

from typing import Any, Optional


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class FormatError(ReproError):
    """A sparse-matrix format invariant was violated.

    Raised when constructing or converting a compressed representation with
    inconsistent arrays (e.g. a CSR ``row_ptr`` that is not monotonically
    non-decreasing, or column indices out of range).
    """


class ShapeError(FormatError):
    """Operands of a kernel have incompatible shapes."""


class ConfigError(ReproError):
    """A machine or VIA hardware configuration is invalid."""


class SSPMError(ReproError):
    """An SSPM operation violated the scratchpad's operating rules.

    Examples: direct-mapped index out of range, CAM index-table overflow,
    or using a CAM-only operation while in direct-mapped mode.
    """


class SSPMCapacityError(SSPMError):
    """The CAM index table ran out of free entries during insertion.

    Software is expected to size its working set (e.g. a CSB block or a
    sparse row) to fit the SSPM; overflowing is a programming error in the
    kernel, exactly as it would be on the real hardware.
    """


class ISAError(ReproError):
    """Malformed VIA instruction: bad opcode, operand count or operand kind."""


class SweepError(ReproError):
    """The sweep-execution layer failed.

    Covers runner misconfiguration (bad worker/timeout/retry values), an
    unwritable run journal, an unreadable resume journal, and — in strict
    ``capture_errors=False`` mode — the first work-unit failure.
    """


class SweepInterrupted(SweepError):
    """A sweep was stopped by SIGINT/SIGTERM before finishing.

    The runner flushes every completed unit to the journal *before* raising
    this, so a subsequent ``resume=`` run skips the finished work.  The
    partial :class:`~repro.eval.runner.SweepResult` is attached as
    ``result`` (``None`` only if interruption hit before any bookkeeping
    existed) together with the delivering ``signum``.
    """

    def __init__(
        self, message: str, *, result: Any = None, signum: Optional[int] = None
    ) -> None:
        super().__init__(message)
        self.result = result
        self.signum = signum


class ServeError(ReproError):
    """The serving layer (:mod:`repro.serve`) rejected or failed a request.

    Every serve-layer failure carries a stable machine-readable ``code``
    (e.g. ``bad_request``, ``queue_full``, ``draining``, ``timeout``,
    ``cancelled``) and, when the condition is transient, a
    ``retry_after_s`` hint — the wire protocol serializes both, so a
    client always receives a structured error payload instead of a
    dropped connection.
    """

    def __init__(
        self,
        message: str,
        *,
        code: str = "internal",
        retry_after_s: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.retry_after_s = retry_after_s


class AdmissionError(ServeError):
    """A request was shed at admission: the queue is full or the service
    is draining.  Always transient from the client's perspective — the
    attached ``retry_after_s`` (``None`` while draining: the server is
    going away) says when to try again.
    """


class JobCancelled(ServeError):
    """A queued job was cancelled — by an explicit ``cancel`` request or
    because the service drained before the job was dispatched."""

    def __init__(self, message: str, *, code: str = "cancelled") -> None:
        super().__init__(message, code=code)


class SimulationError(ReproError):
    """The machine model was driven into an inconsistent state."""


class InvariantError(SimulationError):
    """A runtime invariant of the cycle model was violated.

    Raised by :class:`~repro.sim.backends.InvariantBackend` when pricing a
    narration flush breaks one of the model's conservation laws (cache
    hit/miss totals, monotone non-negative counters, SSPM occupancy bounds,
    finite cycle components), and by validating replays.
    """


class RecordingError(SimulationError):
    """A recorded op-stream artifact is unreadable, corrupt, or was written
    by an incompatible IR schema version.

    Cache layers treat this as a miss: the artifact is discarded and the
    kernel is re-recorded.
    """


class ReplayMismatchError(SimulationError):
    """A replay target configuration is stream-shape incompatible with the
    recording — it would have produced a *different* op stream (different
    vector length, L1 latency, or SSPM capacity), so re-pricing the
    recorded one would be silently wrong.
    """


class ModelError(ReproError):
    """The learned cost model could not be trained, stored, or loaded.

    Raised for empty or degenerate training datasets, malformed model
    artifacts (bad schema version, checksum or key mismatch — corrupt
    artifacts are *rejected*, never silently served), and prediction
    requests whose feature set does not match the trained model.
    """
