"""Execution tracing for the machine model.

Wrap a :class:`~repro.sim.core.Core` in a :class:`TracedCore` and every
operation the kernel narrates is recorded as a :class:`TraceEvent`.  The
trace answers "what did this kernel actually do" during model debugging
and powers the instruction-mix reports in tests and examples::

    core = TracedCore(Core(machine))
    ... run a kernel against `core` ...
    print(core.trace.mix())

Tracing rides the op-stream IR seam: the proxy installs a
:class:`~repro.sim.backends.TraceBackend` around the core's existing
backend, so every narrated op is logged, row by row as an
:class:`~repro.sim.ops.Op`, before being priced (or recorded) exactly as
it would have been untraced.  Tracing is opt-in (kernels accept a plain
``Core``) so sweeps pay nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.sim.backends import TraceBackend


@dataclass(frozen=True)
class TraceEvent:
    """One narrated operation."""

    kind: str
    detail: str
    count: int = 1


@dataclass
class Trace:
    """An append-only list of events with aggregation helpers."""

    events: List[TraceEvent] = field(default_factory=list)

    def add(self, kind: str, detail: str = "", count: int = 1) -> None:
        self.events.append(TraceEvent(kind, detail, int(count)))

    def __len__(self) -> int:
        return len(self.events)

    def mix(self) -> Dict[str, int]:
        """Operation counts by kind (the kernel's instruction mix)."""
        out: Dict[str, int] = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + ev.count
        return out

    def filter(self, kind: str) -> List[TraceEvent]:
        return [ev for ev in self.events if ev.kind == kind]

    def render(self, limit: Optional[int] = 40) -> str:
        """Human-readable listing (truncated to ``limit`` events)."""
        shown = self.events if limit is None else self.events[:limit]
        lines = [f"{ev.kind:14s} x{ev.count:<8d} {ev.detail}" for ev in shown]
        if limit is not None and len(self.events) > limit:
            lines.append(f"... {len(self.events) - limit} more events")
        return "\n".join(lines)


class TracedCore:
    """Transparent tracing proxy around a :class:`~repro.sim.core.Core`.

    Installs a :class:`~repro.sim.backends.TraceBackend` wrapping the
    core's current backend and forwards every attribute to the wrapped
    core.  Because kernels only ever call public ``Core`` methods — all of
    which narrate through the backend seam — the proxy is a drop-in
    replacement, and VIA-device calls into the core are traced too.
    """

    def __init__(self, core: Any):
        self._core = core
        self._trace = Trace()
        core.backend = TraceBackend(self._trace, inner=core.backend)

    @property
    def trace(self) -> Trace:
        """The events narrated so far.

        Narration reaches the backend in flushes; reading the trace drains
        the core's buffer first, so a read in the middle of a kernel sees
        every op narrated up to that point.
        """
        self._core._flush()
        return self._trace

    def __getattr__(self, name: str) -> Any:
        return getattr(self._core, name)
