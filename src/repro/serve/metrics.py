"""Live service metrics: counters, gauges, and latency histograms.

A deliberately small, stdlib-only observability layer for
:mod:`repro.serve` — the serving analogue of the sweep runner's
:class:`~repro.sim.stats.SweepCounters`.  Three instrument kinds:

* :class:`Counter` — monotone event totals (jobs submitted, shed, batches
  executed, replay hits);
* :class:`Gauge` — point-in-time levels (queue depth, jobs in flight);
* :class:`Histogram` — latency/size distributions over a bounded
  reservoir of the most recent observations, summarized as
  count/sum/min/max plus p50/p95/p99.

All instruments are thread-safe: the scheduler's executor threads observe
service latencies while the asyncio loop reads snapshots.  The registry
renders either a JSON-safe :meth:`MetricsRegistry.snapshot` (served by the
``metrics`` request) or a Prometheus-flavoured text dump
(:meth:`MetricsRegistry.render_text`) for humans and scrapers.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Tuple, Union

#: histograms keep the most recent N observations for percentile math;
#: count/sum/min/max remain exact over the full lifetime
DEFAULT_RESERVOIR = 4096

#: the quantiles every histogram summarizes
QUANTILES = (0.5, 0.95, 0.99)


class Counter:
    """Monotonically non-decreasing event count."""

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            # a negative inc() is a server-side bug; the catch-all
            # 'internal' wire code is exactly what it should surface as
            # via: ignore[VIA601] -- API-misuse guard, not a wire error
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """Point-in-time level; can move both ways."""

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: Union[int, float]) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: Union[int, float]) -> None:
        with self._lock:
            self._value += delta

    def inc(self, amount: Union[int, float] = 1) -> None:
        self.add(amount)

    def dec(self, amount: Union[int, float] = 1) -> None:
        self.add(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return float("nan")
    rank = min(len(sorted_values), max(1, math.ceil(q * len(sorted_values))))
    return sorted_values[rank - 1]


class Histogram:
    """Distribution summary over a bounded reservoir of observations.

    The reservoir holds the most recent ``max_samples`` values (a ring
    buffer), so percentiles reflect recent behaviour under long uptimes
    while ``count``/``sum``/``min``/``max`` stay exact for the lifetime.
    """

    def __init__(
        self, name: str, help: str = "", max_samples: int = DEFAULT_RESERVOIR
    ):
        if max_samples < 1:
            # via: ignore[VIA601] -- constructor guard, unreachable from a request
            raise ValueError("max_samples must be >= 1")
        self.name = name
        self.help = help
        self.max_samples = max_samples
        self._samples: List[float] = []
        self._next = 0  # ring-buffer write cursor once full
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: Union[int, float]) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)
            if len(self._samples) < self.max_samples:
                self._samples.append(value)
            else:
                self._samples[self._next] = value
                self._next = (self._next + 1) % self.max_samples

    def quantiles(self) -> Dict[float, float]:
        with self._lock:
            ordered = sorted(self._samples)
        return {q: percentile(ordered, q) for q in QUANTILES}

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            ordered = sorted(self._samples)
            count, total = self._count, self._sum
            lo, hi = self._min, self._max
        out: Dict[str, float] = {
            "count": count,
            "sum": total,
            "min": lo if count else float("nan"),
            "max": hi if count else float("nan"),
        }
        for q in QUANTILES:
            out[f"p{int(q * 100)}"] = percentile(ordered, q)
        return out

    @property
    def count(self) -> int:
        with self._lock:
            return self._count


class MetricsRegistry:
    """Named instruments plus snapshot/text rendering.

    ``counter``/``gauge``/``histogram`` are get-or-create and idempotent;
    asking for an existing name with a different instrument kind raises,
    because silently aliasing two meanings under one name is how metrics
    lie.
    """

    def __init__(self, prefix: str = "serve"):
        self.prefix = prefix
        self._metrics: Dict[str, Union[Counter, Gauge, Histogram]] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, kind, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    # two call sites disagreeing on a metric's kind is a
                    # server bug, so the 'internal' code is the honest one
                    # via: ignore[VIA601] -- registry-misuse guard
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, not {kind.__name__}"
                    )
                return existing
            metric = kind(name, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, help=help)

    def histogram(
        self, name: str, help: str = "", max_samples: int = DEFAULT_RESERVOIR
    ) -> Histogram:
        return self._get_or_create(
            name, Histogram, help=help, max_samples=max_samples
        )

    def _items(self) -> List[Tuple[str, Union[Counter, Gauge, Histogram]]]:
        with self._lock:
            return sorted(self._metrics.items())

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe dump of every instrument (served by ``metrics``)."""
        out: Dict[str, object] = {}
        for name, metric in self._items():
            if isinstance(metric, Histogram):
                out[name] = metric.snapshot()
            else:
                out[name] = metric.value
        return out

    def render_text(self) -> str:
        """Prometheus-flavoured text dump (one scrape-able page)."""
        lines: List[str] = []
        for name, metric in self._items():
            full = f"{self.prefix}_{name}"
            if metric.help:
                lines.append(f"# HELP {full} {metric.help}")
            if isinstance(metric, Counter):
                lines.append(f"# TYPE {full} counter")
                lines.append(f"{full} {metric.value:g}")
            elif isinstance(metric, Gauge):
                lines.append(f"# TYPE {full} gauge")
                lines.append(f"{full} {metric.value:g}")
            else:
                snap = metric.snapshot()
                lines.append(f"# TYPE {full} summary")
                for q in QUANTILES:
                    lines.append(
                        f'{full}{{quantile="{q}"}} {snap[f"p{int(q * 100)}"]:g}'
                    )
                lines.append(f"{full}_count {snap['count']:g}")
                lines.append(f"{full}_sum {snap['sum']:g}")
        return "\n".join(lines) + "\n"


def timed(histogram: Histogram):
    """Context manager observing a block's wall time into ``histogram``."""
    import contextlib
    import time

    @contextlib.contextmanager
    def _timer():
        start = time.perf_counter()
        try:
            yield
        finally:
            histogram.observe(time.perf_counter() - start)

    return _timer()
