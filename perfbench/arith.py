"""The benchmark's own arithmetic: percentiles, operation tallies, CPU shares.

Nothing here imports the program under test, so ``test_perfbench.py`` can
check every rule the report relies on in isolation.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence, Tuple

#: a percentile is reported only when at least this many samples lie beyond it
MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct``% at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie strictly above the nearest-rank ``pct``."""
    if count <= 0:
        return 0
    return count - max(1, math.ceil(pct / 100.0 * count))


def supports(count: int, pct: float) -> bool:
    """Whether ``count`` samples leave at least :data:`MIN_BEYOND` beyond ``pct``."""
    return samples_beyond(count, pct) >= MIN_BEYOND


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


# ----------------------------------------------------------------------
# operation accounting


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure.

    A failed, shed or lost operation counts as failed; so does one whose
    result digest does not match the expected one.
    """

    attempted: int = 0
    failed: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count

    def mismatch(self, reason: str, count: int = 1) -> None:
        """Re-score ``count`` already-attempted operations as failed."""
        self.failed += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count


def cpu_shares(before: Sequence[int], after: Sequence[int]) -> Tuple[float, float]:
    """``(busy share of all CPU time, steal share of busy time)`` between two
    ``/proc/stat`` ``cpu`` lines.

    Fields are user, nice, system, idle, iowait, irq, softirq, steal; busy
    time is everything except idle and iowait.
    """
    delta = [b - a for a, b in zip(before, after)][:8]
    if len(delta) < 8:
        raise ValueError("a /proc/stat cpu line has at least 8 fields")
    total = sum(delta)
    busy = total - delta[3] - delta[4]
    return (busy / total if total else 0.0, delta[7] / busy if busy else 0.0)
