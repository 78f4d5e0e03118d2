"""Latency summaries and failure accounting for the benchmark."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

# A tail percentile is reported only where at least this many samples lie
# beyond it, so that one slow op cannot set it on its own.
TAIL_BEYOND = 10


def tail(samples):
    """Value at the highest percentile with >= TAIL_BEYOND samples beyond it.

    Returns ``(value, percentile, n)``.  The value is the order statistic
    with exactly TAIL_BEYOND larger samples; its percentile is the share of
    samples at or below it.  With too few samples no such percentile
    exists, and the smallest sample is returned with the percentile it
    actually has.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of an empty sample")
    k = max(n - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / n, n


@dataclass
class OpLog:
    """Latencies and outcomes of the ops of one timed phase.

    An op fails if it raised, if a recipe refused it, or if its output
    failed the correctness gate; each failure keeps its reason.
    """

    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)

    def record(self, seconds: float, failure: str | None):
        self.attempted += 1
        self.latencies.append(seconds)
        if failure is not None:
            self.failed += 1
            self.reasons[failure] += 1

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    @property
    def ok_frac(self) -> float:
        return self.completed / self.attempted if self.attempted else 0.0
