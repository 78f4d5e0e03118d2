"""Machine-speed reference for the end-to-end timings.

On a shared machine the same code can run up to 1.7x slower. A slow
stretch lasts from a fraction of a second to tens of seconds, so a run's
raw timings move with the machine, not with the program. Each timed
interval is therefore bracketed by a few runs of a fixed pure-Python
kernel, and its duration is reported at reference speed: scaled by
``REF_MS`` over the median kernel time around it.

The kernel uses no numpy, so it can run before ``import qms`` is timed.
"""

import statistics
import time

# Kernel time, in ms, that defines the reference speed: about what the
# kernel takes on an unloaded 2-core x86-64 VM, so reported times read as
# that machine's milliseconds.
REF_MS = 0.3
BRACKET = 3


def kernel() -> float:
    acc = 0.0
    table = {}
    for i in range(2500):
        acc += (i % 7) * 0.5
        table[i & 63] = acc
    return acc + len(table)


def probe(n: int = BRACKET) -> list:
    """Durations in seconds of ``n`` kernel runs."""
    out = []
    for _ in range(n):
        start = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - start)
    return out


def scale(samples) -> float:
    """Factor that takes a duration measured among ``samples`` to reference speed."""
    return REF_MS / (1000.0 * statistics.median(samples))
