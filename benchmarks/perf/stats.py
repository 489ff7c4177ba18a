"""Order statistics shared by the benchmark, its tracer and compare.py.

One rule for tails everywhere: a timing is reported as its median plus
the highest of :data:`PERCENTILES` that still has at least
:data:`MIN_BEYOND` samples beyond it, so no tail number rests on a
handful of observations.
"""

import math
import statistics
from typing import Dict, List, Sequence, Tuple

PERCENTILES = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10
#: What :func:`finite` reports for an infinite value.
INFINITE_AS = 1e9


def tail_percentile(n: int) -> float:
    """The highest supported percentile for ``n`` samples.

    A percentile ``p`` is supported when ``n * (1 - p/100)`` samples lie
    beyond it.  Below 20 samples not even the median qualifies; the
    median is returned then, so a tail is never reported from beyond
    the data.
    """
    supported = [p for p in PERCENTILES
                 if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9]
    return supported[-1] if supported else 50.0


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile ``p`` (0-100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    if frac == 0.0 or ordered[high] == ordered[low]:  # also inf == inf
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * frac


def timing_summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, supported tail percentile and its value, sample count."""
    n = len(values)
    if n == 0:
        return {"n": 0, "p50": 0.0, "tail_p": 50.0, "tail": 0.0}
    tail_p = tail_percentile(n)
    return {"n": n, "p50": percentile(values, 50.0), "tail_p": tail_p,
            "tail": percentile(values, tail_p)}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def finite(value: float) -> float:
    """JSON-safe number: a miss recorded as infinity reads as
    :data:`INFINITE_AS`."""
    return value if math.isfinite(value) else INFINITE_AS


def self_time(start: float, end: float,
              children: List[Tuple[float, float]]) -> float:
    """A span's duration minus the part its child spans cover.

    Children may nest, overlap each other (threads, concurrent tasks)
    or run past the parent's end; only the union of their intervals
    inside ``[start, end]`` is subtracted.
    """
    covered, reach = 0.0, start
    for s, e in sorted((max(s, start), min(e, end)) for s, e in children
                       if e > start and s < end):
        if e > reach:
            covered += e - max(s, reach)
            reach = e
    return (end - start) - covered
