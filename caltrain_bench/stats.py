"""Order statistics with the ten-samples-beyond rule.

A tail percentile is only as trustworthy as the samples beyond it: with
200 latencies, "p99" rests on two values. Every tail this benchmark
reports is therefore the highest percentile at or below the requested
one that has at least :data:`MIN_BEYOND` samples beyond it, and the
percentile actually used is printed next to the value with its sample
count. Medians are always medians.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def effective_percentile(requested: float, n: int) -> float:
    """The percentile (0-100) actually reported for ``n`` samples.

    The highest ``q <= requested`` with ``n * (1 - q/100) >= MIN_BEYOND``,
    never below the median: with too few samples for any tail, the tail
    degenerates to the median rather than to an extreme value.
    """
    if n <= 0:
        raise ValueError("no samples")
    if requested <= 50.0:
        return requested
    allowed = 100.0 * (1.0 - MIN_BEYOND / n)
    return max(50.0, min(requested, allowed))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values: Sequence[float], requested: float) -> Dict[str, float]:
    """``{"value", "percentile", "n"}`` under the ten-beyond rule."""
    q = effective_percentile(requested, len(values))
    return {"value": percentile(values, q), "percentile": q,
            "n": len(values)}


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of a run's samples (run record)."""
    if len(values) == 1:
        v = float(values[0])
        return {"median": v, "q1": v, "q3": v, "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}
