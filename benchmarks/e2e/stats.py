"""Order statistics the harness reports: percentiles, medians, spreads."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample.

    Nearest rank returns a value that was actually observed, so a p90
    over 180 latencies is the 162nd smallest — 18 samples lie beyond it.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Iterable[float]) -> float:
    return statistics.median(values)


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median.

    The same arithmetic the acceptance check applies to ten runs:
    ``statistics.quantiles(values, n=4)`` gives the quartiles.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``.

    Positive means worse; ``better`` is ``"lower"`` or ``"higher"``.
    """
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def pass_spread(values: Sequence[float]) -> float:
    """(max - min) / median over the timed passes of one run: how much
    of the run was disturbed."""
    mid = median(values)
    return (max(values) - min(values)) / mid if mid else 0.0


def gaps(times: List[float]) -> List[float]:
    """Differences between consecutive timestamps."""
    return [b - a for a, b in zip(times, times[1:])]
