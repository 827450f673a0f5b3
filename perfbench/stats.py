"""Summary statistics the benchmark reports."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence

#: Tail percentiles considered, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


def tail_percentile(n: int) -> Optional[float]:
    """The highest percentile with at least ten of ``n`` samples beyond it,
    or ``None`` when even the 90th has fewer."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            return p
    return None


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile by linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartiles(values: Sequence[float]) -> tuple:
    """First quartile, median, third quartile (as
    ``statistics.quantiles(values, n=4)``; one value is its own quartiles)."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def describe(values: Sequence[float]) -> str:
    """``median (q1 .. q3), n runs[, pXX]`` for a human reader."""
    q1, q2, q3 = quartiles(values)
    text = f"median {q2:.4f} (q1 {q1:.4f} .. q3 {q3:.4f}), {len(values)} runs"
    p = tail_percentile(len(values))
    if p is None:
        fewest = round(TAIL_MIN_BEYOND * 100 / (100 - TAIL_PERCENTILES[-1]))
        return text + f"; no tail percentile below {fewest} runs"
    return text + f"; p{p:g} {percentile(values, p):.4f}"
