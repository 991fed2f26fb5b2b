"""Order statistics shared by run.py and compare.py."""

from __future__ import annotations

import statistics


def median(values) -> float:
    return statistics.median(values)


def percentile(values, p: int) -> float:
    """The p-th percentile, interpolating linearly between order statistics."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def quartiles(values) -> tuple[float, float]:
    """First and third quartile, as `statistics.quantiles(values, n=4)` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0
