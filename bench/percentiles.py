"""Summary statistics with the sample-count rule the benchmark reports by."""

from __future__ import annotations

import math

# A percentile is reported only when at least this many samples lie above it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    pass


def min_samples(q: float) -> int:
    """Smallest sample count that leaves MIN_BEYOND samples above the q-th
    percentile."""
    n = MIN_BEYOND
    while n - math.ceil(q / 100 * n) < MIN_BEYOND:
        n += 1
    return n


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile; refused when fewer than MIN_BEYOND
    samples lie beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    rank = math.ceil(q / 100 * n)
    if n == 0 or n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples leaves {max(n - rank, 0)} beyond it; "
            f"need {MIN_BEYOND} ({min_samples(q)} samples)")
    return ordered[max(rank, 1) - 1]

