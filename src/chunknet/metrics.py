"""Human-model comparison metrics and their significance arithmetic.

A prediction (human or model) is an ordered pair of category labels: the top
choice and an optional second choice. Five progressively less stringent
binary metrics compare two predictions:

identical        ordered equality of the pairs
both_match       set equality, order disregarded
tops_match       the two top choices agree
one_matches_top  the human's top choice appears anywhere in the model pair
single_match     the pairs share at least one label

An absent second choice never matches a present one. The chain
identical <= both_match <= single_match and
identical <= tops_match <= one_matches_top <= single_match holds for every
scored pair. A score row is a tuple of five 0/1 values, one per metric in
``METRIC_NAMES`` order.

Significance of a metric total k over n comparisons uses the exact binomial
tail P(at least k successes) at the metric's chance probability, against a
Bonferroni-adjusted threshold: 0.05 split over the five metrics. Chance
probabilities are exact match counts, in closed form, over the outcomes of a
random-prediction model (independent uniform choice per slot by default;
uniform over ordered distinct pairs as an alternative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile
from typing import NamedTuple


METRIC_NAMES = ("identical", "both_match", "tops_match",
                "one_matches_top", "single_match")


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class PredictionPair:
    top: str
    second: str | None = None

    def __post_init__(self):
        if self.second is not None and self.second == self.top:
            raise MetricsError("second choice must differ from the top choice")

    @property
    def label_set(self) -> frozenset[str]:
        if self.second is None:
            return frozenset((self.top,))
        return frozenset((self.top, self.second))


class MetricRow(NamedTuple):
    identical: int
    both_match: int
    tops_match: int
    one_matches_top: int
    single_match: int


def score_pair(human: PredictionPair, model: PredictionPair) -> MetricRow:
    return MetricRow(
        identical=int(human.top == model.top
                      and human.second == model.second),
        both_match=int(human.label_set == model.label_set),
        tops_match=int(human.top == model.top),
        one_matches_top=int(human.top in model.label_set),
        single_match=int(bool(human.label_set & model.label_set)),
    )


# -- binomial significance ---------------------------------------------------

def _log_pmf(n: int, i: int, log_p: float, log_q: float) -> float:
    log_comb = (math.lgamma(n + 1) - math.lgamma(i + 1)
                - math.lgamma(n - i + 1))
    return log_comb + i * log_p + (n - i) * log_q


def binomial_at_least(n: int, k: int, p: float) -> float:
    """Exact upper-tail binomial probability, summed stably in log space.
    The pmf falls away from its mode. From ``k`` at or above the mode the
    sum runs up to ``n``; below the mode the tail is one minus the lower
    tail, summed from ``k - 1`` down to 0. Either way it stops at the first
    term that underflows to 0.0, so the cost does not grow with ``n``, and
    far from the mode the terms that carry ``lgamma``'s rounding are the
    small ones."""
    if not 0.0 <= p <= 1.0:
        raise MetricsError(f"probability out of range: {p}")
    if not 0 <= k <= n:
        raise MetricsError(f"need 0 <= k <= n, got k={k} n={n}")
    if k == 0:
        return 1.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    log_p = math.log(p)
    log_q = math.log1p(-p)

    def terms(indices):
        return takewhile(bool, (math.exp(_log_pmf(n, i, log_p, log_q))
                                for i in indices))
    if k < min(n, math.floor((n + 1) * p)):
        return 1.0 - math.fsum(terms(range(k - 1, -1, -1)))
    return min(1.0, math.fsum(terms(range(k, n + 1))))


# Significant tails fall below it: Bonferroni's 0.05 split over the metrics.
SIGNIFICANCE_THRESHOLD = 0.05 / len(METRIC_NAMES)


# -- chance model -------------------------------------------------------------

def chance_probability(metric: str, label_count: int,
                       rule: str = "independent_uniform") -> Fraction:
    """Exact per-trial match probability of a metric for a random model
    prediction against a fixed two-label human prediction (a, b).

    Under ``independent_uniform`` top and second are drawn independently
    from L labels, and a doubled draw collapses to a top-only prediction:
    L² outcomes. Under ``distinct_pairs`` the model names two different
    labels: L(L-1) outcomes. Either way one outcome is (a, b) itself and two
    hold the set {a, b}; a ``single_match`` misses only when both draws
    avoid a and b.
    """
    if metric not in METRIC_NAMES:
        raise MetricsError(f"unknown metric {metric!r}")
    if label_count < 2:
        raise MetricsError("need at least two labels")
    n = label_count
    if rule == "independent_uniform":
        outcomes, tops, misses = n * n, n, (n - 2) ** 2
        one_top = 2 * n - 1         # top a, or second a after another top
    elif rule == "distinct_pairs":
        outcomes, tops, misses = n * (n - 1), n - 1, (n - 2) * (n - 3)
        one_top = 2 * (n - 1)
    else:
        raise MetricsError(f"unknown enumeration rule {rule!r}")
    hits = {"identical": 1, "both_match": 2, "tops_match": tops,
            "one_matches_top": one_top, "single_match": outcomes - misses}
    return Fraction(hits[metric], outcomes)


@dataclass
class SignificanceLine:
    metric: str
    k: int
    n: int
    chance_p: Fraction
    tail_probability: float
    threshold: float
    significant: bool


def significance_report(totals: dict[str, int], n: int, label_count: int,
                        rule: str = "independent_uniform") -> list[SignificanceLine]:
    """Per-metric exact binomial tail against the Bonferroni threshold."""
    lines = []
    for metric in METRIC_NAMES:
        k = totals[metric]
        p = chance_probability(metric, label_count, rule)
        tail = binomial_at_least(n, k, float(p))
        lines.append(SignificanceLine(
            metric=metric, k=k, n=n, chance_p=p, tail_probability=tail,
            threshold=SIGNIFICANCE_THRESHOLD,
            significant=tail < SIGNIFICANCE_THRESHOLD))
    return lines


def sum_rows(rows: list[MetricRow]) -> dict[str, int]:
    return {name: sum(row[i] for row in rows)
            for i, name in enumerate(METRIC_NAMES)}
