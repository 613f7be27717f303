"""Comparison metrics, exact binomial significance, and the shipped
six-participant fixture."""

import csv
import math
import random
from fractions import Fraction
from importlib import resources

import pytest

from chunknet.attention import Classification
from chunknet.metrics import (METRIC_NAMES, BinomialQuery, MetricsError,
                              PredictionPair, binomial_at_least,
                              bonferroni, chance_probability, extract_pair,
                              score_pair, significance_report, sum_rows)


def pair(top, second=None):
    return PredictionPair(top, second)


class TestScorePair:
    def test_identical_pair_scores_all_five(self):
        row = score_pair(pair("Bach", "Beethoven"), pair("Bach", "Beethoven"))
        assert row.as_tuple() == (1, 1, 1, 1, 1)

    def test_swapped_pair_scores_both_match(self):
        row = score_pair(pair("Bach", "Mozart"), pair("Mozart", "Bach"))
        assert row.as_tuple() == (0, 1, 0, 1, 1)

    def test_disjoint_pairs_score_nothing(self):
        row = score_pair(pair("Bach", "Mozart"), pair("Haydn", "Schubert"))
        assert row.as_tuple() == (0, 0, 0, 0, 0)

    def test_absent_second_never_matches_a_present_one(self):
        row = score_pair(pair("Bach"), pair("Bach", "Mozart"))
        assert row.identical == 0
        assert row.both_match == 0
        assert row.tops_match == 1

    def test_two_identical_singletons(self):
        row = score_pair(pair("Bach"), pair("Bach"))
        assert row.as_tuple() == (1, 1, 1, 1, 1)

    def test_second_equal_to_top_rejected(self):
        with pytest.raises(MetricsError):
            pair("Bach", "Bach")

    def test_stringency_chain_property(self):
        labels = ["A", "B", "C", "D"]
        cases = [(t, s) for t in labels for s in labels + [None] if s != t]
        for h in cases:
            for m in cases:
                row = score_pair(pair(*h), pair(*m))
                assert row.identical <= row.both_match <= row.single_match
                assert row.identical <= row.tops_match <= \
                    row.one_matches_top <= row.single_match

    def test_symmetry_properties(self):
        rng = random.Random(41)
        labels = ["A", "B", "C", "D"]
        for _ in range(2000):
            def draw():
                t = rng.choice(labels)
                s = rng.choice([x for x in labels if x != t] + [None])
                return pair(t, s)
            h, m = draw(), draw()
            fwd, rev = score_pair(h, m), score_pair(m, h)
            assert fwd.both_match == rev.both_match
            assert fwd.single_match == rev.single_match
            assert fwd.identical == rev.identical
            assert fwd.tops_match == rev.tops_match
        # one_matches_top is directional
        assert score_pair(pair("A", "B"), pair("B", "C")).one_matches_top == 0
        assert score_pair(pair("B", "C"), pair("A", "B")).one_matches_top == 1


class TestExtractPair:
    def test_top_two_by_confidence(self):
        cls = Classification(entries=(("Mozart", 0.6), ("Beethoven", 0.3),
                                      ("Bach", 0.1)), no_activation=False)
        assert extract_pair(cls) == pair("Mozart", "Beethoven")

    def test_singleton_when_only_one_positive(self):
        cls = Classification(entries=(("X", 1.0),), no_activation=False)
        assert extract_pair(cls) == pair("X")
        cls2 = Classification(entries=(("X", 1.0), ("Y", 0.0)),
                              no_activation=False)
        assert extract_pair(cls2) == pair("X")

    def test_tie_keeps_the_classifier_order(self):
        cls = Classification(entries=(("T", 0.5), ("F", 0.5)),
                             no_activation=False)
        assert extract_pair(cls) == pair("T", "F")

    def test_no_activation_is_an_error(self):
        with pytest.raises(MetricsError):
            extract_pair(Classification(entries=(), no_activation=True))


def binomial_at_least_exact(n, k, p):
    """Reference for ``binomial_at_least``: the same tail summed in exact
    rational arithmetic."""
    q = 1 - p
    total = Fraction(0)
    for i in range(k, n + 1):
        total += math.comb(n, i) * p ** i * q ** (n - i)
    return total


class TestBinomial:
    def test_trivial_values(self):
        assert abs(binomial_at_least(BinomialQuery(1, 1, 0.5)) - 0.5) < 1e-12
        assert abs(binomial_at_least(BinomialQuery(2, 1, 0.5)) - 0.75) < 1e-12
        assert binomial_at_least(BinomialQuery(5, 0, 0.3)) == 1.0

    def test_matches_exact_oracle_below_1e12(self):
        rng = random.Random(51)
        cases = [(122, 15, Fraction(1, 16)), (122, 27, Fraction(1, 8)),
                 (122, 48, Fraction(1, 4)), (122, 77, Fraction(7, 16)),
                 (122, 107, Fraction(3, 4))]
        for _ in range(120):
            n = rng.randint(1, 122)
            k = rng.randint(0, n)
            p = Fraction(rng.randint(1, 19), 20)
            cases.append((n, k, p))
        for n, k, p in cases:
            got = binomial_at_least(BinomialQuery(n, k, float(p)))
            want = float(binomial_at_least_exact(n, k, p))
            assert abs(got - want) < 1e-12, (n, k, p)

    def test_exact_small_oracle_is_rational(self):
        assert binomial_at_least_exact(2, 1, Fraction(1, 2)) == Fraction(3, 4)

    def test_query_validation(self):
        with pytest.raises(MetricsError):
            BinomialQuery(5, 6, 0.5)
        with pytest.raises(MetricsError):
            BinomialQuery(5, 2, 1.5)


class TestBonferroni:
    def test_values(self):
        assert bonferroni(0.05, 5) == 0.01
        assert bonferroni(0.05, 1) == 0.05
        assert bonferroni(0.01, 2) == 0.005
        with pytest.raises(MetricsError):
            bonferroni(0.05, 0)


def _random_model_pairs(label_count, rule):
    """All equally likely model predictions under the chosen convention:
    the enumeration the closed-form counts are checked against."""
    labels = [f"L{i}" for i in range(label_count)]
    if rule == "independent_uniform":
        # Top and second drawn independently; a doubled draw collapses to a
        # top-only prediction.
        for a in labels:
            for b in labels:
                yield PredictionPair(a, None if a == b else b)
    else:
        for a in labels:
            for b in labels:
                if a != b:
                    yield PredictionPair(a, b)


class TestChanceProbability:
    @pytest.mark.parametrize("rule", ["independent_uniform",
                                      "distinct_pairs"])
    def test_closed_form_equals_enumeration(self, rule):
        human = PredictionPair("L0", "L1")
        for label_count in range(2, 41):
            outcomes = list(_random_model_pairs(label_count, rule))
            for metric in METRIC_NAMES:
                hits = sum(getattr(score_pair(human, model), metric)
                           for model in outcomes)
                assert chance_probability(metric, label_count, rule) == \
                    Fraction(hits, len(outcomes)), (metric, label_count)

    def test_independent_uniform_values(self):
        assert chance_probability("identical", 4) == Fraction(1, 16)
        assert chance_probability("tops_match", 4) == Fraction(1, 4)
        assert chance_probability("both_match", 4) == Fraction(1, 8)
        assert chance_probability("one_matches_top", 4) == Fraction(7, 16)
        assert chance_probability("single_match", 4) == Fraction(3, 4)

    def test_distinct_pairs_values(self):
        assert chance_probability("identical", 4, "distinct_pairs") == \
            Fraction(1, 12)
        assert chance_probability("tops_match", 4, "distinct_pairs") == \
            Fraction(1, 4)

    def test_unknown_rule_rejected(self):
        with pytest.raises(MetricsError):
            chance_probability("identical", 4, "dice")
        with pytest.raises(MetricsError):
            chance_probability("closest", 4)


def load_fixture_rows():
    ref = resources.files("chunknet.data") / "human_model_pairs.csv"
    with ref.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestParticipantFixture:
    PER_PARTICIPANT = {
        "AB": (4, 4, 9, 12, 18),
        "BC": (1, 2, 9, 14, 20),
        "CD": (0, 2, 8, 11, 13),
        "DE": (5, 10, 8, 15, 20),
        "EF": (3, 3, 9, 11, 18),
        "FG": (2, 6, 5, 14, 18),
    }

    def test_row_count(self):
        assert len(load_fixture_rows()) == 123

    def test_recorded_metrics_match_recomputation(self):
        for row in load_fixture_rows():
            human = pair(row["human_top"], row["human_second"] or None)
            model = pair(row["model_top"], row["model_second"] or None)
            got = score_pair(human, model).as_tuple()
            want = tuple(int(row[m]) for m in METRIC_NAMES)
            assert got == want, (row["participant"], row["excerpt"])

    def test_per_participant_sums(self):
        sums = {p: [0] * 5 for p in self.PER_PARTICIPANT}
        for row in load_fixture_rows():
            for i, m in enumerate(METRIC_NAMES):
                sums[row["participant"]][i] += int(row[m])
        for participant, expected in self.PER_PARTICIPANT.items():
            assert tuple(sums[participant]) == expected, participant

    def test_cumulative_totals(self):
        rows = [score_pair(pair(r["human_top"], r["human_second"] or None),
                           pair(r["model_top"], r["model_second"] or None))
                for r in load_fixture_rows()]
        totals = sum_rows(rows)
        assert [totals[m] for m in METRIC_NAMES] == [15, 27, 48, 77, 107]


class TestSignificanceReport:
    def test_all_five_metrics_significant_on_the_fixture_totals(self):
        totals = dict(zip(METRIC_NAMES, (15, 27, 48, 77, 107)))
        lines = significance_report(totals, n=122, label_count=4)
        assert [line.metric for line in lines] == list(METRIC_NAMES)
        assert all(line.threshold == 0.01 for line in lines)
        assert all(line.significant for line in lines)
        by_name = {line.metric: line for line in lines}
        # weaker metrics have higher chance rates yet still clear the bar
        assert by_name["single_match"].chance_p == Fraction(3, 4)
        assert by_name["identical"].tail_probability < 0.01
