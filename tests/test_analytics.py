from __future__ import annotations

import math
import random

import pytest
import scipy.special
import scipy.stats

from dhumbal.analytics import (
    bonferroni,
    cohens_d,
    pairwise_comparisons,
    pearson,
    regularized_incomplete_beta,
    student_t_two_tailed_p,
    summarize,
    welch_t,
    win_rate_ci,
)
from dhumbal.arena import RoundRecord


# Published (rate %, n=1024) pairs with their printed confidence intervals.
TABLE_CIS = [
    (35.06, (32.14, 37.98), 2),
    (19.43, (17.01, 21.85), 2),
    (25.10, (22.44, 27.76), 2),
    (20.41, (17.94, 22.88), 2),
    (47.1, (44.0, 50.2), 1),
    (52.9, (49.8, 56.0), 1),
    (55.4, (52.4, 58.4), 1),
    (44.6, (41.6, 47.6), 1),
    (88.3, (86.3, 90.3), 1),
    (9.0, (7.2, 10.8), 1),
    (1.5, (0.8, 2.2), 1),
    (1.3, (0.6, 2.0), 1),
]


class TestWinRateCi:
    @pytest.mark.parametrize("rate,expected,digits", TABLE_CIS)
    def test_reference_tables_reproduce(self, rate, expected, digits):
        wins = rate * 1024 / 100.0
        got_rate, lo, hi = win_rate_ci(wins, 1024)
        assert got_rate == pytest.approx(rate, abs=1e-9)
        assert round(lo, digits) == pytest.approx(expected[0])
        assert round(hi, digits) == pytest.approx(expected[1])
        # two-decimal tables pin the interval to the hundredth of a point
        if digits == 2:
            assert abs(lo - expected[0]) <= 0.01
            assert abs(hi - expected[1]) <= 0.01

    def test_zero_wins_degenerate(self):
        rate, lo, hi = win_rate_ci(0, 100)
        assert (rate, lo, hi) == (0.0, 0.0, 0.0)

    def test_all_wins_degenerate(self):
        rate, lo, hi = win_rate_ci(100, 100)
        assert (rate, lo, hi) == (100.0, 100.0, 100.0)

    def test_zero_rounds_rejected(self):
        with pytest.raises(ValueError):
            win_rate_ci(0, 0)


class TestIncompleteBeta:
    def test_matches_scipy_over_random_inputs(self):
        rng = random.Random(7)
        for _ in range(300):
            a = rng.uniform(0.2, 60.0)
            b = rng.uniform(0.2, 60.0)
            x = rng.random()
            mine = regularized_incomplete_beta(a, b, x)
            ref = float(scipy.special.betainc(a, b, x))
            assert mine == pytest.approx(ref, abs=1e-12)

    def test_bounds(self):
        assert regularized_incomplete_beta(3.0, 4.0, 0.0) == 0.0
        assert regularized_incomplete_beta(3.0, 4.0, 1.0) == 1.0

    def test_t_cdf_against_scipy(self):
        rng = random.Random(11)
        for _ in range(200):
            t = rng.uniform(-8, 8)
            df = rng.uniform(1.0, 300.0)
            mine = student_t_two_tailed_p(t, df)
            ref = 2.0 * float(scipy.stats.t.sf(abs(t), df))
            assert mine == pytest.approx(ref, abs=1e-12)


def random_samples(rng, spread=1.0):
    n = rng.randrange(2, 60)
    mu = rng.uniform(-5, 5)
    return [rng.gauss(mu, spread) for _ in range(n)]


class TestWelchT:
    def test_identical_samples(self):
        sample = [1.0, 2.0, 3.0, 4.0]
        assert welch_t(sample, list(sample)) == (0.0, 1.0)

    def test_separated_samples_significant(self):
        rng = random.Random(3)
        a = [0.0 + rng.gauss(0, 1e-6) for _ in range(4)]
        b = [1.0 + rng.gauss(0, 1e-6) for _ in range(4)]
        _, p = welch_t(a, b)
        assert p < 1e-4

    def test_matches_scipy_on_random_pairs(self):
        rng = random.Random(42)
        for _ in range(100):
            a = random_samples(rng, spread=rng.uniform(0.5, 3.0))
            b = random_samples(rng, spread=rng.uniform(0.5, 3.0))
            t, p = welch_t(a, b)
            ref = scipy.stats.ttest_ind(a, b, equal_var=False)
            assert t == pytest.approx(float(ref.statistic), abs=1e-9)
            assert p == pytest.approx(float(ref.pvalue), abs=1e-9)

    def test_antisymmetry(self):
        rng = random.Random(8)
        a, b = random_samples(rng), random_samples(rng)
        t_ab, p_ab = welch_t(a, b)
        t_ba, p_ba = welch_t(b, a)
        assert t_ab == -t_ba
        assert p_ab == p_ba

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError):
            welch_t([1.0], [1.0, 2.0])

    def test_zero_variance_distinct_means(self):
        t, p = welch_t([1.0, 1.0], [2.0, 2.0])
        assert math.isinf(t) and t < 0
        assert p == 0.0


class TestCohensD:
    def test_unit_effect(self):
        # five points at m+a, five at m-a with a=3/sqrt(10) has sd exactly 1
        a = 3.0 / math.sqrt(10.0)
        s1 = [1.0 + a] * 5 + [1.0 - a] * 5
        s2 = [0.0 + a] * 5 + [0.0 - a] * 5
        assert cohens_d(s1, s2) == pytest.approx(1.0, abs=1e-12)

    def test_antisymmetry(self):
        rng = random.Random(4)
        a, b = random_samples(rng), random_samples(rng)
        assert cohens_d(a, b) == pytest.approx(-cohens_d(b, a), abs=1e-12)

    def test_equal_samples_zero(self):
        sample = [1.0, 2.0, 5.0]
        assert cohens_d(sample, list(sample)) == 0.0

    def test_zero_pooled_variance_is_undefined(self):
        assert cohens_d([2.0, 2.0], [3.0, 3.0]) is None

    def test_sign_matches_t(self):
        rng = random.Random(5)
        for _ in range(50):
            a, b = random_samples(rng), random_samples(rng)
            t, _ = welch_t(a, b)
            d = cohens_d(a, b)
            if d is not None and abs(d) > 1e-12:
                assert math.copysign(1, d) == math.copysign(1, t)


class TestBonferroni:
    def test_examples(self):
        assert bonferroni(0.05, 10) == 0.005
        assert bonferroni(0.05, 1) == 0.05
        assert bonferroni(0.05, 30) == pytest.approx(0.05 / 30)

    def test_rule_based_comparison_count(self):
        # 4 agents pairwise over 5 metrics
        pairs = math.comb(4, 2)
        assert pairs * 5 == 30

    def test_zero_comparisons_rejected(self):
        with pytest.raises(ValueError):
            bonferroni(0.05, 0)


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_matches_brute_force_and_scipy(self):
        rng = random.Random(6)
        for _ in range(50):
            n = rng.randrange(3, 40)
            xs = [rng.uniform(-4, 4) for _ in range(n)]
            ys = [rng.uniform(-4, 4) for _ in range(n)]
            mine = pearson(xs, ys)
            mx, my = sum(xs) / n, sum(ys) / n
            num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            den = math.sqrt(
                sum((x - mx) ** 2 for x in xs) * sum((y - my) ** 2 for y in ys)
            )
            assert mine == pytest.approx(num / den, abs=1e-12)
            assert mine == pytest.approx(
                float(scipy.stats.pearsonr(xs, ys).statistic), abs=1e-9
            )

    def test_zero_variance_undefined(self):
        assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None


def make_record(index, winner, deltas, jhyap=None, jhyap_value=None, success=None,
                cards=(1, 1), turns=10):
    n = len(deltas)
    return RoundRecord(
        round_index=index,
        seating=tuple(range(n)),
        winner_agent=winner,
        end_reason="jhyap_showdown" if jhyap is not None else "turn_limit",
        turns=turns,
        jhyap_agent=jhyap,
        jhyap_hand_value=jhyap_value,
        jhyap_succeeded=success,
        coin_delta=tuple(deltas),
        cards_discarded=tuple(cards[:n]) if len(cards) >= n else (1,) * n,
        rewards=tuple(float(d) for d in deltas),
        final_hand_values=(5,) * n,
        decisions=(4,) * n,
        decision_ms=(1.0,) * n,
    )


class TestSummarize:
    def test_single_record_full_win(self):
        record = make_record(0, 0, (10, -10), jhyap=0, jhyap_value=5, success=True)
        summary = summarize([record], ["a", "b"])
        assert summary.agents[0].win_rate == 100.0
        assert summary.agents[1].win_rate == 0.0
        assert summary.agents[0].jhyap_success_rate == 100.0

    def test_no_jhyap_calls_is_undefined_not_zero(self):
        record = make_record(0, 0, (10, -10), jhyap=0, jhyap_value=5, success=True)
        summary = summarize([record], ["a", "b"])
        assert summary.agents[1].jhyap_calls == 0
        assert summary.agents[1].jhyap_success_rate is None

    def test_economics_sum_to_zero(self):
        records = [
            make_record(0, 0, (10, -4, -6)),
            make_record(1, 2, (-3, -5, 8)),
            make_record(2, None, (0, 0, 0)),
        ]
        summary = summarize(records, ["a", "b", "c"])
        assert sum(a.economic for a in summary.agents) == pytest.approx(0.0)
        assert summary.draws == 1

    def test_permutation_invariance(self):
        rng = random.Random(12)
        records = [
            make_record(i, rng.randrange(2), (d := rng.randrange(-20, 21), -d),
                        jhyap=rng.randrange(2), jhyap_value=rng.randrange(1, 11),
                        success=rng.random() < 0.7)
            for i in range(40)
        ]
        shuffled = list(records)
        rng.shuffle(shuffled)
        a = summarize(records, ["x", "y"])
        b = summarize(shuffled, ["x", "y"])
        assert (a.rounds, a.draws) == (b.rounds, b.draws)
        for left, right in zip(a.agents, b.agents):
            for field_name, value in vars(left).items():
                other = getattr(right, field_name)
                if isinstance(value, float):
                    assert other == pytest.approx(value, abs=1e-12), field_name
                else:
                    assert other == value, field_name

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            summarize([], ["a"])


class TestPairwiseComparisons:
    def test_full_grid_shape_and_bonferroni(self):
        rng = random.Random(3)
        records = []
        for i in range(60):
            declarer = rng.randrange(4)
            deltas = [0, 0, 0, 0]
            winner = rng.randrange(4)
            deltas[winner] = 30
            deltas[(winner + 1) % 4] = -30
            records.append(
                make_record(i, winner, deltas, jhyap=declarer,
                            jhyap_value=rng.randrange(1, 11),
                            success=rng.random() < 0.8,
                            cards=(1, 2, 3, 4))
            )
        names = ["a", "b", "c", "d"]
        results = pairwise_comparisons(records, names)
        assert len(results) == 30  # C(4,2) pairs x 5 metrics
        for result in results:
            if result.p_value is not None:
                assert 0.0 <= result.p_value <= 1.0
                expected = result.p_value < 0.05 / 30
                assert result.significant == expected
