"""Statistical evaluation of tournament results.

Win-rate confidence intervals use the normal approximation on the
percentage scale (half-width 1.96 * sqrt(w(100-w)/n)); mean comparisons
use two-tailed Welch's t-tests with Welch-Satterthwaite degrees of
freedom, effect sizes use Cohen's d with the pooled standard deviation,
and multiple comparisons divide alpha by the comparison count. The
t-distribution CDF is evaluated through a local regularized incomplete
beta (continued fraction), so tests can cross-check it against an
independent library implementation.

Undefined statistics (zero variance, an agent that never declared) are
reported as None, never silently as zero.

Every CSV artifact is written by ``write_csv``, the one place that spells a
cell, and read back through ``read_csv`` and ``cell_reader``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union, get_args, get_origin

CI_Z = 1.96  # normal 95% multiplier used on the percentage scale


def win_rate_ci(wins: float, rounds: int) -> tuple[float, float, float]:
    """(rate %, ci_low %, ci_high %) for a win count over a round count."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if not 0 <= wins <= rounds:
        raise ValueError("wins must lie in [0, rounds]")
    rate = 100.0 * wins / rounds
    half = CI_Z * math.sqrt(rate * (100.0 - rate) / rounds)
    return rate, rate - half, rate + half


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _betainc_continued_fraction(a: float, b: float, x: float) -> float:
    """Lentz's continued fraction for the incomplete beta integral."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betainc_continued_fraction(a, b, x) / a
    return 1.0 - math.exp(
        b * math.log1p(-x) + a * math.log(x) - _log_beta(b, a)
    ) * _betainc_continued_fraction(b, a, 1.0 - x) / b


def student_t_two_tailed_p(t: float, df: float) -> float:
    """P(|T| >= t) for Student's t with df degrees of freedom."""
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


def _mean_var(sample: Sequence[float]) -> tuple[float, float, int]:
    n = len(sample)
    mean = sum(sample) / n
    var = sum((x - mean) ** 2 for x in sample) / (n - 1)
    return mean, var, n


def welch_t(sample1: Sequence[float], sample2: Sequence[float]) -> tuple[float, float]:
    """(t, two-tailed p) without assuming equal variances."""
    if len(sample1) < 2 or len(sample2) < 2:
        raise ValueError("both samples need size >= 2")
    m1, v1, n1 = _mean_var(sample1)
    m2, v2, n2 = _mean_var(sample2)
    se1, se2 = v1 / n1, v2 / n2
    if se1 + se2 == 0.0:
        return (0.0, 1.0) if m1 == m2 else (math.copysign(math.inf, m1 - m2), 0.0)
    t = (m1 - m2) / math.sqrt(se1 + se2)
    df = (se1 + se2) ** 2 / (se1**2 / (n1 - 1) + se2**2 / (n2 - 1))
    return t, student_t_two_tailed_p(t, df)


def cohens_d(sample1: Sequence[float], sample2: Sequence[float]) -> Optional[float]:
    """Standardized mean difference with the pooled standard deviation.

    None when the pooled variance vanishes (no meaningful effect size).
    """
    if len(sample1) + len(sample2) < 3:
        raise ValueError("need n1 + n2 >= 3")
    m1, v1, n1 = _mean_var(sample1) if len(sample1) > 1 else (sample1[0], 0.0, 1)
    m2, v2, n2 = _mean_var(sample2) if len(sample2) > 1 else (sample2[0], 0.0, 1)
    pooled = ((n1 - 1) * v1 + (n2 - 1) * v2) / (n1 + n2 - 2)
    if pooled == 0.0:
        return None
    return (m1 - m2) / math.sqrt(pooled)


def bonferroni(alpha: float, comparisons: int) -> float:
    """Per-test threshold alpha / k."""
    if comparisons < 1:
        raise ValueError("comparison count must be >= 1")
    return alpha / comparisons


def pearson(xs: Sequence[float], ys: Sequence[float]) -> Optional[float]:
    """Product-moment correlation; None when either side has no variance."""
    if len(xs) != len(ys):
        raise ValueError("need equal-length samples")
    if len(xs) < 2:
        return None
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        return None
    return sxy / math.sqrt(sxx * syy)


# --- CSV artifacts -----------------------------------------------------------

def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows in the one cell format of every artifact: None
    is an empty cell, a bool is 0/1, a float is its ``repr`` (as ``csv``
    writes it), and anything else goes as it is."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(
            [int(v) if v.__class__ is bool else v for v in row] for row in rows
        )


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """The header and the rows of a CSV file, as text cells."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise ValueError(f"{path}: empty file, no header row")
    return rows[0], rows[1:]


def cell_reader(kind) -> Callable[[str], object]:
    """The inverse of ``write_csv`` for a column of ``kind``: str, int,
    float, bool, or Optional of one of them. An empty cell is None only in
    an Optional column; anywhere else it raises ValueError."""
    if get_origin(kind) is Union:
        read = cell_reader(get_args(kind)[0])
        return lambda text: None if text == "" else read(text)
    if kind is bool:
        return lambda text: bool(int(text))
    return kind


# --- tournament summaries ---------------------------------------------------

@dataclass
class AgentMetrics:
    name: str
    wins: int
    win_rate: float  # percent
    ci_low: float
    ci_high: float
    economic: float  # mean coins per round
    jhyap_calls: int
    jhyap_successes: int
    jhyap_success_rate: Optional[float]  # percent; None without calls
    cards_per_round: float
    avg_reward: float
    avg_turns: float
    avg_hand_value: float
    avg_decision_ms: Optional[float]
    risk_correlation: Optional[float]


@dataclass
class MetricsSummary:
    rounds: int
    draws: int
    agents: list[AgentMetrics]


def summarize(records: Sequence, names: Sequence[str]) -> MetricsSummary:
    """Aggregate primary and secondary metrics per agent from round records."""
    if not records:
        raise ValueError("need at least one round record")
    rounds = len(records)
    draws = sum(1 for r in records if r.winner_agent is None)
    agents = []
    for index, name in enumerate(names):
        wins = sum(1 for r in records if r.winner_agent == index)
        rate, lo, hi = win_rate_ci(wins, rounds)
        deltas = [r.coin_delta[index] for r in records]
        calls = [r for r in records if r.jhyap_agent == index]
        successes = sum(1 for r in calls if r.jhyap_succeeded)
        declared_values = [float(r.jhyap_hand_value) for r in calls]
        success_flags = [1.0 if r.jhyap_succeeded else 0.0 for r in calls]
        decisions = sum(r.decisions[index] for r in records)
        time_ms = sum(r.decision_ms[index] for r in records)
        agents.append(
            AgentMetrics(
                name=name,
                wins=wins,
                win_rate=rate,
                ci_low=lo,
                ci_high=hi,
                economic=sum(deltas) / rounds,
                jhyap_calls=len(calls),
                jhyap_successes=successes,
                jhyap_success_rate=(
                    100.0 * successes / len(calls) if calls else None
                ),
                cards_per_round=sum(r.cards_discarded[index] for r in records) / rounds,
                avg_reward=sum(r.rewards[index] for r in records) / rounds,
                avg_turns=sum(r.turns for r in records) / rounds,
                avg_hand_value=sum(r.final_hand_values[index] for r in records) / rounds,
                avg_decision_ms=(time_ms / decisions) if decisions else None,
                risk_correlation=pearson(declared_values, success_flags),
            )
        )
    return MetricsSummary(rounds=rounds, draws=draws, agents=agents)


@dataclass
class ComparisonResult:
    metric: str
    agent_a: str
    agent_b: str
    cohens_d: Optional[float]
    t_stat: Optional[float]
    p_value: Optional[float]
    n1: int
    n2: int
    significant: Optional[bool]  # after Bonferroni at alpha 0.05
    stars: str


COMPARISON_METRICS = ("win", "economic", "jhyap", "cards", "risk")


def _metric_samples(records: Sequence, agent: int, metric: str) -> list[float]:
    if metric == "win":
        return [1.0 if r.winner_agent == agent else 0.0 for r in records]
    if metric == "economic":
        return [float(r.coin_delta[agent]) for r in records]
    if metric == "cards":
        return [float(r.cards_discarded[agent]) for r in records]
    calls = [r for r in records if r.jhyap_agent == agent]
    if metric == "jhyap":
        return [1.0 if r.jhyap_succeeded else 0.0 for r in calls]
    if metric == "risk":
        return [float(r.jhyap_hand_value) for r in calls]
    raise ValueError(f"unknown metric {metric!r}")


def _stars(p: float) -> str:
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


def pairwise_comparisons(
    records: Sequence, names: Sequence[str], alpha: float = 0.05
) -> list[ComparisonResult]:
    """Welch/Cohen comparisons for every agent pair and metric.

    The Bonferroni divisor counts every attempted comparison (pairs times
    metrics); pairs without enough data stay in the count but report None.
    """
    pairs = [(i, j) for i in range(len(names)) for j in range(i + 1, len(names))]
    total = len(pairs) * len(COMPARISON_METRICS)
    threshold = bonferroni(alpha, total)
    results = []
    for i, j in pairs:
        for metric in COMPARISON_METRICS:
            a = _metric_samples(records, i, metric)
            b = _metric_samples(records, j, metric)
            if len(a) < 2 or len(b) < 2:
                results.append(
                    ComparisonResult(
                        metric, names[i], names[j], None, None, None,
                        len(a), len(b), None, "",
                    )
                )
                continue
            t, p = welch_t(a, b)
            d = cohens_d(a, b)
            results.append(
                ComparisonResult(
                    metric=metric,
                    agent_a=names[i],
                    agent_b=names[j],
                    cohens_d=d,
                    t_stat=t,
                    p_value=p,
                    n1=len(a),
                    n2=len(b),
                    significant=p < threshold,
                    stars=_stars(p),
                )
            )
    return results


def _fmt(value, width: int, digits: int = 2) -> str:
    if value is None:
        return "-".rjust(width)
    return f"{value:.{digits}f}".rjust(width)


def report_text(summary: MetricsSummary, title: str = "Tournament results") -> str:
    """Plain-text metrics table, one row per agent."""
    lines = [
        title,
        f"rounds={summary.rounds} draws={summary.draws}",
        f"{'Agent':<15}{'Win %':>8}{'95% CI':>19}{'Econ.':>9}{'Jhyap %':>9}"
        f"{'Calls':>7}{'Cards':>7}{'Turns':>7}{'HandV':>7}{'Reward':>8}{'Dec. ms':>9}",
    ]
    for a in summary.agents:
        ci = f"[{a.ci_low:.2f}, {a.ci_high:.2f}]"
        lines.append(
            f"{a.name:<15}{a.win_rate:>8.2f}{ci:>19}{a.economic:>9.2f}"
            f"{_fmt(a.jhyap_success_rate, 9)}{a.jhyap_calls:>7}"
            f"{a.cards_per_round:>7.1f}{a.avg_turns:>7.1f}{a.avg_hand_value:>7.1f}"
            f"{a.avg_reward:>8.2f}{_fmt(a.avg_decision_ms, 9)}"
        )
    return "\n".join(lines) + "\n"


def comparisons_text(comparisons: Sequence[ComparisonResult]) -> str:
    lines = [
        f"{'Metric':<10}{'Pair':<30}{'d':>9}{'t':>10}{'p':>13}{'Sig.':>6}",
    ]
    for c in comparisons:
        pair = f"{c.agent_a} vs {c.agent_b}"
        d = "-" if c.cohens_d is None else f"{c.cohens_d:.3f}"
        t = "-" if c.t_stat is None else f"{c.t_stat:.3f}"
        p = "-" if c.p_value is None else f"{c.p_value:.3g}"
        lines.append(
            f"{c.metric:<10}{pair:<30}{d:>9}{t:>10}{p:>13}{c.stars:>6}"
        )
    return "\n".join(lines) + "\n"
