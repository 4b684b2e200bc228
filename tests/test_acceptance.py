"""End-to-end acceptance suite.

One test per shipping criterion; each prints a PASS line with its headline
numbers (run with -s to see them). The slow tournament criteria use two
worker processes; all seeds are fixed.
"""

from __future__ import annotations

import csv
import math
import random
import time
from statistics import fmean

import numpy as np
import pytest
import scipy.stats

from dhumbal import analytics, arena, cli, engine, learning
from dhumbal import neuralnet as nn
from dhumbal.arena import RandomAgent, TournamentConfig
from helpers import FirstLegal

pytestmark = pytest.mark.acceptance


def passline(number: int, message: str) -> None:
    print(f"\nACCEPTANCE {number:02d} PASS - {message}")


# --- 1. legality oracle -----------------------------------------------------

def oracle_subsets(hand):
    from itertools import combinations

    found = set()
    pool = sorted(hand)
    for size in range(1, len(pool) + 1):
        for combo in combinations(pool, size):
            if size == 1:
                found.add(combo)
            elif len({card.rank for card in combo}) == 1:
                found.add(combo)
            elif size >= 3 and len({card.suit for card in combo}) == 1:
                ranks = sorted(card.rank for card in combo)
                if ranks == list(range(ranks[0], ranks[0] + size)):
                    found.add(combo)
    return found


def test_c01_legality_oracle():
    """enumerate_legal_discards equals exhaustive subset filtering."""
    rng = random.Random(42)
    start = time.perf_counter()
    for trial in range(10_000):
        size = trial % 7 + 1
        hand = rng.sample(engine.FULL_DECK, size)
        fast = {g.cards for g in engine.enumerate_legal_discards(hand)}
        assert fast == oracle_subsets(hand), f"hand {hand}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    passline(1, f"10,000 hands match the subset oracle in {elapsed:.1f}s")


# --- 2. determinism ----------------------------------------------------------

def stripped_csv_bytes(path) -> str:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    keep = [i for i, name in enumerate(rows[0]) if not name.endswith("_time_ms")]
    return "\n".join(",".join(row[i] for i in keep) for row in rows)


def test_c02_determinism(tmp_path):
    """Two identical CLI runs produce byte-identical records (timings aside)."""
    start = time.perf_counter()
    for sub in ("one", "two"):
        code = cli.main(
            ["tournament", "rule", "--rounds", "64", "--seed", "42",
             "--out", str(tmp_path / sub)]
        )
        assert code == 0
    first = stripped_csv_bytes(tmp_path / "one" / "records.csv")
    second = stripped_csv_bytes(tmp_path / "two" / "records.csv")
    elapsed = time.perf_counter() - start
    assert first == second
    assert elapsed < 10.0
    passline(2, f"64-round records byte-identical in {elapsed:.1f}s")


# --- 3 & 5. conservation + rule-based tournament ------------------------------

@pytest.fixture(scope="session")
def rule_tournament_1024():
    config = TournamentConfig(
        agents=["aggressive", "conservative", "balanced", "opportunistic"],
        rounds=1024,
        seed=42,
    )
    start = time.perf_counter()
    result = arena.run_tournament(config)
    return result, time.perf_counter() - start


def test_c03_conservation(rule_tournament_1024):
    """Cards conserved each step (in-engine asserts), coins zero-sum."""
    result, _ = rule_tournament_1024
    # run_tournament played with validation on: every engine step asserted
    # the 52-card multiset. Verify the asserts are alive, then the books.
    state = engine.deal(4, random.Random(0))
    state.players[0].hand.pop()
    with pytest.raises(AssertionError):
        state._check_conservation()
    for record in result.records:
        assert sum(record.coin_delta) == 0
    assert sum(result.final_balances) == 4 * 10_000
    passline(3, "card conservation asserted per step; coins zero-sum over 1024 rounds")


def test_c04_ci_arithmetic():
    """win_rate_ci reproduces every published CI pair at table precision."""
    tables = [
        (35.06, (32.14, 37.98), 2), (19.43, (17.01, 21.85), 2),
        (25.10, (22.44, 27.76), 2), (20.41, (17.94, 22.88), 2),
        (47.1, (44.0, 50.2), 1), (52.9, (49.8, 56.0), 1),
        (55.4, (52.4, 58.4), 1), (44.6, (41.6, 47.6), 1),
        (88.3, (86.3, 90.3), 1), (9.0, (7.2, 10.8), 1),
        (1.5, (0.8, 2.2), 1), (1.3, (0.6, 2.0), 1),
    ]
    for rate, (lo, hi), digits in tables:
        _, got_lo, got_hi = analytics.win_rate_ci(rate * 1024 / 100.0, 1024)
        assert round(got_lo, digits) == pytest.approx(lo), rate
        assert round(got_hi, digits) == pytest.approx(hi), rate
        if digits == 2:
            assert abs(got_lo - lo) <= 0.0105 and abs(got_hi - hi) <= 0.0105
    passline(4, f"all {len(tables)} published CI pairs reproduced")


def test_c05_rule_tournament(rule_tournament_1024):
    """Aggressive tops win rate and economics; Conservative tops Jhyap."""
    result, elapsed = rule_tournament_1024
    metrics = {m.name: m for m in result.summary.agents}
    aggressive = metrics["aggressive"]
    others = [m for name, m in metrics.items() if name != "aggressive"]
    assert all(aggressive.win_rate > m.win_rate for m in others)
    assert all(aggressive.economic > m.economic for m in others)
    conservative = metrics["conservative"]
    assert all(
        conservative.jhyap_success_rate > m.jhyap_success_rate
        for name, m in metrics.items()
        if name != "conservative"
    )
    assert 28.0 <= aggressive.win_rate <= 45.0
    assert elapsed < 120.0
    passline(
        5,
        f"aggressive {aggressive.win_rate:.2f}% win / {aggressive.economic:+.2f} "
        f"coins, conservative jhyap {conservative.jhyap_success_rate:.2f}% "
        f"({elapsed:.0f}s)",
    )


# --- 6. search desk-scale ------------------------------------------------------

def test_c06_search_tournament():
    """MCTS vs ISMCTS at 200 iterations: high Jhyap success, ISMCTS holds up."""
    config = TournamentConfig(
        agents=[
            {"kind": "mcts", "iterations": 200, "determinizations": 3,
             "time_limit_ms": None},
            {"kind": "ismcts", "iterations": 200, "determinizations": 3,
             "time_limit_ms": None},
        ],
        rounds=200,
        seed=42,
        workers=2,
    )
    start = time.perf_counter()
    result = arena.run_tournament(config)
    elapsed = time.perf_counter() - start
    metrics = {m.name: m for m in result.summary.agents}
    mcts, ismcts = metrics["mcts"], metrics["ismcts"]
    assert mcts.jhyap_success_rate >= 90.0
    assert ismcts.jhyap_success_rate >= 90.0
    assert ismcts.win_rate >= mcts.win_rate - 5.0
    assert elapsed < 900.0
    passline(
        6,
        f"jhyap {mcts.jhyap_success_rate:.1f}/{ismcts.jhyap_success_rate:.1f}%, "
        f"win {mcts.win_rate:.1f} vs {ismcts.win_rate:.1f}% ({elapsed:.0f}s)",
    )


# --- 7. neural substrate --------------------------------------------------------

def test_c07_neural_substrate():
    """Gradient checks, XOR convergence, softmax invariants."""
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    activation_sets = [("relu", "linear"), ("linear", "linear"), ("linear", "relu")]
    for trial in range(50):
        activations = activation_sets[trial % len(activation_sets)]
        net = nn.init_net((4, 3, 2), activations, rng)
        x = rng.normal(size=4)
        probe = rng.normal(size=2)
        _, cache = nn.forward_cache(net, x)
        flat_analytic = []
        for dw, db in nn.backward(net, cache, probe):
            flat_analytic.extend([dw, db])
        index = 0
        for layer in net.layers:
            for param in (layer.weights, layer.biases):
                numeric = np.zeros_like(param)
                it = np.nditer(param, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    keep = param[idx]
                    param[idx] = keep + 1e-5
                    up = float(np.dot(probe, nn.forward(net, x)))
                    param[idx] = keep - 1e-5
                    down = float(np.dot(probe, nn.forward(net, x)))
                    param[idx] = keep
                    numeric[idx] = (up - down) / 2e-5
                scale = np.maximum(np.abs(numeric), 1e-3)
                rel = np.max(np.abs(flat_analytic[index] - numeric) / scale)
                assert rel < 1e-4, f"net {trial} rel err {rel}"
                index += 1

    xor_rng = np.random.default_rng(42)
    net = nn.init_net((2, 8, 1), ("relu", "linear"), xor_rng)
    state = nn.adam_init(net, lr=0.01)
    inputs = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    targets = np.array([[0.0], [1.0], [1.0], [0.0]])
    loss = math.inf
    steps = 0
    for steps in range(1, 5_001):
        out, cache = nn.forward_cache(net, inputs)
        error = out - targets
        loss = float(np.mean(error**2))
        if loss < 0.05:
            break
        nn.backward(net, cache, 2.0 * error / 4)
        nn.adam_step(net, state)
    assert loss < 0.05

    for _ in range(200):
        logits = xor_rng.normal(scale=40.0, size=128)
        p = nn.softmax(logits)
        assert np.all(p >= 0.0) and abs(float(p.sum()) - 1.0) < 1e-6
        shifted = nn.softmax(logits + 777.0)
        assert np.max(np.abs(p - shifted)) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    passline(7, f"50 nets gradient-checked, XOR loss {loss:.3f} in {steps} steps "
                f"({elapsed:.0f}s)")


# --- 8 & 10. RL smoke + championship ---------------------------------------------

@pytest.fixture(scope="session")
def ppo_smoke(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("ppo_smoke")
    start = time.perf_counter()
    result = learning.train(
        "ppo",
        opponents=[RandomAgent() for _ in range(4)],
        episodes=200,
        seed=42,
        out_dir=out_dir,
    )
    return result, result.checkpoint_paths[-1], time.perf_counter() - start


def test_c08_rl_smoke(ppo_smoke):
    """PPO learning signal plus the RL safety invariants."""
    result, _, elapsed = ppo_smoke
    rewards = [e.reward for e in result.curve]
    first, last = fmean(rewards[:50]), fmean(rewards[-50:])
    assert last >= first, f"no learning signal: {first:.2f} -> {last:.2f}"
    assert all(math.isfinite(e.loss) for e in result.curve)

    rng = np.random.default_rng(0)
    for _ in range(100):
        logits = rng.normal(scale=10.0, size=128)
        mask = np.zeros(128, dtype=bool)
        mask[rng.choice(128, size=rng.integers(1, 20), replace=False)] = True
        probs = learning.masked_policy(logits, mask)
        if (~mask).any():
            assert float(probs[~mask].max()) < 1e-12

    buffer = learning.ReplayBuffer(2000)
    for i in range(2600):
        buffer.push(np.zeros(117), 0, float(i), np.zeros(117), True, np.zeros(128, bool))
    assert len(buffer) == 2000
    assert buffer.rewards[buffer.next_row] == 600.0  # strictly FIFO eviction

    core = learning.DQNAgentCore(learning.DQNConfig(batch_size=2), seed=3)
    sync_buffer = learning.ReplayBuffer(2000)
    for i in range(4):
        sync_buffer.push(np.zeros(117), i, 1.0, np.zeros(117), True, np.zeros(128, bool))
    step_rng = random.Random(0)
    for step in range(1, 201):
        core.train_step(sync_buffer, step_rng)
        if step % 100 == 0:
            for a, b in zip(core.net.layers, core.target_net.layers):
                assert np.array_equal(a.weights, b.weights)
                assert np.array_equal(a.biases, b.biases)
    assert elapsed < 600.0
    passline(
        8,
        f"PPO reward {first:.1f} -> {last:.1f} over 200 episodes ({elapsed:.0f}s); "
        "mask/buffer/sync invariants hold",
    )


def test_c10_championship(ppo_smoke):
    """Aggressive dominates the cross-category final."""
    _, checkpoint, _ = ppo_smoke
    config = TournamentConfig(
        agents=[
            "aggressive",
            {"kind": "ismcts", "iterations": 200, "determinizations": 3,
             "time_limit_ms": None},
            {"kind": "ppo", "checkpoint": str(checkpoint)},
            "random",
        ],
        rounds=256,
        seed=42,
        workers=2,
    )
    start = time.perf_counter()
    arena.check_championship_lineup(config.agents)
    result = arena.run_tournament(config)
    elapsed = time.perf_counter() - start
    metrics = {m.name: m for m in result.summary.agents}
    assert metrics["aggressive"].win_rate > 60.0
    assert metrics["aggressive"].economic > 0.0
    assert metrics["ppo"].win_rate < 15.0
    assert metrics["random"].win_rate < 15.0
    assert elapsed < 1800.0
    passline(
        10,
        "win rates "
        + " / ".join(f"{name} {metrics[name].win_rate:.1f}%" for name in
                     ("aggressive", "ismcts", "ppo", "random"))
        + f", aggressive {metrics['aggressive'].economic:+.1f} coins "
        f"({elapsed:.0f}s)",
    )


# --- 9. statistics oracle ---------------------------------------------------------

def test_c09_statistics_oracle():
    """welch_t / cohens_d / pearson match independent references to 1e-9."""
    rng = random.Random(42)
    for _ in range(100):
        n1, n2 = rng.randrange(3, 50), rng.randrange(3, 50)
        a = [rng.gauss(rng.uniform(-2, 2), rng.uniform(0.5, 2.0)) for _ in range(n1)]
        b = [rng.gauss(rng.uniform(-2, 2), rng.uniform(0.5, 2.0)) for _ in range(n2)]
        t, p = analytics.welch_t(a, b)
        ref = scipy.stats.ttest_ind(a, b, equal_var=False)
        assert t == pytest.approx(float(ref.statistic), abs=1e-9)
        assert p == pytest.approx(float(ref.pvalue), abs=1e-9)

        t_swapped, p_swapped = analytics.welch_t(b, a)
        assert t == -t_swapped and p == p_swapped  # exact antisymmetry

        d = analytics.cohens_d(a, b)
        pooled = math.sqrt(
            ((n1 - 1) * np.var(a, ddof=1) + (n2 - 1) * np.var(b, ddof=1))
            / (n1 + n2 - 2)
        )
        assert d == pytest.approx((fmean(a) - fmean(b)) / pooled, abs=1e-9)
        assert d == -analytics.cohens_d(b, a)

        k = min(n1, n2)
        r = analytics.pearson(a[:k], b[:k])
        assert r == pytest.approx(
            float(scipy.stats.pearsonr(a[:k], b[:k]).statistic), abs=1e-9
        )

    assert analytics.bonferroni(0.05, 10) == 0.005
    passline(9, "100 random sample pairs match scipy to 1e-9; bonferroni value exact")


# --- 11. interactive play -----------------------------------------------------------

def play_scripted(monkeypatch, capsys, script):
    feed = iter(script)
    monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))
    code = cli.main(["play", "--seed", "42", "--agents", "aggressive",
                     "--rounds", "1"])
    assert code == 0
    return capsys.readouterr().out


def parse_settlement(output):
    deltas = {}
    for line in output.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[2] == "->" and parts[0] in ("human", "aggressive"):
            deltas[parts[0]] = int(parts[1])
    return deltas


def test_c11_interactive_play(monkeypatch, capsys):
    """Scripted session completes, survives bad input, matches engine replay."""
    clean = ["n", "0", "s"] * 80
    noisy = ["zzz", "42js", ""]  # rejected before any state change
    with_noise = noisy + ["n"]  # then the same decisions as the clean script
    for step in clean[1:]:
        with_noise.extend(["j", "-1", "9999", step])
    clean_out = play_scripted(monkeypatch, capsys, clean)
    noisy_out = play_scripted(monkeypatch, capsys, with_noise)
    clean_deltas = parse_settlement(clean_out)
    noisy_deltas = parse_settlement(noisy_out)
    assert clean_deltas == noisy_deltas, "rejected input mutated the round"
    assert "10 points or fewer" in noisy_out

    # engine-only replay of the same action sequence under the same seed
    agents = [FirstLegal(), arena.build_agent("aggressive")]
    record = arena.run_round(agents, [0, 1], random.Random(42), round_index=0)
    assert clean_deltas["human"] == record.coin_delta[0]
    assert clean_deltas["aggressive"] == record.coin_delta[1]
    passline(
        11,
        f"scripted round settles at {clean_deltas['human']:+d}/"
        f"{clean_deltas['aggressive']:+d}, identical to the engine replay",
    )
