from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace

import pytest

from dhumbal import analytics, arena, engine
from dhumbal.arena import (
    RandomAgent,
    RoundRecord,
    TournamentConfig,
    agent_names,
    build_agent,
    championship,
    records_from_csv,
    records_to_csv,
    run_round,
    run_tournament,
)
from dhumbal.engine import Phase, PickSource
from dhumbal.heuristics import HeuristicAgent
from dhumbal.search import SearchAgent
from helpers import c, cards, make_obs, single


class TestRandomDecide:
    """RandomAgent chooses uniformly among the legal actions."""

    def test_eligible_jhyap_is_a_coin_flip(self):
        obs = make_obs(cards("2H", "3C"), [single(c("9C"))], [5], 40)
        rng = random.Random(17)
        trials = 100_000
        agent = RandomAgent()
        declared = sum(agent.decide_jhyap(obs, rng) for _ in range(trials))
        assert declared / trials == pytest.approx(0.5, abs=0.01)

    def test_ineligible_never_declares(self):
        obs = make_obs(cards("KH", "QD"), [single(c("9C"))], [5], 40)
        rng = random.Random(3)
        state = rng.getstate()
        agent = RandomAgent()
        assert not any(agent.decide_jhyap(obs, rng) for _ in range(500))
        assert rng.getstate() == state  # an ineligible hand draws nothing

    def test_discard_uniform_over_groups(self):
        hand = cards("5H", "5S", "5D", "2C", "9H")
        obs = make_obs(hand, [single(c("KC"))], [5], 40, phase=Phase.DISCARD)
        groups = engine.enumerate_legal_discards(hand)
        rng = random.Random(23)
        agent = RandomAgent()
        counts = Counter(agent.decide_discard(obs, rng) for _ in range(9 * 12_000))
        expected = 12_000
        chi2 = sum((counts[g] - expected) ** 2 / expected for g in groups)
        assert chi2 < 30.0  # df=8

    def test_pick_uniform_over_sources(self):
        obs = make_obs(
            cards("KH"), [single(c("9C")), single(c("2D"))], [5], 40, phase=Phase.PICK
        )
        rng = random.Random(29)
        trials = 100_000
        agent = RandomAgent()
        picks = [agent.decide_pick(obs, rng) for _ in range(trials)]
        stock = picks.count(PickSource.STOCK)
        assert stock / trials == pytest.approx(0.5, abs=0.01)


class TestBuildAgent:
    def test_stock_names(self):
        assert build_agent("aggressive").name == "aggressive"
        assert build_agent("random").name == "random"
        assert build_agent("ismcts").variant == "ismcts"

    def test_heuristic_override_dict(self):
        agent = build_agent({"kind": "heuristic", "profile": "aggressive",
                             "pick_threshold": 2})
        assert agent.profile.pick_threshold == 2

    def test_search_options(self):
        agent = build_agent({"kind": "mcts", "iterations": 5, "time_limit_ms": None})
        assert agent.cfg.iterations == 5

    def test_rl_requires_checkpoint(self):
        with pytest.raises(ValueError, match="checkpoint"):
            build_agent("ppo")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_agent("chess")

    @pytest.mark.parametrize("spec", [
        {"kind": "ismcts", "bogus": 1},
        {"kind": "heuristic", "profile": "aggressive", "bogus": 1},
        {"kind": "random", "bogus": 1},
        {"kind": "ppo", "checkpoint": "ppo.json", "bogus": 1},
    ], ids=["search", "heuristic", "random", "rl"])
    def test_unknown_option_rejected(self, spec):
        with pytest.raises(ValueError, match="bogus"):
            build_agent(spec)

    @pytest.mark.parametrize("field", ["turn_limit", "workers"])
    def test_config_rejects_nonpositive(self, field):
        with pytest.raises(ValueError, match=field):
            TournamentConfig(agents=["random", "random"], **{field: 0})

    def test_duplicate_names_disambiguated(self):
        names = agent_names(["random", "random", "aggressive"])
        assert names == ["random#1", "random#2", "aggressive"]


def fast_agents(n=4):
    return [HeuristicAgent("aggressive"), HeuristicAgent("conservative"),
            HeuristicAgent("balanced"), RandomAgent()][:n]


class TestRunRound:
    def test_deterministic_replay(self):
        agents = fast_agents()
        a = run_round(agents, [0, 1, 2, 3], random.Random(42), round_index=0)
        b = run_round(agents, [0, 1, 2, 3], random.Random(42), round_index=0)
        assert a.coin_delta == b.coin_delta
        assert a.winner_agent == b.winner_agent
        assert a.turns == b.turns
        assert a.cards_discarded == b.cards_discarded
        assert a.rewards == b.rewards

    def test_zero_sum_and_partition(self):
        rng = random.Random(1)
        for index in range(30):
            record = run_round(fast_agents(), [0, 1, 2, 3], rng, round_index=index)
            assert sum(record.coin_delta) == 0
            assert record.turns <= 100

    def test_seating_attribution(self):
        # with a rotated seating, deltas must follow the agents, not seats
        agents = fast_agents()
        seating = [2, 0, 3, 1]  # seat 0 holds agent 2, ...
        record = run_round(agents, seating, random.Random(7), round_index=0)
        assert record.seating == (2, 0, 3, 1)
        assert sum(record.coin_delta) == 0
        if record.winner_agent is not None:
            assert record.winner_agent in (0, 1, 2, 3)

    def test_decision_bookkeeping(self):
        record = run_round(fast_agents(), [0, 1, 2, 3], random.Random(3), round_index=0)
        assert all(count >= 0 for count in record.decisions)
        assert all(ms >= 0.0 for ms in record.decision_ms)
        assert sum(record.decisions) > 0

    def test_jhyap_fields_consistent(self):
        rng = random.Random(5)
        saw_declaration = False
        for index in range(20):
            record = run_round(fast_agents(), [0, 1, 2, 3], rng, round_index=index)
            if record.jhyap_agent is not None:
                saw_declaration = True
                assert record.jhyap_succeeded is not None
                assert 0 <= record.jhyap_hand_value <= 10
            else:
                assert record.jhyap_succeeded is None
        assert saw_declaration

    def test_one_observation_per_decision(self, monkeypatch):
        observed, jhyap_values = [], []
        original_observation = arena.observation_for
        original_jhyap = HeuristicAgent.decide_jhyap

        def observation_spy(state, seat):
            observed.append(seat)
            return original_observation(state, seat)

        def jhyap_spy(agent, obs, rng):
            jhyap_values.append(obs.hand_value)
            return original_jhyap(agent, obs, rng)

        monkeypatch.setattr(arena, "observation_for", observation_spy)
        monkeypatch.setattr(HeuristicAgent, "decide_jhyap", jhyap_spy)
        result = run_tournament(TournamentConfig(
            agents=["aggressive", "conservative", "balanced", "opportunistic"],
            rounds=32, seed=11))
        assert len(observed) == sum(sum(r.decisions) for r in result.records)
        # a forced decline asks nobody
        assert jhyap_values and max(jhyap_values) <= 10


class TestRunTournament:
    def rule_config(self, rounds=64, **kw):
        return TournamentConfig(
            agents=["aggressive", "conservative", "balanced", "opportunistic"],
            rounds=rounds, seed=42, **kw)

    def test_round_count_and_partition(self):
        result = run_tournament(self.rule_config(rounds=32))
        assert len(result.records) == 32
        wins = sum(1 for r in result.records if r.winner_agent is not None)
        assert wins + result.summary.draws == 32

    def test_coin_conservation(self):
        result = run_tournament(self.rule_config(rounds=48))
        assert sum(result.final_balances) == 4 * 10_000

    def test_deterministic_records(self):
        a = run_tournament(self.rule_config(rounds=24))
        b = run_tournament(self.rule_config(rounds=24))
        for left, right in zip(a.records, b.records):
            assert replace(left, decision_ms=()) == replace(right, decision_ms=())

    def test_seating_randomization_frequencies(self):
        # chi-square uniformity per agent over a 1024-round tournament
        result = run_tournament(self.rule_config(rounds=1024))
        for agent in range(4):
            seats = Counter()
            for record in result.records:
                seats[record.seating.index(agent)] += 1
            expected = 1024 / 4
            chi2 = sum((seats[s] - expected) ** 2 / expected for s in range(4))
            assert chi2 < 16.27  # df=3, alpha=0.001

    def test_seating_mechanism_frequencies_tight(self):
        # the shuffle itself holds 25% +- 3pp once noise is small enough
        rng = random.Random(42)
        draws = 8192
        counts = [[0] * 4 for _ in range(4)]
        for _ in range(draws):
            order = arena._seating_for(rng, 4, "random")
            for seat, agent in enumerate(order):
                counts[agent][seat] += 1
        for agent in range(4):
            for seat in range(4):
                assert counts[agent][seat] / draws == pytest.approx(0.25, abs=0.03)

    def test_fixed_seating(self):
        result = run_tournament(self.rule_config(rounds=8, seating="fixed"))
        assert all(record.seating == (0, 1, 2, 3) for record in result.records)

    def test_jhyap_success_bounded_by_calls(self):
        result = run_tournament(self.rule_config(rounds=64))
        for agent_metrics in result.summary.agents:
            assert agent_metrics.jhyap_successes <= agent_metrics.jhyap_calls

    def test_cards_discarded_audit(self):
        result = run_tournament(self.rule_config(rounds=16))
        for record in result.records:
            # a 4-player round consumes at most the full deck
            assert 0 < sum(record.cards_discarded) <= 52

    def test_parallel_workers_smoke(self):
        config = self.rule_config(rounds=6, workers=2)
        result = run_tournament(config)
        assert len(result.records) == 6
        for record in result.records:
            assert sum(record.coin_delta) == 0
        # derived seeds: records are reproducible independently of pool order
        again = run_tournament(config)
        assert [r.coin_delta for r in again.records] == [
            r.coin_delta for r in result.records
        ]


class TestChampionship:
    def test_lineup_enforced(self):
        config = TournamentConfig(agents=["aggressive", "mcts", "random", "balanced"],
                                  rounds=2)
        with pytest.raises(ValueError, match="championship"):
            championship(config)

    def test_runs_with_correct_lineup(self, tmp_path):
        from dhumbal.learning import PPOAgentCore, PPOConfig, save_learning_checkpoint

        core = PPOAgentCore(PPOConfig(), seed=3)
        checkpoint = tmp_path / "ppo.json"
        save_learning_checkpoint("ppo", core, checkpoint, episode=1)
        config = TournamentConfig(
            agents=[
                "aggressive",
                {"kind": "ismcts", "iterations": 5, "time_limit_ms": None},
                {"kind": "ppo", "checkpoint": str(checkpoint)},
                "random",
            ],
            rounds=2,
            seed=1,
        )
        result = championship(config)
        assert len(result.records) == 2
        assert result.names == ["aggressive", "ismcts", "ppo", "random"]


class TestRecordsCsv:
    def test_round_trip_identity(self, tmp_path):
        result = run_tournament(
            TournamentConfig(
                agents=["aggressive", "conservative", "balanced", "opportunistic"],
                rounds=12, seed=9,
            )
        )
        path = tmp_path / "records.csv"
        records_to_csv(result.records, result.names, path)
        loaded, names = records_from_csv(path)
        assert names == result.names
        assert loaded == result.records

    def test_summary_identical_after_round_trip(self, tmp_path):
        result = run_tournament(
            TournamentConfig(agents=["aggressive", "random"], rounds=10, seed=3)
        )
        path = tmp_path / "records.csv"
        records_to_csv(result.records, result.names, path)
        loaded, names = records_from_csv(path)
        assert analytics.summarize(loaded, names) == analytics.summarize(
            result.records, result.names
        )

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("round,winner_agent,end_reason,turns\n")
        with pytest.raises(ValueError):
            records_from_csv(path)


class TestSearchAgentsInArena:
    def test_mixed_round_with_search_agent(self):
        from dhumbal.search import SearchConfig

        agents = [
            SearchAgent("ismcts", SearchConfig(iterations=8, time_limit_ms=None)),
            HeuristicAgent("aggressive"),
        ]
        record = run_round(agents, [0, 1], random.Random(2), round_index=0)
        assert sum(record.coin_delta) == 0
        assert record.decisions[0] > 0
