from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhumbal import engine, learning
from dhumbal import neuralnet as nn
from dhumbal.arena import RandomAgent, run_round
from dhumbal.engine import Phase, PickSource
from dhumbal.heuristics import HeuristicAgent
from dhumbal.learning import (
    ACTION_DECLARE,
    ACTION_DECLINE,
    ACTION_PICK_STOCK,
    ACTION_PICK_TOP,
    DQNAgentCore,
    DQNConfig,
    PPOAgentCore,
    PPOConfig,
    ReplayBuffer,
    RLAgent,
    RoundEnv,
    Transition,
    action_table,
    checkpoint_select,
    convergence_check,
    dqn_select,
    encode_state,
    gae,
    legal_action_mask,
    masked_policy,
    policy_entropy,
    save_learning_checkpoint,
    train,
    _actor_grad_logits,
)
from helpers import c, cards, make_obs, patterned_hands, single


def spec_table(obs) -> dict:
    """The action table as the module docstring specifies it, derived from
    the rules alone: index -> the engine action it names."""
    hand = set(obs.own_hand)
    if obs.phase is Phase.JHYAP_CHECK:
        table = {ACTION_DECLINE: engine.JhyapAction.DECLINE}
        if sum(card.rank for card in hand) <= 10:
            table[ACTION_DECLARE] = engine.JhyapAction.DECLARE
        return table
    if obs.phase is Phase.PICK:
        table = {ACTION_PICK_STOCK: PickSource.STOCK}
        if len(obs.discard_pile_groups) >= 2:
            table[ACTION_PICK_TOP] = PickSource.DISCARD_TOP
        return table
    table = {}
    for card in hand:
        table[2 + card.suit * 13 + card.rank - 1] = (card,)
    for rank in range(1, 14):
        same = sorted(card for card in hand if card.rank == rank)
        if len(same) >= 2:
            table[54 + rank - 1] = tuple(same)
    for suit in range(4):
        for start in range(1, 12):
            run = []
            while engine.Card(start + len(run), suit) in hand:
                run.append(engine.Card(start + len(run), suit))
            if len(run) >= 3:
                table[67 + suit * 11 + start - 1] = tuple(run)
    return table


@st.composite
def learner_observations(draw):
    """Observations of a live round in any phase: hands of 1 to 8 cards that
    often hold sets and long runs, Jhyap checks on either side of the
    threshold, and picks with and without a reachable pile top."""
    phase = draw(st.sampled_from(list(Phase)))
    hand = draw(patterned_hands())
    rest = [card for card in engine.FULL_DECK if card not in hand]
    pile = [single(card) for card in
            draw(st.lists(st.sampled_from(rest), min_size=1, max_size=3, unique=True))]
    stock = draw(st.integers(0, 40))
    # a pick with an empty stock and nothing to reshuffle has ended the round
    if phase is Phase.PICK and stock == 0 and len(pile) < 2:
        stock = 1
    obs = make_obs(hand, pile, [5], stock, phase=phase)
    if phase is Phase.PICK:  # the pickable top lies below the mover's own group
        top = pile[-2].top if len(pile) >= 2 else None
        obs = dataclasses.replace(obs, discard_top=top)
    return obs


class TestEncodeState:
    def test_single_card_bitmap(self):
        obs = make_obs(cards("AC"), [], [5], 46)
        vec = encode_state(obs)
        assert len(vec) == 117
        assert vec[:52].sum() == 1.0
        assert vec[0] == 1.0  # ace of clubs is index 0
        assert vec[52:104].sum() == 0.0

    def test_pile_bitmap(self):
        obs = make_obs(cards("AC"), [single(c("KS"))], [5], 45)
        vec = encode_state(obs)
        assert vec[52 + engine.card_index(c("KS"))] == 1.0
        assert vec[52:104].sum() == 1.0

    def test_hand_value_normalization(self):
        obs = make_obs(cards("KH", "QS", "3D", "2C", "AH"), [], [5], 42)  # V=31
        assert encode_state(obs)[106] == pytest.approx(31 / 65)

    def test_phase_one_hot(self):
        obs = make_obs(cards("AC"), [single(c("KS"))], [5], 45, phase=Phase.PICK)
        vec = encode_state(obs)
        assert tuple(vec[112:115]) == (0.0, 0.0, 1.0)

    @pytest.mark.parametrize("seat,slot", [(0, 104), (1, 105), (2, 104), (3, 105)])
    def test_seat_parity(self, seat, slot):
        obs = make_obs(cards("AC"), [], [5] * 4, 26, seat=seat)
        vec = encode_state(obs)
        assert vec[slot] == 1.0
        assert vec[104] + vec[105] == 1.0

    def test_scalar_clamping(self):
        obs = make_obs(cards("AC"), [], [5], 46, own_coins=30_000)
        assert encode_state(obs)[109] == 1.5

    def test_always_finite_and_sized(self):
        rng = random.Random(0)
        for _ in range(50):
            state = engine.deal(rng.randrange(2, 6), rng, validate=False)
            obs = engine.observation_for(state, 0)
            vec = encode_state(obs)
            assert vec.shape == (117,)
            assert np.isfinite(vec).all()


class TestActionTable:
    @settings(max_examples=300, deadline=None)
    @given(learner_observations())
    def test_table_matches_spec_and_engine(self, obs):
        table = action_table(obs)
        expected = spec_table(obs)
        assert set(table) == set(expected)
        legal = engine.legal_actions(obs)
        for index, action in table.items():
            assert action in legal
            named = action.cards if isinstance(action, engine.DiscardGroup) else action
            assert named == expected[index]

    def test_jhyap_check_above_threshold(self):
        obs = make_obs(cards("KH", "QD"), [], [5], 44)  # V=25
        mask = legal_action_mask(obs)
        assert mask[ACTION_DECLINE]
        assert not mask[ACTION_DECLARE]
        assert mask.sum() == 1

    def test_jhyap_check_eligible(self):
        obs = make_obs(cards("4H", "6C"), [], [5], 44)
        mask = legal_action_mask(obs)
        assert mask[ACTION_DECLARE] and mask[ACTION_DECLINE]
        assert mask.sum() == 2

    def test_pick_with_top(self):
        obs = make_obs(cards("KH"), [single(c("9C")), single(c("2D"))], [5], 40,
                       phase=Phase.PICK)
        mask = legal_action_mask(obs)
        assert mask[ACTION_PICK_STOCK] and mask[ACTION_PICK_TOP]
        assert mask.sum() == 2

    def test_pick_without_top(self):
        obs = make_obs(cards("KH"), [], [5], 40, phase=Phase.PICK)
        mask = legal_action_mask(obs)
        assert mask[ACTION_PICK_STOCK]
        assert mask.sum() == 1

    def test_reserved_indices_never_legal(self):
        rng = random.Random(1)
        for _ in range(40):
            state = engine.deal(2, rng, validate=False)
            state.phase = rng.choice(list(Phase))
            obs = engine.observation_for(state, 0)
            mask = legal_action_mask(obs)
            assert not mask[113:].any()

    def test_discard_mask_matches_hand(self):
        hand = cards("5H", "5S", "5D", "2C", "9H")
        obs = make_obs(hand, [single(c("KC"))], [5], 40, phase=Phase.DISCARD)
        mask = legal_action_mask(obs)
        for card in hand:
            assert mask[2 + engine.card_index(card)]
        assert mask[54 + 4]  # the full set of fives
        assert mask[2:54].sum() == 5
        assert mask[54:67].sum() == 1
        assert mask[67:111].sum() == 0

    def test_run_action_takes_longest_run(self):
        hand = cards("AC", "2C", "3C", "4C", "KH")
        obs = make_obs(hand, [single(c("KC"))], [5], 40, phase=Phase.DISCARD)
        table = action_table(obs)
        start_ace = 67 + engine.Suit.CLUBS * 11 + 0
        assert table[start_ace].cards == tuple(sorted(cards("AC", "2C", "3C", "4C")))
        start_two = 67 + engine.Suit.CLUBS * 11 + 1
        assert table[start_two].cards == tuple(sorted(cards("2C", "3C", "4C")))
        assert legal_action_mask(obs)[67:111].sum() == 2  # no index for A-2-3

    def test_every_legal_index_maps_to_engine_action(self):
        rng = random.Random(9)
        for _ in range(60):
            state = engine.deal(rng.randrange(2, 6), rng, validate=False)
            state.phase = rng.choice(list(Phase))
            obs = engine.observation_for(state, 0)
            table = action_table(obs)
            legal = engine.legal_actions(obs)
            assert all(action in legal for action in table.values())
            assert set(np.flatnonzero(legal_action_mask(obs))) == set(table)


class TestReplayBuffer:
    def transition(self, tag: float) -> Transition:
        return Transition(
            np.full(117, tag), 0, tag, np.full(117, tag), False, np.zeros(128, bool)
        )

    def test_capacity_and_fifo(self):
        buffer = ReplayBuffer(2000)
        for i in range(2005):
            buffer.push(self.transition(float(i)))
        assert len(buffer) == 2000
        assert buffer.items[0].reward == 5.0  # first five evicted, in order
        assert buffer.items[-1].reward == 2004.0

    def test_sample_without_replacement(self):
        buffer = ReplayBuffer(100)
        for i in range(40):
            buffer.push(self.transition(float(i)))
        batch = buffer.sample(32, random.Random(0))
        rewards = [t.reward for t in batch]
        assert len(set(rewards)) == 32


class TestDqnSelect:
    def make_net(self, seed=0):
        return nn.init_net((117, 16, 128), ("relu", "linear"), np.random.default_rng(seed))

    def test_full_exploration_is_uniform_over_legal(self):
        net = self.make_net()
        mask = np.zeros(128, bool)
        legal = [0, 1, 17, 54, 111]
        mask[legal] = True
        rng = random.Random(123)
        counts = {i: 0 for i in legal}
        trials = 100_000
        state = np.zeros(117)
        for _ in range(trials):
            counts[dqn_select(net, state, 1.0, mask, rng)] += 1
        expected = trials / len(legal)
        chi2 = sum((n - expected) ** 2 / expected for n in counts.values())
        assert chi2 < 18.5  # df=4, alpha=0.001

    def test_greedy_takes_unique_max(self):
        net = self.make_net()
        state = np.ones(117) * 0.1
        q = nn.forward(net, state)
        mask = np.ones(128, bool)
        best = int(np.argmax(q))
        assert dqn_select(net, state, 0.0, mask, random.Random(0)) == best

    def test_greedy_respects_mask(self):
        net = self.make_net()
        state = np.ones(117) * 0.1
        mask = np.zeros(128, bool)
        mask[[3, 77]] = True
        choice = dqn_select(net, state, 0.0, mask, random.Random(0))
        assert choice in (3, 77)

    def test_single_legal_action_any_epsilon(self):
        net = self.make_net()
        mask = np.zeros(128, bool)
        mask[42] = True
        for epsilon in (0.0, 0.5, 1.0):
            assert dqn_select(net, np.zeros(117), epsilon, mask, random.Random(1)) == 42


class TestDqnTrainStep:
    def small_core(self, batch_size=2):
        core = DQNAgentCore(DQNConfig(batch_size=batch_size, lr=1e-3), seed=5)
        return core

    def filled_buffer(self, transitions):
        buffer = ReplayBuffer(2000)
        for t in transitions:
            buffer.push(t)
        return buffer

    def test_terminal_batch_targets_equal_rewards(self):
        core = self.small_core()
        s1, s2 = np.zeros(117), np.ones(117) * 0.5
        mask = np.zeros(128, bool)
        buffer = self.filled_buffer(
            [
                Transition(s1, 3, 7.0, s1, True, mask),
                Transition(s2, 5, -2.0, s2, True, mask),
            ]
        )
        q = nn.forward(core.net, np.stack([s1, s2]))
        expected_loss = float(np.mean((q[[0, 1], [3, 5]] - np.array([7.0, -2.0])) ** 2))
        loss = core.train_step(buffer, random.Random(0))
        assert loss == pytest.approx(expected_loss, rel=1e-12)

    def test_gamma_zero_degenerates_to_rewards(self):
        cfg = DQNConfig(batch_size=2, gamma=0.0)
        core = DQNAgentCore(cfg, seed=5)
        s1, s2 = np.zeros(117), np.ones(117) * 0.5
        next_mask = np.ones(128, bool)
        buffer = self.filled_buffer(
            [
                Transition(s1, 3, 7.0, s2, False, next_mask),
                Transition(s2, 5, -2.0, s1, False, next_mask),
            ]
        )
        q = nn.forward(core.net, np.stack([s1, s2]))
        expected_loss = float(np.mean((q[[0, 1], [3, 5]] - np.array([7.0, -2.0])) ** 2))
        assert core.train_step(buffer, random.Random(0)) == pytest.approx(
            expected_loss, rel=1e-12
        )

    def test_insufficient_buffer_is_noop(self):
        core = self.small_core(batch_size=32)
        buffer = ReplayBuffer(2000)
        assert core.train_step(buffer, random.Random(0)) is None

    def test_target_sync_every_100_steps(self):
        cfg = DQNConfig(batch_size=2, target_sync_every=100)
        core = DQNAgentCore(cfg, seed=7)
        s = np.zeros(117)
        mask = np.zeros(128, bool)
        buffer = self.filled_buffer(
            [Transition(s, i % 4, float(i), s, True, mask) for i in range(8)]
        )
        rng = random.Random(3)

        def nets_equal():
            return all(
                np.array_equal(a.weights, b.weights) and np.array_equal(a.biases, b.biases)
                for a, b in zip(core.net.layers, core.target_net.layers)
            )

        for step in range(1, 201):
            core.train_step(buffer, rng)
            if step % 100 == 0:
                assert nets_equal(), f"target out of sync after step {step}"
            elif step > 1:
                assert not nets_equal(), f"target unexpectedly synced at {step}"


class TestGae:
    def test_single_terminal_step_raw(self):
        returns, _ = gae([1.0], [0.5], [True], 0.99, 0.95)
        assert returns[0] - 0.5 == pytest.approx(0.5)

    def test_lambda_zero_gives_td_residuals(self):
        rewards = [1.0, 2.0, 3.0]
        values = [0.5, 1.0, 1.5]
        dones = [False, False, True]
        returns, _ = gae(rewards, values, dones, 0.9, 0.0)
        raw = returns - np.array(values)
        deltas = [
            1.0 + 0.9 * 1.0 - 0.5,
            2.0 + 0.9 * 1.5 - 1.0,
            3.0 - 1.5,
        ]
        assert np.allclose(raw, deltas)

    def test_normalized_moments(self):
        rng = random.Random(2)
        for _ in range(20):
            n = rng.randrange(2, 50)
            rewards = [rng.uniform(-5, 5) for _ in range(n)]
            values = [rng.uniform(-5, 5) for _ in range(n)]
            dones = [False] * (n - 1) + [True]
            _, adv = gae(rewards, values, dones, 0.99, 0.95)
            assert abs(adv.mean()) < 1e-9
            assert abs(adv.std() - 1.0) < 1e-9

    def test_empty_input(self):
        returns, advantages = gae([], [], [], 0.99, 0.95)
        assert returns.size == 0 and advantages.size == 0


class TestMaskedPolicy:
    def test_illegal_probability_is_zero(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=128) * 5
        mask = np.zeros(128, bool)
        mask[[0, 1, 64]] = True
        probs = masked_policy(logits, mask)
        assert probs[~mask].max() < 1e-12
        assert probs.sum() == pytest.approx(1.0)

    def test_uniform_policy_entropy_is_log_k(self):
        logits = np.zeros(128)
        for k in (2, 5, 17):
            mask = np.zeros(128, bool)
            mask[:k] = True
            probs = masked_policy(logits, mask)
            assert policy_entropy(probs) == pytest.approx(np.log(k), abs=1e-12)


class TestPpoMath:
    def test_clipped_surrogate_example(self):
        # ratio 2.0 with advantage +1 clips to 1.2
        ratios = np.array([2.0])
        advantages = np.array([1.0])
        clipped = np.clip(ratios, 0.8, 1.2)
        objective = np.minimum(ratios * advantages, clipped * advantages)
        assert objective[0] == pytest.approx(1.2)

    def test_grad_matches_vanilla_pg_when_unclipped(self):
        # at ratio 1 with a huge clip window, the surrogate gradient is the
        # plain policy gradient -mean(A * dlogp)
        rng = np.random.default_rng(4)
        batch, k = 6, 10
        logits = rng.normal(size=(batch, k))
        mask = np.ones((batch, k), bool)
        probs = masked_policy(logits, mask)
        actions = rng.integers(0, k, size=batch)
        advantages = rng.normal(size=batch)
        ratios = np.ones(batch)
        got = _actor_grad_logits(probs, actions, advantages, ratios, 1e18, 0.0)
        onehot = np.zeros((batch, k))
        onehot[np.arange(batch), actions] = 1.0
        vanilla = -(advantages[:, None] * (onehot - probs)) / batch
        assert np.allclose(got, vanilla, atol=1e-9)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        batch, k = 4, 6
        logits = rng.normal(size=(batch, k))
        mask = np.ones((batch, k), bool)
        actions = rng.integers(0, k, size=batch)
        advantages = rng.normal(size=batch)
        old_logp = np.log(masked_policy(logits, mask)[np.arange(batch), actions])
        clip, entropy_coef = 0.2, 0.01

        def objective(flat):
            z = flat.reshape(batch, k)
            p = masked_policy(z, mask)
            logp = np.log(p[np.arange(batch), actions])
            r = np.exp(logp - old_logp)
            surr = np.minimum(
                r * advantages, np.clip(r, 1 - clip, 1 + clip) * advantages
            )
            return float(np.mean(surr) + entropy_coef * np.mean(policy_entropy(p)))

        probs = masked_policy(logits, mask)
        ratios = np.ones(batch)
        analytic = _actor_grad_logits(probs, actions, advantages, ratios, clip,
                                      entropy_coef)
        flat = logits.ravel().copy()
        step = 1e-6
        for i in range(len(flat)):
            up, down = flat.copy(), flat.copy()
            up[i] += step
            down[i] -= step
            numeric = (objective(up) - objective(down)) / (2 * step)
            # loss = -objective, so analytic grad should be -numeric
            assert analytic.ravel()[i] == pytest.approx(-numeric, abs=1e-5)

    def test_saturated_clip_kills_gradient(self):
        probs = np.full((1, 4), 0.25)
        actions = np.array([2])
        advantages = np.array([1.0])
        ratios = np.array([2.0])  # above 1+clip with positive advantage
        grad = _actor_grad_logits(probs, actions, advantages, ratios, 0.2, 0.0)
        assert np.allclose(grad, 0.0)


class TestRoundEnv:
    def make_env(self, seed=3, opponents=None):
        opponents = opponents or [RandomAgent()]
        return RoundEnv(opponents, random.Random(seed))

    def test_episode_runs_to_completion(self):
        env = self.make_env()
        state_vec, mask, _ = env.reset()
        done = env.outcome is not None
        steps = 0
        total = 0.0
        while not done:
            legal = np.flatnonzero(mask)
            action = int(legal[0])
            state_vec, mask, step_reward, done, info = env.step(action)
            total += step_reward
            steps += 1
            assert steps < 600
        assert env.outcome is not None
        assert sum(env.outcome.coin_delta) == 0

    def test_valid_discard_rewards_plus_one(self):
        env = self.make_env(seed=11)
        state_vec, mask, obs = env.reset()
        # decline jhyap (or it's the only legal move)
        state_vec, mask, r0, done, _ = env.step(ACTION_DECLINE)
        assert r0 == 0.0 and not done
        legal = np.flatnonzero(mask)
        _, mask, r1, done, _ = env.step(int(legal[0]))
        assert r1 == 1.0 and not done  # a valid discard
        assert env.state.phase is Phase.PICK
        _, _, r2, done, _ = env.step(ACTION_PICK_STOCK)
        assert r2 == 1.0 and not done  # a valid pick

    def test_invalid_action_costs_ten_and_substitutes(self):
        env = self.make_env(seed=12)
        state_vec, mask, obs = env.reset()
        illegal = int(np.flatnonzero(~mask)[0])
        _, _, step_reward, done, info = env.step(illegal)
        assert info["invalid"]
        if not done:
            assert step_reward == -10.0
        # play continued: the engine state advanced past the jhyap check
        assert env.state.phase is not None

    def test_one_observation_per_asked_decision(self, monkeypatch):
        observed, asked, jhyap_values = [], [], []
        original_observation = learning.observation_for
        original_jhyap = HeuristicAgent.decide_jhyap

        def observation_spy(state, seat):
            observed.append(seat)
            return original_observation(state, seat)

        def jhyap_spy(agent, obs, rng):
            jhyap_values.append(obs.hand_value)
            return original_jhyap(agent, obs, rng)

        monkeypatch.setattr(learning, "observation_for", observation_spy)
        monkeypatch.setattr(HeuristicAgent, "decide_jhyap", jhyap_spy)
        def counted(original):
            def decide(agent, obs, rng):
                asked.append(obs.seat)
                return original(agent, obs, rng)
            return decide

        for name in ("decide_discard", "decide_pick"):
            monkeypatch.setattr(HeuristicAgent, name, counted(getattr(HeuristicAgent, name)))
        env = RoundEnv(learning.default_opponents()[:3], random.Random(21))
        learner_views = 0
        for _ in range(8):
            _, mask, _ = env.reset()
            learner_views += 1
            done = env.outcome is not None
            while not done:
                _, mask, _, done, _ = env.step(int(np.flatnonzero(mask)[0]))
                learner_views += 1
        assert jhyap_values and max(jhyap_values) <= 10  # forced declines ask nobody
        assert len(observed) == learner_views + len(asked) + len(jhyap_values)

    def test_settlement_added_to_final_reward(self):
        env = self.make_env(seed=13)
        state_vec, mask, _ = env.reset()
        done = env.outcome is not None
        rewards = []
        while not done:
            legal = np.flatnonzero(mask)
            state_vec, mask, step_reward, done, _ = env.step(int(legal[-1]))
            rewards.append(step_reward)
        delta = env.outcome.coin_delta[env.learner_seat]
        base = rewards[-1] - delta
        assert base in (0.0, 1.0, -10.0)


class TestTraining:
    def test_dqn_smoke(self, tmp_path):
        result = train(
            "dqn",
            opponents=[RandomAgent()],
            episodes=6,
            seed=9,
            checkpoint_every=3,
            out_dir=tmp_path,
        )
        assert len(result.curve) == 6
        assert all(np.isfinite(e.loss) for e in result.curve)
        assert (tmp_path / "dqn_curve.csv").exists()
        assert len(result.checkpoint_paths) == 2
        assert result.checkpoint_paths[0].name == "dqn_ep000003.json"

    def test_ppo_smoke(self, tmp_path):
        result = train(
            "ppo", opponents=[RandomAgent()], episodes=4, seed=9, out_dir=tmp_path
        )
        assert len(result.curve) == 4
        assert all(np.isfinite(e.loss) for e in result.curve)
        assert (tmp_path / "ppo_curve.csv").exists()

    def test_deterministic_curves(self):
        a = train("ppo", opponents=[HeuristicAgent("aggressive")], episodes=3, seed=4)
        b = train("ppo", opponents=[HeuristicAgent("aggressive")], episodes=3, seed=4)
        assert [(e.reward, e.win, e.length) for e in a.curve] == [
            (e.reward, e.win, e.length) for e in b.curve
        ]

    def test_zero_episodes(self):
        result = train("dqn", opponents=[RandomAgent()], episodes=0, seed=1)
        assert result.curve == []
        assert result.checkpoint_paths == []


class TestConvergence:
    def test_constant_series_converges(self):
        assert convergence_check([0.4] * 1000, window=500, threshold=0.001)

    def test_step_at_boundary_fails(self):
        series = [0.0] * 500 + [1.0] * 500
        assert not convergence_check(series, window=500, threshold=0.05)

    def test_drift_inside_threshold(self):
        series = [0.0] * 500 + [0.049] * 500
        assert convergence_check(series, window=500, threshold=0.05)

    def test_short_series_is_not_converged(self):
        assert not convergence_check([0.5] * 999, window=500, threshold=0.05)


class TestCheckpointSelect:
    def write_checkpoint(self, tmp_path, name, seed):
        core = PPOAgentCore(PPOConfig(), seed=seed)
        path = tmp_path / name
        save_learning_checkpoint("ppo", core, path, episode=1)
        return path

    def test_single_checkpoint_returns_itself(self, tmp_path):
        path = self.write_checkpoint(tmp_path, "only.json", 1)
        chosen = checkpoint_select([path], [RandomAgent()], rounds=2, seed=3)
        assert chosen == path

    def test_tie_prefers_later(self, tmp_path):
        first = self.write_checkpoint(tmp_path, "a.json", 1)
        second = tmp_path / "b.json"
        second.write_text(first.read_text())  # identical weights force a tie
        chosen = checkpoint_select([first, second], [RandomAgent()], rounds=2, seed=3)
        assert chosen == second

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            checkpoint_select([])


class TestRLAgentPlay:
    def test_checkpoint_agent_plays_legal_round(self, tmp_path):
        core = PPOAgentCore(PPOConfig(), seed=2)
        path = tmp_path / "ppo.json"
        save_learning_checkpoint("ppo", core, path, episode=1)
        agent = RLAgent.from_checkpoint(path)
        # run_round deals a validated state, so an illegal action raises
        record = run_round([agent, RandomAgent()], [0, 1], random.Random(5))
        assert sum(record.coin_delta) == 0

    def test_kind_mismatch_between_nets_and_kind(self, tmp_path):
        with pytest.raises(ValueError):
            RLAgent("policy", {})
