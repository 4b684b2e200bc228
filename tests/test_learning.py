from __future__ import annotations

import random
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhumbal import arena, engine, learning
from dhumbal import neuralnet as nn
from dhumbal.arena import RandomAgent, build_agent, run_round
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
from helpers import ObservingAgent, c, cards, make_obs, patterned_hands, single


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
            while start + len(run) <= 13 and engine.Card(start + len(run), suit) in hand:
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
        obs = obs._replace(discard_top=top)
    return obs


def reference_encode_state(observation) -> np.ndarray:
    """``encode_state`` card by card, as the module docstring lays out the
    vector: the reference the table-driven encoding must equal byte for byte."""
    vec = np.zeros(learning.STATE_DIM)
    for card in observation.own_hand:
        vec[engine.card_index(card)] = 1.0
    pile_cards = observation.discard_pile_cards
    for card in pile_cards:
        vec[52 + engine.card_index(card)] = 1.0
    vec[104 + observation.seat % 2] = 1.0
    sizes = observation.opponent_hand_sizes
    scalars = (
        observation.hand_value / 65.0,
        observation.turn_count / 100.0,
        (sum(sizes) / len(sizes)) / 5.0 if sizes else 0.0,
        observation.own_coins / 10_000.0,
        len(pile_cards) / 52.0,
        observation.round_index / 1024.0,
    )
    vec[106:112] = np.clip(scalars, 0.0, 1.5)
    vec[112 + int(observation.phase)] = 1.0
    return vec


def reference_action_index(action, hand):
    """``action_index`` on ranks and suits: the index of a legal action, or
    None for a set that leaves a card of its rank in the hand and a run that
    stops short of the longest run from its first card."""
    if isinstance(action, engine.JhyapAction):
        return ACTION_DECLARE if action is engine.JhyapAction.DECLARE else ACTION_DECLINE
    if isinstance(action, PickSource):
        return ACTION_PICK_STOCK if action is PickSource.STOCK else ACTION_PICK_TOP
    first, last = action.cards[0], action.cards[-1]
    if action.kind is engine.GroupKind.SINGLE:
        return 2 + engine.card_index(first)
    if action.kind is engine.GroupKind.SET:
        held = sum(engine.Card(first.rank, suit) in hand for suit in range(4))
        return 54 + first.rank - 1 if held == len(action.cards) else None
    if last.rank < 13 and engine.Card(last.rank + 1, last.suit) in hand:
        return None
    return 67 + first.suit * 11 + first.rank - 1


def reference_table_and_mask(obs) -> tuple[dict, np.ndarray]:
    table = {}
    for action in engine.legal_actions(obs):
        index = reference_action_index(action, obs.own_hand)
        if index is not None:
            table[index] = action
    mask = np.zeros(learning.NUM_ACTIONS, dtype=bool)
    mask[list(table)] = True
    return table, mask


@st.composite
def extreme_observations(draw):
    """Observations past what a round reaches: piles of up to 40 cards in
    groups of 1 to 3, coins from negative to above 15,000, turn counts,
    opponent hand sizes and round indices that the encoding clamps, any
    seat and phase, and no opponents at all."""
    hand = draw(patterned_hands())
    rest = [card for card in engine.FULL_DECK if card not in hand]
    pile = draw(st.lists(st.sampled_from(rest), max_size=40, unique=True))
    groups, start = [], 0
    while start < len(pile):
        size = draw(st.integers(1, 3))
        group = tuple(sorted(pile[start:start + size]))
        groups.append(engine.DiscardGroup(
            engine.GroupKind.SINGLE if size == 1 else engine.GroupKind.SET, group))
        start += size
    return make_obs(
        hand, groups, draw(st.lists(st.integers(0, 20), max_size=4)),
        draw(st.integers(0, 40)),
        phase=draw(st.sampled_from(list(Phase))),
        seat=draw(st.integers(0, 4)),
        turn_count=draw(st.integers(0, 300)),
        own_coins=draw(st.integers(-20_000, 20_000)),
        round_index=draw(st.integers(0, 3_000)),
    )


class TestTableDrivenObservations:
    """The per-card tables give what the card-level references give: the
    same bytes, the same table items in the same order, the same mask."""

    def check(self, obs):
        assert encode_state(obs).tobytes() == reference_encode_state(obs).tobytes()
        table, mask = reference_table_and_mask(obs)
        assert list(action_table(obs).items()) == list(table.items())
        assert legal_action_mask(obs).tobytes() == mask.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(learner_observations())
    def test_live_observations(self, obs):
        self.check(obs)

    @settings(max_examples=300, deadline=None)
    @given(extreme_observations())
    def test_extreme_observations(self, obs):
        self.check(obs)

    def test_observations_of_played_rounds(self):
        rng = random.Random(14)
        for _ in range(40):
            state = engine.deal(rng.randrange(2, 6), rng)
            outcome = None
            while outcome is None:
                for seat in range(len(state.players)):
                    self.check(engine.observation_for(state, seat))
                legal = engine.legal_actions(state)
                outcome = engine.step(state, legal[rng.randrange(len(legal))])


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
            state = engine.deal(rng.randrange(2, 6), rng)
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
            state = engine.deal(2, rng)
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
            state = engine.deal(rng.randrange(2, 6), rng)
            state.phase = rng.choice(list(Phase))
            obs = engine.observation_for(state, 0)
            table = action_table(obs)
            legal = engine.legal_actions(obs)
            assert all(action in legal for action in table.values())
            assert set(np.flatnonzero(legal_action_mask(obs))) == set(table)


def reference_train_step(core, items: deque, rng: random.Random):
    """``DQNAgentCore.train_step`` as it was over a deque of transition
    tuples: the batch drawn by ``rng.sample`` over the deque and stacked,
    the target net synced by a fresh copy."""
    cfg = core.cfg
    if len(items) < cfg.batch_size:
        return None
    batch = rng.sample(list(items), cfg.batch_size)
    states = np.stack([t[0] for t in batch])
    next_states = np.stack([t[3] for t in batch])
    actions = np.array([t[1] for t in batch])
    rewards = np.array([t[2] for t in batch])
    dones = np.array([t[4] for t in batch], dtype=float)
    next_masks = np.stack([t[5] for t in batch])

    next_q = nn.forward(core.target_net, next_states)
    next_q = np.where(next_masks, next_q, -np.inf)
    best_next = np.max(next_q, axis=1)
    best_next = np.where(np.isfinite(best_next), best_next, 0.0)
    targets = rewards + cfg.gamma * (1.0 - dones) * best_next

    q, cache = nn.forward_cache(core.net, states)
    chosen = q[np.arange(len(batch)), actions]
    errors = chosen - targets
    loss = float(np.mean(errors**2))
    grad_out = np.zeros_like(q)
    grad_out[np.arange(len(batch)), actions] = 2.0 * errors / len(batch)
    nn.backward(core.net, cache, grad_out)
    nn.adam_step(core.net, core.optimizer)
    core.train_steps += 1
    if core.train_steps % cfg.target_sync_every == 0:
        core.target_net = core.net.copy()
    return loss


def random_transitions(rng: np.random.Generator, count: int):
    """Distinct transitions with random states, actions, rewards, ends and
    next masks (some with no legal index)."""
    for i in range(count):
        yield (rng.normal(size=117), int(rng.integers(128)), float(i) + rng.normal(),
               rng.normal(size=117), bool(rng.random() < 0.2), rng.random(128) < 0.1)


class TestReplayBuffer:
    def push_tagged(self, buffer: ReplayBuffer, tag: float) -> None:
        buffer.push(np.full(117, tag), 0, tag, np.full(117, tag), False, np.zeros(128, bool))

    def test_capacity_and_fifo(self):
        buffer = ReplayBuffer(2000)
        for i in range(2005):
            self.push_tagged(buffer, float(i))
        assert len(buffer) == 2000
        oldest = buffer.next_row  # the row the next push overwrites
        assert buffer.rewards[oldest] == 5.0  # first five evicted, in order
        assert buffer.rewards[oldest - 1] == 2004.0
        in_order = np.roll(buffer.rewards, -oldest)
        assert np.array_equal(in_order, np.arange(5.0, 2005.0))
        assert np.array_equal(np.roll(buffer.states, -oldest, axis=0)[:, 0], in_order)

    def test_sample_without_replacement(self):
        buffer = ReplayBuffer(100)
        for i in range(40):
            self.push_tagged(buffer, float(i))
        states, actions, rewards, next_states, dones, next_masks = buffer.sample(
            32, random.Random(0))
        assert len(set(rewards.tolist())) == 32
        assert np.array_equal(states[:, 0], rewards)
        assert states.shape == next_states.shape == (32, 117)
        assert next_masks.shape == (32, 128) and next_masks.dtype == bool
        assert actions.shape == dones.shape == (32,)

    def test_wraparound_matches_deque_reference(self):
        """Three times the capacity through a small ring and through a
        ``deque(maxlen=capacity)``: every sample is the reference's stacked
        draw, and leaves the random stream where the reference leaves it."""
        capacity, batch_size = 40, 8
        buffer, reference = ReplayBuffer(capacity), deque(maxlen=capacity)
        rng, reference_rng = random.Random(11), random.Random(11)
        for transition in random_transitions(np.random.default_rng(4), 3 * capacity):
            buffer.push(*transition)
            reference.append(transition)
            assert len(buffer) == len(reference)
            if len(reference) < batch_size:
                continue
            got = buffer.sample(batch_size, rng)
            drawn = reference_rng.sample(list(reference), batch_size)
            expected = (
                np.stack([t[0] for t in drawn]),
                np.array([t[1] for t in drawn]),
                np.array([t[2] for t in drawn]),
                np.stack([t[3] for t in drawn]),
                np.array([t[4] for t in drawn], dtype=float),
                np.stack([t[5] for t in drawn]),
            )
            for column, want in zip(got, expected):
                assert column.dtype == want.dtype
                assert column.tobytes() == want.tobytes()
            assert rng.getstate() == reference_rng.getstate()

    def test_train_step_matches_deque_reference(self):
        """The same core trained through the ring and through the deque
        reference: equal losses at every step, equal nets, equal streams,
        across target syncs and three fills of the ring."""
        cfg = DQNConfig(batch_size=8, lr=1e-3, target_sync_every=10, replay_capacity=40)
        core, reference_core = DQNAgentCore(cfg, seed=6), DQNAgentCore(cfg, seed=6)
        buffer, reference = ReplayBuffer(cfg.replay_capacity), deque(maxlen=cfg.replay_capacity)
        rng, reference_rng = random.Random(2), random.Random(2)
        losses = []
        for transition in random_transitions(np.random.default_rng(8), 3 * cfg.replay_capacity):
            buffer.push(*transition)
            reference.append(transition)
            loss = core.train_step(buffer, rng)
            assert loss == reference_train_step(reference_core, reference, reference_rng)
            assert rng.getstate() == reference_rng.getstate()
            losses.append(loss)
        assert sum(loss is not None for loss in losses) == 3 * cfg.replay_capacity - 7
        assert core.train_steps == reference_core.train_steps == 113
        for name in ("net", "target_net"):
            ours, theirs = getattr(core, name), getattr(reference_core, name)
            assert ours.parameters.tobytes() == theirs.parameters.tobytes()
        assert core.optimizer.first.tobytes() == reference_core.optimizer.first.tobytes()
        assert not np.shares_memory(core.net.parameters, core.target_net.parameters)


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
            buffer.push(*t)
        return buffer

    def test_terminal_batch_targets_equal_rewards(self):
        core = self.small_core()
        s1, s2 = np.zeros(117), np.ones(117) * 0.5
        mask = np.zeros(128, bool)
        buffer = self.filled_buffer(
            [
                (s1, 3, 7.0, s1, True, mask),
                (s2, 5, -2.0, s2, True, mask),
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
                (s1, 3, 7.0, s2, False, next_mask),
                (s2, 5, -2.0, s1, False, next_mask),
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
            [(s, i % 4, float(i), s, True, mask) for i in range(8)]
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

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32), num_opponents=st.integers(1, 4))
    def test_reset_leaves_learner_at_live_jhyap_check(self, seed, num_opponents):
        """The first turn of a round is seat 0's, so no round settles
        before the learner's first decision."""
        env = self.make_env(seed, [RandomAgent() for _ in range(num_opponents)])
        _, mask, obs = env.reset()
        assert env.record is None
        assert env.state.current_player == 0 and obs.seat == 0
        assert obs.phase is Phase.JHYAP_CHECK
        assert mask[ACTION_DECLINE]

    def test_forced_declines_are_learner_steps(self):
        """The learner's seat is played from outside at every move, so a
        Jhyap check it cannot win is still a step with DECLINE alone legal."""
        env = self.make_env(seed=4, opponents=learning.default_opponents())
        forced = 0
        for _ in range(10):
            _, mask, _ = env.reset()
            done = False
            while not done:
                forced += mask.sum() == 1 and bool(mask[ACTION_DECLINE])
                _, mask, _, done, _ = env.step(int(np.flatnonzero(mask)[0]))
        assert forced > 0

    def test_episode_checks_conservation(self, monkeypatch):
        """Training deals validated rounds: every discard and pick of an
        episode runs the card conservation check."""
        calls = []
        check = engine.RoundState._check_conservation

        def counted(state):
            calls.append(state.turn_count)
            check(state)
        monkeypatch.setattr(engine.RoundState, "_check_conservation", counted)
        env = self.make_env()
        _, mask, _ = env.reset()
        assert env.state.validate and len(calls) == 1  # the deal's
        done = False
        while not done:
            _, mask, _, done, _ = env.step(int(np.flatnonzero(mask)[0]))
        assert len(calls) > 1

    def test_episode_runs_to_completion(self):
        env = self.make_env()
        state_vec, mask, _ = env.reset()
        done = env.record is not None
        steps = 0
        total = 0.0
        while not done:
            legal = np.flatnonzero(mask)
            action = int(legal[0])
            state_vec, mask, step_reward, done, info = env.step(action)
            total += step_reward
            steps += 1
            assert steps < 600
        assert env.record is not None
        assert sum(env.record.coin_delta) == 0

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

        # the learner's views are built in learning, the opponents' in the arena
        monkeypatch.setattr(learning, "observation_for", observation_spy)
        monkeypatch.setattr(arena, "observation_for", observation_spy)
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
            done = env.record is not None
            while not done:
                _, mask, _, done, _ = env.step(int(np.flatnonzero(mask)[0]))
                learner_views += 1
        assert jhyap_values and max(jhyap_values) <= 10  # forced declines ask nobody
        assert len(observed) == learner_views + len(asked) + len(jhyap_values)

    def test_events_only_for_observing_opponents(self):
        def play(opponents):
            env = RoundEnv(opponents, random.Random(8))
            rewards, turns, tracked = [], [], []
            for _ in range(4):
                _, mask, _ = env.reset()
                tracked.append(bool(env.state.observers))
                done = False
                while not done:
                    _, mask, reward, done, _ = env.step(int(np.flatnonzero(mask)[-1]))
                    rewards.append(reward)
                turns.append(env.state.turn_count)
            return rewards, turns, tracked

        plain = play([HeuristicAgent("aggressive"), HeuristicAgent("balanced")])
        observer = ObservingAgent("balanced")
        watched = play([HeuristicAgent("aggressive"), observer])
        assert plain[2] == [False] * 4 and watched[2] == [True] * 4
        assert watched[:2] == plain[:2]
        picks = [e for e in observer.events
                 if isinstance(e, (engine.PickedStock, engine.PickedTop))]
        assert len(picks) == sum(watched[1])  # only a pick ends a turn

    def test_settlement_added_to_final_reward(self):
        env = self.make_env(seed=13)
        state_vec, mask, _ = env.reset()
        done = env.record is not None
        rewards = []
        while not done:
            legal = np.flatnonzero(mask)
            state_vec, mask, step_reward, done, _ = env.step(int(legal[-1]))
            rewards.append(step_reward)
        delta = env.record.coin_delta[0]  # the learner sits at seat 0
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

    @pytest.mark.parametrize("checkpoint_every", [1, 2])
    def test_converged_episode_saved_once(self, tmp_path, monkeypatch, checkpoint_every):
        monkeypatch.setattr(learning, "CONVERGENCE_WINDOW", 2)
        result = train(
            "dqn",
            opponents=[RandomAgent()],
            episodes=40,
            seed=3,
            checkpoint_every=checkpoint_every,
            out_dir=tmp_path,
        )
        assert result.converged_at is not None
        assert result.converged_at < 40
        names = [path.name for path in result.checkpoint_paths]
        assert len(names) == len(set(names))
        assert names[-1] == f"dqn_ep{result.converged_at:06d}.json"
        assert all(path.exists() for path in result.checkpoint_paths)

    def test_zero_episodes(self):
        result = train("dqn", opponents=[RandomAgent()], episodes=0, seed=1)
        assert result.curve == []
        assert result.checkpoint_paths == []

    def test_zero_episodes_writes_a_header_only_curve(self, tmp_path):
        result = train("dqn", opponents=[RandomAgent()], episodes=0, seed=1,
                       out_dir=tmp_path)
        assert result.curve == []
        assert result.checkpoint_paths == []
        assert list(tmp_path.glob("*.json")) == []
        curve = (tmp_path / "dqn_curve.csv").read_text().splitlines()
        assert curve == ["episode,reward,win,length,loss"]


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

    @pytest.mark.parametrize("rounds", [0, -1])
    def test_no_validation_round_rejected(self, tmp_path, rounds):
        path = self.write_checkpoint(tmp_path, "only.json", 1)
        with pytest.raises(ValueError, match="rounds"):
            checkpoint_select([path], [RandomAgent()], rounds=rounds, seed=3)


OPPONENT_KINDS = ("aggressive", "conservative", "balanced", "opportunistic", "random")


@pytest.fixture(scope="module")
def learner_checkpoints(tmp_path_factory):
    """A fresh DQN and two fresh PPO checkpoints."""
    out = tmp_path_factory.mktemp("checkpoints")
    paths = []
    for kind, core_class, config, seed in [("dqn", DQNAgentCore, DQNConfig(), 5),
                                           ("ppo", PPOAgentCore, PPOConfig(), 6),
                                           ("ppo", PPOAgentCore, PPOConfig(), 7)]:
        path = out / f"{kind}_{seed}.json"
        save_learning_checkpoint(kind, core_class(config, seed=seed), path, episode=1)
        paths.append(path)
    return paths


def roundenv_wins(agent, opponents, rounds: int, seed: int) -> int:
    """The reference for checkpoint validation: the wins of ``agent`` at
    seat 0 over ``rounds`` RoundEnv episodes, each step its greedy index."""
    env = RoundEnv(opponents, random.Random(seed))
    wins = 0
    for _ in range(rounds):
        state_vec, mask, _ = env.reset()
        done = False
        while not done:
            state_vec, mask, _, done, _ = env.step(agent.greedy_index(state_vec, mask))
        wins += env.record.winner_agent == 0
    return wins


def opponents_of(kinds):
    return [build_agent(kind) for kind in kinds]


class TestOneTurnLoop:
    """RoundEnv and checkpoint validation play through the arena's round."""

    @staticmethod
    def comparable(record):
        # the external seat counts no decisions, cards or step rewards, and
        # decision times are the only nondeterminism of a record
        return replace(record, decision_ms=None, decisions=record.decisions[1:],
                       cards_discarded=record.cards_discarded[1:],
                       rewards=record.rewards[1:])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32),
           kinds=st.lists(st.sampled_from(OPPONENT_KINDS), min_size=1, max_size=4))
    def test_greedy_episode_is_the_agents_round(self, seed, kinds):
        core = PPOAgentCore(PPOConfig(), seed=seed)
        agent = RLAgent("ppo", {"actor": core.actor, "critic": core.critic})
        env = RoundEnv(opponents_of(kinds), random.Random(seed))
        agents = [agent, *opponents_of(kinds)]
        rng = random.Random(seed)
        for _ in range(3):  # consecutive rounds also check that the draws match
            state_vec, mask, _ = env.reset()
            done = False
            while not done:
                state_vec, mask, _, done, _ = env.step(agent.greedy_index(state_vec, mask))
            record = run_round(agents, range(len(agents)), rng)
            assert self.comparable(env.record) == self.comparable(record)
        assert env.rng.getstate() == rng.getstate()

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32),
           kinds=st.lists(st.sampled_from(OPPONENT_KINDS), min_size=1, max_size=4))
    def test_validation_wins_are_the_roundenv_wins(self, learner_checkpoints, seed, kinds):
        rounds = 3
        played = []

        def recorded(*args, **kwargs):
            played.append(run_round(*args, **kwargs))
            return played[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(arena, "run_round", recorded)
            checkpoint_select(learner_checkpoints, opponents_of(kinds), rounds=rounds,
                              seed=seed)
        wins = [sum(record.winner_agent == 0 for record in played[start:start + rounds])
                for start in range(0, len(played), rounds)]
        assert wins == [roundenv_wins(RLAgent.from_checkpoint(path), opponents_of(kinds),
                                      rounds, seed)
                        for path in learner_checkpoints]


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
