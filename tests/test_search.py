from __future__ import annotations

import math
import random
from itertools import combinations
from statistics import fmean
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhumbal import arena, engine, search
from dhumbal.engine import (
    JhyapAction,
    Phase,
    PickSource,
    PlayerState,
    RoundState,
)
from dhumbal.search import (
    BeliefError,
    BeliefState,
    BeliefTracker,
    SearchConfig,
    determinize,
    ismcts_decide,
    mcts_decide,
)
from helpers import c, cards, clone_state, make_group, make_obs, single, state_snapshot


def ucb_score(mean: float, parent_visits: int, visits: int, legal: int, total: int,
              exploration_c: float) -> float:
    """UCB1 with the exploration term scaled by the legality fraction: the
    reference score ``_TreeSearch._select`` must rank by, float for float."""
    if visits == 0:
        return math.inf
    return mean + exploration_c * (legal / total) * math.sqrt(
        math.log(parent_visits) / visits
    )


class TestUcbScore:
    def test_arithmetic(self):
        # mean 0.5, C=sqrt(2), l=d, N=e, n=2 -> 0.5 + sqrt(2)*sqrt(1/2) = 1.5
        score = ucb_score(0.5, math.e, 2, 3, 3, math.sqrt(2))
        assert score == pytest.approx(1.5, abs=1e-12)

    def test_zero_legality_drops_exploration(self):
        assert ucb_score(0.7, 100, 5, 0, 3, math.sqrt(2)) == 0.7

    def test_doubling_worlds_halves_exploration(self):
        base = ucb_score(0.0, 50, 4, 2, 3, 1.0)
        halved = ucb_score(0.0, 50, 4, 2, 6, 1.0)
        assert halved == pytest.approx(base / 2)

    def test_unvisited_is_infinite(self):
        assert ucb_score(0.0, 10, 0, 3, 3, 1.0) == math.inf


class TestBeliefTracker:
    def test_picked_top_becomes_known(self):
        tracker = BeliefTracker(seat=0, num_players=2)
        tracker.update(engine.PickedTop(1, c("7H")))
        assert c("7H") in tracker.known[1]
        assert tracker.hand_sizes[1] == 6

    def test_discard_clears_known_and_counts(self):
        tracker = BeliefTracker(seat=0, num_players=2)
        tracker.update(engine.PickedTop(1, c("7H")))
        tracker.update(engine.Discarded(1, single(c("7H"))))
        assert c("7H") not in tracker.known[1]
        assert tracker.hand_sizes[1] == 5

    def test_stock_pick_only_bumps_size(self):
        tracker = BeliefTracker(seat=0, num_players=3)
        tracker.update(engine.PickedStock(2))
        assert tracker.hand_sizes[2] == 6
        assert tracker.known[2] == set()

    def test_own_actions_ignored(self):
        tracker = BeliefTracker(seat=0, num_players=2)
        tracker.update(engine.PickedTop(0, c("7H")))
        tracker.update(engine.PickedStock(0))
        assert tracker.hand_sizes[1] == 5

    def test_snapshot_unseen_pool(self):
        tracker = BeliefTracker(seat=0, num_players=2)
        tracker.update(engine.PickedTop(1, c("7H")))
        obs = make_obs(cards("AC", "2C"), [single(c("9C"))], [6], 43)
        belief = tracker.snapshot(obs)
        # unseen excludes own hand, pile and the known 7H
        assert len(belief.unseen_pool) == 52 - 2 - 1 - 1
        assert c("7H") not in belief.unseen_pool
        assert belief.known_opponent_cards[1] == frozenset({c("7H")})

    def test_snapshot_rejects_size_mismatch(self):
        tracker = BeliefTracker(seat=0, num_players=2)
        obs = make_obs(cards("AC", "2C"), [single(c("9C"))], [6], 43)
        with pytest.raises(BeliefError):
            tracker.snapshot(obs)


class TestDeterminize:
    def belief_with_pool(self, pool, sizes, known=None):
        return BeliefState(
            unseen_pool=frozenset(pool),
            opponent_hand_sizes=dict(sizes),
            known_opponent_cards={
                seat: frozenset(known.get(seat, ())) if known else frozenset()
                for seat in sizes
            },
        )

    def test_known_card_always_placed(self):
        obs = make_obs(cards("AC", "2C", "3C", "4C", "5C"), [single(c("9C"))], [5], 41)
        pool = [card for card in engine.FULL_DECK
                if card not in cards("AC", "2C", "3C", "4C", "5C", "9C", "3D")]
        belief = self.belief_with_pool(pool, {1: 5}, {1: [c("3D")]})
        rng = random.Random(0)
        for _ in range(50):
            state = determinize(belief, obs, rng)
            assert c("3D") in state.players[1].hand
            assert len(state.players[1].hand) == 5

    def test_fully_known_hand_unique(self):
        known = cards("KH", "KD", "QS")
        obs = make_obs(cards("AC", "2C"), [single(c("9C"))], [3], 46)
        pool = [card for card in engine.FULL_DECK
                if card not in cards("AC", "2C", "9C") + known]
        belief = self.belief_with_pool(pool, {1: 3}, {1: known})
        rng = random.Random(1)
        hands = {tuple(sorted(determinize(belief, obs, rng).players[1].hand))
                 for _ in range(20)}
        assert hands == {tuple(sorted(known))}

    def test_uniform_opponent_hands(self):
        pool = cards("KH", "KD", "QS", "JC", "9D", "8H")
        obs = make_obs(cards("AC", "2C"), [single(c("9C"))], [2], 4)
        belief = self.belief_with_pool(pool, {1: 2})
        rng = random.Random(7)
        combos = {frozenset(pair): 0 for pair in combinations(pool, 2)}
        draws = 1_500 * len(combos)
        for _ in range(draws):
            state = determinize(belief, obs, rng)
            combos[frozenset(state.players[1].hand)] += 1
        expected = draws / len(combos)
        chi2 = sum((n - expected) ** 2 / expected for n in combos.values())
        assert chi2 < 40.0  # df=14, alpha ~ 0.0002

    def test_conservation_from_live_game(self):
        rng = random.Random(11)
        tracker = BeliefTracker(seat=0, num_players=3)
        state = engine.deal(3, rng, observers=[tracker.update])
        # play two full orbits of scripted random moves, feeding the tracker
        for _ in range(6):
            if engine.round_termination(state):
                break
            engine.skip_jhyap(state)
            hand = state.players[state.current_player].hand
            engine.apply_discard(state, engine.random_discard_group(hand, rng))
            if engine.round_termination(state):
                break
            engine.apply_pick(state, engine.legal_actions(state)[0])
        if state.current_player != 0:
            pytest.skip("scripted walk ended off-seat")  # pragma: no cover
        obs = engine.observation_for(state, 0)
        belief = tracker.snapshot(obs)
        sampled = determinize(belief, obs, random.Random(2))
        assert sorted(sampled.all_cards()) == sorted(engine.FULL_DECK)
        for seat in (1, 2):
            assert len(sampled.players[seat].hand) == len(state.players[seat].hand)

    def test_inconsistent_belief_raises(self):
        obs = make_obs(cards("AC", "2C"), [single(c("9C"))], [5], 44)
        belief = self.belief_with_pool(cards("KH", "KD"), {1: 5})
        with pytest.raises(BeliefError):
            determinize(belief, obs, random.Random(0))


class TestSamplePositions:
    def test_same_picks_and_draws_as_rng_sample(self):
        # sizes on both sides of 21, where CPython's sample switches from
        # its pool method to its set method
        for size in range(1, 53):
            for k in range(min(5, size) + 1):
                for seed in range(4):
                    a = random.Random(seed * 10_000 + size * 10 + k)
                    b = random.Random(seed * 10_000 + size * 10 + k)
                    assert search._sample_positions(size, k, a) == b.sample(range(size), k)
                    assert a.getstate() == b.getstate()


def play_with_trackers(seed, num_players):
    """A uniform-random round through ``engine.step`` with a belief tracker
    per seat: yields each live position's state and its mover's tracker."""
    rng = random.Random(seed)
    trackers = [BeliefTracker(seat, num_players) for seat in range(num_players)]
    state = engine.deal(num_players, rng, observers=[t.update for t in trackers])
    while True:
        yield state, trackers[state.current_player]
        legal = engine.legal_actions(state)
        outcome = engine.step(state, legal[rng.randrange(len(legal))])
        if outcome is not None:
            return


class TestRootLegalSet:
    @pytest.mark.parametrize("num_players", [2, 3, 5])
    @pytest.mark.parametrize("seed", range(6))
    def test_worlds_have_the_observations_legal_actions(self, seed, num_players):
        """The tree reuses the root's legal actions for every world it
        samples there; that holds because each world shows the mover's own
        hand, stock size and pile."""
        rng = random.Random(seed)
        for state, tracker in play_with_trackers(seed, num_players):
            obs = engine.observation_for(state, state.current_player)
            belief = tracker.snapshot(obs)
            expected = engine.legal_actions(obs)
            for _ in range(2):
                world = determinize(belief, obs, rng)
                assert engine.legal_actions(world) == expected


def endgame_state() -> RoundState:
    """Tiny fixed endgame: 8 cards in play, 3-action turn limit, no reshuffle."""
    players = [
        PlayerState(cards("AC", "5D")),  # V = 6
        PlayerState(cards("7H")),        # V = 7
    ]
    state = RoundState(
        players,
        stock=cards("2S", "9D", "4C", "6S"),
        discard_stack=[single(c("3C"))],
        rng=random.Random(99),
        turn_limit=3,
        validate=False,
    )
    return state


def oracle_uniform_value(hands, stock, pile, current, phase, turn_count, limit):
    """Expected coin deltas under uniform random play, computed from scratch.

    Independent re-derivation of the round rules on plain tuples; no engine
    calls. Assumes the position never needs a reshuffle (asserted).
    """
    def settle(winner, values):
        deltas = [0, 0]
        loser = 1 - winner
        deltas[loser] = -min(values[loser], 100)
        deltas[winner] = min(values[loser], 100)
        return deltas

    def hv(hand):
        return sum(card.rank for card in hand)

    def legal_groups(hand):
        found = []
        pool = sorted(hand)
        for size in range(1, len(pool) + 1):
            for combo in combinations(pool, size):
                if size == 1:
                    found.append(combo)
                elif len({card.rank for card in combo}) == 1:
                    found.append(combo)
                elif len({card.suit for card in combo}) == 1 and sorted(
                    card.rank for card in combo
                ) == list(range(min(card.rank for card in combo), min(
                    card.rank for card in combo) + size)) and size >= 3:
                    found.append(combo)
        return found

    if phase == "jhyap":
        if turn_count >= limit:
            return [0.0, 0.0]
        value = hv(hands[current])
        cont = oracle_uniform_value(hands, stock, pile, current, "discard",
                                    turn_count, limit)
        if value > 10:
            return cont
        other = 1 - current
        if value < hv(hands[other]):
            declare = settle(current, [hv(hands[0]), hv(hands[1])])
        else:
            total = min(hv(hands[0]), 100) + min(hv(hands[1]), 100)
            declare = [0, 0]
            declare[current] = -total
            declare[other] = total
        return [0.5 * d + 0.5 * k for d, k in zip(declare, cont)]

    if phase == "discard":
        options = legal_groups(hands[current])
        acc = [0.0, 0.0]
        for combo in options:
            remaining = tuple(card for card in hands[current] if card not in combo)
            new_hands = list(hands)
            new_hands[current] = remaining
            new_pile = pile + (tuple(sorted(combo)),)
            if not remaining:
                values = [hv(h) for h in new_hands]
                sub = settle(current, values)
            else:
                sub = oracle_uniform_value(tuple(new_hands), stock, new_pile,
                                           current, "pick", turn_count, limit)
            acc[0] += sub[0] / len(options)
            acc[1] += sub[1] / len(options)
        return acc

    # pick phase: own just-played group is pile[-1]; pickable top below it
    choices = []
    if stock:
        new_hands = list(hands)
        new_hands[current] = hands[current] + (stock[-1],)
        choices.append((tuple(new_hands), stock[:-1], pile))
    else:
        assert len(pile) < 2, "oracle endgame must never require a reshuffle"
    if len(pile) >= 2:
        taken = pile[-2][-1]
        new_hands = list(hands)
        new_hands[current] = hands[current] + (taken,)
        rest = pile[-2][:-1]
        new_pile = (pile[:-2] + ((rest,) if rest else ()) + (pile[-1],))
        choices.append((tuple(new_hands), stock, new_pile))
    if not choices:
        return [0.0, 0.0]
    acc = [0.0, 0.0]
    for new_hands, new_stock, new_pile in choices:
        sub = oracle_uniform_value(new_hands, new_stock, new_pile, 1 - current,
                                   "jhyap", turn_count + 1, limit)
        acc[0] += sub[0] / len(choices)
        acc[1] += sub[1] / len(choices)
    return acc


def step_playout(state, rng, cap):
    """The playout rule driven through engine.step, one action per unit of
    cap: the reference that search._playout_outcome must equal."""
    outcome = engine.round_termination(state)
    while outcome is None and cap > 0:
        cap -= 1
        hand = state.players[state.current_player].hand
        if state.phase is Phase.JHYAP_CHECK:
            declare = engine.can_declare_jhyap(hand) and rng.random() < 0.5
            action = JhyapAction.DECLARE if declare else JhyapAction.DECLINE
        elif state.phase is Phase.DISCARD:
            action = engine.random_discard_group(hand, rng)
        else:
            top = len(engine.legal_actions(state)) == 2 and rng.random() < 0.5
            action = PickSource.DISCARD_TOP if top else PickSource.STOCK
        outcome = engine.step(state, action)
    return outcome


def settle_or_play(state, rng, cap):
    """The ending of a settled state, else the playout's: the check a caller
    that may hold a settled state makes, since the playout kernel plays only
    the live worlds the tree hands it."""
    outcome = engine.round_termination(state)
    return outcome if outcome is not None else search._playout_outcome(state, rng, cap)


class TestRollout:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        num_players=st.integers(2, 5),
        turn_limit=st.integers(1, 60),
        warmup=st.integers(0, 80),
        cap=st.integers(0, 300),
    )
    def test_playout_matches_engine_step(self, seed, num_players, turn_limit, warmup, cap):
        base = engine.deal(num_players, random.Random(seed), turn_limit=turn_limit)
        step_playout(base, random.Random(seed + 1), warmup)  # may end the round
        fast = clone_state(base, random.Random(seed))
        reference = clone_state(base, random.Random(seed))
        reference.validate = True
        outcome = settle_or_play(fast, fast.rng, cap)
        assert outcome == step_playout(reference, reference.rng, cap)
        assert state_snapshot(fast) == state_snapshot(reference)
        assert fast.rng.getstate() == reference.rng.getstate()

    def test_immediate_settlement_on_emptied_hand(self):
        state = endgame_state()
        state.players[0].hand = []
        state.phase = Phase.PICK  # an empty hand settles before any action
        outcome = settle_or_play(state, random.Random(0), 200)
        assert outcome.coin_delta[0] == 7  # opponent pays min(7, 100)

    def test_zero_sum_over_playouts(self):
        rng = random.Random(4)
        for _ in range(200):
            state = engine.deal(3, rng)
            outcome = search._playout_outcome(state, rng, 10_000)
            assert outcome is not None
            assert sum(outcome.coin_delta) == 0

    def test_depth_cap_returns_zero(self):
        """A playout cut off by the cap settles nothing: None, which the
        tree scores as a zero coin change for every seat."""
        state = endgame_state()
        assert search._playout_outcome(state, random.Random(0), 0) is None

    def test_mean_matches_uniform_play_oracle(self):
        base = endgame_state()
        expected = oracle_uniform_value(
            (tuple(sorted(base.players[0].hand)), tuple(sorted(base.players[1].hand))),
            tuple(base.stock),
            tuple(tuple(g.cards) for g in base.discard_stack),
            0,
            "jhyap",
            0,
            3,
        )
        rng = random.Random(42)
        total = 0.0
        n = 10_000
        for _ in range(n):
            outcome = search._playout_outcome(clone_state(base, rng), rng, 1_000)
            total += outcome.coin_delta[0] if outcome is not None else 0
        mean = total / n
        # outcome spread is a few coins; 10k samples pin the mean well inside 0.4
        assert mean == pytest.approx(expected[0], abs=0.4)


def obvious_declare_obs_and_belief():
    """Declaring wins ~+47 with certainty; every continuation is worse."""
    own = cards("2C", "3D")
    known = cards("JS", "QS", "KS", "JH")
    pile = [single(c("9C"))]
    obs = make_obs(own, pile, [4], 52 - 2 - 4 - 1)
    pool = [card for card in engine.FULL_DECK if card not in own + known + [c("9C")]]
    belief = BeliefState(
        unseen_pool=frozenset(pool),
        opponent_hand_sizes={1: 4},
        known_opponent_cards={1: frozenset(known)},
    )
    return obs, belief


def last_discard_obs_and_belief():
    """A one-turn endgame where only the pair discard can score.

    The searcher holds K-K at the discard phase with the turn limit one
    pick away; the opponent's single hidden card is one of {QS, JS, 10S}.
    Exhaustive enumeration over the three consistent worlds: discarding
    the pair empties the hand and wins the opponent's capped hand value,
    mean(12, 11, 10) = +11; either single discard reaches the turn limit
    after the pick, a draw worth exactly 0 in every world.
    """
    own = cards("KH", "KD")
    pool = cards("QS", "JS", "10S")
    pile = [single(c("9C"))]
    obs = make_obs(own, pile, [1], 2, phase=Phase.DISCARD, turn_limit=1)
    belief = BeliefState(
        unseen_pool=frozenset(pool),
        opponent_hand_sizes={1: 1},
        known_opponent_cards={1: frozenset()},
    )
    expected = make_group(cards("KH", "KD"))
    return obs, belief, expected


class TestSearchDecisions:
    def test_single_legal_action_returned_directly(self):
        obs = make_obs(cards("KH", "QD"), [single(c("9C"))], [5], 40)
        belief = BeliefTracker(0, 2)
        # not eligible to declare: only DECLINE is legal at the root
        pool = [card for card in engine.FULL_DECK
                if card not in cards("KH", "QD", "9C")]
        state = BeliefState(frozenset(pool), {1: 5}, {1: frozenset()})
        cfg = SearchConfig(iterations=1, time_limit_ms=None)
        assert mcts_decide(obs, state, cfg, random.Random(0)) is JhyapAction.DECLINE

    @pytest.mark.parametrize("decide", [mcts_decide, ismcts_decide])
    def test_certain_jhyap_is_declared(self, decide):
        obs, belief = obvious_declare_obs_and_belief()
        cfg = SearchConfig(iterations=200, time_limit_ms=None)
        assert decide(obs, belief, cfg, random.Random(3)) is JhyapAction.DECLARE

    @pytest.mark.parametrize("decide", [mcts_decide, ismcts_decide])
    def test_deterministic_given_seed(self, decide):
        obs, belief = obvious_declare_obs_and_belief()
        cfg = SearchConfig(iterations=60, time_limit_ms=None)
        first = decide(obs, belief, cfg, random.Random(9))
        second = decide(obs, belief, cfg, random.Random(9))
        assert first == second

    def test_matches_exhaustive_expectimax(self):
        obs, belief, best_group = last_discard_obs_and_belief()
        # exhaustive oracle over all consistent worlds: pair discard wins
        # min(v, 100) immediately, singles always end in the 0-value draw
        pair_value = fmean(min(card.rank, 100) for card in belief.unseen_pool)
        assert pair_value == 11.0
        cfg = SearchConfig(iterations=500, time_limit_ms=None)
        assert ismcts_decide(obs, belief, cfg, random.Random(1)) == best_group
        assert mcts_decide(obs, belief, cfg, random.Random(1)) == best_group

    def test_ismcts_d1_matches_mcts_choice(self):
        obs, belief, best_group = last_discard_obs_and_belief()
        cfg = SearchConfig(iterations=300, determinizations=1, time_limit_ms=None)
        assert ismcts_decide(obs, belief, cfg, random.Random(5)) == best_group
        assert mcts_decide(obs, belief, cfg, random.Random(5)) == best_group

    def test_monotone_convergence_in_iterations(self):
        obs, belief, best_group = last_discard_obs_and_belief()
        rates = []
        for iterations in (50, 200, 800):
            cfg = SearchConfig(iterations=iterations, time_limit_ms=None)
            hits = sum(
                ismcts_decide(obs, belief, cfg, random.Random(seed)) == best_group
                for seed in range(12)
            )
            rates.append(hits / 12)
        assert rates[0] <= rates[1] + 1e-9 and rates[1] <= rates[2] + 1e-9
        assert rates[-1] == 1.0

    def test_time_limit_returns_best_so_far(self):
        obs, belief = obvious_declare_obs_and_belief()
        cfg = SearchConfig(iterations=10_000, time_limit_ms=50)
        action = ismcts_decide(obs, belief, cfg, random.Random(2))
        assert action in (JhyapAction.DECLARE, JhyapAction.DECLINE)

    @pytest.mark.parametrize("decide", [mcts_decide, ismcts_decide])
    def test_expired_deadline_still_runs_one_iteration(self, decide, monkeypatch):
        """The deadline is read after each iteration: with a clock that is
        past it from the first read on, the search runs once and returns
        the action that iteration visited."""
        readings = iter([0.0])  # the deadline's own reading; every later one is past it
        monkeypatch.setattr(search, "time",
                            SimpleNamespace(perf_counter=lambda: next(readings, 1e9)))
        roots = []
        run_iteration = search._TreeSearch._run_iteration

        def counted(tree, root, *args):
            roots.append(root)
            run_iteration(tree, root, *args)

        monkeypatch.setattr(search._TreeSearch, "_run_iteration", counted)
        obs, belief = obvious_declare_obs_and_belief()
        cfg = SearchConfig(iterations=100, time_limit_ms=1)
        action = decide(obs, belief, cfg, random.Random(2))
        assert len(roots) == 1
        assert roots[0].actions[action].visits == 1


class TestSearchConfig:
    @pytest.mark.parametrize("bad", [
        {"time_limit_ms": 0}, {"time_limit_ms": -5}, {"max_rollout_depth": -1},
        {"iterations": 0}, {"determinizations": 0}, {"exploration_c": 0.0},
    ], ids=["no-time", "negative-time", "negative-depth", "no-iterations",
            "no-worlds", "no-exploration"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            SearchConfig(**bad)

    @pytest.mark.parametrize("field, value", [
        ("iterations", "many"), ("iterations", 2.5), ("iterations", True),
        ("determinizations", 3.0), ("max_rollout_depth", None),
        ("time_limit_ms", 5.5), ("time_limit_ms", False),
        ("exploration_c", "1.4"), ("exploration_c", True),
        ("exploration_c", math.nan), ("exploration_c", math.inf),
        ("exploration_c", -math.inf), ("exploration_c", 10**400),
    ])
    def test_rejects_field_types(self, field, value):
        with pytest.raises(ValueError, match=field):
            SearchConfig(**{field: value})

    def test_smallest_budgets_are_accepted(self):
        cfg = SearchConfig(iterations=1, time_limit_ms=1, max_rollout_depth=0)
        assert (cfg.time_limit_ms, cfg.max_rollout_depth) == (1, 0)


def assert_hands_sorted(state):
    for player in state.players:
        assert player.hand == sorted(player.hand)


class TestSortedHands:
    """The engine keeps every hand sorted, and search's worlds and
    playouts keep them so."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32), num_players=st.integers(2, 5),
           sample_at=st.integers(0, 80))
    def test_after_deal_steps_determinize_and_playout(self, seed, num_players, sample_at):
        rng = random.Random(seed)
        trackers = [BeliefTracker(seat, num_players) for seat in range(num_players)]
        state = engine.deal(num_players, rng, turn_limit=60,
                            observers=[t.update for t in trackers])
        assert_hands_sorted(state)
        outcome = None
        steps = 0
        while outcome is None:
            if steps == sample_at:
                seat = state.current_player
                obs = engine.observation_for(state, seat)
                world = determinize(trackers[seat].snapshot(obs), obs, random.Random(seed))
                assert_hands_sorted(world)
                search._playout_outcome(world, world.rng, 200)
                assert_hands_sorted(world)
            actions = engine.legal_actions(state)
            outcome = engine.step(state, actions[rng.randrange(len(actions))])
            steps += 1
            assert_hands_sorted(state)


class TestSelect:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), batch_legality=st.booleans())
    def test_first_argmax_of_ucb_score(self, data, batch_legality):
        exploration_c = data.draw(st.sampled_from([0.5, 1.0, math.sqrt(2), 3.0]))
        d = data.draw(st.integers(1, 4))
        node = search.InfoNode(0)
        candidates = list(range(data.draw(st.integers(1, 8))))
        legal_counts = {}
        # few distinct values, so that ties are common
        for action in candidates:
            stats = node.actions[action] = search.ActionStats()
            stats.visits = data.draw(st.integers(1, 3))
            stats.total_reward = data.draw(st.sampled_from([-7.0, 0.0, 2.5, 11.0]))
            stats.avail_count = data.draw(st.integers(1, 6))
            legal_counts[action] = data.draw(st.integers(1, d))
        node.visits = data.draw(st.integers(0, 12))
        node.samples = data.draw(st.integers(6, 20))
        scores = [
            ucb_score(
                node.actions[action].mean_reward,
                max(node.visits, 1),
                node.actions[action].visits,
                legal_counts[action] if batch_legality else node.actions[action].avail_count,
                d if batch_legality else node.samples,
                exploration_c,
            )
            for action in candidates
        ]
        expected = candidates[scores.index(max(scores))]
        tree = search._TreeSearch(SearchConfig(exploration_c=exploration_c), batch_legality)
        assert tree._select(node, candidates, legal_counts, d) == expected


def walk_nodes(root):
    queue = [root]
    while queue:
        node = queue.pop()
        yield node
        for stats in node.actions.values():
            if stats.child is not None:
                queue.append(stats.child)


_TOTAL_REWARD = search.ActionStats.total_reward  # the slot


class _Tally(float):
    """A read of ``total_reward``: adding to it logs the addend itself."""

    __slots__ = ("stats",)

    def __add__(self, addend):
        self.stats.credits.append(addend)
        return float(self) + addend


class RecordingStats(search.ActionStats):
    """``ActionStats`` that keeps every credit added to ``total_reward``,
    apart from the total, so an overwrite or a changed credit shows."""

    __slots__ = ("credits",)

    def __init__(self):
        self.credits = []
        super().__init__()

    @property
    def total_reward(self):
        tally = _Tally(_TOTAL_REWARD.__get__(self))
        tally.stats = self
        return tally

    @total_reward.setter
    def total_reward(self, value):
        _TOTAL_REWARD.__set__(self, float(value))


def credit_counts(root):
    return {
        id(stats): len(stats.credits)
        for node in walk_nodes(root)
        for stats in node.actions.values()
    }


class TestTreeInvariants:
    @pytest.fixture(autouse=True)
    def recording_stats(self, monkeypatch):
        """Credits recorded on each edge, and each iteration's credits
        checked against the mean coin change of the settlements that
        iteration reached: in the tree (``step``) or in playouts (a
        playout cut at its depth counts as no change)."""
        monkeypatch.setattr(search, "ActionStats", RecordingStats)
        results = []

        def recording_step(world, action):
            outcome = engine.step(world, action)
            if outcome is not None:
                results.append(outcome.coin_delta)
            return outcome

        def recording_playout(world, rng, max_actions):
            num_players = world.num_players
            outcome = playout(world, rng, max_actions)
            results.append(outcome.coin_delta if outcome is not None else (0,) * num_players)
            return outcome

        def checked_iteration(tree, root, root_actions, worlds, rng):
            results.clear()
            before = credit_counts(root)
            run_iteration(tree, root, root_actions, worlds, rng)
            mean_delta = [sum(deltas) / len(results) for deltas in zip(*results)]
            for node in walk_nodes(root):
                for stats in node.actions.values():
                    for credit in stats.credits[before.get(id(stats), 0):]:
                        assert credit == mean_delta[node.mover]

        playout = search._playout_outcome
        run_iteration = search._TreeSearch._run_iteration
        monkeypatch.setattr(search, "step", recording_step)
        monkeypatch.setattr(search, "_playout_outcome", recording_playout)
        monkeypatch.setattr(search._TreeSearch, "_run_iteration", checked_iteration)

    def searched_nodes(self):
        """The nodes of trees searched from a one-level position and from
        a fresh 3-player deal, whose tree has nodes of every seat."""
        trackers = [BeliefTracker(seat, 3) for seat in range(3)]
        state = engine.deal(3, random.Random(5), observers=[t.update for t in trackers])
        while len(engine.legal_actions(state)) == 1:  # a forced decline
            engine.step(state, engine.legal_actions(state)[0])
        obs = engine.observation_for(state, state.current_player)
        positions = [obvious_declare_obs_and_belief(),
                     (obs, trackers[state.current_player].snapshot(obs))]
        for obs, belief in positions:
            cfg = SearchConfig(iterations=150, time_limit_ms=None)
            tree = search._TreeSearch(cfg, batch_legality=True)
            tree.decide(obs, belief, random.Random(8))
            yield from walk_nodes(tree.last_root)

    def test_child_visits_bounded_by_node_visits(self):
        for node in self.searched_nodes():
            assert sum(s.visits for s in node.actions.values()) <= node.visits

    def test_means_are_recomputable_from_credits(self):
        for node in self.searched_nodes():
            for stats in node.actions.values():
                assert len(stats.credits) == stats.visits
                if stats.visits:
                    assert stats.mean_reward == pytest.approx(fmean(stats.credits), abs=1e-9)

    def test_rewards_bounded_by_settlement_cap(self):
        for node in self.searched_nodes():
            for stats in node.actions.values():
                assert -400.0 <= stats.mean_reward <= 400.0

    def test_tree_actions_were_legal_somewhere(self):
        for node in self.searched_nodes():
            for stats in node.actions.values():
                assert stats.avail_count >= 1

    @pytest.mark.parametrize("batch_legality", [False, True], ids=["mcts", "ismcts"])
    def test_children_belong_to_the_seat_that_acts_next(self, batch_legality):
        """A node's statistics are its mover's: after a pick the next seat
        moves, after any other action the same one, whatever the worlds'
        playouts did after the child was built."""
        for num_players in range(2, 6):
            trackers = [BeliefTracker(seat, num_players) for seat in range(num_players)]
            state = engine.deal(num_players, random.Random(num_players),
                                observers=[t.update for t in trackers])
            while len(engine.legal_actions(state)) == 1:  # a forced decline
                engine.step(state, engine.legal_actions(state)[0])
            seat = state.current_player
            obs = engine.observation_for(state, seat)
            cfg = SearchConfig(iterations=60, determinizations=3 if batch_legality else 1,
                               time_limit_ms=None)
            tree = search._TreeSearch(cfg, batch_legality)
            tree.decide(obs, trackers[seat].snapshot(obs), random.Random(8))
            assert tree.last_root.mover == seat
            children = 0
            for node in walk_nodes(tree.last_root):
                for action, stats in node.actions.items():
                    if stats.child is not None:
                        passes = isinstance(action, PickSource)
                        expected = (node.mover + passes) % num_players
                        assert stats.child.mover == expected, (num_players, action)
                        children += 1
            assert children > 1


class TestSearchAgentFlow:
    def test_agent_plays_a_full_round_legally(self):
        agents = [
            search.SearchAgent("mcts", SearchConfig(iterations=12, time_limit_ms=None)),
            search.SearchAgent("ismcts", SearchConfig(iterations=12, time_limit_ms=None)),
        ]
        # run_round deals a validated state, so an illegal action raises
        record = arena.run_round(agents, [0, 1], random.Random(21))
        assert sum(record.coin_delta) == 0
