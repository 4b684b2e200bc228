from __future__ import annotations

import math
import random
from itertools import combinations
from statistics import fmean

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhumbal import arena, engine, search
from dhumbal.engine import (
    Card,
    DiscardGroup,
    GroupKind,
    JhyapAction,
    Observation,
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
    rollout,
    ucb_score,
)
from helpers import c, cards, make_obs, single


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
        state = engine.deal(3, rng, track_events=True)
        tracker = BeliefTracker(seat=0, num_players=3)
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
            for event in state.events:
                tracker.update(event)
            state.events.clear()
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


def state_snapshot(state):
    return (
        [(list(p.hand), p.coins) for p in state.players],
        list(state.stock),
        list(state.discard_stack),
        state.current_player,
        state.turn_count,
        state.phase,
    )


class TestRollout:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        num_players=st.integers(2, 5),
        turn_limit=st.integers(1, 60),
        count_orbits=st.booleans(),
        warmup=st.integers(0, 80),
        cap=st.integers(0, 300),
    )
    def test_playout_matches_engine_step(
        self, seed, num_players, turn_limit, count_orbits, warmup, cap
    ):
        base = engine.deal(num_players, random.Random(seed), turn_limit=turn_limit,
                           count_orbits=count_orbits, validate=False)
        step_playout(base, random.Random(seed + 1), warmup)  # may end the round
        fast = base.clone(random.Random(seed))
        reference = base.clone(random.Random(seed))
        reference.validate = True
        outcome = search._playout_outcome(fast, fast.rng, cap)
        assert outcome == step_playout(reference, reference.rng, cap)
        assert state_snapshot(fast) == state_snapshot(reference)
        assert fast.rng.getstate() == reference.rng.getstate()

    def test_immediate_settlement_on_emptied_hand(self):
        state = endgame_state()
        state.players[0].hand = []
        state.phase = Phase.PICK  # an empty hand settles before any action
        value = rollout(state, random.Random(0), seat=0)
        assert value == 7.0  # opponent pays min(7, 100)

    def test_zero_sum_over_playouts(self):
        rng = random.Random(4)
        for _ in range(200):
            state = engine.deal(3, rng, validate=False)
            outcome = search._playout_outcome(state, rng, 10_000)
            assert outcome is not None
            assert sum(outcome.coin_delta) == 0

    def test_depth_cap_returns_zero(self):
        state = endgame_state()
        assert rollout(state, random.Random(0), max_depth=0, seat=0) == 0.0

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
            total += rollout(base.clone(rng), rng, max_depth=1_000, seat=0)
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
    expected = engine.make_group(cards("KH", "KD"))
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


def walk_nodes(root):
    queue = [root]
    while queue:
        node = queue.pop()
        yield node
        for stats in node.actions.values():
            if stats.child is not None:
                queue.append(stats.child)


class TestTreeInvariants:
    def run_search(self):
        obs, belief = obvious_declare_obs_and_belief()
        cfg = SearchConfig(iterations=150, time_limit_ms=None)
        tree = search._TreeSearch(cfg, batch_legality=True)
        tree.credit_log = []
        tree.decide(obs, belief, random.Random(8))
        return tree

    def test_child_visits_bounded_by_node_visits(self):
        tree = self.run_search()
        for node in walk_nodes(tree.last_root):
            assert sum(s.visits for s in node.actions.values()) <= node.visits

    def test_means_are_recomputable_from_credits(self):
        tree = self.run_search()
        credited: dict[tuple[int, object], list[float]] = {}
        for node_id, action, value in tree.credit_log:
            credited.setdefault((node_id, action), []).append(value)
        for node in walk_nodes(tree.last_root):
            for action, stats in node.actions.items():
                if stats.visits:
                    values = credited[(id(node), action)]
                    assert len(values) == stats.visits
                    assert stats.mean_reward == pytest.approx(fmean(values), abs=1e-9)

    def test_rewards_bounded_by_settlement_cap(self):
        tree = self.run_search()
        for node in walk_nodes(tree.last_root):
            for stats in node.actions.values():
                assert -400.0 <= stats.mean_reward <= 400.0

    def test_tree_actions_were_legal_somewhere(self):
        tree = self.run_search()
        for node in walk_nodes(tree.last_root):
            for stats in node.actions.values():
                assert stats.avail_count >= 1


class TestSearchAgentFlow:
    def test_agent_plays_a_full_round_legally(self):
        agents = [
            search.SearchAgent("mcts", SearchConfig(iterations=12, time_limit_ms=None)),
            search.SearchAgent("ismcts", SearchConfig(iterations=12, time_limit_ms=None)),
        ]
        # run_round deals a validated state, so an illegal action raises
        record = arena.run_round(agents, [0, 1], random.Random(21))
        assert sum(record.coin_delta) == 0
