from __future__ import annotations

import copy
import pickle
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhumbal import engine
from dhumbal.engine import (
    Card,
    DiscardGroup,
    EndReason,
    GroupKind,
    IllegalActionError,
    JhyapAction,
    Phase,
    PickSource,
    Suit,
)
from helpers import patterned_hands

SUIT_BY_LETTER = {"C": Suit.CLUBS, "D": Suit.DIAMONDS, "H": Suit.HEARTS, "S": Suit.SPADES}
RANK_BY_SYMBOL = {"A": 1, "J": 11, "Q": 12, "K": 13, **{str(r): r for r in range(2, 11)}}


def c(text: str) -> Card:
    """'AH' -> Ace of hearts, '10C' -> ten of clubs."""
    return Card(RANK_BY_SYMBOL[text[:-1]], SUIT_BY_LETTER[text[-1]])


def cards(*texts: str) -> list[Card]:
    return [c(t) for t in texts]


# --- independent oracle: exhaustive subset filtering --------------------

def _oracle_is_set(combo) -> bool:
    return len(combo) >= 2 and len({card.rank for card in combo}) == 1


def _oracle_is_seq(combo) -> bool:
    if len(combo) < 3 or len({card.suit for card in combo}) != 1:
        return False
    ranks = sorted(card.rank for card in combo)
    return ranks == list(range(ranks[0], ranks[0] + len(ranks)))


def oracle_discards(hand) -> set:
    found = set()
    pool = sorted(hand)
    for size in range(1, len(pool) + 1):
        for combo in combinations(pool, size):
            if size == 1:
                found.add((GroupKind.SINGLE, combo))
            elif _oracle_is_set(combo):
                found.add((GroupKind.SET, combo))
            elif _oracle_is_seq(combo):
                found.add((GroupKind.SEQUENCE, combo))
    return found


def as_pairs(groups) -> set:
    return {(g.kind, g.cards) for g in groups}


def oracle_order(hand, pair) -> tuple:
    """Sort key of the canonical discard order, derived from the rules
    alone: singles by card; then sets by rank, size, and suits; then runs
    by suit, the first rank of the hand's maximal run holding them, length,
    and first rank."""
    kind, combo = pair
    if kind == GroupKind.SINGLE:
        return (0, combo[0])
    if kind == GroupKind.SET:
        return (1, combo[0].rank, len(combo), tuple(card.suit for card in combo))
    suit, low = combo[0].suit, combo[0].rank
    first = low
    while first > 1 and Card(first - 1, suit) in hand:
        first -= 1
    return (2, suit, first, len(combo), low)


class TestCardValues:
    """A card is worth its rank (Ace 1, J/Q/K 11/12/13); ``hand_value`` sums them."""

    def test_hand_value_empty(self):
        assert engine.hand_value([]) == 0

    def test_hand_value_small(self):
        assert engine.hand_value(cards("AH", "2C", "3D")) == 6

    def test_hand_value_court(self):
        assert engine.hand_value(cards("KH", "QS", "JD", "10C", "9H")) == 55


class TestCardFormat:
    """A card is an int, its code ``(rank - 1) * 4 + suit``, and still reads,
    prints, orders and pickles as the (rank, suit) pair it names."""

    RANK_TEXT = {1: "A", 11: "J", 12: "Q", 13: "K"}
    SUIT_TEXT = "♣♦♥♠"

    @pytest.mark.parametrize("rank", range(1, 14))
    @pytest.mark.parametrize("suit", range(4))
    def test_fields_code_and_text(self, rank, suit):
        card = Card(rank, suit)
        assert (card.rank, card.suit) == (rank, suit)
        assert int(card) == (rank - 1) * 4 + suit
        assert str(card) == self.RANK_TEXT.get(rank, str(rank)) + self.SUIT_TEXT[suit]
        assert repr(card) == f"Card(rank={rank}, suit={suit})"

    @pytest.mark.parametrize("rank,suit", [(0, 0), (14, 0), (1, 4), (1, -1), (-3, 2)])
    def test_out_of_range_rejected(self, rank, suit):
        with pytest.raises(ValueError):
            Card(rank, suit)

    def test_the_deck_holds_every_code_once(self):
        assert sorted(map(int, engine.FULL_DECK)) == list(range(52))

    def test_order_is_rank_then_suit(self):
        deck = engine.FULL_DECK
        assert sorted(deck) == sorted(deck, key=lambda card: (card.rank, card.suit))
        for a in deck:
            for b in deck:
                assert (a < b) == ((a.rank, a.suit) < (b.rank, b.suit))

    def test_equality_and_hash(self):
        for card in engine.FULL_DECK:
            twin = Card(card.rank, card.suit)
            assert twin == card and hash(twin) == hash(card)
        assert len(set(engine.FULL_DECK)) == 52
        assert Card(5, Suit.HEARTS) != Card(5, Suit.SPADES)
        assert Card(5, Suit.HEARTS) in {c("5H")}

    @pytest.mark.parametrize("copier", [
        *[lambda card, p=p: pickle.loads(pickle.dumps(card, p))
          for p in range(pickle.HIGHEST_PROTOCOL + 1)],
        copy.copy,
        copy.deepcopy,
    ])
    def test_copies_round_trip(self, copier):
        for card in engine.FULL_DECK:
            twin = copier(card)
            assert type(twin) is Card
            assert twin == card and (twin.rank, twin.suit) == (card.rank, card.suit)
        pile = [DiscardGroup(GroupKind.SET, tuple(cards("5H", "5S")))]
        assert copier(pile) == pile


class TestDeal:
    @pytest.mark.parametrize("n,stock", [(2, 41), (3, 36), (4, 31), (5, 26)])
    def test_stock_size(self, n, stock):
        state = engine.deal(n, random.Random(42))
        assert len(state.stock) == stock
        assert all(len(p.hand) == 5 for p in state.players)
        assert len(state.discard_stack) == 1
        assert state.discard_stack[0].kind is GroupKind.SINGLE
        assert state.phase is Phase.JHYAP_CHECK
        assert state.turn_count == 0

    def test_deterministic(self):
        a = engine.deal(4, random.Random(7))
        b = engine.deal(4, random.Random(7))
        assert [p.hand for p in a.players] == [p.hand for p in b.players]
        assert a.stock == b.stock
        assert a.discard_stack == b.discard_stack

    @pytest.mark.parametrize("n", [1, 6, 0])
    def test_bad_player_count(self, n):
        with pytest.raises(ValueError):
            engine.deal(n, random.Random(0))

    def test_conservation_at_deal(self):
        state = engine.deal(5, random.Random(3))
        assert sorted(state.all_cards()) == sorted(engine.FULL_DECK)


class TestSequences:
    def test_aces_low(self):
        assert engine.is_valid_sequence(cards("AC", "2C", "3C"))

    def test_no_wrap(self):
        assert not engine.is_valid_sequence(cards("QH", "KH", "AH"))

    def test_mixed_suit(self):
        assert not engine.is_valid_sequence(cards("4D", "5D", "6H"))

    def test_too_short(self):
        assert not engine.is_valid_sequence(cards("4D", "5D"))

    def test_gap(self):
        assert not engine.is_valid_sequence(cards("4D", "5D", "7D"))


class TestEnumerateLegalDiscards:
    def test_triple_fives(self):
        hand = cards("5H", "5S", "5D", "2C", "9H")
        groups = engine.enumerate_legal_discards(hand)
        assert len(groups) == 9  # 5 singles, 3 pairs, 1 triple
        assert as_pairs(groups) == oracle_discards(hand)

    def test_club_run(self):
        hand = cards("AC", "2C", "3C", "4C", "KH")
        groups = engine.enumerate_legal_discards(hand)
        assert len(groups) == 8  # 5 singles + A23, 234, A234
        assert as_pairs(groups) == oracle_discards(hand)

    def test_lone_card(self):
        groups = engine.enumerate_legal_discards(cards("7D"))
        assert len(groups) == 1
        assert groups[0] == DiscardGroup(GroupKind.SINGLE, (c("7D"),))

    def test_empty_hand_errors(self):
        with pytest.raises(engine.GameError):
            engine.enumerate_legal_discards([])

    def test_deterministic_order(self):
        hand = cards("5H", "5S", "5D", "2C", "9H")
        assert engine.enumerate_legal_discards(hand) == engine.enumerate_legal_discards(hand)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_subset_oracle(self, data):
        size = data.draw(st.integers(1, 7))
        hand = data.draw(
            st.lists(
                st.sampled_from(engine.FULL_DECK), min_size=size, max_size=size, unique=True
            )
        )
        assert as_pairs(engine.enumerate_legal_discards(hand)) == oracle_discards(hand)

    @settings(max_examples=300, deadline=None)
    @given(patterned_hands())
    def test_order_matches_oracle(self, hand):
        groups = engine.enumerate_legal_discards(hand)
        expected = sorted(oracle_discards(hand), key=lambda pair: oracle_order(hand, pair))
        assert [(g.kind, g.cards) for g in groups] == expected


class TestDiscardCount:
    """The count from running weight sums and the pick by index that every
    discard draw, in ``random_discard_group`` and in search playouts, rests on."""

    @staticmethod
    def sums(hand):
        return (
            sum(engine._RANK_WEIGHT[card] for card in hand),
            sum(engine._SUIT_WEIGHT[card] for card in hand),
        )

    @settings(max_examples=300, deadline=None)
    @given(patterned_hands())
    def test_count_from_sums_matches_enumeration(self, hand):
        ranks, suits = self.sums(hand)
        count = engine.discard_count(len(hand), ranks, suits)
        assert count == len(engine.enumerate_legal_discards(hand))

    @pytest.mark.parametrize(
        "hand",
        [
            [Card(rank, Suit.SPADES) for rank in range(1, 14)],  # 66 runs
            [Card(7, suit) for suit in range(4)] + [Card(8, suit) for suit in range(4)],
            list(engine.FULL_DECK),
        ],
    )
    def test_count_of_long_hands(self, hand):
        ranks, suits = self.sums(hand)
        count = engine.discard_count(len(hand), ranks, suits)
        assert count == len(engine.enumerate_legal_discards(hand))

    @settings(max_examples=200, deadline=None)
    @given(patterned_hands())
    def test_every_index_picks_the_enumerated_group(self, hand):
        for index, group in enumerate(engine.enumerate_legal_discards(hand)):
            assert engine.discard_at(sorted(hand), index) == group


class TestRandomDiscardGroup:
    @pytest.mark.parametrize(
        "hand",
        [
            cards("5H", "5S", "5D", "2C", "9H"),
            cards("AC", "2C", "3C", "4C", "KH"),
            cards("7D", "7H", "8H", "9H", "10H"),
        ],
    )
    def test_uniform_over_enumeration(self, hand):
        groups = engine.enumerate_legal_discards(hand)
        rng = random.Random(123)
        draws = 12_000 * len(groups)
        counts = {g: 0 for g in groups}
        for _ in range(draws):
            counts[engine.random_discard_group(hand, rng)] += 1
        expected = draws / len(groups)
        chi2 = sum((obs - expected) ** 2 / expected for obs in counts.values())
        # chi-square critical value at alpha=0.001 stays below 30 for df<=9
        assert chi2 < 30.0

    @settings(max_examples=300, deadline=None)
    @given(hand=patterned_hands(), seed=st.integers(0, 2**32))
    def test_draw_is_one_randrange_over_the_enumeration(self, hand, seed):
        a, b = random.Random(seed), random.Random(seed)
        groups = engine.enumerate_legal_discards(hand)
        # a hand with one legal group discards it without a draw
        index = b.randrange(len(groups)) if len(groups) > 1 else 0
        assert engine.random_discard_group(hand, a) == groups[index]
        assert a.getstate() == b.getstate()

    def test_only_legal_groups(self):
        rng = random.Random(5)
        for _ in range(200):
            hand = rng.sample(engine.FULL_DECK, rng.randrange(1, 8))
            group = engine.random_discard_group(hand, rng)
            assert group in engine.enumerate_legal_discards(hand)


class TestShuffleCards:
    @settings(max_examples=200, deadline=None)
    @given(size=st.integers(0, 60), seed=st.integers(0, 2**32))
    def test_same_permutation_and_draws_as_rng_shuffle(self, size, seed):
        a, b = random.Random(seed), random.Random(seed)
        fast, reference = list(range(size)), list(range(size))
        engine.shuffle_cards(fast, a)
        b.shuffle(reference)
        assert fast == reference
        assert a.getstate() == b.getstate()


class TestJhyapEligibility:
    def test_boundary_ten(self):
        assert engine.can_declare_jhyap(cards("AH", "2C", "3D", "4S"))

    def test_boundary_eleven(self):
        assert not engine.can_declare_jhyap(cards("JD"))

    def test_empty_hand(self):
        assert engine.can_declare_jhyap([])


def fixed_state(hands: list[list[Card]], stock: list[Card], pile: list[DiscardGroup], **kw):
    """Assemble a state from explicit components (no dealing)."""
    players = [engine.PlayerState(list(h)) for h in hands]
    state = engine.RoundState(players, list(stock), list(pile), random.Random(0), **kw)
    return state


def single(card: Card) -> DiscardGroup:
    return DiscardGroup(GroupKind.SINGLE, (card,))


class TestDiscard:
    def test_set_removal(self):
        state = fixed_state(
            [cards("5H", "5S", "2C"), cards("KH", "KD", "KC", "QS", "QD")],
            stock=[card for card in engine.FULL_DECK if card not in cards(
                "5H", "5S", "2C", "KH", "KD", "KC", "QS", "QD", "9C")],
            pile=[single(c("9C"))],
            validate=True,
        )
        state.phase = Phase.DISCARD
        engine.apply_discard(state, engine.make_group(cards("5H", "5S")))
        assert state.players[0].hand == cards("2C")
        assert state.phase is Phase.PICK
        assert state.discard_stack[-1].cards == tuple(sorted(cards("5H", "5S")))

    def test_foreign_card_rejected(self):
        state = fixed_state(
            [cards("5H", "2C"), cards("KH", "KD")],
            stock=[card for card in engine.FULL_DECK if card not in cards(
                "5H", "2C", "KH", "KD", "9C")],
            pile=[single(c("9C"))],
        )
        state.phase = Phase.DISCARD
        with pytest.raises(IllegalActionError):
            engine.apply_discard(state, single(c("AS")))
        assert state.players[0].hand == cards("5H", "2C")

    def test_wrong_phase(self):
        state = engine.deal(2, random.Random(1))
        with pytest.raises(IllegalActionError):
            engine.apply_discard(state, single(state.players[0].hand[0]))

    def test_discarding_whole_hand_ends_round(self):
        state = fixed_state(
            [cards("5H", "5S", "5D"), cards("KH", "KD", "KC", "QS", "QD")],
            stock=[card for card in engine.FULL_DECK if card not in cards(
                "5H", "5S", "5D", "KH", "KD", "KC", "QS", "QD", "9C")],
            pile=[single(c("9C"))],
        )
        state.phase = Phase.DISCARD
        engine.apply_discard(state, engine.make_group(cards("5H", "5S", "5D")))
        outcome = engine.round_termination(state)
        assert outcome is not None
        assert outcome.end_reason is EndReason.EMPTY_HAND
        assert outcome.winner == 0
        # settles as a showdown at hand value 0: opponent pays min(63, 100)
        assert outcome.coin_delta == (63, -63)


class TestPick:
    def make_pick_state(self, stock_cards):
        used = cards("5H", "2C", "KH", "KD", "9C", "3D") + list(stock_cards)
        assert len(set(used)) == len(used)
        state = fixed_state(
            [cards("5H", "2C"), cards("KH", "KD")],
            stock=list(stock_cards),
            pile=[single(c("9C"))],
            validate=False,  # deliberately partial deck to force reshuffles
        )
        state.phase = Phase.DISCARD
        engine.apply_discard(state, single(c("2C")))
        return state

    def test_pick_discard_top(self):
        state = self.make_pick_state(cards("4S", "8D"))
        assert engine.pickable_top(state) == c("9C")
        card = engine.apply_pick(state, PickSource.DISCARD_TOP)
        assert card == c("9C")
        assert c("9C") in state.players[0].hand
        assert state.current_player == 1
        assert state.phase is Phase.JHYAP_CHECK
        assert state.turn_count == 1

    def test_own_group_never_pickable(self):
        state = self.make_pick_state(cards("4S", "8D"))
        # player 0 just discarded 2C; the pickable top must be the older 9C
        assert engine.pickable_top(state) == c("9C")
        assert state.discard_stack[-1].cards == (c("2C"),)

    def test_pick_stock_deterministic(self):
        s1 = self.make_pick_state(cards("4S", "8D"))
        s2 = self.make_pick_state(cards("4S", "8D"))
        assert engine.apply_pick(s1, PickSource.STOCK) == engine.apply_pick(
            s2, PickSource.STOCK
        )

    def test_stock_empties_and_reshuffles(self):
        state = self.make_pick_state(cards("4S"))
        engine.apply_pick(state, PickSource.STOCK)  # takes 4S, stock now empty
        # older groups (the 9C single) reshuffled in; newest group (2C) stays
        assert state.stock == [c("9C")]
        assert [g.cards for g in state.discard_stack] == [(c("2C"),)]

    def test_no_top_errors(self):
        state = fixed_state(
            [cards("5H", "2C"), cards("KH", "KD")],
            stock=[card for card in engine.FULL_DECK if card not in cards(
                "5H", "2C", "KH", "KD", "9C")],
            pile=[single(c("9C"))],
        )
        state.phase = Phase.PICK  # pile holds a single group: nothing pickable
        with pytest.raises(IllegalActionError):
            engine.apply_pick(state, PickSource.DISCARD_TOP)


class TestObservers:
    def test_every_observer_gets_the_events_in_order(self):
        first, second = [], []
        state = engine.deal(2, random.Random(3), observers=[first.append, second.append])
        # one card stays in the stock and the rest lie as singles under the
        # flipped card, so seat 0's stock pick empties the stock
        state.discard_stack[:0] = [single(card) for card in state.stock[:-1]]
        del state.stock[:-1]
        assert engine.step(state, JhyapAction.DECLINE) is None
        group = engine.legal_actions(state)[0]
        assert engine.step(state, group) is None
        assert engine.step(state, PickSource.STOCK) is None
        # every card but the two hands and seat 0's group goes back
        assert len(state.stock) == 52 - 11
        assert first == [
            engine.Discarded(0, group), engine.PickedStock(0), engine.Reshuffled(41)
        ]
        assert second == first

    def test_a_round_nobody_watches_publishes_nothing(self, monkeypatch):
        published = []
        monkeypatch.setattr(engine, "_publish", lambda state, event: published.append(event))
        rng = random.Random(3)
        state = engine.deal(3, rng)
        outcome = None
        while outcome is None:
            legal = engine.legal_actions(state)
            outcome = engine.step(state, legal[rng.randrange(len(legal))])
        assert state.turn_count > 0
        assert published == []
        assert state.clone().observers == ()


class TestResolveJhyap:
    def make_state(self, *hands):
        all_used = [card for h in hands for card in h] + [c("9C")]
        stock = [card for card in engine.FULL_DECK if card not in all_used]
        return fixed_state([list(h) for h in hands], stock, [single(c("9C"))])

    def test_unique_lowest_wins(self):
        # declarer 8; others 15, 20, 30
        state = self.make_state(
            cards("3H", "5C"), cards("7D", "8S"), cards("KH", "7C"), cards("KD", "KC", "4S")
        )
        outcome = engine.resolve_jhyap(state)
        assert outcome.winner == 0
        assert outcome.coin_delta == (65, -15, -20, -30)
        assert outcome.jhyap_succeeded is True
        assert outcome.end_reason is EndReason.JHYAP_SHOWDOWN

    def test_tie_fails_declaration(self):
        # declarer 9, one opponent 9: opponent wins, declarer pays all hands
        state = self.make_state(cards("4H", "5C"), cards("4D", "5S"))
        outcome = engine.resolve_jhyap(state)
        assert outcome.winner == 1
        assert outcome.jhyap_succeeded is False
        assert outcome.coin_delta == (-18, 18)

    def test_failed_tie_order_is_clockwise(self):
        # declarer seat 1 at 9; seats 0 and 2 both at 9 -> seat 2 is first
        # clockwise from the declarer's left
        state = self.make_state(cards("4H", "5C"), cards("4D", "5S"), cards("4C", "5H"))
        state.current_player = 1
        outcome = engine.resolve_jhyap(state)
        assert outcome.winner == 2
        assert outcome.coin_delta == (0, -27, 27)

    def test_overcap_payment(self):
        # a 10-card hand worth 120 pays only 100
        big = cards("KH", "KD", "KC", "KS", "QH", "QD", "QC", "QS", "JH", "9D")
        assert engine.hand_value(big) == 120
        state = self.make_state(cards("AH", "2C"), big)
        outcome = engine.resolve_jhyap(state)
        assert outcome.coin_delta == (100, -100)

    def test_declarer_over_threshold_rejected(self):
        state = self.make_state(cards("KH", "KD"), cards("AH", "2C"))
        with pytest.raises(IllegalActionError):
            engine.resolve_jhyap(state)

    def test_zero_sum_always(self):
        state = self.make_state(cards("AH", "2C"), cards("AD", "2S"), cards("KH", "KD"))
        outcome = engine.resolve_jhyap(state)
        assert sum(outcome.coin_delta) == 0


class TestRoundTermination:
    def test_turn_limit_draw(self):
        state = engine.deal(3, random.Random(5))
        state.turn_count = 100
        outcome = engine.round_termination(state)
        assert outcome is not None
        assert outcome.end_reason is EndReason.TURN_LIMIT
        assert outcome.winner is None
        assert outcome.coin_delta == (0, 0, 0)

    def test_live_round_is_none(self):
        state = engine.deal(3, random.Random(5))
        assert engine.round_termination(state) is None

    def test_dead_deck_draw(self):
        state = fixed_state(
            [cards("5H", "2C"), cards("KH", "KD")],
            stock=[],
            pile=[single(c("9C"))],
        )
        state.phase = Phase.PICK
        outcome = engine.round_termination(state)
        assert outcome is not None
        assert outcome.end_reason is EndReason.DECK_EXHAUSTED
        assert outcome.coin_delta == (0, 0)


def reference_observation(state, seat) -> dict:
    """The observation of ``seat`` spelled out field by field from the
    rules: opponents clockwise from the seat's left, and in the mover's
    Pick phase the top of the group below the mover's own."""
    n = len(state.players)
    stack = state.discard_stack
    if state.phase is Phase.PICK and seat == state.current_player:
        top = stack[-2].cards[-1] if len(stack) >= 2 else None
    else:
        top = stack[-1].cards[-1] if stack else None
    others = [(seat + k) % n for k in range(1, n)]
    return {
        "seat": seat,
        "num_players": n,
        "own_hand": tuple(sorted(state.players[seat].hand)),
        "discard_top": top,
        "discard_pile_groups": tuple(stack),
        "opponent_hand_sizes": tuple(len(state.players[s].hand) for s in others),
        "own_coins": state.players[seat].coins,
        "avg_opponent_coins": sum(state.players[s].coins for s in others) / (n - 1),
        "stock_size": len(state.stock),
        "turn_count": state.turn_count,
        "turn_limit": state.turn_limit,
        "phase": state.phase,
        "round_index": state.round_index,
    }


class TestObservation:
    @pytest.mark.parametrize("num_players", [2, 3, 4, 5])
    def test_matches_field_by_field_reference(self, num_players):
        rng = random.Random(300 + num_players)
        coins = [9_000 + 137 * seat * seat for seat in range(num_players)]
        views = unequal_hands = own_picks = 0
        for round_index in range(8):
            state = engine.deal(num_players, rng, coins=coins, round_index=round_index,
                                turn_limit=40)
            outcome = None
            while outcome is None:
                unequal_hands += len({len(p.hand) for p in state.players}) > 1
                own_picks += state.phase is Phase.PICK
                for seat in range(num_players):
                    obs = engine.observation_for(state, seat)
                    reference = reference_observation(state, seat)
                    assert obs == engine.Observation(**reference)
                    assert type(obs.avg_opponent_coins) is float
                    assert obs.hand_value == engine.hand_value(reference["own_hand"])
                    views += 1
                legal = engine.legal_actions(state)
                outcome = engine.step(state, legal[rng.randrange(len(legal))])
        assert views > 100 and unequal_hands and own_picks

    def test_fields_cannot_be_assigned(self):
        obs = engine.observation_for(engine.deal(3, random.Random(4)), 1)
        with pytest.raises(AttributeError):
            obs.own_coins = 0
        with pytest.raises(AttributeError):
            obs.phase = Phase.PICK
        assert obs.own_coins == 10_000 and obs.phase is Phase.JHYAP_CHECK

    def test_single_opponent_average(self):
        state = engine.deal(2, random.Random(2))
        state.players[1].coins = 10_050
        obs = engine.observation_for(state, 0)
        assert obs.avg_opponent_coins == 10_050

    def test_multi_opponent_average(self):
        state = engine.deal(4, random.Random(2))
        for seat, coins in enumerate([8_000, 10_000, 9_000, 11_000]):
            state.players[seat].coins = coins
        obs = engine.observation_for(state, 0)
        assert obs.avg_opponent_coins == 10_000

    def test_hides_opponent_cards(self):
        state = engine.deal(4, random.Random(11))
        for seat in range(4):
            obs = engine.observation_for(state, seat)
            opponent_cards = {
                card
                for other, p in enumerate(state.players)
                if other != seat
                for card in p.hand
            }
            visible = set(obs.own_hand) | set(obs.discard_pile_cards)
            assert not (visible & opponent_cards)
            assert obs.opponent_hand_sizes == (5, 5, 5)

    def test_pick_phase_top_excludes_own_group(self):
        state = engine.deal(2, random.Random(3))
        flip = state.discard_stack[0].top
        engine.skip_jhyap(state)
        group = single(state.players[0].hand[0])
        engine.apply_discard(state, group)
        obs = engine.observation_for(state, 0)
        assert obs.discard_top == flip  # not the card just discarded
        # a bystander sees the literal pile top
        assert engine.observation_for(state, 1).discard_top == group.top


def random_playout(seed: int, num_players: int):
    """Drive a full round with uniformly random legal actions."""
    rng = random.Random(seed)
    state = engine.deal(num_players, rng)
    while True:
        outcome = engine.round_termination(state)
        if outcome:
            return state, outcome
        hand = state.players[state.current_player].hand
        if engine.can_declare_jhyap(hand) and rng.random() < 0.5:
            return state, engine.resolve_jhyap(state)
        engine.skip_jhyap(state)
        groups = engine.enumerate_legal_discards(hand)
        engine.apply_discard(state, groups[rng.randrange(len(groups))])
        outcome = engine.round_termination(state)
        if outcome:
            return state, outcome
        sources = engine.legal_actions(state)
        engine.apply_pick(state, sources[rng.randrange(len(sources))])


class TestStep:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), num_players=st.integers(2, 5))
    def test_state_and_observation_agree_on_legal_actions(self, seed, num_players):
        rng = random.Random(seed)
        state = engine.deal(num_players, rng, turn_limit=30)
        outcome = None
        while outcome is None:
            legal = engine.legal_actions(state)
            obs = engine.observation_for(state, state.current_player)
            assert engine.legal_actions(obs) == legal
            outcome = engine.step(state, legal[rng.randrange(len(legal))])
        assert sum(outcome.coin_delta) == 0

    def test_action_order_and_endings(self):
        players = [engine.PlayerState(cards("AC", "2D")),
                   engine.PlayerState(cards("KS"))]
        state = engine.RoundState(players, cards("5H"), [single(c("9C"))],
                                  random.Random(0), validate=False)
        assert engine.legal_actions(state) == [JhyapAction.DECLARE, JhyapAction.DECLINE]
        assert engine.step(state, JhyapAction.DECLINE) is None
        assert engine.legal_actions(state) == [single(c("AC")), single(c("2D"))]
        assert engine.step(state, single(c("AC"))) is None
        assert engine.legal_actions(state) == [PickSource.STOCK, PickSource.DISCARD_TOP]
        assert engine.step(state, PickSource.STOCK) is None
        assert engine.legal_actions(state) == [JhyapAction.DECLINE]  # KS is 13
        assert engine.step(state, JhyapAction.DECLINE) is None
        outcome = engine.step(state, single(c("KS")))
        assert outcome.end_reason is EndReason.EMPTY_HAND
        assert outcome.coin_delta == (-7, 7)  # 2D + 5H


class TestFullRoundInvariants:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), num_players=st.integers(2, 5))
    def test_conservation_and_zero_sum(self, seed, num_players):
        state, outcome = random_playout(seed, num_players)
        assert sorted(state.all_cards()) == sorted(engine.FULL_DECK)
        assert sum(outcome.coin_delta) == 0
        assert len(outcome.coin_delta) == num_players
        assert (outcome.jhyap_succeeded is None) == (outcome.jhyap_declared_by is None)

    def test_phase_machine_rejects_out_of_phase_actions(self):
        state = engine.deal(2, random.Random(9))
        with pytest.raises(IllegalActionError):
            engine.apply_pick(state, PickSource.STOCK)
        engine.skip_jhyap(state)
        with pytest.raises(IllegalActionError):
            engine.resolve_jhyap(state)
        with pytest.raises(IllegalActionError):
            engine.apply_pick(state, PickSource.STOCK)
        engine.apply_discard(state, single(state.players[0].hand[0]))
        with pytest.raises(IllegalActionError):
            engine.apply_discard(state, single(state.players[0].hand[0]))
