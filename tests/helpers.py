"""Shared shorthand for building cards, groups and observations in tests."""

from __future__ import annotations

from hypothesis import strategies as st

from dhumbal.engine import (
    FULL_DECK,
    Card,
    DiscardGroup,
    GroupKind,
    IllegalActionError,
    JhyapAction,
    Observation,
    Phase,
    PlayerState,
    RoundState,
    Suit,
    enumerate_legal_discards,
    legal_actions,
)
from dhumbal.heuristics import HeuristicAgent

SUIT_BY_LETTER = {"C": Suit.CLUBS, "D": Suit.DIAMONDS, "H": Suit.HEARTS, "S": Suit.SPADES}
RANK_BY_SYMBOL = {"A": 1, "J": 11, "Q": 12, "K": 13, **{str(r): r for r in range(2, 11)}}


def c(text: str) -> Card:
    """'AH' -> Ace of hearts, '10C' -> ten of clubs."""
    return Card(RANK_BY_SYMBOL[text[:-1]], SUIT_BY_LETTER[text[-1]])


def cards(*texts: str) -> list[Card]:
    return [c(t) for t in texts]


def single(card: Card) -> DiscardGroup:
    return DiscardGroup(GroupKind.SINGLE, (card,))


def make_group(cards) -> DiscardGroup:
    """The group of all of ``cards``, as ``enumerate_legal_discards`` lists
    it for a hand of just those cards; raises when it lists none."""
    for group in enumerate_legal_discards(cards):
        if len(group.cards) == len(cards):
            return group
    raise IllegalActionError(f"not a legal discard group: {[str(c) for c in cards]}")


def clone_state(state: RoundState, rng=None) -> RoundState:
    """A copy of ``state`` at the same turn and phase, drawing from ``rng``
    (the state's own stream when None); it has no observers and runs no
    conservation checks."""
    copy = RoundState(
        [PlayerState(list(p.hand), p.coins) for p in state.players],
        list(state.stock),
        list(state.discard_stack),
        rng if rng is not None else state.rng,
        turn_limit=state.turn_limit,
        round_index=state.round_index,
        validate=False,
    )
    copy.current_player = state.current_player
    copy.turn_count = state.turn_count
    copy.phase = state.phase
    return copy


def state_snapshot(state: RoundState):
    """Everything an action can change in a state, as plain values."""
    return (
        [(list(p.hand), p.coins) for p in state.players],
        list(state.stock),
        list(state.discard_stack),
        state.current_player,
        state.turn_count,
        state.phase,
    )


def make_obs(
    own,
    pile_groups,
    opp_sizes,
    stock_size,
    phase=Phase.JHYAP_CHECK,
    seat=0,
    turn_count=0,
    turn_limit=100,
    own_coins=10_000,
    avg_opponent_coins=10_000.0,
    round_index=0,
):
    return Observation(
        seat=seat,
        num_players=1 + len(opp_sizes),
        own_hand=tuple(sorted(own)),
        discard_top=pile_groups[-1].top if pile_groups else None,
        discard_pile_groups=tuple(pile_groups),
        opponent_hand_sizes=tuple(opp_sizes),
        own_coins=own_coins,
        avg_opponent_coins=avg_opponent_coins,
        stock_size=stock_size,
        turn_count=turn_count,
        turn_limit=turn_limit,
        phase=phase,
        round_index=round_index,
    )


@st.composite
def patterned_hands(draw):
    """Hands of 1 to 8 distinct cards, in any order, that often hold a set
    of 3 or 4 and a run of 5 or more."""
    found = []
    if draw(st.booleans()):
        length = draw(st.integers(3, 8))
        start = draw(st.integers(1, 14 - length))
        suit = draw(st.integers(0, 3))
        found += [Card(rank, suit) for rank in range(start, start + length)]
    if draw(st.booleans()):
        rank = draw(st.integers(1, 13))
        suits = draw(st.lists(st.integers(0, 3), min_size=2, max_size=4, unique=True))
        found += [Card(rank, suit) for suit in suits]
    found += draw(st.lists(st.sampled_from(FULL_DECK), max_size=8))
    hand = list(dict.fromkeys(found))[:8] or [draw(st.sampled_from(FULL_DECK))]
    return draw(st.permutations(hand))


class ObservingAgent(HeuristicAgent):
    """A heuristic seat that also records every public event it is sent."""

    def __init__(self, profile):
        super().__init__(profile)
        self.events = []

    def observe(self, event):
        self.events.append(event)


class FirstLegal:
    """A scripted seat: it declines at every Jhyap check and otherwise plays
    the first legal action, so it discards the first listed group and
    draws from the stock while the stock is legal."""

    def act(self, observation, rng):
        if observation.phase is Phase.JHYAP_CHECK:
            return JhyapAction.DECLINE
        return legal_actions(observation)[0]
