"""Rules engine for Dhumbal (a.k.a. Jhyap / Yaniv), a draw-and-discard card game.

Players hold 5-card hands from a standard 52-card deck and try to minimise
the point value of their hand (Ace=1, pips at face value, J/Q/K=11/12/13).
Each turn a player may declare "Jhyap" when their hand value is 10 or less
(triggering a showdown), otherwise discards a single card, a same-rank set,
or a same-suit run, then draws from the stockpile or the discard-pile top.

The engine is deterministic given a seeded ``random.Random`` stream and
offers per-step card-conservation checks, a phase machine, and per-player
observations that hide opponent hands. Every player of a round, whatever
the agent, moves through ``step`` and chooses among ``legal_actions``;
``ask`` is the one place that turns the phase into an agent's ``decide_*``
call, and ``forced_decline`` names the one move nobody is asked for.

Legal discards come from one pattern scan over card codes,
``(rank - 1) * 4 + suit`` (a 0..51 int whose order is Card order):
``enumerate_legal_discards`` lists the groups it finds, and
``draw_discard``, the one discard draw, counts them and draws one index as
``rng.randrange`` would. ``random_discard_group`` wraps it for Card hands.
Tests hold every draw to one ``randrange`` over the enumeration, with the
same ``rng`` state after it, and the enumeration to an order derived from
the rules alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum, IntEnum
from itertools import combinations
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence


class GameError(Exception):
    """Base class for rule/state violations raised by the engine."""


class IllegalActionError(GameError):
    """An action that breaks the game rules (wrong phase, illegal group, ...)."""


class Suit(IntEnum):
    CLUBS = 0
    DIAMONDS = 1
    HEARTS = 2
    SPADES = 3


class Card(NamedTuple):
    """A playing card. Tuple ordering is the canonical order: ascending
    rank, ties broken by suit (Clubs < Diamonds < Hearts < Spades)."""

    rank: int  # 1..13; 1=Ace, 11=Jack, 12=Queen, 13=King
    suit: int

    def __str__(self) -> str:
        return f"{RANK_SYMBOLS[self.rank]}{SUIT_SYMBOLS[self.suit]}"


RANK_SYMBOLS = {1: "A", 11: "J", 12: "Q", 13: "K", **{r: str(r) for r in range(2, 11)}}
SUIT_SYMBOLS = {Suit.CLUBS: "♣", Suit.DIAMONDS: "♦", Suit.HEARTS: "♥", Suit.SPADES: "♠"}

FULL_DECK: tuple[Card, ...] = tuple(
    Card(rank, suit) for suit in range(4) for rank in range(1, 14)
)


def card_index(card: Card) -> int:
    """Stable 0..51 index (suit*13 + rank-1), used by bitmap encodings."""
    return card.suit * 13 + card.rank - 1


def card_value(rank: int) -> int:
    """Point value of a rank: Ace=1, 2..10 at face value, J/Q/K=11/12/13.

    With ranks encoded as 1..13 the value function is the identity; the
    function still guards the domain.
    """
    if not 1 <= rank <= 13:
        raise ValueError(f"rank out of range 1..13: {rank}")
    return rank


_rank_of = itemgetter(0)  # Card.rank by position, cheaper than the attribute


def hand_value(hand: Sequence[Card]) -> int:
    """Sum of card values over a hand; 0 for an empty hand."""
    return sum(map(_rank_of, hand))


class GroupKind(IntEnum):
    SINGLE = 0
    SET = 1
    SEQUENCE = 2


# The engine's functions name enum members through module globals like
# these: on CPython 3.11 an attribute lookup on an Enum class costs about
# 140 ns against 20 ns for a global, and search playouts make millions.
_SINGLE, _SET, _SEQUENCE = GroupKind.SINGLE, GroupKind.SET, GroupKind.SEQUENCE


class DiscardGroup(NamedTuple):
    """A legal discard: one card, a same-rank set (>=2), or a same-suit
    run of >=3 consecutive ranks (Ace low, no wrap). ``cards`` is kept in
    canonical order; the pile "top" of a group is its last card."""

    kind: GroupKind
    cards: tuple[Card, ...]

    @property
    def top(self) -> Card:
        return self.cards[-1]

    def value(self) -> int:
        return sum(card.rank for card in self.cards)

    def __str__(self) -> str:
        return " ".join(str(c) for c in self.cards)


def is_valid_sequence(cards: Sequence[Card]) -> bool:
    """True iff >=3 cards of one suit with strictly consecutive ranks.

    Ace counts only as rank 1, so Q-K-A never validates.
    """
    if len(cards) < 3:
        return False
    suit = cards[0].suit
    if any(card.suit != suit for card in cards):
        return False
    ranks = sorted(card.rank for card in cards)
    return all(b == a + 1 for a, b in zip(ranks, ranks[1:]))


def classify_group(cards: Sequence[Card]) -> Optional[GroupKind]:
    """Kind of a candidate discard, or None if the cards form no legal group."""
    if len(cards) == 0 or len(set(cards)) != len(cards):
        return None
    if len(cards) == 1:
        return _SINGLE
    if all(card.rank == cards[0].rank for card in cards):
        return _SET
    if is_valid_sequence(cards):
        return _SEQUENCE
    return None


def make_group(cards: Sequence[Card]) -> DiscardGroup:
    """Build a canonical DiscardGroup from cards, validating legality."""
    kind = classify_group(cards)
    if kind is None:
        raise IllegalActionError(f"not a legal discard group: {[str(c) for c in cards]}")
    return DiscardGroup(kind, tuple(sorted(cards)))


# Card codes. The discard rules and search playouts work on
# ``(rank - 1) * 4 + suit``, a 0..51 int whose order is Card order: sorted
# codes are a canonically sorted hand, and these tables, built once at
# import, map a card to its code and a code back to its card and rank.
CODE_CARD: tuple[Card, ...] = tuple(sorted(FULL_DECK))
CARD_CODE: dict[Card, int] = {card: code for code, card in enumerate(CODE_CARD)}
CODE_RANK: tuple[int, ...] = tuple(card.rank for card in CODE_CARD)

# Per-rank and per-suit weights per code. Summed over a hand, the rank
# weights count each rank in a 3-bit field, so a field of 2 or more (bit 1 or
# 2 set) is a set; the suit weights set bit ``rank - 1`` of a 15-bit field per
# suit, so three consecutive bits in one field are a run.
_RANK_WEIGHT: tuple[int, ...] = tuple(1 << 3 * (card.rank - 1) for card in CODE_CARD)
_SUIT_WEIGHT: tuple[int, ...] = tuple(
    1 << (15 * card.suit + card.rank - 1) for card in CODE_CARD
)
_SET_BITS = sum(0b110 << 3 * field for field in range(13))

# The groups a pattern holds, as positions among its cards: for a rank held
# k times (k <= 4) every subset of size >= 2 in ``combinations`` order, size
# by size; for a run of m cards every window of length >= 3, length by length.
_SET_PICKS = {
    k: [combo for size in range(2, k + 1) for combo in combinations(range(k), size)]
    for k in range(2, 5)
}
_RUN_PICKS = {
    m: [tuple(range(start, start + length))
        for length in range(3, m + 1) for start in range(m - length + 1)]
    for m in range(3, 14)
}

# Every single discard as one shared group: a group is immutable, and most
# discards are singles.
_SINGLE_GROUPS: tuple[DiscardGroup, ...] = tuple(
    DiscardGroup(_SINGLE, (card,)) for card in CODE_CARD
)


def _patterns(cards: list[int]) -> list[tuple[GroupKind, list[int], list[tuple[int, ...]]]]:
    """The sets and runs of a sorted hand of codes, each as its kind, its
    cards and the positions of its groups among them: ranks held twice or
    more in rank order, then maximal runs of 3 or more, suit by suit. Most
    hands hold neither, which one pass over the weights tells."""
    ranks = suits = 0
    for code in cards:
        ranks += _RANK_WEIGHT[code]
        suits += _SUIT_WEIGHT[code]
    found: list[tuple[GroupKind, list[int], list[tuple[int, ...]]]] = []
    n = len(cards)
    if ranks & _SET_BITS:
        i = 0
        while i < n:
            rank = cards[i] >> 2
            j = i + 1
            while j < n and cards[j] >> 2 == rank:
                j += 1
            if j - i >= 2:
                found.append((_SET, cards[i:j], _SET_PICKS[j - i]))
            i = j
    if suits & (suits >> 1) & (suits >> 2):
        for suit in range(4):
            run = [code for code in cards if code & 3 == suit]
            m = len(run)
            i = 0
            while i < m - 2:
                j = i
                while j + 1 < m and run[j + 1] == run[j] + 4:
                    j += 1
                if j - i >= 2:
                    found.append((_SEQUENCE, run[i : j + 1], _RUN_PICKS[j - i + 1]))
                i = j + 1
    return found


def _build_group(kind: GroupKind, codes: Iterable[int]) -> DiscardGroup:
    return DiscardGroup(kind, tuple(map(CODE_CARD.__getitem__, codes)))


def enumerate_legal_discards(hand: Sequence[Card]) -> list[DiscardGroup]:
    """All legal discard groups in a hand, in a deterministic canonical order.

    Singles come first (card order), then same-rank sets (all subsets of
    size >=2 per rank), then same-suit runs (every consecutive window of
    length >=3). Raises on an empty hand. ``draw_discard`` counts the same
    groups in the same order.
    """
    if not hand:
        raise GameError("cannot enumerate discards for an empty hand")
    cards = sorted(map(CARD_CODE.__getitem__, hand))
    groups = [_SINGLE_GROUPS[code] for code in cards]
    for kind, members, picks in _patterns(cards):
        for pick in picks:
            groups.append(_build_group(kind, [members[p] for p in pick]))
    return groups


def draw_discard(
    hand: Iterable[int], rng: random.Random
) -> tuple[DiscardGroup, tuple[int, ...]]:
    """Uniform draw from the legal discards of a hand of card codes: the
    chosen group and its codes, both in ascending order.

    The one draw rule: the groups of ``enumerate_legal_discards`` are
    counted, one index below the count is drawn as ``rng.randrange(count)``
    draws it, and only the chosen group is built. A one-card hand draws
    nothing.
    """
    cards = sorted(hand)
    n = len(cards)
    if n < 2:
        if not n:
            raise GameError("cannot discard from an empty hand")
        return _SINGLE_GROUPS[cards[0]], (cards[0],)
    patterns = _patterns(cards)
    total = n
    for _, _, picks in patterns:
        total += len(picks)
    # rng.randrange(total), inlined: the same getrandbits calls, without
    # the two Python-level calls that cost more than the draw itself
    getrandbits = rng.getrandbits
    bits = total.bit_length()
    index = getrandbits(bits)
    while index >= total:
        index = getrandbits(bits)
    if index < n:
        code = cards[index]
        return _SINGLE_GROUPS[code], (code,)
    index -= n
    for kind, members, picks in patterns:
        if index < len(picks):
            codes = tuple(members[p] for p in picks[index])
            return _build_group(kind, codes), codes
        index -= len(picks)
    raise AssertionError("unreachable: group counts out of sync")


def random_discard_group(hand: Sequence[Card], rng: random.Random) -> DiscardGroup:
    """Uniform draw from enumerate_legal_discards(hand) without building it:
    ``draw_discard`` on the hand's card codes, with the same draws."""
    return draw_discard(map(CARD_CODE.__getitem__, hand), rng)[0]


def shuffle_cards(cards: list, rng: random.Random) -> None:
    """``rng.shuffle(cards)`` with the same draws, for every shuffle of the
    engine and of search: each ``randrange`` is inlined on
    ``rng.getrandbits``, which saves two Python-level calls per card when
    search shuffles a stock for every sampled world."""
    getrandbits = rng.getrandbits
    for i in range(len(cards) - 1, 0, -1):
        bound = i + 1
        bits = bound.bit_length()
        j = getrandbits(bits)
        while j >= bound:
            j = getrandbits(bits)
        cards[i], cards[j] = cards[j], cards[i]


JHYAP_THRESHOLD = 10


def can_declare_jhyap(hand: Sequence[Card]) -> bool:
    """A hand may declare when its value is at most 10 (empty hand counts)."""
    return hand_value(hand) <= JHYAP_THRESHOLD


PAYMENT_CAP = 100  # max coins a single hand contributes to any settlement


def capped_value(hand: Sequence[Card]) -> int:
    return min(hand_value(hand), PAYMENT_CAP)


class Phase(IntEnum):
    JHYAP_CHECK = 0
    DISCARD = 1
    PICK = 2


class PickSource(IntEnum):
    STOCK = 0
    DISCARD_TOP = 1


class JhyapAction(IntEnum):
    DECLARE = 0
    DECLINE = 1


_JHYAP_CHECK, _DISCARD, _PICK = Phase.JHYAP_CHECK, Phase.DISCARD, Phase.PICK
_STOCK, _TOP = PickSource.STOCK, PickSource.DISCARD_TOP
_DECLARE, _DECLINE = JhyapAction.DECLARE, JhyapAction.DECLINE


# One move of the player to act: its type names the phase it belongs to.
Action = JhyapAction | DiscardGroup | PickSource


class EndReason(Enum):
    JHYAP_SHOWDOWN = "jhyap_showdown"
    DECK_EXHAUSTED = "deck_exhausted"
    EMPTY_HAND = "empty_hand"
    TURN_LIMIT = "turn_limit"


# Public events broadcast to observers (belief trackers, UIs).
class Discarded(NamedTuple):
    seat: int
    group: DiscardGroup


class PickedStock(NamedTuple):
    seat: int


class PickedTop(NamedTuple):
    seat: int
    card: Card


class Reshuffled(NamedTuple):
    num_cards: int


PublicEvent = Discarded | PickedStock | PickedTop | Reshuffled


class PlayerState:
    __slots__ = ("hand", "coins")

    def __init__(self, hand: list[Card], coins: int = 10_000):
        self.hand = hand
        self.coins = coins


@dataclass(frozen=True, slots=True)
class RoundOutcome:
    """Settlement of one round. coin_delta always sums to zero."""

    winner: Optional[int]
    coin_delta: tuple[int, ...]
    end_reason: EndReason
    jhyap_declared_by: Optional[int] = None
    jhyap_succeeded: Optional[bool] = None


@dataclass(frozen=True, slots=True)
class Observation:
    """The slice of a round state visible to one player.

    Never contains opponent card identities: the hand is the player's own
    and the discard pile is public (every card in it was played face up).
    During the Pick phase ``discard_top`` is the card the player could
    actually take (the previous actor's group top, never their own).
    """

    seat: int
    num_players: int
    own_hand: tuple[Card, ...]
    discard_top: Optional[Card]
    discard_pile_groups: tuple[DiscardGroup, ...]
    opponent_hand_sizes: tuple[int, ...]  # clockwise starting after seat
    own_coins: int
    avg_opponent_coins: float
    stock_size: int
    turn_count: int
    turn_limit: int
    phase: Phase
    round_index: int

    @property
    def hand_value(self) -> int:
        return hand_value(self.own_hand)

    @property
    def discard_pile_cards(self) -> tuple[Card, ...]:
        return tuple(c for g in self.discard_pile_groups for c in g.cards)


class RoundState:
    """Full hidden state of a round. Mutated in place by the apply_* ops."""

    __slots__ = (
        "players",
        "stock",
        "discard_stack",
        "current_player",
        "turn_count",
        "phase",
        "rng",
        "turn_limit",
        "count_orbits",
        "round_index",
        "validate",
        "events",
    )

    def __init__(
        self,
        players: list[PlayerState],
        stock: list[Card],
        discard_stack: list[DiscardGroup],
        rng: random.Random,
        *,
        turn_limit: int = 100,
        count_orbits: bool = False,
        round_index: int = 0,
        validate: bool = True,
        track_events: bool = False,
    ):
        self.players = players
        self.stock = stock  # top of the pile is the end of the list
        self.discard_stack = discard_stack
        self.current_player = 0
        self.turn_count = 0
        self.phase = _JHYAP_CHECK
        self.rng = rng
        self.turn_limit = turn_limit
        self.count_orbits = count_orbits
        self.round_index = round_index
        self.validate = validate
        # None when nobody listens; the apply_* ops then build no events
        self.events: Optional[list[PublicEvent]] = [] if track_events else None

    @property
    def num_players(self) -> int:
        return len(self.players)

    def clone(self, rng: Optional[random.Random] = None) -> "RoundState":
        """Cheap copy for simulations; checks and event logging stay off."""
        copy = RoundState.__new__(RoundState)
        copy.players = [PlayerState(list(p.hand), p.coins) for p in self.players]
        copy.stock = list(self.stock)
        copy.discard_stack = list(self.discard_stack)
        copy.current_player = self.current_player
        copy.turn_count = self.turn_count
        copy.phase = self.phase
        copy.rng = rng if rng is not None else self.rng
        copy.turn_limit = self.turn_limit
        copy.count_orbits = self.count_orbits
        copy.round_index = self.round_index
        copy.validate = False
        copy.events = None
        return copy

    def all_cards(self) -> list[Card]:
        cards = [c for p in self.players for c in p.hand]
        cards.extend(self.stock)
        cards.extend(c for g in self.discard_stack for c in g.cards)
        return cards

    def _check_conservation(self) -> None:
        cards = self.all_cards()
        assert len(cards) == 52 and len(set(cards)) == 52, "card conservation violated"


def deal(
    num_players: int,
    rng: random.Random,
    *,
    coins: Optional[Sequence[int]] = None,
    turn_limit: int = 100,
    count_orbits: bool = False,
    round_index: int = 0,
    validate: bool = True,
    track_events: bool = False,
) -> RoundState:
    """Shuffle, deal 5 cards per player, flip one card to start the pile.

    The same (seeded rng, num_players) always produces the same state.
    """
    if not 2 <= num_players <= 5:
        raise ValueError(f"num_players must be 2..5, got {num_players}")
    if coins is not None and len(coins) != num_players:
        raise ValueError("coins must match num_players")
    deck = list(FULL_DECK)
    shuffle_cards(deck, rng)
    players = [
        PlayerState([], 10_000 if coins is None else coins[i]) for i in range(num_players)
    ]
    for _ in range(5):  # round-robin, one card at a time
        for player in players:
            player.hand.append(deck.pop())
    flip = deck.pop()
    state = RoundState(
        players,
        deck,
        [DiscardGroup(_SINGLE, (flip,))],
        rng,
        turn_limit=turn_limit,
        count_orbits=count_orbits,
        round_index=round_index,
        validate=validate,
        track_events=track_events,
    )
    if validate:
        state._check_conservation()
    return state


def skip_jhyap(state: RoundState) -> None:
    """Decline (or be ineligible for) a declaration; move to the Discard phase."""
    if state.phase is not _JHYAP_CHECK:
        raise IllegalActionError("can only pass on Jhyap at the start of a turn")
    state.phase = _DISCARD


def apply_discard(state: RoundState, group: DiscardGroup) -> None:
    """Remove the group's cards from the current hand and push it on the pile.

    The group must be legal for the hand; the discarder cannot pick any of
    these cards back this turn.
    """
    if state.phase is not _DISCARD:
        raise IllegalActionError("not in the Discard phase")
    player = state.players[state.current_player]
    kind = classify_group(group.cards)
    if kind is None or kind != group.kind:
        raise IllegalActionError(f"not a legal discard group: {group}")
    hand_set = set(player.hand)
    if not set(group.cards) <= hand_set:
        raise IllegalActionError(f"group contains cards not in hand: {group}")
    for card in group.cards:
        player.hand.remove(card)
    state.discard_stack.append(group)
    state.phase = _PICK
    if state.events is not None:
        state.events.append(Discarded(state.current_player, group))
    if state.validate:
        state._check_conservation()


def pickable_top(state: RoundState) -> Optional[Card]:
    """The card a picker may take: top of the group below their own.

    The pile top itself is always the current player's just-played group,
    which is out of bounds for them.
    """
    if len(state.discard_stack) < 2:
        return None
    return state.discard_stack[-2].top


def _reshuffle_into_stock(state: RoundState) -> None:
    """Shuffle every pile group except the newest back into the stock."""
    if len(state.discard_stack) < 2:
        return
    cards = [c for g in state.discard_stack[:-1] for c in g.cards]
    state.discard_stack = [state.discard_stack[-1]]
    shuffle_cards(cards, state.rng)
    state.stock = cards
    if state.events is not None:
        state.events.append(Reshuffled(len(cards)))


def apply_pick(state: RoundState, source: PickSource) -> Card:
    """Draw one card into the current hand, then pass the turn.

    Stock draws reshuffle the older discards back in whenever the stock
    runs dry (the newest group always stays on the pile). The turn counter
    advances per player action, or per full orbit when ``count_orbits``.
    """
    if state.phase is not _PICK:
        raise IllegalActionError("not in the Pick phase")
    seat = state.current_player
    players = state.players
    if source is _STOCK:
        if not state.stock:
            _reshuffle_into_stock(state)
            if not state.stock:
                raise IllegalActionError("stock is exhausted and cannot be refilled")
        card = state.stock.pop()
        players[seat].hand.append(card)
        if state.events is not None:
            state.events.append(PickedStock(seat))
        if not state.stock:
            _reshuffle_into_stock(state)
    else:
        stack = state.discard_stack
        if len(stack) < 2:
            raise IllegalActionError("no discard top available to pick")
        group = stack[-2]  # the top of the group below the picker's own
        card = group.cards[-1]
        if len(group.cards) > 1:
            stack[-2] = DiscardGroup(group.kind, group.cards[:-1])
        else:
            del stack[-2]
        players[seat].hand.append(card)
        if state.events is not None:
            state.events.append(PickedTop(seat, card))

    next_player = seat + 1 if seat + 1 < len(players) else 0
    if next_player == 0 or not state.count_orbits:
        state.turn_count += 1
    state.current_player = next_player
    state.phase = _JHYAP_CHECK
    if state.validate:
        state._check_conservation()
    return card


def _settle_showdown(state: RoundState, winner: int) -> tuple[int, ...]:
    """Winner collects each loser's capped hand value. Zero-sum by design."""
    deltas = [0] * state.num_players
    for seat, player in enumerate(state.players):
        if seat != winner:
            payment = capped_value(player.hand)
            deltas[seat] = -payment
            deltas[winner] += payment
    assert sum(deltas) == 0
    return tuple(deltas)


def resolve_jhyap(state: RoundState, declarer: Optional[int] = None) -> RoundOutcome:
    """Showdown after a declaration.

    The declarer wins only with the uniquely lowest hand value; every loser
    then pays their capped hand value. Otherwise the winner is the first
    non-declarer clockwise from the declarer with the lowest non-declarer
    value, and the declarer alone pays the sum of all players' capped hand
    values (the winner's and their own included).
    """
    if declarer is None:
        declarer = state.current_player
    if state.phase is not _JHYAP_CHECK or declarer != state.current_player:
        raise IllegalActionError("Jhyap may only be declared at the start of one's turn")
    values = [hand_value(p.hand) for p in state.players]
    if values[declarer] > JHYAP_THRESHOLD:
        raise IllegalActionError(
            f"cannot declare Jhyap with hand value {values[declarer]} > {JHYAP_THRESHOLD}"
        )
    n = state.num_players
    others = [s for s in range(n) if s != declarer]
    lowest_other = min(values[s] for s in others)
    if values[declarer] < lowest_other:
        deltas = _settle_showdown(state, declarer)
        return RoundOutcome(
            winner=declarer,
            coin_delta=deltas,
            end_reason=EndReason.JHYAP_SHOWDOWN,
            jhyap_declared_by=declarer,
            jhyap_succeeded=True,
        )
    # Failed declaration: tie priority goes clockwise from the declarer's left.
    winner = next(
        s
        for k in range(1, n)
        for s in [(declarer + k) % n]
        if s != declarer and values[s] == lowest_other
    )
    total = sum(min(v, PAYMENT_CAP) for v in values)
    deltas = [0] * n
    deltas[declarer] -= total
    deltas[winner] += total
    return RoundOutcome(
        winner=winner,
        coin_delta=tuple(deltas),
        end_reason=EndReason.JHYAP_SHOWDOWN,
        jhyap_declared_by=declarer,
        jhyap_succeeded=False,
    )


def round_termination(state: RoundState) -> Optional[RoundOutcome]:
    """Non-declaration round endings, or None while the round is live.

    An emptied hand wins immediately and settles like a showdown at value
    zero. Hitting the turn limit, or facing a pick with an empty stock and
    no reachable discard top, ends the round as a draw with no transfers.
    """
    for seat, player in enumerate(state.players):
        if not player.hand:
            return RoundOutcome(
                winner=seat,
                coin_delta=_settle_showdown(state, seat),
                end_reason=EndReason.EMPTY_HAND,
            )
    if state.turn_count >= state.turn_limit:
        return RoundOutcome(
            winner=None,
            coin_delta=(0,) * state.num_players,
            end_reason=EndReason.TURN_LIMIT,
        )
    if state.phase is _PICK and not state.stock and len(state.discard_stack) < 2:
        return RoundOutcome(
            winner=None,
            coin_delta=(0,) * state.num_players,
            end_reason=EndReason.DECK_EXHAUSTED,
        )
    return None


def legal_actions(view: RoundState | Observation) -> list[Action]:
    """The legal actions of the player to act, from the full state or from
    that player's own observation (both give the same list).

    The order is part of the contract, since search draws among candidates
    by index: DECLARE before DECLINE, discards in ``enumerate_legal_discards``
    order, STOCK before DISCARD_TOP. Stock stays legal while a reshuffle can
    refill it; the top is legal when a group lies below the mover's own.
    """
    if isinstance(view, Observation):
        hand = view.own_hand
        stock, groups = view.stock_size, len(view.discard_pile_groups)
    else:
        hand = view.players[view.current_player].hand
        stock, groups = len(view.stock), len(view.discard_stack)
    if view.phase is _JHYAP_CHECK:
        if can_declare_jhyap(hand):
            return [_DECLARE, _DECLINE]
        return [_DECLINE]
    if view.phase is _DISCARD:
        return enumerate_legal_discards(hand)
    actions: list[Action] = []
    if stock or groups >= 2:
        actions.append(_STOCK)
    if groups >= 2:
        actions.append(_TOP)
    return actions


def step(state: RoundState, action: Action) -> Optional[RoundOutcome]:
    """Apply one action of the player to act; the outcome if the round ends.

    DECLARE settles the showdown and DECLINE only opens the Discard phase.
    After a discard or a pick the result is what ``round_termination``
    reports, so a round that is live after ``deal`` ends exactly when a
    ``step`` returns an outcome.
    """
    if isinstance(action, JhyapAction):
        if action is _DECLARE:
            return resolve_jhyap(state)
        skip_jhyap(state)
        return None
    if isinstance(action, DiscardGroup):
        apply_discard(state, action)
    else:
        apply_pick(state, action)
    return round_termination(state)


def forced_decline(state: RoundState) -> bool:
    """True at a Jhyap check whose mover holds more than the threshold:
    DECLINE is the only legal action, so callers play it without asking."""
    return state.phase is _JHYAP_CHECK and not can_declare_jhyap(
        state.players[state.current_player].hand
    )


def ask(agent, observation: Observation, rng: random.Random) -> Action:
    """The action ``agent`` chooses at ``observation``: the one place that
    turns a phase into an agent call. A Jhyap check asks ``decide_jhyap``,
    whose bool becomes DECLARE or DECLINE, a discard ``decide_discard`` and
    a pick ``decide_pick``. Callers play a forced decline without asking;
    see ``forced_decline``."""
    phase = observation.phase
    if phase is _JHYAP_CHECK:
        return _DECLARE if agent.decide_jhyap(observation, rng) else _DECLINE
    if phase is _DISCARD:
        return agent.decide_discard(observation, rng)
    return agent.decide_pick(observation, rng)


def observation_for(state: RoundState, seat: int) -> Observation:
    """Everything ``seat`` can see, and nothing they cannot."""
    if not 0 <= seat < state.num_players:
        raise ValueError(f"invalid seat {seat}")
    if state.phase is _PICK and seat == state.current_player:
        top = pickable_top(state)
    else:
        top = state.discard_stack[-1].top if state.discard_stack else None
    others = [(seat + k) % state.num_players for k in range(1, state.num_players)]
    return Observation(
        seat=seat,
        num_players=state.num_players,
        own_hand=tuple(sorted(state.players[seat].hand)),
        discard_top=top,
        discard_pile_groups=tuple(state.discard_stack),
        opponent_hand_sizes=tuple(len(state.players[s].hand) for s in others),
        own_coins=state.players[seat].coins,
        avg_opponent_coins=sum(state.players[s].coins for s in others) / len(others),
        stock_size=len(state.stock),
        turn_count=state.turn_count,
        turn_limit=state.turn_limit,
        phase=state.phase,
        round_index=state.round_index,
    )
