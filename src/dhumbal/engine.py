"""Rules engine for Dhumbal (a.k.a. Jhyap / Yaniv), a draw-and-discard card game.

Players hold 5-card hands from a standard 52-card deck and try to minimise
the point value of their hand (Ace=1, pips at face value, J/Q/K=11/12/13).
Each turn a player may declare "Jhyap" when their hand value is 10 or less
(triggering a showdown), otherwise discards a single card, a same-rank set,
or a same-suit run, then draws from the stockpile or the discard-pile top.

The engine is deterministic given a seeded ``random.Random`` stream and
offers per-step card-conservation checks, a phase machine, and per-player
observations that hide opponent hands. The callables passed to ``deal``
as ``observers`` receive each public event while the ``apply_*`` op that
makes it runs; a round with no observers builds no events. Every player of
a round, whatever the agent, moves through ``step`` and chooses among
``legal_actions``; ``ask`` is the one place that turns the phase into an
agent's ``decide_*`` call, and ``forced_decline`` names the one move nobody
is asked for.

A ``Card`` is an int, its code ``(rank - 1) * 4 + suit`` (0..51, in card
order), so it indexes the engine's per-card tables as it is. Every hand
stays sorted: ``deal`` sorts it, a discard removes cards, a pick inserts.

``enumerate_legal_discards`` lists the groups of one pattern scan. The one
discard draw needs no scan for most hands: ``discard_count`` counts the
groups from a hand's rank and suit weight sums, ``draw_discard_index``
draws one index below the count as ``rng.randrange`` would, and
``discard_at`` builds the group at that index, scanning only when it falls
past the singles. ``random_discard_group`` makes those calls for any hand,
and search playouts make them on sums they keep as they go. Tests hold the
count to the enumeration's length, every draw to one ``randrange`` over the
enumeration with the same ``rng`` state after it, and the enumeration to an
order derived from the rules alone.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from enum import Enum, IntEnum
from itertools import combinations
from typing import Callable, NamedTuple, Optional, Sequence


class GameError(Exception):
    """Base class for rule/state violations raised by the engine."""


class IllegalActionError(GameError):
    """An action that breaks the game rules (wrong phase, illegal group, ...)."""


class Suit(IntEnum):
    CLUBS = 0
    DIAMONDS = 1
    HEARTS = 2
    SPADES = 3


# the rank and the suit of each card code
_RANK_OF: tuple[int, ...] = tuple(code // 4 + 1 for code in range(52))
_SUIT_OF: tuple[int, ...] = tuple(code % 4 for code in range(52))


class Card(int):
    """A playing card, an int equal to its code ``(rank - 1) * 4 + suit``.
    Int order is the canonical order: ascending rank, ties broken by suit
    (Clubs < Diamonds < Hearts < Spades). A rank outside 1..13 or a suit
    outside 0..3 raises ValueError."""

    __slots__ = ()

    def __new__(cls, rank: int, suit: int) -> "Card":
        if not (1 <= rank <= 13 and 0 <= suit <= 3):
            raise ValueError(f"no card has rank {rank} and suit {suit}")
        return int.__new__(cls, (rank - 1) * 4 + suit)

    rank = property(_RANK_OF.__getitem__, doc="1..13; 1=Ace, 11=Jack, 12=Queen, 13=King")
    suit = property(_SUIT_OF.__getitem__, doc="0..3, as ``Suit``")

    def __getnewargs__(self) -> tuple[int, int]:
        return self.rank, self.suit

    def __repr__(self) -> str:
        return f"Card(rank={self.rank}, suit={self.suit})"

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


def hand_value(hand: Sequence[Card]) -> int:
    """Sum of card values over a hand; 0 for an empty hand. A card is worth
    its rank: Ace=1, 2..10 at face value, J/Q/K=11/12/13."""
    return sum(map(_RANK_OF.__getitem__, hand))


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
        return hand_value(self.cards)

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


# Per-rank and per-suit weights per card. Summed over a hand, the rank
# weights count each rank in a 3-bit field, so a field of 2 or more (bit 1 or
# 2 set) is a set; the suit weights set bit ``rank - 1`` of a 15-bit field per
# suit, so three consecutive bits in one field are a run. A field reads 0b010
# for a pair, 0b011 for three of a kind and 0b100 for four, which the masks
# below pick out; bits 13 and 14 of a suit field stay clear, so no run
# crosses into the next suit.
_RANK_WEIGHT: tuple[int, ...] = tuple(1 << 3 * (rank - 1) for rank in _RANK_OF)
_SUIT_WEIGHT: tuple[int, ...] = tuple(
    1 << (15 * suit + rank - 1) for rank, suit in zip(_RANK_OF, _SUIT_OF)
)
_ONE_BITS = sum(0b001 << 3 * field for field in range(13))
_PAIR_BITS, _FOUR_BITS = _ONE_BITS << 1, _ONE_BITS << 2
_SET_BITS = _PAIR_BITS | _FOUR_BITS

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
    DiscardGroup(_SINGLE, (card,)) for card in sorted(FULL_DECK)
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


def enumerate_legal_discards(hand: Sequence[Card]) -> list[DiscardGroup]:
    """All legal discard groups in a hand, in a deterministic canonical order.

    Singles come first (card order), then same-rank sets (all subsets of
    size >=2 per rank), then same-suit runs (every consecutive window of
    length >=3). Raises on an empty hand. ``discard_count`` counts the same
    groups, and ``discard_at`` picks them by index in the same order.
    """
    if not hand:
        raise GameError("cannot enumerate discards for an empty hand")
    cards = sorted(hand)
    groups = [_SINGLE_GROUPS[code] for code in cards]
    for kind, members, picks in _patterns(cards):
        for pick in picks:
            groups.append(DiscardGroup(kind, tuple([members[p] for p in pick])))
    return groups


def discard_count(n: int, ranks: int, suits: int) -> int:
    """How many legal discards a hand of ``n`` codes holds, from the sums of
    its ``_RANK_WEIGHT`` and ``_SUIT_WEIGHT``: the ``n`` singles; 1, 4 or
    11 sets for a rank held 2, 3 or 4 times; and one run per window of 3 or
    more consecutive ranks of a suit, counted length by length as the set
    bits of ``s & s>>1 & s>>2``, then that ``& s>>3``, and so on. No hand
    is scanned to be counted."""
    total = n
    if ranks & _SET_BITS:
        total += (
            (ranks & _PAIR_BITS).bit_count()
            + 3 * (ranks & ranks >> 1 & _ONE_BITS).bit_count()
            + 11 * (ranks & _FOUR_BITS).bit_count()
        )
    windows = suits & suits >> 1 & suits >> 2
    shift = 3
    while windows:
        total += windows.bit_count()
        windows &= suits >> shift
        shift += 1
    return total


def draw_discard_index(n: int, ranks: int, suits: int, rng: random.Random) -> int:
    """The one discard draw: an index into the enumeration of a hand of
    ``n`` codes with the weight sums ``ranks`` and ``suits``, drawn as
    ``rng.randrange(discard_count(n, ranks, suits))`` draws it. A hand with
    one legal discard draws nothing."""
    total = discard_count(n, ranks, suits)
    if total < 2:
        return 0
    # rng.randrange(total), inlined: the same getrandbits calls, without
    # the two Python-level calls that cost more than the draw itself
    getrandbits = rng.getrandbits
    bits = total.bit_length()
    index = getrandbits(bits)
    while index >= total:
        index = getrandbits(bits)
    return index


def discard_at(cards: list[Card], index: int) -> DiscardGroup:
    """The group at ``index`` in the enumeration of a sorted hand. Only an
    index past the singles runs the ``_patterns`` scan."""
    n = len(cards)
    if index < n:
        return _SINGLE_GROUPS[cards[index]]
    index -= n
    for kind, members, picks in _patterns(cards):
        if index < len(picks):
            return DiscardGroup(kind, tuple([members[p] for p in picks[index]]))
        index -= len(picks)
    raise AssertionError("unreachable: group counts out of sync")


def random_discard_group(hand: Sequence[Card], rng: random.Random) -> DiscardGroup:
    """Uniform draw from enumerate_legal_discards(hand) without building it:
    ``draw_discard_index`` counts the groups from the hand's weight sums and
    draws one index, and ``discard_at`` builds only the chosen group. Search
    playouts keep the sums as they go and make the same two calls."""
    cards = sorted(hand)
    if not cards:
        raise GameError("cannot discard from an empty hand")
    ranks = suits = 0
    for code in cards:
        ranks += _RANK_WEIGHT[code]
        suits += _SUIT_WEIGHT[code]
    return discard_at(cards, draw_discard_index(len(cards), ranks, suits, rng))


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


# Public events, passed to a round's observers (belief trackers, UIs).
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


class Observation(NamedTuple):
    """The slice of a round state visible to one player.

    Never contains opponent card identities: the hand is the player's own
    and the discard pile is public (every card in it was played face up).
    During the Pick phase ``discard_top`` is the card the player could
    actually take (the previous actor's group top, never their own).
    Immutable, like ``Card`` and the events; ``_replace`` gives a copy with
    fields changed.
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
        "round_index",
        "validate",
        "observers",
    )

    def __init__(
        self,
        players: list[PlayerState],
        stock: list[Card],
        discard_stack: list[DiscardGroup],
        rng: random.Random,
        *,
        turn_limit: int = 100,
        round_index: int = 0,
        validate: bool = True,
        observers: Sequence[Callable[[PublicEvent], object]] = (),
    ):
        self.players = players
        self.stock = stock  # top of the pile is the end of the list
        self.discard_stack = discard_stack
        self.current_player = 0
        self.turn_count = 0
        self.phase = _JHYAP_CHECK
        self.rng = rng
        self.turn_limit = turn_limit
        self.round_index = round_index
        self.validate = validate
        # empty when nobody listens; the apply_* ops then build no events
        self.observers = tuple(observers)

    @property
    def num_players(self) -> int:
        return len(self.players)

    def clone(self, rng: Optional[random.Random] = None) -> "RoundState":
        """Cheap copy for simulations, at the same turn and phase; it has no
        observers and runs no conservation checks."""
        copy = RoundState(
            [PlayerState(list(p.hand), p.coins) for p in self.players],
            list(self.stock),
            list(self.discard_stack),
            rng if rng is not None else self.rng,
            turn_limit=self.turn_limit,
            round_index=self.round_index,
            validate=False,
        )
        copy.current_player = self.current_player
        copy.turn_count = self.turn_count
        copy.phase = self.phase
        return copy

    def all_cards(self) -> list[Card]:
        """Every card of the round: the hands in seat order, the stock, then
        the pile groups from the bottom."""
        cards: list[Card] = []
        for player in self.players:
            cards += player.hand
        cards += self.stock
        for group in self.discard_stack:
            cards += group.cards
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
    round_index: int = 0,
    observers: Sequence[Callable[[PublicEvent], object]] = (),
) -> RoundState:
    """Shuffle, deal 5 cards per player, flip one card to start the pile.

    The same (seeded rng, num_players) always produces the same state.
    Each of ``observers`` is called with every public event of the round,
    in order, as it happens; with none, no event is built.
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
    for player in players:
        player.hand.sort()
    flip = deck.pop()
    state = RoundState(
        players,
        deck,
        [DiscardGroup(_SINGLE, (flip,))],
        rng,
        turn_limit=turn_limit,
        round_index=round_index,
        observers=observers,
    )
    state._check_conservation()
    return state


def _publish(state: RoundState, event: PublicEvent) -> None:
    """Pass one public event to every observer of the round. Callers test
    ``state.observers`` first, so a round nobody watches builds no event."""
    for observe in state.observers:
        observe(event)


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
    if state.observers:
        _publish(state, Discarded(state.current_player, group))
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
    if state.observers:
        _publish(state, Reshuffled(len(cards)))


def apply_pick(state: RoundState, source: PickSource) -> Card:
    """Draw one card into the current hand, then pass the turn.

    Stock draws reshuffle the older discards back in whenever the stock
    runs dry (the newest group always stays on the pile). Every pick
    advances the turn counter by one, so ``turn_limit`` counts player turns.
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
        insort(players[seat].hand, card)
        if state.observers:
            _publish(state, PickedStock(seat))
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
        insort(players[seat].hand, card)
        if state.observers:
            _publish(state, PickedTop(seat, card))

    state.turn_count += 1
    state.current_player = seat + 1 if seat + 1 < len(players) else 0
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


def resolve_jhyap(state: RoundState) -> RoundOutcome:
    """Showdown after the mover's declaration.

    The declarer wins only with the uniquely lowest hand value; every loser
    then pays their capped hand value. Otherwise the winner is the first
    non-declarer clockwise from the declarer with the lowest non-declarer
    value, and the declarer alone pays the sum of all players' capped hand
    values (the winner's and their own included).
    """
    if state.phase is not _JHYAP_CHECK:
        raise IllegalActionError("Jhyap may only be declared at the start of one's turn")
    declarer = state.current_player
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
    players = state.players
    num_players = len(players)
    if not 0 <= seat < num_players:
        raise ValueError(f"invalid seat {seat}")
    if state.phase is _PICK and seat == state.current_player:
        top = pickable_top(state)
    else:
        top = state.discard_stack[-1].top if state.discard_stack else None
    player = players[seat]
    others = players[seat + 1 :] + players[:seat]  # clockwise after seat
    # positional, in field order: matching keywords to fields would cost
    # about as much again as building the tuple
    return Observation(
        seat,
        num_players,
        tuple(player.hand),
        top,
        tuple(state.discard_stack),
        tuple([len(p.hand) for p in others]),
        player.coins,
        sum([p.coins for p in others]) / len(others),
        len(state.stock),
        state.turn_count,
        state.turn_limit,
        state.phase,
        state.round_index,
    )
