"""Rule-based Dhumbal agents: four risk profiles over one scoring rule.

Every profile scores a candidate discard as

    s = (v * p_h + n * b_m + b_s * [sequence] + 50 * [V_r <= 10]
         + max(0, (V - V_r) / V) * 10) * r

where ``v`` is the discarded value, ``n`` the number of cards, ``V`` the
hand value before and ``V_r`` after the discard. The profiles differ in
their declaration thresholds, pick rules, and the p_h / r weights:

* aggressive: declares at <=10, p_h=1.0, r=1.2, takes pile cards <=4;
* conservative: declares at <=7, p_h=0.6, r=0.8, takes <=3 (<=5 when its
  hand is still above 10) and holds on to its lowest card near the
  threshold;
* balanced: probabilistic declarations (always at <=5, 70% at 6-8, 40% at
  9-10) and prefers longer discards before higher-scoring ones;
* opportunistic: re-derives (r, p_h, threshold) from the coin standings
  on every decision, choosing between two adapted profiles built once.

A card is its code, so decisions index the engine's per-card tables as
they are. A discard walks the candidates of ``enumerate_legal_discards``
in its order as (kind, cards, value) triples and builds only the chosen
group; a pick tests whether the pile card completes a set or run from the
hand's rank and suit weight sums. ``discard_score`` and
``completes_combination`` are the card-level references.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

from .engine import (
    Card,
    DiscardGroup,
    GameError,
    GroupKind,
    JHYAP_THRESHOLD,
    Observation,
    PickSource,
    _RANK_OF,
    _RANK_WEIGHT,
    _SINGLE_GROUPS,
    _SUIT_WEIGHT,
    _patterns,
    hand_value,
)


@dataclass(frozen=True)
class HeuristicProfile:
    """Parameter bundle for one rule-based agent."""

    name: str
    jhyap_threshold: int
    high_value_preference: float  # p_h
    risk_factor: float  # r
    multi_card_bonus: float = 2.0  # b_m
    sequence_bonus: float = 3.0  # b_s
    pick_threshold: int = 4
    secondary_pick_threshold: Optional[int] = None  # used when hand value > 10
    # (low, high, probability) declaration bands; None means hard threshold
    declare_probabilities: Optional[tuple[tuple[int, int, float], ...]] = None
    adaptive: bool = False  # re-derive r/p_h/threshold from coin standings
    length_first_discards: bool = False
    selective_low_discards: bool = False  # keep the lowest card near threshold

    @cached_property
    def adapted(self) -> dict[tuple[float, float, int], "HeuristicProfile"]:
        """This profile under each answer of ``opportunistic_adapt``, with its
        risk factor and high-value preference, built once per profile
        rather than on every decision."""
        return {
            answer: replace(self, risk_factor=answer[0], high_value_preference=answer[1])
            for answer in (_AHEAD, _BEHIND)
        }


PROFILES: dict[str, HeuristicProfile] = {
    "aggressive": HeuristicProfile(
        "aggressive", jhyap_threshold=10, high_value_preference=1.0, risk_factor=1.2
    ),
    "conservative": HeuristicProfile(
        "conservative",
        jhyap_threshold=7,
        high_value_preference=0.6,
        risk_factor=0.8,
        pick_threshold=3,
        secondary_pick_threshold=5,
        selective_low_discards=True,
    ),
    "balanced": HeuristicProfile(
        "balanced",
        jhyap_threshold=10,
        high_value_preference=0.8,
        risk_factor=1.0,
        declare_probabilities=((0, 5, 1.0), (6, 8, 0.70), (9, 10, 0.40)),
        length_first_discards=True,
    ),
    "opportunistic": HeuristicProfile(
        "opportunistic",
        jhyap_threshold=8,
        high_value_preference=0.8,
        risk_factor=1.2,
        adaptive=True,
    ),
}


def make_profile(name: str, **overrides) -> HeuristicProfile:
    """A stock profile with config-file overrides applied."""
    try:
        base = PROFILES[name]
    except KeyError:
        raise ValueError(f"unknown heuristic profile: {name!r}") from None
    return replace(base, **overrides) if overrides else base


# opportunistic_adapt's two answers: (risk factor, high-value preference,
# declaration threshold) ahead of the table average and behind it
_AHEAD = (1.2, 0.8, 8)
_BEHIND = (0.8, 0.3, 9)

# module globals: Enum attribute lookups cost more
_SINGLE, _SEQUENCE = GroupKind.SINGLE, GroupKind.SEQUENCE

# Each single discard as a (kind, cards, value) candidate, by card code
_SINGLE_CANDIDATES: tuple[tuple[GroupKind, tuple[int], int], ...] = tuple(
    (_SINGLE, (code,), rank) for code, rank in enumerate(_RANK_OF)
)


def opportunistic_adapt(
    own_coins: float, avg_opponent_coins: float
) -> tuple[float, float, int]:
    """(risk factor, high-value preference, declaration threshold).

    Ahead of the table average (ties included) plays hot; behind plays
    cold but declares one point looser.
    """
    return _AHEAD if own_coins >= avg_opponent_coins else _BEHIND


def discard_score(
    hand, group: DiscardGroup, profile: HeuristicProfile
) -> float:
    """Score one candidate discard for a hand; higher is better."""
    return _score(
        hand_value(hand), group.value(), len(group.cards), group.kind is _SEQUENCE, profile
    )


def _score(
    total: int, value: int, n: int, sequence: bool, profile: HeuristicProfile
) -> float:
    """The scoring rule for an ``n``-card discard worth ``value`` from a hand
    worth ``total``: the one formula of ``discard_score`` and
    ``decide_discard``."""
    remaining = total - value
    improvement = (max(0.0, (total - remaining) / total) * 10.0) if total else 0.0
    score = (
        value * profile.high_value_preference
        + n * profile.multi_card_bonus
        + (profile.sequence_bonus if sequence else 0.0)
        + (50.0 if remaining <= JHYAP_THRESHOLD else 0.0)
        + improvement
    )
    return score * profile.risk_factor


def decide_jhyap(
    profile: HeuristicProfile, observation: Observation, rng: random.Random
) -> bool:
    """Whether to declare at the start of the turn (never above the legal 10)."""
    value = observation.hand_value
    if value > JHYAP_THRESHOLD:
        return False
    if profile.declare_probabilities is not None:
        for low, high, probability in profile.declare_probabilities:
            if low <= value <= high:
                return rng.random() < probability
        return False
    threshold = profile.jhyap_threshold
    if profile.adaptive:
        _, _, threshold = opportunistic_adapt(
            observation.own_coins, observation.avg_opponent_coins
        )
    return value <= threshold


def conservative_candidates(
    hand, groups: list[DiscardGroup]
) -> list[DiscardGroup]:
    """Near the threshold, refuse to give up the lowest card unless the
    discard itself lands the hand at 7 or below."""
    total = hand_value(hand)
    if total > 12:
        return groups
    low_rank = min(card.rank for card in hand)
    kept = [
        g
        for g in groups
        if total - g.value() <= 7 or all(card.rank != low_rank for card in g.cards)
    ]
    return kept or groups


def decide_discard(profile: HeuristicProfile, observation: Observation) -> DiscardGroup:
    """Best-scoring legal discard; ties prefer more cards, then higher value,
    then canonical order.

    The choice of ``max`` over ``conservative_candidates`` (for profiles
    with ``selective_low_discards``) of ``enumerate_legal_discards``, made
    on cards as codes: each candidate is a (kind, cards, value) triple, the
    singles in card order and then each ``_patterns`` pick, and only the
    chosen group is built."""
    if profile.adaptive:
        profile = profile.adapted[
            opportunistic_adapt(observation.own_coins, observation.avg_opponent_coins)
        ]
    hand = sorted(observation.own_hand)
    if not hand:
        raise GameError("cannot choose a discard from an empty hand")
    total = sum(map(_RANK_OF.__getitem__, hand))
    candidates = list(map(_SINGLE_CANDIDATES.__getitem__, hand))
    for kind, members, picks in _patterns(hand):
        for pick in picks:
            picked = [members[p] for p in pick]
            candidates.append((kind, picked, sum(map(_RANK_OF.__getitem__, picked))))
    if profile.selective_low_discards and total <= 12:
        # conservative_candidates: the hand ascends, so a candidate holds
        # the hand's lowest rank iff its first card does
        low_rank = _RANK_OF[hand[0]]
        candidates = [
            candidate
            for candidate in candidates
            if total - candidate[2] <= 7 or _RANK_OF[candidate[1][0]] != low_rank
        ] or candidates
    length_first = profile.length_first_discards
    best = best_key = None
    for candidate in candidates:
        kind, picked, value = candidate
        n = len(picked)
        score = _score(total, value, n, kind is _SEQUENCE, profile)
        key = (n, score, value) if length_first else (score, n, value)
        if best_key is None or key > best_key:  # the first maximum, as max keeps
            best, best_key = candidate, key
    kind, picked, _ = best
    return _SINGLE_GROUPS[picked[0]] if kind is _SINGLE else DiscardGroup(kind, tuple(picked))


def completes_combination(hand, card: Card) -> bool:
    """Would picking ``card`` give the hand a playable set or run?"""
    if any(other.rank == card.rank for other in hand):
        return True
    ranks = {other.rank for other in hand if other.suit == card.suit}
    below = card.rank - 1
    length = 1
    while below in ranks:
        length += 1
        below -= 1
    above = card.rank + 1
    while above in ranks:
        length += 1
        above += 1
    return length >= 3


def decide_pick(profile: HeuristicProfile, observation: Observation) -> PickSource:
    """Take the visible pile card when it is cheap or completes a combination."""
    top = observation.discard_top
    if top is None:
        return PickSource.STOCK
    threshold = profile.pick_threshold
    if (
        profile.secondary_pick_threshold is not None
        and observation.hand_value > JHYAP_THRESHOLD
    ):
        threshold = profile.secondary_pick_threshold
    if top.rank <= threshold:
        return PickSource.DISCARD_TOP
    # completes_combination on the hand's weight sums: the hand holds the
    # top's rank, or the top's suit bit lies in a window of three set bits
    ranks = suits = 0
    for card in observation.own_hand:
        ranks += _RANK_WEIGHT[card]
        suits += _SUIT_WEIGHT[card]
    if ranks & 7 * _RANK_WEIGHT[top]:
        return PickSource.DISCARD_TOP
    bit = _SUIT_WEIGHT[top]
    suits |= bit
    if suits & suits >> 1 & suits >> 2 & (bit | bit >> 1 | bit >> 2):
        return PickSource.DISCARD_TOP
    return PickSource.STOCK


class HeuristicAgent:
    """Arena adapter around a profile; stateless between decisions."""

    def __init__(self, profile: HeuristicProfile | str):
        self.profile = (
            make_profile(profile) if isinstance(profile, str) else profile
        )

    @property
    def name(self) -> str:
        return self.profile.name

    def begin_round(self, seat: int, num_players: int) -> None:
        pass

    def decide_jhyap(self, observation: Observation, rng: random.Random) -> bool:
        return decide_jhyap(self.profile, observation, rng)

    def decide_discard(
        self, observation: Observation, rng: random.Random
    ) -> DiscardGroup:
        return decide_discard(self.profile, observation)

    def decide_pick(self, observation: Observation, rng: random.Random) -> PickSource:
        return decide_pick(self.profile, observation)
