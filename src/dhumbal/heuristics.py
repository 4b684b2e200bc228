"""Rule-based Dhumbal agents: four risk profiles over one scoring rule.

Every profile scores a candidate discard as

    s = v * p_h + n * b_m + b_s * [sequence] + 50 * [V_r <= 10] + v / V * 10

where ``v`` is the discarded value, ``n`` the number of cards, ``V`` the
hand value before and ``V_r = V - v`` after the discard, and plays the
highest-scoring one. The paper also scales the score by a risk factor r
per profile; it is not modelled, since a positive scale on every
candidate never changes which one scores highest. The profiles differ in
their declaration thresholds, pick rules and p_h:

* aggressive: declares at <=10, p_h=1.0, takes pile cards <=4;
* conservative: declares at <=7, p_h=0.6, takes <=3 (<=5 when its hand
  is still above 10) and holds on to its lowest card near the threshold;
* balanced: probabilistic declarations (always at <=5, 70% at 6-8, 40% at
  9-10) and prefers longer discards before higher-scoring ones;
* opportunistic: declares at <=8 with p_h=0.8 while its coins are at or
  above the table average; behind it, it plays its ``behind`` profile,
  which is cold (p_h=0.3) but declares one point looser.

``PROFILES`` maps each kind to its profile; a profile has no name, since a
seat's display name is its config entry's (``arena.agent_names``).
``HeuristicAgent.act`` answers each phase with the profile's rule for it:
``decide_jhyap``, ``decide_discard`` or ``decide_pick``.

A card is its code, so decisions index the engine's per-card tables as
they are. A discard walks the candidates of ``enumerate_legal_discards``
in its order as (kind, cards, value) triples and builds only the chosen
group; a pick tests whether the pile card completes a set or run from the
hand's rank and suit weight sums. The card-level references these must
equal are in ``tests/test_heuristics.py``.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

from .engine import (
    Action,
    DiscardGroup,
    GameError,
    GroupKind,
    JHYAP_THRESHOLD,
    Observation,
    PickSource,
    _DECLARE,
    _DECLINE,
    _DISCARD,
    _JHYAP_CHECK,
    _RANK_OF,
    _RANK_WEIGHT,
    _SINGLE_GROUPS,
    _SUIT_WEIGHT,
    _patterns,
)


def _is_finite(value) -> bool:
    """An int or a float, not a bool, NaN, an infinity or an int past float range."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


@dataclass(frozen=True)
class HeuristicProfile:
    """Parameter bundle for one rule-based agent."""

    jhyap_threshold: int
    high_value_preference: float  # p_h
    multi_card_bonus: float = 2.0  # b_m
    sequence_bonus: float = 3.0  # b_s
    pick_threshold: int = 4
    secondary_pick_threshold: Optional[int] = None  # used when hand value > 10
    # (low, high, probability) declaration bands; None means hard threshold
    declare_probabilities: Optional[tuple[tuple[int, int, float], ...]] = None
    adaptive: bool = False  # play ``behind`` when behind the table average
    length_first_discards: bool = False
    selective_low_discards: bool = False  # keep the lowest card near threshold

    def __post_init__(self) -> None:
        """Config files override any field, so each is checked as typed: a
        bool is no int, and a float must be finite."""
        typed = [("jhyap_threshold", int), ("pick_threshold", int),
                 ("high_value_preference", float), ("multi_card_bonus", float),
                 ("sequence_bonus", float), ("adaptive", bool),
                 ("length_first_discards", bool), ("selective_low_discards", bool)]
        if self.secondary_pick_threshold is not None:
            typed.append(("secondary_pick_threshold", int))
        for name, kind in typed:
            value = getattr(self, name)
            if not (_is_finite(value) if kind is float else type(value) is kind):
                what = "a finite number" if kind is float else kind.__name__
                raise ValueError(f"{name} must be {what}, got {value!r}")
        bands = self.declare_probabilities
        if bands is not None and not (isinstance(bands, (list, tuple)) and all(
            isinstance(band, (list, tuple)) and len(band) == 3
            and type(band[0]) is int and type(band[1]) is int and band[0] <= band[1]
            and _is_finite(band[2]) and 0 <= band[2] <= 1 for band in bands
        )):
            raise ValueError(
                "declare_probabilities must be None or [low, high, probability] bands, "
                f"integers low <= high and a probability in [0, 1], got {bands!r}")

    @cached_property
    def behind(self) -> "HeuristicProfile":
        """What an adaptive profile plays behind the table average: cold,
        but declaring one point looser. Built once per profile rather than
        on every decision."""
        return replace(self, high_value_preference=0.3,
                       jhyap_threshold=self.jhyap_threshold + 1)


PROFILES: dict[str, HeuristicProfile] = {
    "aggressive": HeuristicProfile(jhyap_threshold=10, high_value_preference=1.0),
    "conservative": HeuristicProfile(
        jhyap_threshold=7,
        high_value_preference=0.6,
        pick_threshold=3,
        secondary_pick_threshold=5,
        selective_low_discards=True,
    ),
    "balanced": HeuristicProfile(
        jhyap_threshold=10,
        high_value_preference=0.8,
        declare_probabilities=((0, 5, 1.0), (6, 8, 0.70), (9, 10, 0.40)),
        length_first_discards=True,
    ),
    "opportunistic": HeuristicProfile(
        jhyap_threshold=8, high_value_preference=0.8, adaptive=True
    ),
}


def make_profile(kind: str, **overrides) -> HeuristicProfile:
    """A stock profile with config-file overrides applied."""
    try:
        base = PROFILES[kind]
    except KeyError:
        raise ValueError(f"unknown heuristic profile: {kind!r}") from None
    return replace(base, **overrides) if overrides else base


# module globals: Enum attribute lookups cost more
_SINGLE, _SEQUENCE = GroupKind.SINGLE, GroupKind.SEQUENCE

# Each single discard as a (kind, cards, value) candidate, by card code
_SINGLE_CANDIDATES: tuple[tuple[GroupKind, tuple[int], int], ...] = tuple(
    (_SINGLE, (code,), rank) for code, rank in enumerate(_RANK_OF)
)


def playing_profile(profile: HeuristicProfile, observation: Observation) -> HeuristicProfile:
    """The profile an adaptive ``profile`` plays this decision with: itself
    at or above the table average of coins, its ``behind`` profile below it."""
    if observation.own_coins < observation.avg_opponent_coins:
        return profile.behind
    return profile


def _score(
    total: int, value: int, n: int, sequence: bool, profile: HeuristicProfile
) -> float:
    """The scoring rule for an ``n``-card discard worth ``value`` from a hand
    worth ``total``."""
    return (
        value * profile.high_value_preference
        + n * profile.multi_card_bonus
        + (profile.sequence_bonus if sequence else 0.0)
        + (50.0 if total - value <= JHYAP_THRESHOLD else 0.0)
        + value / total * 10.0
    )


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
    if profile.adaptive:
        profile = playing_profile(profile, observation)
    return value <= profile.jhyap_threshold


def decide_discard(profile: HeuristicProfile, observation: Observation) -> DiscardGroup:
    """Best-scoring legal discard; ties prefer more cards, then higher value,
    then canonical order.

    The choice of ``max`` over ``enumerate_legal_discards`` (for profiles
    with ``selective_low_discards``, only the candidates that keep the
    lowest card near the threshold), made on cards as codes: each candidate
    is a (kind, cards, value) triple, the singles in card order and then
    each ``_patterns`` pick, and only the chosen group is built."""
    if profile.adaptive:
        profile = playing_profile(profile, observation)
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
        # near the threshold, give up the lowest rank only for a discard
        # that lands the hand at 7 or below; the hand ascends, so a
        # candidate holds the hand's lowest rank iff its first card does
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
    # whether the top completes a set or run, on the hand's weight sums: the
    # hand holds the top's rank, or the top's suit bit lies in a window of
    # three set bits
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
    """Arena adapter around a profile; stateless between decisions. ``act``
    calls the phase's rule through the method of that name, so a wrapper
    on a method sees every decision of its phase."""

    def __init__(self, profile: HeuristicProfile | str):
        self.profile = (
            make_profile(profile) if isinstance(profile, str) else profile
        )

    def act(self, observation: Observation, rng: random.Random) -> Action:
        phase = observation.phase
        if phase is _JHYAP_CHECK:
            return _DECLARE if self.decide_jhyap(observation, rng) else _DECLINE
        if phase is _DISCARD:
            return self.decide_discard(observation, rng)
        return self.decide_pick(observation, rng)

    def decide_jhyap(self, observation: Observation, rng: random.Random) -> bool:
        return decide_jhyap(self.profile, observation, rng)

    def decide_discard(
        self, observation: Observation, rng: random.Random
    ) -> DiscardGroup:
        return decide_discard(self.profile, observation)

    def decide_pick(self, observation: Observation, rng: random.Random) -> PickSource:
        return decide_pick(self.profile, observation)
