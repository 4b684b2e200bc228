from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhumbal import engine, heuristics
from dhumbal.engine import GroupKind, PickSource, Phase
from dhumbal.heuristics import (
    HeuristicAgent,
    completes_combination,
    conservative_candidates,
    decide_discard,
    decide_jhyap,
    decide_pick,
    discard_score,
    make_profile,
    opportunistic_adapt,
)
from helpers import c, cards, make_obs, patterned_hands, single

AGGRESSIVE = make_profile("aggressive")
CONSERVATIVE = make_profile("conservative")
BALANCED = make_profile("balanced")
OPPORTUNISTIC = make_profile("opportunistic")


def obs_with_hand(hand, phase=Phase.JHYAP_CHECK, top=None, **kw):
    pile = [single(top)] if top is not None else [single(c("9C"))]
    return make_obs(hand, pile, [5], 40, phase=phase, **kw)


class TestDiscardScore:
    def test_worked_example(self):
        hand = cards("KH", "QS", "3D", "2C", "AH")  # V = 31
        group = single(c("KH"))
        score = discard_score(hand, group, AGGRESSIVE)
        expected = (13 * 1.0 + 1 * 2.0 + 0 + 0 + (13 / 31) * 10) * 1.2
        assert score == pytest.approx(expected, abs=1e-12)
        assert score == pytest.approx(23.0322580645, abs=1e-9)

    def test_higher_value_scores_higher(self):
        hand = cards("KH", "QS", "3D", "2C", "AH")
        low = discard_score(hand, single(c("AH")), AGGRESSIVE)
        high = discard_score(hand, single(c("KH")), AGGRESSIVE)
        assert high > low

    def test_threshold_indicator_adds_fifty(self):
        # same group; one hand lands at V_r=10 (bonus), the other at V_r=11
        bonus_hand = cards("KH", "10D")  # V = 23, discard K -> V_r = 10
        plain_hand = cards("KH", "JD")  # V = 24, discard K -> V_r = 11
        group = single(c("KH"))
        got = discard_score(bonus_hand, group, AGGRESSIVE) - discard_score(
            plain_hand, group, AGGRESSIVE
        )
        drift = (13 / 23 - 13 / 24) * 10  # improvement term moves slightly too
        assert got == pytest.approx((50 + drift) * 1.2, abs=1e-12)

    def test_sequence_bonus_applies(self):
        hand = cards("4H", "5H", "6H", "KD", "KC")
        run = engine.make_group(cards("4H", "5H", "6H"))
        pair = engine.make_group(cards("KD", "KC"))
        run_score = discard_score(hand, run, AGGRESSIVE)
        # run: v=15, n=3, seq bonus; V=41, V_r=26
        expected = (15 * 1.0 + 3 * 2.0 + 3.0 + 0 + (15 / 41) * 10) * 1.2
        assert run_score == pytest.approx(expected, abs=1e-12)
        assert discard_score(hand, pair, AGGRESSIVE) > 0

    def test_empty_hand_value_guard(self):
        # V=0 cannot happen with a legal group, but the guard must hold
        assert discard_score([], single(c("2C")), AGGRESSIVE) >= 0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000))
    def test_monotone_in_group_value_for_singles(self, seed):
        rng = random.Random(seed)
        hand = rng.sample(engine.FULL_DECK, 5)
        singles = [g for g in engine.enumerate_legal_discards(hand) if len(g.cards) == 1]
        scores = [discard_score(hand, g, AGGRESSIVE) for g in singles]
        values = [g.value() for g in singles]
        for (va, sa), (vb, sb) in zip(zip(values, scores), list(zip(values, scores))[1:]):
            if va <= vb:
                assert sa <= sb + 1e-12


class TestDecideJhyap:
    def test_aggressive_declares_at_ten(self):
        obs = obs_with_hand(cards("4H", "6C"))
        assert decide_jhyap(AGGRESSIVE, obs, random.Random(0)) is True

    def test_aggressive_never_above_ten(self):
        obs = obs_with_hand(cards("JD"))
        assert decide_jhyap(AGGRESSIVE, obs, random.Random(0)) is False

    def test_conservative_boundary(self):
        assert decide_jhyap(
            CONSERVATIVE, obs_with_hand(cards("3H", "4C")), random.Random(0)
        )
        assert not decide_jhyap(
            CONSERVATIVE, obs_with_hand(cards("3H", "5C")), random.Random(0)
        )

    def test_balanced_always_at_five_or_less(self):
        obs = obs_with_hand(cards("2H", "3C"))
        rng = random.Random(1)
        assert all(decide_jhyap(BALANCED, obs, rng) for _ in range(200))

    @pytest.mark.parametrize("hand,probability", [
        (("3H", "4C"), 0.70),   # V=7, mid band
        (("2H", "4C"), 0.70),   # V=6
        (("4H", "5C"), 0.40),   # V=9
        (("4H", "6C"), 0.40),   # V=10
    ])
    def test_balanced_band_frequencies(self, hand, probability):
        obs = obs_with_hand(cards(*hand))
        rng = random.Random(99)
        trials = 100_000
        hits = sum(decide_jhyap(BALANCED, obs, rng) for _ in range(trials))
        assert hits / trials == pytest.approx(probability, abs=0.01)

    def test_opportunistic_thresholds(self):
        ahead = obs_with_hand(cards("2H", "6C"), own_coins=10_500)  # V=8
        behind = obs_with_hand(cards("2H", "6C"), own_coins=9_000)
        rng = random.Random(0)
        assert decide_jhyap(OPPORTUNISTIC, ahead, rng) is True
        nine_ahead = obs_with_hand(cards("3H", "6C"), own_coins=10_500)  # V=9
        nine_behind = obs_with_hand(cards("3H", "6C"), own_coins=9_000)
        assert decide_jhyap(OPPORTUNISTIC, nine_ahead, rng) is False
        assert decide_jhyap(OPPORTUNISTIC, nine_behind, rng) is True
        assert decide_jhyap(OPPORTUNISTIC, behind, rng) is True


class TestOpportunisticAdapt:
    def test_ahead(self):
        assert opportunistic_adapt(10_500, 10_000) == (1.2, 0.8, 8)

    def test_behind(self):
        assert opportunistic_adapt(9_000, 10_000) == (0.8, 0.3, 9)

    def test_tie_counts_as_ahead(self):
        assert opportunistic_adapt(10_000, 10_000) == (1.2, 0.8, 8)


class TestDecideDiscard:
    def test_aggressive_prefers_the_triple(self):
        obs = obs_with_hand(cards("5H", "5S", "5D", "2C", "9H"), phase=Phase.DISCARD)
        group = decide_discard(AGGRESSIVE, obs)
        assert group.kind is GroupKind.SET
        assert set(group.cards) == set(cards("5H", "5S", "5D"))

    def test_single_card_hand(self):
        obs = obs_with_hand(cards("7D"), phase=Phase.DISCARD)
        assert decide_discard(AGGRESSIVE, obs) == single(c("7D"))

    @pytest.mark.parametrize("risk", [0.25, 0.8, 1.0, 1.7, 3.0])
    def test_positive_risk_scaling_never_changes_choice(self, risk):
        obs = obs_with_hand(cards("KH", "QS", "3D", "2C", "AH"), phase=Phase.DISCARD)
        baseline = decide_discard(AGGRESSIVE, obs)
        scaled = make_profile("aggressive", risk_factor=risk)
        assert decide_discard(scaled, obs) == baseline

    def test_balanced_prefers_length_over_score(self):
        # the king single outscores the low pair, but balanced goes by length
        obs = obs_with_hand(cards("KH", "2C", "2D"), phase=Phase.DISCARD)
        aggressive_choice = decide_discard(AGGRESSIVE, obs)
        balanced_choice = decide_discard(BALANCED, obs)
        assert aggressive_choice == single(c("KH"))
        assert balanced_choice.kind is GroupKind.SET
        assert set(balanced_choice.cards) == set(cards("2C", "2D"))

    def test_conservative_keeps_lowest_card_near_threshold(self):
        hand = cards("AH", "AD", "8C")  # V=10: giving up an ace keeps V_r > 7
        groups = engine.enumerate_legal_discards(hand)
        kept = conservative_candidates(hand, groups)
        assert all(
            all(card.rank != 1 for card in g.cards) for g in kept
        )
        obs = obs_with_hand(hand, phase=Phase.DISCARD)
        assert decide_discard(CONSERVATIVE, obs) == single(c("8C"))

    def test_conservative_releases_low_card_when_it_lands_low(self):
        hand = cards("AH", "2D")  # V=3: discarding the ace leaves V_r=2 <= 7
        kept = conservative_candidates(hand, engine.enumerate_legal_discards(hand))
        assert single(c("AH")) in kept

    def test_conservative_filter_off_above_twelve(self):
        hand = cards("AH", "KD", "QC")  # V=26
        groups = engine.enumerate_legal_discards(hand)
        assert conservative_candidates(hand, groups) == groups

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 100_000), st.sampled_from(list(heuristics.PROFILES)))
    def test_choice_is_always_legal(self, seed, name):
        rng = random.Random(seed)
        hand = rng.sample(engine.FULL_DECK, rng.randrange(1, 6))
        obs = obs_with_hand(hand, phase=Phase.DISCARD)
        choice = decide_discard(make_profile(name), obs)
        assert choice in engine.enumerate_legal_discards(hand)

    def test_deterministic(self):
        obs = obs_with_hand(cards("KH", "QS", "3D", "2C", "AH"), phase=Phase.DISCARD)
        assert decide_discard(AGGRESSIVE, obs) == decide_discard(AGGRESSIVE, obs)


def reference_discard(profile, observation):
    """``decide_discard`` as ``max`` over the card-level enumeration, with
    ``discard_score`` in the key."""
    if profile.adaptive:
        profile = profile.adapted[
            opportunistic_adapt(observation.own_coins, observation.avg_opponent_coins)
        ]
    hand = observation.own_hand
    groups = engine.enumerate_legal_discards(hand)
    if profile.selective_low_discards:
        groups = conservative_candidates(hand, groups)
    if profile.length_first_discards:
        key = lambda g: (len(g.cards), discard_score(hand, g, profile), g.value())
    else:
        key = lambda g: (discard_score(hand, g, profile), len(g.cards), g.value())
    return max(groups, key=key)


# the stock profiles, and each with a sign or a weight turned: a preference
# for low values, a penalty per card, both (which makes the best discard the
# lowest single, tied whenever the hand holds two of that rank), and no score
# at all
DISCARD_PROFILES = [
    make_profile(name, **override)
    for name in heuristics.PROFILES
    for override in (
        {},
        {"high_value_preference": -1},
        {"multi_card_bonus": -3},
        {"high_value_preference": -1, "multi_card_bonus": -3},
        {"risk_factor": 0},
    )
]


@st.composite
def low_hands(draw):
    """Hands of 2 to 5 distinct cards of rank 6 or less, in any order, worth
    at most 12 points: the hands on which the conservative filter applies."""
    low = [card for card in engine.FULL_DECK if card.rank <= 6]
    hand = draw(st.lists(st.sampled_from(low), min_size=2, max_size=5, unique=True))
    while engine.hand_value(hand) > 12:
        hand.pop()
    return hand


class TestDecideDiscardMatchesReference:
    @settings(max_examples=500, deadline=None)
    @given(
        patterned_hands(),
        st.booleans(),
        st.sampled_from(DISCARD_PROFILES),
        st.sampled_from([9_000, 10_000, 11_000]),  # behind, level with, ahead of the table
    )
    def test_same_choice_as_max_over_enumeration(self, hand, in_order, profile, coins):
        self.check(hand, in_order, profile, coins)

    @settings(max_examples=200, deadline=None)
    @given(
        low_hands(),
        st.booleans(),
        st.sampled_from([p for p in DISCARD_PROFILES if p.selective_low_discards]),
    )
    def test_same_choice_under_the_low_card_filter(self, hand, in_order, profile):
        self.check(hand, in_order, profile, 10_000)

    @staticmethod
    def check(hand, in_order, profile, coins):
        obs = obs_with_hand(hand, phase=Phase.DISCARD, own_coins=coins)
        # own_hand in the order drawn, or sorted as the engine hands it out
        obs = obs._replace(own_hand=tuple(sorted(hand) if in_order else hand))
        assert decide_discard(profile, obs) == reference_discard(profile, obs)

    def test_ties_keep_the_first_candidate(self):
        # risk_factor=0 scores every candidate 0, so the key falls to the
        # card count and the value: the set of fives and the run through
        # 5H tie at 3 cards and 15 points, and the set comes first
        profile = make_profile("aggressive", risk_factor=0)
        obs = obs_with_hand(cards("4H", "5H", "6H", "5C", "5D"), phase=Phase.DISCARD)
        assert decide_discard(profile, obs) == engine.make_group(cards("5C", "5D", "5H"))
        # a low preference and a card penalty make the best discard a low
        # single; the two deuces tie, and clubs come first
        profile = make_profile("aggressive", high_value_preference=-1, multi_card_bonus=-3)
        obs = obs_with_hand(cards("2S", "KH", "2C", "QD"), phase=Phase.DISCARD)
        assert decide_discard(profile, obs) == single(c("2C"))

    def test_builds_only_the_chosen_group(self, monkeypatch):
        # the enumeration of this hand builds 7 new groups; a decision builds
        # the one it returns, and none when that is a shared single
        built = []
        original = engine.DiscardGroup

        def counting(*args):
            built.append(args)
            return original(*args)

        for module in (engine, heuristics):  # heuristics builds the group it picks
            monkeypatch.setattr(module, "DiscardGroup", counting)
        hand = cards("5H", "6H", "7H", "8H", "5S", "5D", "KC")
        choice = decide_discard(AGGRESSIVE, obs_with_hand(hand, phase=Phase.DISCARD))
        assert choice.kind is GroupKind.SEQUENCE and len(built) == 1
        decide_discard(AGGRESSIVE, obs_with_hand(cards("KC", "2D"), phase=Phase.DISCARD))
        assert len(built) == 1

    def test_empty_hand_is_refused(self):
        with pytest.raises(engine.GameError):
            decide_discard(AGGRESSIVE, obs_with_hand([], phase=Phase.DISCARD))


class TestDecidePick:
    def test_aggressive_takes_cheap_top(self):
        obs = obs_with_hand(cards("KH", "QS", "8D"), phase=Phase.PICK, top=c("4D"))
        assert decide_pick(AGGRESSIVE, obs) is PickSource.DISCARD_TOP

    def test_aggressive_takes_set_completer(self):
        obs = obs_with_hand(cards("9H", "9D", "KS"), phase=Phase.PICK, top=c("9C"))
        assert decide_pick(AGGRESSIVE, obs) is PickSource.DISCARD_TOP

    def test_aggressive_declines_expensive_top(self):
        obs = obs_with_hand(cards("KH", "QS", "8D"), phase=Phase.PICK, top=c("9C"))
        assert decide_pick(AGGRESSIVE, obs) is PickSource.STOCK

    def test_conservative_threshold_tightens_when_low(self):
        obs = obs_with_hand(cards("3H", "4C"), phase=Phase.PICK, top=c("5S"))  # V=7
        assert decide_pick(CONSERVATIVE, obs) is PickSource.STOCK

    def test_conservative_threshold_relaxes_when_high(self):
        obs = obs_with_hand(cards("KH", "QC"), phase=Phase.PICK, top=c("5S"))  # V=25
        assert decide_pick(CONSERVATIVE, obs) is PickSource.DISCARD_TOP

    def test_no_top_forces_stock(self):
        obs = make_obs(cards("KH", "QC"), [], [5], 40, phase=Phase.PICK)
        assert decide_pick(CONSERVATIVE, obs) is PickSource.STOCK

    def test_sequence_completer(self):
        obs = obs_with_hand(cards("5H", "6H", "KD"), phase=Phase.PICK, top=c("7H"))
        assert decide_pick(AGGRESSIVE, obs) is PickSource.DISCARD_TOP
        gap = obs_with_hand(cards("5H", "9H", "KD"), phase=Phase.PICK, top=c("7H"))
        assert decide_pick(AGGRESSIVE, gap) is PickSource.STOCK


class TestCompletesCombination:
    @settings(max_examples=400, deadline=None)
    @given(patterned_hands(), st.sampled_from(engine.FULL_DECK))
    def test_decide_pick_agrees(self, hand, top):
        # no pile card is at or under a threshold of 0, so the pick is the
        # combination test alone
        profile = make_profile("aggressive", pick_threshold=0)
        obs = obs_with_hand(hand, phase=Phase.PICK, top=top)
        obs = obs._replace(own_hand=tuple(hand))
        taken = decide_pick(profile, obs) is PickSource.DISCARD_TOP
        assert taken == completes_combination(hand, top)

    def test_pair(self):
        assert completes_combination(cards("9H", "KD"), c("9C"))

    def test_middle_of_run(self):
        assert completes_combination(cards("5H", "7H"), c("6H"))

    def test_wrong_suit_run(self):
        assert not completes_combination(cards("5H", "7D"), c("6C"))

    def test_no_match(self):
        assert not completes_combination(cards("2H", "KD"), c("9C"))


class TestAgentAdapter:
    def test_agent_is_pure_function_of_inputs(self):
        agent = HeuristicAgent("balanced")
        obs = obs_with_hand(cards("3H", "4C"))
        a = [agent.decide_jhyap(obs, random.Random(7)) for _ in range(20)]
        b = [agent.decide_jhyap(obs, random.Random(7)) for _ in range(20)]
        assert a == b

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            HeuristicAgent("bold")

    def test_profile_overrides(self):
        profile = make_profile("aggressive", pick_threshold=2)
        obs = obs_with_hand(cards("KH", "QS", "8D"), phase=Phase.PICK, top=c("4D"))
        assert decide_pick(profile, obs) is PickSource.STOCK


class TestAggressiveDeclaresWheneverLegal:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 1_000_000))
    def test_exhaustive_sampled_low_hands(self, seed):
        rng = random.Random(seed)
        while True:
            hand = rng.sample(engine.FULL_DECK, 5)
            if engine.hand_value(hand) <= 10:
                break
            hand = None
            low = [card for card in engine.FULL_DECK if card.rank <= 3]
            hand = rng.sample(low, 5)
            if engine.hand_value(hand) <= 10:
                break
        obs = obs_with_hand(hand)
        assert decide_jhyap(AGGRESSIVE, obs, rng) is True
