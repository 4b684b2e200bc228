"""Monte Carlo tree search agents for Dhumbal.

Two variants share one information-set tree machinery:

* plain MCTS samples one hidden-state determinization per iteration and
  scales exploration by each action's accumulated legality frequency;
* ISMCTS samples a batch of determinizations per iteration (default 3)
  and scales exploration by the fraction of the batch in which the action
  is legal.

Selection uses UCB1 with the legality factor:
``score = mean + C * (l / d) * sqrt(ln(N) / n)``.
Inside the tree every sampled world takes its candidates from
``engine.legal_actions`` and moves through ``engine.step``, so the tree
plays by the engine's own rules. Rollouts play uniformly random legal
actions to a terminal settlement in ``_playout_outcome``, a fast path
tested against ``step``, and score positions by each player's coin change.
The playout keeps hands as card codes and draws discards through
``engine.draw_discard``; ``determinize`` keeps what does not depend on its
draws in the belief's ``deal_plan``, so a decision works it out once. A
property test holds the playout to ``step`` with the same draws and the
same final state, and golden digests pin determinized worlds and their
playouts for fixed beliefs and seeds.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

from .engine import (
    CARD_CODE,
    CODE_CARD,
    CODE_RANK,
    Action,
    Card,
    Discarded,
    DiscardGroup,
    EndReason,
    FULL_DECK,
    GameError,
    JHYAP_THRESHOLD,
    JhyapAction,
    Observation,
    Phase,
    PickedStock,
    PickedTop,
    PickSource,
    PlayerState,
    PublicEvent,
    Reshuffled,
    RoundOutcome,
    RoundState,
    _reshuffle_into_stock,
    _settle_showdown,
    draw_discard,
    hand_value,
    legal_actions,
    resolve_jhyap,
    round_termination,
    shuffle_cards,
    step,
)

# module globals, as in the engine: an Enum class attribute is a slow lookup
_JHYAP_CHECK, _DISCARD, _PICK = Phase.JHYAP_CHECK, Phase.DISCARD, Phase.PICK


class BeliefError(GameError):
    """Belief state inconsistent with the observation it should explain."""


@dataclass
class SearchConfig:
    iterations: int = 1000
    determinizations: int = 3
    exploration_c: float = math.sqrt(2)
    max_rollout_depth: int = 200
    time_limit_ms: Optional[int] = 1000

    def __post_init__(self) -> None:
        if self.iterations < 1 or self.determinizations < 1 or self.exploration_c <= 0:
            raise ValueError("iterations/determinizations must be >=1, exploration_c > 0")


@dataclass(frozen=True)
class BeliefState:
    """What a player can infer about hidden cards.

    ``unseen_pool`` holds every card that is neither in the player's hand,
    nor face up on the pile, nor pinned to a specific opponent;
    ``known_opponent_cards`` pins cards an opponent picked from the pile
    top and has not discarded since.
    """

    unseen_pool: frozenset[Card]
    opponent_hand_sizes: dict[int, int]
    known_opponent_cards: dict[int, frozenset[Card]]

    @cached_property
    def deal_plan(self) -> tuple[list[Card], list[tuple[int, list[Card], int]], int]:
        """What every determinization of this belief shares, worked out on
        first use: the unseen pool in canonical order; per opponent (in
        ``opponent_hand_sizes`` order) the seat, its known cards and how
        many unseen cards it needs; and how many cards are left for the
        stock."""
        pool = sorted(self.unseen_pool)
        left = len(pool)
        seats = []
        for seat, size in self.opponent_hand_sizes.items():
            known = self.known_opponent_cards.get(seat, frozenset())
            need = size - len(known)
            if need < 0 or need > left:
                raise BeliefError(f"seat {seat} needs {need} unseen cards, pool has {left}")
            seats.append((seat, list(known), need))
            left -= need
        return pool, seats, left


class BeliefTracker:
    """Maintains a seat's belief across a round from public events."""

    def __init__(self, seat: int, num_players: int):
        self.seat = seat
        self.num_players = num_players
        others = [s for s in range(num_players) if s != seat]
        self.hand_sizes: dict[int, int] = {s: 5 for s in others}
        self.known: dict[int, set[Card]] = {s: set() for s in others}

    def update(self, event: PublicEvent) -> None:
        """Fold one public action into the belief."""
        if isinstance(event, Discarded):
            if event.seat != self.seat:
                self.known[event.seat] -= set(event.group.cards)
                self.hand_sizes[event.seat] -= len(event.group.cards)
        elif isinstance(event, PickedTop):
            if event.seat != self.seat:
                self.known[event.seat].add(event.card)
                self.hand_sizes[event.seat] += 1
        elif isinstance(event, PickedStock):
            if event.seat != self.seat:
                self.hand_sizes[event.seat] += 1
        elif isinstance(event, Reshuffled):
            pass  # pile contents re-enter the unseen pool via the observation

    def snapshot(self, observation: Observation) -> BeliefState:
        """Belief consistent with the current observation."""
        if observation.seat != self.seat:
            raise BeliefError("observation does not belong to this tracker's seat")
        seen = set(observation.own_hand)
        seen.update(observation.discard_pile_cards)
        known = {s: frozenset(cards) for s, cards in self.known.items()}
        for cards in known.values():
            seen.update(cards)
        sizes = dict(self.hand_sizes)
        observed = observation.opponent_hand_sizes
        for k, seat in enumerate(
            (self.seat + j) % self.num_players for j in range(1, self.num_players)
        ):
            if sizes[seat] != observed[k]:
                raise BeliefError(
                    f"tracked hand size {sizes[seat]} for seat {seat} "
                    f"disagrees with observed {observed[k]}"
                )
        return BeliefState(
            unseen_pool=frozenset(FULL_DECK) - seen,
            opponent_hand_sizes=sizes,
            known_opponent_cards=known,
        )


def determinize(
    belief: BeliefState, observation: Observation, rng: random.Random
) -> RoundState:
    """Sample a full hidden state consistent with the belief.

    Opponent hands get their known cards plus a uniform ``rng.sample`` of
    the unseen pool; whatever remains becomes the stock, shuffled as
    ``rng.shuffle`` would. The belief's ``deal_plan`` holds the work that
    does not depend on the draws, so a decision does it once.
    """
    pool, seats, left = belief.deal_plan
    if left != observation.stock_size:
        raise BeliefError(
            f"belief leaves {left} cards for a stock of {observation.stock_size}"
        )
    stock = list(pool)
    players: list[Optional[PlayerState]] = [None] * observation.num_players
    avg = round(observation.avg_opponent_coins)
    for seat, known, need in seats:
        # sampling positions draws exactly as sampling the cards would
        picked = rng.sample(range(len(stock)), need)
        players[seat] = PlayerState(known + [stock[i] for i in picked], avg)
        for i in sorted(picked, reverse=True):
            del stock[i]
    players[observation.seat] = PlayerState(
        list(observation.own_hand), observation.own_coins
    )
    shuffle_cards(stock, rng)
    state = RoundState(
        players,  # type: ignore[arg-type]
        stock,
        list(observation.discard_pile_groups),
        rng,
        turn_limit=observation.turn_limit,
        round_index=observation.round_index,
        validate=False,
    )
    state.current_player = observation.seat
    state.phase = observation.phase
    state.turn_count = observation.turn_count
    return state


def ucb_score(mean: float, parent_visits: int, visits: int, legal: int, total: int,
              exploration_c: float) -> float:
    """UCB1 with the exploration term scaled by the legality fraction."""
    if visits == 0:
        return math.inf
    return mean + exploration_c * (legal / total) * math.sqrt(
        math.log(parent_visits) / visits
    )


def _playout_outcome(
    state: RoundState, rng: random.Random, max_actions: int
) -> Optional[RoundOutcome]:
    """Uniform-random legal play until settlement; None if the cap is hit.

    Equal to the ``round_termination(state)`` ending, if there is one, and
    otherwise to at most ``max_actions`` calls of ``engine.step`` with the
    same draws: declare when eligible and ``rng.random() < 0.5``, discard
    ``random_discard_group(hand, rng)``, take the top when it is legal and
    ``rng.random() < 0.5``. Kept as one tight loop because search spends
    most of its time here; a property test holds it to that reference.

    Hands are played as card-code lists in list order, each with a running
    value, and discard through ``engine.draw_discard``; the stock and the
    pile stay the state's own lists, so pile groups no action touched are
    kept as they are. The hands are written back before the function
    returns, so a settlement reads the final state.
    """
    outcome = round_termination(state)
    if outcome is not None:
        return outcome
    players = state.players
    n = len(players)
    hands = [list(map(CARD_CODE.__getitem__, player.hand)) for player in players]
    values = [hand_value(player.hand) for player in players]
    stock, pile = state.stock, state.discard_stack
    seat, phase, turn = state.current_player, state.phase, state.turn_count
    turn_limit, count_orbits = state.turn_limit, state.count_orbits
    draw = rng.random
    end: Optional[EndReason] = None
    for _ in range(max_actions):
        if phase is _JHYAP_CHECK:
            if values[seat] <= JHYAP_THRESHOLD and draw() < 0.5:
                end = EndReason.JHYAP_SHOWDOWN
                break
            phase = _DISCARD
        elif phase is _DISCARD:
            hand = hands[seat]
            group, codes = draw_discard(hand, rng)
            pile.append(group)
            value = values[seat]
            for code in codes:
                hand.remove(code)
                value -= CODE_RANK[code]
            values[seat] = value
            phase = _PICK
            if not hand:
                end = EndReason.EMPTY_HAND
                break
            if not stock and len(pile) < 2:
                end = EndReason.DECK_EXHAUSTED
                break
        else:
            if len(pile) >= 2 and draw() < 0.5:
                group = pile[-2]  # the top of the group below the picker's own
                cards = group.cards
                card = cards[-1]
                if len(cards) > 1:
                    pile[-2] = DiscardGroup(group.kind, cards[:-1])
                else:
                    del pile[-2]
            else:
                if not stock:
                    _reshuffle_into_stock(state)
                    stock, pile = state.stock, state.discard_stack
                card = stock.pop()
                if not stock:
                    _reshuffle_into_stock(state)
                    stock, pile = state.stock, state.discard_stack
            hands[seat].append(CARD_CODE[card])
            values[seat] += card[0]  # its rank
            seat += 1
            if seat == n:
                seat = 0
                turn += 1
            elif not count_orbits:
                turn += 1
            phase = _JHYAP_CHECK
            if turn >= turn_limit:
                end = EndReason.TURN_LIMIT
                break

    for player, hand in zip(players, hands):
        player.hand[:] = map(CODE_CARD.__getitem__, hand)
    state.current_player, state.phase, state.turn_count = seat, phase, turn
    if end is None:
        return None
    if end is EndReason.JHYAP_SHOWDOWN:
        return resolve_jhyap(state)
    if end is EndReason.EMPTY_HAND:
        return RoundOutcome(seat, _settle_showdown(state, seat), end)
    return RoundOutcome(None, (0,) * n, end)


def rollout(
    state: RoundState,
    rng: random.Random,
    max_depth: int = 200,
    seat: Optional[int] = None,
) -> float:
    """Random-playout utility for ``seat`` (default: the player to move).

    Returns the seat's coin change at settlement, or 0 when the depth cap
    cuts the playout off.
    """
    if seat is None:
        seat = state.current_player
    outcome = _playout_outcome(state, rng, max_depth)
    return float(outcome.coin_delta[seat]) if outcome else 0.0


class ActionStats:
    __slots__ = ("visits", "total_reward", "legal_count", "avail_count", "child")

    def __init__(self) -> None:
        self.visits = 0
        self.total_reward = 0.0
        self.legal_count = 0  # legality count within the latest batch
        self.avail_count = 0  # accumulated legality observations
        self.child: Optional[InfoNode] = None

    @property
    def mean_reward(self) -> float:
        return self.total_reward / self.visits if self.visits else 0.0


class InfoNode:
    """One information-set node: per-action statistics plus visit totals."""

    __slots__ = ("visits", "samples", "mover", "actions")

    def __init__(self, mover: int) -> None:
        self.visits = 0
        self.samples = 0  # determinization observations (for frequency mode)
        self.mover = mover
        self.actions: dict[Action, ActionStats] = {}


class _TreeSearch:
    """Shared select/expand/rollout/backpropagate engine for both variants."""

    def __init__(self, cfg: SearchConfig, batch_legality: bool):
        self.cfg = cfg
        # True: exploration scaled by this batch's l/d (information-set mode).
        # False: scaled by the action's accumulated legality frequency.
        self.batch_legality = batch_legality
        self.last_root: Optional[InfoNode] = None
        self.credit_log: Optional[list[tuple[int, Action, float]]] = None

    def decide(
        self,
        observation: Observation,
        belief: BeliefState,
        rng: random.Random,
    ) -> Action:
        root_actions = legal_actions(observation)
        if len(root_actions) == 1:
            return root_actions[0]
        root = InfoNode(observation.seat)
        self.last_root = root
        deadline = (
            time.perf_counter() + self.cfg.time_limit_ms / 1000.0
            if self.cfg.time_limit_ms is not None
            else None
        )
        d = self.cfg.determinizations
        for _ in range(self.cfg.iterations):
            if deadline is not None and time.perf_counter() > deadline:
                break
            worlds = [determinize(belief, observation, rng) for _ in range(d)]
            self._run_iteration(root, worlds, rng)
        best = max(
            root_actions,
            key=lambda a: (
                root.actions[a].visits if a in root.actions else 0,
                root.actions[a].mean_reward if a in root.actions else -math.inf,
            ),
        )
        return best

    def _run_iteration(
        self, root: InfoNode, worlds: list[RoundState], rng: random.Random
    ) -> None:
        cfg = self.cfg
        d = cfg.determinizations
        path: list[tuple[InfoNode, Action]] = []
        results: list[tuple[int, ...]] = []
        node = root
        live = worlds
        while True:
            node.mover = live[0].current_player
            legal_per_world = [legal_actions(world) for world in live]
            candidates: list[Action] = []
            legal_counts: dict[Action, int] = {}
            for legal in legal_per_world:
                for action in legal:
                    if action in legal_counts:
                        legal_counts[action] += 1
                    else:
                        legal_counts[action] = 1
                        candidates.append(action)
            node.samples += len(live)
            for action, count in legal_counts.items():
                stats = node.actions.get(action)
                if stats is None:
                    stats = node.actions[action] = ActionStats()
                stats.legal_count = count
                stats.avail_count += count

            unvisited = [a for a in candidates if node.actions[a].visits == 0]
            if unvisited:
                action = unvisited[rng.randrange(len(unvisited))]
                expanding = True
            else:
                action = self._select(node, candidates, legal_counts, d)
                expanding = False

            path.append((node, action))
            survivors: list[RoundState] = []
            for world, legal in zip(live, legal_per_world):
                if action not in legal:
                    continue  # worlds where the move is impossible drop out
                outcome = step(world, action)
                if outcome is not None:
                    results.append(outcome.coin_delta)
                else:
                    survivors.append(world)
            live = survivors

            stats = node.actions[action]
            if expanding:
                for world in live:
                    outcome = _playout_outcome(world, rng, cfg.max_rollout_depth)
                    results.append(
                        outcome.coin_delta
                        if outcome is not None
                        else (0,) * world.num_players
                    )
                if stats.child is None and live:
                    stats.child = InfoNode(live[0].current_player)
                break
            if not live:
                break
            if stats.child is None:
                stats.child = InfoNode(live[0].current_player)
            node = stats.child

        if not results:
            return
        num_players = len(results[0])
        mean_delta = [
            sum(r[seat] for r in results) / len(results) for seat in range(num_players)
        ]
        for visited, action in path:
            stats = visited.actions[action]
            stats.visits += 1
            stats.total_reward += mean_delta[visited.mover]
            visited.visits += 1
            if self.credit_log is not None:
                self.credit_log.append((id(visited), action, mean_delta[visited.mover]))

    def _select(
        self,
        node: InfoNode,
        candidates: list[Action],
        legal_counts: dict[Action, int],
        d: int,
    ) -> Action:
        best_action = candidates[0]
        best_score = -math.inf
        for action in candidates:
            stats = node.actions[action]
            if self.batch_legality:
                legal, total = legal_counts[action], d
            else:
                legal, total = stats.avail_count, node.samples
            score = ucb_score(
                stats.mean_reward,
                max(node.visits, 1),
                stats.visits,
                legal,
                total,
                self.cfg.exploration_c,
            )
            if score > best_score:
                best_score = score
                best_action = action
        return best_action


def mcts_decide(
    observation: Observation,
    belief: BeliefState,
    cfg: SearchConfig,
    rng: random.Random,
) -> Action:
    """Single-determinization tree search with frequency-based legality."""
    single = replace(cfg, determinizations=1)
    return _TreeSearch(single, batch_legality=False).decide(observation, belief, rng)


def ismcts_decide(
    observation: Observation,
    belief: BeliefState,
    cfg: SearchConfig,
    rng: random.Random,
) -> Action:
    """Information-set search sampling ``cfg.determinizations`` worlds per
    iteration, sharing one tree across them."""
    return _TreeSearch(cfg, batch_legality=True).decide(observation, belief, rng)


class SearchAgent:
    """Round-level adapter: tracks beliefs from events, searches per decision."""

    def __init__(self, variant: str, cfg: Optional[SearchConfig] = None):
        if variant not in ("mcts", "ismcts"):
            raise ValueError(f"unknown search variant: {variant}")
        self.variant = variant
        self.cfg = cfg or SearchConfig()
        self._tracker: Optional[BeliefTracker] = None

    @property
    def name(self) -> str:
        return self.variant

    def begin_round(self, seat: int, num_players: int) -> None:
        self._tracker = BeliefTracker(seat, num_players)

    def observe(self, event: PublicEvent) -> None:
        assert self._tracker is not None, "begin_round must run first"
        self._tracker.update(event)

    def _decide(self, observation: Observation, rng: random.Random) -> Action:
        assert self._tracker is not None, "begin_round must run first"
        belief = self._tracker.snapshot(observation)
        if self.variant == "mcts":
            return mcts_decide(observation, belief, self.cfg, rng)
        return ismcts_decide(observation, belief, self.cfg, rng)

    def decide_jhyap(self, observation: Observation, rng: random.Random) -> bool:
        return self._decide(observation, rng) is JhyapAction.DECLARE

    def decide_discard(
        self, observation: Observation, rng: random.Random
    ) -> DiscardGroup:
        action = self._decide(observation, rng)
        assert isinstance(action, DiscardGroup)
        return action

    def decide_pick(self, observation: Observation, rng: random.Random) -> PickSource:
        action = self._decide(observation, rng)
        assert isinstance(action, PickSource)
        return action
