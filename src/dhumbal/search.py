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
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Optional

from .engine import (
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
    _settle_showdown,
    apply_pick,
    hand_value,
    legal_actions,
    random_discard_group,
    resolve_jhyap,
    round_termination,
    step,
)


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

    Opponent hands get their known cards plus a uniform draw from the
    unseen pool; whatever remains becomes the stock in random order.
    """
    pool = sorted(belief.unseen_pool)
    players: list[Optional[PlayerState]] = [None] * observation.num_players
    avg = round(observation.avg_opponent_coins)
    for seat, size in belief.opponent_hand_sizes.items():
        known = belief.known_opponent_cards.get(seat, frozenset())
        need = size - len(known)
        if need < 0 or need > len(pool):
            raise BeliefError(
                f"seat {seat} needs {need} unseen cards, pool has {len(pool)}"
            )
        drawn = rng.sample(pool, need)
        for card in drawn:
            pool.remove(card)
        players[seat] = PlayerState(list(known) + drawn, avg)
    players[observation.seat] = PlayerState(
        list(observation.own_hand), observation.own_coins
    )
    if len(pool) != observation.stock_size:
        raise BeliefError(
            f"belief leaves {len(pool)} cards for a stock of {observation.stock_size}"
        )
    rng.shuffle(pool)
    state = RoundState(
        players,  # type: ignore[arg-type]
        pool,
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
    """
    outcome = round_termination(state)
    if outcome is not None:
        return outcome
    players = state.players
    n = len(players)
    # enum members looked up once: an Enum class attribute is a slow lookup
    jhyap_check, discard, pick = Phase.JHYAP_CHECK, Phase.DISCARD, Phase.PICK
    stock_source, top_source = PickSource.STOCK, PickSource.DISCARD_TOP
    while max_actions > 0:
        max_actions -= 1
        phase = state.phase
        if phase is jhyap_check:
            hand = players[state.current_player].hand
            if hand_value(hand) <= JHYAP_THRESHOLD and rng.random() < 0.5:
                return resolve_jhyap(state)
            state.phase = discard
        elif phase is discard:
            seat = state.current_player
            hand = players[seat].hand
            group = random_discard_group(hand, rng)
            for card in group.cards:
                hand.remove(card)
            state.discard_stack.append(group)
            state.phase = pick
            if not hand:
                return RoundOutcome(
                    seat, _settle_showdown(state, seat), EndReason.EMPTY_HAND
                )
            if not state.stock and len(state.discard_stack) < 2:
                return RoundOutcome(None, (0,) * n, EndReason.DECK_EXHAUSTED)
        else:
            if len(state.discard_stack) >= 2 and rng.random() < 0.5:
                apply_pick(state, top_source)
            else:
                apply_pick(state, stock_source)
            if state.turn_count >= state.turn_limit:
                return RoundOutcome(None, (0,) * n, EndReason.TURN_LIMIT)
    return None


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
    single = SearchConfig(
        iterations=cfg.iterations,
        determinizations=1,
        exploration_c=cfg.exploration_c,
        max_rollout_depth=cfg.max_rollout_depth,
        time_limit_ms=cfg.time_limit_ms,
    )
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
