"""Monte Carlo tree search agents for Dhumbal.

Two variants share one information-set tree machinery:

* plain MCTS samples one hidden-state determinization per iteration and
  scales exploration by each action's accumulated legality frequency;
* ISMCTS samples a batch of determinizations per iteration (default 3)
  and scales exploration by the fraction of the batch in which the action
  is legal.

Selection uses UCB1 with the legality factor:
``score = mean + C * (l / d) * sqrt(ln(N) / n)``.
Every sampled world moves through ``engine.step``, so the tree plays by
the engine's own rules. At the root each world shows the mover's own hand,
stock size and pile, so its legal actions are the observation's and the
tree takes them once per decision; below the root each world takes its
candidates from ``engine.legal_actions``. A node's statistics belong to
its mover (Cowling, Powley & Whitehouse's ISMCTS), so a child is built
once, from the worlds that survive its action. Rollouts play uniformly
random legal actions in ``_playout_outcome``, a fast path tested against
``step``, until the engine settles the round, and score positions by
each player's coin change. The playout plays the engine's sorted hands in place, keeps
their running weight sums and draws discards through the engine's count
and pick (``draw_discard_index``, ``discard_at``). ``determinize`` keeps
what does not depend on its draws in the belief's ``deal_plan``, so a
decision works it out once, and deals sorted opponent hands with
``rng.sample``'s draws without its overhead. Property tests hold the
playout to ``step`` with the same draws and the same final state, and
the sampler to ``rng.sample``; golden digests pin determinized worlds
and their playouts for fixed beliefs and seeds.
"""

from __future__ import annotations

import math
import random
import sys
import time
from bisect import insort
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

from .engine import (
    Action,
    Card,
    Discarded,
    DiscardGroup,
    FULL_DECK,
    GameError,
    JHYAP_THRESHOLD,
    Observation,
    Phase,
    PickedStock,
    PickedTop,
    PlayerState,
    PublicEvent,
    Reshuffled,
    RoundOutcome,
    RoundState,
    _RANK_OF,
    _RANK_WEIGHT,
    _SINGLE_GROUPS,
    _SUIT_WEIGHT,
    _reshuffle_into_stock,
    discard_at,
    draw_discard_index,
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
    """Search budget and constants. The budget is ``iterations``, so a
    (config, seed) pair replays; ``time_limit_ms`` adds a wall-clock cut,
    and a search that sets it depends on machine speed and does not."""

    iterations: int = 1000
    determinizations: int = 3
    exploration_c: float = math.sqrt(2)
    max_rollout_depth: int = 200
    time_limit_ms: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("iterations", "determinizations", "max_rollout_depth"):
            if type(getattr(self, name)) is not int:  # a bool is an int too
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        limit = self.time_limit_ms
        if limit is not None and type(limit) is not int:
            raise ValueError(f"time_limit_ms must be None or an integer, got {limit!r}")
        c = self.exploration_c
        # NaN fails every comparison; an int past float range breaks the UCB score
        if (isinstance(c, bool) or not isinstance(c, (int, float))
                or not 0 < c <= sys.float_info.max):
            raise ValueError(f"exploration_c must be a finite number > 0, got {c!r}")
        if self.iterations < 1 or self.determinizations < 1:
            raise ValueError("iterations and determinizations must be >= 1")
        if (limit is not None and limit < 1) or self.max_rollout_depth < 0:
            raise ValueError("time_limit_ms must be None or >= 1, max_rollout_depth >= 0")


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


def _sample_positions(size: int, k: int, rng: random.Random) -> list[int]:
    """``rng.sample(range(size), k)``, with the same picks and draws.

    For ``size > 21`` and ``k <= 5`` CPython's ``sample`` keeps the picks in
    a set and redraws ``randbelow(size)`` on a repeat; that method runs
    here inlined on ``rng.getrandbits``, without ``sample``'s argument
    checks and per-draw calls. Other sizes call ``rng.sample``.
    """
    if size <= 21 or k > 5:
        return rng.sample(range(size), k)
    getrandbits = rng.getrandbits
    bits = size.bit_length()
    picked: list[int] = []
    for _ in range(k):
        j = getrandbits(bits)
        while j >= size or j in picked:
            j = getrandbits(bits)
        picked.append(j)
    return picked


def determinize(
    belief: BeliefState, observation: Observation, rng: random.Random
) -> RoundState:
    """Sample a full hidden state consistent with the belief.

    Opponent hands get their known cards plus a uniform ``rng.sample`` of
    the unseen pool, drawn by ``_sample_positions``, sorted as the engine
    keeps every hand; whatever remains
    becomes the stock, shuffled as ``rng.shuffle`` would. The belief's
    ``deal_plan`` holds the work that does not depend on the draws, so a
    decision does it once. The world is a ``RoundState`` at the
    observation's mover, turn and phase, playing on ``rng``, with no
    observers and no conservation checks.
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
        picked = _sample_positions(len(stock), need, rng)
        players[seat] = PlayerState(sorted(known + [stock[i] for i in picked]), avg)
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
    state.turn_count = observation.turn_count
    state.phase = observation.phase
    return state


def _playout_outcome(
    state: RoundState, rng: random.Random, max_actions: int
) -> Optional[RoundOutcome]:
    """Uniform-random legal play of a live round until settlement; None if
    the cap is hit. The tree hands it only worlds that survived ``step``,
    so it never checks for a settled start.

    Equal to at most ``max_actions`` calls of ``engine.step`` with the
    same draws: declare when eligible and ``rng.random() < 0.5``, discard
    ``random_discard_group(hand, rng)``, take the top when it is legal and
    ``rng.random() < 0.5``. Kept as one tight loop because search spends
    most of its time here; a property test holds it to that reference.

    Each hand is played in place, as the sorted list the engine keeps,
    with its running value and ``_RANK_WEIGHT``/``_SUIT_WEIGHT`` sums, so a
    discard is ``engine.draw_discard_index`` on the sums, a ``pop`` for a
    single and ``engine.discard_at`` only for a set or run; a pick is an
    ``insort``, as in ``engine.apply_pick``. The stock and the pile stay the
    state's own lists, so pile groups no action touched are kept as they
    are. The engine settles the final state: ``resolve_jhyap`` after a
    declaration, otherwise ``round_termination`` (None at the cap).
    """
    players = state.players
    n = len(players)
    hands = [player.hand for player in players]
    values: list[int] = []
    rank_sums: list[int] = []
    suit_sums: list[int] = []
    for hand in hands:
        value = ranks = suits = 0
        for card in hand:
            value += _RANK_OF[card]
            ranks += _RANK_WEIGHT[card]
            suits += _SUIT_WEIGHT[card]
        values.append(value)
        rank_sums.append(ranks)
        suit_sums.append(suits)
    stock, pile = state.stock, state.discard_stack
    seat, phase, turn = state.current_player, state.phase, state.turn_count
    turn_limit = state.turn_limit
    draw = rng.random
    # the mover's hand, value and sums, stored back when the turn passes
    hand, value = hands[seat], values[seat]
    ranks, suits = rank_sums[seat], suit_sums[seat]
    declared = False
    for _ in range(max_actions):
        if phase is _JHYAP_CHECK:
            if value <= JHYAP_THRESHOLD and draw() < 0.5:
                declared = True
                break
            phase = _DISCARD
        elif phase is _DISCARD:
            size = len(hand)
            index = draw_discard_index(size, ranks, suits, rng)
            if index < size:
                card = hand.pop(index)
                pile.append(_SINGLE_GROUPS[card])
                value -= _RANK_OF[card]
                ranks -= _RANK_WEIGHT[card]
                suits -= _SUIT_WEIGHT[card]
            else:
                group = discard_at(hand, index)
                pile.append(group)
                for card in group.cards:
                    hand.remove(card)
                    value -= _RANK_OF[card]
                    ranks -= _RANK_WEIGHT[card]
                    suits -= _SUIT_WEIGHT[card]
            phase = _PICK
            if not hand or (not stock and len(pile) < 2):
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
            insort(hand, card)
            values[seat] = value + _RANK_OF[card]
            rank_sums[seat] = ranks + _RANK_WEIGHT[card]
            suit_sums[seat] = suits + _SUIT_WEIGHT[card]
            seat += 1
            if seat == n:
                seat = 0
            hand, value = hands[seat], values[seat]
            ranks, suits = rank_sums[seat], suit_sums[seat]
            turn += 1
            phase = _JHYAP_CHECK
            if turn >= turn_limit:
                break

    state.current_player, state.phase, state.turn_count = seat, phase, turn
    return resolve_jhyap(state) if declared else round_termination(state)


class ActionStats:
    __slots__ = ("visits", "total_reward", "avail_count", "child")

    def __init__(self) -> None:
        self.visits = 0
        self.total_reward = 0.0
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
        limit = self.cfg.time_limit_ms
        deadline = None if limit is None else time.perf_counter() + limit / 1000.0
        d = self.cfg.determinizations
        for _ in range(self.cfg.iterations):
            worlds = [determinize(belief, observation, rng) for _ in range(d)]
            self._run_iteration(root, root_actions, worlds, rng)
            # read after each iteration: every search runs at least one
            if deadline is not None and time.perf_counter() > deadline:
                break
        stats = root.actions
        return max(root_actions, key=lambda a: (stats[a].visits, stats[a].mean_reward))

    def _run_iteration(
        self,
        root: InfoNode,
        root_actions: list[Action],
        worlds: list[RoundState],
        rng: random.Random,
    ) -> None:
        cfg = self.cfg
        d = cfg.determinizations
        path: list[tuple[InfoNode, Action]] = []
        results: list[tuple[int, ...]] = []
        node = root
        live = worlds
        while True:
            if node is root:
                # every world shows the mover's own hand, stock size and
                # pile, so each one's legal set is the observation's
                legal_per_world = [root_actions] * len(live)
                candidates = root_actions
                legal_counts = dict.fromkeys(root_actions, len(live))
            else:
                legal_per_world = [legal_actions(world) for world in live]
                candidates = []
                legal_counts = {}
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
            if not live:
                break

            stats = node.actions[action]
            if stats.child is None:  # its mover, before a playout moves on
                stats.child = InfoNode(live[0].current_player)
            if expanding:
                for world in live:
                    outcome = _playout_outcome(world, rng, cfg.max_rollout_depth)
                    results.append(
                        outcome.coin_delta
                        if outcome is not None
                        else (0,) * world.num_players
                    )
                break
            node = stats.child

        if not results:
            return
        count = len(results)
        mean_delta = [sum(deltas) / count for deltas in zip(*results)]
        for visited, action in path:
            stats = visited.actions[action]
            stats.visits += 1
            stats.total_reward += mean_delta[visited.mover]
            visited.visits += 1

    def _select(
        self,
        node: InfoNode,
        candidates: list[Action],
        legal_counts: dict[Action, int],
        d: int,
    ) -> Action:
        """The first candidate of highest UCB score, with ``log(N)`` taken
        once for the node and each score in the float order of the
        reference ``ucb_score`` in ``tests/test_search.py``. The tree
        selects only once every candidate has a visit."""
        log_visits = math.log(max(node.visits, 1))
        exploration_c = self.cfg.exploration_c
        batch_legality = self.batch_legality
        samples = node.samples
        actions = node.actions
        sqrt = math.sqrt
        best_action = candidates[0]
        best_score = -math.inf
        for action in candidates:
            stats = actions[action]
            visits = stats.visits
            if batch_legality:
                legal, total = legal_counts[action], d
            else:
                legal, total = stats.avail_count, samples
            score = stats.total_reward / visits + exploration_c * (
                legal / total
            ) * sqrt(log_visits / visits)
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

    def begin_round(self, seat: int, num_players: int) -> None:
        self._tracker = BeliefTracker(seat, num_players)

    def observe(self, event: PublicEvent) -> None:
        assert self._tracker is not None, "begin_round must run first"
        self._tracker.update(event)

    def act(self, observation: Observation, rng: random.Random) -> Action:
        assert self._tracker is not None, "begin_round must run first"
        belief = self._tracker.snapshot(observation)
        if self.variant == "mcts":
            return mcts_decide(observation, belief, self.cfg, rng)
        return ismcts_decide(observation, belief, self.cfg, rng)
