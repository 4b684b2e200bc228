"""Tournament orchestration for Dhumbal agents.

Plays complete rounds between any mix of agents (rule-based, search,
learning, random, human): each decision is asked of the agent through
``engine.ask``, timed with a monotonic clock, and applied with
``engine.step``, which also reports when the round ends. The results
are aggregated into metric summaries. Coin balances persist
across a tournament's rounds; hands are redealt every round. Sequential
execution reproduces records bit-for-bit (timing aside) from (config,
seed); the optional worker pool derives per-round seeds as seed + round
index instead, which keeps rounds reproducible but fixes observed coin
balances at their starting value. Both modes play a round through one
``_play`` and keep the books in one loop, which asserts that every round is
zero-sum and conserves the coins.

An agent has a ``name``, ``begin_round(seat, num_players)`` and the three
``decide_*`` calls that ``engine.ask`` makes. ``observe(event)`` is
optional: ``run_round`` passes the ``observe`` of every agent that has it
to ``engine.deal``, so it is sent every public event of the round
(``engine.PublicEvent``) as the engine makes it, and a round in which no
agent has it builds no events at all.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from . import analytics
from .engine import (
    DiscardGroup,
    JhyapAction,
    Observation,
    PickSource,
    ask,
    can_declare_jhyap,
    deal,
    forced_decline,
    hand_value,
    legal_actions,
    observation_for,
    random_discard_group,
    round_termination,
    step,
)
from .heuristics import PROFILES, HeuristicAgent, HeuristicProfile, make_profile
from .learning import RLAgent
from .search import SearchAgent, SearchConfig


class RandomAgent:
    """The uniform baseline: a uniform choice among the legal actions."""

    name = "random"

    def begin_round(self, seat: int, num_players: int) -> None:
        pass

    def decide_jhyap(self, observation: Observation, rng: random.Random) -> bool:
        return can_declare_jhyap(observation.own_hand) and rng.random() < 0.5

    def decide_discard(
        self, observation: Observation, rng: random.Random
    ) -> DiscardGroup:
        return random_discard_group(observation.own_hand, rng)

    def decide_pick(self, observation: Observation, rng: random.Random) -> PickSource:
        sources = legal_actions(observation)
        return sources[rng.randrange(len(sources))]


SEARCH_KINDS = ("mcts", "ismcts")


def _reject_unknown_options(kind: str, options: dict, known) -> None:
    unknown = sorted(set(options) - set(known))
    if unknown:
        raise ValueError(f"unknown options for a {kind!r} agent: {unknown}")


def _kind(spec: Union[str, dict]) -> tuple:
    """An agent entry's kind and its options: a name has none, and a
    "heuristic" entry takes its kind from "profile". An entry that is
    neither a name nor a dict raises TypeError."""
    if isinstance(spec, str):
        return spec, {}
    if not isinstance(spec, dict):
        raise TypeError(f"an agent entry is a name or an object, not {spec!r}")
    options = dict(spec)
    kind = options.pop("kind", None)
    if kind == "heuristic":
        kind = options.pop("profile", None)
    return kind, options


def build_agent(spec: Union[str, dict]):
    """Construct an agent from a config entry.

    Strings name stock agents ("aggressive", "random", "ismcts", ...);
    dicts add options: heuristic profile overrides, SearchConfig fields,
    or a required checkpoint path for "dqn"/"ppo". An unknown kind or
    option raises ValueError.
    """
    kind, spec = _kind(spec)
    if kind in PROFILES:
        _reject_unknown_options(kind, spec, HeuristicProfile.__dataclass_fields__)
        return HeuristicAgent(make_profile(kind, **spec))
    if kind == "random":
        _reject_unknown_options(kind, spec, ())
        return RandomAgent()
    if kind in SEARCH_KINDS:
        _reject_unknown_options(kind, spec, SearchConfig.__dataclass_fields__)
        return SearchAgent(kind, SearchConfig(**spec)) if spec else SearchAgent(kind)
    if kind in ("dqn", "ppo"):
        checkpoint = spec.pop("checkpoint", None)
        _reject_unknown_options(kind, spec, ())
        if checkpoint is None:
            raise ValueError(
                f"{kind!r} agent needs a 'checkpoint' path; refusing to play "
                "with untrained weights"
            )
        agent = RLAgent.from_checkpoint(Path(checkpoint), name=kind)
        if agent.kind != kind:
            raise ValueError(
                f"checkpoint {checkpoint} holds a {agent.kind} model, not {kind}"
            )
        return agent
    raise ValueError(f"unknown agent kind {kind!r}")


@dataclass
class TournamentConfig:
    """Everything needed to reproduce a tournament."""

    agents: list  # str or dict specs, one per seat
    rounds: int = 1024
    seed: int = 42
    seating: str = "random"  # "random" (per round) or "fixed"
    turn_limit: int = 100
    workers: int = 1
    starting_coins: int = 10_000

    def __post_init__(self) -> None:
        for name in ("rounds", "seed", "turn_limit", "workers", "starting_coins"):
            if type(getattr(self, name)) is not int:  # a bool is an int too
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not 2 <= len(self.agents) <= 5:
            raise ValueError("tournaments need 2..5 agents")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.seed < 0:
            # random.Random(-s) seeds like random.Random(s): one run, two names
            raise ValueError("seed must be >= 0")
        if self.seating not in ("random", "fixed"):
            raise ValueError("seating must be 'random' or 'fixed'")
        if self.turn_limit < 1:
            raise ValueError("turn_limit must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def to_doc(self) -> dict:
        return asdict(self)

    @classmethod
    def from_doc(cls, doc: dict) -> "TournamentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)


def agent_names(specs: Sequence[Union[str, dict]]) -> list[str]:
    """Display names per seat, disambiguating duplicates with #2, #3, ..."""
    bases = []
    for spec in specs:
        kind, options = _kind(spec)
        bases.append(options.get("name") or kind)
    names = []
    for index, base in enumerate(bases):
        if bases.count(base) > 1:
            names.append(f"{base}#{bases[: index + 1].count(base)}")
        else:
            names.append(base)
    return names


@dataclass
class RoundRecord:
    """Everything observable about one finished round, indexed by agent."""

    round_index: int
    seating: tuple[int, ...]  # seat -> agent index
    winner_agent: Optional[int]
    end_reason: str
    turns: int
    jhyap_agent: Optional[int]
    jhyap_hand_value: Optional[int]
    jhyap_succeeded: Optional[bool]
    coin_delta: tuple[int, ...]  # by agent index
    cards_discarded: tuple[int, ...]
    rewards: tuple[float, ...]
    final_hand_values: tuple[int, ...]
    decisions: tuple[int, ...]
    decision_ms: tuple[float, ...]


def run_round(
    agents: Sequence,
    seating: Sequence[int],
    rng: random.Random,
    *,
    balances: Optional[Sequence[int]] = None,
    round_index: int = 0,
    turn_limit: int = 100,
) -> RoundRecord:
    """Play one full round. Each choice is asked of its agent through
    ``engine.ask`` on one observation and timed; a forced decline, a Jhyap
    check whose mover holds more than the threshold, is played without
    asking, so it builds no observation and counts as no decision."""
    num_players = len(seating)
    agent_of_seat = list(seating)
    coins = (
        [10_000] * num_players
        if balances is None
        else [balances[agent_of_seat[seat]] for seat in range(num_players)]
    )
    state = deal(
        num_players,
        rng,
        coins=coins,
        round_index=round_index,
        turn_limit=turn_limit,
        observers=[a.observe for a in agents if hasattr(a, "observe")],
    )
    n_agents = len(agents)
    rewards = [0.0] * n_agents
    cards_discarded = [0] * n_agents
    decisions = [0] * n_agents
    decision_ms = [0.0] * n_agents

    for seat in range(num_players):
        agents[agent_of_seat[seat]].begin_round(seat, num_players)

    outcome = round_termination(state)
    while outcome is None:
        if forced_decline(state):
            action = JhyapAction.DECLINE
        else:
            seat = state.current_player
            agent_index = agent_of_seat[seat]
            obs = observation_for(state, seat)
            start = time.perf_counter()
            action = ask(agents[agent_index], obs, rng)
            decision_ms[agent_index] += (time.perf_counter() - start) * 1000.0
            decisions[agent_index] += 1
            if isinstance(action, DiscardGroup):
                cards_discarded[agent_index] += len(action.cards)
                rewards[agent_index] += 1.0
            elif isinstance(action, PickSource):
                rewards[agent_index] += 1.0
        outcome = step(state, action)

    delta_by_agent = [0] * n_agents
    final_values = [0] * n_agents
    for seat in range(num_players):
        delta_by_agent[agent_of_seat[seat]] = outcome.coin_delta[seat]
        final_values[agent_of_seat[seat]] = hand_value(state.players[seat].hand)
    for index in range(n_agents):
        rewards[index] += delta_by_agent[index]
    declarer = outcome.jhyap_declared_by  # a declaration ends the round on its hand
    jhyap_agent = None if declarer is None else agent_of_seat[declarer]
    winner_agent = (
        agent_of_seat[outcome.winner] if outcome.winner is not None else None
    )
    return RoundRecord(
        round_index=round_index,
        seating=tuple(agent_of_seat),
        winner_agent=winner_agent,
        end_reason=outcome.end_reason.value,
        turns=state.turn_count,
        jhyap_agent=jhyap_agent,
        jhyap_hand_value=None if declarer is None else final_values[jhyap_agent],
        jhyap_succeeded=outcome.jhyap_succeeded,
        coin_delta=tuple(delta_by_agent),
        cards_discarded=tuple(cards_discarded),
        rewards=tuple(rewards),
        final_hand_values=tuple(final_values),
        decisions=tuple(decisions),
        decision_ms=tuple(decision_ms),
    )


@dataclass
class TournamentResult:
    config: TournamentConfig
    names: list[str]
    records: list[RoundRecord]
    summary: analytics.MetricsSummary
    final_balances: list[int] = field(default_factory=list)


def _seating_for(round_rng: random.Random, n: int, seating: str) -> list[int]:
    order = list(range(n))
    if seating == "random":
        round_rng.shuffle(order)
    return order


def _play(config: TournamentConfig, agents: Sequence, rng: random.Random,
          balances: Sequence[int], round_index: int) -> RoundRecord:
    """One round of a tournament: seat the players, then ``run_round``."""
    seating = _seating_for(rng, len(agents), config.seating)
    return run_round(agents, seating, rng, balances=balances, round_index=round_index,
                     turn_limit=config.turn_limit)


def _played(config: TournamentConfig, agents: Sequence, balances: list[int]):
    """Each round's record in round order. Sequential rounds share one
    stream and read the live ``balances``; pool rounds are each seeded
    ``seed + round_index`` and see the starting coins."""
    if config.workers == 1:
        rng = random.Random(config.seed)
        for round_index in range(config.rounds):
            yield _play(config, agents, rng, balances, round_index)
        return
    with ProcessPoolExecutor(
        max_workers=config.workers, initializer=_start_worker, initargs=(config,)
    ) as pool:
        yield from pool.map(_parallel_round, range(config.rounds), chunksize=4)


def run_tournament(config: TournamentConfig, agents=None) -> TournamentResult:
    """Play config.rounds rounds with persistent coin balances.

    Total coins are conserved every round (asserted); records capture each
    round fully so analytics can be re-run offline. Pool workers build
    their own agents from the config, once each, so ``agents`` can be
    passed only with ``workers == 1``.
    """
    if agents is not None and config.workers > 1:
        raise ValueError(
            f"agents were passed with workers={config.workers}: pool workers "
            "build their own agents from config.agents; use workers=1"
        )
    if agents is None:
        agents = [build_agent(spec) for spec in config.agents]
    names = agent_names(config.agents)
    n = len(agents)
    records: list[RoundRecord] = []
    balances = [config.starting_coins] * n
    for record in _played(config, agents, balances):
        assert sum(record.coin_delta) == 0
        for index in range(n):
            balances[index] += record.coin_delta[index]
        assert sum(balances) == n * config.starting_coins
        records.append(record)
    summary = analytics.summarize(records, names)
    return TournamentResult(config, names, records, summary, balances)


# a pool worker's config and the agents it built from it, set once per worker
_worker: Optional[tuple[TournamentConfig, list]] = None


def _start_worker(config: TournamentConfig) -> None:
    global _worker
    _worker = (config, [build_agent(spec) for spec in config.agents])


def _parallel_round(round_index: int) -> RoundRecord:
    config, agents = _worker
    rng = random.Random(config.seed + round_index)
    return _play(config, agents, rng, [config.starting_coins] * len(agents), round_index)


CHAMPIONSHIP_LINEUP = ("aggressive", "ismcts", "ppo", "random")


def check_championship_lineup(specs) -> None:
    """Raise ValueError unless the agent entries are the championship's four."""
    kinds = [_kind(spec)[0] for spec in specs]
    if sorted(map(str, kinds)) != sorted(CHAMPIONSHIP_LINEUP):
        raise ValueError(
            f"championship needs exactly {CHAMPIONSHIP_LINEUP}, got {kinds}"
        )


def championship(config: TournamentConfig, agents=None) -> TournamentResult:
    """The cross-category final: Aggressive, ISMCTS, PPO, Random."""
    check_championship_lineup(config.agents)
    return run_tournament(config, agents=agents)


# --- records persistence ----------------------------------------------------

# (column, RoundRecord field, cell type) of the round columns, then of the
# columns each agent repeats as a{index}_{column}. "names" and "seats" are not
# RoundRecord fields: they are the names written with the records, and the
# inverse of the record's seating.
_ROUND_COLUMNS = (
    ("round", "round_index", int),
    ("winner_agent", "winner_agent", Optional[int]),
    ("end_reason", "end_reason", str),
    ("turns", "turns", int),
    ("jhyap_agent", "jhyap_agent", Optional[int]),
    ("jhyap_hand_value", "jhyap_hand_value", Optional[int]),
    ("jhyap_succeeded", "jhyap_succeeded", Optional[bool]),
)
_AGENT_COLUMNS = (
    ("name", "names", str),
    ("seat", "seats", int),
    ("delta", "coin_delta", int),
    ("cards", "cards_discarded", int),
    ("reward", "rewards", float),
    ("final_hand", "final_hand_values", int),
    ("decisions", "decisions", int),
    ("time_ms", "decision_ms", float),
)


def _records_header(n: int) -> list[str]:
    return [column for column, _, _ in _ROUND_COLUMNS] + [
        f"a{index}_{column}" for index in range(n) for column, _, _ in _AGENT_COLUMNS
    ]


def _inverse(order: Sequence[int]) -> tuple[int, ...]:
    """The inverse permutation: seat -> agent gives agent -> seat."""
    return tuple(sorted(range(len(order)), key=order.__getitem__))


def records_to_csv(
    records: Sequence[RoundRecord], names: Sequence[str], path: Union[str, Path]
) -> None:
    """One row per round; `*_time_ms` columns are the only nondeterminism."""
    n = len(names)

    def row(record: RoundRecord) -> list:
        values = dict(vars(record), names=names, seats=_inverse(record.seating))
        return [values[name] for _, name, _ in _ROUND_COLUMNS] + [
            values[name][index] for index in range(n) for _, name, _ in _AGENT_COLUMNS
        ]

    analytics.write_csv(path, _records_header(n), map(row, records))


def records_from_csv(path: Union[str, Path]) -> tuple[list[RoundRecord], list[str]]:
    """Inverse of records_to_csv. A file the arena could not have written
    raises ValueError: a header or row width other than its own, rows that
    name other agents than the first, or a round that is not zero-sum."""
    header, rows = analytics.read_csv(path)
    width = len(_AGENT_COLUMNS)
    n = (len(header) - len(_ROUND_COLUMNS)) // width
    if header != _records_header(n):
        raise ValueError(f"{path}: not the records header for {n} agents")
    readers = [
        analytics.cell_reader(kind)
        for _, _, kind in _ROUND_COLUMNS + _AGENT_COLUMNS * n
    ]
    records = []
    names: list[str] = []
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}: line {line} has {len(row)} cells, not {len(header)}")
        cells = [read(cell) for read, cell in zip(readers, row)]
        values = {name: cell for (_, name, _), cell in zip(_ROUND_COLUMNS, cells)}
        for offset, (_, name, _) in enumerate(_AGENT_COLUMNS, len(_ROUND_COLUMNS)):
            values[name] = tuple(cells[offset::width])
        row_names, seats = list(values.pop("names")), values.pop("seats")
        if records and row_names != names:
            raise ValueError(f"{path}: line {line} names {row_names}, not {names}")
        if sorted(seats) != list(range(n)):
            raise ValueError(f"{path}: line {line} seats {seats} are not a seating")
        if sum(values["coin_delta"]) != 0:
            raise ValueError(f"{path}: line {line} coin deltas do not sum to zero")
        names = row_names
        values["seating"] = _inverse(seats)
        records.append(RoundRecord(**values))
    if not records:
        raise ValueError(f"{path}: no round records")
    return records, names
