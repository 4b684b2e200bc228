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
balances at their starting value.
"""

from __future__ import annotations

import csv
import json
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
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

    def observe(self, event) -> None:
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


def build_agent(spec: Union[str, dict]):
    """Construct an agent from a config entry.

    Strings name stock agents ("aggressive", "random", "ismcts", ...);
    dicts add options: heuristic profile overrides, SearchConfig fields,
    or a required checkpoint path for "dqn"/"ppo". An unknown kind or
    option raises ValueError.
    """
    if isinstance(spec, str):
        spec = {"kind": spec}
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if kind == "heuristic":
        kind = spec.pop("profile", None)
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
    count_orbits: bool = False
    workers: int = 1
    starting_coins: int = 10_000

    def __post_init__(self) -> None:
        if not 2 <= len(self.agents) <= 5:
            raise ValueError("tournaments need 2..5 agents")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.seating not in ("random", "fixed"):
            raise ValueError("seating must be 'random' or 'fixed'")
        if self.turn_limit < 1:
            raise ValueError("turn_limit must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def to_doc(self) -> dict:
        return {
            "agents": self.agents,
            "rounds": self.rounds,
            "seed": self.seed,
            "seating": self.seating,
            "turn_limit": self.turn_limit,
            "count_orbits": self.count_orbits,
            "workers": self.workers,
            "starting_coins": self.starting_coins,
        }

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
        if isinstance(spec, str):
            bases.append(spec)
        else:
            bases.append(spec.get("name") or spec.get("profile") or spec["kind"])
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
    count_orbits: bool = False,
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
        count_orbits=count_orbits,
        track_events=True,
    )
    n_agents = len(agents)
    rewards = [0.0] * n_agents
    cards_discarded = [0] * n_agents
    decisions = [0] * n_agents
    decision_ms = [0.0] * n_agents
    jhyap_agent = None
    jhyap_value = None

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
            elif action is JhyapAction.DECLARE:
                jhyap_agent = agent_index
                jhyap_value = obs.hand_value
        outcome = step(state, action)
        for event in state.events:
            for agent in agents:
                agent.observe(event)
        state.events.clear()

    delta_by_agent = [0] * n_agents
    final_values = [0] * n_agents
    for seat in range(num_players):
        delta_by_agent[agent_of_seat[seat]] = outcome.coin_delta[seat]
        final_values[agent_of_seat[seat]] = hand_value(state.players[seat].hand)
    for index in range(n_agents):
        rewards[index] += delta_by_agent[index]
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
        jhyap_hand_value=jhyap_value,
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


def run_tournament(config: TournamentConfig, agents=None) -> TournamentResult:
    """Play config.rounds rounds with persistent coin balances.

    Total coins are conserved every round (asserted); records capture each
    round fully so analytics can be re-run offline.
    """
    if agents is None:
        agents = [build_agent(spec) for spec in config.agents]
    names = agent_names(config.agents)
    n = len(agents)
    records: list[RoundRecord] = []
    balances = [config.starting_coins] * n
    if config.workers > 1:
        records = _run_parallel(config)
        for record in records:
            for index in range(n):
                balances[index] += record.coin_delta[index]
    else:
        rng = random.Random(config.seed)
        for round_index in range(config.rounds):
            seating = _seating_for(rng, n, config.seating)
            record = run_round(
                agents,
                seating,
                rng,
                balances=balances,
                round_index=round_index,
                turn_limit=config.turn_limit,
                count_orbits=config.count_orbits,
            )
            assert sum(record.coin_delta) == 0
            for index in range(n):
                balances[index] += record.coin_delta[index]
            assert sum(balances) == n * config.starting_coins
            records.append(record)
    summary = analytics.summarize(records, names)
    return TournamentResult(config, names, records, summary, balances)


_WORKER_AGENTS: dict[str, list] = {}


def _parallel_round(payload: tuple[str, int]) -> RoundRecord:
    config_json, round_index = payload
    agents = _WORKER_AGENTS.get(config_json)
    config = TournamentConfig.from_doc(json.loads(config_json))
    if agents is None:
        agents = [build_agent(spec) for spec in config.agents]
        _WORKER_AGENTS[config_json] = agents
    rng = random.Random(config.seed + round_index)
    seating = _seating_for(rng, len(agents), config.seating)
    return run_round(
        agents,
        seating,
        rng,
        balances=[config.starting_coins] * len(agents),
        round_index=round_index,
        turn_limit=config.turn_limit,
        count_orbits=config.count_orbits,
    )


def _run_parallel(config: TournamentConfig) -> list[RoundRecord]:
    config_json = json.dumps(config.to_doc(), sort_keys=True)
    payloads = [(config_json, index) for index in range(config.rounds)]
    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        return list(pool.map(_parallel_round, payloads, chunksize=4))


CHAMPIONSHIP_LINEUP = ("aggressive", "ismcts", "ppo", "random")


def check_championship_lineup(specs) -> None:
    """Raise ValueError unless the agent entries are the championship's four."""
    kinds = []
    for spec in specs:
        spec = {"kind": spec} if isinstance(spec, str) else spec
        kind = spec.get("profile") if spec.get("kind") == "heuristic" else spec.get("kind")
        kinds.append(kind)
    if sorted(map(str, kinds)) != sorted(CHAMPIONSHIP_LINEUP):
        raise ValueError(
            f"championship needs exactly {CHAMPIONSHIP_LINEUP}, got {kinds}"
        )


def championship(config: TournamentConfig, agents=None) -> TournamentResult:
    """The cross-category final: Aggressive, ISMCTS, PPO, Random."""
    check_championship_lineup(config.agents)
    return run_tournament(config, agents=agents)


# --- records persistence ----------------------------------------------------

_COMMON_COLUMNS = [
    "round",
    "winner_agent",
    "end_reason",
    "turns",
    "jhyap_agent",
    "jhyap_hand_value",
    "jhyap_succeeded",
]
_AGENT_FIELDS = [
    "name",
    "seat",
    "delta",
    "cards",
    "reward",
    "final_hand",
    "decisions",
    "time_ms",
]


def records_to_csv(
    records: Sequence[RoundRecord], names: Sequence[str], path: Union[str, Path]
) -> None:
    """One row per round; `*_time_ms` columns are the only nondeterminism."""
    n = len(names)
    header = list(_COMMON_COLUMNS)
    for index in range(n):
        header.extend(f"a{index}_{field}" for field in _AGENT_FIELDS)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for r in records:
            seat_of_agent = {agent: seat for seat, agent in enumerate(r.seating)}
            row = [
                r.round_index,
                "" if r.winner_agent is None else r.winner_agent,
                r.end_reason,
                r.turns,
                "" if r.jhyap_agent is None else r.jhyap_agent,
                "" if r.jhyap_hand_value is None else r.jhyap_hand_value,
                "" if r.jhyap_succeeded is None else int(r.jhyap_succeeded),
            ]
            for index in range(n):
                row.extend(
                    [
                        names[index],
                        seat_of_agent[index],
                        r.coin_delta[index],
                        r.cards_discarded[index],
                        repr(r.rewards[index]),
                        r.final_hand_values[index],
                        r.decisions[index],
                        repr(r.decision_ms[index]),
                    ]
                )
            writer.writerow(row)


def records_from_csv(path: Union[str, Path]) -> tuple[list[RoundRecord], list[str]]:
    """Inverse of records_to_csv."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        n = (len(header) - len(_COMMON_COLUMNS)) // len(_AGENT_FIELDS)
        records = []
        names: list[str] = []
        for row in reader:
            base = dict(zip(_COMMON_COLUMNS, row))
            seats = [0] * n
            names_row = []
            delta, cards, rewards, finals, decisions, times = [], [], [], [], [], []
            for index in range(n):
                offset = len(_COMMON_COLUMNS) + index * len(_AGENT_FIELDS)
                chunk = dict(zip(_AGENT_FIELDS, row[offset : offset + len(_AGENT_FIELDS)]))
                names_row.append(chunk["name"])
                seats[index] = int(chunk["seat"])
                delta.append(int(chunk["delta"]))
                cards.append(int(chunk["cards"]))
                rewards.append(float(chunk["reward"]))
                finals.append(int(chunk["final_hand"]))
                decisions.append(int(chunk["decisions"]))
                times.append(float(chunk["time_ms"]))
            names = names_row
            seating = [0] * n
            for agent, seat in enumerate(seats):
                seating[seat] = agent
            records.append(
                RoundRecord(
                    round_index=int(base["round"]),
                    seating=tuple(seating),
                    winner_agent=(
                        None if base["winner_agent"] == "" else int(base["winner_agent"])
                    ),
                    end_reason=base["end_reason"],
                    turns=int(base["turns"]),
                    jhyap_agent=(
                        None if base["jhyap_agent"] == "" else int(base["jhyap_agent"])
                    ),
                    jhyap_hand_value=(
                        None
                        if base["jhyap_hand_value"] == ""
                        else int(base["jhyap_hand_value"])
                    ),
                    jhyap_succeeded=(
                        None
                        if base["jhyap_succeeded"] == ""
                        else bool(int(base["jhyap_succeeded"]))
                    ),
                    coin_delta=tuple(delta),
                    cards_discarded=tuple(cards),
                    rewards=tuple(rewards),
                    final_hand_values=tuple(finals),
                    decisions=tuple(decisions),
                    decision_ms=tuple(times),
                )
            )
    if not records:
        raise ValueError(f"{path}: no round records")
    return records, names
