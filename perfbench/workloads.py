"""The benchmark's three closed-loop workloads.

Each workload runs in one process with ``workers=1`` and repeats a fixed
unit of work, so every round or episode starts after the previous one has
ended. A unit gets its own seed, drawn from the run's seed; the program
receives only the generated configs and command lines. ``nominal_unit_s``
is the unit's wall time on the reference machine (2 cores, Python 3.11);
it turns ``--seconds`` into a unit count, so a run's work depends only on
its seed and length, never on the speed of the code under test. Checks read the
artifacts with the benchmark's own parsers, never with the program's, so
that they verify the program and leave the traced call counts alone.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
from array import array
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from dhumbal import arena, cli, heuristics, learning, search

SEARCH_SPEC = {"iterations": 50, "determinizations": 3, "time_limit_ms": None}
RULE_PROFILES = ["aggressive", "conservative", "balanced", "opportunistic"]
STARTING_COINS = 10_000


@dataclass
class UnitResult:
    rounds: int  # rounds played: tournament rounds or one-round episodes
    turns: int = 0  # game turns over those rounds, as the program records them
    work_s: float = 0.0  # wall time of the unit's work, checks excluded
    digest: str = ""
    errors: list[str] = field(default_factory=list)
    phase_s: dict[str, float] = field(default_factory=dict)  # training time by learner
    phase_rounds: dict[str, int] = field(default_factory=dict)  # episodes by learner


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else json.dumps(part).encode())
    return h.hexdigest()


def _quiet(argv: list[str]) -> int:
    """Run one CLI command in-process, keeping its report off our stdout."""
    with redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _time_calls(owner, names, samples: array, keep=None):
    """Wrap owner.<name> so each call's latency in ms lands in samples,
    for the calls after which `keep()` is true when it is given."""
    clock = time.perf_counter
    patches = []
    for name in names:
        original = owner.__dict__[name]

        def timed(*args, _fn=original, **kwargs):
            start = clock()
            result = _fn(*args, **kwargs)
            elapsed = (clock() - start) * 1000.0
            if keep is None or keep():
                samples.append(elapsed)
            return result
        patches.append((owner, name, original))
        setattr(owner, name, timed)
    return patches


class SearchDuel:
    """The c06 lineup: MCTS against ISMCTS at a two-seat table."""

    name = "search-duel"
    unit_rounds = 1
    nominal_unit_s = 1.45

    def config(self, seed: int) -> arena.TournamentConfig:
        return arena.TournamentConfig(
            agents=[{"kind": "mcts", **SEARCH_SPEC}, {"kind": "ismcts", **SEARCH_SPEC}],
            rounds=self.unit_rounds,
            seed=seed,
            seating="random",
            workers=1,
            starting_coins=STARTING_COINS,
        )

    def setup(self) -> None:
        for spec in self.config(0).agents:
            arena.build_agent(spec)

    def time_decisions(self, samples: array):
        """Latency of searched decisions. A forced move (one legal root
        action) returns before it samples a world, so a decision searched
        iff it called ``determinize``; the tracer uses the same test."""
        worlds = [0, 0]  # determinize calls so far, and when the last decision ended
        original = search.__dict__["determinize"]

        def counted(*args, **kwargs):
            worlds[0] += 1
            return original(*args, **kwargs)

        def searched() -> bool:
            moved = worlds[0] > worlds[1]
            worlds[1] = worlds[0]
            return moved
        search.determinize = counted
        return [(search, "determinize", original)] + _time_calls(
            search, ("mcts_decide", "ismcts_decide"), samples, keep=searched)

    def run_unit(self, seed: int, work_dir: Path) -> tuple[UnitResult, object]:
        result = arena.run_tournament(self.config(seed))
        return UnitResult(rounds=self.unit_rounds), result

    def check(self, unit: UnitResult, result, work_dir: Path) -> None:
        records = result.records
        if len(records) != self.unit_rounds:
            unit.errors.append(f"{len(records)} records for {self.unit_rounds} rounds")
        balances = [STARTING_COINS] * 2
        rows = []
        for r in records:
            if sum(r.coin_delta) != 0:
                unit.errors.append(f"round {r.round_index}: coin_delta {r.coin_delta} "
                                   "is not zero-sum")
            for index in range(2):
                balances[index] += r.coin_delta[index]
            unit.turns += r.turns
            rows.append([r.round_index, list(r.seating), r.winner_agent, r.end_reason,
                         r.turns, r.jhyap_agent, r.jhyap_hand_value, r.jhyap_succeeded,
                         list(r.coin_delta), list(r.cards_discarded), list(r.rewards),
                         list(r.final_hand_values), list(r.decisions)])
        if balances != list(result.final_balances) or sum(balances) != 2 * STARTING_COINS:
            unit.errors.append(f"balances {result.final_balances} not conserved")
        unit.digest = _digest(rows, list(result.final_balances))


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class RuleLeague:
    """The four heuristic profiles at a four-seat table, through the CLI:
    ``dhumbal tournament rule`` and then ``dhumbal report`` on its records."""

    name = "rule-league"
    unit_rounds = 256
    nominal_unit_s = 0.62

    def argv(self, seed: int, out: Path) -> list[str]:
        return ["tournament", "rule", "--rounds", str(self.unit_rounds),
                "--seed", str(seed), "--out", str(out)]

    def setup(self) -> None:
        cli.build_parser().parse_args(self.argv(0, Path("unused")))
        for name in RULE_PROFILES:
            arena.build_agent(name)

    def time_decisions(self, samples: array):
        return _time_calls(heuristics.HeuristicAgent,
                           ("decide_jhyap", "decide_discard", "decide_pick"), samples)

    def run_unit(self, seed: int, work_dir: Path) -> tuple[UnitResult, object]:
        out = work_dir / "rule"
        codes = (_quiet(self.argv(seed, out)),
                 _quiet(["report", "--records", str(out / "records.csv"),
                         "--out", str(out / "report")]))
        return UnitResult(rounds=self.unit_rounds), (codes, out)

    def check(self, unit: UnitResult, result, work_dir: Path) -> None:
        codes, out = result
        if codes != (0, 0):
            unit.errors.append(f"exit codes {codes}")
            return
        rows = _read_csv(out / "records.csv")
        summary = json.loads((out / "summary.json").read_text())
        report = json.loads((out / "report" / "summary.json").read_text())
        if len(rows) != self.unit_rounds:
            unit.errors.append(f"{len(rows)} records for {self.unit_rounds} rounds")
        balances = [STARTING_COINS] * 4
        for row in rows:
            deltas = [int(row[f"a{index}_delta"]) for index in range(4)]
            if sum(deltas) != 0:
                unit.errors.append(f"round {row['round']}: deltas {deltas} not zero-sum")
            for index in range(4):
                balances[index] += deltas[index]
            unit.turns += int(row["turns"])
        if balances != summary["final_balances"] or sum(balances) != 4 * STARTING_COINS:
            unit.errors.append(f"balances {summary['final_balances']} not conserved")
        if report["metrics"] != summary["metrics"]:
            unit.errors.append("report from records.csv disagrees with summary.json")
        deterministic = [
            {k: v for k, v in row.items() if not k.endswith("_time_ms")} for row in rows
        ]
        unit.digest = _digest(deterministic, summary["final_balances"])


class TrainMix:
    """``dhumbal train dqn`` then ``dhumbal train ppo`` against the four
    heuristic opponents with periodic checkpoints, then greedy validation
    of each run's checkpoints with ``checkpoint_select``."""

    name = "train-mix"
    episodes = 100
    checkpoint_every = 50
    validation_rounds = 16
    unit_rounds = 2 * (episodes + episodes // checkpoint_every * validation_rounds)
    nominal_unit_s = 4.0

    def argv(self, kind: str, seed: int, out: Path) -> list[str]:
        return ["train", kind, "--episodes", str(self.episodes), "--seed", str(seed),
                "--checkpoint-every", str(self.checkpoint_every), "--out-dir", str(out)]

    def setup(self) -> None:
        parser = cli.build_parser()
        for kind in ("dqn", "ppo"):
            parser.parse_args(self.argv(kind, 0, Path("unused")))
        learning.default_opponents()
        learning.DQNAgentCore(learning.DQNConfig(), seed=0)
        learning.PPOAgentCore(learning.PPOConfig(), seed=0)

    def time_decisions(self, samples: array):
        """Latency of one learner step: the learner's action applied plus
        the opponents' replies up to its next decision."""
        return _time_calls(learning.RoundEnv, ("step",), samples)

    def run_unit(self, seed: int, work_dir: Path) -> tuple[UnitResult, object]:
        clock = time.perf_counter
        unit = UnitResult(rounds=self.unit_rounds)
        codes, selected = [], []
        for kind in ("dqn", "ppo"):
            out = work_dir / kind
            for old in out.glob("*.json"):  # checkpoints of the previous unit
                old.unlink()
            start = clock()
            codes.append(_quiet(self.argv(kind, seed, out)))
            unit.phase_s[kind] = clock() - start
            paths = sorted(out.glob(f"{kind}_ep*.json"))
            if paths:
                selected.append(learning.checkpoint_select(
                    paths, rounds=self.validation_rounds, seed=seed).name)
        return unit, (codes, selected)

    def check(self, unit: UnitResult, result, work_dir: Path) -> None:
        codes, selected = result
        if codes != [0, 0]:
            unit.errors.append(f"exit codes {codes}")
            return
        curves = []
        for kind in ("dqn", "ppo"):
            path = work_dir / kind / f"{kind}_curve.csv"
            rows = _read_csv(path)
            unit.phase_rounds[kind] = len(rows)
            # validation rounds do not report their turns, so only the
            # training episodes count toward turns
            unit.turns += sum(int(row["length"]) for row in rows)
            if [int(row["episode"]) for row in rows] != list(range(1, self.episodes + 1)):
                unit.errors.append(f"{kind} curve does not list episodes 1..{self.episodes}")
            if not all(math.isfinite(float(row["reward"])) and
                       math.isfinite(float(row["loss"])) for row in rows):
                unit.errors.append(f"{kind} curve has a non-finite reward or loss")
            checkpoints = sorted(p.name for p in (work_dir / kind).glob("*.json"))
            expected = [f"{kind}_ep{e:06d}.json" for e in
                        range(self.checkpoint_every, self.episodes + 1, self.checkpoint_every)]
            if checkpoints != expected:
                unit.errors.append(f"{kind} checkpoints {checkpoints} != {expected}")
            curves.append(path.read_bytes())
        if len(selected) != 2:
            unit.errors.append(f"validation selected {selected}")
        unit.digest = _digest(*curves, selected)


WORKLOADS = {w.name: w for w in (SearchDuel(), RuleLeague(), TrainMix())}
