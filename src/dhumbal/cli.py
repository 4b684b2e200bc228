"""Command-line interface: tournaments, training, reports, exports, and an
interactive table.

Artifacts land in --out (or $DHUMBAL_OUT, default ./results): records.csv
(one row per round), summary.json, report.txt, and comparisons.csv. Exit
codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, astuple, fields
from pathlib import Path
from typing import Optional, get_type_hints

from . import analytics, arena, heuristics, learning
from .engine import (
    GameError,
    JHYAP_THRESHOLD,
    enumerate_legal_discards,
    legal_actions,
    Discarded,
    PickSource,
    PickedStock,
    PickedTop,
    Reshuffled,
)
from .neuralnet import CheckpointError

USAGE_EXIT = 1
DATA_EXIT = 2


class CliParser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(USAGE_EXIT)


class DataError(Exception):
    """Bad or missing input artifacts (distinct from usage errors)."""


def default_out_dir() -> Path:
    return Path(os.environ.get("DHUMBAL_OUT", "results"))


TIME_LIMIT_HELP = (
    "wall-clock cut per search decision, on top of --iterations (default: "
    "none, so runs replay; a run with a limit depends on machine speed and "
    "does not replay)"
)


def build_parser() -> CliParser:
    parser = CliParser(prog="dhumbal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        # a flag left out is None: the config file's value, else the default, holds
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--rounds", type=int, default=None)
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--seating", choices=["random", "fixed"], default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--iterations", type=int, default=None)
        p.add_argument("--determinizations", type=int, default=3)
        p.add_argument("--time-limit-ms", type=int, default=None, help=TIME_LIMIT_HELP)

    t = sub.add_parser("tournament", help="within-category tournament")
    t.add_argument("kind", choices=["rule", "search", "learning", "custom"])
    common(t)
    t.add_argument("--agents", nargs="+", default=None,
                   help="agent names (default: the config file's, else the kind's lineup)")
    t.add_argument("--checkpoint", nargs="+", type=Path, default=None,
                   help="checkpoints for kind=learning (ppo and dqn)")

    c = sub.add_parser("championship", help="cross-category final")
    common(c)
    c.add_argument("--checkpoint", type=Path, default=None,
                   help="trained PPO checkpoint (required)")

    tr = sub.add_parser("train", help="train a learning agent")
    tr.add_argument("kind", choices=["dqn", "ppo"])
    tr.add_argument("--episodes", type=int, default=200)
    tr.add_argument("--seed", type=int, default=42)
    tr.add_argument("--opponents", nargs="+", default=None,
                    help="opponent agent names (default: the four rule profiles)")
    tr.add_argument("--checkpoint-every", type=int, default=None)
    tr.add_argument("--out-dir", type=Path, default=None)

    r = sub.add_parser("report", help="regenerate reports from stored records")
    r.add_argument("--records", type=Path, required=True)
    r.add_argument("--out", type=Path, default=None)

    e = sub.add_parser("export", help="re-derive the summary from records")
    e.add_argument("--records", type=Path, required=True)
    e.add_argument("--format", choices=["csv", "json"], default="json")
    e.add_argument("--out", type=Path, default=None, help="output file")

    p = sub.add_parser("play", help="interactive round against AI agents")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--agents", nargs="+", default=["aggressive"],
                   help="AI opponents (you sit at seat 0)")
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--checkpoint", type=Path, default=None,
                   help="checkpoint when an opponent is dqn/ppo")
    return parser


def _search_spec(kind: str, args) -> dict:
    spec: dict = {"kind": kind, "determinizations": args.determinizations}
    if args.iterations is not None:
        spec["iterations"] = args.iterations
    spec["time_limit_ms"] = args.time_limit_ms
    return spec


def _lineup(args) -> list:
    """The agent entries of a command run without --agents or a config
    file's agents."""
    if args.command == "championship":
        entries = {
            "ismcts": _search_spec("ismcts", args),
            "ppo": {"kind": "ppo", "checkpoint": str(_require_checkpoint(args))},
        }
        return [entries.get(kind, kind) for kind in arena.CHAMPIONSHIP_LINEUP]
    if args.kind == "rule":
        return list(heuristics.PROFILES)
    if args.kind == "search":
        return [_search_spec(kind, args) for kind in arena.SEARCH_KINDS]
    if args.kind == "custom":
        raise DataError("tournament custom needs --agents or a config file with agents")
    paths = args.checkpoint or []
    if len(paths) != 2:
        raise DataError(
            "tournament learning needs exactly two --checkpoint files "
            "(ppo and dqn, in any order)"
        )
    agents = []
    for path in paths:
        if not Path(path).exists():
            raise DataError(f"checkpoint not found: {path}")
        kind, _ = learning.load_learning_checkpoint(path)
        agents.append({"kind": kind, "checkpoint": str(path)})
    return agents


def _tournament_config(args) -> arena.TournamentConfig:
    """Each setting from the flag if it was given, else from the config
    file, else the command's lineup or TournamentConfig's default."""
    doc = {}
    if args.config is not None:
        if not args.config.exists():
            raise DataError(f"config file not found: {args.config}")
        try:
            doc = json.loads(args.config.read_text())
        except json.JSONDecodeError as exc:
            raise DataError(f"config file {args.config} is not JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise DataError(f"config file {args.config} must hold a JSON object")
    for key in ("agents", "rounds", "seed", "seating", "workers"):
        if getattr(args, key, None) is not None:  # championship has no --agents
            doc[key] = getattr(args, key)
    if "agents" not in doc:
        doc["agents"] = _lineup(args)
    try:
        config = arena.TournamentConfig.from_doc(doc)
        if args.command == "championship":
            arena.check_championship_lineup(config.agents)
    except (ValueError, TypeError) as exc:
        raise DataError(f"bad tournament config: {exc}") from exc
    return config


def _build_agents(specs) -> list:
    """Agents for config entries; a bad entry or checkpoint is a data error."""
    try:
        return [arena.build_agent(spec) for spec in specs]
    except (ValueError, TypeError, OSError) as exc:
        raise DataError(f"bad agent entry: {exc}") from exc


def _require_checkpoint(args) -> Path:
    if args.checkpoint is None:
        raise DataError(
            "championship needs --checkpoint with a trained PPO model; "
            "run `dhumbal train ppo` first"
        )
    if not args.checkpoint.exists():
        raise DataError(f"checkpoint not found: {args.checkpoint}")
    return args.checkpoint


def write_summary_json(
    path: Path,
    summary: analytics.MetricsSummary,
    names,
    result: Optional[arena.TournamentResult] = None,
) -> None:
    """The summary document; a tournament result adds its config and final
    balances, which stored records alone cannot give."""
    doc: dict = {} if result is None else {"config": result.config.to_doc()}
    doc.update(agents=names, rounds=summary.rounds, draws=summary.draws)
    if result is not None:
        doc["final_balances"] = result.final_balances
    doc["metrics"] = [asdict(a) for a in summary.agents]
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _report_text(summary: analytics.MetricsSummary, comparisons, title: str) -> str:
    """The text of report.txt: the metric table, then the comparisons."""
    report = analytics.report_text(summary, title)
    return report + "\n" + analytics.comparisons_text(comparisons)


def _write_reports(out_dir: Path, report: str, summary, comparisons, names,
                   result: Optional[arena.TournamentResult] = None) -> None:
    """report.txt, comparisons.csv and summary.json in ``out_dir``; a
    tournament result adds its config and balances to the summary."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.txt").write_text(report)
    write_comparisons_csv(comparisons, out_dir / "comparisons.csv")
    write_summary_json(out_dir / "summary.json", summary, names, result)


def write_artifacts(result: arena.TournamentResult, out_dir: Path, title: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    arena.records_to_csv(result.records, result.names, out_dir / "records.csv")
    comparisons = analytics.pairwise_comparisons(result.records, result.names)
    report = _report_text(result.summary, comparisons, title)
    _write_reports(out_dir, report, result.summary, comparisons, result.names, result)
    print(report)
    print(f"artifacts written to {out_dir}/")


def write_comparisons_csv(comparisons, path: Path) -> None:
    header = ["metric", "agent_a", "agent_b", "cohens_d", "t", "p", "n1", "n2",
              "significant", "stars"]
    analytics.write_csv(path, header, map(astuple, comparisons))


def summary_to_csv(summary: analytics.MetricsSummary, path: Path) -> None:
    """One row per agent: its AgentMetrics fields, with the round and draw
    counts after the name."""
    name, *metrics = [f.name for f in fields(analytics.AgentMetrics)]
    analytics.write_csv(path, [name, "rounds", "draws", *metrics], (
        [a.name, summary.rounds, summary.draws, *astuple(a)[1:]] for a in summary.agents
    ))


def summary_from_csv(path: Path) -> analytics.MetricsSummary:
    header, rows = analytics.read_csv(path)
    kinds = dict(get_type_hints(analytics.AgentMetrics), rounds=int, draws=int)
    readers = [analytics.cell_reader(kinds[column]) for column in header]
    agents = []
    rounds = draws = 0
    for row in rows:
        values = {column: read(cell) for column, read, cell in zip(header, readers, row)}
        rounds, draws = values.pop("rounds"), values.pop("draws")
        agents.append(analytics.AgentMetrics(**values))
    if not agents:
        raise DataError(f"{path}: empty summary")
    return analytics.MetricsSummary(rounds=rounds, draws=draws, agents=agents)


def cmd_tournament(args) -> int:
    config = _tournament_config(args)
    agents = _build_agents(config.agents)  # a bad entry exits 2 before any round
    if config.workers > 1:
        agents = None  # each pool worker builds its own from the config
    result = (
        arena.championship(config, agents)
        if args.command == "championship"
        else arena.run_tournament(config, agents)
    )
    title = (
        "Cross-category championship"
        if args.command == "championship"
        else f"Tournament ({args.kind})"
    )
    out_dir = args.out or default_out_dir()
    write_artifacts(result, out_dir, f"{title}, rounds={config.rounds}, "
                                     f"seed={config.seed}")
    return 0


def _check_seed(seed: int) -> None:
    # random.Random(-s) seeds like random.Random(s): one run, two names
    if seed < 0:
        raise DataError(f"--seed must be >= 0, got {seed}")


def cmd_train(args) -> int:
    if args.episodes < 1:
        raise DataError(f"--episodes must be >= 1, got {args.episodes}")
    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        raise DataError(f"--checkpoint-every must be >= 1, got {args.checkpoint_every}")
    _check_seed(args.seed)
    if args.opponents and len(args.opponents) > 4:
        raise DataError(f"train needs 1..4 --opponents, got {len(args.opponents)}")
    opponents = _build_agents(args.opponents) if args.opponents else None
    out_dir = args.out_dir or (default_out_dir() / f"train_{args.kind}")
    result = learning.train(
        args.kind,
        opponents=opponents,
        episodes=args.episodes,
        seed=args.seed,
        checkpoint_every=args.checkpoint_every,
        out_dir=out_dir,
    )
    final = result.curve[-1]
    window = min(50, len(result.curve))
    recent = sum(e.reward for e in result.curve[-window:]) / window
    print(
        f"{args.kind} trained for {final.episode} episodes "
        f"(converged at {result.converged_at})"
        if result.converged_at
        else f"{args.kind} trained for {final.episode} episodes"
    )
    print(f"mean reward over last {window} episodes: {recent:.2f}")
    print(f"checkpoints: {[str(p) for p in result.checkpoint_paths]}")
    print(f"curve: {out_dir / (args.kind + '_curve.csv')}")
    return 0


def _load_records(path: Path):
    if not path.exists():
        raise DataError(f"records file not found: {path}")
    try:
        return arena.records_from_csv(path)
    except (ValueError, KeyError, IndexError) as exc:
        raise DataError(f"cannot parse records {path}: {exc}") from exc


def cmd_report(args) -> int:
    records, names = _load_records(args.records)
    summary = analytics.summarize(records, names)
    comparisons = analytics.pairwise_comparisons(records, names)
    report = _report_text(summary, comparisons, f"Report over {args.records}")
    print(report, end="")
    if args.out is not None:
        _write_reports(args.out, report, summary, comparisons, names)
        print(f"artifacts written to {args.out}/")
    return 0


def cmd_export(args) -> int:
    records, names = _load_records(args.records)
    summary = analytics.summarize(records, names)
    out = args.out or args.records.with_name(f"summary.{args.format}")
    if args.format == "csv":
        summary_to_csv(summary, out)
    else:
        write_summary_json(out, summary, names)
    print(f"summary exported to {out}")
    return 0


class HumanAgent:
    """Stdin-driven seat; re-prompts until the input names a legal action."""

    name = "human"

    def __init__(self):
        self.seat = None

    def begin_round(self, seat: int, num_players: int) -> None:
        self.seat = seat
        print(f"\n=== New round: you are seat {seat} of {num_players} ===")

    def observe(self, event) -> None:
        if isinstance(event, Discarded) and event.seat != self.seat:
            print(f"  seat {event.seat} discards {event.group}")
        elif isinstance(event, PickedTop) and event.seat != self.seat:
            print(f"  seat {event.seat} takes {event.card} from the pile")
        elif isinstance(event, PickedStock) and event.seat != self.seat:
            print(f"  seat {event.seat} draws from the stock")
        elif isinstance(event, Reshuffled):
            print(f"  pile reshuffled into the stock ({event.num_cards} cards)")

    def _show(self, observation) -> None:
        hand = " ".join(str(card) for card in observation.own_hand)
        top = observation.discard_top
        print(
            f"hand: {hand}  (value {observation.hand_value})  "
            f"top: {top if top else '-'}  stock: {observation.stock_size}  "
            f"opponents hold {list(observation.opponent_hand_sizes)}  "
            f"coins: {observation.own_coins}"
        )

    def _input(self, prompt: str) -> str:
        try:
            return input(prompt).strip().lower()
        except EOFError:
            print("\n(input closed; leaving the table)")
            raise SystemExit(0) from None

    def decide_jhyap(self, observation, rng) -> bool:
        self._show(observation)
        while True:
            answer = self._input("declare Jhyap? [y/N] ")
            if answer in ("y", "yes"):
                return True
            if answer in ("", "n", "no"):
                return False
            print("please answer y or n")

    def decide_discard(self, observation, rng):
        self._show(observation)
        groups = enumerate_legal_discards(observation.own_hand)
        for index, group in enumerate(groups):
            print(f"  [{index}] {group}")
        while True:
            answer = self._input("discard which group? (number, or j for Jhyap) ")
            if answer == "j":
                print(
                    "you can only declare Jhyap at the start of your turn when "
                    f"your hand value is {JHYAP_THRESHOLD} points or fewer "
                    f"(yours is {observation.hand_value})"
                )
                continue
            if answer.isdigit() and int(answer) < len(groups):
                return groups[int(answer)]
            print(f"enter a number 0..{len(groups) - 1}")

    def decide_pick(self, observation, rng):
        sources = legal_actions(observation)
        if len(sources) == 1:
            print("stock is the only pick; drawing")
            return sources[0]
        while True:
            answer = self._input(
                f"pick from [s]tock or [t]op ({observation.discard_top})? "
            )
            if answer in ("s", "stock"):
                return PickSource.STOCK
            if answer in ("t", "top"):
                return PickSource.DISCARD_TOP
            print("please answer s or t")


def cmd_play(args) -> int:
    import random as _random

    _check_seed(args.seed)
    if args.rounds < 1:
        raise DataError(f"--rounds must be >= 1, got {args.rounds}")
    specs = list(args.agents)
    if args.checkpoint is not None:
        specs = [
            {"kind": s, "checkpoint": str(args.checkpoint)} if s in ("dqn", "ppo") else s
            for s in specs
        ]
    agents = [HumanAgent()] + _build_agents(specs)
    if not 2 <= len(agents) <= 5:
        raise DataError("play needs 1..4 AI opponents")
    names = ["human"] + arena.agent_names(specs)
    rng = _random.Random(args.seed)
    balances = [10_000] * len(agents)
    for round_index in range(args.rounds):
        record = arena.run_round(
            agents, list(range(len(agents))), rng,
            balances=balances, round_index=round_index,
        )
        for index in range(len(agents)):
            balances[index] += record.coin_delta[index]
        print("\n--- settlement ---")
        if record.winner_agent is None:
            print(f"round ends in a draw ({record.end_reason}); no transfers")
        else:
            print(f"winner: {names[record.winner_agent]} ({record.end_reason})")
        for index, name in enumerate(names):
            print(f"  {name:<14} {record.coin_delta[index]:+6d} -> {balances[index]}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("tournament", "championship"):
            return cmd_tournament(args)
        if args.command == "train":
            return cmd_train(args)
        if args.command == "report":
            return cmd_report(args)
        if args.command == "export":
            return cmd_export(args)
        if args.command == "play":
            return cmd_play(args)
        raise AssertionError(f"unhandled command {args.command}")
    except DataError as exc:
        print(f"dhumbal: {exc}", file=sys.stderr)
        return DATA_EXIT
    except (CheckpointError, GameError) as exc:
        print(f"dhumbal: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
