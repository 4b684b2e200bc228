from __future__ import annotations

import csv
import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace
from typing import get_type_hints

import pytest

from dhumbal import analytics, arena, cli, heuristics, learning
from dhumbal.search import SearchAgent, SearchConfig
from helpers import FirstLegal


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


def summary_from_csv(path: Path) -> analytics.MetricsSummary:
    """Inverse of ``export --format csv``."""
    header, rows = analytics.read_csv(path)
    kinds = dict(get_type_hints(analytics.AgentMetrics), rounds=int, draws=int)
    readers = [analytics.cell_reader(kinds[column]) for column in header]
    agents = []
    rounds = draws = 0
    for row in rows:
        values = {column: read(cell) for column, read, cell in zip(header, readers, row)}
        rounds, draws = values.pop("rounds"), values.pop("draws")
        agents.append(analytics.AgentMetrics(**values))
    assert agents, f"{path}: empty summary"
    return analytics.MetricsSummary(rounds=rounds, draws=draws, agents=agents)


def strip_timing_columns(path: Path) -> list[list[str]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header = rows[0]
    keep = [i for i, name in enumerate(header) if not name.endswith("_time_ms")]
    return [[row[i] for i in keep] for row in rows]


class TestTournamentCommand:
    def test_rule_smoke(self, tmp_path, capsys):
        assert run_cli("tournament", "rule", "--rounds", 8, "--out", tmp_path) == 0
        for name in ("records.csv", "summary.json", "report.txt", "comparisons.csv"):
            assert (tmp_path / name).exists(), name
        out = capsys.readouterr().out
        assert "aggressive" in out

    def test_search_smoke(self, tmp_path):
        assert (
            run_cli(
                "tournament", "search", "--rounds", 2, "--iterations", 5,
                "--out", tmp_path,
            )
            == 0
        )
        records, names = arena.records_from_csv(tmp_path / "records.csv")
        assert len(records) == 2
        assert names == ["mcts", "ismcts"]

    def test_learning_smoke(self, tmp_path):
        ppo = learning.PPOAgentCore(learning.PPOConfig(), seed=1)
        dqn = learning.DQNAgentCore(learning.DQNConfig(), seed=2)
        ppo_path, dqn_path = tmp_path / "ppo.json", tmp_path / "dqn.json"
        learning.save_learning_checkpoint("ppo", ppo, ppo_path, 1)
        learning.save_learning_checkpoint("dqn", dqn, dqn_path, 1)
        assert (
            run_cli(
                "tournament", "learning", "--rounds", 3,
                "--checkpoint", ppo_path, dqn_path,
                "--out", tmp_path / "out",
            )
            == 0
        )
        records, names = arena.records_from_csv(tmp_path / "out" / "records.csv")
        assert len(records) == 3
        assert sorted(names) == ["dqn", "ppo"]

    def test_rule_with_workers(self, tmp_path):
        # the command checks the agent entries, then leaves building the
        # agents to the pool workers
        assert run_cli("tournament", "rule", "--rounds", 4, "--workers", 2,
                       "--out", tmp_path) == 0
        records, _ = arena.records_from_csv(tmp_path / "records.csv")
        assert len(records) == 4

    def test_workers_build_each_agent_once_in_this_process(self, tmp_path, monkeypatch):
        # the validating build is the only one here; pool workers build
        # their own, in their own processes
        built = []
        real = arena.build_agent
        monkeypatch.setattr(arena, "build_agent", lambda spec: built.append(spec) or real(spec))
        assert run_cli("tournament", "custom", "--agents", "random", "aggressive",
                       "--rounds", 4, "--workers", 2, "--out", tmp_path) == 0
        assert built == ["random", "aggressive"]

    def test_custom_agents(self, tmp_path):
        assert (
            run_cli(
                "tournament", "custom", "--agents", "aggressive", "random",
                "--rounds", 4, "--out", tmp_path,
            )
            == 0
        )

    def test_deterministic_records_excluding_timings(self, tmp_path):
        for sub in ("a", "b"):
            assert (
                run_cli(
                    "tournament", "rule", "--rounds", 16, "--seed", 42,
                    "--out", tmp_path / sub,
                )
                == 0
            )
        assert strip_timing_columns(tmp_path / "a" / "records.csv") == (
            strip_timing_columns(tmp_path / "b" / "records.csv")
        )

    def test_learning_requires_two_checkpoints(self, tmp_path):
        assert run_cli("tournament", "learning", "--rounds", 2,
                       "--out", tmp_path) == 2

    def test_unknown_kind_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("tournament", "blitz", "--out", tmp_path)
        assert excinfo.value.code == 1

    def test_players_is_usage_error(self, tmp_path):
        # the lineup sets the number of seats; there is no --players
        with pytest.raises(SystemExit) as excinfo:
            run_cli("tournament", "rule", "--players", 3, "--rounds", 2, "--out", tmp_path)
        assert excinfo.value.code == 1


class TestConfigPrecedence:
    """A flag that was given, then the config file's value, then the
    command's lineup or TournamentConfig's default."""

    def run(self, tmp_path, doc, *argv) -> tuple[int, dict]:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = run_cli(*argv, "--config", path, "--out", out)
        summary = out / "summary.json"
        return code, json.loads(summary.read_text())["config"] if summary.exists() else {}

    def test_file_values_hold_without_flags(self, tmp_path):
        code, config = self.run(tmp_path, {"rounds": 3, "seed": 7}, "tournament", "rule")
        assert code == 0
        assert (config["rounds"], config["seed"]) == (3, 7)
        assert config["agents"] == list(heuristics.PROFILES)

    def test_given_workers_flag_beats_file(self, tmp_path):
        code, config = self.run(tmp_path, {"agents": ["random", "random"], "workers": 2},
                                "tournament", "custom", "--rounds", 2, "--workers", 1)
        assert code == 0
        assert config["workers"] == 1

    def test_agents_flag_beats_file(self, tmp_path):
        code, config = self.run(tmp_path, {"agents": ["aggressive", "aggressive"]},
                                "tournament", "custom", "--rounds", 2,
                                "--agents", "random", "balanced")
        assert code == 0
        assert config["agents"] == ["random", "balanced"]

    def test_custom_reads_agents_from_file(self, tmp_path):
        code, config = self.run(tmp_path, {"agents": ["random", "balanced"], "rounds": 2},
                                "tournament", "custom")
        assert code == 0
        assert config["agents"] == ["random", "balanced"]

    @pytest.mark.parametrize("entry", [
        {"kind": "aggressive"},
        {"kind": "heuristic", "profile": "conservative"},
        {"kind": "random"},
        {"kind": "mcts", "iterations": 2},
        {"kind": "ismcts", "iterations": 2, "determinizations": 1},
        {"kind": "dqn"},
        {"kind": "ppo"},
    ], ids=["profile", "heuristic", "random", "mcts", "ismcts", "dqn", "ppo"])
    def test_any_entry_takes_a_name(self, tmp_path, entry):
        if entry["kind"] in ("dqn", "ppo"):
            core = (learning.DQNAgentCore(learning.DQNConfig(), seed=3) if entry["kind"] == "dqn"
                    else learning.PPOAgentCore(learning.PPOConfig(), seed=3))
            entry["checkpoint"] = str(tmp_path / "learner.json")
            learning.save_learning_checkpoint(entry["kind"], core, entry["checkpoint"], 1)
        code, config = self.run(
            tmp_path, {"agents": [{**entry, "name": "x"}, "aggressive"], "rounds": 1},
            "tournament", "custom")
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["agents"] == ["x", "aggressive"]
        assert [m["name"] for m in summary["metrics"]] == ["x", "aggressive"]
        _, names = arena.records_from_csv(tmp_path / "out" / "records.csv")
        assert names == ["x", "aggressive"]

    def test_championship_entries_neither_name_nor_object(self, tmp_path, capsys):
        checkpoint = tmp_path / "ppo.json"
        learning.save_learning_checkpoint(
            "ppo", learning.PPOAgentCore(learning.PPOConfig(), seed=3), checkpoint, 1)
        code, _ = self.run(tmp_path, {"agents": [1, 2, 3, 4]}, "championship",
                           "--rounds", 2, "--checkpoint", checkpoint)
        assert code == 2
        assert capsys.readouterr().err.startswith("dhumbal: bad tournament config")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, worlds", [((), 3), (("--determinizations", 2), 2)])
    def test_search_lineup_takes_determinizations(self, tmp_path, flags, worlds):
        code, config = self.run(tmp_path, {"rounds": 1}, "tournament", "search",
                                "--iterations", 2, *flags)
        assert code == 0
        assert [entry["determinizations"] for entry in config["agents"]] == [worlds] * 2

    def test_echo_without_config_is_the_defaults(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("tournament", "rule", "--rounds", 2, "--out", out) == 0
        config = json.loads((out / "summary.json").read_text())["config"]
        assert config == arena.TournamentConfig(list(heuristics.PROFILES), rounds=2).to_doc()


class TestReproduceScript:
    """The reproduce script trains, selects checkpoints and runs the four
    CLI commands at its scale."""

    def load(self):
        path = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_experiments.py"
        spec = importlib.util.spec_from_file_location("reproduce_experiments", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def record(self, monkeypatch, tmp_path, exit_code=0) -> list:
        commands = []

        def train(kind, **kwargs):
            return SimpleNamespace(checkpoint_paths=[tmp_path / f"{kind}_{i}.json"
                                                     for i in range(2)])

        def checkpoint_select(paths, **kwargs):
            return paths[-1]

        def main(argv):
            commands.append(argv)
            return exit_code

        monkeypatch.setattr(learning, "train", train)
        monkeypatch.setattr(learning, "checkpoint_select", checkpoint_select)
        monkeypatch.setattr(cli, "main", main)
        return commands

    def test_runs_the_four_commands(self, tmp_path, monkeypatch):
        commands = self.record(monkeypatch, tmp_path)
        out = tmp_path / "run"
        assert self.load().main(["--out", str(out), "--seed", "5", "--workers", "2"]) == 0
        ppo, dqn = str(tmp_path / "ppo_1.json"), str(tmp_path / "dqn_1.json")
        tail = ["--seed", "5", "--workers", "2", "--out"]
        assert commands == [
            ["tournament", "rule", "--rounds", "256", *tail, str(out / "rule_based")],
            ["tournament", "search", "--rounds", "128", "--iterations", "200",
             *tail, str(out / "search_based")],
            ["tournament", "learning", "--rounds", "256", "--checkpoint", ppo, dqn,
             *tail, str(out / "learning_based")],
            ["championship", "--rounds", "256", "--iterations", "200",
             "--checkpoint", ppo, *tail, str(out / "championship")],
        ]

    def test_stops_at_a_failed_command(self, tmp_path, monkeypatch):
        commands = self.record(monkeypatch, tmp_path, exit_code=2)
        assert self.load().main(["--out", str(tmp_path / "run")]) == 2
        assert len(commands) == 1


class TestBadInput:
    """Bad input ends in exit code 2 with a message, not a traceback."""

    @pytest.mark.parametrize("config, message", [
        ('{"agents": [{"kind": "ismcts", "bogus": 1}, "random"]}', "bogus"),
        ('{"agents": [{"kind": "ismcts", "iterations": "many"}, "random"]}',
         "bad agent entry"),
        ('{"agents": ["random", "random"], "bogus": 1}', "bogus"),
        ('{"agents": ["random", "random"], "turn_limit": 0}', "turn_limit"),
        ('{"agents": ["random", "random"]', "not JSON"),
        ('{"agents": ["random", "random"], "count_orbits": true}', "count_orbits"),
        ('{"agents": ["random", "random"], "workers": 2.5}', "workers"),
        ('{"agents": ["random", "random"], "rounds": true}', "rounds"),
        ('{"agents": ["random", "random"], "seed": "7"}', "seed"),
        ('{"agents": ["random", "random"], "turn_limit": 50.0}', "turn_limit"),
        ('{"agents": ["random", "random"], "starting_coins": "10000"}', "starting_coins"),
        ('{"agents": [{"kind": "ismcts", "iterations": "many"}, "random"], "rounds": 1}',
         "iterations must be an integer"),
        ('{"agents": [{"kind": "ismcts", "iterations": 2.5}, "random"], "rounds": 1}',
         "iterations must be an integer"),
        ('{"agents": [{"kind": "mcts", "iterations": true}, "random"], "rounds": 1}',
         "iterations must be an integer"),
        ('{"agents": [{"kind": "ismcts", "iterations": 2, "exploration_c": NaN}, "random"],'
         ' "rounds": 1}', "exploration_c"),
        ('{"agents": [{"kind": "ismcts", "iterations": 2, "exploration_c": Infinity},'
         ' "random"], "rounds": 1}', "exploration_c"),
        ('{"agents": [{"kind": "balanced", "name": 2}, "random"]}', "name must be str"),
        ('{"agents": [{"kind": "mcts", "name": 2}, "random"]}', "name must be str"),
        ('{"agents": ["aggressive", "aggressive", {"kind": "balanced", "name": "aggressive#1"}]}',
         "bad tournament config: two agents are named 'aggressive#1'"),
        ('{"agents": {"aggressive": 1, "random": 2}}', "agents must be a list"),
        ('{"agents": "ab"}', "agents must be a list"),
        ('{"agents": "aggressive"}', "agents must be a list"),
        ('{"agents": null}', "agents must be a list"),
    ], ids=["agent-option", "agent-value", "config-key", "turn-limit", "bad-json",
            "count-orbits", "float-workers", "bool-rounds", "str-seed", "float-turn-limit",
            "str-starting-coins", "str-iterations", "float-iterations", "bool-iterations",
            "nan-exploration", "infinite-exploration", "int-profile-name", "int-search-name",
            "clashing-names", "dict-agents", "two-letter-agents", "one-name-agents",
            "null-agents"])
    def test_bad_config(self, tmp_path, capsys, config, message):
        # no flag is given, since a flag would override the file's value; the
        # message names what is wrong with the file
        path = tmp_path / "config.json"
        path.write_text(config)
        assert run_cli("tournament", "custom", "--config", path,
                       "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("dhumbal: ") and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override, field", [
        ('"pick_threshold": "x"', "pick_threshold"),
        ('"multi_card_bonus": null', "multi_card_bonus"),
        ('"declare_probabilities": [[0, 5]]', "declare_probabilities"),
        ('"multi_card_bonus": NaN', "multi_card_bonus"),
        ('"jhyap_threshold": true', "jhyap_threshold"),
        ('"risk_factor": 1.2', "unknown options for a 'aggressive' agent: ['risk_factor']"),
    ], ids=["str-pick-threshold", "null-bonus", "short-band", "nan-bonus", "bool-threshold",
            "risk-factor"])
    def test_bad_heuristic_override(self, tmp_path, capsys, override, field):
        # each once ran: with a traceback, mid-tournament, or as a silent
        # NaN in summary.json or a threshold of 1
        path = tmp_path / "config.json"
        path.write_text('{"agents": ["balanced", {"kind": "aggressive", %s}]}' % override)
        assert run_cli("tournament", "custom", "--config", path,
                       "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("dhumbal: bad agent entry: ") and field in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--iterations", 5), ("--determinizations", 2), ("--time-limit-ms", 50),
        ("--checkpoint", "ppo.json"),
    ])
    @pytest.mark.parametrize("source", ["agents-flag", "config-file"])
    def test_agent_option_flag_without_lineup(self, tmp_path, capsys, flag, value, source):
        # the flag sets options of the command's own lineup; agents given
        # by name or by the file would run without it
        if source == "agents-flag":
            agents = ("--agents", "mcts", "ismcts")
        else:
            path = tmp_path / "config.json"
            path.write_text('{"agents": ["mcts", "ismcts"]}')
            agents = ("--config", path)
        assert run_cli("tournament", "search", *agents, flag, value, "--rounds", 1,
                       "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"dhumbal: {flag} ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--iterations", "--determinizations", "--checkpoint"])
    def test_agent_option_flag_no_entry_takes(self, tmp_path, capsys, flag):
        # the command's own lineup takes no search flag when it has no search
        # entry, and no --checkpoint when it has no learner entry
        out = ("--rounds", 1, "--out", tmp_path / "out")
        if flag == "--iterations":
            argv = ("tournament", "rule", flag, 5, *out)
        elif flag == "--determinizations":
            checkpoints = [tmp_path / "ppo.json", tmp_path / "dqn.json"]
            learning.save_learning_checkpoint(
                "ppo", learning.PPOAgentCore(learning.PPOConfig(), seed=3), checkpoints[0], 1)
            learning.save_learning_checkpoint(
                "dqn", learning.DQNAgentCore(learning.DQNConfig(), seed=3), checkpoints[1], 1)
            argv = ("tournament", "learning", "--checkpoint", *checkpoints, flag, 2, *out)
        else:
            argv = ("play", "--agents", "aggressive", flag, "x", "--rounds", 1)
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.startswith(f"dhumbal: {flag} ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ("custom", "--agents", "bogus", "random"),
        ("rule", "--workers", 0),
    ], ids=["agent-kind", "workers"])
    def test_bad_arguments(self, tmp_path, capsys, argv):
        assert run_cli("tournament", *argv, "--rounds", 2, "--out", tmp_path) == 2
        assert capsys.readouterr().err.startswith("dhumbal: ")

    @pytest.mark.parametrize("argv", [
        ("--episodes", 0),
        ("--episodes", -3),
        ("--checkpoint-every", 0),
        ("--checkpoint-every", -2),
        ("--seed", -1),
    ], ids=["no-episodes", "negative-episodes", "no-period", "negative-period",
            "negative-seed"])
    def test_bad_train_arguments(self, tmp_path, capsys, argv):
        assert run_cli("train", "dqn", "--episodes", 2, *argv,
                       "--opponents", "random", "--out-dir", tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith("dhumbal: ")
        assert not (tmp_path / "out").exists()

    def test_negative_tournament_seed(self, tmp_path, capsys):
        # random.Random(-1) seeds like random.Random(1)
        assert run_cli("tournament", "rule", "--rounds", 2, "--seed", -1,
                       "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith("dhumbal: ")
        assert not (tmp_path / "out").exists()

    def test_negative_play_seed(self, capsys):
        assert run_cli("play", "--seed", -1) == 2
        assert capsys.readouterr().err.startswith("dhumbal: ")

    def test_train_with_five_opponents(self, tmp_path, capsys):
        assert run_cli("train", "dqn", "--episodes", 2, "--opponents", *["random"] * 5,
                       "--out-dir", tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith("dhumbal: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["report", "export"])
    @pytest.mark.parametrize("fault", ["swapped-columns", "extra-columns", "shared-seat",
                                       "renamed-agent", "unbalanced-round", "no-agent",
                                       "one-agent", "partial-jhyap", "winner-not-an-agent",
                                       "caller-not-an-agent", "shared-name"])
    def test_records_not_as_written(self, tmp_path, capsys, command, fault):
        # each file differs from what records_to_csv writes, in header, width,
        # seats or names, or holds rounds that the arena could not have played
        assert run_cli("tournament", "rule", "--rounds", 4, "--out", tmp_path) == 0
        path = tmp_path / "records.csv"
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        column = {name: index for index, name in enumerate(rows[0])}
        delta, cards = column["a0_delta"], column["a0_cards"]
        seat, other_seat = column["a0_seat"], column["a1_seat"]
        for row in rows:
            if fault == "swapped-columns":
                row[delta], row[cards] = row[cards], row[delta]
            elif fault == "extra-columns":
                row.extend(["0", "0", "0"])
            elif fault == "shared-seat" and row is not rows[0]:
                row[seat] = row[other_seat]
            elif fault in ("no-agent", "one-agent"):
                # a zero-sum table of that many agents, else refused as before
                del row[column["a1_name" if fault == "one-agent" else "a0_name"]:]
                if row is not rows[0] and fault == "one-agent":
                    row[seat] = row[delta] = "0"
                    for key in ("winner_agent", "jhyap_agent"):
                        row[column[key]] = row[column[key]] and "0"
            elif fault == "shared-name" and row is not rows[0]:
                row[column["a1_name"]] = row[column["a0_name"]]
        if fault == "renamed-agent":
            rows[-1][column["a0_name"]] = "renamed"
        elif fault == "unbalanced-round":
            rows[1][delta] = str(int(rows[1][delta]) + 100)
        elif fault == "partial-jhyap":
            rows[1][column["jhyap_agent"]] = "1"
            rows[1][column["jhyap_hand_value"]] = rows[1][column["jhyap_succeeded"]] = ""
        elif fault == "winner-not-an-agent":
            rows[1][column["winner_agent"]] = "9"
        elif fault == "caller-not-an-agent":
            rows[1][column["jhyap_agent"]] = "4"
            rows[1][column["jhyap_hand_value"]] = rows[1][column["jhyap_succeeded"]] = "1"
        with open(path, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        capsys.readouterr()
        assert run_cli(command, "--records", path, "--out", tmp_path / "again") == 2
        assert capsys.readouterr().err.startswith("dhumbal: cannot parse records")

    @pytest.mark.parametrize("rounds", [0, -3])
    def test_play_without_rounds(self, capsys, rounds):
        assert run_cli("play", "--rounds", rounds) == 2
        assert capsys.readouterr().err.startswith("dhumbal: ")

    @pytest.mark.parametrize("limit", [0, -5])
    def test_search_time_limit_below_one_ms(self, tmp_path, capsys, limit):
        assert run_cli("tournament", "search", "--iterations", 5, "--time-limit-ms", limit,
                       "--rounds", 1, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith("dhumbal: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fault, message", [
        ("nan-biases", "not finite"),
        ("inf-weights", "not finite"),
        ("version-1", "format_version 1"),
        ("version-99", "format_version 99"),
    ])
    def test_bad_learning_checkpoint(self, tmp_path, capsys, fault, message):
        """A checkpoint with a parameter that is not finite, or of another
        format version, exits 2 before any round is played."""
        ppo = learning.PPOAgentCore(learning.PPOConfig(), seed=1)
        dqn = learning.DQNAgentCore(learning.DQNConfig(), seed=2)
        if fault == "nan-biases":
            dqn.net.layers[-1].biases[:] = float("nan")
        elif fault == "inf-weights":
            dqn.net.layers[0].weights[3, 5] = float("-inf")
        ppo_path, dqn_path = tmp_path / "ppo.json", tmp_path / "dqn.json"
        learning.save_learning_checkpoint("ppo", ppo, ppo_path, 1)
        learning.save_learning_checkpoint("dqn", dqn, dqn_path, 1)
        if fault.startswith("version-"):
            doc = json.loads(dqn_path.read_text())
            doc["format_version"] = int(fault.split("-")[1])
            dqn_path.write_text(json.dumps(doc))
        assert run_cli("tournament", "learning", "--rounds", 4,
                       "--checkpoint", ppo_path, dqn_path, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"dhumbal: checkpoint {dqn_path}: ") and message in err
        assert not (tmp_path / "out").exists()

    def test_championship_config_with_another_lineup(self, tmp_path, capsys):
        checkpoint = tmp_path / "ppo.json"
        learning.save_learning_checkpoint(
            "ppo", learning.PPOAgentCore(learning.PPOConfig(), seed=3), checkpoint, 1)
        path = tmp_path / "config.json"
        path.write_text('{"agents": ["random", "random"]}')
        assert run_cli("championship", "--rounds", 2, "--config", path,
                       "--checkpoint", checkpoint, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith("dhumbal: ")
        assert not (tmp_path / "out").exists()


class TestUnusablePaths:
    """A path that cannot be read or written exits 2 with a message that
    names it, before any round is played."""

    @pytest.fixture
    def round_calls(self, monkeypatch):
        calls = []
        run_round = arena.run_round

        def spy(*args, **kwargs):
            calls.append(1)
            return run_round(*args, **kwargs)

        monkeypatch.setattr(arena, "run_round", spy)
        return calls

    @pytest.mark.parametrize("command", ["report", "export"])
    def test_directory_as_records(self, tmp_path, capsys, command):
        assert run_cli(command, "--records", tmp_path) == 2
        assert capsys.readouterr().err.startswith(f"dhumbal: cannot use {tmp_path}: ")

    @pytest.mark.parametrize("name", ["", "nope.json"], ids=["directory", "missing"])
    def test_unreadable_config(self, tmp_path, capsys, round_calls, name):
        path = tmp_path / name
        assert run_cli("tournament", "rule", "--config", path,
                       "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith(f"dhumbal: cannot use {path}: ")
        assert not round_calls and not (tmp_path / "out").exists()

    def test_config_not_utf8(self, tmp_path, capsys, round_calls):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"agents": ["random", "random"], "rounds": 1, "x": "\xff"}')
        assert run_cli("tournament", "custom", "--config", path,
                       "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith(f"dhumbal: config file {path} is not JSON")
        assert not round_calls and not (tmp_path / "out").exists()

    def test_out_is_a_file(self, tmp_path, capsys, round_calls):
        out = tmp_path / "out"
        out.write_text("")
        assert run_cli("tournament", "rule", "--rounds", 2, "--out", out) == 2
        assert capsys.readouterr().err.startswith(f"dhumbal: cannot use {out}: ")
        assert not round_calls

    def test_train_out_dir_is_a_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("")
        assert run_cli("train", "dqn", "--episodes", 2, "--opponents", "random",
                       "--out-dir", out) == 2
        assert capsys.readouterr().err.startswith(f"dhumbal: cannot use {out}: ")

    def test_missing_checkpoint(self, tmp_path, capsys, round_calls):
        path = tmp_path / "ppo.json"
        assert run_cli("championship", "--rounds", 2, "--checkpoint", path,
                       "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith(f"dhumbal: cannot use {path}: ")
        assert not round_calls and not (tmp_path / "out").exists()

    def test_checkpoint_with_a_softmax_layer(self, tmp_path, capsys, round_calls):
        """Layers are relu or linear; a network document with another
        activation is a checkpoint error."""
        path = tmp_path / "ppo.json"
        learning.save_learning_checkpoint(
            "ppo", learning.PPOAgentCore(learning.PPOConfig(), seed=3), path, 1)
        doc = json.loads(path.read_text())
        doc["actor"]["activations"][-1] = "softmax"
        path.write_text(json.dumps(doc))
        assert run_cli("championship", "--rounds", 2, "--checkpoint", path,
                       "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("dhumbal: ") and "'softmax'" in err
        assert not round_calls and not (tmp_path / "out").exists()


class TestChampionshipCommand:
    def test_requires_checkpoint(self, tmp_path):
        assert run_cli("championship", "--rounds", 2, "--out", tmp_path) == 2

    def test_runs_with_checkpoint(self, tmp_path):
        core = learning.PPOAgentCore(learning.PPOConfig(), seed=3)
        checkpoint = tmp_path / "ppo.json"
        learning.save_learning_checkpoint("ppo", core, checkpoint, 1)
        assert (
            run_cli(
                "championship", "--rounds", 2, "--iterations", 5,
                "--checkpoint", checkpoint, "--out", tmp_path / "out",
            )
            == 0
        )
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert doc["agents"] == ["aggressive", "ismcts", "ppo", "random"]


class TestSearchBudget:
    """Search agents built by the CLI run on iterations alone unless
    --time-limit-ms asks for a wall-clock cut, so their runs replay."""

    class Played(Exception):
        pass

    @pytest.mark.parametrize("flags, limit", [((), None), (("--time-limit-ms", 5), 5)],
                             ids=["default", "time-limit"])
    @pytest.mark.parametrize("command", ["search", "championship"])
    def test_time_limit_is_opt_in(self, tmp_path, monkeypatch, command, flags, limit):
        played = []

        def capture(config, agents):
            played.extend(agents)
            raise self.Played

        monkeypatch.setattr(arena, "run_tournament", capture)
        if command == "search":
            argv = ["tournament", "search"]
        else:
            checkpoint = tmp_path / "ppo.json"
            learning.save_learning_checkpoint(
                "ppo", learning.PPOAgentCore(learning.PPOConfig(), seed=3), checkpoint, 1)
            argv = ["championship", "--checkpoint", checkpoint]
        with pytest.raises(self.Played):
            run_cli(*argv, *flags, "--rounds", 2, "--out", tmp_path / "out")
        searchers = [agent for agent in played if isinstance(agent, SearchAgent)]
        assert searchers
        for agent in searchers:
            assert agent.cfg.time_limit_ms == limit
            assert agent.cfg.iterations == SearchConfig().iterations


class TestReportAndExport:
    def make_run(self, tmp_path) -> Path:
        out = tmp_path / "run"
        assert run_cli("tournament", "rule", "--rounds", 12, "--out", out) == 0
        return out

    def test_report_reproduces_summary_exactly(self, tmp_path):
        out = self.make_run(tmp_path)
        report_dir = tmp_path / "report"
        assert run_cli("report", "--records", out / "records.csv",
                       "--out", report_dir) == 0
        original = json.loads((out / "summary.json").read_text())
        regenerated = json.loads((report_dir / "summary.json").read_text())
        assert regenerated["metrics"] == original["metrics"]
        assert regenerated["rounds"] == original["rounds"]

    def test_export_csv_round_trip(self, tmp_path):
        out = self.make_run(tmp_path)
        exported = tmp_path / "summary.csv"
        assert run_cli("export", "--records", out / "records.csv",
                       "--format", "csv", "--out", exported) == 0
        records, names = arena.records_from_csv(out / "records.csv")
        direct = analytics.summarize(records, names)
        loaded = summary_from_csv(exported)
        assert loaded == direct

    def test_export_json(self, tmp_path):
        out = self.make_run(tmp_path)
        exported = tmp_path / "summary.json"
        assert run_cli("export", "--records", out / "records.csv",
                       "--format", "json", "--out", exported) == 0
        doc = json.loads(exported.read_text())
        assert {m["name"] for m in doc["metrics"]} == {
            "aggressive", "conservative", "balanced", "opportunistic"
        }

    def test_missing_records_is_data_error(self, tmp_path):
        assert run_cli("report", "--records", tmp_path / "nope.csv") == 2

    @pytest.mark.parametrize("command", ["report", "export"])
    def test_zero_byte_records_is_data_error(self, tmp_path, capsys, command):
        empty = tmp_path / "records.csv"
        empty.write_bytes(b"")
        assert run_cli(command, "--records", empty) == 2
        assert capsys.readouterr().err.startswith(f"dhumbal: cannot parse records {empty}")

    def test_corrupt_records_is_data_error(self, tmp_path):
        bad = tmp_path / "records.csv"
        bad.write_text("round,winner_agent\n0,zzz\n")
        assert run_cli("report", "--records", bad) == 2


class TestTrainCommand:
    def test_train_smoke(self, tmp_path, capsys):
        assert (
            run_cli(
                "train", "ppo", "--episodes", 3, "--seed", 7,
                "--opponents", "random", "--out-dir", tmp_path,
            )
            == 0
        )
        assert (tmp_path / "ppo_curve.csv").exists()
        checkpoints = list(tmp_path.glob("ppo_ep*.json"))
        assert checkpoints
        out = capsys.readouterr().out
        assert "trained for 3 episodes" in out


class TestPlayCommand:
    def scripted(self, monkeypatch, lines):
        feed = iter(lines)
        monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))

    def test_bad_input_reprompts_without_state_change(self, tmp_path, monkeypatch, capsys):
        # invalid menu numbers and a premature jhyap are rejected; the round
        # still completes with enough valid follow-up input
        script = ["x", "99", "j", "0", "s"] + ["n", "0", "s"] * 60
        self.scripted(monkeypatch, script)
        code = run_cli("play", "--seed", 11, "--agents", "aggressive", "--rounds", 1)
        assert code == 0
        out = capsys.readouterr().out
        assert "enter a number" in out
        assert "10 points or fewer" in out
        assert "settlement" in out

    def test_scripted_round_is_deterministic(self, monkeypatch, capsys):
        script = ["n", "0", "s"] * 80
        outputs = []
        for _ in range(2):
            self.scripted(monkeypatch, list(script))
            assert run_cli("play", "--seed", 4, "--agents", "aggressive",
                           "--rounds", 1) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_rounds_settle_as_the_arena_plays_them(self, monkeypatch, capsys):
        # the human declines, discards the first listed group and draws from
        # the stock; the settlements over three rounds are those of a fixed-
        # seating tournament with a seat that plays the same way
        answers = {"declare": "n", "discard": "0", "pick": "s"}
        monkeypatch.setattr("builtins.input", lambda prompt="": answers[prompt.split()[0]])
        assert run_cli("play", "--seed", 9, "--agents", "aggressive", "balanced",
                       "--rounds", 3) == 0
        lines = capsys.readouterr().out.splitlines()
        played = []
        for index, line in enumerate(lines):
            if line == "--- settlement ---":
                played.extend(lines[index:index + 5])

        config = arena.TournamentConfig(["human", "aggressive", "balanced"], rounds=3,
                                        seed=9, seating="fixed")
        result = arena.run_tournament(
            config, [FirstLegal(), arena.build_agent("aggressive"), arena.build_agent("balanced")])
        expected = []
        balances = [config.starting_coins] * 3
        for record in result.records:
            expected += ["--- settlement ---",
                         f"round ends in a draw ({record.end_reason}); no transfers"
                         if record.winner_agent is None else
                         f"winner: {result.names[record.winner_agent]} ({record.end_reason})"]
            for index, name in enumerate(result.names):
                balances[index] += record.coin_delta[index]
                expected.append(f"  {name:<14} {record.coin_delta[index]:+6d} -> "
                                f"{balances[index]}")
        assert played == expected
        assert balances == result.final_balances

    def test_rl_opponent_needs_checkpoint(self, capsys):
        assert run_cli("play", "--agents", "ppo", "--rounds", 1) == 2
