from __future__ import annotations

import csv
import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from dhumbal import analytics, arena, cli, heuristics, learning
from dhumbal.search import SearchAgent, SearchConfig


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


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

    def test_championship_entries_neither_name_nor_object(self, tmp_path, capsys):
        checkpoint = tmp_path / "ppo.json"
        learning.save_learning_checkpoint(
            "ppo", learning.PPOAgentCore(learning.PPOConfig(), seed=3), checkpoint, 1)
        code, _ = self.run(tmp_path, {"agents": [1, 2, 3, 4]}, "championship",
                           "--rounds", 2, "--checkpoint", checkpoint)
        assert code == 2
        assert capsys.readouterr().err.startswith("dhumbal: bad tournament config")
        assert not (tmp_path / "out").exists()

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
    ], ids=["agent-option", "agent-value", "config-key", "turn-limit", "bad-json",
            "count-orbits", "float-workers", "bool-rounds", "str-seed", "float-turn-limit",
            "str-starting-coins"])
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
                                       "renamed-agent", "unbalanced-round"])
    def test_records_not_as_written(self, tmp_path, capsys, command, fault):
        # each file differs from what records_to_csv writes, in header, width or
        # seats, or holds rounds that the arena could not have played
        assert run_cli("tournament", "rule", "--rounds", 4, "--out", tmp_path) == 0
        path = tmp_path / "records.csv"
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        delta, cards = rows[0].index("a0_delta"), rows[0].index("a0_cards")
        seat, other_seat = rows[0].index("a0_seat"), rows[0].index("a1_seat")
        for row in rows:
            if fault == "swapped-columns":
                row[delta], row[cards] = row[cards], row[delta]
            elif fault == "extra-columns":
                row.extend(["0", "0", "0"])
            elif fault == "shared-seat" and row is not rows[0]:
                row[seat] = row[other_seat]
        if fault == "renamed-agent":
            rows[-1][rows[0].index("a0_name")] = "renamed"
        elif fault == "unbalanced-round":
            rows[1][delta] = str(int(rows[1][delta]) + 100)
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
        monkeypatch.setattr(arena, "championship", capture)
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
        loaded = cli.summary_from_csv(exported)
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

    def test_rl_opponent_needs_checkpoint(self, capsys):
        assert run_cli("play", "--agents", "ppo", "--rounds", 1) == 2
