"""The pure functions of ``scripts/bench_pairs.py``, which judges every
A/B performance claim: quartiles, bounds, the pair summary and the claim
rule (the target ratio, at least ``ceil(0.9 * pairs)`` pairs won, and a
median gap wider than the parent's interquartile range); and its driver,
through a fake runner in place of ``subprocess.run``."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load()

HIGHER = {"name": "turns_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
LOWER = {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}


def run(**metrics) -> dict:
    return {"seed": 0, "correct": True, "failed": 0, "metrics": metrics}


def paired_runs(parent: list[float], change: list[float], metric=HIGHER) -> dict:
    name = metric["name"]
    return {"parent": [run(**{name: value}) for value in parent],
            "change": [run(**{name: value}) for value in change]}


class TestQuartiles:
    def test_inclusive_quartiles(self):
        assert bench_pairs.quartiles([float(v) for v in range(1, 11)]) == [3.25, 7.75]
        assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == [2.0, 4.0]

    def test_one_value_is_both_quartiles(self):
        assert bench_pairs.quartiles([2.5]) == [2.5, 2.5]

    def test_rounded_to_six_places(self):
        assert bench_pairs.quartiles([1 / 3, 2 / 3]) == [0.416667, 0.583333]


class TestWithinBound:
    @pytest.mark.parametrize("ratio, inside", [(0.5, True), (1.0, True), (1.1, True),
                                               (1.1000001, False), (2.0, False)])
    def test_lower_is_better(self, ratio, inside):
        assert bench_pairs.within_bound(LOWER, ratio) is inside

    @pytest.mark.parametrize("ratio, inside", [(2.0, True), (1.0, True), (0.75, True),
                                               (0.7499999, False), (0.1, False)])
    def test_higher_is_better(self, ratio, inside):
        assert bench_pairs.within_bound(HIGHER, ratio) is inside


class TestSummarize:
    def test_medians_quartiles_and_wins(self):
        parent = [100.0, 104.0, 98.0, 102.0, 96.0]
        change = [120.0, 103.0, 121.0, 119.0, 118.0]
        doc = bench_pairs.summarize([HIGHER], paired_runs(parent, change))
        stats = doc["metrics"]["turns_per_s"]
        assert doc["pairs"] == 5 and doc["all_correct"]
        assert doc["failed"] == {"parent": 0, "change": 0}
        assert stats["parent_median"] == 100.0 and stats["change_median"] == 119.0
        assert stats["parent_quartiles"] == [98.0, 102.0]
        assert stats["change_over_parent"] == 1.19
        assert stats["change_better_pairs"] == 4  # pair 1: 103 < 104
        assert stats["within_bound"]
        assert stats["parent_runs"] == parent and stats["change_runs"] == change

    def test_lower_is_better_counts_lower_runs_as_wins(self):
        doc = bench_pairs.summarize(
            [LOWER], paired_runs([50.0, 50.0, 50.0], [49.0, 51.0, 48.0], LOWER))
        stats = doc["metrics"]["peak_rss_mb"]
        assert stats["change_better_pairs"] == 2
        assert stats["change_over_parent"] == 0.98 and stats["within_bound"]

    def test_out_of_bound_median(self):
        doc = bench_pairs.summarize(
            [LOWER], paired_runs([50.0, 50.0, 50.0], [56.0, 56.0, 56.0], LOWER))
        assert not doc["metrics"]["peak_rss_mb"]["within_bound"]

    def test_a_failed_run_leaves_its_pair_out_of_the_medians(self):
        runs = paired_runs([100.0, 100.0, 100.0], [110.0, 1.0, 110.0])
        runs["change"][1] = {"seed": 1, "correct": False, "error": "exit 1: boom"}
        runs["parent"][2]["failed"] = 3  # operations that failed inside a run
        doc = bench_pairs.summarize([HIGHER], runs)
        stats = doc["metrics"]["turns_per_s"]
        assert doc["pairs"] == 3 and not doc["all_correct"]
        # a run that did not finish counts as one failure
        assert doc["failed"] == {"parent": 3, "change": 1}
        assert stats["change_runs"] == [110.0, 110.0]
        assert stats["parent_runs"] == [100.0, 100.0]
        assert stats["change_median"] == 110.0 and stats["change_better_pairs"] == 2

    def test_no_complete_pair_gives_no_metrics(self):
        runs = paired_runs([100.0], [110.0])
        runs["parent"][0]["correct"] = False
        doc = bench_pairs.summarize([HIGHER], runs)
        assert doc["metrics"] == {} and not doc["all_correct"]


def judged(parent, change, target, metric=HIGHER):
    summary = bench_pairs.summarize([metric], paired_runs(parent, change, metric))
    claim = {"workload": "train-mix", "metric": metric["name"], "target_ratio": target}
    return bench_pairs.judge_claim(claim, metric, summary)


class TestJudgeClaim:
    PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.5, 99.5]

    def test_a_clear_gain_holds(self):
        verdict = judged(self.PARENT, [v * 1.2 for v in self.PARENT], 1.10)
        assert verdict["holds"]
        assert verdict["change_better_pairs"] == 10
        assert verdict["change_over_parent"] == 1.2
        assert verdict["median_gap"] == 20.0 and verdict["parent_iqr"] == 1.0
        assert verdict["workload"] == "train-mix" and verdict["target_ratio"] == 1.10

    def test_short_of_the_target_ratio(self):
        assert not judged(self.PARENT, [v * 1.05 for v in self.PARENT], 1.10)["holds"]

    def test_nine_wins_in_ten_hold_and_eight_do_not(self):
        nine = [v * 1.2 for v in self.PARENT]
        nine[3] = 50.0
        assert judged(self.PARENT, nine, 1.10)["change_better_pairs"] == 9
        assert judged(self.PARENT, nine, 1.10)["holds"]
        eight = list(nine)
        eight[7] = 50.0
        assert judged(self.PARENT, eight, 1.10)["change_better_pairs"] == 8
        assert not judged(self.PARENT, eight, 1.10)["holds"]

    def test_the_wins_rule_rounds_up(self):
        # ceil(0.9 * 6) = 6: with six pairs, every pair must be won
        parent = self.PARENT[:6]
        five = [v * 1.2 for v in parent]
        five[0] = 50.0
        assert judged(parent, five, 1.10)["change_better_pairs"] == 5
        assert not judged(parent, five, 1.10)["holds"]
        assert judged(parent, [v * 1.2 for v in parent], 1.10)["holds"]

    def test_gap_inside_the_parent_iqr_does_not_hold(self):
        parent = [80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0]
        change = [v + 12.0 for v in parent]
        verdict = judged(parent, change, 1.10)
        assert verdict["change_better_pairs"] == 10
        assert verdict["change_over_parent"] >= 1.10
        assert verdict["median_gap"] == 12.0 and verdict["parent_iqr"] > 12.0
        assert not verdict["holds"]

    def test_lower_is_better(self):
        parent = [50.0, 50.5, 49.5, 50.2, 49.8, 50.0, 50.1, 49.9, 50.0, 50.3]
        verdict = judged(parent, [v * 0.8 for v in parent], 0.85, LOWER)
        assert verdict["holds"] and verdict["change_better_pairs"] == 10
        assert not judged(parent, [v * 0.9 for v in parent], 0.85, LOWER)["holds"]
        assert not judged(parent, [v * 1.2 for v in parent], 1.25, LOWER)["holds"]

    def test_missing_metric_does_not_hold(self):
        summary = bench_pairs.summarize([HIGHER], paired_runs([1.0], [2.0]))
        claim = {"workload": "train-mix", "metric": "decision_ms_p50", "target_ratio": 0.9}
        assert bench_pairs.judge_claim(claim, LOWER, summary) == {**claim, "holds": False}


class TestMain:
    def test_both_trees_compiled_before_the_first_pair(self, tmp_path):
        """compileall runs in each checkout before any benchmark run, and
        the output's method says so and gives the bytecode flag."""
        trees = {side: tmp_path / side for side in bench_pairs.SIDES}
        for tree in trees.values():
            tree.mkdir()
        (trees["change"] / "BENCHMARK.json").write_text(
            json.dumps({"end_to_end": [HIGHER, LOWER]}))
        calls = []

        def fake_run(command, cwd, **kwargs):
            calls.append((Path(cwd), command[1:]))
            if "compileall" in command:
                assert kwargs.get("check")
                return subprocess.CompletedProcess(command, 0, b"", b"")
            line = {"correct": True, "attempted": 1, "failed": 0, "metrics": {
                "turns_per_s": {"value": 100.0}, "peak_rss_mb": {"value": 40.0}}}
            return subprocess.CompletedProcess(command, 0, json.dumps(line) + "\n", "")

        out = tmp_path / "BENCH.json"
        assert bench_pairs.main(
            ["--parent", str(trees["parent"]), "--change", str(trees["change"]),
             "--workloads", "train-mix", "--seeds", "7", "--pairs", "2",
             "--seconds", "1", "--out", str(out)], run=fake_run) == 0
        compile_args = ["-m", "compileall", "-q", "src", "perfbench"]
        assert calls[:2] == [(trees["parent"].resolve(), compile_args),
                             (trees["change"].resolve(), compile_args)]
        runs = calls[2:]
        assert len(runs) == 4 and all(args[0] == "perfbench/run.py" for _, args in runs)
        assert [cwd.name for cwd, _ in runs] == ["parent", "change", "change", "parent"]
        doc = json.loads(out.read_text())
        assert doc["method"].endswith(
            f"sys.flags.dont_write_bytecode = {sys.flags.dont_write_bytecode}")
        assert "compileall" in doc["method"]
        assert doc["workloads"]["train-mix"]["pairs"] == 2
