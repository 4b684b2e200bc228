"""Run alternating parent/change benchmark pairs and write a BENCH_<n>.json.

Usage:

    python scripts/bench_pairs.py --parent DIR --change DIR \\
        --workloads train-mix search-duel rule-league --seeds 14301 14101 14201 \\
        --pairs 10 --seconds 32 --out BENCH_14.json \\
        [--claim train-mix decision_ms_p50 0.85] [--note TEXT]

DIR is the root of a source checkout, one for each side. Pair k of a
workload runs ``python3 perfbench/run.py --workload W --seed S+k --seconds T
--trace 0`` once in each checkout, the parent first on even k and the
change first on odd k, where S is the workload's entry in ``--seeds``. The
runs go one at a time. Metric names, units, directions and bounds come from
the change's BENCHMARK.json. Before the first pair, ``python -m compileall
-q src perfbench`` runs in both checkouts, so that both sides import from
fresh bytecode even where ``PYTHONDONTWRITEBYTECODE`` keeps the runs from
writing it: a stale ``.pyc`` is recompiled at every import, which costs
time and memory on one side only.

For each end-to-end metric the output gives both medians, the parent's
inclusive quartiles, the change/parent ratio of the medians, the number of
pairs the change won, whether the change's median stays within the
metric's bound, and every run. ``--claim W M RATIO`` also records whether
a claimed gain holds: the ratio is at most RATIO (at least, for a metric
where higher is better), the change wins at least 9 pairs in 10, and the
medians lie further apart than the parent's quartiles. The output file is
rewritten after every pair, so an interrupted run keeps what it measured.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def compile_trees(trees: dict, run=subprocess.run) -> None:
    """Write fresh bytecode for the program and the benchmark in each tree."""
    for tree in trees.values():
        run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
            cwd=tree, check=True, capture_output=True)


def run_bench(tree: Path, workload: str, seed: int, seconds: float,
              run=subprocess.run) -> dict:
    """One untraced perfbench run in ``tree``: its result line, or the failure."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    try:
        done = run(command, cwd=tree, capture_output=True, text=True,
                   timeout=4 * seconds + 300)
    except subprocess.TimeoutExpired:
        return {"seed": seed, "correct": False, "error": "timed out"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"seed": seed, "correct": False,
                "error": f"exit {done.returncode}: {done.stderr.strip()[-500:]}"}
    result = json.loads(lines[-1])
    result["metrics"] = {name: entry["value"] for name, entry in result["metrics"].items()}
    return {"seed": seed, **result}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [round(values[0], 6)] * 2
    first, _, third = statistics.quantiles(values, n=4, method="inclusive")
    return [round(first, 6), round(third, 6)]


def better(metric: dict, change: float, parent: float) -> bool:
    return change < parent if metric["better"] == "lower" else change > parent


def within_bound(metric: dict, ratio: float) -> bool:
    if metric["better"] == "lower":
        return ratio <= 1 + metric["bound"]
    return ratio >= 1 - metric["bound"]


def summarize(metrics: list[dict], runs: dict) -> dict:
    """Medians, parent quartiles, pairs won and bounds, from paired runs."""
    pairs = list(zip(runs["parent"], runs["change"]))
    complete = [(p, c) for p, c in pairs if p.get("correct") and c.get("correct")]
    doc: dict = {
        "pairs": len(pairs),
        "all_correct": len(complete) == len(pairs),
        "failed": {side: sum(run.get("failed", 1) for run in runs[side]) for side in SIDES},
        "metrics": {},
    }
    if not complete:
        return doc
    for metric in metrics:
        name = metric["name"]
        parent = [p["metrics"][name] for p, _ in complete]
        change = [c["metrics"][name] for _, c in complete]
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        ratio = change_median / parent_median if parent_median else math.nan
        doc["metrics"][name] = {
            "unit": metric["unit"],
            "parent_median": round(parent_median, 6),
            "parent_quartiles": quartiles(parent),
            "change_median": round(change_median, 6),
            "change_over_parent": round(ratio, 3),
            "change_better_pairs": sum(better(metric, c, p) for p, c in zip(parent, change)),
            "within_bound": within_bound(metric, ratio),
            "parent_runs": [round(value, 6) for value in parent],
            "change_runs": [round(value, 6) for value in change],
        }
    return doc


def judge_claim(claim: dict, metric: dict, summary: dict) -> dict:
    """Whether the claimed gain holds in the workload's summary."""
    stats = summary["metrics"].get(claim["metric"])
    if stats is None:
        return {**claim, "holds": False}
    low, high = stats["parent_quartiles"]
    gap = abs(stats["change_median"] - stats["parent_median"])
    ratio = stats["change_over_parent"]
    reached = (ratio <= claim["target_ratio"] if metric["better"] == "lower"
               else ratio >= claim["target_ratio"])
    wins = stats["change_better_pairs"]
    return {
        **claim,
        "change_over_parent": ratio,
        "change_better_pairs": wins,
        "median_gap": round(gap, 6),
        "parent_iqr": round(high - low, 6),
        "holds": reached and wins >= math.ceil(0.9 * summary["pairs"]) and gap > high - low,
    }


def machine() -> str:
    try:
        import numpy
        numpy_version = f", numpy {numpy.__version__}"
    except ImportError:
        numpy_version = ""
    return (f"{os.cpu_count()}-core {platform.machine()} {platform.system()}, "
            f"Python {platform.python_version()}{numpy_version}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True,
                        help="the first seed of each workload, in --workloads order")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", nargs=3, metavar=("WORKLOAD", "METRIC", "RATIO"))
    parser.add_argument("--note", default="", help="what the change does")
    args = parser.parse_args(argv)
    if len(args.seeds) != len(args.workloads):
        parser.error("give one first seed per workload")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    return args


def main(argv=None, run=subprocess.run) -> int:
    """``run`` starts every child process, as ``subprocess.run`` does."""
    args = parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    claim = None
    if args.claim:
        workload, metric, ratio = args.claim
        claim = {"workload": workload, "metric": metric, "target_ratio": float(ratio)}
    seed_ranges = {w: (s, s + args.pairs - 1) for w, s in zip(args.workloads, args.seeds)}
    doc: dict = {
        "change": args.note,
        "machine": machine(),
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "method": "alternating parent/change pairs (parent first on even pairs), each "
                  "side run from its own checkout, one run at a time; seeds " + ", ".join(
                      f"{w} {low}-{high}" for w, (low, high) in seed_ranges.items())
                  + "; quartiles are inclusive (linear) quartiles of the parent's runs; "
                    "every run made is listed; src and perfbench compiled in both "
                    "checkouts before the first pair (python -m compileall -q); "
                    f"sys.flags.dont_write_bytecode = {sys.flags.dont_write_bytecode}",
        "claimed": claim,
        "workloads": {},
    }
    compile_trees(trees, run)
    for workload, first_seed in zip(args.workloads, args.seeds):
        runs: dict = {side: [] for side in SIDES}
        for pair in range(args.pairs):
            seed = first_seed + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run_bench(trees[side], workload, seed, args.seconds, run)
                runs[side].append(result)
                print(f"{workload} pair {pair} {side} seed {seed}: "
                      f"{json.dumps(result.get('metrics', result.get('error')))}",
                      file=sys.stderr, flush=True)
            summary = summarize(metrics, runs)
            doc["workloads"][workload] = {
                "seeds": [first_seed + k for k in range(pair + 1)], **summary}
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
        if claim and claim["workload"] == workload:
            metric = next(m for m in metrics if m["name"] == claim["metric"])
            doc["claimed"] = judge_claim(claim, metric, summary)
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    ok = all(w["all_correct"] and all(m["within_bound"] for m in w["metrics"].values())
             for w in doc["workloads"].values())
    return 0 if ok and (claim is None or doc["claimed"].get("holds")) else 1


if __name__ == "__main__":
    sys.exit(main())
