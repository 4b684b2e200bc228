#!/usr/bin/env python3
"""Run the full evaluation protocol end to end.

Trains both learners, then runs the three within-category tournaments and
the cross-category championship as `dhumbal tournament` and `dhumbal
championship` commands, and drops every artifact under an output
directory. The default scale finishes on a laptop; --full switches to the
publication-scale budgets (50k/10k training episodes, 1024 rounds
everywhere, 1000-iteration searches) and can run for days on one core.

Usage:
    python scripts/reproduce_experiments.py --out results/full_run
    python scripts/reproduce_experiments.py --full --workers 2
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dhumbal import cli, learning


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("results/reproduction"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--full", action="store_true",
                        help="publication-scale budgets instead of desk scale")
    parser.add_argument("--workers", type=int, default=1)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    scale = {
        "rounds": 1024 if args.full else 256,
        "search_rounds": 1024 if args.full else 128,
        "iterations": 1000 if args.full else 200,
        "dqn_episodes": 50_000 if args.full else 400,
        "ppo_episodes": 10_000 if args.full else 400,
        "validation_rounds": 256 if args.full else 64,
    }
    (out / "scale.json").write_text(json.dumps(scale, indent=2))
    clock = time.perf_counter()

    trained = {}
    for step, kind in enumerate(("dqn", "ppo"), start=1):
        episodes = scale[f"{kind}_episodes"]
        print(f"[{step}/7] training {kind.upper()} for {episodes} episodes")
        trained[kind] = learning.train(
            kind, episodes=episodes, seed=args.seed,
            checkpoint_every=max(1, episodes // 10), out_dir=out / f"train_{kind}",
        ).checkpoint_paths
    print("[3/7] selecting best checkpoints on validation win rate")
    best = {
        kind: learning.checkpoint_select(
            paths, rounds=scale["validation_rounds"], seed=args.seed)
        for kind, paths in trained.items()
    }
    print(f"      dqn: {best['dqn']}\n      ppo: {best['ppo']}")

    rounds, iterations = scale["rounds"], scale["iterations"]
    runs = {
        "rule_based": ["tournament", "rule", "--rounds", rounds],
        "search_based": ["tournament", "search", "--rounds", scale["search_rounds"],
                         "--iterations", iterations],
        "learning_based": ["tournament", "learning", "--rounds", rounds,
                           "--checkpoint", best["ppo"], best["dqn"]],
        "championship": ["championship", "--rounds", rounds, "--iterations", iterations,
                         "--checkpoint", best["ppo"]],
    }
    for step, (name, command) in enumerate(runs.items(), start=4):
        argv = [str(arg) for arg in [
            *command, "--seed", args.seed, "--workers", args.workers, "--out", out / name,
        ]]
        print(f"[{step}/7] {name}: dhumbal {' '.join(argv)}")
        code = cli.main(argv)
        if code != 0:
            return code
    print(f"done in {time.perf_counter() - clock:.0f}s; artifacts under {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
