#!/usr/bin/env python3
"""Run the full evaluation protocol end to end.

Trains both learners, plays the three within-category tournaments and the
cross-category championship, and drops every artifact under an output
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

from dhumbal import arena, learning
from dhumbal.cli import write_artifacts


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("results/reproduction"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--full", action="store_true",
                        help="publication-scale budgets instead of desk scale")
    parser.add_argument("--workers", type=int, default=1)
    return parser.parse_args()


def main() -> int:
    args = parse_args()
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

    print(f"[1/7] training DQN for {scale['dqn_episodes']} episodes")
    dqn = learning.train(
        "dqn", episodes=scale["dqn_episodes"], seed=args.seed,
        checkpoint_every=max(1, scale["dqn_episodes"] // 10),
        out_dir=out / "train_dqn",
    )
    print(f"[2/7] training PPO for {scale['ppo_episodes']} episodes")
    ppo = learning.train(
        "ppo", episodes=scale["ppo_episodes"], seed=args.seed,
        checkpoint_every=max(1, scale["ppo_episodes"] // 10),
        out_dir=out / "train_ppo",
    )
    print("[3/7] selecting best checkpoints on validation win rate")
    dqn_best = learning.checkpoint_select(
        dqn.checkpoint_paths, rounds=scale["validation_rounds"], seed=args.seed
    )
    ppo_best = learning.checkpoint_select(
        ppo.checkpoint_paths, rounds=scale["validation_rounds"], seed=args.seed
    )
    print(f"      dqn: {dqn_best}\n      ppo: {ppo_best}")

    search_spec = lambda kind: {
        "kind": kind, "iterations": scale["iterations"],
        "determinizations": 3, "time_limit_ms": None,
    }
    runs = {
        "rule_based": arena.TournamentConfig(
            agents=["aggressive", "conservative", "balanced", "opportunistic"],
            rounds=scale["rounds"], seed=args.seed, workers=args.workers,
        ),
        "search_based": arena.TournamentConfig(
            agents=[search_spec("mcts"), search_spec("ismcts")],
            rounds=scale["search_rounds"], seed=args.seed, workers=args.workers,
        ),
        "learning_based": arena.TournamentConfig(
            agents=[
                {"kind": "ppo", "checkpoint": str(ppo_best)},
                {"kind": "dqn", "checkpoint": str(dqn_best)},
            ],
            rounds=scale["rounds"], seed=args.seed, workers=args.workers,
        ),
    }
    for step, (name, config) in enumerate(runs.items(), start=4):
        print(f"[{step}/7] {name} tournament ({config.rounds} rounds)")
        result = arena.run_tournament(config)
        write_artifacts(result, out / name, f"{name} tournament")

    print("[7/7] cross-category championship")
    champ = arena.TournamentConfig(
        agents=[
            "aggressive",
            search_spec("ismcts"),
            {"kind": "ppo", "checkpoint": str(ppo_best)},
            "random",
        ],
        rounds=scale["rounds"], seed=args.seed, workers=args.workers,
    )
    result = arena.championship(champ)
    write_artifacts(result, out / "championship", "Cross-category championship")
    print(f"done in {time.perf_counter() - clock:.0f}s; artifacts under {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
