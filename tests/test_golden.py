"""Golden records: SHA-256 digests of deterministic output for fixed seeds.

A refactor that keeps the rules and the agents' random draws must keep
every digest. Decision timings are the only nondeterministic fields and
are left out. When a change alters records on purpose, recompute the
digests and say why in the change's notes.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, replace

import pytest

from dhumbal import arena, cli, engine, learning, search
from dhumbal.arena import TournamentConfig

SEARCH = {"iterations": 20, "time_limit_ms": None}

GOLDEN = {
    "artifacts": "0d67216ff066bc991c6eaf8b8a8281e472efbfc6556be01985bca20c4508d0ca",
    "pooled": "a3d21e8acd567d123452beba3ed51fe93b49031d46de2d6a5825d92ded18e5e3",
    "determinize-playouts": "b48b669a7e2303266637c0e838bd9f6b3294208902847f526ad7be2280d0bce9",
    "rule-64": "9be73444e9dc7bcd071f3f45aee8af9d7f065f6cee4153a5aa53026ef5cbdc4a",
    "search-3": "00877a20ae14f7b449557735bc699562dc0686f01360a02242a2be9fa415ded9",
    "random-lineup": "17fbc81c61783be1f7d7aed1995046d620a578657ec815844b16aaef83b03b44",
    "learning": "6ecb2a0011fe0c384d02acaa1d37be19f86dbe9a4643a9ea2aedbfa5941e3a01",
}


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _tournament_doc(config: TournamentConfig) -> dict:
    result = arena.run_tournament(config)
    records = []
    for record in result.records:
        row = asdict(record)
        del row["decision_ms"]
        records.append(row)
    return {"records": records, "final_balances": result.final_balances}


def _rule_64(tmp_path) -> dict:
    return _tournament_doc(TournamentConfig(
        agents=["aggressive", "conservative", "balanced", "opportunistic"],
        rounds=64, seed=42))


def _search_3(tmp_path) -> dict:
    return _tournament_doc(TournamentConfig(
        agents=[{"kind": "mcts", **SEARCH}, {"kind": "ismcts", **SEARCH}],
        rounds=3, seed=42))


def _random_lineup(tmp_path) -> dict:
    return _tournament_doc(TournamentConfig(
        agents=["random", "aggressive", "random", "opportunistic"],
        rounds=128, seed=42))


def _learning(tmp_path) -> dict:
    doc = {}
    checkpoints = {}
    for kind in ("dqn", "ppo"):
        result = learning.train(kind, episodes=20, seed=42, out_dir=tmp_path / kind)
        doc[kind] = [asdict(row) for row in result.curve]
        checkpoints[kind] = str(result.checkpoint_paths[-1])
    doc["tournament"] = _tournament_doc(TournamentConfig(
        agents=[{"kind": "ppo", "checkpoint": checkpoints["ppo"]},
                {"kind": "dqn", "checkpoint": checkpoints["dqn"]},
                "random"],
        rounds=8, seed=42))
    return doc


def _pooled(tmp_path) -> dict:
    """Records and balances of two lineups played by a pool of 2 workers."""
    return {
        "rule": _tournament_doc(TournamentConfig(
            agents=["aggressive", "random", "balanced"], rounds=24, seed=5, workers=2)),
        "search": _tournament_doc(TournamentConfig(
            agents=[{"kind": "ismcts", "iterations": 10, "time_limit_ms": None},
                    "aggressive"],
            rounds=24, seed=5, workers=2)),
    }


def _artifacts(tmp_path) -> dict:
    """The bytes of every CSV and JSON artifact: records.csv with fixed
    decision times, what ``report`` and ``export`` derive from it, and the
    curves of two short training runs. report.txt loses its first line,
    which names the records path."""
    result = arena.run_tournament(TournamentConfig(
        agents=["random", "aggressive", "conservative"], rounds=48, seed=7,
        turn_limit=20))
    records = [
        replace(r, decision_ms=tuple((r.round_index + 1) / (index + 3)
                                     for index in range(len(r.decision_ms))))
        for r in result.records
    ]
    path = tmp_path / "records.csv"
    arena.records_to_csv(records, result.names, path)
    report = tmp_path / "report"
    commands = [
        ["report", "--records", str(path), "--out", str(report)],
        ["export", "--records", str(path), "--format", "csv",
         "--out", str(tmp_path / "summary.csv")],
        ["export", "--records", str(path), "--format", "json",
         "--out", str(tmp_path / "summary.json")],
    ]
    for argv in commands:
        assert cli.main(argv) == 0
    for kind in ("dqn", "ppo"):
        learning.train(kind, episodes=12, seed=42, out_dir=tmp_path / kind)
    files = [path, report / "comparisons.csv", report / "summary.json",
             tmp_path / "summary.csv", tmp_path / "summary.json",
             tmp_path / "dqn" / "dqn_curve.csv", tmp_path / "ppo" / "ppo_curve.csv"]
    blobs = {str(f.relative_to(tmp_path)): f.read_bytes() for f in files}
    blobs["report/report.txt"] = (report / "report.txt").read_bytes().split(b"\n", 1)[1]
    return {name: hashlib.sha256(blob).hexdigest() for name, blob in blobs.items()}


def _world_doc(state) -> list:
    return [
        [[[card.rank, card.suit] for card in player.hand] for player in state.players],
        [[card.rank, card.suit] for card in state.stock],
        [[int(group.kind), [[card.rank, card.suit] for card in group.cards]]
         for group in state.discard_stack],
        state.current_player,
        state.turn_count,
        int(state.phase),
    ]


def _outcome_doc(outcome) -> list | None:
    if outcome is None:
        return None
    return [outcome.winner, list(outcome.coin_delta), outcome.end_reason.value,
            outcome.jhyap_declared_by, outcome.jhyap_succeeded]


def _determinize_playouts(tmp_path) -> list:
    """200 worlds: 10 determinizations for each of 20 positions of live
    rounds (2 to 5 players), taken by the mover's belief tracker, and the
    random playout of each world with its final state and next draw."""
    doc = []
    rng = random.Random(42)
    positions = 0
    while positions < 20:
        num_players = 2 + positions % 4
        trackers = [search.BeliefTracker(seat, num_players) for seat in range(num_players)]
        state = engine.deal(num_players, rng, turn_limit=60,
                            observers=[t.update for t in trackers])
        for _ in range(rng.randrange(4, 120)):
            actions = engine.legal_actions(state)
            if engine.step(state, actions[rng.randrange(len(actions))]) is not None:
                break
        else:
            seat = state.current_player
            observation = engine.observation_for(state, seat)
            belief = trackers[seat].snapshot(observation)
            for world_seed in range(10):
                world = search.determinize(
                    belief, observation, random.Random(1000 * positions + world_seed))
                sampled = _world_doc(world)
                outcome = search._playout_outcome(world, world.rng, 200)
                doc.append([sampled, _outcome_doc(outcome), _world_doc(world),
                            world.rng.random()])
            positions += 1
    return doc


CASES = {
    "artifacts": _artifacts,
    "pooled": _pooled,
    "determinize-playouts": _determinize_playouts,
    "rule-64": _rule_64,
    "search-3": _search_3,
    "random-lineup": _random_lineup,
    "learning": _learning,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_records(case, tmp_path):
    assert _digest(CASES[case](tmp_path)) == GOLDEN[case]
