"""The names the benchmark patches from outside the program still exist.

``perfbench`` wraps program functions by name: its tracer's target tables,
and the decision timers and checks of its workloads. A rename in ``src``
would otherwise show only when the benchmark runs; these checks read the
tracer's tables and the names the workloads patch, and resolve each one
where the benchmark looks it up.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from dhumbal import arena, engine, heuristics, learning, search

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()

# (owner, attribute) pairs that perfbench/workloads.py and perfbench/bench.py
# replace with timers or spies; each is read from the owner's own __dict__
PATCHED = [
    (heuristics.HeuristicAgent, "decide_jhyap"),
    (heuristics.HeuristicAgent, "decide_discard"),
    (heuristics.HeuristicAgent, "decide_pick"),
    (learning.RoundEnv, "step"),
    (search, "determinize"),
    (search, "mcts_decide"),
    (search, "ismcts_decide"),
    (arena, "deal"),
]


@pytest.mark.parametrize("key, name", TRACER.ENGINE_TARGETS)
def test_engine_targets_resolve(key, name):
    assert callable(engine.__dict__.get(name)), f"{key}: engine.{name} is gone"


@pytest.mark.parametrize("key, module_name, path, mode", TRACER.TARGETS)
def test_targets_resolve(key, module_name, path, mode):
    owner = importlib.import_module(f"dhumbal.{module_name}")
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    assert callable(owner.__dict__.get(name)), f"{key}: {module_name}.{path} is gone"


@pytest.mark.parametrize(
    "owner, name", PATCHED, ids=[f"{owner.__name__}.{name}" for owner, name in PATCHED]
)
def test_workload_patches_resolve(owner, name):
    assert callable(owner.__dict__.get(name)), f"{owner.__name__}.{name} is gone"


def test_arena_deals_with_the_engines_deal():
    # the tracer counts deals by replacing engine.deal wherever it is held;
    # the learner's episodes deal through the arena too
    assert arena.deal is engine.deal
