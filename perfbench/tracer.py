"""Layer tracing for the benchmark, installed from outside the program.

The tracer wraps the program's entry points where each caller looks the
name up (``search`` and ``learning`` import engine functions by name, so
the engine functions are replaced in every module that holds them). Coarse
calls (a CLI command, a tournament, a round, a search decision, a training
run) are kept as spans: name, start, end and parent span. Fine-grained
calls (engine operations, heuristic decisions, network passes) are only
counted and timed in aggregate, which keeps the overhead low.

Every wrapper adds its duration to the innermost enclosing wrapper, so a
layer's self time is its calls' time minus the wrapped calls inside them.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

# (key, function name): engine functions, replaced in every module that
# imported them by name
ENGINE_TARGETS = [
    ("engine.legal_discards", "enumerate_legal_discards"),
    ("engine.random_discard", "random_discard_group"),
    ("engine.observation", "observation_for"),
    ("engine.apply", "apply_discard"),
    ("engine.apply", "apply_pick"),
    ("engine.termination", "round_termination"),
    ("engine.deal", "deal"),
]

# (key, module, attribute path, mode). Modes: "span" keeps a span record,
# "agg" is timed in aggregate with self time, "leaf" is timed in aggregate
# and must not contain other wrapped calls.
TARGETS = [
    ("cli.main", "cli", "main", "span"),
    ("arena.tournament", "arena", "run_tournament", "span"),
    ("arena.round", "arena", "run_round", "span"),
    ("arena.records_write", "arena", "records_to_csv", "span"),
    ("arena.records_read", "arena", "records_from_csv", "span"),
    ("analytics.summarize", "analytics", "summarize", "span"),
    ("analytics.comparisons", "analytics", "pairwise_comparisons", "span"),
    ("search.mcts_decide", "search", "mcts_decide", "span"),
    ("search.ismcts_decide", "search", "ismcts_decide", "span"),
    ("search.determinize", "search", "determinize", "leaf"),
    # the tree calls this private kernel directly; rollout() is not used
    ("search.playout", "search", "_playout_outcome", "agg"),
    ("heuristics.decide", "heuristics", "decide_jhyap", "agg"),
    ("heuristics.decide", "heuristics", "decide_discard", "agg"),
    ("heuristics.decide", "heuristics", "decide_pick", "agg"),
    ("learning.train", "learning", "train", "span"),
    ("learning.validation", "learning", "checkpoint_select", "span"),
    ("learning.checkpoint_io", "learning", "save_learning_checkpoint", "span"),
    ("learning.checkpoint_io", "learning", "load_learning_checkpoint", "span"),
    ("learning.ppo_update", "learning", "ppo_update", "span"),
    ("learning.dqn_update", "learning", "DQNAgentCore.train_step", "agg"),
    ("learning.env_step", "learning", "RoundEnv.step", "agg"),
    ("learning.env_reset", "learning", "RoundEnv.reset", "agg"),
    ("learning.encode", "learning", "encode_state", "leaf"),
    ("learning.encode", "learning", "legal_action_mask", "leaf"),
    ("neuralnet.forward", "neuralnet", "forward_cache", "leaf"),
    ("neuralnet.backward", "neuralnet", "backward", "leaf"),
    ("neuralnet.adam", "neuralnet", "adam_step", "leaf"),
]


def _net_macs(net) -> int:
    return sum(layer.weights.size for layer in net.layers)


class Tracer:
    """Installs wrappers, accumulates per-key stats, and keeps spans."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> module, e.g. "engine"
        self.stats: dict[str, list] = {}  # key -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {"search.cutoffs": 0,
                                          "learning.invalid_actions": 0,
                                          "neuralnet.macs": 0}
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.decisions: list[tuple[str, float, bool]] = []  # variant, ms, searched
        self._stack: list[list] = []  # frames: [child_s, span index]
        self._determinize_seen = [0]
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        engine = self.modules["engine"]
        try:
            for key, name in ENGINE_TARGETS:
                original = getattr(engine, name)
                wrapper = self._wrap(key, original, "leaf")
                for module in self.modules.values():
                    if getattr(module, name, None) is original:
                        self._patch(module, name, wrapper)
            for key, module_name, path, mode in TARGETS:
                owner = self.modules[module_name]
                *parents, name = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                self._patch(owner, name, self._wrap(key, getattr(owner, name), mode,
                                                    self._post_hook(key)))
            yield self
        finally:
            for owner, name, original in reversed(self._patches):
                setattr(owner, name, original)
            self._patches.clear()

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def _wrap(self, key: str, fn, mode: str, post=None):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        if mode == "leaf":
            def leaf(*args, **kwargs):
                start = clock()
                result = fn(*args, **kwargs)
                duration = clock() - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration
                if stack:
                    stack[-1][0] += duration
                if post is not None:
                    post(args, result, duration)
                return result
            return leaf

        keep_span = mode == "span"

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent is not None else -1
            if keep_span:
                frame = [0.0, len(spans)]
                spans.append([key, 0.0, 0.0, parent_span])
            else:
                frame = [0.0, parent_span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if keep_span:
                    span = spans[frame[1]]
                    span[1] = start
                    span[2] = end
            if post is not None:
                post(args, result, duration)
            return result
        return wrapper

    def _post_hook(self, key: str):
        counters = self.counters
        if key == "search.playout":
            def post(args, result, duration):
                if result is None:
                    counters["search.cutoffs"] += 1
            return post
        if key == "learning.env_step":
            def post(args, result, duration):
                if result[4]["invalid"]:
                    counters["learning.invalid_actions"] += 1
            return post
        if key == "neuralnet.forward":
            def post(args, result, duration):
                net, x = args[0], args[1]
                rows = 1 if getattr(x, "ndim", 1) == 1 else len(x)
                counters["neuralnet.macs"] += rows * _net_macs(net)
            return post
        if key == "neuralnet.backward":
            def post(args, result, duration):
                net, cache = args[0], args[1]
                rows = len(cache[0][0])
                # dW = dz^T x and dx = dz W per layer: two products each
                counters["neuralnet.macs"] += 2 * rows * _net_macs(net)
            return post
        if key in ("search.mcts_decide", "search.ismcts_decide"):
            # determinize runs only inside decisions, so a decision searched
            # iff the determinize count moved since the previous one ended
            # (the end-to-end run's SearchDuel.time_decisions uses the same test)
            determinize = self.stats.setdefault("search.determinize", [0, 0.0, 0.0])
            seen = self._determinize_seen
            variant = key[len("search."):-len("_decide")]

            def post(args, result, duration):
                searched = determinize[0] > seen[0]
                seen[0] = determinize[0]
                self.decisions.append((variant, duration * 1000.0, searched))
            return post
        return None

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Exact counters: call counts per key plus the counted events."""
        out = {f"{key}.calls": stats[0] for key, stats in self.stats.items()}
        out.update(self.counters)
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times from one traced pass. Engine, determinize
    and network times are inclusive; ``*_self_s`` excludes wrapped callees."""
    def stat(key: str) -> list:
        return tracer.stats.get(key, [0, 0.0, 0.0])

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    counters = tracer.counters
    m: dict[str, float] = {}
    for key, _ in ENGINE_TARGETS:
        calls, total, _ = stat(key)
        m[f"{key}_calls"] = calls
        m[f"{key}_s"] = total

    searched = [(variant, ms) for variant, ms, was_searched in tracer.decisions
                if was_searched]
    playouts, playout_s, _ = stat("search.playout")
    m["search.decisions"] = len(searched)
    for variant in ("mcts", "ismcts"):
        m[f"search.{variant}_decision_ms_p50"] = _median(
            [ms for v, ms in searched if v == variant])
    m["search.determinize_calls"], m["search.determinize_s"], _ = stat("search.determinize")
    m["search.playouts"] = playouts
    m["search.playout_s"] = playout_s
    m["search.playouts_per_s"] = share(playouts, playout_s)
    m["search.playout_cutoff_share"] = share(counters["search.cutoffs"], playouts)
    m["search.tree_self_s"] = stat("search.mcts_decide")[2] + stat("search.ismcts_decide")[2]

    m["heuristics.decisions"], _, m["heuristics.decide_self_s"] = stat("heuristics.decide")

    steps = stat("learning.env_step")[0]
    m["learning.env_steps"] = steps
    m["learning.env_self_s"] = stat("learning.env_step")[2] + stat("learning.env_reset")[2]
    m["learning.encode_s"] = stat("learning.encode")[1]
    m["learning.invalid_action_share"] = share(counters["learning.invalid_actions"], steps)
    m["learning.dqn_update_s"] = stat("learning.dqn_update")[1]
    m["learning.ppo_update_s"] = stat("learning.ppo_update")[1]
    m["learning.checkpoint_io_s"] = stat("learning.checkpoint_io")[1]
    m["learning.validation_s"] = stat("learning.validation")[1]

    m["neuralnet.forward_calls"], m["neuralnet.forward_s"], _ = stat("neuralnet.forward")
    m["neuralnet.backward_s"] = stat("neuralnet.backward")[1]
    m["neuralnet.adam_steps"], m["neuralnet.adam_s"], _ = stat("neuralnet.adam")
    m["neuralnet.macs"] = counters["neuralnet.macs"]

    m["arena.rounds"], _, m["arena.round_self_s"] = stat("arena.round")
    m["arena.records_write_s"] = stat("arena.records_write")[1]
    m["arena.records_read_s"] = stat("arena.records_read")[1]
    m["analytics.summarize_s"] = stat("analytics.summarize")[1]
    m["analytics.comparisons_s"] = stat("analytics.comparisons")[1]
    m["cli.self_s"] = stat("cli.main")[2]
    return m
