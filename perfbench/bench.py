"""Measurement loop, correctness gate and result line of the benchmark."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import Counter
from itertools import islice
from pathlib import Path

import numpy as np

from dhumbal import analytics, arena, cli, engine, heuristics, learning, neuralnet, search

from tracer import Tracer, layer_metrics
from workloads import RULE_PROFILES, WORKLOADS, UnitResult

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_work"
PINS = BENCH_DIR / "pins.json"  # digests of unit 0 for PINNED_SEED
PINNED_SEED = 42
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
MODULES = {"engine": engine, "search": search, "learning": learning, "arena": arena,
           "heuristics": heuristics, "cli": cli, "analytics": analytics,
           "neuralnet": neuralnet}


def unit_seeds(seed: int):
    """One seed per unit, drawn from the run's seed."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


def percentile(values: array, q: float) -> float:
    """Nearest-rank percentile of an array("f"), q in (0, 1]."""
    ordered = np.sort(np.frombuffer(values, dtype=np.float32))
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def setup_probe(workload: str) -> float:
    """Seconds from starting a fresh process to the first unit of work:
    interpreter, imports, CLI parsing and agent or core construction."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--setup-probe"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as child:
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = child.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise RuntimeError("setup probe timed out") from None
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"setup probe failed ({child.returncode}): {err.strip()}")
    return elapsed


def conservation_checks_on() -> list[str]:
    """The arena must deal validated states, and asserts must be live,
    or the engine's card-conservation checks do not run."""
    errors = []
    if not __debug__:
        errors.append("python runs with -O: engine conservation asserts are off")
    validated = []
    original = arena.deal

    def spy(*args, **kwargs):
        state = original(*args, **kwargs)
        validated.append(state.validate)
        return state
    arena.deal = spy
    try:
        agents = [heuristics.HeuristicAgent(name) for name in RULE_PROFILES]
        arena.run_round(agents, [0, 1, 2, 3], random.Random(0))
    finally:
        arena.deal = original
    if validated != [True]:
        errors.append(f"arena dealt states with validate={validated}")
    return errors


def unit_count(workload, seconds: float) -> int:
    return max(1, round(seconds / workload.nominal_unit_s))


def run_units(workload, seeds, work_dir: Path, on_unit=None) -> list[UnitResult]:
    """Run one unit per seed, back to back."""
    clock = time.perf_counter
    units: list[UnitResult] = []
    for index, seed in enumerate(seeds):
        start = clock()
        try:
            unit, result = workload.run_unit(seed, work_dir)
            unit.work_s = clock() - start
            workload.check(unit, result, work_dir)
        except Exception:  # a failing unit is counted, and the run goes on
            unit = UnitResult(rounds=workload.unit_rounds,
                              errors=[traceback.format_exc()])
            unit.work_s = clock() - start
        units.append(unit)
        if on_unit is not None:
            on_unit(index, unit)
    return units


def check_pin(units: list[UnitResult], workload: str, seed: int) -> None:
    if seed != PINNED_SEED or not units:
        return
    pins = json.loads(PINS.read_text())
    if units[0].digest != pins.get(workload):
        units[0].errors.append(
            f"unit 0 digest {units[0].digest} != pinned {pins.get(workload)}")


def git_sha() -> str | None:
    """HEAD's commit, read from the checkout's own .git; None outside git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance() -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _tally(units: list[UnitResult]) -> tuple[int, int]:
    attempted = sum(u.rounds for u in units)
    failed = sum(u.rounds for u in units if u.errors)
    return attempted, failed


def measure(workload, args, work_dir: Path, details: dict):
    """--trace 0: end-to-end metrics over a run of about `seconds`."""
    count = unit_count(workload, args.seconds)
    # set-up probes are spread over the run, so that one burst of load on
    # the machine moves at most one of them
    probes_after = Counter(round(i * count / SETUP_PROBES) - 1 for i in range(SETUP_PROBES))
    setup = [setup_probe(workload.name) for _ in range(probes_after[-1])]
    # 4 bytes a sample, so that the harness adds little to peak_rss_mb
    # (a list of floats takes 32); float32 keeps a latency in ms to about
    # 7 digits, far finer than the clock
    samples = array("f")

    def between_units(index: int, unit: UnitResult) -> None:
        setup.extend(setup_probe(workload.name) for _ in range(probes_after[index]))

    patches = workload.time_decisions(samples)
    try:
        units = run_units(workload, islice(unit_seeds(args.seed), count), work_dir,
                          on_unit=between_units)
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)
    # read before the checks and percentiles below allocate anything
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_pin(units, workload.name, args.seed)
    details.update(setup_probes_s=setup, decision_samples=len(samples),
                   decision_samples_mb=samples.itemsize * len(samples) / 2**20,
                   unit_work_s=[u.work_s for u in units], unit_turns=[u.turns for u in units])
    if not samples:
        units[0].errors.append("no decision was timed")
        samples.append(0.0)
    values = {
        "setup_s": statistics.median(setup),
        "turns_per_s": sum(u.turns for u in units) / sum(u.work_s for u in units),
        "decision_ms_p50": percentile(samples, 0.50),
        "decision_ms_p99": percentile(samples, 0.99),
        "peak_rss_mb": peak_rss_mb,
    }
    return units, values


def trace(workload, args, work_dir: Path, details: dict):
    """--trace 1: a fixed number of units untraced, the same units traced,
    and unit 0 traced once more; per-layer metrics come from the traced pass."""
    count = unit_count(workload, args.seconds / 2)
    seeds = list(islice(unit_seeds(args.seed), count))
    untraced = run_units(workload, seeds, work_dir)
    tracer = Tracer(MODULES)
    with tracer.installed():
        traced = run_units(workload, seeds[:1], work_dir)
        first_counts = tracer.snapshot()
        traced += run_units(workload, seeds[1:], work_dir)
    again = Tracer(MODULES)
    with again.installed():
        repeat = run_units(workload, seeds[:1], work_dir)
    repeat_counts = again.snapshot()
    if repeat_counts != first_counts:
        diff = {key: (count, repeat_counts.get(key)) for key, count in first_counts.items()
                if repeat_counts.get(key) != count}
        repeat[0].errors.append(f"traced counts do not repeat for one seed: {diff}")
    for index, (plain, traced_unit) in enumerate(zip(untraced, traced)):
        if plain.digest != traced_unit.digest:
            traced_unit.errors.append(f"unit {index}: traced digest differs from untraced")
    check_pin(untraced, workload.name, args.seed)
    spans_path = WORK_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    details.update(trace_units=count, spans=len(tracer.spans), spans_file=str(spans_path))

    values = layer_metrics(tracer)
    for kind in ("dqn", "ppo"):
        episodes = sum(u.phase_rounds.get(kind, 0) for u in untraced)
        busy = sum(u.phase_s.get(kind, 0.0) for u in untraced)
        values[f"learning.{kind}_episodes_per_s"] = episodes / busy if busy else 0.0
    values["trace.overhead_share"] = (
        sum(u.work_s for u in traced) / sum(u.work_s for u in untraced) - 1.0)
    return untraced + traced + repeat, values


def run_benchmark(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    details = {"workload": workload.name, "seed": args.seed, **provenance()}
    work_dir = WORK_DIR / f"{workload.name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        preflight = conservation_checks_on()
        run = trace if args.trace else measure
        units, values = run(workload, args, work_dir, details)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted, failed = _tally(units)
    if preflight:
        failed = attempted
    errors = preflight + [e for u in units for e in u.errors]
    details.update(units=len(units), unit0_digest=units[0].digest,
                   error_share=failed / attempted, errors=errors[:5])
    for error in errors[:5]:
        print(f"perfbench: {error}", file=sys.stderr)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0
