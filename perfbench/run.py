"""Benchmark for dhumbal: search-duel, rule-league and train-mix.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload search-duel --seed 1 --seconds 32 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it runs a fixed number of units untraced and then traced,
and reports the per-layer metrics. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. Metric
names and units come from BENCHMARK.json at the checkout root. The
program is imported from ``src/`` of the checkout; without it the run
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# fix the BLAS pool before numpy loads: one thread, as the workloads are
# single-threaded closed loops on a small machine
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
NO_PROGRAM_EXIT = 2


def _import_program():
    """Import dhumbal from the checkout's src/, or exit 2 without a result."""
    src = ROOT / "src"
    if not (src / "dhumbal" / "__init__.py").is_file():
        print(f"perfbench: no program at {src / 'dhumbal'}; "
              "run from the root of a dhumbal source checkout", file=sys.stderr)
        sys.exit(NO_PROGRAM_EXIT)
    sys.path.insert(0, str(src))
    import dhumbal

    if Path(dhumbal.__file__).resolve().parent != (src / "dhumbal").resolve():
        print(f"perfbench: imported dhumbal from {dhumbal.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(NO_PROGRAM_EXIT)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # child process of the setup_s probe
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_program()
    if args.setup_probe:
        from workloads import WORKLOADS

        WORKLOADS[args.workload].setup()
        print("ready", flush=True)
        return 0
    from bench import run_benchmark

    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
