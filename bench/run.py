"""Benchmark entry point: generate one workload, run it, print the result.

Usage (from the repository root):

    python3 bench/run.py --workload numeric-wide --seed 1 --seconds 30 \
        --trace 0

Generates the workload's inputs from ``--seed`` into a scratch directory
under ``.bench_work/``, runs ``pipeline.py`` on them in a child process,
and prints one JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` its per-layer metrics.  The scratch
directory is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import fxam  # noqa: E402,F401  fail fast outside a checkout of the program

from workloads import GENERATORS  # noqa: E402

WORKER_TIMEOUT = 170
# Input sets drawn per run.  Each pass of the pipeline runs all of them,
# so a run's medians do not rest on the quirks of a single sample (the
# stage-2 solve's iteration count, for one, varies by a factor of two
# from sample to sample).
PARTS = 3
# per-layer figures read from model diagnostics, omitted when absent
OPTIONAL = {"training.sampling_s", "training.sample_size"}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=GENERATORS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as h:
        spec = json.load(h)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    workdir = os.path.join(
        ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}"
    )
    try:
        start = time.perf_counter()
        for part in range(PARTS):
            workload = GENERATORS[args.workload](args.seed, part)
            workload.write(os.path.join(workdir, f"part{part}"))
        generate_s = time.perf_counter() - start
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "pipeline.py"),
             "--dir", workdir, "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT, check=True,
            text=True,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = json.loads(done.stdout.strip().splitlines()[-1])
    if result["step_failures"]:
        print(f"failed steps: {', '.join(result['step_failures'])}")
    if not result["rounds"]:
        raise SystemExit(f"no round of {args.workload} ran to its end")
    measured = result["metrics"]
    missing = sorted(set(units) - set(measured) - OPTIONAL)
    if missing or not set(measured) <= set(units):
        extra = sorted(set(measured) - set(units))
        raise SystemExit(
            f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"unlisted {extra}"
        )
    print(
        f"workload {args.workload} seed {args.seed}: "
        f"{PARTS} x {workload.n_records} records, generated in "
        f"{generate_s:.2f} s, {result['rounds']} round(s)"
    )
    if result["check_failures"]:
        print(f"failed checks: {', '.join(result['check_failures'])}")
    names = [name for name in units if name in measured]
    for name in names:
        print(f"  {name:36s} {measured[name]:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": measured[name], "unit": units[name]}
            for name in names
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
