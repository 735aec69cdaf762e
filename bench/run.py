"""qgle benchmark: four batch workloads of the public API, with checks.

    python3 bench/run.py --workload chain --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One run is one fresh process running whole rounds of one workload (a closed
loop with one client) for about ``--seconds`` seconds; every round builds
new inputs from (seed, round), builds the models from config text (setup),
runs the job and checks its outputs against independent references.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--workload all``
runs each workload in its own process and prints a table.  See README.md.
"""

from __future__ import annotations

import os
import sys

# BLAS is pinned before numpy is first imported
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import shutil
import subprocess
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# each workload is the module of the same name in this directory
WORKLOADS = ("chain", "posdep_ensemble", "kernel_sweep", "fordkac_bath")


def import_program():
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    if not (SRC / "qgle" / "__init__.py").is_file():
        raise SystemExit(f"error: program sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import qgle
    if Path(qgle.__file__).resolve().parent != SRC / "qgle":
        raise SystemExit(f"error: imported qgle from {qgle.__file__}, "
                         f"not from {SRC}")


def load_workload(name):
    import importlib
    return importlib.import_module(name)


def run_one(name, seed, seconds, trace):
    """Run one workload in this process; returns the result object."""
    import harness

    workload = load_workload(name)
    run_dir = OUT_DIR / f"run-{name}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    rec = harness.Recorder(run_id=f"{name}-seed{seed}-pid{os.getpid()}")
    try:
        records, problems = harness.run_rounds(
            workload, rec, seed, seconds, "full", str(run_dir), trace)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in problems:
        print(f"CHECK FAILED [{name}] {problem}", file=sys.stderr)
    if trace:
        metrics = harness.per_layer_metrics(records)
        stem = OUT_DIR / f"{name}-seed{seed}"
        harness.write_spans(f"{stem}-spans.json", records)
        table = harness.format_table(name, metrics)
        Path(f"{stem}-layers.txt").write_text(table + "\n", encoding="utf-8")
        print(table)
    else:
        metrics = harness.end_to_end_metrics(records)
    print(f"{name}: {len(records)} rounds, {rec.attempted} operations, "
          f"{rec.failed} failed")
    return {"correct": bool(records) and not problems,
            "attempted": max(rec.attempted, 1), "failed": rec.failed,
            "metrics": metrics}


def run_all(seed, seconds, trace):
    """Each workload in its own process; a table, then a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    print(f"{'workload':<18}{'metric':<22}{'value':>16}  unit")
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited with "
                             f"{proc.returncode}")
        result = json.loads(lines[-1])
        for metric, entry in result["metrics"].items():
            print(f"{name:<18}{metric:<22}{entry['value']:>16.6g}  "
                  f"{entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
        print(f"{name:<18}{'attempted/failed':<22}"
              f"{result['attempted']:>10d}/{result['failed']:<5d}")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        import_program()
        result = run_one(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
