"""nnasolve benchmark launcher: time and matrix-vector products to tolerance.

    python3 perfbench/run.py --workload {dense-c06,sparse-c07,mixed-mtx} \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The launcher pins BLAS/OpenMP threads to one,
writes the workload's inputs in a separate process (perfbench/prep.py), then
runs the timed loop in a fresh worker process (perfbench/worker.py) that
imports the package from ./src.  With --trace 0 it prints every end-to-end
metric; with --trace 1 it runs the untraced worker and then a traced one and
prints the per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  Span records of traced runs go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
from workloads import THREAD_PINS, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0  # every child is killed before the run exceeds this


class ChildFailed(Exception):
    pass


def child(script: str, args: list, env: dict, deadline: float) -> None:
    cmd = [sys.executable, str(HERE / script), *map(str, args)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{script} did not finish before the deadline") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{script} exited with code {proc.returncode}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "nnasolve" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'nnasolve'}", file=sys.stderr)
        return 2
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        common = ["--workload", args.workload, "--seed", args.seed, "--dir", work]
        child("prep.py", common, env, deadline)
        worker = [*common, "--seconds", args.seconds]
        child("worker.py", [*worker, "--trace", 0, *(["--probe"] if args.trace else [])], env, deadline)
        plain = json.loads((work / "result-0.json").read_text())
        if args.trace:
            spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
            child("worker.py", [*worker, "--trace", 1, "--spans", spans], env, deadline)
            traced = json.loads((work / "result-1.json").read_text())
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        overhead = traced["metrics"]["run_s"][0] - plain["metrics"]["run_s"][0]
        metrics = dict(traced["layers"])
        metrics["nna.solve_over_step"] = (plain["solve_over_step"], "ratio")
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_frac"] = (overhead / plain["metrics"]["run_s"][0], "fraction")
        result = traced
        correct = plain["correct"] and traced["correct"]
    else:
        metrics = plain["metrics"]
        result = plain
        correct = plain["correct"]

    print(f"env {json.dumps(result['env'], sort_keys=True)}")
    print(
        f"workload {args.workload} seed {args.seed} passes {result['passes']} trace {args.trace}: "
        f"attempted {result['attempted']} solves, failed {result['failed']}, correct {correct}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    if not args.trace:
        for name, (value, unit) in plain["printed"].items():
            print(f"  {name:<40} {value:>16.6g} {unit}  (printed, not bounded)")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
