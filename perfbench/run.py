"""semfuse benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in a fresh interpreter with BLAS and OpenMP threads capped
at the number of usable cores, and prints its metrics, one per line with
unit, then the result object as the last line. Without --workload every
workload runs, each in its own interpreter, and the last line merges their
results under "<workload>.<metric>" names. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("online_mapping", "offline_log", "map_readback")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# a run must end within 180 s
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = os.environ.copy()
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = env.get(var, "")
        env[var] = cur if cur.isdigit() and 0 < int(cur) <= nproc else str(nproc)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_one(workload: str, args) -> dict | None:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} did not finish within {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        print(f"error: {workload} exited with code {proc.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"error: {workload} printed no result", file=sys.stderr)
        return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, default=None,
                    help="one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "semfuse", "__init__.py")):
        print(f"error: no semfuse sources under {SRC}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        res = run_one(name, args)
        if res is None:
            return 1
        results[name] = res
    if args.workload:
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items()
                    for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
