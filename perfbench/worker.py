"""Runs one workload in this interpreter and prints its metrics.

Started by run.py, which sets the thread caps and PYTHONPATH; the last line
of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import semfuse
    if not os.path.abspath(semfuse.__file__).startswith(SRC + os.sep):
        print(f"error: semfuse imported from {semfuse.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import numpy
    import scipy

    import workloads
    if args.workload not in workloads.FUNCS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__,
           **{v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}
    print("# env " + json.dumps(env), flush=True)

    out = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(report(args.workload, out)))
    print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def report(workload: str, out: dict) -> list[str]:
    """One line per metric: workload, name, value, unit, note."""
    lines = [f"{workload:<15} {name:<44} {m['value']:>14.6g} {m['unit']:<6} "
             f"{out['notes'].get(name, '')}".rstrip()
             for name, m in out["metrics"].items()]
    lines.append(f"{workload:<15} {'error_rate':<44} {out['error_rate']:>14.6g} ratio  "
                 f"{out['failed']} failed of {out['attempted']} attempted")
    return lines


if __name__ == "__main__":
    sys.exit(main())
