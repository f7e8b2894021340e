"""teleportnet benchmark: one workload per invocation, in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The full record, with the environment, is also written to
``perfbench/.work/results/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3  # fresh processes whose set-up time is measured; the median is reported
BUDGET_S = 170.0


def spawn(args, extra: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process and return its JSON line."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    # one BLAS thread unless the caller chose otherwise: the load is one
    # client on one thread, and a second BLAS thread competes for the other core
    env = {**{v: "1" for v in BLAS_VARS}, **os.environ}
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="teleportnet benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    try:
        setups = [] if args.trace else [
            spawn(args, ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        result = spawn(args, [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups + [result["setup_s"]]), "unit": "s"}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": result["env"], "details": result["details"], "failures": result["failures"],
        "error_rate": result["failed"] / result["attempted"], "metrics": metrics,
    }
    out_dir = HERE / ".work" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for message in result["failures"]:
        print(f"FAILED {message}")
    print(f"workload {args.workload} seed {args.seed}: {result['attempted']} ops, "
          f"error_rate {record['error_rate']:.4g}; {json.dumps(result['details'])}")
    for name, m in metrics.items():
        note = ""
        if name == "op_tail_s":
            note = f" (p{result['details']['op_tail_percentile']} of {result['details']['ops']} ops)"
        print(f"  {name} = {m['value']:.6g} {m['unit']}{note}")
    print("env " + json.dumps(result["env"]))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
