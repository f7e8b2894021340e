#!/usr/bin/env python3
"""Time ``teleportnet`` end to end over a fixed ladder: ``run`` at a range of
shapes, ``selftest``, one ``compare`` sweep and three library calls of the GHZ
baseline, on one or more source trees.

    python3 scripts/ladder.py TREE [TREE ...] --label NAME [NAME ...] [--max-qubits Q] [--skip COMMAND ...]

Every repeat of every command is its own process, with ``TREE/src`` first
on ``PYTHONPATH`` and one BLAS thread (``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to 1).  For each
command and tree the script records the median wall time and max RSS of 5
repeats, every repeat, and the size of the report in bytes (0 for
``selftest`` and the library entries, which write none).  A library entry,
``lib CALL``, is a child ``python -c`` that imports ``teleportnet`` and makes
CALL 20 times at (6,6) with a fixed message.  It prints the ``perf_counter``
time of those 20 calls, and its entry also records the median of that time
per call over the repeats as ``call_s``: free of the interpreter's start-up
and the imports, which are most of a library entry's ``wall_s``.  The
script writes the entries, with ``nproc`` and the package, Python, numpy and
BLAS versions, to ``BENCH_<NAME>.json`` in the current directory, one file
per tree, each labelled by the ``NAME`` in the same place as its tree.

Wall time runs from the start of the process to its exit, so it includes the
interpreter and the import of numpy; max RSS is the kernel's ``ru_maxrss`` of
that one process.  Commands over ``--max-qubits`` (3M + n + 1 qubits for M
message qubits), and those named by ``--skip``, are listed under ``skipped``
and not run: ``run --m 8 --n 1 --enumerate`` peaks at about 2.1 GiB and
``run --m 8 --n 1 --defector 1`` at about 2.4 GiB, while
``run --m 1 --n 22 --seed 1``, as wide, needs no skip.  A shape that
``run`` refuses (exit 2) is listed under ``refused`` with the last line of
its stderr, so that trees which refuse different shapes run the same ladder;
any other failing exit aborts.

Compare trees, for instance ``git archive`` copies of a parent commit and of
a change, by passing them to one run on a quiet host.  Each repeat of a
command runs on every tree in turn, and the tree that goes first rotates
from one round to the next, so drift in the host's load falls on all trees
alike rather than on whichever ran later.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# (``teleportnet`` arguments or ``lib`` and a library call, qubits of the largest state they
# simulate): 3M + n + 1 for ``run`` with M message qubits in all, (2,2)'s 9 for ``selftest``,
# none for ``compare`` and a baseline copy's n + 3 for the library calls
LADDER = [
    ("run --m 1 --n 1 --enumerate", 5),
    ("run --m 2 --n 2 --enumerate", 9),
    ("run --m 3 --n 3 --enumerate", 13),
    ("run --m 4 --n 2 --enumerate", 15),
    ("run --m 3 --n 5 --enumerate", 15),
    ("run --m 5 --n 3 --enumerate", 19),
    ("run --m 6 --n 4 --enumerate", 23),
    ("run --m 8 --n 1 --enumerate", 26),
    ("run --ml 2 3 --n 3 --enumerate", 19),
    ("run --m 3 --n 3 --defector 2", 13),
    ("run --m 4 --n 4 --defector 2", 17),
    ("run --m 5 --n 3 --defector 1", 19),
    ("run --m 5 --n 4 --defector 1", 20),
    ("run --m 6 --n 2 --defector 1", 21),
    ("run --m 6 --n 4 --defector 1", 23),
    ("run --m 8 --n 1 --defector 1", 26),
    ("run --ml 4 4 --n 1 --defector 1", 26),
    ("run --m 5 --n 5 --seed 1", 21),
    ("run --m 7 --n 3 --seed 1", 25),
    ("run --m 6 --n 2 --seed 1", 21),
    ("run --m 1 --n 22 --seed 1", 26),
    ("selftest", 9),
    ("compare --m 1..12 --n 4", 0),
    ("lib run_baseline_ghz(spec, shape)", 9),
    ("lib analyze_baseline_defection(spec, shape, 2)", 9),
    ('lib run_baseline_ghz(spec, shape, "sampled", seed=1)', 9),
]
# the child of a ``lib`` entry: the call, 20 times, at (6,6) with a fixed message, and the seconds they took
LIBRARY = """
import time, numpy as np, teleportnet as tn
spec, shape = tn.MessageSpec.random(6, np.random.default_rng(0)), tn.NetworkShape.single(6, 6)
start = time.perf_counter()
for _ in range({calls}):
    tn.{call}
print(time.perf_counter() - start)
"""
LIBRARY_CALLS = 20
REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
VERSIONS = """
import json, platform, numpy, teleportnet
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"teleportnet": teleportnet.__version__, "python": platform.python_version(),
                  "numpy": numpy.__version__, "blas": f"{blas['name']} {blas.get('version', '')}".strip()}))
"""


def _env(tree: Path) -> dict[str, str]:
    paths = [str(tree / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    env.update({var: "1" for var in THREAD_VARS})
    return env


class Refused(Exception):
    """``run`` exited 2, a configuration error; the message is its stderr's last line."""


def _run_once(argv: list[str], env: dict[str, str]) -> tuple[float, float, int, float | None]:
    """Wall seconds, max RSS in MiB and report bytes (0 for ``selftest`` and ``lib``, which write none)
    of one process, and for ``lib`` the seconds per call that it printed (None for the others)."""
    with tempfile.TemporaryDirectory() as tmp:
        out, err, printed = Path(tmp) / "report.json", Path(tmp) / "stderr.txt", Path(tmp) / "stdout.txt"
        writes = argv[0] not in ("selftest", "lib")
        if argv[0] == "lib":
            cmd = [sys.executable, "-c", LIBRARY.format(call=" ".join(argv[1:]), calls=LIBRARY_CALLS)]
        else:
            cmd = [sys.executable, "-m", "teleportnet.cli", *argv, *(["--out", str(out)] if writes else [])]
        with open(err, "w") as stderr, open(printed, "w") as stdout:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=env, stdout=stdout, stderr=stderr)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode == 2:
            raise Refused((err.read_text().strip().splitlines() or [""])[-1])
        if proc.returncode != 0:
            raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}")
        call = float(printed.read_text()) / LIBRARY_CALLS if argv[0] == "lib" else None
        return wall, usage.ru_maxrss / 1024, out.stat().st_size if writes else 0, call


def ladders(trees: list[Path], labels: list[str], max_qubits: int, skip: list[str]) -> list[dict]:
    """One ladder per tree, run round by round: a round runs one repeat of a command on every tree."""
    envs = [_env(tree) for tree in trees]
    results = [{
        "repeats": REPEATS,
        "nproc": os.cpu_count(),
        "threads": {var: "1" for var in THREAD_VARS},
        "versions": json.loads(subprocess.run([sys.executable, "-c", VERSIONS], env=env, capture_output=True,
                                              text=True, check=True).stdout),
        "shapes": [],
        "skipped": [],
        "refused": [],
    } for env in envs]
    rounds = 0
    for command, qubits in LADDER:
        if qubits > max_qubits or command in skip:
            for result in results:
                result["skipped"].append({"command": command, "qubits": qubits})
            continue
        runs, refused = [[] for _ in trees], {}  # per tree, (wall, rss, bytes, call) of each repeat; why refused
        for _ in range(REPEATS):
            for i in range(rounds, rounds + len(trees)):
                i %= len(trees)
                if i not in refused:
                    try:
                        runs[i].append(_run_once(command.split(), envs[i]))
                    except Refused as exc:
                        refused[i] = str(exc)
            rounds += 1
        for i, result in enumerate(results):
            name = f"{command:34}" + (f" {labels[i]}" if len(trees) > 1 else "")
            if i in refused:
                result["refused"].append({"command": command, "qubits": qubits, "stderr": refused[i]})
                print(f"{name} refused: {refused[i]}", file=sys.stderr)
                continue
            walls, rss, sizes, calls = zip(*runs[i])
            if len(set(sizes)) != 1:
                raise SystemExit(f"{command} wrote reports of {sorted(set(sizes))} bytes")
            result["shapes"].append({
                "command": command,
                "qubits": qubits,
                "wall_s": statistics.median(walls),
                "max_rss_mib": statistics.median(rss),
                "report_bytes": sizes[0],
                "wall_s_runs": [round(w, 4) for w in walls],
                "max_rss_mib_runs": list(rss),
            })
            shape = result["shapes"][-1]
            line = f"{name} {shape['wall_s']:8.3f} s {shape['max_rss_mib']:8.1f} MiB"
            if command.startswith("lib "):
                shape.update(call_s=statistics.median(calls), call_s_runs=[round(c, 6) for c in calls])
                line += f" {shape['call_s'] * 1e3:8.3f} ms/call"
            print(line, file=sys.stderr)
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trees", nargs="+", type=Path, metavar="TREE", help="source trees whose src/ holds teleportnet")
    parser.add_argument("--label", nargs="+", required=True, help="per tree, names its output file BENCH_<LABEL>.json")
    parser.add_argument("--max-qubits", type=int, default=26, help="skip larger shapes (default: 26, none)")
    parser.add_argument("--skip", nargs="+", default=[], metavar="COMMAND", help="skip these ladder commands")
    args = parser.parse_args()
    unknown = sorted(set(args.skip) - {command for command, _ in LADDER})
    if unknown:
        parser.error(f"not ladder commands: {unknown}")
    if len(args.label) != len(args.trees) or len(set(args.label)) != len(args.label):
        parser.error(f"give each of the {len(args.trees)} trees its own label, got {args.label}")
    results = ladders([tree.resolve() for tree in args.trees], args.label, args.max_qubits, args.skip)
    for label, result in zip(args.label, results):
        Path(f"BENCH_{label}.json").write_text(json.dumps({"label": label, **result}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
