"""One workload in one fresh process: set up, run the timed passes, check
every output, and print the metrics as one JSON line.

Usage (normally started by run.py):
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        [--spawned-at MONOTONIC] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from checks import (
    baseline_defection_problems,
    baseline_problems,
    compare_problems,
    defection_problems,
    protocol_problems,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
MODULES = ("states", "resources", "protocol", "defection", "accounting", "cli")


def import_package() -> dict:
    """Import teleportnet from this checkout's ``src`` and return its modules."""
    src = ROOT / "src"
    if not (src / "teleportnet" / "__init__.py").is_file():
        raise FileNotFoundError(f"no teleportnet sources under {src}")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"teleportnet.{name}") for name in MODULES}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(src):
        raise ImportError(f"teleportnet was imported from {mods['cli'].__file__}, not {src}")
    return mods


@dataclass
class OpResult:
    seconds: float
    records: int = 0  # branch records: transcripts, defection branches, baseline transcripts
    report_bytes: int = 0
    problems: list[str] = field(default_factory=list)


@dataclass
class Prepared:
    op: workloads.Op
    argv: list[str] | None = None  # CLI ops
    out: Path | None = None
    args: tuple = ()  # library ops
    kwargs: dict = field(default_factory=dict)


def prepare(ops: list[workloads.Op], mods: dict, workdir: Path) -> list[Prepared]:
    """Write the --spec files and build the library inputs; nothing is timed."""
    res = mods["resources"]
    prepared = []
    for i, op in enumerate(ops):
        out = workdir / f"out{i}.json"
        if op.call == "run":
            spec = {
                "ml": list(op.counts), "n": op.agents, "mode": op.mode,
                "messages": {"kind": "explicit", "amplitudes": [
                    [[a.real, a.imag], [b.real, b.imag]] for a, b in op.amps]},
            }
            if op.seed is not None:
                spec["seed"] = op.seed
            if op.defector is not None:
                spec["defector"] = op.defector
            path = workdir / f"spec{i}.json"
            path.write_text(json.dumps(spec))
            prepared.append(Prepared(op, ["run", "--spec", str(path), "--out", str(out)], out))
        elif op.call == "compare":
            argv = ["compare", "--n", str(op.agents), "--out", str(out)]
            if op.m_range:
                argv += ["--m", f"{op.m_range[0]}..{op.m_range[1]}"]
            else:
                argv += ["--ml", *map(str, op.counts)]
            prepared.append(Prepared(op, argv, out))
        elif op.call == "selftest":
            prepared.append(Prepared(op, ["selftest"]))
        else:
            spec = res.MessageSpec(op.amps)
            shape = res.NetworkShape.single(op.counts[0], op.agents)
            if op.call == "run_baseline_ghz":
                kwargs = {"seed": op.seed} if op.mode == "sampled" else {}
                prepared.append(Prepared(op, args=(spec, shape, op.mode), kwargs=kwargs))
            else:
                prepared.append(Prepared(op, args=(spec, shape, op.defector - 1)))
    return prepared


def _transcript(t) -> dict:
    return {
        "receiver": t.receiver, "message_index": t.message_index,
        "bell_outcomes": [o.value for o in t.bell_outcomes], "agent_bits": list(t.agent_bits),
        "sender_ghz_bit": t.sender_ghz_bit, "corrections": [c.value for c in t.corrections],
        "fidelity": t.fidelity, "branch_probability": t.branch_probability,
    }


def _defection_branch(r) -> dict:
    return {
        "message_index": r.message_index, "probability": r.probability,
        "bell_outcomes": [o.value for o in r.bell_outcomes], "cooperator_bits": list(r.cooperator_bits),
        "off_diagonal_norm": r.off_diagonal_norm,
        "per_qubit": [
            {"diag": [float(d.matrix[0, 0].real), float(d.matrix[1, 1].real)], "max_recovery_fidelity": f}
            for d, f in zip(r.per_qubit_density, r.max_fidelity)
        ],
    }


def _check_report(op: workloads.Op, report: dict) -> tuple[int, list[str]]:
    if op.call == "compare":
        ms = list(range(op.m_range[0], op.m_range[1] + 1)) if op.m_range else None
        return 0, compare_problems(report, op.agents, ms, op.counts)
    if op.defector is not None:
        branches = report["branches"]
        return len(branches), defection_problems(branches, list(op.amps), op.agents)
    transcripts = report["transcripts"]
    return len(transcripts), protocol_problems(transcripts, op.counts, op.agents, op.mode == "enumerate")


def run_op(p: Prepared, mods: dict) -> OpResult:
    """Run one op, timed, then check its output (untimed)."""
    op = p.op
    try:
        if p.argv is not None:
            if p.out is not None and p.out.exists():
                p.out.unlink()
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                rc = mods["cli"].main(list(p.argv))
                dt = time.perf_counter() - t0
            if rc != 0:
                return OpResult(dt, problems=[f"exit code {rc}"])
            if p.out is None:
                return OpResult(dt)
            size = p.out.stat().st_size
            with open(p.out) as fh:
                records, problems = _check_report(op, json.load(fh))
            return OpResult(dt, records, size, problems)
        fn_mod = mods["protocol"] if op.call == "run_baseline_ghz" else mods["defection"]
        t0 = time.perf_counter()
        result = getattr(fn_mod, op.call)(*p.args, **p.kwargs)
        dt = time.perf_counter() - t0
    except Exception as exc:  # an op that raises counts as failed; the loop goes on
        return OpResult(0.0, problems=[f"{type(exc).__name__}: {exc}"])
    m, n = op.counts[0], op.agents
    if op.call == "run_baseline_ghz":
        problems = baseline_problems([_transcript(t) for t in result], m, n, op.mode == "enumerate")
    else:
        problems = baseline_defection_problems([_defection_branch(r) for r in result], list(op.amps), n)
    return OpResult(dt, len(result), 0, problems)


class Reference:
    """A fixed kernel that does not use teleportnet: interpreter work, small
    numpy ops and elementwise passes over a 4 MiB array, about 16 ms at
    nominal speed, plus one in-place pass over ``stream_mib`` MiB for
    workloads whose state vectors are that large. It calls no BLAS routine,
    whose threads would make it depend on whether the other core is free.

    On a shared host, speed drifts by 10 to 40% over minutes, and every kind
    of op drifts together. Timing this kernel between ops and scaling op times by
    ``nominal_s / median kernel time`` removes most of that drift. Timed
    metrics are therefore seconds at the speed where the kernel takes
    ``nominal_s``.
    """

    def __init__(self, stream_mib: int = 0):
        import numpy as np

        self.np = np
        self.small = np.ones(1 << 12, dtype=np.complex128)
        self.big = np.ones(1 << 18, dtype=np.complex128)
        self.out = np.empty_like(self.big)
        self.stream = np.ones(stream_mib << 16, dtype=np.complex128)
        self.nominal_s = REFERENCE_S + STREAM_S_PER_MIB * stream_mib

    def __call__(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(60000):
            table[i % 97] = acc = (acc + i * i) % 1000003
        a = self.small
        for _ in range(400):
            a = (a.reshape(-1, 2, 64) * 0.999).reshape(-1)
            float(np.sum(np.abs(a) ** 2))
        for _ in range(6):
            np.multiply(self.big, 0.5, out=self.out)
        np.multiply(self.stream, 1.0, out=self.stream)
        return time.perf_counter() - t0


REFERENCE_S = 0.016
STREAM_S_PER_MIB = 0.00012
REFERENCE_EVERY_S = 0.5  # op time between two timings of the reference kernel


@dataclass
class Timed:
    passes: list[list[OpResult]]
    scale: float  # nominal / median time of the reference kernel during these passes
    samples: int


def run_passes(prepared: list[Prepared], mods: dict, count: int, reference: Reference, tracer=None) -> Timed:
    passes, ref, since = [], [], 0.0
    for _ in range(count):
        results = []
        for p in prepared:
            if tracer is not None:
                tracer.op += 1
            results.append(run_op(p, mods))
            since += results[-1].seconds
            if since >= REFERENCE_EVERY_S:
                ref.append(reference())
                since = 0.0
        passes.append(results)
    if not ref:
        ref.append(reference())
    return Timed(passes, reference.nominal_s / statistics.median(ref), len(ref))


def end_to_end(timed: Timed, prepared: list[Prepared]) -> dict:
    """Timed metrics over complete passes, plus the details printed beside them."""
    scaled = [[r.seconds * timed.scale for r in p] for p in timed.passes]
    times = sorted(t for p in scaled for t in p)
    n = len(times)
    # highest percentile with at least ten ops beyond it (the maximum if n <= 10)
    tail_index = n - 11 if n > 10 else n - 1
    total = sum(times)
    records = sum(r.records for p in timed.passes for r in p)
    by_label: dict[str, list[float]] = {}
    for p in scaled:
        for op, t in zip(prepared, p):
            by_label.setdefault(op.op.label(), []).append(t)
    return {
        "metrics": {
            "wall_s": (statistics.median(sum(p) for p in scaled), "s"),
            "branches_per_s": (records / total if total else 0.0, "1/s"),
            "op_p50_s": (statistics.median(times), "s"),
            "op_tail_s": (times[tail_index], "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        },
        "details": {
            "ops": n, "passes": len(timed.passes), "branch_records": records,
            "op_tail_percentile": round(100.0 * (tail_index + 1) / n, 2),
            "speed_scale": timed.scale, "reference_samples": timed.samples,
            "op_median_s": {label: statistics.median(ts) for label, ts in by_label.items()},
        },
    }


def traced_run(prepared: list[Prepared], mods: dict, count: int, reference: Reference, spans_path: Path):
    """Untraced passes to compare against, one pass under tracemalloc for the
    layers' peak bytes, then passes with spans only, which give the per-layer
    times (tracemalloc slows allocation-heavy Python several times over)."""
    from tracer import Tracer

    half = max(1, count // 2)
    untraced = run_passes(prepared, mods, half, reference)
    tracer = Tracer(mods)
    tracer.install()
    try:
        tracemalloc.start()
        try:
            memory = run_passes(prepared, mods, 1, reference, tracer)
        finally:
            tracemalloc.stop()
        tracer.reset()
        traced = run_passes(prepared, mods, half, reference, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(sum(r.seconds for p in traced.passes for r in p))
    report_bytes = sum(r.report_bytes for p in traced.passes for r in p)
    cli_self = metrics["cli.self_s"][0]
    metrics["cli.report_bytes"] = (float(report_bytes), "B")
    metrics["cli.report_bytes_per_s"] = (report_bytes / cli_self if cli_self else 0.0, "B/s")
    wall = {name: end_to_end(t, prepared)["metrics"]["wall_s"][0] for name, t in (("on", traced), ("off", untraced))}
    metrics["trace.overhead"] = (wall["on"] / wall["off"], "ratio")
    tracer.write(spans_path)
    return untraced.passes + memory.passes + traced.passes, metrics


def failures(passes: list[list[OpResult]], prepared: list[Prepared]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    messages = []
    for results in passes:
        for p, r in zip(prepared, results):
            attempted += 1
            if r.problems:
                failed += 1
                if len(messages) < 5:
                    messages.append(f"{p.op.label()}: {'; '.join(r.problems[:3])}")
    return attempted, failed, messages


def environment() -> dict:
    import numpy

    def read(path):
        try:
            with open(path) as fh:
                return fh.read()
        except OSError:
            return ""

    cpu = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    mem = next((line.split(":", 1)[1].strip() for line in read("/proc/meminfo").splitlines()
                if line.startswith("MemTotal")), "")
    head = read(ROOT / ".git" / "HEAD").strip()
    commit = read(ROOT / ".git" / head[5:]).strip() if head.startswith("ref: ") else head
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu, "mem_total": mem, "git_commit": commit or "unknown",
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, help="time.monotonic() when the parent started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    started = args.spawned_at if args.spawned_at is not None else time.monotonic()

    try:
        mods = import_package()
    except (ImportError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed)
    try:
        workloads.check_memory(ops)
    except MemoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        prepared = prepare(ops, mods, workdir)
        smallest = next(p for p in prepared if p.op is workloads.warm_up(ops))
        warm = run_op(smallest, mods)
        if warm.problems:
            print(f"error: warm-up op {smallest.op.label()} failed: {warm.problems[:3]}", file=sys.stderr)
            return 1
        setup_s = time.monotonic() - started
        reference = Reference(workloads.WORKLOADS[args.workload][2])
        setup_s *= reference.nominal_s / statistics.median(reference() for _ in range(5))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        count = workloads.passes_for(args.workload, args.seconds)
        out = {"setup_s": setup_s, "env": environment()}
        if args.trace:
            spans = WORK / f"trace-{args.workload}.jsonl"
            all_passes, metrics = traced_run(prepared, mods, count, reference, spans)
            out["details"] = {"spans_file": str(spans)}
        else:
            timed = run_passes(prepared, mods, count, reference)
            all_passes = timed.passes
            e2e = end_to_end(timed, prepared)
            metrics, out["details"] = e2e["metrics"], e2e["details"]
        attempted, failed, messages = failures(all_passes, prepared)
        out.update(attempted=attempted, failed=failed, failures=messages,
                   metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
