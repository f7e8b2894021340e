"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import workloads
import worker
from tracer import Tracer

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def mods():
    return worker.import_package()


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def _prepared(mods, workload: str, tmp_path: Path, pick=lambda ops: ops[:1]):
    return worker.prepare(pick(workloads.build(workload, 3)), mods, tmp_path)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_one_op_per_workload_reports_every_metric(mods, workload, tmp_path):
    # the first op, plus a library op on defection and a run op after selftest on small_sweep
    pick = {"defection": lambda ops: [ops[0], ops[-1]], "small_sweep": lambda ops: ops[:2]}.get(
        workload, lambda ops: ops[:1])
    prepared = _prepared(mods, workload, tmp_path, pick)
    timed = worker.run_passes(prepared, mods, 1, worker.Reference())
    attempted, failed, messages = worker.failures(timed.passes, prepared)
    assert failed / attempted == 0, messages
    metrics = worker.end_to_end(timed, prepared)["metrics"]
    want = _units("end_to_end")
    del want["setup_s"]  # added by run.py from several set-up processes
    assert {k: u for k, (_, u) in metrics.items()} == want
    assert all(v > 0 for v, _ in metrics.values())

    traced = worker.traced_run(prepared, mods, 1, worker.Reference(), tmp_path / "spans.jsonl")[1]
    assert {k: u for k, (_, u) in traced.items()} == _units("per_layer")
    assert traced["cli.ops"][0] + traced["protocol.branches"][0] + traced["defection.branches"][0] > 0
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_run_py_prints_a_complete_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "defection", "--seed", "4",
         "--seconds", "1", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 7
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units("end_to_end")


def _corrupt_after(real_main, out: Path, edit):
    def main(argv):
        rc = real_main(argv)
        report = json.loads(out.read_text())
        edit(report["transcripts"][5])
        out.write_text(json.dumps(report))
        return rc
    return main


def _flip_correction(t):
    t["corrections"][0] = {"I": "Z", "Z": "I", "X": "Y", "Y": "X"}[t["corrections"][0]]


def _lower_fidelity(t):
    t["fidelity"] = 1.0 - 1e-6


@pytest.mark.parametrize("edit", [_flip_correction, _lower_fidelity])
def test_corrupted_report_is_a_failed_op(mods, tmp_path, monkeypatch, edit):
    (p,) = _prepared(mods, "enumerate", tmp_path)
    assert not worker.run_op(p, mods).problems
    monkeypatch.setattr(mods["cli"], "main", _corrupt_after(mods["cli"].main, p.out, edit))
    result = worker.run_op(p, mods)
    assert result.problems
    attempted, failed, _ = worker.failures([[result]], [p])
    assert (attempted, failed) == (1, 1)


def test_tracer_reports_zero_for_names_a_module_lacks():
    tracer = Tracer({"protocol": types.SimpleNamespace(), "cli": types.SimpleNamespace()})
    tracer.install()
    tracer.uninstall()
    metrics = tracer.metrics(1.0)
    assert metrics["states.measure_bell.calls"] == (0.0, "count")
    assert metrics["protocol.states_calls_per_branch"][0] == 0.0


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 7) == workloads.build(name, 7)
        assert workloads.build(name, 7) != workloads.build(name, 8)


def test_memory_guard(tmp_path, monkeypatch):
    ops = workloads.build("sampled_wide", 1)
    meminfo = tmp_path / "meminfo"
    meminfo.write_text("MemTotal: 8000000 kB\nMemAvailable: 200000 kB\n")
    with pytest.raises(MemoryError, match="MemAvailable"):
        workloads.check_memory(ops, str(meminfo))
    meminfo.write_text("MemTotal: 8000000 kB\nMemAvailable: 4000000 kB\n")
    workloads.check_memory(ops, str(meminfo))

    wide = workloads.Op("run", (7,), 2, "sampled", 1)
    monkeypatch.setitem(workloads.WORKLOADS, "too_wide", (lambda rng: [wide], 1.0, 0))
    with pytest.raises(ValueError, match="24 qubits"):
        workloads.build("too_wide", 1)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "defection", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
