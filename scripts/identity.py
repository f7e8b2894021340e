#!/usr/bin/env python3
"""Hash the results of one source tree, or compare two trees' hashes.

    python3 scripts/identity.py TREE [--out FILE]
    python3 scripts/identity.py --diff A B

The first form imports ``teleportnet`` from ``TREE/src`` and writes one JSON
object of SHA-256 hashes, one per result group, to FILE or stdout.  Outcome
columns (Bell outcomes, bits, corrections, branches, diagonal forms, copy
indices) and float columns (probabilities, fidelities, density matrices)
are hashed as separate groups, so a change in the last bit of a float shows
apart from a changed branch.  Floats are hashed by ``float.hex``, and arrays
and ``bytes`` values by their raw buffers, an array's in C order after its
dtype and shape.  The groups cover:

- enumerate and sampled transcripts at 40 seeds, each in the natural event
  order with the ``hadamard_z`` agent basis and in a permuted event order
  with ``plus_minus``
- defection reports at every defector
- the GHZ baseline (enumerate and sampled) and its defection at every
  defector
- ``entangled_info_check``, and apart from it the check at 8 and 18 agents
  for three messages
- every branch and every defector of the message ``MessageSpec.random(3,
  default_rng(0))`` with four agents
- the recovery search at the benchmark's defection shapes: defection
  reports at (3,3) with defector 2, (2,4) with defector 1 and ``ml=(1,2)``,
  n = 3, defector 3, and the baseline's at (6,6) with defector 3, each at
  three message seeds, with the baseline's enumerate and sampled transcripts
  at (6,6) for the same messages; the baseline's enumerate and sampled (three
  seeds) transcripts and its defection at every defector at (12,) with four
  agents and at (20,) with two, whose one pass holds 12 and 20 copies;
  ``max_recovery_fidelity`` on 200 single operators
  with the default grid and with grids of 1, 2 and 3 unitaries; the bytes of
  the default grid and of its 24 Cliffords alone
- the defection table over random kept rows of 65 and 129 branches, so that
  every received qubit leaves one distinct operator alone in its last block
  of the search, with the one-unitary grid and the default one
- the report bytes and exit code of every stored-report CLI command and of
  ``run --m 4 --n 4 --defector 2``, ``run --m 5 --n 2 --defector 1`` and
  ``run --m 6 --n 4 --defector 1`` (118 MB); and the report as printed to
  stdout of a sampled, a multi-receiver enumerate and a defection run, and
  the stdout and exit code of ``selftest``
- sampled transcripts of 280 random messages, 10 at each of the shapes
  (1..3,), (1,1), (1,2), (2,1) and (1,1,1) with 1 to 4 agents, each in a
  permuted event order; of the benchmark's three 21-qubit sampled shapes at
  three seeds; and of the widest sampled shapes, (1,22) and (2,19), whose
  control resource has 25 qubits, at three seeds
- the executor's enumerate output, the bytes of ``(outcomes, probs,
  kept)``, at the shapes of ``EXECUTOR_ENUMERATE``, with and without a
  defector
- every receiver's fidelities of enumerate runs at the shapes of
  ``CORRUPTED``, each under three random wrong correction tables
- the control resource's amplitude bytes at every single-receiver shape
  that ``run`` admits with at most 22 resource qubits, and at the shapes
  of ``RESOURCE_MULTI``

The second form compares two hash files, or two trees (each hashed in its
own process), prints the first group that differs and every other one, and
exits 1 if any differs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import enum
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = range(40)
# (message counts, agents), cycled over the seeds
SHAPES = [((1,), 1), ((2,), 2), ((3,), 1), ((1,), 3), ((1, 1), 2), ((1, 2), 1), ((2, 1), 2), ((1, 1, 1), 1)]
# the commands whose reports tests/data stores; {data} is TREE/tests/data
CLI_COMMANDS = [
    "run --m 2 --n 1 --defector 1",
    "run --m 2 --n 1 --enumerate",
    "compare --n 2 --m 1..6",
    "compare --k 2 --ml 1 --n 2",
    "run --ml 2 1 --n 2 --seed 9",
    "run --m 2 --n 2 --seed 5",
    "run --spec {data}/spec_hostile_strings.json",
    "run --ml 1 2 --n 2 --enumerate",
    "run --ml 1 2 --n 3 --defector 3",
    "run --spec {data}/spec_preset_zero_defector.json",
    "run --m 5 --n 5 --seed 3",
    "run --ml 2 3 --n 5 --seed 4",
]
# the largest defection report the benchmark ladder writes (5 MiB), one of 4,096 branches whose 2x2
# marginals take few distinct values (6 MiB), and one of 118 MB
LARGE_CLI_COMMANDS = ["run --m 4 --n 4 --defector 2", "run --m 5 --n 2 --defector 1", "run --m 6 --n 4 --defector 1"]
# commands whose output is hashed as written to stdout, without --out: three reports and the self-test's lines
STDOUT_COMMANDS = ["run --m 2 --n 2 --seed 5", "run --ml 1 2 --n 2 --enumerate", "run --ml 1 2 --n 3 --defector 3",
                   "selftest"]
# (message counts, agents, 1-based defector) of the benchmark's defection runs
BENCH_DEFECTIONS = [((3,), 3, 2), ((2,), 4, 1), ((1, 2), 3, 3)]
# message counts of the sampled random-message group, each with 1 to 4 agents
SAMPLED_COUNTS = [(1,), (2,), (3,), (1, 1), (1, 2), (2, 1), (1, 1, 1)]
SAMPLED_MESSAGES = 10
# (message qubits, agents) of the GHZ baseline beyond the benchmark's (6,6): many copies in one pass
BASELINE_COPIES = [(12, 4), (20, 2)]
# (message counts, agents) of the benchmark's sampled runs, 21 qubits each
BENCH_SAMPLED = [((5,), 5), ((6,), 2), ((2, 3), 5)]
# (message counts, agents) of sampled runs with the widest control resource that ``run`` admits
WIDE_SAMPLED = [((1,), 22), ((2,), 19)]
# (message counts, agents, 1-based defector or None) of the executor group
EXECUTOR_ENUMERATE = [((2,), 5, None), ((3,), 3, None), ((1, 2), 2, None), ((2,), 4, None), ((4,), 4, None),
                      ((5,), 3, None), ((3,), 5, None), ((4,), 4, 1), ((1, 1, 1), 5, 3), ((6,), 4, None),
                      ((6,), 4, 1), ((8,), 1, None), ((8,), 1, 1)]
# (message counts, agents) of the enumerate runs with corrupted correction tables
CORRUPTED = [((3,), 2), ((1, 2), 2)]
# largest resource of the control group (64 MiB), and its multi-receiver shapes
RESOURCE_QUBITS = 22
RESOURCE_MULTI = [((2, 3), 5), ((1, 1, 1), 4)]


class Group:
    """A running hash of one result group.  Each ``add`` hashes ``repr`` of its values' structure,
    then the raw buffers of the arrays and ``bytes`` values in it, in the order they stand there."""

    def __init__(self):
        self.h = hashlib.sha256()

    def add(self, *values) -> None:
        buffers = []
        self.h.update(repr([_canonical(v, buffers) for v in values]).encode())
        for buffer in buffers:
            self.h.update(buffer)

    def hexdigest(self) -> str:
        return self.h.hexdigest()


def _canonical(v, buffers: list):
    """Enums by value, floats by ``float.hex``, density matrices by their matrix, dataclasses by
    their fields.  An array (in C order) or a ``bytes`` value is appended to ``buffers`` and stands
    as its dtype, shape and position there, or as ``bytes``, its length and position: a dtype's and
    a type's ``repr`` are no str's, int's or tuple's, so no other value reads the same."""
    import numpy as np

    from teleportnet import DensityMatrix

    if isinstance(v, enum.Enum):
        return v.value
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, DensityMatrix):
        v = v.matrix
    if isinstance(v, np.ndarray):
        buffers.append(np.ascontiguousarray(v))
        return (v.dtype, v.shape, len(buffers) - 1)
    if isinstance(v, bytes):
        buffers.append(v)
        return (bytes, len(v), len(buffers) - 1)
    if isinstance(v, (tuple, list)):
        return tuple(_canonical(x, buffers) for x in v)
    if dataclasses.is_dataclass(v):
        return tuple(_canonical(getattr(v, f.name), buffers) for f in dataclasses.fields(v))
    return v


def _transcripts(groups: dict, name: str, branches) -> None:
    """Per receiver transcript of each branch: outcome and float columns."""
    out, floats = groups.setdefault(f"{name}.outcomes", Group()), groups.setdefault(f"{name}.floats", Group())
    for branch in branches:
        for t in branch:
            out.add(t.receiver, t.bell_outcomes, t.agent_bits, t.sender_ghz_bit, t.branch,
                    t.corrections, t.classical_messages, t.message_index)
            floats.add(t.fidelity, t.branch_probability)


def _defection(groups: dict, name: str, reports) -> None:
    out, floats = groups.setdefault(f"{name}.outcomes", Group()), groups.setdefault(f"{name}.floats", Group())
    for r in reports:
        out.add(r.defector, r.bell_outcomes, r.cooperator_bits, r.conforms_to, r.message_index)
        floats.add(r.probability, r.joint_density, r.per_qubit_density, r.off_diagonal_norm, r.max_fidelity)


def _sampled(specs, shape, seed: int, **kwargs) -> tuple:
    """The drawn branch of a sampled run: one transcript per receiver."""
    import teleportnet as tn

    if len(specs) > 1:
        return tn.run_multi_receiver(specs, shape, "sampled", seed=seed, **kwargs)
    return (tn.run_controlled_teleport(specs[0], shape, "sampled", seed=seed, **kwargs),)


def hash_tree(tree: Path) -> dict[str, str]:
    sys.path.insert(0, str(tree / "src"))
    import numpy as np

    import teleportnet as tn
    from teleportnet.cli import main as cli_main

    if not Path(tn.__file__).resolve().is_relative_to((tree / "src").resolve()):
        raise SystemExit(f"imported teleportnet from {tn.__file__}, not from {tree / 'src'}")

    groups: dict[str, Group] = {}
    for seed in SEEDS:
        counts, agents = SHAPES[seed % len(SHAPES)]
        shape = tn.NetworkShape(counts, agents)
        rng = np.random.default_rng(seed)
        specs = [tn.MessageSpec.random(m, rng) for m in counts]
        events = tn.protocol_events(shape)
        permuted = [events[i] for i in rng.permutation(len(events))]

        def run(mode, **kwargs):
            if len(counts) > 1:
                out = tn.run_multi_receiver(specs, shape, mode, seed=seed, **kwargs)
                return out if mode == "enumerate" else [out]
            out = tn.run_controlled_teleport(specs[0], shape, mode, seed=seed, **kwargs)
            return [(t,) for t in out] if mode == "enumerate" else [(out,)]

        for mode in ("enumerate", "sampled"):
            _transcripts(groups, f"{mode}.natural", run(mode))
            _transcripts(groups, f"{mode}.permuted_plus_minus",
                         run(mode, event_order=permuted, agent_basis="plus_minus"))
        for d in range(agents):
            _defection(groups, "defection", tn.analyze_defection(specs, shape, d))

        spec = tn.MessageSpec(tuple(q for s in specs for q in s.qubits))
        single = tn.NetworkShape.single(len(spec), agents)
        for mode in ("enumerate", "sampled"):
            _transcripts(groups, f"baseline.{mode}", [(t,) for t in tn.run_baseline_ghz(spec, single, mode, seed=seed)])
        for d in range(agents):
            _defection(groups, "baseline_defection", tn.analyze_baseline_defection(spec, single, d))

        pair = tn.MessageSpec.random(2, rng)
        c = tn.entangled_info_check(pair, tn.NetworkShape.single(2, 1 + seed % 3))
        groups.setdefault("entangled_info_check.floats", Group()).add(
            c.plus_probability, c.plus_fidelity, c.minus_probability, c.minus_fidelity)

    # a message whose laid-out initial state once differed from the
    # transposed product in the last bit of 64 amplitudes
    falsifier, shape = tn.MessageSpec.random(3, np.random.default_rng(0)), tn.NetworkShape.single(3, 4)
    _transcripts(groups, "falsifier.enumerate", [(t,) for t in tn.run_controlled_teleport(falsifier, shape)])
    for d in range(shape.num_agents):
        _defection(groups, "falsifier.defection", tn.analyze_defection(falsifier, shape, d))

    for seed in range(3):
        for counts, agents, defector in BENCH_DEFECTIONS:
            rng = np.random.default_rng(seed)
            specs = [tn.MessageSpec.random(m, rng) for m in counts]
            reports = tn.analyze_defection(specs, tn.NetworkShape(counts, agents), defector - 1)
            _defection(groups, f"bench.defection[{counts} n={agents} defector={defector}]", reports)
        spec = tn.MessageSpec.random(6, np.random.default_rng(seed))
        reports = tn.analyze_baseline_defection(spec, tn.NetworkShape.single(6, 6), 2)
        _defection(groups, "bench.baseline_defection[(6,) n=6 defector=3]", reports)
        for mode in ("enumerate", "sampled"):
            transcripts = tn.run_baseline_ghz(spec, tn.NetworkShape.single(6, 6), mode, seed=seed)
            _transcripts(groups, f"bench.baseline.{mode}[(6,) n=6]", [(t,) for t in transcripts])

    for m, agents in BASELINE_COPIES:
        spec, shape = tn.MessageSpec.random(m, np.random.default_rng(m)), tn.NetworkShape.single(m, agents)
        name = f"baseline.copies[({m},) n={agents}]"
        _transcripts(groups, f"{name}.enumerate", [(t,) for t in tn.run_baseline_ghz(spec, shape)])
        for seed in range(3):
            sampled = tn.run_baseline_ghz(spec, shape, "sampled", seed=seed)
            _transcripts(groups, f"{name}.sampled", [(t,) for t in sampled])
        for d in range(agents):
            _defection(groups, f"{name}.defection", tn.analyze_baseline_defection(spec, shape, d))

    # sampled draws, which measure only the state's support
    rng = np.random.default_rng(13)
    for counts in SAMPLED_COUNTS:
        for agents in range(1, 5):
            shape = tn.NetworkShape(counts, agents)
            events = tn.protocol_events(shape)
            for _ in range(SAMPLED_MESSAGES):
                specs = [tn.MessageSpec.random(m, rng) for m in counts]
                order = [events[i] for i in rng.permutation(len(events))]
                branch = _sampled(specs, shape, int(rng.integers(2**31)), event_order=order)
                _transcripts(groups, "sampled.random_messages", [branch])
    for counts, agents in BENCH_SAMPLED:
        for seed in range(3):
            specs = [tn.MessageSpec.random(m, np.random.default_rng(seed)) for m in counts]
            _transcripts(groups, f"sampled.bench[{counts} n={agents}]",
                         [_sampled(specs, tn.NetworkShape(counts, agents), seed)])
    for counts, agents in WIDE_SAMPLED:
        for seed in range(3):
            specs = [tn.MessageSpec.random(m, np.random.default_rng(seed)) for m in counts]
            _transcripts(groups, f"sampled.wide[{counts} n={agents}]",
                         [_sampled(specs, tn.NetworkShape(counts, agents), seed)])

    # the entangled-information check on networks wide enough that keeping every GHZ qubit shows
    groups["entangled_info_check.wide"] = group = Group()
    for seed in range(3):
        pair = tn.MessageSpec.random(2, np.random.default_rng(seed))
        for agents in (8, 18):
            c = tn.entangled_info_check(pair, tn.NetworkShape.single(2, agents))
            group.add(c.plus_probability, c.plus_fidelity, c.minus_probability, c.minus_fidelity)

    # every branch straight from the executor, which rotates only the support
    from teleportnet.protocol import _network_branches

    for counts, agents, defector in EXECUTOR_ENUMERATE:
        specs = [tn.MessageSpec.random(m, np.random.default_rng(7)) for m in counts]
        groups[f"executor.enumerate[{counts} n={agents} defector={defector}]"] = group = Group()
        # unnamed, so that each shape's arrays are freed before the next shape is measured
        group.add(*_network_branches(specs, tn.NetworkShape(counts, agents),
                                     defector=None if defector is None else defector - 1))

    # every receiver's fidelities under random wrong correction tables, so that most are far from 1
    from teleportnet.protocol import _network_table

    paulis = list(tn.PauliOp)
    groups["corrupted_tables.floats"] = group = Group()
    for counts, agents in CORRUPTED:
        rng = np.random.default_rng(21)
        specs = [tn.MessageSpec.random(m, rng) for m in counts]
        for _ in range(3):
            picks = rng.integers(4, size=(4, 2)).tolist()
            table = {o: (paulis[i], paulis[j]) for o, (i, j) in zip(tn.BellOutcome, picks)}
            group.add(_network_table(specs, tn.NetworkShape(counts, agents), "enumerate", None, table=table).fids)

    # the control resource
    from teleportnet.cli import MAX_TOTAL_QUBITS

    groups["resources.control"] = group = Group()
    single = [((m,), n) for m in range(1, MAX_TOTAL_QUBITS) for n in range(1, MAX_TOTAL_QUBITS)
              if 3 * m + n + 1 <= MAX_TOTAL_QUBITS and 2 * m + n + 1 <= RESOURCE_QUBITS]
    for counts, agents in single + RESOURCE_MULTI:
        state, _ = tn.prepare_control_resource(tn.NetworkShape(counts, agents))
        group.add(counts, agents, state.amplitudes)
        del state

    # single operators: the search must not round a lone operator apart
    rng = np.random.default_rng(0)
    z = rng.standard_normal((200, 2, 2)) + 1j * rng.standard_normal((200, 2, 2))
    rhos = z @ z.conj().transpose(0, 2, 1)
    rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
    targets = rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2))
    small = tn.recovery_unitaries(num_random=3, seed=1)
    grids = {"default": tn.recovery_unitaries(), "1": small[-1:], "2": small[-2:], "3": small[-3:]}
    for name, us in grids.items():
        groups[f"max_recovery_fidelity[{name}].floats"] = group = Group()
        group.add([tn.max_recovery_fidelity(rho, t, us) for rho, t in zip(rhos, targets)])
    # the grid itself, so that a change to its matrices shows apart from the fidelities they give
    groups["recovery_grid"] = group = Group()
    group.add(tn.recovery_unitaries(), tn.recovery_unitaries(num_random=0, seed=0))

    # defection tables whose every received qubit has 65 or 129 distinct operators, one alone in its last block
    from teleportnet.defection import _defection_table

    groups["defection_table.blocks"] = group = Group()
    rng = np.random.default_rng(42)
    for branches in (65, 129):
        for total in (1, 2):
            kept = rng.standard_normal((branches, 2 << total)) + 1j * rng.standard_normal((branches, 2 << total))
            kept /= np.linalg.norm(kept, axis=1, keepdims=True)
            qubits = [tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2)) for _ in range(total)]
            for us in (small[-1:], tn.recovery_unitaries()):
                t = _defection_table(np.zeros((branches, 0), int), np.ones(branches) / branches, kept, qubits, us)
                group.add(t.best, t.off, [ops for ops, _ in t.operators])

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        for command in CLI_COMMANDS + LARGE_CLI_COMMANDS:
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
                code = cli_main(command.format(data=tree / "tests" / "data").split() + ["--out", str(out)])
            groups[f"cli[{command}]"] = group = Group()
            group.add(code, printed.getvalue(), out.read_bytes() if out.exists() else b"")
            out.unlink(missing_ok=True)
    for command in STDOUT_COMMANDS:
        printed, errors = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(errors):
            code = cli_main(command.split())
        groups[f"cli.stdout[{command}]"] = group = Group()
        group.add(code, printed.getvalue(), errors.getvalue())
    return {name: g.hexdigest() for name, g in groups.items()}


def _load(path: Path) -> dict[str, str]:
    """The hashes in a file written by this script, or those of a tree."""
    if path.is_dir():
        proc = subprocess.run([sys.executable, __file__, str(path)], capture_output=True, text=True, check=True)
        return json.loads(proc.stdout)
    return json.loads(path.read_text())


def _differing(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """The groups, in A's order and then B's, whose hashes differ or that only one side has."""
    return [name for name in list(a) + [n for n in b if n not in a] if a.get(name) != b.get(name)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("tree", nargs="?", type=Path, help="source tree whose src/ holds teleportnet")
    parser.add_argument("--out", type=Path, help="hash file (default: stdout)")
    parser.add_argument("--diff", nargs=2, type=Path, metavar=("A", "B"), help="hash files or trees to compare")
    args = parser.parse_args()
    if (args.tree is None) == (args.diff is None):
        parser.error("give either TREE or --diff A B")
    # one BLAS thread, here and in the processes that hash a tree, so that no
    # reduction's order, and so no float's last bit, depends on the thread count
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")

    if args.diff:
        a, b = (_load(p) for p in args.diff)
        differing = _differing(a, b)
        if not differing:
            print(f"all {len(a)} groups are equal")
            return 0
        print(f"first difference: {differing[0]}")
        for name in differing[1:]:
            print(f"also differs: {name}")
        print(f"{len(differing)} of {len(set(a) | set(b))} groups differ")
        return 1

    text = json.dumps(hash_tree(args.tree.resolve()), indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
