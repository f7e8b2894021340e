#!/usr/bin/env python3
"""Check that the tests kill every mutant of the verdict bars and guards.

    python3 scripts/mutants.py [--check]

Each mutant replaces one text of one source file, which must occur there
exactly once, by a loosened or removed version: a bar moved far past its
value, a guard that can no longer fire, a ``conj`` dropped, a sign flipped, a
cache key cut short, a verdict read over part of its columns, a contraction
or a scatter out of order or dropped.
The working tree's ``src/`` and ``tests/`` (and ``pyproject.toml``) are
copied to a temporary directory.  The named test files run there once
unmutated, and must pass; then each mutant is applied in turn, its test files
run with ``-x --hypothesis-seed=1``, and the file is restored.  A mutant is
killed when a test fails and survives when they all pass.  Prints one line
per mutant and exits 1 if any mutant survives or cannot be judged.

``--check`` only verifies that each mutant's old text occurs exactly once in
its file, so a refactor that moves a bar's text fails at once instead of
dropping its mutant.  Uses the standard library only; the tests need
numpy, pytest and hypothesis.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PKG = "src/teleportnet"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    why: str
    tests: tuple[str, ...]


ACCOUNTING, CLI, DEFECTION = f"{PKG}/accounting.py", f"{PKG}/cli.py", f"{PKG}/defection.py"
PROTOCOL = f"{PKG}/protocol.py"
RESOURCES, STATES = f"{PKG}/resources.py", f"{PKG}/states.py"


# measure_all's plan cache, and a hand-written cache in its place keyed by ``key`` where the
# real key is every argument: (qubits, indices, m, groups, keep)
_PLAN_CACHE = "@functools.lru_cache(maxsize=_LAYOUTS_CACHED)\ndef _plan("


def _plan_memo(key: str) -> str:
    return (f"def _plan(qubits, indices, m, groups, keep, _memo={{}}):\n"
            f"    key = ({key})\n"
            f"    if key not in _memo:\n"
            f"        _memo[key] = _plan_of(qubits, indices, m, groups, keep)\n"
            f"    return _memo[key]\n\n\n"
            f"def _plan_of(")


MUTANTS = [
    Mutant("fidelity_atol", PROTOCOL, "FIDELITY_ATOL = 1e-10", "FIDELITY_ATOL = 1e-2",
           "the paper's 'exact' reconstruction bar, loosened 10^8-fold", ("tests/test_cli.py",)),
    Mutant("zero_branch_sampled", PROTOCOL, "if weights[k] < ZERO_BRANCH_ATOL * sum(weights):",
           "if weights[k] < 0:", "measure_all's per-draw zero-weight guard removed",
           ("tests/test_executor.py", "tests/test_protocol.py")),
    Mutant("zero_branch_enumerate", PROTOCOL, "np.flatnonzero(probs < ZERO_BRANCH_ATOL)",
           "np.flatnonzero(probs < 0)", "measure_all's enumerate zero-branch guard removed",
           ("tests/test_executor.py", "tests/test_protocol.py")),
    Mutant("unitary_atol_gate", STATES, "gate - np.eye(2))) <= UNITARY_ATOL", "gate - np.eye(2))) <= 1e-2",
           "a gate up to 1e-2 off unitary is applied", ("tests/test_states.py",)),
    Mutant("unitary_atol_grid", DEFECTION, "@ us - np.eye(2)).max() <= UNITARY_ATOL", "@ us - np.eye(2)).max() <= 1e-2",
           "a recovery grid up to 1e-2 off unitary is searched", ("tests/test_defection.py",)),
    Mutant("diagonal_off", CLI, "ok = t.off.max(axis=1) < 1e-12", "ok = t.off.max(axis=1) < 1e-3",
           "run's off-diagonal bar loosened", ("tests/test_cli.py",)),
    Mutant("diagonal_00", CLI, "np.where(preserved, a2, b2)) < 1e-12", "np.where(preserved, a2, b2)) < 1",
           "run's (0,0) diagonal bar loosened", ("tests/test_cli.py",)),
    Mutant("diagonal_11", CLI, "np.where(preserved, b2, a2)) < 1e-12", "np.where(preserved, b2, a2)) < 1",
           "run's (1,1) diagonal bar loosened", ("tests/test_cli.py",)),
    Mutant("density_hermitian", STATES, "HERMITIAN_ATOL = 1e-12", "HERMITIAN_ATOL = 1e-2",
           "DensityMatrix admits a non-Hermitian operator", ("tests/test_states.py",)),
    Mutant("density_trace", STATES, "TRACE_ATOL = 1e-12", "TRACE_ATOL = 1e-2",
           "DensityMatrix admits a trace off 1", ("tests/test_states.py",)),
    Mutant("density_eigenvalue", STATES, "EIGENVALUE_FLOOR = -1e-10", "EIGENVALUE_FLOOR = -1e-2",
           "DensityMatrix admits a negative eigenvalue", ("tests/test_states.py",)),
    Mutant("selftest_probability_sum", CLI, 'summary["branch_probability_sum"] - 1.0) > 1e-9',
           'summary["branch_probability_sum"] - 1.0) > 0.1', "selftest's probability-sum bar loosened",
           ("tests/test_cli.py",)),
    Mutant("selftest_parity", CLI, "abs(weights[total_parity] - 1.0) > 1e-12", "abs(weights[total_parity] - 1.0) > 0.6",
           "selftest's parity-mass bar loosened", ("tests/test_cli.py",)),
    Mutant("selftest_corrupted_table", CLI, '["min_fidelity"] >= 1.0 - 1e-6', '["min_fidelity"] >= 1.0 - 0.9',
           "selftest takes a corrupted correction table for a working one", ("tests/test_cli.py",)),
    Mutant("summary_min_fidelity_first_receiver", CLI, "min_fid = min(np.stack(t.fids, axis=1).ravel().tolist())",
           "min_fid = min(t.fids[0].tolist())", "run's fidelity verdict reads receiver 0 only", ("tests/test_cli.py",)),
    Mutant("lone_operator_pad", DEFECTION, "np.concatenate([rhos, rhos[-1:]])", "rhos",
           "the stack is searched unpadded, so a lone operator in a last block rounds apart", ("tests/test_defection.py",)),
    Mutant("branch_bits_mod_2", PROTOCOL,
           'bits = [_integral(b, "infer_branch") for b in (*agent_bits, sender_bit)]\n'
           "    if bad := sorted(set(bits) - {0, 1}):",
           "bits = [int(b) & 1 for b in (*agent_bits, sender_bit)]\n    if bad := []:",
           "infer_branch reads any number as a bit, mod 2", ("tests/test_protocol.py",)),
    Mutant("branch_not_member", PROTOCOL, "if not isinstance(branch, Branch):", "if False:",
           "correction_for reads the odd column for any branch that is not Branch.EVEN", ("tests/test_protocol.py",)),
    Mutant("lone_row_pad", PROTOCOL, "rows = max(len(cols), min(2, 1 << n))", "rows = len(cols)",
           "a lone row of the support is rotated unpadded", ("tests/test_executor.py",)),
    Mutant("plan_key_keep", PROTOCOL, _PLAN_CACHE, _plan_memo("qubits, indices, m, groups, tuple(sorted(keep))"),
           "measure_all's plans are cached by the kept qubits in sorted order", ("tests/test_executor.py",)),
    Mutant("plan_key_width", PROTOCOL, _PLAN_CACHE, _plan_memo("qubits, indices, groups, keep"),
           "measure_all's plans are cached without the message width", ("tests/test_executor.py",)),
    Mutant("fidelities_conj", PROTOCOL,
           "factors = candidates[i].take(ops[:, i].reshape(len(targets), -1) + shift, axis=0).reshape(size, 2).conj()",
           "factors = candidates[i].take(ops[:, i].reshape(len(targets), -1) + shift, axis=0).reshape(size, 2)",
           "each received qubit is contracted with its corrected target unconjugated", ("tests/test_protocol.py",)),
    Mutant("fidelities_qubit_order", PROTOCOL, "for i in reversed(range(start, start + m)):",
           "for i in range(start, start + m):", "a receiver's qubits are contracted lowest first, so each "
           "contraction after the first reads the wrong axis", ("tests/test_protocol.py",)),
    Mutant("final_scatter_dropped", PROTOCOL, "None if steps and len(cols) == 1 << n else _read_only(cols)", "None",
           "the kept values are never scattered to their rows", ("tests/test_executor.py",)),
    Mutant("final_order_unguarded", PROTOCOL, "None if steps and len(cols) == 1 << n", "None if len(cols) == 1 << n",
           "a dense support measured in no group is kept in the order it is given", ("tests/test_executor.py",)),
    Mutant("diagonal_first_qubit", CLI, "enumerate(zip(t.operators, qubits))",
           "enumerate(zip(t.operators[:1], qubits[:1]))",
           "run's diagonal verdict reads received qubit 0 only", ("tests/test_cli.py",)),
    Mutant("probability_sum_numpy", CLI, "sum(np.repeat(t.probs, k).tolist()) / k", "np.sum(np.repeat(t.probs, k)) / k",
           "the branch-probability sum is taken by numpy's pairwise sum, not in record order",
           ("tests/test_cli.py",)),
    Mutant("float_column_by_value", CLI, "np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)",
           "np.ascontiguousarray(x, dtype=np.float64)", "report floats are keyed by value, so 0.0 and -0.0 merge",
           ("tests/test_report_text.py",)),
    Mutant("marginal_conj", DEFECTION, 'np.einsum("bda,bdc->bac", h, h.conj())', 'np.einsum("bda,bdc->bac", h, h)',
           "the defection marginals lose their conjugate", ("tests/test_defection.py",)),
    Mutant("control_ghz_sign", RESOURCES, "ghz = _bit_parity(s) *", "ghz = (1 - _bit_parity(s)) *",
           "the resource pairs Phi+^M with GHZ- and Phi-^M with GHZ+", ("tests/test_resources.py",)),
    Mutant("entangled_fixed_branch", DEFECTION, "shape, (0,) * (2 + shape.num_agents), defector=", "shape, defector=",
           "the entangled-information check enumerates every Bell and agent branch to read one",
           ("tests/test_defection.py",)),
    Mutant("entangled_sender_measured", DEFECTION, "(0,) * (2 + shape.num_agents), defector=shape.num_agents)",
           "(0,) * (3 + shape.num_agents))",
           "the sender's GHZ qubit is measured as plus, so the first received qubit is no longer dephased",
           ("tests/test_defection.py",)),
    Mutant("entangled_first_conj", DEFECTION, "v = rows @ np.conj([a1, sign * b1])", "v = rows @ np.array([a1, sign * b1])",
           "the first received qubit is projected onto the unconjugated ket", ("tests/test_defection.py",)),
    Mutant("entangled_second_conj", DEFECTION, "v @ np.conj([a2, sign * b2])", "v @ np.array([a2, sign * b2])",
           "the second received qubit is compared with the unconjugated ket", ("tests/test_defection.py",)),
    Mutant("state_rescale", STATES, "if not np.isfinite(norm):", "if False:",
           "amplitudes whose norm overflows are zeroed", ("tests/test_states.py",)),
    Mutant("clifford_coset_dropped", DEFECTION, "h @ s, s @ h, hsh)", "h @ s, h, hsh)",
           "one of the six axis permutations is replaced by H, so the grid holds H's coset twice",
           ("tests/test_defection.py",)),
    Mutant("walk_int_before_bool", CLI,
           'elif node is None or node is True or node is False:\n'
           '        out.append("null" if node is None else "true" if node else "false")\n'
           '    elif isinstance(node, int):\n'
           '        out.append(int.__repr__(node))\n',
           'elif isinstance(node, int):\n'
           '        out.append(int.__repr__(node))\n'
           '    elif node is None or node is True or node is False:\n'
           '        out.append("null" if node is None else "true" if node else "false")\n',
           "the report walk takes a bool for an int, so true and false are written 1 and 0",
           ("tests/test_report_text.py", "tests/test_cli.py")),
    Mutant("support_indices_bits_reversed", PROTOCOL, "bits = 1 << np.arange(n - 1, -1, -1)", "bits = 1 << np.arange(n)",
           "the support's layout puts qubit layout[j] on index bit j, not N-1-j", ("tests/test_executor.py",)),
    Mutant("last_record_comma_kept", CLI, '_Column([",\\n", ""],', '_Column([",\\n", ",\\n"],',
           "the report's last record is followed by a comma", ("tests/test_report_text.py", "tests/test_cli.py")),
    Mutant("target_rescale", DEFECTION, "if not np.finfo(np.float64).tiny <= np.vdot(t, t).real < np.inf:", "if False:",
           "a recovery target whose squared norm is not a normal float is normalized as it is",
           ("tests/test_defection.py",)),
    Mutant("baseline_copy_order", PROTOCOL, "shift = 4 * np.arange(len(targets))[:, None]",
           "shift = 4 * ((np.arange(len(targets)) + 1) % len(targets))[:, None]",
           "the GHZ baseline's rows of copy i are corrected towards copy i+1's message",
           ("tests/test_records.py", "tests/test_protocol.py")),
    Mutant("phi_form_swapped", DEFECTION, "_PHI = (BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS)",
           "_PHI = (BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS)",
           "Phi- is taken to swap the diagonal and Psi+ to preserve it", ("tests/test_defection.py",)),
    Mutant("copy_keys_one_block", DEFECTION, ".reshape(len(targets), -1, 4)  # (copy, row, entry)",
           ".reshape(1, -1, 4)  # (copy, row, entry)",
           "the GHZ baseline's copies are keyed as one block, so every copy is searched against the first's message",
           ("tests/test_defection.py",)),
    Mutant("phase_preset_alpha", CLI, '"phase": (1 / np.sqrt(2), 1j / np.sqrt(2))',
           '"phase": (1 / np.sqrt(3), 1j / np.sqrt(2))', "the phase preset's alpha is off 1/sqrt(2)",
           ("tests/test_cli.py",)),
    Mutant("phase_preset_beta", CLI, '"phase": (1 / np.sqrt(2), 1j / np.sqrt(2))',
           '"phase": (1 / np.sqrt(2), 1j / np.sqrt(3))', "the phase preset's beta is off i/sqrt(2)",
           ("tests/test_cli.py",)),
    Mutant("selftest_reconstruction_shapes", CLI, "for n in (1, 2):\n                shape = NetworkShape.single(m, n)",
           "for n in (1, 3):\n                shape = NetworkShape.single(m, n)",
           "selftest's reconstruction runs at three agents instead of two", ("tests/test_cli.py",)),
    Mutant("selftest_odd_ghz", CLI, "for sign in (+1, -1):", "for sign in (+1, +1):",
           "selftest's parity check never builds the odd GHZ", ("tests/test_cli.py",)),
    Mutant("ghz_value_one_ulp_low", RESOURCES, "np.array([1, sign], dtype=np.complex128) * np.sqrt(0.5)",
           "np.array([1, sign], dtype=np.complex128) * (1 / np.sqrt(2))",
           "the GHZ support's amplitudes are 1/sqrt(2), one ulp under the dense build's", ("tests/test_resources.py",)),
    Mutant("control_value_power", RESOURCES, "np.sqrt(0.5 ** total)", "np.sqrt(0.5) ** total",
           "the control support's amplitudes are sqrt(1/2) to the M-th power, which rounds off 2^(-M/2) from M = 2",
           ("tests/test_resources.py",)),
    Mutant("parity_mask_start", RESOURCES, "mask = 0\n    for q in qs:", "mask = 1\n    for q in qs:",
           "qubit 0 counts in every parity, given or not", ("tests/test_resources.py",)),
    Mutant("parity_marker_zero", RESOURCES, "if not 0 <= marker_qubit < state.num_qubits:",
           "if not 1 <= marker_qubit < state.num_qubits:", "joint_parity_weights refuses marker qubit 0",
           ("tests/test_resources.py",)),
    Mutant("partial_trace_keep_bound", STATES, "kept[-1] >= n:", "kept[-1] > n:",
           "partial_trace admits the qubit one past the state's last", ("tests/test_states.py",)),
    Mutant("baseline_per_agent_receivers", ACCOUNTING, "total * (n + 2), total, tuple(shape.message_counts)",
           "total * (n + 2), shape.num_receivers, tuple(shape.message_counts)",
           "the baseline's agents hold one qubit per receiver, not one per message qubit",
           ("tests/test_accounting.py",)),
    Mutant("entangling_bits_one_receiver", ACCOUNTING, "tuple(1 for _ in shape.message_counts)", "(1,)",
           "the entangling protocol sends one bit to the first receiver only", ("tests/test_accounting.py",)),
    Mutant("crossover_m_truncated", ACCOUNTING, '_integral(m, "m")', "int(m)",
           "crossover_table truncates a non-integral message count to a row", ("tests/test_accounting.py",)),
]


def _pytest(tree: Path, tests: tuple[str, ...]) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "--hypothesis-seed=1", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="only check that each old text occurs exactly once")
    args = parser.parse_args(argv)

    misplaced = [(m, n) for m in MUTANTS if (n := (ROOT / m.file).read_text(encoding="utf-8").count(m.old)) != 1]
    for m, n in misplaced:
        print(f"{m.name}: its old text occurs {n} times in {m.file}, not once")
    if misplaced:
        return 1
    if args.check:
        print(f"all {len(MUTANTS)} mutants' texts occur once")
        return 0

    failed = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", tree / "pyproject.toml")
        files = tuple(sorted({t for m in MUTANTS for t in m.tests}))
        if _pytest(tree, files) != 0:
            print(f"the unmutated tree fails {' '.join(files)}: no mutant can be judged")
            return 1
        for m in MUTANTS:
            path = tree / m.file
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(m.old, m.new), encoding="utf-8")
            start = time.perf_counter()
            try:
                code = _pytest(tree, m.tests)
            finally:
                path.write_text(original, encoding="utf-8")
            verdict = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
            failed += verdict != "killed"
            print(f"{verdict:>9}  {m.name:<36} {time.perf_counter() - start:5.1f} s  {m.why}", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
