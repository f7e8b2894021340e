"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import functools
import itertools
import time

import numpy as np
import pytest

import teleportnet as tn
from teleportnet import (
    CORRECTIONS,
    BellOutcome,
    Branch,
    DiagonalForm,
    Method,
    MessageSpec,
    NetworkShape,
    ParityClass,
    PauliOp,
    StateVector,
    account,
    crossover_table,
)
from teleportnet.protocol import baseline_resource_sizes

from _oracles import conditional_kets, walk_transcripts

GRID = tn.recovery_unitaries(num_random=1000, seed=7)
SWEEP = list(itertools.product((1, 2, 3), (1, 2, 3)))


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] criterion {number} ({title}): FAIL")
                raise
            elapsed = time.perf_counter() - started
            print(f"\n[acceptance] criterion {number} ({title}): PASS ({elapsed:.1f}s)")
        return wrapper
    return deco


@criterion(1, "perfect controlled teleportation")
def test_criterion_1_perfect_teleportation():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for m, n in SWEEP:
        shape = NetworkShape.single(m, n)
        for _ in range(20):
            spec = MessageSpec.random(m, rng)
            transcripts = tn.run_controlled_teleport(spec, shape)
            assert len(transcripts) == 4**m * 2 ** (n + 1)
            assert min(t.fidelity for t in transcripts) >= 1.0 - 1e-10
            assert abs(sum(t.branch_probability for t in transcripts) - 1.0) <= 1e-9
    assert time.perf_counter() - started < 30.0


@criterion(2, "correction table exactness")
def test_criterion_2_correction_table():
    assert CORRECTIONS == {
        BellOutcome.PHI_PLUS: (PauliOp.I, PauliOp.Z),
        BellOutcome.PHI_MINUS: (PauliOp.Z, PauliOp.I),
        BellOutcome.PSI_PLUS: (PauliOp.X, PauliOp.Y),
        BellOutcome.PSI_MINUS: (PauliOp.Y, PauliOp.X),
    }
    rng = np.random.default_rng(202)
    sq = 1.0 / np.sqrt(2.0)
    for _ in range(10):
        (alpha, beta), = MessageSpec.random(1, rng).qubits
        target = np.array([alpha, beta])
        # dynamics: teleport through one EPR pair and read off the receiver
        # qubit conditioned on each Bell outcome
        epr = StateVector([sq, 0, 0, sq])
        full = tn.tensor(StateVector([alpha, beta]), epr)  # qubits: msg, sender half, receiver half
        for outcome in BellOutcome:
            _, p, collapsed = tn.measure_bell(full, (0, 1), outcome)
            assert p == pytest.approx(0.25, abs=1e-12)
            plain, primed = conditional_kets(outcome, alpha, beta)
            sender_component = 1 if outcome in (BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS) else 0
            got = collapsed.amplitudes[sender_component << 1 :: 4]
            received = StateVector(got)
            assert tn.fidelity(received, StateVector(plain)) == pytest.approx(1.0, abs=1e-12)
            # the tabulated operators restore both conditional families
            for branch, ket in ((Branch.EVEN, plain), (Branch.ODD, primed)):
                op = tn.correction_for(outcome, branch)
                restored = op.matrix @ ket
                overlap = np.vdot(restored, target)
                assert abs(abs(overlap) - 1.0) <= 1e-12
                np.testing.assert_allclose(restored * overlap / abs(overlap), target, atol=1e-12)


@criterion(3, "GHZ parity decomposition")
def test_criterion_3_parity_decomposition():
    for size in range(2, 8):
        for sign in (+1, -1):
            state = tn.prepare_ghz(size, sign)
            for q in range(size):
                state = tn.apply_hadamard(state, q)
            weights = tn.joint_parity_weights(state, list(range(size - 1)), size - 1)
            live = [(ParityClass.EVEN, 0), (ParityClass.ODD, 1)] if sign == +1 else [
                (ParityClass.EVEN, 1), (ParityClass.ODD, 0)]
            dead = [cell for cell in weights if cell not in live]
            for cell in live:
                assert weights[cell] == pytest.approx(0.5, abs=1e-12)
            for cell in dead:
                assert weights[cell] <= 1e-14
            magnitudes = np.abs(state.amplitudes[np.abs(state.amplitudes) > 1e-14])
            assert magnitudes.size == 2 ** (size - 1)
            assert np.max(magnitudes) - np.min(magnitudes) <= 1e-12
    # four agents: the even class holds exactly 8 basis strings
    state = tn.prepare_ghz(5, +1)
    for q in range(5):
        state = tn.apply_hadamard(state, q)
    support = np.nonzero(np.abs(state.amplitudes) > 1e-14)[0]
    assert sum(1 for i in support if (i >> 4) & 1 == 0) == 8


@criterion(4, "defection denial")
def test_criterion_4_defection_denial():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    phi = (BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS)
    for m, n in SWEEP:
        shape = NetworkShape.single(m, n)
        specs = [MessageSpec.random(m, rng), MessageSpec.balanced_random_phases(m, rng)]
        for spec, balanced in zip(specs, (False, True)):
            for defector in range(n):
                reports = tn.analyze_defection(spec, shape, defector, unitaries=GRID)
                assert len(reports) == 4**m * 2**n
                locality = {}
                for r in reports:
                    assert r.off_diagonal_norm < 1e-12
                    for i, (alpha, beta) in enumerate(spec.qubits):
                        mat = r.per_qubit_density[i].matrix
                        if r.bell_outcomes[i] in phi:
                            want = (abs(alpha) ** 2, abs(beta) ** 2)
                            assert r.conforms_to[i] is DiagonalForm.PRESERVED
                        else:
                            want = (abs(beta) ** 2, abs(alpha) ** 2)
                            assert r.conforms_to[i] is DiagonalForm.SWAPPED
                        assert abs(mat[0, 0].real - want[0]) < 1e-12
                        assert abs(mat[1, 1].real - want[1]) < 1e-12
                        locality.setdefault((i, r.bell_outcomes[i]), []).append(mat)
                        if balanced:
                            margin = 2 * abs(alpha * beta) ** 2 * (1 - 1e-6)
                            assert r.max_fidelity[i] < 1.0 - margin
                # permuting the other pairs' outcomes leaves each operator alone
                for mats in locality.values():
                    for mat in mats[1:]:
                        np.testing.assert_allclose(mat, mats[0], atol=1e-12)
    # denial also reaches every receiver of a two-receiver network
    specs = [MessageSpec.random(1, rng), MessageSpec.random(2, rng)]
    flat = [q for s in specs for q in s.qubits]
    for r in tn.analyze_defection(specs, NetworkShape((1, 2), 2), 0, unitaries=GRID):
        assert r.off_diagonal_norm < 1e-12
        for i, (alpha, beta) in enumerate(flat):
            want = (
                (abs(alpha) ** 2, abs(beta) ** 2)
                if r.bell_outcomes[i] in phi
                else (abs(beta) ** 2, abs(alpha) ** 2)
            )
            mat = r.per_qubit_density[i].matrix
            assert abs(mat[0, 0].real - want[0]) < 1e-12
            assert abs(mat[1, 1].real - want[1]) < 1e-12
    assert time.perf_counter() - started < 60.0


@criterion(5, "baseline oracle equivalence")
def test_criterion_5_baseline_equivalence():
    rng = np.random.default_rng(505)
    for m, n in SWEEP:
        shape = NetworkShape.single(m, n)
        for _ in range(20):
            spec = MessageSpec.random(m, rng)
            transcripts = tn.run_baseline_ghz(spec, shape)
            assert len(transcripts) == m * 4 * 2**n
            assert min(t.fidelity for t in transcripts) >= 1.0 - 1e-10
    # defection variant reproduces the diagonal receiver operator
    phi = (BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS)
    for m, n in ((1, 1), (2, 2), (3, 2)):
        spec = MessageSpec.random(m, rng)
        for defector in range(n):
            for r in tn.analyze_baseline_defection(spec, NetworkShape.single(m, n), defector, unitaries=GRID):
                alpha, beta = spec.qubits[r.message_index]
                if r.bell_outcomes[0] in phi:
                    want = np.diag([abs(alpha) ** 2, abs(beta) ** 2])
                else:
                    want = np.diag([abs(beta) ** 2, abs(alpha) ** 2])
                np.testing.assert_allclose(r.joint_density.matrix, want, atol=1e-12)


@criterion(6, "resource ledger")
def test_criterion_6_resource_ledger():
    # 4 vs 3 at the smallest network
    one = NetworkShape.single(1, 1)
    assert account(Method.ENTANGLING, one).aux_qubits == 4
    assert account(Method.GHZ_BASELINE, one).aux_qubits == 3
    # equality at m=2, n=1, with per-agent operations 1 vs 2
    table = crossover_table(1, range(1, 7))
    by_m = {row.m: row for row in table.rows}
    assert by_m[2].aux_equal
    assert by_m[2].ops_per_agent_entangling == 1
    assert by_m[2].ops_per_agent_baseline == 2
    assert table.first_dominating_m == 3
    # closed forms across the sweep
    for n in range(1, 5):
        for m in range(1, 7):
            shape = NetworkShape.single(m, n)
            assert account(Method.ENTANGLING, shape).aux_qubits == 2 * m + n + 1
            assert account(Method.GHZ_BASELINE, shape).aux_qubits == m * (n + 2)
    # two receivers with one qubit each: n+5 vs 2n+4
    for n in range(1, 5):
        shape = NetworkShape((1, 1), n)
        assert account(Method.ENTANGLING, shape).aux_qubits == n + 5
        assert account(Method.GHZ_BASELINE, shape).aux_qubits == 2 * n + 4
    # ledger numbers equal the qubits the builders actually allocate
    for counts, n in (((1,), 1), ((2,), 1), ((3,), 2), ((1, 1), 2), ((2, 1), 3)):
        shape = NetworkShape(counts, n)
        state, _ = tn.prepare_control_resource(shape)
        assert account(Method.ENTANGLING, shape).aux_qubits == state.num_qubits
        assert account(Method.GHZ_BASELINE, shape).aux_qubits == sum(baseline_resource_sizes(shape))


@criterion(7, "entangled-information conditional collapse")
def test_criterion_7_entangled_information():
    rng = np.random.default_rng(707)
    cases = [MessageSpec(((np.sqrt(0.5), np.sqrt(0.5)), (np.sqrt(0.2), np.sqrt(0.8))))]
    for _ in range(5):
        (a2, b2), = MessageSpec.random(1, rng).qubits
        (a1, b1), = MessageSpec.balanced_random_phases(1, rng).qubits
        cases.append(MessageSpec(((a1, b1), (a2, b2))))
    for spec in cases:
        for n in (1, 2):
            report = tn.entangled_info_check(spec, NetworkShape.single(2, n))
            assert report.plus_fidelity == pytest.approx(1.0, abs=1e-10)
            assert report.minus_fidelity == pytest.approx(1.0, abs=1e-10)
            assert report.plus_probability + report.minus_probability == pytest.approx(1.0, abs=1e-10)


def _result_map(transcripts):
    return {
        (t.bell_outcomes, t.agent_bits, t.sender_ghz_bit): (t.fidelity, t.branch_probability)
        for t in transcripts
    }


@criterion(8, "ordering and basis independence")
def test_criterion_8_ordering_and_basis():
    rng = np.random.default_rng(808)
    for m, n in SWEEP:
        shape = NetworkShape.single(m, n)
        for _ in range(2):
            spec = MessageSpec.random(m, rng)
            reference = _result_map(tn.run_controlled_teleport(spec, shape))
            events = list(tn.protocol_events(shape))
            rng.shuffle(events)
            permuted = _result_map(tn.run_controlled_teleport(spec, shape, event_order=events))
            direct = _result_map(tn.run_controlled_teleport(spec, shape, agent_basis="plus_minus"))
            assert permuted.keys() == reference.keys() == direct.keys()
            for key, (fid, prob) in reference.items():
                assert permuted[key][0] == pytest.approx(fid, abs=1e-10)
                assert permuted[key][1] == pytest.approx(prob, abs=1e-10)
                assert direct[key][0] == pytest.approx(fid, abs=1e-10)
                assert direct[key][1] == pytest.approx(prob, abs=1e-10)
            # the sequential tree walk, in the shuffled order and the direct
            # basis, against the one-pass executor
            walked = _result_map(
                branch[0] for branch in walk_transcripts([spec], shape, event_order=events, agent_basis="plus_minus")
            )
            assert walked.keys() == reference.keys()
            for key, (fid, prob) in reference.items():
                assert walked[key][0] == pytest.approx(fid, abs=1e-10)
                assert walked[key][1] == pytest.approx(prob, abs=1e-10)
