import itertools
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import teleportnet as tn
from teleportnet import (
    CORRECTIONS,
    BellOutcome,
    Branch,
    MessageSpec,
    NetworkShape,
    PauliOp,
    QubitRegistry,
    StateVector,
)
from teleportnet.cli import main
from teleportnet.protocol import _distinct, _event_qubits, _fidelities, _network_branches, _transcript_table
from teleportnet.resources import _control_support, _ghz_support

from _oracles import (_nonzeros, conditional_kets, corrected_fidelities, executor_layout, pauli_frame_branch,
                      scattered_support)
from conftest import row_keys


class TestCorrectionRule:
    def test_table_is_exact(self):
        assert CORRECTIONS == {
            BellOutcome.PHI_PLUS: (PauliOp.I, PauliOp.Z),
            BellOutcome.PHI_MINUS: (PauliOp.Z, PauliOp.I),
            BellOutcome.PSI_PLUS: (PauliOp.X, PauliOp.Y),
            BellOutcome.PSI_MINUS: (PauliOp.Y, PauliOp.X),
        }

    def test_lookup_both_branches(self):
        assert tn.correction_for(BellOutcome.PHI_PLUS, Branch.EVEN) is PauliOp.I
        assert tn.correction_for(BellOutcome.PHI_PLUS, Branch.ODD) is PauliOp.Z
        assert tn.correction_for(BellOutcome.PSI_MINUS, Branch.EVEN) is PauliOp.Y

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_corrections_restore_conditional_states(self, seed):
        # apply the tabulated Pauli to each conditional single-qubit state;
        # the result must equal (alpha, beta) up to a global phase
        rng = np.random.default_rng(seed)
        (alpha, beta), = MessageSpec.random(1, rng).qubits
        target = np.array([alpha, beta])
        for outcome in BellOutcome:
            plain, primed = conditional_kets(outcome, alpha, beta)
            for branch, ket in ((Branch.EVEN, plain), (Branch.ODD, primed)):
                op = tn.correction_for(outcome, branch)
                restored = op.matrix @ ket
                phase = np.vdot(restored, target)
                assert abs(abs(phase) - 1.0) < 1e-12
                np.testing.assert_allclose(restored * phase / abs(phase), target, atol=1e-12)


class TestConditionalStates:
    def test_odd_branch_states_match_frozen_table(self, rng):
        # drive the smallest network into the odd branch and read the
        # receiver's raw (pre-correction) qubit for every Bell outcome
        spec = MessageSpec.random(1, rng)
        (alpha, beta), = spec.qubits
        shape = NetworkShape.single(1, 1)
        resource, _ = tn.prepare_control_resource(shape)
        initial = tn.tensor(tn.prepare_message_state(spec), resource)
        # layout: msg 0, sender half 1, receiver half 2, agent 3, sender ghz 4
        for outcome in BellOutcome:
            _, _, state = tn.measure_bell(initial, (0, 1), outcome)
            for qubit in (3, 4):
                state = tn.apply_hadamard(state, qubit)
            _, _, state = tn.measure_z(state, 3, 1)  # agent reads 1
            _, _, state = tn.measure_z(state, 4, 0)  # sender reads 0 -> odd
            rho = tn.partial_trace(state, [2])
            _, primed = conditional_kets(outcome, alpha, beta)
            got = tn.fidelity(rho, tn.StateVector(primed))
            assert got == pytest.approx(1.0, abs=1e-12)

    def test_even_branch_states_match_frozen_table(self, rng):
        spec = MessageSpec.random(1, rng)
        (alpha, beta), = spec.qubits
        shape = NetworkShape.single(1, 1)
        resource, _ = tn.prepare_control_resource(shape)
        initial = tn.tensor(tn.prepare_message_state(spec), resource)
        for outcome in BellOutcome:
            _, _, state = tn.measure_bell(initial, (0, 1), outcome)
            for qubit in (3, 4):
                state = tn.apply_hadamard(state, qubit)
            _, _, state = tn.measure_z(state, 3, 1)
            _, _, state = tn.measure_z(state, 4, 1)  # both read 1 -> even
            rho = tn.partial_trace(state, [2])
            plain, _ = conditional_kets(outcome, alpha, beta)
            assert tn.fidelity(rho, tn.StateVector(plain)) == pytest.approx(1.0, abs=1e-12)


class TestInferBranch:
    def test_branch_is_the_parity_class(self):
        # one even/odd enum serves both the resource's parity and the protocol's branch
        assert Branch is tn.ParityClass
        assert [(b.name, b.value) for b in Branch] == [("EVEN", "even"), ("ODD", "odd")]

    def test_all_zero(self):
        assert tn.infer_branch([0, 0, 0], 0) is Branch.EVEN

    def test_odd_agents_with_sender_one(self):
        assert tn.infer_branch([1, 0], 1) is Branch.EVEN

    def test_single_agent_disagreement(self):
        assert tn.infer_branch([1], 0) is Branch.ODD

    @settings(max_examples=40)
    @given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=6), sender=st.integers(0, 1))
    def test_is_xor(self, bits, sender):
        want = Branch.EVEN if (sum(bits) + sender) % 2 == 0 else Branch.ODD
        assert tn.infer_branch(bits, sender) is want


class TestParties:
    def test_holdings_are_disjoint_and_complete(self):
        shape = NetworkShape((2, 1), 2)
        all_held = [q for p in tn.parties(shape) for q in p.held_qubits]
        assert sorted(all_held) == list(range(shape.total_qubits))

    def test_each_agent_holds_one_qubit(self):
        for party in tn.parties(NetworkShape.single(2, 3)):
            if party.role.startswith("agent"):
                assert len(party.held_qubits) == 1


class TestRunControlledTeleport:
    def test_basis_state_message(self):
        trs = tn.run_controlled_teleport(MessageSpec(((1.0, 0.0),)), NetworkShape.single(1, 1))
        assert len(trs) == 16
        for t in trs:
            assert t.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_m2_n2_enumeration(self, rng):
        spec = MessageSpec.random(2, rng)
        trs = tn.run_controlled_teleport(spec, NetworkShape.single(2, 2))
        assert len(trs) == 4**2 * 2**3 == 128
        assert min(t.fidelity for t in trs) == pytest.approx(1.0, abs=1e-10)
        assert sum(t.branch_probability for t in trs) == pytest.approx(1.0, abs=1e-9)

    def test_first_branch_needs_no_correction(self, rng):
        spec = MessageSpec.random(1, rng)
        trs = tn.run_controlled_teleport(spec, NetworkShape.single(1, 1))
        first = trs[0]
        assert first.bell_outcomes == (BellOutcome.PHI_PLUS,)
        assert first.agent_bits == (0,)
        assert first.sender_ghz_bit == 0
        assert first.branch is Branch.EVEN
        assert first.corrections == (PauliOp.I,)
        assert first.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_branch_probabilities_are_uniform(self, rng):
        spec = MessageSpec.random(2, rng)
        trs = tn.run_controlled_teleport(spec, NetworkShape.single(2, 1))
        expect = 1.0 / (4**2 * 2**2)
        for t in trs:
            assert t.branch_probability == pytest.approx(expect, abs=1e-12)

    def test_branch_field_consistent_with_bits(self, rng):
        spec = MessageSpec.random(1, rng)
        for t in tn.run_controlled_teleport(spec, NetworkShape.single(1, 2)):
            assert t.branch is tn.infer_branch(t.agent_bits, t.sender_ghz_bit)

    def test_canonical_transcript_order(self, rng):
        spec = MessageSpec.random(1, rng)
        trs = tn.run_controlled_teleport(spec, NetworkShape.single(1, 1))
        keys = [
            (tuple(BellOutcome).index(t.bell_outcomes[0]), t.agent_bits, t.sender_ghz_bit)
            for t in trs
        ]
        assert keys == sorted(keys)

    def test_per_message_independence(self, rng):
        # the correction on one receiver qubit depends only on its own pair's
        # outcome and the global branch
        spec = MessageSpec.random(2, rng)
        seen = {}
        for t in tn.run_controlled_teleport(spec, NetworkShape.single(2, 1)):
            for i in range(2):
                key = (i, t.bell_outcomes[i], t.branch)
                seen.setdefault(key, set()).add(t.corrections[i])
        assert all(len(ops) == 1 for ops in seen.values())

    def test_one_bit_per_agent_per_run(self, rng):
        spec = MessageSpec.random(1, rng)
        for t in tn.run_controlled_teleport(spec, NetworkShape.single(1, 3)):
            senders = [m.sender for m in t.classical_messages if m.sender.startswith("agent")]
            assert sorted(senders) == ["agent0", "agent1", "agent2"]

    def test_spec_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            tn.run_controlled_teleport(MessageSpec.random(2, rng), NetworkShape.single(1, 1))

    def test_multi_receiver_shape_rejected(self, rng):
        with pytest.raises(ValueError):
            tn.run_controlled_teleport(MessageSpec.random(2, rng), NetworkShape((1, 1), 1))

    def test_sampled_mode_reproducible(self, rng):
        spec = MessageSpec.random(2, rng)
        shape = NetworkShape.single(2, 2)
        a = tn.run_controlled_teleport(spec, shape, "sampled", seed=11)
        b = tn.run_controlled_teleport(spec, shape, "sampled", seed=11)
        assert a == b
        assert a.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_sampled_mode_needs_seed(self, rng):
        with pytest.raises(ValueError):
            tn.run_controlled_teleport(MessageSpec.random(1, rng), NetworkShape.single(1, 1), "sampled")

    def test_unknown_mode_rejected(self, rng):
        with pytest.raises(ValueError):
            tn.run_controlled_teleport(MessageSpec.random(1, rng), NetworkShape.single(1, 1), "guess")

    @pytest.mark.parametrize("seed", [True, False, np.True_, 1.5, "1", "x"])
    def test_a_seed_that_is_not_an_integer_is_refused(self, seed, rng):
        # as run --spec refuses "seed": true, rather than drawing with seed 1; and, as run checks
        # --seed, in both modes, though only a sampled run draws from it
        spec, shape = MessageSpec.random(2, rng), NetworkShape.single(2, 2)
        want = f"^seed takes integers, got {re.escape(repr(seed))}$"
        for mode in ("sampled", "enumerate"):
            with pytest.raises(ValueError, match=want):
                tn.run_controlled_teleport(spec, shape, mode, seed=seed)
            with pytest.raises(ValueError, match=want):
                tn.run_baseline_ghz(spec, shape, mode, seed=seed)
            with pytest.raises(ValueError, match=want):
                tn.run_multi_receiver([spec, spec], NetworkShape((2, 2), 1), mode, seed=seed)

    @pytest.mark.parametrize("seed", [-1, -3, np.int64(-2), -2.0])
    def test_a_negative_seed_is_refused_by_name(self, seed, rng):
        # in the words run uses for a negative --seed, not numpy's, in both modes
        spec, shape = MessageSpec.random(2, rng), NetworkShape.single(2, 2)
        want = f"^seed must be non-negative, got {int(seed)}$"
        for mode in ("sampled", "enumerate"):
            with pytest.raises(ValueError, match=want):
                tn.run_controlled_teleport(spec, shape, mode, seed=seed)
            with pytest.raises(ValueError, match=want):
                tn.run_baseline_ghz(spec, shape, mode, seed=seed)
            with pytest.raises(ValueError, match=want):
                tn.run_multi_receiver([spec, spec], NetworkShape((2, 2), 1), mode, seed=seed)

    def test_an_enumerate_run_does_not_draw_from_a_valid_seed(self, rng):
        spec = MessageSpec.random(2, rng)
        runs = [(tn.run_controlled_teleport, spec, NetworkShape.single(2, 2)),
                (tn.run_baseline_ghz, spec, NetworkShape.single(2, 2)),
                (tn.run_multi_receiver, [spec, spec], NetworkShape((2, 2), 1))]
        for run, specs, shape in runs:
            assert repr(run(specs, shape, seed=np.int64(3))) == repr(run(specs, shape, seed=None))

    def test_an_integral_seed_draws_as_its_int(self, rng):
        spec, shape = MessageSpec.random(2, rng), NetworkShape.single(2, 2)
        want = tn.run_controlled_teleport(spec, shape, "sampled", seed=11)
        assert tn.run_controlled_teleport(spec, shape, "sampled", seed=np.int64(11)) == want
        assert tn.run_controlled_teleport(spec, shape, "sampled", seed=11.0) == want


def _result_map(transcripts):
    return {
        (t.bell_outcomes, t.agent_bits, t.sender_ghz_bit): (t.fidelity, t.branch_probability, t.corrections)
        for t in transcripts
    }


class TestOrderingAndBasisIndependence:
    def test_event_permutations_leave_results_unchanged(self, rng):
        spec = MessageSpec.random(2, rng)
        shape = NetworkShape.single(2, 2)
        reference = _result_map(tn.run_controlled_teleport(spec, shape))
        events = list(tn.protocol_events(shape))
        for _ in range(3):
            rng.shuffle(events)
            shuffled = _result_map(tn.run_controlled_teleport(spec, shape, event_order=events))
            assert shuffled.keys() == reference.keys()
            for key, (fid, prob, ops) in reference.items():
                got_fid, got_prob, got_ops = shuffled[key]
                assert got_fid == pytest.approx(fid, abs=1e-10)
                assert got_prob == pytest.approx(prob, abs=1e-10)
                assert got_ops == ops

    def test_plus_minus_basis_matches_hadamard_z(self, rng):
        spec = MessageSpec.random(1, rng)
        shape = NetworkShape.single(1, 2)
        reference = _result_map(tn.run_controlled_teleport(spec, shape))
        direct = _result_map(tn.run_controlled_teleport(spec, shape, agent_basis="plus_minus"))
        assert direct.keys() == reference.keys()
        for key in reference:
            assert direct[key][0] == pytest.approx(reference[key][0], abs=1e-10)
            assert direct[key][1] == pytest.approx(reference[key][1], abs=1e-10)

    def test_bad_event_order_rejected(self, rng):
        spec = MessageSpec.random(1, rng)
        shape = NetworkShape.single(1, 1)
        with pytest.raises(ValueError):
            tn.run_controlled_teleport(spec, shape, event_order=[("bell", 0, 0)])

    def test_bad_basis_rejected(self, rng):
        with pytest.raises(ValueError):
            tn.run_controlled_teleport(
                MessageSpec.random(1, rng), NetworkShape.single(1, 1), agent_basis="diagonal"
            )


class TestMultiReceiver:
    def test_two_receivers_reconstruct_in_every_branch(self, rng):
        specs = [MessageSpec.random(1, rng), MessageSpec.random(1, rng)]
        branches = tn.run_multi_receiver(specs, NetworkShape((1, 1), 1))
        assert len(branches) == 4**2 * 2**2
        for branch in branches:
            assert len(branch) == 2
            for t in branch:
                assert t.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_agent_bits_shared_across_receivers(self, rng):
        specs = [MessageSpec.random(1, rng), MessageSpec.random(1, rng)]
        for branch in tn.run_multi_receiver(specs, NetworkShape((1, 1), 2)):
            first, second = branch
            assert first.agent_bits == second.agent_bits
            assert first.sender_ghz_bit == second.sender_ghz_bit
            assert first.branch == second.branch
            assert first.receiver == 0 and second.receiver == 1

    def test_identical_specs_differ_only_in_own_pairs(self, rng):
        spec = MessageSpec.random(1, rng)
        for branch in tn.run_multi_receiver([spec, spec], NetworkShape((1, 1), 1)):
            first, second = branch
            if first.bell_outcomes == second.bell_outcomes:
                assert first.corrections == second.corrections

    def test_sampled_mode(self, rng):
        specs = [MessageSpec.random(1, rng), MessageSpec.random(2, rng)]
        out = tn.run_multi_receiver(specs, NetworkShape((1, 2), 1), "sampled", seed=3)
        assert len(out) == 2
        for t in out:
            assert t.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_single_receiver_rejected(self, rng):
        with pytest.raises(ValueError):
            tn.run_multi_receiver([MessageSpec.random(1, rng)], NetworkShape.single(1, 1))

    def test_fewer_specs_than_receivers_are_refused(self, rng):
        with pytest.raises(ValueError, match="got 1 message specs for 2 receivers"):
            tn.run_multi_receiver([MessageSpec.random(1, rng)], NetworkShape((1, 1), 1))


class TestBaseline:
    def test_enumeration_counts_and_fidelity(self, rng):
        spec = MessageSpec.random(2, rng)
        trs = tn.run_baseline_ghz(spec, NetworkShape.single(2, 2))
        # 2 copies x 4 Bell outcomes x 4 agent-bit patterns
        assert len(trs) == 2 * 4 * 2**2
        for t in trs:
            assert t.fidelity == pytest.approx(1.0, abs=1e-10)
            assert t.sender_ghz_bit is None
        for index in (0, 1):
            prob = sum(t.branch_probability for t in trs if t.message_index == index)
            assert prob == pytest.approx(1.0, abs=1e-9)

    def test_each_agent_handles_one_qubit_per_copy(self, rng):
        spec = MessageSpec.random(2, rng)
        trs = tn.run_baseline_ghz(spec, NetworkShape.single(2, 2))
        for t in trs:
            assert len(t.agent_bits) == 2  # n bits per copy, m copies -> m qubits per agent
        assert {t.message_index for t in trs} == {0, 1}

    def test_correction_uses_parity_branch(self, rng):
        spec = MessageSpec.random(1, rng)
        for t in tn.run_baseline_ghz(spec, NetworkShape.single(1, 2)):
            assert t.branch is tn.infer_branch(t.agent_bits, 0)
            assert t.corrections[0] is tn.correction_for(t.bell_outcomes[0], t.branch)

    def test_phi_plus_even_parity_needs_no_correction(self, rng):
        spec = MessageSpec.random(1, rng)
        trs = tn.run_baseline_ghz(spec, NetworkShape.single(1, 1))
        first = trs[0]
        assert first.bell_outcomes == (BellOutcome.PHI_PLUS,)
        assert first.agent_bits == (0,)
        assert first.corrections == (PauliOp.I,)
        assert first.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_matches_new_protocol_fidelity(self, rng):
        spec = MessageSpec.random(2, rng)
        shape = NetworkShape.single(2, 1)
        new_worst = min(t.fidelity for t in tn.run_controlled_teleport(spec, shape))
        old_worst = min(t.fidelity for t in tn.run_baseline_ghz(spec, shape))
        assert new_worst == pytest.approx(old_worst, abs=1e-10) == pytest.approx(1.0, abs=1e-10)

    def test_sampled_mode(self, rng):
        spec = MessageSpec.random(3, rng)
        trs = tn.run_baseline_ghz(spec, NetworkShape.single(3, 1), "sampled", seed=5)
        assert [t.message_index for t in trs] == [0, 1, 2]
        for t in trs:
            assert t.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_two_receiver_shape_is_refused(self, rng):
        with pytest.raises(ValueError, match="the GHZ baseline covers the single-receiver network"):
            tn.run_baseline_ghz(MessageSpec.random(2, rng), NetworkShape((1, 1), 1))

    def test_resource_sizes(self):
        sizes = tn.protocol.baseline_resource_sizes(NetworkShape.single(3, 2))
        assert sizes == [4, 4, 4]

    def test_ghz_support_is_written_once_per_call(self, rng, monkeypatch):
        calls = []
        monkeypatch.setattr(tn.protocol, "_ghz_support", lambda *a: calls.append(a) or _ghz_support(*a))
        tn.run_baseline_ghz(MessageSpec.random(3, rng), NetworkShape.single(3, 2))
        assert calls == [(4,)]

    def test_wide_copy_builds_no_dense_ghz(self, rng):
        # 24 GHZ qubits: a dense copy would hold 256 MiB
        spec = MessageSpec.random(1, rng)
        tracemalloc.start()
        try:
            (t,) = tn.run_baseline_ghz(spec, NetworkShape.single(1, 22), "sampled", seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.fidelity == pytest.approx(1.0, abs=1e-10)
        assert peak < 1 << 20


class TestReconstructionSweep:
    @pytest.mark.parametrize("m,n", list(itertools.product((1, 2), (1, 2))))
    def test_every_branch_reconstructs(self, m, n, rng):
        shape = NetworkShape.single(m, n)
        for _ in range(3):
            spec = MessageSpec.random(m, rng)
            trs = tn.run_controlled_teleport(spec, shape)
            assert len(trs) == 4**m * 2 ** (n + 1)
            assert min(t.fidelity for t in trs) == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_amplitudes_allowed(self):
        spec = MessageSpec(((0.0, 1.0), (1.0, 0.0)))
        trs = tn.run_controlled_teleport(spec, NetworkShape.single(2, 1))
        assert len(trs) == 4**2 * 2**2
        assert min(t.fidelity for t in trs) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("counts", [(1,), (1, 1)], ids=["single", "two-receivers"])
def test_sampled_draws_follow_enumerated_probabilities(counts):
    """Over seeds 0..1999 each branch is drawn within 5 sigma of the binomial
    count its enumerated probability predicts. The seeds are fixed, so the
    counts are too."""
    rng = np.random.default_rng(2024)
    specs = [MessageSpec.random(m, rng) for m in counts]
    shape = NetworkShape(counts, 1)
    if len(counts) == 1:
        enumerated = [(t,) for t in tn.run_controlled_teleport(specs[0], shape)]
        def draw(seed):
            return (tn.run_controlled_teleport(specs[0], shape, "sampled", seed=seed),)
    else:
        enumerated = tn.run_multi_receiver(specs, shape)
        def draw(seed):
            return tn.run_multi_receiver(specs, shape, "sampled", seed=seed)

    def key(branch):
        return tuple((t.bell_outcomes, t.agent_bits, t.sender_ghz_bit) for t in branch)

    probs = {key(b): b[0].branch_probability for b in enumerated}
    draws = 2000
    seen = Counter(key(draw(seed)) for seed in range(draws))
    assert set(seen) <= set(probs)
    for k, p in probs.items():
        assert abs(seen[k] - draws * p) <= 5 * math.sqrt(draws * p * (1 - p)), k


@st.composite
def messages(draw, counts):
    """One spec per receiver: Haar-random, balanced with random phases, or
    preset |0> and |1> qubits."""
    kind = draw(st.sampled_from(["random", "balanced_random_phases", "preset"]))
    if kind == "preset":
        return [MessageSpec(tuple(draw(st.sampled_from([(1, 0), (0, 1)])) for _ in range(m))) for m in counts]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [getattr(MessageSpec, kind)(m, rng) for m in counts]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_initial_state_layouts_match_the_transposed_product(data):
    """The laid-out initial state is the full message (x) resource product,
    transposed: equal, not close, so a different normalization divisor
    fails here.  Checked for a random qubit order, the layout of a permuted
    event order, and the layout of every defector; and for a GHZ baseline
    copy at a random qubit order."""
    counts = data.draw(st.sampled_from([(1,), (2,), (3,), (1, 1), (1, 2), (2, 1), (1, 1, 1)]))
    shape = NetworkShape(counts, data.draw(st.integers(1, 4)))
    specs = data.draw(messages(counts))
    events = tn.protocol_events(shape)
    _assert_layouts_match(specs, shape, data.draw(st.permutations(range(shape.total_qubits))),
                          data.draw(st.permutations(range(len(events)))))

    ghz, pair = tn.prepare_ghz(shape.num_agents + 2), StateVector(specs[0].qubits[0])
    layout = data.draw(st.permutations(range(shape.num_agents + 3)))
    _assert_laid_out(scattered_support(_nonzeros(ghz), pair, layout), tn.tensor(pair, ghz), layout)


def test_initial_state_matches_the_transposed_product_where_a_norm_rounds_apart():
    """A message whose product with the resource has a different
    ``np.linalg.norm`` over its nonzeros than over the zero-padded vector:
    64 of 16,384 amplitudes differed when the laid-out state was renormalized."""
    shape = NetworkShape.single(3, 4)
    specs = [MessageSpec.random(3, np.random.default_rng(0))]
    _assert_layouts_match(specs, shape, list(range(shape.total_qubits))[::-1],
                          list(range(len(tn.protocol_events(shape))))[::-1])


def _assert_layouts_match(specs, shape, permutation, order):
    """The executor's support scattered into zeros equals the transposed ``tensor`` of
    message and resource in the natural layout, ``permutation``, the layout
    of the event order ``order`` and the layout of every defector."""
    message = tn.prepare_message_state(MessageSpec(tuple(q for s in specs for q in s.qubits)))
    resource = _control_support(shape)
    full = tn.tensor(message, tn.prepare_control_resource(shape)[0])
    assert np.array_equal(scattered_support(resource, message), full.amplitudes)

    registry = QubitRegistry(shape)
    events = tn.protocol_events(shape)
    keep = [registry.receiver_epr(r, i) for r, m in enumerate(shape.message_counts) for i in range(m)]
    layouts = [permutation, executor_layout([_event_qubits(events[g], registry) for g in order], keep)]
    for d in range(shape.num_agents):
        groups = [_event_qubits(e, registry) for e in events if e != ("ghz", d)]
        layouts.append(executor_layout(groups, keep + [registry.agent(d)]))
    for layout in layouts:
        _assert_laid_out(scattered_support(resource, message, layout), full, layout)


def _assert_laid_out(got, full, layout):
    """``got`` is ``full`` with qubit ``layout[j]`` on index bit N-1-j."""
    n = full.num_qubits
    want = np.transpose(full.amplitudes.reshape((2,) * n), [n - 1 - q for q in layout]).reshape(-1)
    assert np.array_equal(got, want), layout


@pytest.mark.parametrize("counts", [(5,), (2, 3)], ids=["single", "two-receivers"])
def test_sampled_branches_take_the_closed_form_at_21_qubits(counts):
    """The control resource is a stabilizer state and every measurement a
    Pauli measurement, so every branch has probability 2^-(2M+n+1) and
    reconstructs exactly: checked on drawn branches of 21-qubit networks."""
    shape = NetworkShape(counts, 5)
    rng = np.random.default_rng(21)
    specs = [MessageSpec.random(m, rng) for m in counts]
    expect = 2.0 ** -(2 * shape.total_messages + shape.num_agents + 1)
    for seed in range(5):
        if len(counts) == 1:
            branch = (tn.run_controlled_teleport(specs[0], shape, "sampled", seed=seed),)
        else:
            branch = tn.run_multi_receiver(specs, shape, "sampled", seed=seed)
        for t in branch:
            assert abs(t.branch_probability - expect) <= 1e-12 * expect
            assert t.fidelity >= 1.0 - 1e-10


@pytest.mark.parametrize("m,n", [(2, 50), (1, 59)])
def test_sampled_library_runs_go_past_46_qubits(m, n):
    """Each draw is guarded by its weight conditioned on the earlier draws, so
    a wide branch whose joint probability is far under the zero-branch bound
    still runs, and takes the closed form."""
    shape = NetworkShape.single(m, n)
    expect = 2.0 ** -(2 * m + n + 1)
    t = tn.run_controlled_teleport(MessageSpec.random(m, np.random.default_rng(0)), shape, "sampled", seed=1)
    assert abs(t.branch_probability - expect) <= 1e-13 * expect
    assert t.fidelity >= 1.0 - 1e-10


@pytest.mark.parametrize("counts,agents", [((6,), 10), ((8,), 6), ((2, 3), 5)], ids=["6-10", "8-6", "ml2-3-n5"])
def test_fixed_branches_take_the_pauli_frame_at_shapes_no_enumeration_reaches(counts, agents):
    """Random outcome strings fixed through the executor at 21 to 31 qubits: each branch has
    probability 2^-(2M+n+1), leaves the received qubits in the Pauli frame of its outcomes up to one
    global phase, and is restored by the correction table."""
    shape = NetworkShape(counts, agents)
    rng = np.random.default_rng(100 * sum(counts) + agents)
    specs = [MessageSpec.random(m, rng) for m in counts]
    total = shape.total_messages
    expect = 2.0 ** -(2 * total + agents + 1)
    for _ in range(5):
        bell, ghz = rng.integers(4, size=total).tolist(), rng.integers(2, size=agents + 1).tolist()
        outcomes, probs, kept = _network_branches(specs, shape, bell + ghz)
        assert outcomes.tolist() == [bell + ghz]
        assert abs(probs[0] - expect) <= 1e-12 * expect
        want = pauli_frame_branch(specs, bell, ghz)
        phase = np.vdot(want, kept[0])
        assert abs(abs(phase) - 1) < 1e-12
        assert np.max(np.abs(kept[0] - phase * want)) < 1e-12
        for fids in _transcript_table(outcomes, probs, kept, specs).fids:
            assert np.all(fids >= 1 - tn.protocol.FIDELITY_ATOL)


@pytest.mark.parametrize("counts,agents", [((5,), 3), ((1, 2), 3)], ids=["5-3", "ml1-2-n3"])
def test_every_enumerated_branch_keeps_its_pauli_frame(counts, agents):
    """Every branch's uncorrected kept amplitudes are the Pauli frame of its Bell outcomes and GHZ
    parity, up to one global phase; each distinct frame, at most 2 * 4^M of them, is built once."""
    shape = NetworkShape(counts, agents)
    specs = [MessageSpec.random(m, np.random.default_rng(sum(counts) + agents)) for m in counts]
    total = shape.total_messages
    outcomes, _, kept = _network_branches(specs, shape)
    keys = [(tuple(row[:total]), sum(row[total:]) % 2) for row in outcomes.tolist()]
    frames = {key: pauli_frame_branch(specs, key[0], [key[1]]) for key in set(keys)}
    assert len(frames) <= 2 * 4**total
    want = np.array([frames[key] for key in keys])
    phases = np.einsum("bi,bi->b", want.conj(), kept)
    assert np.max(np.abs(np.abs(phases) - 1)) < 1e-12
    assert np.max(np.abs(kept - phases[:, None] * want)) < 1e-12


@pytest.mark.parametrize("n", [60, 61])
def test_runs_wider_than_int64_indices_are_refused(n):
    spec = MessageSpec.random(1, np.random.default_rng(0))
    with pytest.raises(ValueError, match=rf"^at most 63 qubits \(int64 indices\) can be measured, not {n + 4}$"):
        tn.run_controlled_teleport(spec, NetworkShape.single(1, n), "sampled", seed=1)


@pytest.mark.parametrize("n", [63, 64])
def test_networks_too_wide_for_int64_indices_are_refused_before_their_support_is_built(n):
    # the support's indices would overflow int64 first
    spec = MessageSpec.random(1, np.random.default_rng(0))
    widest = rf"^at most 63 qubits \(int64 indices\) can be measured, not "
    with pytest.raises(ValueError, match=rf"{widest}{n + 4}$"):
        tn.run_controlled_teleport(spec, NetworkShape.single(1, n), "sampled", seed=1)
    with pytest.raises(ValueError, match=rf"{widest}{n + 7}$"):
        tn.run_multi_receiver([spec, spec], NetworkShape((1, 1), n), "sampled", seed=1)
    with pytest.raises(ValueError, match=rf"{widest}{n + 4}$"):
        tn.analyze_defection(spec, NetworkShape.single(1, n), 0)


@pytest.mark.parametrize("event_order", [None, [("bell", 0, 0)]], ids=["canonical", "malformed"])
def test_a_million_agents_are_refused_before_any_event_list_is_built(event_order):
    """The width check comes before the events are listed, so a malformed
    event order is refused by the width too."""
    spec = MessageSpec.random(1, np.random.default_rng(0))
    widest = r"^at most 63 qubits \(int64 indices\) can be measured, not "
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"{widest}{10**6 + 4}$"):
            tn.run_controlled_teleport(spec, NetworkShape.single(1, 10**6), "sampled", seed=1,
                                       event_order=event_order)
        with pytest.raises(ValueError, match=rf"{widest}{10**6 + 7}$"):
            tn.run_multi_receiver([spec, spec], NetworkShape((1, 1), 10**6), "sampled", seed=1,
                                  event_order=event_order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("mode", ["enumerate", "sampled"])
def test_each_network_run_lists_its_events_once(monkeypatch, mode):
    calls = []
    listed = tn.protocol.protocol_events
    monkeypatch.setattr(tn.protocol, "protocol_events", lambda shape: calls.append(shape) or listed(shape))
    spec = MessageSpec.random(2, np.random.default_rng(0))
    shape = NetworkShape.single(2, 2)
    tn.run_controlled_teleport(spec, shape, mode, seed=1, event_order=listed(shape)[::-1])
    tn.run_multi_receiver([spec, spec], NetworkShape((2, 2), 1), mode, seed=1)
    tn.analyze_defection(spec, shape, 1)
    assert len(calls) == 3


_OTHER_NAN = 0x7FF8000000000001  # a NaN with another payload than np.nan's
_FLOAT_BITS = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 0.5]).view(np.uint64).tolist() + [_OTHER_NAN]


@st.composite
def distinct_keys(draw):
    """Keys as ``_distinct``'s callers make them, at least one: int64 mixed-radix keys, float64 bits, or
    one ``np.void`` of bytes per operator of a (k, 2, 2) complex stack; each drawn from a few values, so
    that most repeat."""
    kind = draw(st.sampled_from(["int64", "float bits", "operators"]))
    if kind == "int64":
        pool = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=5))
    elif kind == "float bits":
        pool = draw(st.lists(st.sampled_from(_FLOAT_BITS) | st.floats().map(
            lambda x: int(np.array(x).view(np.uint64))), min_size=1, max_size=5))
    else:
        entries = st.sampled_from([0.0, -0.0, 0.5, math.nan, 1e-300]) | st.floats(-1, 1)
        pool = draw(st.lists(st.lists(entries, min_size=8, max_size=8), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    if kind == "int64":
        return np.array(pool, dtype=np.int64)[picks]
    if kind == "float bits":
        return np.array(pool, dtype=np.uint64).view(np.float64)[picks].view(np.uint64)
    return row_keys(np.array(pool).view(np.complex128).reshape(-1, 2, 2)[picks])


class TestFidelityStage:
    """Each receiver's fidelities against the branch-by-branch oracle, with a
    wrong correction table, so that most of them are far from 1."""

    @pytest.mark.parametrize("counts,agents", [((1, 2), 2), ((2, 1), 1), ((1, 1, 1), 1), ((3,), 2)])
    def test_wrong_corrections_match_the_oracle(self, counts, agents):
        rng = np.random.default_rng(len(counts) + 10 * agents)
        specs = [MessageSpec.random(m, rng) for m in counts]
        paulis = list(PauliOp)
        table = {o: (paulis[i], paulis[j]) for o, (i, j) in zip(BellOutcome, rng.integers(4, size=(4, 2)).tolist())}
        outcomes, probs, kept = _network_branches(specs, NetworkShape(counts, agents))
        t = _transcript_table(outcomes, probs, kept, specs, table)
        want = corrected_fidelities(kept, t.ops, counts, [q for s in specs for q in s.qubits])
        assert min(f.min() for f in t.fids) < 0.5
        for got, w in zip(t.fids, want):
            np.testing.assert_allclose(got, w, rtol=0, atol=1e-14)

    def test_peak_stays_under_the_kept_states(self):
        """At (5,3), 16,384 branches of 2^5 amplitudes (8 MiB), the stage
        contracts the kept states qubit by qubit and builds no target state
        per branch."""
        spec = MessageSpec.random(5, np.random.default_rng(0))
        outcomes, probs, kept = _network_branches([spec], NetworkShape.single(5, 3))
        ops = _transcript_table(outcomes, probs, kept, [spec]).ops
        tracemalloc.start()
        try:
            _fidelities(kept, ops, [5], spec.qubits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= kept.nbytes, f"peak {peak / kept.nbytes:.2f} times the kept states"


class TestDistinct:
    @settings(max_examples=200, deadline=None)
    @given(distinct_keys())
    @example(np.array([7], dtype=np.int64))  # one row
    @example(np.full(9, -3, dtype=np.int64))  # all equal
    @example(np.array(_FLOAT_BITS * 2, dtype=np.uint64))
    @example(row_keys(np.zeros((5, 2, 2), dtype=complex)))
    def test_distinct_finds_what_unique_finds(self, keys):
        first, inverse = _distinct(keys)
        _, want_first, want_inverse = np.unique(keys, return_index=True, return_inverse=True)
        assert keys[first].tobytes() == keys[want_first].tobytes()  # the same distinct rows, in the same order
        assert inverse.tolist() == want_inverse.tolist()

    def test_distinct_keys_operators_by_their_bytes(self):
        rho = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
        signed = rho.copy()
        signed[0, 1] = complex(-0.0, 0.0)
        ulp = rho.copy()
        ulp[0, 0] = np.nextafter(0.5, 1.0)
        nan = rho.copy()
        nan[1, 0] = np.nan
        stack = np.stack([rho, signed, ulp, nan, rho, nan.copy(), signed])
        first, inverse = _distinct(row_keys(stack))
        # -0.0 and 0.0 and the one-ulp neighbour stay apart; a NaN matches its own bits
        assert sorted(first.tolist()) == [0, 1, 2, 3]
        np.testing.assert_array_equal(stack[first][inverse].view(np.uint64), stack.view(np.uint64))
        assert len(set(inverse[[0, 1, 2, 3]].tolist())) == 4
        assert inverse[4] == inverse[0] and inverse[5] == inverse[3] and inverse[6] == inverse[1]

    def test_no_run_or_library_call_finds_distinct_values_with_unique(self, monkeypatch, tmp_path):
        """``_distinct`` is the one place that finds distinct values: the executor, the tables, the
        library records and the report columns all go through it."""
        def unique(*args, **kwargs):
            raise AssertionError("np.unique was called")

        monkeypatch.setattr(np, "unique", unique)
        for argv in ["--m 2 --n 2 --enumerate", "--m 2 --n 2 --seed 3", "--m 2 --n 2 --defector 1"]:
            assert main(["run", *argv.split(), "--out", str(tmp_path / "report.json")]) == 0
        spec = MessageSpec.random(3, np.random.default_rng(0))
        shape = NetworkShape.single(3, 3)
        assert len(tn.run_baseline_ghz(spec, shape)) == 3 * 2**5
        assert len(tn.analyze_baseline_defection(spec, shape, 1)) == 3 * 2**4
