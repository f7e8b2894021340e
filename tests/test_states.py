import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import teleportnet as tn
from teleportnet import BellOutcome, DensityMatrix, PauliOp, StateVector
from teleportnet.states import _pick

from _oracles import born_z_probability, choice_pick, partial_trace_dense, project_dense
from conftest import random_state, random_unitary2

SQ2 = 1.0 / np.sqrt(2.0)


class TestStateVector:
    def test_normalizes_on_construction(self):
        sv = StateVector([2.0, 0.0])
        assert sv.amplitudes[0] == 1.0

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            StateVector([0.0, 0.0])

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            StateVector([1.0, 0.0, 0.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            StateVector([np.nan, 1.0])

    @pytest.mark.parametrize("huge, unit", [([1e200, 0], [1, 0]), ([1e155, 1e155], [1, 1]),
                                            ([1e300j, -1e300], [1j, -1])])
    def test_amplitudes_whose_norm_overflows_are_rescaled_not_zeroed(self, huge, unit):
        # the squared norm overflows to inf, which once passed the zero check and divided every amplitude to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sv = StateVector(huge)
        assert sv.amplitudes.tobytes() == StateVector(unit).amplitudes.tobytes()
        assert sv.norm_error() < 1e-15

    @pytest.mark.parametrize("scale", [1e-5, 1.0, 1e100, 1e150])
    def test_amplitudes_whose_norm_is_finite_keep_their_bits(self, rng, scale):
        amps = scale * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
        assert StateVector(amps).amplitudes.tobytes() == (amps / np.linalg.norm(amps)).tobytes()

    def test_basis_index_out_of_range_is_refused(self):
        with pytest.raises(ValueError, match="basis index 4 out of range for 2 qubits"):
            StateVector.basis(2, 4)

    def test_states_of_different_widths_are_not_close(self):
        assert not tn.states_close(StateVector.zero(1), StateVector.zero(2))

    def test_from_bits_is_little_endian(self):
        # qubit 1 set -> index 2
        assert StateVector.from_bits([0, 1]).amplitudes[2] == 1.0

    @pytest.mark.parametrize("num_qubits, index, name, got", [
        (2, True, "index", "True"), (2, np.True_, "index", "np.True_"), (2, 1.5, "index", "1.5"),
        (True, 0, "num_qubits", "True"), (2.5, 0, "num_qubits", "2.5"), ("2", 0, "num_qubits", "'2'"),
    ])
    def test_basis_refuses_bools_and_non_integral_values(self, num_qubits, index, name, got):
        # a bool index was read by numpy as a mask, which set every amplitude
        with pytest.raises(ValueError, match=f"{name} takes integers, got {re.escape(got)}$"):
            StateVector.basis(num_qubits, index)

    def test_integral_values_of_any_type_are_read_as_their_int(self):
        want = StateVector.basis(2, 1).amplitudes.tobytes()
        assert StateVector.basis(2.0, 1.0).amplitudes.tobytes() == want
        assert StateVector.basis(np.int64(2), np.uint8(1)).amplitudes.tobytes() == want
        assert StateVector.from_bits([np.int64(1), 0.0]).amplitudes.tobytes() == want
        assert StateVector.zero(2.0).amplitudes.tobytes() == StateVector.zero(2).amplitudes.tobytes()

    @pytest.mark.parametrize("bits, error", [
        ([2, 1], "bits 0 or 1, got 2"), ([0, -1], "bits 0 or 1, got -1"), ([3, 2], "bits 0 or 1, got 2"),
        ([1.5], "integers, got 1.5"), ([True], "integers, got True"), ([0, np.False_], "integers, got np.False_"),
    ])
    def test_from_bits_refuses_a_bit_other_than_0_or_1(self, bits, error):
        # 2 was read as 0, and 1.5 and True as 1
        with pytest.raises(ValueError, match=f"from_bits takes {re.escape(error)}$"):
            StateVector.from_bits(bits)

    def test_immutable(self):
        sv = StateVector.zero(1)
        with pytest.raises(AttributeError):
            sv.num_qubits = 3
        with pytest.raises(ValueError):
            sv.amplitudes[0] = 5.0


class TestSingleQubitGates:
    def test_hadamard_on_zero(self):
        out = tn.apply_hadamard(StateVector.zero(1), 0)
        np.testing.assert_allclose(out.amplitudes, [SQ2, SQ2], atol=1e-15)

    def test_hadamard_on_one(self):
        # |1> -> (|0> - |1>)/sqrt(2)
        out = tn.apply_hadamard(StateVector.from_bits([1]), 0)
        np.testing.assert_allclose(out.amplitudes, [SQ2, -SQ2], atol=1e-15)

    def test_x_on_qubit1_of_00(self):
        out = tn.apply_pauli(StateVector.from_bits([0, 0]), 1, PauliOp.X)
        np.testing.assert_allclose(out.amplitudes, StateVector.from_bits([0, 1]).amplitudes)

    def test_qubit_out_of_range(self):
        with pytest.raises(IndexError):
            tn.apply_hadamard(StateVector.zero(1), 1)

    def test_gate_of_another_size_is_refused(self):
        with pytest.raises(ValueError, match=r"gate must be 2x2, got shape \(3, 3\)"):
            tn.apply_single_qubit_gate(StateVector.zero(2), 0, np.eye(3))

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            tn.apply_single_qubit_gate(StateVector.zero(1), 0, np.array([[1, 0], [0, 2]]))

    @pytest.mark.parametrize("gap, refused", [(1e-11, True), (1e-13, False)])
    def test_unitarity_bar_holds_its_tolerance(self, gap, refused):
        # U^dag U is off I by about 2 * gap on the (1,1) entry, against the 1e-12 bar
        gate = np.diag([1.0, 1.0 + gap])
        if refused:
            with pytest.raises(ValueError, match="^gate matrix is not unitary$"):
                tn.apply_single_qubit_gate(StateVector.zero(1), 0, gate)
        else:
            tn.apply_single_qubit_gate(StateVector.zero(1), 0, gate)

    @pytest.mark.parametrize("bad", [np.nan, complex(np.inf, 0.0)])
    def test_non_finite_gate_rejected(self, bad):
        # a NaN fails every comparison, and a complex inf makes U^dag U NaN
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="^gate matrix is not unitary$"):
            tn.apply_single_qubit_gate(StateVector([1, 0]), 0, np.full((2, 2), bad))

    def test_gate_touches_only_target_stride(self, rng):
        sv = random_state(3, rng)
        out = tn.apply_pauli(sv, 1, PauliOp.Z)
        # qubit-1 marginal flips sign on its 1-components, others untouched
        idx = np.arange(8)
        flip = ((idx >> 1) & 1) == 1
        expect = sv.amplitudes.copy()
        expect[flip] *= -1
        np.testing.assert_allclose(out.amplitudes, expect, atol=1e-15)

    def test_pauli_matrices_exactly_self_inverse(self):
        for op in PauliOp:
            assert np.array_equal(op.matrix @ op.matrix, np.eye(2))

    @settings(max_examples=50)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5))
    def test_norm_preserved_by_random_unitaries(self, seed, n):
        gen = np.random.default_rng(seed)
        sv = random_state(n, gen)
        out = tn.apply_single_qubit_gate(sv, int(gen.integers(n)), random_unitary2(gen))
        assert out.norm_error() <= 1e-12


class TestMeasureZ:
    def test_eigenstate(self):
        bit, p, after = tn.measure_z(StateVector.zero(1), 0, 0)
        assert (bit, p) == (0, 1.0)
        np.testing.assert_allclose(after.amplitudes, [1.0, 0.0])

    def test_plus_state_both_branches(self):
        plus = StateVector([SQ2, SQ2])
        for want in (0, 1):
            bit, p, after = tn.measure_z(plus, 0, want)
            assert bit == want
            assert p == pytest.approx(0.5, abs=1e-15)
            assert after.amplitudes[want] == pytest.approx(1.0, abs=1e-15)

    def test_ghz3_first_qubit(self):
        ghz = tn.prepare_ghz(3, +1)
        expected_p = born_z_probability(ghz.amplitudes, 0, 0)
        bit, p, after = tn.measure_z(ghz, 0, 0)
        assert p == pytest.approx(expected_p, abs=1e-15) == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_allclose(after.amplitudes, StateVector.from_bits([0, 0, 0]).amplitudes, atol=1e-15)

    def test_zero_probability_branch_rejected(self):
        with pytest.raises(ValueError):
            tn.measure_z(StateVector.zero(1), 0, 1)

    def test_sampled_mode_follows_born_weights(self):
        gen = np.random.default_rng(0)
        skew = StateVector([np.sqrt(0.9), np.sqrt(0.1)])
        bits = [tn.measure_z(skew, 0, gen)[0] for _ in range(400)]
        assert 0.03 < np.mean(bits) < 0.2

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
    def test_branch_probabilities_complete(self, seed, n):
        gen = np.random.default_rng(seed)
        sv = random_state(n, gen)
        p0, p1 = tn.z_probabilities(sv, int(gen.integers(n)))
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)


# any float, with zeros of both signs and subnormals drawn often
_WEIGHT = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308])


# weights that both refuse (a zero total, NaN, an infinity, a total that
# overflows), each followed by a draw that both make
@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_WEIGHT, min_size=2, max_size=2) | st.lists(_WEIGHT, min_size=4, max_size=4),
                min_size=1, max_size=6), st.integers(0, 2**64 - 1))
@example([[0.0, 0.0], [0.25, 0.75]], 0)
@example([[-0.0, -0.0, 0.0, 0.0], [0.25, 0.75]], 0)
@example([[np.nan, 1.0], [0.25, 0.75]], 0)
@example([[np.inf, 1.0], [0.25, 0.75]], 0)
@example([[1.0, 0.0, -np.inf, np.inf], [0.25, 0.75]], 0)
@example([[1.7e308, 1.7e308], [0.25, 0.75]], 0)
def test_pick_draws_what_generator_choice_draws(draws, seed):
    """Draw after draw from one seed, ``_pick`` and ``Generator.choice`` on
    the same weights pick the same outcome and leave the generator in the
    same state, or both refuse the weights with a ValueError."""
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        for weights in draws:
            outcomes = tuple(f"outcome{k}" for k in range(len(weights)))
            try:
                want = choice_pick(theirs, outcomes, np.array(weights))
            except ValueError:
                with pytest.raises(ValueError):
                    _pick(ours, outcomes, np.array(weights))
            else:
                assert _pick(ours, outcomes, np.array(weights)) == want
            assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("d", [2, 4])
def test_pick_draws_what_generator_choice_draws_over_a_long_run(d):
    """Ten thousand draws by the Born weights of random amplitudes pick what
    choice picks: enough draws land near the cumulative weights' bounds
    that a bound moved by a thousandth shows."""
    amps = np.random.default_rng(d).standard_normal((10_000, d, 2)) @ [1, 1j]
    weights = (amps * amps.conj()).real
    ours, theirs = np.random.default_rng(0), np.random.default_rng(0)
    got = [_pick(ours, range(d), w) for w in weights]
    assert got == [choice_pick(theirs, range(d), w) for w in weights]
    assert ours.bit_generator.state == theirs.bit_generator.state


class TestMeasureX:
    def test_plus_state_is_deterministic(self):
        bit, p, after = tn.measure_x(StateVector([SQ2, SQ2]), 0, 0)
        assert (bit, p) == (0, pytest.approx(1.0, abs=1e-15))
        np.testing.assert_allclose(after.amplitudes, [SQ2, SQ2], atol=1e-15)

    def test_matches_hadamard_then_z(self, rng):
        sv = random_state(3, rng)
        for qubit in range(3):
            for bit in (0, 1):
                _, p_direct, _ = tn.measure_x(sv, qubit, bit)
                _, p_hz, _ = tn.measure_z(tn.apply_hadamard(sv, qubit), qubit, bit)
                assert p_direct == pytest.approx(p_hz, abs=1e-12)


class TestMeasureBell:
    def test_bell_eigenstate(self):
        bell = StateVector([SQ2, 0, 0, SQ2])
        outcome, p, after = tn.measure_bell(bell, (0, 1), BellOutcome.PHI_PLUS)
        assert outcome is BellOutcome.PHI_PLUS
        assert p == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(after.amplitudes, bell.amplitudes, atol=1e-15)

    def test_product_00_splits_between_phis(self):
        # |00> = (phi+ + phi-)/sqrt(2)
        probs = tn.bell_probabilities(StateVector.from_bits([0, 0]), (0, 1))
        assert probs[BellOutcome.PHI_PLUS] == pytest.approx(0.5, abs=1e-15)
        assert probs[BellOutcome.PHI_MINUS] == pytest.approx(0.5, abs=1e-15)
        assert probs[BellOutcome.PSI_PLUS] == pytest.approx(0.0, abs=1e-15)
        assert probs[BellOutcome.PSI_MINUS] == pytest.approx(0.0, abs=1e-15)

    def test_singlet(self):
        singlet = StateVector([0, SQ2, -SQ2, 0])
        outcome, p, after = tn.measure_bell(singlet, (0, 1), BellOutcome.PSI_MINUS)
        assert p == pytest.approx(1.0, abs=1e-15)
        assert tn.states_close(after, singlet, atol=1e-12)

    def test_identical_indices_rejected(self):
        with pytest.raises(ValueError):
            tn.measure_bell(StateVector.zero(2), (1, 1), BellOutcome.PHI_PLUS)

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            tn.measure_bell(StateVector.zero(2), (0, 2), BellOutcome.PHI_PLUS)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5))
    def test_born_completeness(self, seed, n):
        gen = np.random.default_rng(seed)
        sv = random_state(n, gen)
        qa, qb = gen.choice(n, size=2, replace=False)
        probs = tn.bell_probabilities(sv, (int(qa), int(qb)))
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_pair_order_flips_psi_minus_sign_only(self, rng):
        sv = random_state(3, rng)
        a = tn.bell_probabilities(sv, (0, 2))
        b = tn.bell_probabilities(sv, (2, 0))
        for outcome in BellOutcome:
            assert a[outcome] == pytest.approx(b[outcome], abs=1e-12)


class TestPartialTrace:
    def test_product_state_factor(self):
        state = tn.tensor(StateVector.zero(1), StateVector([SQ2, SQ2]))
        rho = tn.partial_trace(state, [0])
        np.testing.assert_allclose(rho.matrix, [[1, 0], [0, 0]], atol=1e-15)

    def test_bell_pair_gives_maximally_mixed(self):
        rho = tn.partial_trace(StateVector([SQ2, 0, 0, SQ2]), [0])
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-15)

    def test_post_hadamard_network_state_matches_dense_oracle(self):
        # Three qubits [receiver, control, sender]; alpha^2 = 0.3.  The sender
        # has applied her Hadamard; the receiver's qubit reduces to the same
        # operator whichever sender bit is later read off.
        alpha, beta = np.sqrt(0.3), np.sqrt(0.7)
        plain = np.array([alpha, beta])
        primed = np.array([alpha, -beta])
        amps = np.zeros(8, dtype=complex)
        for sender_bit in (0, 1):
            sign = 1.0 if sender_bit == 0 else -1.0
            for control_bit, ket in ((0, plain + primed), (1, sign * (plain - primed))):
                for r in (0, 1):
                    amps[r + (control_bit << 1) + (sender_bit << 2)] += ket[r]
        state = StateVector(amps)
        rho = tn.partial_trace(state, [0])
        oracle = partial_trace_dense(state.amplitudes, [0])
        np.testing.assert_allclose(rho.matrix, oracle, atol=1e-12)
        np.testing.assert_allclose(rho.matrix, np.diag([0.3, 0.7]), atol=1e-12)

    def test_matches_dense_oracle_on_random_states(self, rng):
        for keep in ([0], [1, 3], [0, 2], [2], [0, 1, 2, 3]):
            sv = random_state(4, rng)
            got = tn.partial_trace(sv, keep)
            np.testing.assert_allclose(got.matrix, partial_trace_dense(sv.amplitudes, keep), atol=1e-12)

    def test_density_matrix_input(self, rng):
        sv = random_state(3, rng)
        rho = DensityMatrix.from_state(sv)
        got = tn.partial_trace(rho, [0, 2])
        np.testing.assert_allclose(got.matrix, partial_trace_dense(sv.amplitudes, [0, 2]), atol=1e-12)

    def test_keep_all_is_outer_product(self, rng):
        sv = random_state(3, rng)
        rho = tn.partial_trace(sv, range(3))
        np.testing.assert_allclose(rho.matrix, np.outer(sv.amplitudes, sv.amplitudes.conj()), atol=1e-12)

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            tn.partial_trace(StateVector.zero(2), [])

    @pytest.mark.parametrize("keep", [[2], [0, 2], [-1]])
    def test_keep_outside_the_state_is_refused(self, keep):
        with pytest.raises(IndexError, match="out of range for 2 qubits"):
            tn.partial_trace(StateVector.zero(2), keep)


class TestDensityMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match=r"density matrix must be square, got shape \(2, 4\)"):
            DensityMatrix(np.eye(2, 4) / 2)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("past, within, message", [
        ([[0.5, 1e-9], [0.0, 0.5]], [[0.5, 1e-14], [0.0, 0.5]], "not Hermitian"),
        (np.diag([0.5, 0.5 + 1e-9]), np.diag([0.5, 0.5 + 1e-14]), "trace is not 1"),
        (np.diag([1 + 1e-8, -1e-8]), np.diag([1 + 1e-14, -1e-14]), "negative eigenvalue"),
    ], ids=["hermitian", "trace", "eigenvalue"])
    def test_each_check_holds_its_tolerance(self, past, within, message):
        """Just past a check's bar (1e-12 for the hermitian and trace checks, -1e-10 for the
        eigenvalue floor) is refused with that check's message; 1e-14 off is accepted."""
        with pytest.raises(ValueError, match=message):
            DensityMatrix(past)
        DensityMatrix(within)


class TestFidelity:
    def test_self_fidelity(self, rng):
        sv = random_state(2, rng)
        assert tn.fidelity(sv, sv) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        assert tn.fidelity(StateVector.from_bits([0]), StateVector.from_bits([1])) == 0.0

    def test_mixed_pure_case(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]))
        target = StateVector([np.sqrt(0.3), np.sqrt(0.7)])
        # <t|rho|t> = 0.3^2 + 0.7^2
        assert tn.fidelity(rho, target) == pytest.approx(0.58, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tn.fidelity(StateVector.zero(1), StateVector.zero(2))

    @settings(max_examples=50)
    @given(seed=st.integers(0, 2**32 - 1), theta=st.floats(0, 2 * np.pi))
    def test_global_phase_invariance(self, seed, theta):
        gen = np.random.default_rng(seed)
        sv = random_state(2, gen)
        rotated = StateVector(np.exp(1j * theta) * sv.amplitudes)
        assert abs(tn.fidelity(rotated, sv) - 1.0) <= 1e-12


class TestProjection:
    def test_projection_probability_and_state(self):
        plus = StateVector([SQ2, SQ2])
        p, after = tn.project_onto_qubit_state(plus, 0, [1.0, 0.0])
        assert p == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_allclose(after.amplitudes, [1.0, 0.0], atol=1e-15)

    def test_unnormalized_target_rejected(self):
        with pytest.raises(ValueError):
            tn.project_onto_qubit_state(StateVector.zero(1), 0, [1.0, 1.0])

    @pytest.mark.parametrize("ket", [[np.nan, 0.0], [complex(np.nan, np.inf), 1.0]])
    def test_nan_target_rejected(self, ket):
        # its norm is NaN, which passes every comparison
        with pytest.raises(ValueError, match="^projection target must be normalized$"):
            tn.project_onto_qubit_state(StateVector([SQ2, 0, 0, SQ2]), 0, ket)


class TestProjectionKernel:
    """Every per-branch measurement against an index-loop projection, on
    random states: probability, post-measurement amplitudes, and a sampled
    outcome."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5))
    def test_measurements_match_index_loop_oracle(self, seed, n):
        gen = np.random.default_rng(seed)
        sv = random_state(n, gen)
        q = int(gen.integers(n))
        ket = gen.standard_normal(2) + 1j * gen.standard_normal(2)
        ket /= np.linalg.norm(ket)
        cases = [
            (tn.measure_z, q, {0: [1, 0], 1: [0, 1]}),
            (tn.measure_x, q, {0: [SQ2, SQ2], 1: [SQ2, -SQ2]}),
        ]
        if n >= 2:
            qa, qb = (int(x) for x in gen.choice(n, size=2, replace=False))
            bell = {o: o.vector for o in BellOutcome}
            cases += [(tn.measure_bell, (qa, qb), bell), (tn.measure_bell, (qb, qa), bell)]
        for measure, where, kets in cases:
            qubits = where if isinstance(where, tuple) else (where,)
            for outcome, vec in kets.items():
                got, p, after = measure(sv, where, outcome)
                want_p, want = project_dense(sv.amplitudes, qubits, vec)
                assert got == outcome
                assert abs(p - want_p) <= 1e-12
                np.testing.assert_allclose(after.amplitudes, want, rtol=0, atol=1e-12)
            drawn, p, after = measure(sv, where, np.random.default_rng(seed))
            assert drawn in kets
            np.testing.assert_allclose(after.amplitudes, project_dense(sv.amplitudes, qubits, kets[drawn])[1],
                                       rtol=0, atol=1e-12)
        p, after = tn.project_onto_qubit_state(sv, q, ket)
        want_p, want = project_dense(sv.amplitudes, (q,), ket)
        assert abs(p - want_p) <= 1e-12
        np.testing.assert_allclose(after.amplitudes, want, rtol=0, atol=1e-12)
