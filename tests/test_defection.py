import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import teleportnet as tn
from teleportnet import (
    BellOutcome,
    DiagonalForm,
    MessageSpec,
    NetworkShape,
    StateVector,
)

from teleportnet.cli import PRESETS
from teleportnet.protocol import _BELL_ORDER, _baseline_branches, _network_branches

from _oracles import (defection_mixture, entangled_info_walk, joint_stack_marginals, max_eigenvalue,
                      pauli_frame_branch, qubit_marginal_dense, whole_grid_recovery)

GRID = tn.recovery_unitaries(num_random=300, seed=3)
RECOVERY_GRIDS = {
    "1": GRID[-1:],
    "2": GRID[-2:],
    "3": GRID[-3:],
    "cliffords": tn.recovery_unitaries(num_random=0, seed=0),
    "GRID": GRID,
    "default": tn.recovery_unitaries(),
}
# faults put into normalized kept rows: non-finite entries, whole rows scaled
# by 1 + s (s far from the 1e-12 trace tolerance, on either side), zeroed rows
# and perturbed entries
JOINT_FAULTS = ["nan", "inf", "-inf", 1e-3, -1e-3, 1e-10, -1e-10, 1e-14, "zero", "perturb"]
STACK_KINDS = ["density", "near_diagonal", "maximally_mixed", "pure", "scaled_non_hermitian", "zero", "nan_row",
               "repeated"]


def _report_by_key(reports):
    return {(r.bell_outcomes, r.cooperator_bits): r for r in reports}


class TestSingleAgentDefection:
    def test_diag_for_phi_minus(self):
        spec = MessageSpec(((np.sqrt(0.3), np.sqrt(0.7)),))
        reports = tn.analyze_defection(spec, NetworkShape.single(1, 1), 0, unitaries=GRID)
        for r in reports:
            if r.bell_outcomes[0] is BellOutcome.PHI_MINUS:
                np.testing.assert_allclose(r.per_qubit_density[0].matrix, np.diag([0.3, 0.7]), atol=1e-12)
                assert r.conforms_to[0] is DiagonalForm.PRESERVED

    def test_diag_swapped_for_psi_plus(self):
        spec = MessageSpec(((np.sqrt(0.3), np.sqrt(0.7)),))
        reports = tn.analyze_defection(spec, NetworkShape.single(1, 1), 0, unitaries=GRID)
        for r in reports:
            if r.bell_outcomes[0] is BellOutcome.PSI_PLUS:
                np.testing.assert_allclose(r.per_qubit_density[0].matrix, np.diag([0.7, 0.3]), atol=1e-12)
                assert r.conforms_to[0] is DiagonalForm.SWAPPED

    def test_basis_state_message_survives_defection(self):
        # amplitude-only information is enough when beta = 0
        reports = tn.analyze_defection(MessageSpec(((1.0, 0.0),)), NetworkShape.single(1, 1), 0, unitaries=GRID)
        for r in reports:
            assert r.max_fidelity[0] == pytest.approx(1.0, abs=1e-9)

    def test_off_diagonals_vanish(self, rng):
        for m, n in itertools.product((1, 2), (1, 2)):
            spec = MessageSpec.random(m, rng)
            for defector in range(n):
                for r in tn.analyze_defection(spec, NetworkShape.single(m, n), defector, unitaries=GRID):
                    assert r.off_diagonal_norm < 1e-12

    def test_conforms_follows_own_pair_outcome(self, rng):
        spec = MessageSpec.random(2, rng)
        for r in tn.analyze_defection(spec, NetworkShape.single(2, 2), 1, unitaries=GRID):
            for i, outcome in enumerate(r.bell_outcomes):
                phi = outcome in (BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS)
                want = DiagonalForm.PRESERVED if phi else DiagonalForm.SWAPPED
                assert r.conforms_to[i] is want

    def test_outcome_locality(self, rng):
        # the per-qubit operator is unchanged when the other pair's outcome varies
        spec = MessageSpec.random(2, rng)
        reports = tn.analyze_defection(spec, NetworkShape.single(2, 1), 0, unitaries=GRID)
        groups = {}
        for r in reports:
            for i in range(2):
                groups.setdefault((i, r.bell_outcomes[i]), []).append(r.per_qubit_density[i].matrix)
        for mats in groups.values():
            for mat in mats[1:]:
                np.testing.assert_allclose(mat, mats[0], atol=1e-12)

    def test_defector_identity_is_irrelevant(self, rng):
        spec = MessageSpec.random(1, rng)
        shape = NetworkShape.single(1, 3)
        baseline = None
        for defector in range(3):
            reports = tn.analyze_defection(spec, shape, defector, unitaries=GRID)
            summary = sorted(
                (tuple(o.value for o in r.bell_outcomes),
                 tuple(np.round(np.diag(r.per_qubit_density[0].matrix).real, 12)))
                for r in reports
            )
            if baseline is None:
                baseline = summary
            else:
                assert summary == baseline

    def test_probabilities_sum_to_one(self, rng):
        spec = MessageSpec.random(2, rng)
        reports = tn.analyze_defection(spec, NetworkShape.single(2, 2), 0, unitaries=GRID)
        assert len(reports) == 4**2 * 2**2
        assert sum(r.probability for r in reports) == pytest.approx(1.0, abs=1e-9)

    def test_bad_defector_rejected(self, rng):
        with pytest.raises(IndexError):
            tn.analyze_defection(MessageSpec.random(1, rng), NetworkShape.single(1, 1), 1)

    def test_every_receiver_is_denied(self, rng):
        # two receivers: both are left with diagonal per-qubit operators
        specs = [MessageSpec.random(1, rng), MessageSpec.random(1, rng)]
        shape = NetworkShape((1, 1), 2)
        reports = tn.analyze_defection(specs, shape, 1, unitaries=GRID)
        assert len(reports) == 4**2 * 2**2
        flat = [q for s in specs for q in s.qubits]
        for r in reports:
            assert r.off_diagonal_norm < 1e-12
            assert len(r.per_qubit_density) == 2
            for i, (alpha, beta) in enumerate(flat):
                diag = np.diag(r.per_qubit_density[i].matrix).real
                if r.bell_outcomes[i] in (BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS):
                    np.testing.assert_allclose(diag, [abs(alpha) ** 2, abs(beta) ** 2], atol=1e-12)
                else:
                    np.testing.assert_allclose(diag, [abs(beta) ** 2, abs(alpha) ** 2], atol=1e-12)


class TestTwoPartyDefection:
    def test_density_matches_mixture_oracle(self, rng):
        spec = MessageSpec.random(2, rng)
        for r in tn.analyze_two_party_defection(spec):
            expect = defection_mixture(r.bell_outcomes, spec.qubits)
            np.testing.assert_allclose(r.joint_density.matrix, expect, atol=1e-12)

    def test_independent_of_sender_bit(self, rng):
        spec = MessageSpec.random(2, rng)
        by_outcome = {}
        for r in tn.analyze_two_party_defection(spec):
            by_outcome.setdefault(r.bell_outcomes, []).append(r.joint_density.matrix)
        for mats in by_outcome.values():
            assert len(mats) == 2  # sender bit 0 and 1
            np.testing.assert_allclose(mats[0], mats[1], atol=1e-12)

    def test_single_qubit_case_diag(self):
        spec = MessageSpec(((np.sqrt(0.3), np.sqrt(0.7)),))
        for r in tn.analyze_two_party_defection(spec):
            if r.bell_outcomes[0] is BellOutcome.PHI_PLUS:
                np.testing.assert_allclose(r.joint_density.matrix, np.diag([0.3, 0.7]), atol=1e-12)

    def test_marginal_independent_of_other_pair(self, rng):
        spec = MessageSpec.random(2, rng)
        reports = tn.analyze_two_party_defection(spec)
        first_marginals = {}
        for r in reports:
            first_marginals.setdefault(r.bell_outcomes[0], []).append(r.per_qubit_density[0].matrix)
        for mats in first_marginals.values():
            for mat in mats[1:]:
                np.testing.assert_allclose(mat, mats[0], atol=1e-12)


class TestRecoveryCeiling:
    def test_no_recovery_fidelity_is_fourth_power_sum(self, rng):
        (alpha, beta), = MessageSpec.random(1, rng).qubits
        rho = np.diag([abs(alpha) ** 2, abs(beta) ** 2]).astype(complex)
        target = StateVector([alpha, beta])
        got = tn.fidelity(tn.DensityMatrix(rho), target)
        assert got == pytest.approx(abs(alpha) ** 4 + abs(beta) ** 4, abs=1e-12)

    def test_grid_best_bounded_by_top_eigenvalue(self, rng):
        for _ in range(5):
            (alpha, beta), = MessageSpec.random(1, rng).qubits
            rho = np.diag([abs(alpha) ** 2, abs(beta) ** 2]).astype(complex)
            best = tn.max_recovery_fidelity(rho, [alpha, beta], GRID)
            assert best <= max_eigenvalue(rho) + 1e-12

    def test_full_support_never_fully_recovered(self, rng):
        spec = MessageSpec.balanced_random_phases(1, rng)
        (alpha, beta), = spec.qubits
        for r in tn.analyze_defection(spec, NetworkShape.single(1, 1), 0, unitaries=GRID):
            margin = 2 * abs(alpha * beta) ** 2 * (1 - 1e-6)
            assert r.max_fidelity[0] < 1.0 - margin

    def test_default_grid_is_cached_read_only(self):
        grid = tn.recovery_unitaries()
        assert tn.recovery_unitaries() is grid
        assert not grid.flags.writeable
        np.testing.assert_array_equal(grid, tn.defection._build_grid(1000, 7))
        fresh = tn.recovery_unitaries(num_random=1000, seed=8)
        assert fresh.flags.writeable and fresh is not tn.recovery_unitaries(num_random=1000, seed=8)

    def test_an_integral_numpy_grid_size_and_seed_take_the_cached_grid(self):
        assert tn.recovery_unitaries(np.int64(1000), np.int64(7)) is tn.recovery_unitaries()
        np.testing.assert_array_equal(tn.recovery_unitaries(np.int64(3), np.int64(1)),
                                      tn.recovery_unitaries(3, 1))

    @pytest.mark.parametrize("name,value,message", [
        ("num_random", -1, "must be non-negative, got -1"), ("seed", -1, "must be non-negative, got -1"),
        ("num_random", np.int64(-5), "must be non-negative, got -5"), ("num_random", 2.5, "takes integers, got 2.5"),
        ("num_random", True, "takes integers, got True"), ("seed", True, "takes integers, got True"),
        ("seed", "7", "takes integers, got '7'"), ("num_random", None, "takes integers, got None"),
    ])
    def test_a_grid_size_or_seed_that_is_not_a_non_negative_integer_is_refused_by_name(self, name, value, message):
        with pytest.raises(ValueError, match=rf"^{name} {message}$"):
            tn.recovery_unitaries(**{name: value})

    def test_grid_contains_24_cliffords(self):
        grid = tn.recovery_unitaries(num_random=10, seed=0)
        assert grid.shape == (34, 2, 2)
        eye = np.einsum("gba,gbc->gac", grid.conj(), grid)
        np.testing.assert_allclose(eye, np.broadcast_to(np.eye(2), (34, 2, 2)), atol=1e-12)

    def test_cliffords_are_the_exact_group_up_to_phase(self):
        """The 24 Cliffords start with I, are pairwise distinct and closed under products up to
        phase, and every real and imaginary part is exactly 0, +-1/2, +-1 or +-1/sqrt(2)."""
        grid = tn.recovery_unitaries(num_random=0, seed=0)
        assert grid.shape == (24, 2, 2)
        np.testing.assert_array_equal(grid[0], np.eye(2))
        # |tr(A^dag B)| is 2 exactly when A and B agree up to phase, and under 2 - 0.5 otherwise
        same = np.abs(np.einsum("iab,jab->ij", grid.conj(), grid)) > 1.5
        np.testing.assert_array_equal(same, np.eye(24, dtype=bool))
        products = np.einsum("iab,jbc->ijac", grid, grid).reshape(-1, 2, 2)
        found = np.abs(np.einsum("pab,kab->pk", products.conj(), grid)) > 1.5
        assert found.sum(axis=1).tolist() == [1] * 24**2
        r = float(tn.states.HADAMARD[0, 0].real)
        parts = set(grid.real.ravel().tolist()) | set(grid.imag.ravel().tolist())
        assert parts <= {0.0, 0.5, -0.5, 1.0, -1.0, r, -r}, sorted(parts)


def _stack(kind: str, size: int, rng: np.random.Generator) -> np.ndarray:
    """A (size, 2, 2) stack of one kind of operator."""
    z = rng.standard_normal((size, 2, 2)) + 1j * rng.standard_normal((size, 2, 2))
    if kind == "density":
        rho = z @ z.conj().transpose(0, 2, 1)
        return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    if kind == "near_diagonal":  # as defection leaves them: off-diagonals at the rounding level
        p = rng.random(size)
        rho = np.zeros((size, 2, 2), dtype=complex)
        rho[:, 0, 0], rho[:, 1, 1], rho[:, 0, 1] = p, 1 - p, 1e-17 * z[:, 0, 1]
        rho[:, 1, 0] = rho[:, 0, 1].conj()
        return rho
    if kind == "maximally_mixed":  # every unitary ties
        return np.broadcast_to(np.eye(2) / 2, (size, 2, 2)).astype(complex)
    if kind == "pure":
        v = z[:, 0] / np.linalg.norm(z[:, 0], axis=1, keepdims=True)
        return v[:, :, None] * v[:, None, :].conj()
    if kind == "scaled_non_hermitian":
        return 1e8 * z
    if kind == "zero":
        return np.zeros((size, 2, 2), dtype=complex)
    if kind == "repeated":  # a few operators, repeated, with copies one zero's sign or one ulp apart
        return _repeated_rows(_stack("near_diagonal", 3, rng).reshape(3, 4), rng)[:size].reshape(-1, 2, 2)
    rho = _stack("density", size, rng)  # "nan_row": one operator holds a NaN
    rho[rng.integers(size), 0, 1] = np.nan
    return rho


def _repeated_rows(rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """At least 130 shuffled copies of the complex ``rows``, one entry of each
    row zeroed first; one copy of each carries that zero as -0.0, another
    one entry moved by one ulp."""
    rows = rows.copy()
    rows[:, 1] = 0.0
    signed = rows.copy()
    signed[:, 1] = complex(-0.0, -0.0)
    ulp = rows.copy()
    ulp.real[:, 0] = np.nextafter(ulp.real[:, 0], np.inf)
    copies = np.concatenate([np.tile(rows, (-(-130 // len(rows)), 1)), signed, ulp])
    return copies[rng.permutation(len(copies))]


class TestRecoverySearch:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(STACK_KINDS),
        st.sampled_from([1, 63, 64, 65, 130]),
        st.sampled_from(sorted(RECOVERY_GRIDS)),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_the_whole_grid_bit_for_bit(self, kind, size, grid, seed):
        rng = np.random.default_rng(seed)
        rhos, us = _stack(kind, size, rng), RECOVERY_GRIDS[grid]
        target = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        want = whole_grid_recovery(rhos, target, us)
        got = tn.defection._best_recovery(rhos, target, us)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        if size == 1:
            single = np.array([tn.max_recovery_fidelity(rhos[0], target, us)])
            np.testing.assert_array_equal(single.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("grid", sorted(RECOVERY_GRIDS))
    def test_a_lone_operator_takes_its_value_in_any_stack(self, grid):
        # the library's single call and a table's search among others give one operator the same bits
        rng = np.random.default_rng(0)
        z = rng.standard_normal((200, 2, 2)) + 1j * rng.standard_normal((200, 2, 2))
        rhos = z @ z.conj().transpose(0, 2, 1)
        rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
        targets = rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2))
        us = RECOVERY_GRIDS[grid]
        for rho, target in zip(rhos, targets):
            single = np.float64(tn.max_recovery_fidelity(rho, target, us)).view(np.uint64)
            for k in (2, 3, 65):
                assert tn.defection._best_recovery(np.stack([rho] * k), target, us)[:1].view(np.uint64) == single

    @pytest.mark.parametrize("counts,agents,defector", [((3,), 3, 2), ((1, 2), 3, 3)])
    def test_grid_value_is_under_the_top_eigenvalue(self, counts, agents, defector):
        # defector is 1-based, as on the command line
        rng = np.random.default_rng(7)
        specs = [MessageSpec.random(m, rng) for m in counts]
        reports = tn.analyze_defection(specs, NetworkShape(counts, agents), defector - 1)
        rhos = np.array([[d.matrix for d in r.per_qubit_density] for r in reports])
        best = np.array([r.max_fidelity for r in reports])
        assert best.shape == (len(reports), sum(counts))
        assert np.all(best <= np.linalg.eigvalsh(rhos).max(axis=-1) + 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([1, 2, 3]),
        st.sampled_from([1, 3, 65]),
        st.sampled_from(sorted(RECOVERY_GRIDS)),
        st.integers(0, 2**32 - 1),
    )
    def test_defection_table_matches_the_whole_grid_per_row(self, total, distinct, grid, seed):
        # the table searches each distinct marginal once: every row must keep the bits
        # of a search over the whole stack, whose blocks are never a lone operator
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((distinct, 2 << total)) + 1j * rng.standard_normal((distinct, 2 << total))
        rows[:, 1] = 0.0
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        kept = _repeated_rows(rows, rng) if distinct == 3 else np.repeat(rows, 4, axis=0)
        qubits = [tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2)) for _ in range(total)]
        t = tn.defection._defection_table(np.zeros((len(kept), 0), int), np.ones(len(kept)), kept, qubits,
                                          RECOVERY_GRIDS[grid])
        assert t.best.shape == (len(kept), total)
        for (ops, inverse), pair, best in zip(t.operators, qubits, t.best.T):
            want = whole_grid_recovery(ops[inverse], pair, RECOVERY_GRIDS[grid])
            np.testing.assert_array_equal(best.view(np.uint64), want.view(np.uint64))

    def test_bits_do_not_depend_on_the_memory_layout(self):
        # the einsum rounds by the strides it is given: the search must make the layout its own
        rng = np.random.default_rng(18)
        us = tn.recovery_unitaries()
        for rho in _stack("density", 500, rng):
            target = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            want = np.float64(tn.max_recovery_fidelity(rho, target, us)).view(np.uint64)
            for copy in (np.asfortranarray(rho), rho.T.copy().T):
                assert np.float64(tn.max_recovery_fidelity(copy, target, us)).view(np.uint64) == want
        for _ in range(100):
            rhos = _stack("density", 8, rng)
            target = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            want = tn.defection._best_recovery(rhos, target, us)
            got = tn.defection._best_recovery(np.asfortranarray(rhos), target, us)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_search_memory_is_bounded_by_the_block(self):
        # 4,096 operators against the 1,024-unitary grid: one unblocked einsum would hold 64 MiB
        rhos = _stack("density", 4096, np.random.default_rng(5))
        us = tn.recovery_unitaries()
        tracemalloc.start()
        try:
            tn.defection._best_recovery(rhos, (0.6, 0.8j), us)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 << 20

    def test_zero_target_is_refused(self):
        with pytest.raises(ValueError, match="target is the zero vector"):
            tn.max_recovery_fidelity(np.eye(2) / 2, [0, 0], GRID)

    @pytest.mark.parametrize("extreme, plain", [([1e200, 0], [1, 0]), ([1e-170, 0], [1, 0]),
                                                ([1e-160, 1e-160], [1, 1])])
    def test_target_whose_squared_norm_is_not_a_normal_float_is_rescaled(self, extreme, plain):
        # unscaled, these gave 0.0, NaN with divide-by-zero warnings, and 1.0000111329412578
        rho = np.diag([1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = tn.max_recovery_fidelity(rho, extreme)
        assert np.float64(got).tobytes() == np.float64(tn.max_recovery_fidelity(rho, plain)).tobytes()

    def test_two_qubit_operator_is_refused(self):
        with pytest.raises(ValueError, match=r"must be 2x2, not \(4, 4\)"):
            tn.max_recovery_fidelity(np.eye(4) / 4, [1, 0], GRID)

    def test_grid_that_is_not_a_stack_of_2x2_matrices_is_refused(self, rng):
        # a (3, 1, 2) grid once broadcast against the operator and returned 1.0
        with pytest.raises(ValueError, match=r"\(k, 2, 2\) stack of unitaries, not \(3, 1, 2\)"):
            tn.max_recovery_fidelity(np.eye(2) / 2, [1, 0], np.ones((3, 1, 2), dtype=complex))
        with pytest.raises(ValueError, match=r"\(k, 2, 2\) stack of unitaries, not \(2, 2\)"):
            tn.analyze_defection(MessageSpec.random(1, rng), NetworkShape.single(1, 1), 0, unitaries=np.eye(2))

    def test_target_of_three_amplitudes_is_refused(self):
        with pytest.raises(ValueError, match="target must be 2 amplitudes, not 3"):
            tn.max_recovery_fidelity(np.eye(2) / 2, [1, 0, 0], GRID)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_is_refused(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="target must be finite"):
                tn.max_recovery_fidelity(np.eye(2) / 2, [bad, 0], GRID)

    @pytest.mark.parametrize("grid", [5 * np.stack([np.eye(2)] * 2), np.zeros((2, 2, 2)),
                                      np.full((1, 2, 2), np.nan), np.array([[[1, 0], [0, 1 + 1e-11]]])],
                             ids=["scaled", "zeros", "nan", "off-by-1e-11"])
    def test_grid_that_is_not_unitary_is_refused(self, rng, grid):
        # a scaled identity once returned a "fidelity" of 12.5, and a grid of zeros 0.0
        with pytest.raises(ValueError, match="grid holds a matrix that is not unitary"):
            tn.max_recovery_fidelity(np.eye(2) / 2, [1, 0], grid)
        with pytest.raises(ValueError, match="grid holds a matrix that is not unitary"):
            tn.analyze_defection(MessageSpec.random(1, rng), NetworkShape.single(1, 1), 0, unitaries=grid)
        with pytest.raises(ValueError, match="grid holds a matrix that is not unitary"):
            tn.analyze_baseline_defection(MessageSpec.random(1, rng), NetworkShape.single(1, 1), 0, unitaries=grid)

    def test_every_grid_of_the_tests_is_unitary(self):
        for grid in RECOVERY_GRIDS.values():
            assert tn.defection._recovery_grid(grid) is grid

    @pytest.mark.parametrize("defector", [-1, 2])
    def test_defector_out_of_range_is_refused_before_the_grid(self, rng, defector):
        spec, shape = MessageSpec.random(1, rng), NetworkShape.single(1, 2)
        with pytest.raises(IndexError, match=f"defector {defector} out of range for 2 agents"):
            tn.analyze_defection(spec, shape, defector, unitaries=np.zeros((1, 2, 2)))
        with pytest.raises(IndexError, match=f"defector {defector} out of range for 2 agents"):
            tn.analyze_baseline_defection(spec, shape, defector, unitaries=np.zeros((1, 2, 2)))

    @pytest.mark.parametrize("defector", [True, 1.5])
    def test_a_defector_that_is_not_an_integer_is_refused_before_the_grid(self, rng, defector):
        spec, shape = MessageSpec.random(1, rng), NetworkShape.single(1, 3)
        for analyze in (tn.analyze_defection, tn.analyze_baseline_defection):
            with pytest.raises(ValueError, match=f"^defector takes integers, got {defector!r}$"):
                analyze(spec, shape, defector, unitaries=np.zeros((1, 2, 2)))

    def test_an_integral_numpy_defector_is_reported_as_an_int(self, rng):
        spec, shape = MessageSpec.random(1, rng), NetworkShape.single(1, 3)
        for analyze in (tn.analyze_defection, tn.analyze_baseline_defection):
            reports = analyze(spec, shape, np.int64(1), unitaries=GRID[:3])
            assert {(type(r.defector), r.defector) for r in reports} == {(int, 1)}

    def test_empty_grid_is_refused(self, rng):
        empty = np.empty((0, 2, 2), dtype=complex)
        with pytest.raises(ValueError, match="grid has no unitaries"):
            tn.max_recovery_fidelity(np.eye(2) / 2, [1, 0], empty)
        with pytest.raises(ValueError, match="grid has no unitaries"):
            tn.analyze_defection(MessageSpec.random(1, rng), NetworkShape.single(1, 1), 0, unitaries=empty)


class TestDefectionTableChecks:
    """A faulty operator is refused on the ``run`` path, however many
    bitwise-identical good ones surround it."""

    @staticmethod
    def _table(kept):
        total = kept.shape[1].bit_length() - 2
        return tn.defection._defection_table(np.zeros((len(kept), 0), int), np.ones(len(kept)), kept,
                                             [(1.0, 0.0)] * total, GRID)

    @staticmethod
    def _copies(total, rng, count=200):
        row = rng.standard_normal(2 << total) + 1j * rng.standard_normal(2 << total)
        return np.tile(row / np.linalg.norm(row), (count, 1))

    @pytest.mark.parametrize("total", [1, 2, 3])
    def test_good_copies_pass(self, total, rng):
        t = self._table(self._copies(total, rng))
        assert (t.best == t.best[0]).all()

    @pytest.mark.parametrize("total", [1, 2, 3])
    @pytest.mark.parametrize("fault", ["scaled", "infinite"])
    def test_one_faulty_branch_is_refused(self, total, fault, rng):
        kept = self._copies(total, rng)
        if fault == "scaled":
            kept[137] *= 1.001
        else:
            kept[137, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="^density matrix trace is not 1$"):
            self._table(kept)

    @pytest.mark.parametrize("total", [1, 2, 3])
    def test_fault_in_every_copy_is_refused(self, total, rng):
        with pytest.raises(ValueError, match="^density matrix trace is not 1$"):
            self._table(1.001 * self._copies(total, rng))

    @pytest.mark.parametrize("nan_first", [True, False])
    def test_first_failing_check_is_raised_across_dual_blocks(self, nan_first, rng):
        # a NaN fails the finite check and a scaled branch the trace check,
        # which comes first, whichever block of 512 branches each falls in
        block = 512
        kept = self._copies(2, rng, count=3 * block)
        nan, scaled = (10, 2 * block + 10) if nan_first else (2 * block + 10, 10)
        kept[nan, 0] = np.nan
        kept[scaled] *= 1.001
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="^density matrix trace is not 1$"):
            self._table(kept)

    @staticmethod
    def _refusal(check, stack):
        try:
            check(stack)
        except ValueError as exc:
            return str(exc)
        return None

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([2, 3]),
        st.integers(1, 1199),
        st.lists(st.tuples(st.sampled_from(JOINT_FAULTS), st.integers(0, 2**20)), max_size=3),
        st.integers(0, 2**32 - 1),
    )
    def test_refuses_exactly_as_the_joint_operators_check(self, total, count, faults, seed):
        # every branch's joint operator is checked through its marginals: the table
        # refuses, with the same message, exactly when the stack of joints is refused
        rng = np.random.default_rng(seed)
        kept = rng.standard_normal((count, 2 << total)) + 1j * rng.standard_normal((count, 2 << total))
        kept /= np.linalg.norm(kept, axis=1, keepdims=True)
        with np.errstate(invalid="ignore"):
            for fault, at in faults:
                row, col = at % count, at % (2 << total)
                if fault == "zero":
                    kept[row] = 0
                elif fault == "perturb":
                    kept[row, col] += 1e-3j
                elif isinstance(fault, str):
                    kept[row, col] = float(fault)
                else:
                    kept[row] *= 1 + fault
            halves = kept.reshape(count, 2, 1 << total)
            want = self._refusal(tn.DensityMatrix._check_stack, np.einsum("bdi,bdj->bij", halves, halves.conj()))
            got = self._refusal(self._table, kept)
        assert got == want

    def test_joint_check_holds_no_copy_of_kept(self):
        spec = MessageSpec.random(5, np.random.default_rng(0))
        outcomes, probs, kept = tn.protocol._network_branches([spec], NetworkShape.single(5, 3), defector=0)
        us = tn.recovery_unitaries()
        tracemalloc.start()
        try:
            tn.defection._defection_table(outcomes, probs, kept, spec.qubits, us)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.6 * kept.nbytes


class TestNonFiniteOperators:
    """NaN passes every comparison, so the checks refuse it by name."""

    def test_nan_density_matrix_is_refused(self):
        with pytest.raises(ValueError, match="^density matrix is not finite$"):
            tn.DensityMatrix([[0.5, np.nan], [np.nan, 0.5]])

    @pytest.mark.parametrize("total", [1, 2, 3])
    def test_one_nan_branch_is_refused(self, total, rng):
        kept = TestDefectionTableChecks._copies(total, rng)
        kept[137, 0] = np.nan
        with pytest.raises(ValueError, match="^density matrix is not finite$"):
            TestDefectionTableChecks._table(kept)


def _assert_same_marginals(table, kept):
    want = joint_stack_marginals(kept, len(table.operators))
    for (ops, inverse), expected in zip(table.operators, want, strict=True):
        assert ops.flags.c_contiguous  # the recovery search rounds by layout
        np.testing.assert_array_equal(ops[inverse].view(np.uint64), np.ascontiguousarray(expected).view(np.uint64))


class TestMarginalsMatchTheJointStack:
    """The table's marginals keep the bits of a partial trace of every
    branch's joint operator, which it no longer builds."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 70), st.integers(0, 2**32 - 1))
    def test_random_kept_states(self, total, count, seed):
        rng = np.random.default_rng(seed)
        kept = rng.standard_normal((count, 2 << total)) + 1j * rng.standard_normal((count, 2 << total))
        kept /= np.linalg.norm(kept, axis=1, keepdims=True)
        qubits = [(1.0, 0.0)] * total
        table = tn.defection._defection_table(np.zeros((count, 0), int), np.ones(count), kept, qubits, GRID[:3])
        _assert_same_marginals(table, kept)

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from([((1,), 1), ((2,), 2), ((3,), 3), ((4,), 2), ((1, 2), 2), ((2, 3), 1), ((1, 1, 1), 2)]),
        st.integers(0, 2),
        st.integers(0, 2**32 - 1),
    )
    def test_defection_networks(self, network, defector, seed):
        counts, n = network
        rng = np.random.default_rng(seed)
        specs = [MessageSpec.random(m, rng) for m in counts]
        table, kept = tn.defection._network_defection(specs, NetworkShape(counts, n), defector % n, GRID[:3])
        _assert_same_marginals(table, kept)


class TestDistinctOperators:
    """Each received qubit's table entry is its bytewise-distinct operators and every branch's
    index among them, at the benchmark's defection shapes. A plus message leaves every qubit one
    operator, so the search takes the path that repeats a lone operator."""

    @staticmethod
    def _assert_distinct_operators(table, kept, qubits, unitaries):
        want = joint_stack_marginals(kept, len(qubits))
        for (ops, inverse), expected, pair, best in zip(table.operators, want, qubits, table.best.T, strict=True):
            assert len({op.tobytes() for op in ops}) == len(ops)
            np.testing.assert_array_equal(ops[inverse].view(np.uint64), np.ascontiguousarray(expected).view(np.uint64))
            grid = whole_grid_recovery(ops[inverse], pair, unitaries)
            np.testing.assert_array_equal(best.view(np.uint64), grid.view(np.uint64))

    @staticmethod
    def _message(kind, m):
        rng = np.random.default_rng(m)
        return MessageSpec((PRESETS["plus"],) * m) if kind == "plus" else MessageSpec.random(m, rng)

    @pytest.mark.parametrize("grid", ["1", "default"])
    @pytest.mark.parametrize("kind", ["random", "plus"])
    @pytest.mark.parametrize("counts,agents,defector", [((3,), 3, 1), ((2,), 4, 0), ((2,), 3, 1), ((1, 2), 3, 2)])
    def test_network_defection(self, grid, kind, counts, agents, defector):
        specs, us = [self._message(kind, m) for m in counts], RECOVERY_GRIDS[grid]
        table, kept = tn.defection._network_defection(specs, NetworkShape(counts, agents), defector, us)
        self._assert_distinct_operators(table, kept, [q for s in specs for q in s.qubits], us)
        if kind == "plus":
            assert [len(ops) for ops, _ in table.operators] == [1] * sum(counts)

    @pytest.mark.parametrize("grid", ["1", "default"])
    @pytest.mark.parametrize("kind", ["random", "plus"])
    def test_baseline_defection(self, grid, kind):
        spec, shape, us = self._message(kind, 6), NetworkShape.single(6, 6), RECOVERY_GRIDS[grid]
        copies = zip(*(np.split(a, len(spec)) for a in _baseline_branches(spec, shape, defector=2)))
        for pair, (outcomes, probs, kept) in zip(spec.qubits, copies):
            table = tn.defection._defection_table(outcomes, probs, kept, [pair], us)
            self._assert_distinct_operators(table, kept, [pair], us)


class TestBaselineDefection:
    def test_reproduces_diagonal_density(self, rng):
        spec = MessageSpec.random(2, rng)
        shape = NetworkShape.single(2, 2)
        reports = tn.analyze_baseline_defection(spec, shape, 0, unitaries=GRID)
        assert {r.message_index for r in reports} == {0, 1}
        for r in reports:
            alpha, beta = spec.qubits[r.message_index]
            if r.bell_outcomes[0] in (BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS):
                want = np.diag([abs(alpha) ** 2, abs(beta) ** 2])
            else:
                want = np.diag([abs(beta) ** 2, abs(alpha) ** 2])
            np.testing.assert_allclose(r.joint_density.matrix, want, atol=1e-12)
            assert r.off_diagonal_norm < 1e-12

    def test_matches_entangling_protocol_denial(self, rng):
        # the per-qubit diagonals are the same in both methods
        spec = MessageSpec.random(1, rng)
        shape = NetworkShape.single(1, 2)
        new = tn.analyze_defection(spec, shape, 0, unitaries=GRID)
        old = tn.analyze_baseline_defection(spec, shape, 0, unitaries=GRID)
        new_diags = {(r.bell_outcomes[0], tuple(np.round(np.diag(r.per_qubit_density[0].matrix).real, 12))) for r in new}
        old_diags = {(r.bell_outcomes[0], tuple(np.round(np.diag(r.per_qubit_density[0].matrix).real, 12))) for r in old}
        assert new_diags == old_diags

    def test_spec_of_the_wrong_length_is_refused(self, rng):
        # one copy per message qubit: three qubits on a two-qubit shape would be three copies
        spec = MessageSpec.random(3, rng)
        with pytest.raises(ValueError, match="spec length 3 does not match"):
            tn.analyze_baseline_defection(spec, NetworkShape.single(2, 2), 0, unitaries=GRID)
        with pytest.raises(ValueError, match="spec length 3 does not match"):
            tn.run_baseline_ghz(spec, NetworkShape.single(2, 2))
        with pytest.raises(ValueError, match="spec length 3 does not match"):
            tn.analyze_defection(spec, NetworkShape.single(2, 2), 0, unitaries=GRID)


@pytest.mark.parametrize("counts,agents", [((8,), 6), ((6,), 10), ((4,), 40), ((1,), 55), ((2, 3), 5)],
                         ids=["8-6", "6-10", "4-40", "1-55", "ml2-3-n5"])
def test_fixed_cooperating_branches_leave_only_amplitudes(counts, agents):
    """One random cooperating branch per defector, fixed through the executor at 31 to 59 qubits:
    each received qubit keeps the diagonal its Bell outcome names and no off-diagonal, the branch has
    probability 2^-(2M+n), the joint is the mixture of the two Pauli frames the defector's bit
    leaves open (every shape has M <= 8), and no recovery in the grid beats the exact ceiling
    max(|alpha|^2, |beta|^2)."""
    shape = NetworkShape(counts, agents)
    rng = np.random.default_rng(10 * sum(counts) + agents)
    specs = [MessageSpec.random(m, rng) for m in counts]
    pairs = [q for s in specs for q in s.qubits]
    total = shape.total_messages
    expect = 2.0 ** -(2 * total + agents)
    for defector in sorted({0, agents // 2, agents - 1}):
        bell, ghz = rng.integers(4, size=total).tolist(), rng.integers(2, size=agents).tolist()
        outcomes, probs, kept = _network_branches(specs, shape, bell + ghz, defector=defector)
        assert outcomes.tolist() == [bell + ghz]
        assert abs(probs[0] - expect) <= 1e-12 * expect
        halves = kept.reshape(1, 2, 1 << total)
        for i, (k, (a, b)) in enumerate(zip(bell, pairs)):
            rho = tn.defection._marginal(halves, total, i)[0]
            diag = [abs(a) ** 2, abs(b) ** 2]
            if tn.defection._form_for(_BELL_ORDER[k]) is DiagonalForm.SWAPPED:
                diag.reverse()
            assert np.max(np.abs(np.diagonal(rho) - diag)) < 1e-12
            assert abs(rho[0, 1]) < 1e-12 and abs(rho[1, 0]) < 1e-12
            assert tn.max_recovery_fidelity(rho, (a, b)) <= max(diag) + 1e-12
        frames = [pauli_frame_branch(specs, bell, ghz + [p]) for p in (0, 1)]
        want = sum(np.outer(v, v.conj()) for v in frames) / 2
        joint = np.einsum("di,dj->ij", halves[0], halves[0].conj())
        assert np.max(np.abs(joint - want)) < 1e-12


@pytest.mark.parametrize("counts,agents,defector", [((4,), 4, 0), ((4,), 4, 3), ((1, 2), 3, 1)],
                         ids=["4-4-d0", "4-4-d3", "ml1-2-n3-d1"])
def test_every_defection_report_is_the_mixture_of_two_pauli_frames(counts, agents, defector):
    """Every enumerated report: the joint is the mixture of the two Pauli frames the defector's bit
    leaves open, each marginal is that mixture's partial trace, the probability is 2^-(2M+n), and no
    recovery in the grid beats the exact ceiling max(|alpha|^2, |beta|^2)."""
    rng = np.random.default_rng(10 * sum(counts) + agents)
    specs = [MessageSpec.random(m, rng) for m in counts]
    ceilings = [max(abs(a) ** 2, abs(b) ** 2) for s in specs for a, b in s.qubits]
    total = len(ceilings)
    expect = 2.0 ** -(2 * total + agents)
    reports = tn.analyze_defection(specs, NetworkShape(counts, agents), defector)
    assert len(reports) == 4 ** total * 2 ** agents
    mixtures = {}  # by Bell outcomes: the two frames cover both GHZ parities, whatever the cooperators' bits
    for r in reports:
        if r.bell_outcomes not in mixtures:
            bell = [_BELL_ORDER.index(o) for o in r.bell_outcomes]
            frames = [pauli_frame_branch(specs, bell, [*r.cooperator_bits, p]) for p in (0, 1)]
            want = sum(np.outer(v, v.conj()) for v in frames) / 2
            mixtures[r.bell_outcomes] = want, [qubit_marginal_dense(want, q) for q in range(total)]
        want, marginals = mixtures[r.bell_outcomes]
        assert np.max(np.abs(r.joint_density.matrix - want)) < 1e-12
        for rho, marginal in zip(r.per_qubit_density, marginals, strict=True):
            assert np.max(np.abs(rho.matrix - marginal)) < 1e-12
        assert abs(r.probability - expect) <= 1e-12 * expect
        assert all(f <= c + 1e-12 for f, c in zip(r.max_fidelity, ceilings, strict=True))


class TestEntangledInfoCheck:
    def test_balanced_first_qubit(self):
        spec = MessageSpec(((np.sqrt(0.5), np.sqrt(0.5)), (np.sqrt(0.2), np.sqrt(0.8))))
        report = tn.entangled_info_check(spec)
        assert report.plus_fidelity == pytest.approx(1.0, abs=1e-10)
        assert report.minus_fidelity == pytest.approx(1.0, abs=1e-10)
        assert report.plus_probability == pytest.approx(0.5, abs=1e-10)
        assert report.minus_probability == pytest.approx(0.5, abs=1e-10)

    def test_minus_branch_against_direct_projection_oracle(self):
        # project the two-term conditional state by hand and compare
        a1, b1 = np.sqrt(0.5), np.sqrt(0.5)
        a2, b2 = np.sqrt(0.2), np.sqrt(0.8)
        spec = MessageSpec(((a1, b1), (a2, b2)))
        report = tn.entangled_info_check(spec)
        first = np.array([a1, -b1])
        plain = np.kron(np.array([a2, b2]), np.array([a1, b1]))
        primed = np.kron(np.array([a2, -b2]), np.array([a1, -b1]))
        # GHZ blocks are orthogonal, so the conditional state of qubit 2'' is
        # the weighted mixture of the two projections
        w_plain = abs(np.vdot(first, np.array([a1, b1]))) ** 2
        w_primed = abs(np.vdot(first, np.array([a1, -b1]))) ** 2
        assert w_plain == pytest.approx(0.0, abs=1e-12)
        assert w_primed == pytest.approx(1.0, abs=1e-12)
        assert report.minus_fidelity == pytest.approx(1.0, abs=1e-10)

    def test_product_basis_spec(self):
        spec = MessageSpec(((1.0, 0.0), (0.0, 1.0)))
        report = tn.entangled_info_check(spec)
        # both projection branches leave the second qubit in |1>
        assert report.plus_fidelity == pytest.approx(1.0, abs=1e-10)
        assert report.minus_fidelity == pytest.approx(1.0, abs=1e-10)

    def test_agent_count_does_not_matter(self):
        spec = MessageSpec(((np.sqrt(0.5), -np.sqrt(0.5)), (np.sqrt(0.4), np.sqrt(0.6))))
        for n in (1, 2, 3):
            report = tn.entangled_info_check(spec, NetworkShape.single(2, n))
            assert report.plus_fidelity == pytest.approx(1.0, abs=1e-10)

    def test_wrong_length_rejected(self, rng):
        with pytest.raises(ValueError):
            tn.entangled_info_check(MessageSpec.random(3, rng))


class TestEntangledInfoCheckThroughTheExecutor:
    """The check measures both Bell pairs through the one executor, and
    agrees with the dense walk it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_the_dense_walk_on_unbalanced_messages(self, n):
        # balanced messages too, where the two projections are orthogonal
        rng = np.random.default_rng(40 + n)
        shape = NetworkShape.single(2, n)
        specs = [MessageSpec.random(2, rng) for _ in range(10)]
        specs += [MessageSpec.balanced_random_phases(2, rng) for _ in range(5)]
        for spec in specs:
            got, want = tn.entangled_info_check(spec, shape), entangled_info_walk(spec, shape)
            for field in ("plus_probability", "plus_fidelity", "minus_probability", "minus_fidelity"):
                assert type(getattr(got, field)) is float, field
                assert getattr(got, field) == pytest.approx(getattr(want, field), abs=1e-12), field

    def test_reads_the_branch_without_a_dense_kernel(self, monkeypatch):
        # the kept row is contracted directly: no dense projection runs
        def refuse(*args, **kwargs):
            raise AssertionError("a dense projection ran")

        spec, shape = MessageSpec.random(2, np.random.default_rng(2)), NetworkShape.single(2, 3)
        want = entangled_info_walk(spec, shape)
        monkeypatch.setattr(tn.states, "_project", refuse)
        assert vars(tn.entangled_info_check(spec, shape)) == pytest.approx(vars(want), abs=1e-12)

    @pytest.mark.parametrize("n", [57, 63, 100])
    def test_too_wide_a_network_is_refused_before_any_allocation(self, n):
        spec = MessageSpec.random(2, np.random.default_rng(0))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"at most 63 qubits .* not {n + 7}$"):
                tn.entangled_info_check(spec, NetworkShape.single(2, n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_fixed_branch_matches_the_enumerated_branch(self, n, monkeypatch):
        # the same check with every branch enumerated, reading branch 0 (Phi+ on both pairs, every agent plus)
        rng = np.random.default_rng(90 + n)
        shape = NetworkShape.single(2, n)
        specs = [MessageSpec.random(2, rng) for _ in range(10)]
        fixed = [tn.entangled_info_check(spec, shape) for spec in specs]
        measure_all = tn.protocol.measure_all
        monkeypatch.setattr(tn.protocol, "measure_all", lambda *args: measure_all(*args[:4]))
        for spec, got in zip(specs, fixed):
            assert vars(got) == pytest.approx(vars(tn.entangled_info_check(spec, shape)), abs=1e-15)

    def test_keeps_only_the_phi_plus_branch(self, monkeypatch):
        # the sender withholds its GHZ qubit and every agent's bit is fixed, so whatever n is, the one
        # branch holds (sender's GHZ value, second received qubit, first received qubit)
        rows, shapes, measure_all = [], [], tn.protocol.measure_all

        def recorded(*args):
            out = measure_all(*args)
            rows.append(len(out[2]))
            shapes.append(out[2].shape)
            return out

        monkeypatch.setattr(tn.protocol, "measure_all", recorded)
        tn.entangled_info_check(MessageSpec.random(2, np.random.default_rng(3)), NetworkShape.single(2, 2))
        assert rows == [1]
        tn.entangled_info_check(MessageSpec.random(2, np.random.default_rng(3)), NetworkShape.single(2, 5))
        assert shapes == [(1, 8), (1, 8)]

    def test_measures_through_the_executor_once(self, monkeypatch):
        calls, measure_all = [], tn.protocol.measure_all

        def counted(*args, **kwargs):
            calls.append(args)
            return measure_all(*args, **kwargs)

        monkeypatch.setattr(tn.protocol, "measure_all", counted)
        tn.entangled_info_check(MessageSpec.random(2, np.random.default_rng(1)), NetworkShape.single(2, 3))
        assert len(calls) == 1

    # the widest networks come last: with -x, a change that enumerates the branches again fails the
    # one-branch pins above before these would try to hold 2^50 or more of them
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 50, 56])
    def test_both_projections_have_the_closed_form_probability(self, n):
        # the GHZ qubits dephase the first received qubit, so either sign projects onto it
        # with weight |alpha1|^4 + |beta1|^4
        rng = np.random.default_rng(70 + n)
        for spec in [MessageSpec.random(2, rng) for _ in range(5)] + [MessageSpec.balanced_random_phases(2, rng)]:
            report = tn.entangled_info_check(spec, NetworkShape.single(2, n))
            (a1, b1), _ = spec.qubits
            want = abs(a1) ** 4 + abs(b1) ** 4
            assert report.plus_probability == pytest.approx(want, abs=1e-15)
            assert report.minus_probability == pytest.approx(want, abs=1e-15)

    def test_the_widest_measurable_network_runs_in_a_few_kib(self):
        # n = 56 is 63 qubits, the int64 limit; the one branch holds 8 amplitudes whatever n is
        spec = MessageSpec.random(2, np.random.default_rng(56))
        tracemalloc.start()
        try:
            report = tn.entangled_info_check(spec, NetworkShape.single(2, 56))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"
        (a1, b1), _ = spec.qubits
        assert report.plus_probability == pytest.approx(abs(a1) ** 4 + abs(b1) ** 4, abs=1e-15)
