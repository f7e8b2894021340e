import os
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import teleportnet as tn
from teleportnet import MessageSpec, NetworkShape, ParityClass, QubitRegistry, StateVector
from teleportnet.cli import MAX_TOTAL_QUBITS
from teleportnet.resources import _control_support, _ghz_support

from _oracles import (
    _nonzeros,
    control_resource_dense,
    control_resource_two_terms,
    ghz_dense,
    kron_message_state,
    partial_trace_dense,
    product_state_dense,
)

try:
    from numpy._core._multiarray_umath import __cpu_features__ as _CPU_FEATURES
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__ as _CPU_FEATURES

SQ2 = 1.0 / np.sqrt(2.0)
# every single-receiver shape that ``run`` admits with at most 18 resource
# qubits, and two multi-receiver shapes at 1 to 3 agents
RESOURCE_SHAPES = [((m,), n) for m in range(1, 9) for n in range(1, MAX_TOTAL_QUBITS)
                   if 3 * m + n + 1 <= MAX_TOTAL_QUBITS and 2 * m + n + 1 <= 18]
RESOURCE_SHAPES += [(counts, n) for counts in ((1, 2), (2, 3)) for n in (1, 2, 3)]


class TestMessageSpec:
    def test_rejects_unnormalized_pair(self):
        with pytest.raises(ValueError):
            MessageSpec(((1.0, 1.0),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MessageSpec(())

    def test_normalized_reports_correction(self):
        spec, worst = MessageSpec.normalized([(3.0, 4.0)])
        assert worst == pytest.approx(4.0)
        assert abs(spec.qubits[0][0]) == pytest.approx(0.6)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="qubit 0 amplitudes are not finite"):
            MessageSpec(((np.nan, 1.0),))

    @pytest.mark.parametrize("huge, unit", [((1.7e308 + 1.7e308j, 0), (1 + 1j, 0)),
                                            ((1e308 + 1e308j, 1e308 + 1e308j), (1 + 1j, 1 + 1j)),
                                            ((-1.5e308, 1.5e308j), (-1, 1j))],
                             ids=["abs", "hypot-complex", "hypot-real"])
    def test_normalized_rescales_a_pair_whose_norm_overflows(self, huge, unit):
        # abs() of the first pair's alpha overflows, and the others' hypot: each is divided by its largest part first
        spec, worst = MessageSpec.normalized([huge])
        assert (spec, worst) == (MessageSpec.normalized([unit])[0], np.inf)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e300])
    def test_normalized_keeps_the_bits_of_a_pair_whose_norm_is_finite(self, rng, scale):
        for a, b in (scale * rng.standard_normal((50, 2, 2)) @ [1, 1j]).tolist():
            spec, worst = MessageSpec.normalized([(a, b)])
            norm = float(np.hypot(abs(a), abs(b)))
            assert np.array(spec.qubits).tobytes() == np.array([(a / norm, b / norm)]).tobytes()
            assert worst == abs(norm - 1.0)

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4))
    def test_random_specs_are_normalized(self, seed, m):
        spec = MessageSpec.random(m, np.random.default_rng(seed))
        for a, b in spec.qubits:
            assert abs(a) ** 2 + abs(b) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_balanced_random_phases(self, rng):
        spec = MessageSpec.balanced_random_phases(3, rng)
        for a, b in spec.qubits:
            assert abs(a) == pytest.approx(SQ2, abs=1e-12)
            assert abs(b) == pytest.approx(SQ2, abs=1e-12)


class TestNetworkShape:
    def test_counts(self):
        shape = NetworkShape((1, 2), 3)
        assert shape.num_receivers == 2
        assert shape.total_messages == 3
        assert shape.resource_qubits == 2 * 3 + 3 + 1
        assert shape.total_qubits == 3 * 3 + 3 + 1

    @pytest.mark.parametrize("counts,n", [((), 1), ((0,), 1), ((1,), 0)])
    def test_rejects_degenerate(self, counts, n):
        with pytest.raises(ValueError):
            NetworkShape(counts, n)

    @pytest.mark.parametrize("counts,n,field", [
        ((1.7,), 2, "message_counts"), ((1,), 2.9, "num_agents"), ((True,), 1, "message_counts"),
        ((1,), True, "num_agents"), ((1,), np.True_, "num_agents"), ((2, "3"), 1, "message_counts"),
        ((1,), float("nan"), "num_agents"), ((1,), float("inf"), "num_agents"),
    ])
    def test_refuses_bools_and_non_integral_values(self, counts, n, field):
        with pytest.raises(ValueError, match=field):
            NetworkShape(counts, n)

    def test_accepts_integral_values_of_any_type(self):
        shape = NetworkShape((np.int64(2), np.uint8(1), 3.0), np.int32(4))
        assert shape == NetworkShape((2, 1, 3), 4)
        assert all(type(m) is int for m in shape.message_counts) and type(shape.num_agents) is int


class TestQubitRegistry:
    def test_single_receiver_layout(self):
        reg = QubitRegistry(NetworkShape.single(2, 2))
        assert [reg.message(0, i) for i in range(2)] == [0, 1]
        assert [reg.sender_epr(0, i) for i in range(2)] == [2, 3]
        assert [reg.receiver_epr(0, i) for i in range(2)] == [4, 5]
        assert [reg.agent(j) for j in range(2)] == [6, 7]
        assert reg.sender_ghz == 8
        assert reg.num_qubits == 9

    def test_multi_receiver_blocks(self):
        reg = QubitRegistry(NetworkShape((1, 2), 1))
        assert reg.message(1, 1) == 2
        assert reg.sender_epr(0, 0) == 3
        assert reg.sender_epr(1, 0) == 4
        assert reg.receiver_epr(1, 1) == 8
        assert reg.agent(0) == 9
        assert reg.sender_ghz == 10

    def test_resource_only_layout(self):
        reg = QubitRegistry(NetworkShape.single(2, 1), include_messages=False)
        assert reg.sender_epr(0, 0) == 0
        assert reg.receiver_epr(0, 0) == 2
        assert reg.agent(0) == 4
        assert reg.sender_ghz == 5
        with pytest.raises(LookupError):
            reg.message(0, 0)

    def test_labels_cover_all_qubits(self):
        reg = QubitRegistry(NetworkShape((1, 1), 2))
        labels = reg.role_labels()
        assert len(labels) == reg.num_qubits
        assert labels[reg.agent(1)] == "agent1"
        assert labels[reg.sender_ghz] == "ghz_s"

    def test_out_of_range(self):
        reg = QubitRegistry(NetworkShape.single(1, 1))
        with pytest.raises(IndexError):
            reg.message(0, 1)
        with pytest.raises(IndexError):
            reg.agent(1)
        with pytest.raises(IndexError, match="receiver 1 out of range"):
            reg.sender_epr(1, 0)


class TestPrepareMessageState:
    def test_basis_qubit(self):
        state = tn.prepare_message_state(MessageSpec(((1.0, 0.0),)))
        np.testing.assert_allclose(state.amplitudes, [1.0, 0.0])

    def test_plus_tensor_one(self):
        state = tn.prepare_message_state(MessageSpec(((SQ2, SQ2), (0.0, 1.0))))
        np.testing.assert_allclose(state.amplitudes, [0, 0, SQ2, SQ2], atol=1e-15)

    def test_matches_dense_product_oracle(self, rng):
        spec = MessageSpec.random(3, rng)
        state = tn.prepare_message_state(spec)
        np.testing.assert_allclose(state.amplitudes, product_state_dense(spec.qubits), atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.sampled_from(["random", "balanced_random_phases"]), st.integers(0, 2**32 - 1))
    def test_bits_match_the_kron_build(self, m, kind, seed):
        spec = getattr(MessageSpec, kind)(m, np.random.default_rng(seed))
        assert tn.prepare_message_state(spec).amplitudes.tobytes() == kron_message_state(spec).amplitudes.tobytes()

    @pytest.mark.parametrize("pairs", [((1, 0),), ((0, 1), (1, 0)), ((SQ2, -SQ2), (-0.0, 1), (1j, 0))])
    def test_bits_match_the_kron_build_on_preset_pairs(self, pairs):
        spec = MessageSpec(pairs)
        assert tn.prepare_message_state(spec).amplitudes.tobytes() == kron_message_state(spec).amplitudes.tobytes()

    def test_per_qubit_marginals(self, rng):
        spec = MessageSpec.random(3, rng)
        state = tn.prepare_message_state(spec)
        for i, (a, b) in enumerate(spec.qubits):
            rho = tn.partial_trace(state, [i])
            np.testing.assert_allclose(rho.matrix, partial_trace_dense(state.amplitudes, [i]), atol=1e-12)
            assert rho.matrix[0, 0].real == pytest.approx(abs(a) ** 2, abs=1e-12)
            assert rho.matrix[1, 1].real == pytest.approx(abs(b) ** 2, abs=1e-12)


class TestPrepareGhz:
    def test_epr_pair(self):
        np.testing.assert_allclose(tn.prepare_ghz(2, +1).amplitudes, [SQ2, 0, 0, SQ2])

    def test_minus_sign(self):
        state = tn.prepare_ghz(3, -1)
        expect = np.zeros(8)
        expect[0], expect[7] = SQ2, -SQ2
        np.testing.assert_allclose(state.amplitudes, expect)

    def test_support_is_two_corners(self):
        state = tn.prepare_ghz(5, +1)
        nonzero = np.nonzero(state.amplitudes)[0]
        assert list(nonzero) == [0, 31]

    def test_too_small(self):
        with pytest.raises(ValueError):
            tn.prepare_ghz(1)

    def test_sign_other_than_plus_or_minus_one_is_refused(self):
        with pytest.raises(ValueError, match="sign must be"):
            tn.prepare_ghz(3, sign=0)

    @pytest.mark.parametrize("sign", [True, np.True_])
    def test_bool_sign_is_refused(self, sign):
        # True == 1 would build GHZ+: the sign refuses bools, as every other integer input does
        with pytest.raises(ValueError, match="sign takes integers"):
            tn.prepare_ghz(3, sign=sign)

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("size", range(2, 17))
    def test_closed_form_support_is_the_dense_build(self, size, sign):
        # the support and the scattered state keep the bits of the vector built dense and normalized
        dense = ghz_dense(size, sign)
        qubits, idx, vals = _ghz_support(size, sign)
        want_qubits, want_idx, want_vals = _nonzeros(dense)
        assert qubits == want_qubits
        assert (idx.dtype, idx.tobytes()) == (want_idx.dtype, want_idx.tobytes())
        assert (vals.dtype, vals.tobytes()) == (want_vals.dtype, want_vals.tobytes())
        assert tn.prepare_ghz(size, sign).amplitudes.tobytes() == dense.amplitudes.tobytes()


# hashes every GHZ support from 2 to 63 qubits, both signs, and the control support from M = 1 to 20
_SUPPORTS_HASH = """
import hashlib
from teleportnet.resources import NetworkShape, _control_support, _ghz_support
h = hashlib.sha256()
supports = [_ghz_support(q, sign) for q in range(2, 64) for sign in (+1, -1)]
for n, idx, vals in supports + [_control_support.__wrapped__(NetworkShape.single(m, 1)) for m in range(1, 21)]:
    h.update(n.to_bytes(1, "big") + idx.tobytes() + vals.tobytes())
print(h.hexdigest())
"""


def _supports_hash(coretype: str | None) -> tuple[str, str | None]:
    """The hash of ``_SUPPORTS_HASH`` in a child process whose OpenBLAS runs the ``coretype`` kernel
    (None: the one it picks for this CPU), and the kernel that OpenBLAS says it runs."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env.update(OPENBLAS_VERBOSE="2", PYTHONPATH=os.pathsep.join([str(Path(tn.__file__).parents[1]),
                                                                  env.get("PYTHONPATH", "")]))
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    out = subprocess.run([sys.executable, "-c", _SUPPORTS_HASH], env=env, capture_output=True, text=True, check=True)
    core = re.search(r"Core: (\S+)", out.stderr)
    return out.stdout.strip(), core and core[1]


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="OpenBLAS kernels are x86-64's")
def test_closed_form_supports_keep_their_bits_under_other_blas_kernels():
    # both supports are closed forms that pass through no BLAS call, so every kernel gives their bits;
    # OPENBLAS_CORETYPE acts only on the process that reads it, hence one child per kernel
    default, core = _supports_hash(None)
    if core is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    cores = {core}
    for coretype in ["Prescott"] + (["Haswell"] if _CPU_FEATURES.get("AVX2") else []):
        digest, core = _supports_hash(coretype)
        assert digest == default, f"the supports' bits differ under OPENBLAS_CORETYPE={coretype} (core {core})"
        cores.add(core)
    assert len(cores) > 1  # some child ran another kernel than the default


class TestControlResource:
    def test_smallest_network_is_ghz4(self):
        state, reg = tn.prepare_control_resource(NetworkShape.single(1, 1))
        assert reg.num_qubits == 4
        assert tn.states_close(state, tn.prepare_ghz(4, +1), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_single_receiver_qubit_count(self, n):
        state, _ = tn.prepare_control_resource(NetworkShape.single(1, n))
        assert state.num_qubits == n + 3

    def test_two_receiver_qubit_count(self):
        state, _ = tn.prepare_control_resource(NetworkShape((1, 1), 2))
        assert state.num_qubits == 7

    @pytest.mark.parametrize("counts,n", [((1,), 1), ((2,), 1), ((1,), 2), ((2,), 2), ((1, 1), 2)])
    def test_matches_term_by_term_oracle(self, counts, n):
        state, _ = tn.prepare_control_resource(NetworkShape(counts, n))
        expect = control_resource_dense(counts, n)
        np.testing.assert_allclose(state.amplitudes, expect, atol=1e-12)

    @pytest.mark.parametrize("counts,n", RESOURCE_SHAPES)
    def test_bits_match_the_two_term_build(self, counts, n):
        state, _ = tn.prepare_control_resource(NetworkShape(counts, n))
        assert state.amplitudes.tobytes() == control_resource_two_terms(counts, n).tobytes()

    @pytest.mark.parametrize("counts,n", [s for s in RESOURCE_SHAPES if len(s[0]) == 1] + [((2, 3), 5)])
    def test_closed_form_support_is_the_nonzeros(self, counts, n):
        # what network runs measure is, index for index and bit for bit, the
        # support of the vector that prepare_control_resource returns
        shape = NetworkShape(counts, n)
        qubits, idx, vals = _control_support(shape)
        want_qubits, want_idx, want_vals = _nonzeros(tn.prepare_control_resource(shape)[0])
        order = np.argsort(idx)
        assert qubits == want_qubits
        assert (idx.dtype, idx[order].tobytes()) == (want_idx.dtype, want_idx.tobytes())
        assert (vals.dtype, vals[order].tobytes()) == (want_vals.dtype, want_vals.tobytes())

    def test_build_holds_one_resource(self):
        # the support is scattered into one zeroed vector and wrapped, not copied
        tracemalloc.start()
        try:
            state, _ = tn.prepare_control_resource(NetworkShape.single(6, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * state.amplitudes.nbytes

    def test_message_tensor_resource_support(self, rng):
        # the full initial state is the product of the message state with the
        # two-term resource; check amplitudes agree with the oracle product
        spec = MessageSpec.random(2, rng)
        shape = NetworkShape.single(2, 2)
        resource, _ = tn.prepare_control_resource(shape)
        full = tn.tensor(tn.prepare_message_state(spec), resource)
        expect = np.kron(control_resource_dense((2,), 2), product_state_dense(spec.qubits))
        np.testing.assert_allclose(full.amplitudes, expect, atol=1e-12)
        assert full.norm_error() <= 1e-12


def _hadamard_all(state: StateVector) -> StateVector:
    for q in range(state.num_qubits):
        state = tn.apply_hadamard(state, q)
    return state


class TestParityDecomposition:
    @pytest.mark.parametrize("size", range(2, 8))
    def test_plus_ghz_supports_even_total_parity(self, size):
        state = _hadamard_all(tn.prepare_ghz(size, +1))
        weights = tn.joint_parity_weights(state, list(range(size - 1)), size - 1)
        assert weights[(ParityClass.EVEN, 0)] == pytest.approx(0.5, abs=1e-12)
        assert weights[(ParityClass.ODD, 1)] == pytest.approx(0.5, abs=1e-12)
        assert weights[(ParityClass.EVEN, 1)] == pytest.approx(0.0, abs=1e-14)
        assert weights[(ParityClass.ODD, 0)] == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("size", range(2, 8))
    def test_minus_ghz_supports_odd_total_parity(self, size):
        state = _hadamard_all(tn.prepare_ghz(size, -1))
        weights = tn.joint_parity_weights(state, list(range(size - 1)), size - 1)
        assert weights[(ParityClass.EVEN, 1)] == pytest.approx(0.5, abs=1e-12)
        assert weights[(ParityClass.ODD, 0)] == pytest.approx(0.5, abs=1e-12)
        assert weights[(ParityClass.EVEN, 0)] == pytest.approx(0.0, abs=1e-14)
        assert weights[(ParityClass.ODD, 1)] == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("size,sign", [(s, g) for s in range(2, 8) for g in (+1, -1)])
    def test_amplitude_magnitudes_uniform(self, size, sign):
        state = _hadamard_all(tn.prepare_ghz(size, sign))
        nonzero = np.abs(state.amplitudes[np.abs(state.amplitudes) > 1e-14])
        assert nonzero.size == 2 ** (size - 1)
        assert np.max(nonzero) - np.min(nonzero) <= 1e-12

    def test_even_class_count_for_four_agent_network(self):
        # four parity qubits and one marker: 8 even-parity strings
        state = _hadamard_all(tn.prepare_ghz(5, +1))
        idx = np.nonzero(np.abs(state.amplitudes) > 1e-14)[0]
        even_marker0 = [i for i in idx if (i >> 4) & 1 == 0]
        assert len(even_marker0) == 8

    def test_parity_decompose_sums_to_one(self, rng):
        from conftest import random_state

        sv = random_state(4, rng)
        weights = tn.parity_decompose(sv, [0, 2])
        assert weights[ParityClass.EVEN] + weights[ParityClass.ODD] == pytest.approx(1.0, abs=1e-12)

    def test_parity_decompose_known_state(self):
        # |11> has even parity on both qubits together, odd on either alone
        state = StateVector.from_bits([1, 1])
        assert tn.parity_decompose(state, [0, 1])[ParityClass.EVEN] == pytest.approx(1.0)
        assert tn.parity_decompose(state, [0])[ParityClass.ODD] == pytest.approx(1.0)

    def test_parity_reads_only_the_given_qubits(self):
        # |qubit 1 = 0, qubit 0 = 1>: even on qubit 1, and its marker qubit 0 reads 1
        state = StateVector.basis(2, 1)
        assert tn.parity_decompose(state, [1]) == {ParityClass.EVEN: 1.0, ParityClass.ODD: 0.0}
        assert tn.joint_parity_weights(state, [1], 0) == {(ParityClass.EVEN, 0): 0.0, (ParityClass.EVEN, 1): 1.0,
                                                          (ParityClass.ODD, 0): 0.0, (ParityClass.ODD, 1): 0.0}

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            tn.parity_decompose(StateVector.zero(2), [0, 0])

    @pytest.mark.parametrize("qubits,marker,error", [([5], 0, IndexError), ([0, 0], 2, ValueError),
                                                     ([0, 1], 7, IndexError)])
    def test_joint_parity_weights_validates_its_qubits(self, qubits, marker, error):
        with pytest.raises(error):
            tn.joint_parity_weights(tn.prepare_ghz(3), qubits, marker)
