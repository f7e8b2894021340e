"""The one-pass measurement executor against the sequential tree walker of
``_oracles``, over random small networks, event orders and agent bases; and
its loop over the state's support against the full-size loops, in sampled
and in enumerate mode."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import teleportnet as tn
from teleportnet import MessageSpec, NetworkShape, QubitRegistry, StateVector, protocol
from teleportnet.defection import _defection_table, _reports
from teleportnet.protocol import _event_qubits, measure_all
from teleportnet.resources import _control_support

from _oracles import (
    _nonzeros,
    best_grid_fidelity,
    dense_enumerate,
    dense_sampled,
    max_eigenvalue,
    partial_trace_dense,
    qubit_marginal_dense,
    walk_baseline,
    walk_baseline_defection,
    walk_defection,
    walk_transcripts,
)

TOL = 1e-12
GRID = tn.recovery_unitaries(num_random=20, seed=1)


@st.composite
def networks(draw):
    """At most 3 message qubits over one or two receivers, 1 to 3 agents."""
    counts = draw(st.sampled_from([(1,), (2,), (3,), (1, 1), (1, 2), (2, 1)]))
    shape = NetworkShape(counts, draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    specs = [MessageSpec.random(m, rng) for m in counts]
    order = draw(st.permutations(tn.protocol_events(shape)))
    basis = draw(st.sampled_from(["hadamard_z", "plus_minus"]))
    return specs, shape, order, basis


def _run(specs, shape, mode="enumerate", **kwargs):
    """Per branch, one transcript per receiver, for either entry point."""
    if shape.num_receivers > 1:
        return tn.run_multi_receiver(specs, shape, mode, **kwargs)
    out = tn.run_controlled_teleport(specs[0], shape, mode, **kwargs)
    return [(t,) for t in out] if mode == "enumerate" else (out,)


def _assert_same_branch(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.receiver, g.bell_outcomes, g.agent_bits, g.sender_ghz_bit, g.branch,
                g.corrections, g.classical_messages, g.message_index) == (
                w.receiver, w.bell_outcomes, w.agent_bits, w.sender_ghz_bit, w.branch,
                w.corrections, w.classical_messages, w.message_index)
        assert abs(g.fidelity - w.fidelity) <= TOL
        assert abs(g.branch_probability - w.branch_probability) <= TOL


def _assert_reductions(reports, joints, pairs):
    """Per-qubit fields of defection reports against explicit-loop oracles
    applied to the walker's joint density matrices; qubit i of every report
    targets ``pairs[i]``."""
    marginals = np.array([[qubit_marginal_dense(j, q) for q in range(len(pairs))] for j in joints])
    for r, rhos in zip(reports, marginals):
        assert len(r.per_qubit_density) == len(rhos)
        for d, rho in zip(r.per_qubit_density, rhos):
            np.testing.assert_allclose(d.matrix, rho, rtol=0, atol=TOL)
        assert abs(r.off_diagonal_norm - np.abs(rhos[:, [0, 1], [1, 0]]).max()) <= TOL
    best = np.array([r.max_fidelity for r in reports]).reshape(len(reports), len(pairs))
    for q, pair in enumerate(pairs):
        np.testing.assert_allclose(best[:, q], best_grid_fidelity(marginals[:, q], pair, GRID), rtol=0, atol=TOL)
        ceiling = np.array([max_eigenvalue(rho) for rho in marginals[:, q]])
        assert np.all(best[:, q] <= ceiling + 1e-12)


@settings(max_examples=15, deadline=None)
@given(networks())
def test_enumerate_matches_walker(network):
    specs, shape, order, basis = network
    got = _run(specs, shape, event_order=order, agent_basis=basis)
    want = walk_transcripts(specs, shape, event_order=order, agent_basis=basis)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        _assert_same_branch(g, w)


@settings(max_examples=25, deadline=None)
@given(networks(), st.integers(0, 2**32 - 1))
def test_sampled_draws_the_walkers_branch(network, seed):
    specs, shape, order, basis = network
    got = _run(specs, shape, "sampled", seed=seed, event_order=order, agent_basis=basis)
    want = walk_transcripts(specs, shape, "sampled", seed=seed, event_order=order, agent_basis=basis)
    _assert_same_branch(got, want)


@settings(max_examples=15, deadline=None)
@given(networks(), st.data())
def test_defection_matches_walker(network, data):
    specs, shape, _, _ = network
    defector = data.draw(st.integers(0, shape.num_agents - 1))
    got = tn.analyze_defection(specs, shape, defector, unitaries=GRID)
    want = walk_defection(specs, shape, defector)
    assert len(got) == len(want)
    for r, (bells, bits, prob, joint) in zip(got, want):
        assert (r.bell_outcomes, r.cooperator_bits) == (bells, bits)
        assert abs(r.probability - prob) <= TOL
        np.testing.assert_allclose(r.joint_density.matrix, joint, rtol=0, atol=TOL)
    _assert_reductions(got, [w[3] for w in want], [q for s in specs for q in s.qubits])


@settings(max_examples=15, deadline=None)
@given(networks(), st.integers(0, 2**32 - 1), st.data())
def test_baseline_matches_walker(network, seed, data):
    specs, shape, _, _ = network
    spec = MessageSpec(tuple(q for s in specs for q in s.qubits))
    single = NetworkShape.single(len(spec), shape.num_agents)
    for mode in ("enumerate", "sampled"):
        got = tn.run_baseline_ghz(spec, single, mode, seed=seed)
        want = walk_baseline(spec, shape.num_agents, mode, seed)
        assert len(got) == len(want)
        for t, (index, outcome, bits, op, fid, prob) in zip(got, want):
            assert (t.message_index, t.bell_outcomes, t.agent_bits, t.corrections) == (index, (outcome,), bits, (op,))
            assert abs(t.fidelity - fid) <= TOL
            assert abs(t.branch_probability - prob) <= TOL
    defector = data.draw(st.integers(0, shape.num_agents - 1))
    got = tn.analyze_baseline_defection(spec, single, defector, unitaries=GRID)
    want = walk_baseline_defection(spec, shape.num_agents, defector)
    assert len(got) == len(want)
    for r, (index, outcome, bits, prob, rho) in zip(got, want):
        assert (r.message_index, r.bell_outcomes, r.cooperator_bits) == (index, (outcome,), bits)
        assert abs(r.probability - prob) <= TOL
        np.testing.assert_allclose(r.joint_density.matrix, rho, rtol=0, atol=TOL)
    for index, pair in enumerate(spec.qubits):
        copy = [k for k, r in enumerate(got) if r.message_index == index]
        _assert_reductions([got[k] for k in copy], [want[k][4] for k in copy], [pair])


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 3), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_reports_on_non_diagonal_marginals(total, count, seed):
    """``_reports`` on random kept states, whose marginals (unlike a
    defection's) are not diagonal, so each per-qubit field must come from its
    own qubit."""
    rng = np.random.default_rng(seed)
    kept = rng.standard_normal((count, 2 << total)) + 1j * rng.standard_normal((count, 2 << total))
    kept /= np.linalg.norm(kept, axis=1, keepdims=True)
    outcomes = np.concatenate([rng.integers(0, 4, (count, total)), rng.integers(0, 2, (count, 2))], axis=1)
    probs = rng.dirichlet(np.ones(count))
    pairs = [MessageSpec.random(1, rng).qubits[0] for _ in range(total)]
    reports = _reports(_defection_table(outcomes, probs, kept, pairs, GRID), kept, 0)
    joints = [partial_trace_dense(k, range(total)) for k in kept]  # the top qubit is the defector's
    for r, row, joint in zip(reports, outcomes, joints):
        assert r.cooperator_bits == tuple(row[total:])
        np.testing.assert_allclose(r.joint_density.matrix, joint, rtol=0, atol=TOL)
    assert max(r.off_diagonal_norm for r in reports) > 1e-3
    _assert_reductions(reports, joints, pairs)


def test_zero_probability_branch_is_refused():
    # |0> (x) |0> has no weight on the psi outcomes of a Bell measurement
    with pytest.raises(ValueError, match="probability"):
        measure_all(_nonzeros(StateVector([1, 0])), StateVector([1, 0]), [(0, 1)], [])


def test_non_finite_resource_amplitude_is_refused():
    resource = (2, np.array([0, 3]), np.array([np.nan, 1.0], dtype=np.complex128))
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        measure_all(resource, StateVector([1, 0]), [(0, 1)], [2])


class _LastDraw(np.random.Generator):
    """A generator whose every uniform draw is the largest below 1, so that
    each measurement draws its last outcome of nonzero weight."""

    def random(self, *args, **kwargs):
        return 1.0 - 2.0**-53


def test_drawn_outcome_is_guarded_by_its_conditional_weight():
    # the psi-minus outcome of (|0> + b|1>) (x) |0> holds b^2 / 2 of the weight:
    # refused under 1e-14 of it, drawn above
    def draw(b):
        return measure_all(_nonzeros(StateVector([1, 0])), StateVector([1, b]), [(0, 1)], [],
                           _LastDraw(np.random.PCG64(0)))

    with pytest.raises(ValueError, match=r"^outcome 3 on qubits \(0, 1\) has probability 5\.000e-15$"):
        draw(1e-7)
    outcomes, probs, _ = draw(1e-6)
    assert outcomes.tolist() == [[3]] and probs[0] == pytest.approx(5e-13)


def test_fixed_outcome_is_guarded_by_its_conditional_weight():
    # the outcome that test_drawn_outcome_is_guarded_by_its_conditional_weight draws, fixed instead
    def fixed(b):
        return measure_all(_nonzeros(StateVector([1, 0])), StateVector([1, b]), [(0, 1)], [], [3])

    with pytest.raises(ValueError, match=r"^outcome 3 on qubits \(0, 1\) has probability 5\.000e-15$"):
        fixed(1e-7)
    with pytest.raises(ValueError, match=r"^outcome 3 on qubits \(0, 1\) has probability 0\.000e\+00$"):
        fixed(0)
    outcomes, probs, _ = fixed(1e-6)
    assert outcomes.tolist() == [[3]] and probs[0] == pytest.approx(5e-13)


@pytest.mark.parametrize("outcomes,fault", [
    ([], "one outcome per group: got 0 for 1 groups"),
    ([0, 0], "one outcome per group: got 2 for 1 groups"),
    ([4], "invalid branch selector 4"),
])
def test_malformed_fixed_branch_is_refused(outcomes, fault):
    with pytest.raises(ValueError, match=fault):
        measure_all(_nonzeros(StateVector([1, 0])), StateVector([0.6, 0.8]), [(0, 1)], [], outcomes)


@pytest.mark.parametrize("counts,agents", [((2,), 2), ((3,), 1), ((1, 2), 2)])
def test_fixed_branch_is_the_enumerated_row(counts, agents):
    """Every branch, fixed by its outcomes, is the enumerated branch's row within 1e-15."""
    rng = np.random.default_rng(10 * len(counts) + agents)
    args = _network_args([MessageSpec.random(m, rng) for m in counts], NetworkShape(counts, agents))
    outcomes, probs, kept = measure_all(*args)
    for b, row in enumerate(outcomes.tolist()):
        got = measure_all(*args, row)
        assert got[0].tolist() == [row]
        np.testing.assert_allclose(got[1], probs[b:b + 1], rtol=0, atol=1e-15)
        np.testing.assert_allclose(got[2], kept[b:b + 1], rtol=0, atol=1e-15)


def test_enumerated_call_without_groups_is_the_drawn_call():
    """Nothing measured: enumerating gives the one branch, with no outcomes, that a draw gives."""
    args = (_nonzeros(tn.prepare_ghz(2)), StateVector([0.6, 0.8]), [], [0, 1, 2])
    got = measure_all(*args)
    assert got[0].shape == (1, 0)
    _assert_same_bits(got, measure_all(*args, np.random.default_rng(0)))


@pytest.mark.parametrize("m", [1, 6, 20])
@pytest.mark.parametrize("defector", [None, 0, 1])
def test_baseline_copies_in_one_pass_are_the_per_copy_calls(m, defector):
    """The GHZ baseline's copies, enumerated in one pass, are its per-copy calls bit for bit, copy-major."""
    spec, n = MessageSpec.random(m, np.random.default_rng(m)), 2
    got = protocol._baseline_branches(spec, NetworkShape.single(m, n), defector=defector)
    ghz = _nonzeros(tn.prepare_ghz(n + 2))
    groups = [(0, 1)] + [(3 + j,) for j in range(n) if j != defector]
    keep = [2] if defector is None else [2, 3 + defector]
    assert len(got[0]) == m * 4 * 2 ** len(groups[1:])
    for copy, pair in zip(zip(*(np.split(a, m) for a in got)), spec.qubits):
        _assert_same_bits(copy, measure_all(ghz, StateVector(pair), groups, keep))
    _assert_same_bits(got, measure_all(ghz, [StateVector(pair) for pair in spec.qubits], groups, keep))


@pytest.mark.parametrize("messages,rng", [
    ([], None),
    ([StateVector([1, 0]), StateVector([1, 0, 0, 0])], None),
    ([StateVector([1, 0]), StateVector([0, 1])], np.random.default_rng(0)),
    ([StateVector([1, 0]), StateVector([0, 1])], [0]),
])
def test_several_messages_are_refused_unless_enumerated_at_one_width(messages, rng):
    with pytest.raises(ValueError, match=f"several of one width: got {len(messages)}$"):
        measure_all(_nonzeros(StateVector([1, 0])), messages, [(0, 1)], [], rng)


def _assert_same_bits(got, want):
    """Outcomes, probabilities and kept states agree in every bit."""
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


def _network_args(specs, shape, defector=None):
    """``measure_all``'s resource, message, groups and kept qubits for a
    network run, or a defection when ``defector`` is given."""
    registry = QubitRegistry(shape)
    groups = [_event_qubits(e, registry) for e in tn.protocol_events(shape) if e != ("ghz", defector)]
    keep = [registry.receiver_epr(r, i) for r, m in enumerate(shape.message_counts) for i in range(m)]
    keep += [] if defector is None else [registry.agent(defector)]
    message = tn.prepare_message_state(MessageSpec(tuple(q for s in specs for q in s.qubits)))
    return _control_support(shape), message, groups, keep


def _network_cases(counts, agents, preset, seed, data):
    """A network's ``measure_all`` arguments, without or with a defector's
    qubit kept, and a GHZ baseline copy's with the same defector."""
    shape = NetworkShape(counts, agents)
    if preset:
        basis = st.sampled_from([(1, 0), (0, 1)])
        specs = [MessageSpec(tuple(data.draw(basis) for _ in range(m))) for m in counts]
    else:
        rng = np.random.default_rng(seed)
        specs = [MessageSpec.random(m, rng) for m in counts]
    defector = data.draw(st.sampled_from([None, *range(agents)]))
    network = _network_args(specs, shape, defector)
    copy = (_nonzeros(tn.prepare_ghz(agents + 2)), StateVector(specs[0].qubits[0]),
            [(0, 1)] + [(3 + j,) for j in range(agents) if j != defector],
            [2] if defector is None else [2, 3 + defector])
    return network, copy


def _random_sparse_args(size, m, seed, data):
    """A random sparse resource, not one of the protocol's stabilizer
    states, and a random message, measured in random pairs and single
    qubits, with the rest kept."""
    rng = np.random.default_rng(seed)
    amps = (rng.standard_normal(1 << size) + 1j * rng.standard_normal(1 << size)) * (rng.random(1 << size) < 0.5)
    amps[rng.integers(1 << size)] += 1
    resource = _nonzeros(StateVector(amps / np.linalg.norm(amps)))
    message = tn.prepare_message_state(MessageSpec.random(m, rng))
    qubits = data.draw(st.permutations(range(size + m)))
    sizes = data.draw(st.lists(st.sampled_from([1, 2]), min_size=1, max_size=size + m))
    groups, start = [], 0
    for k in sizes:
        if start + k <= size + m:
            groups.append(tuple(qubits[start:start + k]))
            start += k
    return resource, message, groups, qubits[start:]


def _drawn_in(args, order):
    """``measure_all``'s arguments with the groups taken in ``order``, so
    they are drawn in it (as given when ``order`` is None)."""
    resource, message, groups, keep = args
    return resource, message, groups if order is None else [groups[g] for g in order], keep


def _result(f, *args):
    """``f(*args)``, or the message of the ``ValueError`` it raises."""
    try:
        return f(*args)
    except ValueError as e:
        return str(e)


def _assert_same_result(got, want):
    """Both refused with the same message, or equal in every bit."""
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
    else:
        _assert_same_bits(got, want)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([(1,), (2,), (3,), (1, 1), (1, 2), (2, 1), (1, 1, 1)]),
    st.integers(1, 4),
    st.booleans(),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_sampled_support_loop_matches_the_full_size_loop(counts, agents, preset, seed, data):
    """Every bit of a drawn branch, for networks with and without a
    defector's qubit kept, in the natural and a permuted draw order, and for
    a GHZ baseline copy."""
    network, copy = _network_cases(counts, agents, preset, seed, data)
    cases = [(*network, None), (*network, data.draw(st.permutations(range(len(network[2])))))]
    cases.append((*copy, data.draw(st.permutations(range(len(copy[2]))))))
    for *args, order in cases:
        args = _drawn_in(args, order)
        got = measure_all(*args, np.random.default_rng(seed))
        _assert_same_bits(got, dense_sampled(*args, np.random.default_rng(seed)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 3), st.integers(0, 2**32 - 1), st.data())
def test_sampled_support_loop_matches_the_full_size_loop_on_random_states(size, m, seed, data):
    """Random sparse resources, not only the protocol's stabilizer states,
    measured in random pairs and single qubits, with the rest kept."""
    args = _random_sparse_args(size, m, seed, data)
    args = _drawn_in(args, data.draw(st.permutations(range(len(args[2])))))
    got = measure_all(*args, np.random.default_rng(seed))
    _assert_same_bits(got, dense_sampled(*args, np.random.default_rng(seed)))


@pytest.mark.parametrize("seed", [0, 1, 2, 4])
def test_sampled_lone_column_is_rotated_like_the_full_row(seed):
    """Measuring the message of |psi> (x) |0> leaves the support a single
    column; rotated alone, numpy takes gemv and rounds it unlike the full
    row's gemm (at each of these seeds)."""
    message = tn.prepare_message_state(MessageSpec.random(1, np.random.default_rng(seed)))
    args = (_nonzeros(StateVector([1, 0])), message, [(0,)], [1])
    got = measure_all(*args, np.random.default_rng(seed))
    _assert_same_bits(got, dense_sampled(*args, np.random.default_rng(seed)))


@pytest.mark.parametrize("seed", range(4))
def test_drawn_call_without_groups_keeps_the_support_in_its_own_order(seed):
    """Nothing measured and every qubit kept in order: the kept state is
    ``tensor(message, resource)``, though the resource's support is every
    row and is given shuffled."""
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    resource = StateVector(amps)
    size, at, vals = _nonzeros(resource)
    order = rng.permutation(len(at))
    message = tn.prepare_message_state(MessageSpec.random(2, rng))
    args = ((size, at[order], vals[order]), message, [], list(range(size + 2)))
    got = measure_all(*args, np.random.default_rng(seed))
    _assert_same_bits(got, dense_sampled(*args, np.random.default_rng(seed)))
    np.testing.assert_allclose(got[2][0], tn.tensor(message, resource).amplitudes, rtol=0, atol=1e-15)


@pytest.mark.parametrize("counts,agents", [((5,), 5), ((2, 3), 5)])
def test_sampled_support_loop_matches_the_full_size_loop_at_21_qubits(counts, agents):
    rng = np.random.default_rng(5)
    args = _network_args([MessageSpec.random(m, rng) for m in counts], NetworkShape(counts, agents))
    args = _drawn_in(args, rng.permutation(len(args[2])))
    _assert_same_bits(measure_all(*args, np.random.default_rng(5)),
                      dense_sampled(*args, np.random.default_rng(5)))


def test_sampled_run_never_allocates_the_state_vector():
    """A sampled run at 23 qubits, whose state vector is 128 MiB, stays
    under 16 MiB of traced allocations."""
    spec = MessageSpec.random(6, np.random.default_rng(0))
    tracemalloc.start()
    try:
        t = tn.run_controlled_teleport(spec, NetworkShape.single(6, 4), "sampled", seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.fidelity >= 1.0 - 1e-10
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_sampled_run_never_allocates_the_control_resource():
    """A sampled run at (1,22), whose control resource alone would be 2^25
    amplitudes (512 MiB), stays under 4 MiB of traced allocations: it
    measures the resource's closed-form support of 2 amplitudes."""
    spec = MessageSpec.random(1, np.random.default_rng(0))
    tracemalloc.start()
    try:
        table = protocol._network_table([spec], NetworkShape.single(1, 22), "sampled", 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.fids[0][0] >= 1.0 - 1e-10
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(1,), (2,), (3,), (1, 1), (1, 2), (2, 1), (1, 1, 1)]),
    st.integers(1, 4),
    st.booleans(),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_enumerate_support_loop_matches_the_full_size_loop(counts, agents, preset, seed, data):
    """Every bit of every branch, for networks with and without a
    defector's qubit kept and for a GHZ baseline copy."""
    for args in _network_cases(counts, agents, preset, seed, data):
        _assert_same_bits(measure_all(*args), dense_enumerate(*args))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 3), st.integers(0, 2**32 - 1), st.data())
def test_enumerate_support_loop_matches_the_full_size_loop_on_random_states(size, m, seed, data):
    """Random sparse resources in random groupings; a branch of zero
    weight is refused with the same message by both."""
    args = _random_sparse_args(size, m, seed, data)
    _assert_same_result(_result(measure_all, *args), _result(dense_enumerate, *args))


@pytest.mark.parametrize("counts,agents,defector", [((5,), 3, None), ((3,), 5, None), ((3,), 5, 2)],
                         ids=["m5-n3", "m3-n5", "m3-n5-defector"])
def test_enumerate_support_loop_matches_the_full_size_loop_at_19_and_15_qubits(counts, agents, defector):
    rng = np.random.default_rng(8)
    args = _network_args([MessageSpec.random(m, rng) for m in counts], NetworkShape(counts, agents), defector)
    _assert_same_bits(measure_all(*args), dense_enumerate(*args))


def test_enumerate_peak_stays_near_the_output():
    """Enumerating (5,3), 19 qubits, holds at most the rotated block and its
    output at once: the traced peak stays within 2.5 times the kept states."""
    spec = MessageSpec.random(5, np.random.default_rng(0))
    tracemalloc.start()
    try:
        _, _, kept = protocol._network_branches([spec], NetworkShape.single(5, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * kept.nbytes, f"peak {peak / kept.nbytes:.2f} times the kept states"


def test_network_outcome_columns_are_permuted_only_when_drawn(monkeypatch):
    """Enumerating, the executor measures the events in canonical order, so
    its outcome array is returned as it is; a branch drawn in another event
    order still has its columns put back in canonical order."""
    returned = []

    def recorded(*args):
        returned.append(measure_all(*args))
        return returned[-1]

    monkeypatch.setattr(protocol, "measure_all", recorded)
    spec, shape = MessageSpec.random(2, np.random.default_rng(2)), NetworkShape.single(2, 2)
    outcomes = protocol._network_branches([spec], shape)[0]
    assert outcomes is returned[-1][0]
    order = list(reversed(tn.protocol_events(shape)))
    outcomes = protocol._network_branches([spec], shape, np.random.default_rng(3), order)[0]
    assert outcomes.tolist() == returned[-1][0][:, ::-1].tolist() != returned[-1][0].tolist()


def test_defection_table_peak_stays_near_the_kept_states():
    """The defection table of (5,3), defector 1, builds no joint operator
    (that stack alone would be 16 times the kept states): its traced peak
    stays within 2 times them."""
    spec = MessageSpec.random(5, np.random.default_rng(0))
    outcomes, probs, kept = protocol._network_branches([spec], NetworkShape.single(5, 3), defector=0)
    tracemalloc.start()
    try:
        _defection_table(outcomes, probs, kept, spec.qubits, GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * kept.nbytes, f"peak {peak / kept.nbytes:.2f} times the kept states"


@pytest.mark.parametrize("groups,keep,fault", [
    ([(0, 1)], [1], "exactly once"),
    ([(0, 1, 2)], [], "pairs or single qubits"),
    ([(0,)], [1], "exactly once"),
], ids=["qubit-twice", "three-qubit-group", "qubit-missing"])
def test_malformed_groups_are_refused(groups, keep, fault):
    with pytest.raises(ValueError, match=fault):
        measure_all(_nonzeros(tn.prepare_ghz(2)), StateVector([0.6, 0.8]), groups, keep)


def test_each_layout_of_one_resource_gets_its_own_plan():
    """One resource measured in one process with ``keep`` reversed and the
    groups permuted, enumerated, then drawn, then enumerated again: whichever
    plans are cached by then, each result is the full-size loop's bit for bit."""
    rng = np.random.default_rng(11)
    resource, message, groups, keep = _network_args([MessageSpec.random(2, rng)], NetworkShape.single(2, 2), 1)
    layouts = [(groups, keep), (groups, keep[::-1]), ([groups[g] for g in rng.permutation(len(groups))], keep)]
    for seed in (None, 3, None):
        for args in [(resource, message, g, k) for g, k in layouts]:
            if seed is None:
                _assert_same_bits(measure_all(*args), dense_enumerate(*args))
            else:
                _assert_same_bits(measure_all(*args, np.random.default_rng(seed)),
                                  dense_sampled(*args, np.random.default_rng(seed)))


def test_cached_plan_does_not_admit_another_message_width():
    """After a valid call is planned, the same resource, groups and kept
    qubits with a two-qubit message are refused as before."""
    resource, groups, keep = _nonzeros(tn.prepare_ghz(2)), [(0, 1)], [2]
    measure_all(resource, StateVector([0.6, 0.8]), groups, keep)
    with pytest.raises(ValueError, match=r"^groups and keep must hold each qubit exactly once, got \[0, 1, 2\]$"):
        measure_all(resource, StateVector([0.6, 0, 0, 0.8]), groups, keep)


def test_cached_plan_and_control_support_are_read_only():
    rng = np.random.default_rng(4)
    resource, message, groups, keep = _network_args([MessageSpec.random(3, rng)], NetworkShape.single(3, 2), 0)
    measure_all(resource, message, groups, keep)
    steps, final = protocol._plan(resource[0], resource[1].tobytes(), message.num_qubits, tuple(groups), tuple(keep))
    arrays = [at for _, _, at in steps if at is not None] + ([] if final is None else [final])
    arrays += list(_control_support(NetworkShape.single(3, 2))[1:])
    assert len(arrays) > 2
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def test_repeated_layout_is_planned_once():
    """A second call with the same resource, message width, groups and kept
    qubits, in either mode, finds no distinct values: its plan is cached."""
    args = _network_args([MessageSpec.random(3, np.random.default_rng(6))], NetworkShape.single(3, 3))
    measure_all(*args, np.random.default_rng(0))
    with mock.patch.object(protocol, "_distinct", wraps=protocol._distinct) as distinct:
        measure_all(*args, np.random.default_rng(1))
        measure_all(*args)
    assert distinct.call_count == 0
