"""The one-pass measurement executor against the sequential tree walker of
``_oracles``, over random small networks, event orders and agent bases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import teleportnet as tn
from teleportnet import MessageSpec, NetworkShape, StateVector
from teleportnet.defection import _defection_table, _reports
from teleportnet.protocol import measure_all

from _oracles import (
    best_grid_fidelity,
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
    reports = _reports(_defection_table(outcomes, probs, kept, pairs, GRID), 0)
    joints = [partial_trace_dense(k, range(total)) for k in kept]  # the top qubit is the defector's
    for r, row, joint in zip(reports, outcomes, joints):
        assert r.cooperator_bits == tuple(row[total:])
        np.testing.assert_allclose(r.joint_density.matrix, joint, rtol=0, atol=TOL)
    assert max(r.off_diagonal_norm for r in reports) > 1e-3
    _assert_reductions(reports, joints, pairs)


def test_zero_probability_branch_is_refused():
    # |0> (x) |0> has no weight on the psi outcomes of a Bell measurement
    with pytest.raises(ValueError, match="probability"):
        measure_all(StateVector([1, 0]), StateVector([1, 0]), [(0, 1)], [])
