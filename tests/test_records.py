"""The library's records against the per-row builders of ``_oracles``.

``_transcripts`` and ``_reports`` build each distinct part of a row once and
share it, and construct every record without its dataclass ``__init__``.
Each record must still hold, field by field, what the per-row builders give
for the same table: the same types, floats with the same bits and matrices
with the same bytes, all read-only.
"""

import dataclasses

import numpy as np
import pytest

import teleportnet as tn
from teleportnet import DensityMatrix, MessageSpec, NetworkShape, StateVector
from teleportnet.defection import _defection_table, _network_defection, recovery_unitaries
from teleportnet.protocol import _baseline_branches, _network_table, _sampling_rng, _transcript_table, measure_all
from teleportnet.resources import _ghz_support

from _oracles import row_reports, row_transcripts


def _fields(v):
    """``v`` with its type at every level: floats by ``float.hex``, density
    matrices by their bytes and whether they are writeable."""
    if isinstance(v, float):  # np.float64 is a float too
        return type(v).__name__, v.hex()
    if isinstance(v, DensityMatrix):
        m = v.matrix
        return "DensityMatrix", v.num_qubits, m.dtype.str, m.shape, m.tobytes(), m.flags.writeable
    if isinstance(v, tuple):
        return ("tuple",) + tuple(_fields(x) for x in v)
    if dataclasses.is_dataclass(v):
        return (type(v).__name__,) + tuple((f.name, _fields(getattr(v, f.name))) for f in dataclasses.fields(v))
    return type(v).__name__, v


def _assert_same_records(got, want):
    assert len(got) == len(want) > 0
    for g, w in zip(got, want):
        assert _fields(g) == _fields(w)
    for record in got:
        # the trusted construction fills every field, and nothing else
        assert list(vars(record)) == [f.name for f in dataclasses.fields(record)]


def _matrices(report):
    return (report.joint_density,) + report.per_qubit_density


def _assert_frozen(record, name, value):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, name, value)


SPECS = {
    (1,): [MessageSpec.random(1, np.random.default_rng(1))],
    (3,): [MessageSpec.random(3, np.random.default_rng(3))],
    (1, 2): [MessageSpec.random(m, np.random.default_rng(12)) for m in (1, 2)],
}


class TestTranscripts:
    @pytest.mark.parametrize("counts,agents", [((1,), 1), ((3,), 2), ((1, 2), 2)])
    @pytest.mark.parametrize("mode,seed", [("enumerate", None), ("sampled", 4), ("sampled", 11)])
    @pytest.mark.parametrize("permuted", [False, True])
    def test_network_runs(self, counts, agents, mode, seed, permuted):
        specs, shape = SPECS[counts], NetworkShape(counts, agents)
        events = tn.protocol_events(shape)
        order = [events[i] for i in np.random.default_rng(5).permutation(len(events))] if permuted else None
        basis = "plus_minus" if permuted else "hadamard_z"
        want = row_transcripts(_network_table(specs, shape, mode, seed, order, basis))
        if len(counts) > 1:
            got = tn.run_multi_receiver(specs, shape, mode, seed=seed, event_order=order, agent_basis=basis)
            got = got if mode == "enumerate" else [got]
        else:
            got = tn.run_controlled_teleport(specs[0], shape, mode, seed=seed, event_order=order, agent_basis=basis)
            got = [(t,) for t in got] if mode == "enumerate" else [(got,)]
        _assert_same_records([t for branch in got for t in branch], [t for branch in want for t in branch])
        assert all(len(branch) == len(counts) for branch in got)

    @pytest.mark.parametrize("mode,seed", [("enumerate", None), ("sampled", 2)])
    def test_baseline(self, mode, seed):
        spec, shape = SPECS[(3,)][0], NetworkShape.single(3, 3)
        want = []
        copies = zip(*(np.split(a, len(spec)) for a in _baseline_branches(spec, shape, _sampling_rng(mode, seed))))
        for index, (pair, (outcomes, probs, kept)) in enumerate(zip(spec.qubits, copies)):
            table = _transcript_table(outcomes, probs, kept, [MessageSpec((pair,))], copies=1)
            want += [t for t, in row_transcripts(table, index)]
        got = tn.run_baseline_ghz(spec, shape, mode, seed=seed)
        _assert_same_records(got, want)
        assert {t.message_index for t in got} == {0, 1, 2}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sampled_baseline_draws_copy_after_copy(self, seed):
        """A drawn baseline's copies are per-copy draws from one generator, in message order."""
        spec, shape = MessageSpec.random(6, np.random.default_rng(6)), NetworkShape.single(6, 3)
        rng, ghz, groups = np.random.default_rng(seed), _ghz_support(5), [(0, 1), (3,), (4,), (5,)]
        want = []
        for index, pair in enumerate(spec.qubits):
            table = _transcript_table(*measure_all(ghz, StateVector(pair), groups, [2], rng), [MessageSpec((pair,))],
                                      copies=1)
            want += [t for t, in row_transcripts(table, index)]
        _assert_same_records(tn.run_baseline_ghz(spec, shape, "sampled", seed=seed), want)

    @pytest.mark.parametrize("mode,seed", [("enumerate", None), ("sampled", 3)])
    def test_baseline_records_follow_their_copy(self, mode, seed):
        """Each transcript's ``message_index`` and its Bell outcome's message name its copy, copy-major."""
        spec, shape = MessageSpec.random(5, np.random.default_rng(5)), NetworkShape.single(5, 2)
        got = tn.run_baseline_ghz(spec, shape, mode, seed=seed)
        assert [t.message_index for t in got] == np.repeat(range(5), len(got) // 5).tolist()
        for t in got:
            assert [(m.sender, m.about) for m in t.classical_messages] == [
                ("sender", f"pair0.{t.message_index}"), ("agent0", "agent0"), ("agent1", "agent1")]
            assert t.classical_messages[0].payload is t.bell_outcomes[0]

    def test_transcripts_are_frozen(self):
        t = tn.run_controlled_teleport(SPECS[(1,)][0], NetworkShape.single(1, 1))[0]
        _assert_frozen(t, "fidelity", 0.5)
        _assert_frozen(t, "agent_bits", (1,))


class TestReports:
    @pytest.mark.parametrize("counts,agents,defector", [((1,), 2, 1), ((3,), 2, 0), ((1, 2), 3, 2)])
    def test_network_defection(self, counts, agents, defector):
        specs, shape = SPECS[counts], NetworkShape(counts, agents)
        want = row_reports(*_network_defection(specs, shape, defector), defector)
        _assert_same_records(tn.analyze_defection(specs, shape, defector), want)

    def test_baseline_defection(self):
        spec, shape, us = SPECS[(3,)][0], NetworkShape.single(3, 3), recovery_unitaries()
        want = []
        copies = zip(*(np.split(a, len(spec)) for a in _baseline_branches(spec, shape, defector=1)))
        for index, (pair, (outcomes, probs, kept)) in enumerate(zip(spec.qubits, copies)):
            want += row_reports(_defection_table(outcomes, probs, kept, [pair], us), kept, 1, index)
        _assert_same_records(tn.analyze_baseline_defection(spec, shape, 1), want)

    @pytest.mark.parametrize("counts", [(1,), (3,)])
    def test_reports_are_frozen_and_read_only(self, counts):
        reports = tn.analyze_defection(SPECS[counts], NetworkShape(counts, 2), 1)
        _assert_frozen(reports[0], "probability", 0.5)
        _assert_frozen(reports[0], "per_qubit_density", ())
        for r in reports:
            for d in _matrices(r):
                assert not d.matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            reports[-1].per_qubit_density[0].matrix[0, 0] = 1.0
        with pytest.raises(AttributeError):
            reports[-1].joint_density.matrix = np.eye(2)
