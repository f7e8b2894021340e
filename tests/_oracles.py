"""Independent brute-force oracles used to freeze expected values.

Everything here is written with explicit index loops or literal formulas so
it shares no code path with the library's vectorized kernels.  The tree
walkers at the end are the reference for the one-pass measurement executor:
they collapse the state one measurement at a time with the single-qubit and
Bell kernels of ``teleportnet.states``.  ``report_text`` is the reference
for the CLI's report writer, and ``run_report`` for the report of ``run``,
built from the library's objects.  ``dense_sampled`` and
``dense_enumerate`` are the executor's sampled and enumerate loops as they
were when they rotated the full state vector, and ``choice_pick`` the draw
as it was when it called ``Generator.choice``.  ``control_resource_two_terms``
is the control resource as it was built before it was written down from its
closed form, ``ghz_dense`` the GHZ state likewise, and ``kron_message_state``
the message state as it was built by one ``np.kron`` per qubit.  ``_nonzeros``
is a dense state's support as the executor takes a resource.  ``joint_stack_marginals``
is the defection table's reduction as it was when it built every branch's
joint operator and traced the stack.  ``row_transcripts`` and ``row_reports``
are the library's record builders as they were when they built every field
of every row on its own, through the dataclass constructors.
``pauli_frame_branch`` is one network branch's received state by the Pauli
frame, with each Bell outcome's Pauli found by ``bell_pauli`` from the Bell
vectors alone, not from ``CORRECTIONS``.
``entangled_info_walk`` is ``entangled_info_check`` as it was when it built
the dense message (x) control resource and collapsed both Bell pairs onto
Phi+ with ``measure_bell``.  ``corrected_fidelities`` is the fidelity stage
one branch at a time, with the corrections applied to the state.
"""

from __future__ import annotations

import functools
import json

import numpy as np

from teleportnet import (
    CORRECTIONS,
    BellOutcome,
    Branch,
    ClassicalMessage,
    ConditionalStateReport,
    DefectionReport,
    DensityMatrix,
    DiagonalForm,
    MessageSpec,
    PauliOp,
    ProtocolTranscript,
    QubitRegistry,
    StateVector,
    analyze_defection,
    apply_hadamard,
    apply_pauli,
    correction_for,
    fidelity,
    infer_branch,
    measure_bell,
    measure_x,
    measure_z,
    partial_trace,
    prepare_control_resource,
    prepare_ghz,
    prepare_message_state,
    project_onto_qubit_state,
    protocol_events,
    run_controlled_teleport,
    run_multi_receiver,
    tensor,
)
from teleportnet.defection import _form_for
from teleportnet.protocol import _BELL_ORDER, _PAULI_ORDER, _ROTATIONS, _support_amplitudes, _support_indices
from teleportnet.states import BELL_VECTORS, ZERO_BRANCH_ATOL, _num_qubits_for, _read_only

SQRT_HALF = 1.0 / np.sqrt(2.0)


def product_state_dense(pairs) -> np.ndarray:
    """Product-state amplitudes, one explicit per-qubit product per index."""
    m = len(pairs)
    amps = np.zeros(2 ** m, dtype=complex)
    for idx in range(2 ** m):
        value = 1.0 + 0.0j
        for q in range(m):
            alpha, beta = pairs[q]
            value *= beta if (idx >> q) & 1 else alpha
        amps[idx] = value
    return amps


def partial_trace_dense(amps: np.ndarray, keep) -> np.ndarray:
    """Entry-by-entry reduced density matrix via explicit basis sums."""
    n = int(np.log2(len(amps)))
    kept = sorted(keep)
    traced = [q for q in range(n) if q not in kept]
    k = len(kept)
    rho = np.zeros((2 ** k, 2 ** k), dtype=complex)
    for row in range(2 ** k):
        for col in range(2 ** k):
            for t in range(2 ** len(traced)):
                ir = ic = 0
                for pos, q in enumerate(kept):
                    ir |= ((row >> pos) & 1) << q
                    ic |= ((col >> pos) & 1) << q
                for pos, q in enumerate(traced):
                    bit = (t >> pos) & 1
                    ir |= bit << q
                    ic |= bit << q
                rho[row, col] += amps[ir] * np.conj(amps[ic])
    return rho


def qubit_marginal_dense(rho: np.ndarray, qubit: int) -> np.ndarray:
    """One qubit's 2x2 marginal of a density matrix: entry (a, b) sums the
    entries whose row and column agree on every other qubit."""
    out = np.zeros((2, 2), dtype=complex)
    for row in range(len(rho)):
        for col in range(len(rho)):
            if (row ^ col) & ~(1 << qubit) == 0:
                out[(row >> qubit) & 1, (col >> qubit) & 1] += rho[row, col]
    return out


def best_grid_fidelity(rhos: np.ndarray, pair, unitaries) -> np.ndarray:
    """For each operator of a (count, 2, 2) stack, the max over the grid of
    <t|U rho U^dag|t>, taken one unitary at a time."""
    t = np.asarray(pair, dtype=complex) / np.linalg.norm(pair)
    best = np.full(len(rhos), -np.inf)
    for u in unitaries:
        v = u.conj().T @ t  # U^dag |t>
        best = np.maximum(best, (v.conj() @ rhos @ v).real)
    return best


def whole_grid_recovery(rhos: np.ndarray, pair, unitaries) -> np.ndarray:
    """The grid search as one complex einsum over the whole grid for each
    block of 64 operators: the bit-exact reference for the library's
    search over distinct operators, which must reproduce every value's last bit.
    A lone operator in a last block is searched beside a copy of itself, so
    that it takes the bits it takes among two or more."""
    t = np.asarray(pair, dtype=np.complex128).reshape(2)
    t = t / np.linalg.norm(t)
    w = np.einsum("gba,b->ga", unitaries.conj(), t)  # w_g = U_g^dag |t>
    count = len(rhos)
    if count % 64 == 1:
        rhos = np.concatenate([rhos, rhos[-1:]])
    return np.concatenate([
        np.einsum("ga,bac,gc->bg", w.conj(), rhos[i:i + 64], w).real.max(axis=1)
        for i in range(0, len(rhos), 64)
    ])[:count]


def born_z_probability(amps: np.ndarray, qubit: int, bit: int) -> float:
    """Direct Born-rule sum over the indices whose ``qubit`` value is ``bit``."""
    total = 0.0
    for idx in range(len(amps)):
        if (idx >> qubit) & 1 == bit:
            total += abs(amps[idx]) ** 2
    return total


def project_dense(amps: np.ndarray, qubits, ket) -> tuple[float, np.ndarray]:
    """Projection of ``qubits`` onto the joint ``ket`` (entry 2a + b for a
    pair's values a, b), one basis index at a time: (probability,
    renormalized post-projection amplitudes)."""
    mask = sum(1 << q for q in qubits)

    def split(idx):
        sub = 0
        for q in qubits:
            sub = 2 * sub + ((idx >> q) & 1)
        return sub, idx & ~mask

    overlaps = {}
    for idx in range(len(amps)):
        sub, rest = split(idx)
        overlaps[rest] = overlaps.get(rest, 0.0) + np.conj(ket[sub]) * amps[idx]
    p = sum(abs(o) ** 2 for o in overlaps.values())
    out = np.zeros(len(amps), dtype=complex)
    for idx in range(len(amps)):
        sub, rest = split(idx)
        out[idx] = ket[sub] * overlaps[rest] / np.sqrt(p)
    return p, out


# Conditional single-qubit states after the sender's Bell measurement, keyed
# by outcome: the plain branch and the primed branch.
def conditional_kets(outcome: BellOutcome, alpha: complex, beta: complex):
    plain = {
        BellOutcome.PHI_PLUS: np.array([alpha, beta]),
        BellOutcome.PHI_MINUS: np.array([alpha, -beta]),
        BellOutcome.PSI_PLUS: np.array([beta, alpha]),
        BellOutcome.PSI_MINUS: np.array([-beta, alpha]),
    }[outcome]
    primed = {
        BellOutcome.PHI_PLUS: np.array([alpha, -beta]),
        BellOutcome.PHI_MINUS: np.array([alpha, beta]),
        BellOutcome.PSI_PLUS: np.array([beta, -alpha]),
        BellOutcome.PSI_MINUS: np.array([-beta, -alpha]),
    }[outcome]
    return plain.astype(complex), primed.astype(complex)


def product_of_kets(kets) -> np.ndarray:
    """Tensor product with explicit index products (qubit 0 = first ket)."""
    m = len(kets)
    amps = np.zeros(2 ** m, dtype=complex)
    for idx in range(2 ** m):
        value = 1.0 + 0.0j
        for q in range(m):
            value *= kets[q][(idx >> q) & 1]
        amps[idx] = value
    return amps


@functools.cache
def bell_pauli(outcome: BellOutcome) -> np.ndarray:
    """The Pauli sigma with (I (x) sigma)|Phi+> proportional to the outcome's Bell vector.  A pair
    measured with this outcome against an EPR pair in Phi+ leaves the far qubit in sigma|psi>, up to
    phase."""
    phi = BELL_VECTORS[BellOutcome.PHI_PLUS]
    found = [op.matrix for op in PauliOp
             if abs(abs(np.vdot(BELL_VECTORS[outcome], np.kron(np.eye(2), op.matrix) @ phi)) - 1) < 1e-12]
    assert len(found) == 1, outcome
    return found[0]


def pauli_frame_branch(specs, bell, ghz_bits) -> np.ndarray:
    """The received qubits of the network branch with Bell outcome indices ``bell`` (one per message
    qubit, flattened over receivers) and GHZ bits ``ghz_bits``, up to one global phase: received
    qubit i holds sigma_i Z^pi |psi_i>, with sigma_i its pair's ``bell_pauli`` and pi the parity of
    the GHZ bits, since the control resource pairs Phi+^M with GHZ+ and Phi-^M with GHZ-."""
    z = PauliOp.Z.matrix if sum(ghz_bits) % 2 else np.eye(2)
    pairs = [q for spec in specs for q in spec.qubits]
    return product_of_kets([bell_pauli(_BELL_ORDER[k]) @ z @ np.array(q) for k, q in zip(bell, pairs)])


def defection_mixture(outcomes, pairs) -> np.ndarray:
    """Receiver's mixed operator when the control bit is lost: the literal
    (plain+primed)(...) + (plain-primed)(...) combination, normalized."""
    plain = product_of_kets([conditional_kets(o, a, b)[0] for o, (a, b) in zip(outcomes, pairs)])
    primed = product_of_kets([conditional_kets(o, a, b)[1] for o, (a, b) in zip(outcomes, pairs)])
    plus = plain + primed
    minus = plain - primed
    rho = np.outer(plus, plus.conj()) + np.outer(minus, minus.conj())
    return rho / np.trace(rho).real


def control_resource_dense(message_counts, num_agents: int) -> np.ndarray:
    """Term-by-term construction of the control resource over
    [sender EPR halves][receiver EPR halves][agent qubits][sender GHZ qubit]."""
    total = sum(message_counts)
    n = num_agents
    size = 2 * total + n + 1
    amps = np.zeros(2 ** size, dtype=complex)
    for sign in (+1, -1):
        for idx in range(2 ** size):
            coeff = 1.0 + 0.0j
            for i in range(total):
                sender_bit = (idx >> i) & 1
                receiver_bit = (idx >> (total + i)) & 1
                if sender_bit != receiver_bit:
                    coeff = 0.0
                    break
                coeff *= (sign if sender_bit else 1.0) * SQRT_HALF
            if coeff == 0.0:
                continue
            ghz_bits = [(idx >> (2 * total + j)) & 1 for j in range(n + 1)]
            if all(b == 0 for b in ghz_bits):
                coeff *= SQRT_HALF
            elif all(b == 1 for b in ghz_bits):
                coeff *= sign * SQRT_HALF
            else:
                continue
            amps[idx] += coeff
    return amps / np.linalg.norm(amps)


def _epr_block(num_pairs: int, sign: int) -> StateVector:
    """Product of ``num_pairs`` pairs (|00> + sign|11>)/sqrt(2), laid out as
    [all first halves][all second halves]."""
    dim = 1 << num_pairs
    amps = np.zeros(dim * dim, dtype=np.complex128)
    s = np.arange(dim)
    parity = np.array([bin(i).count("1") & 1 for i in range(dim)])
    signs = np.where(parity == 1, float(sign), 1.0)
    amps[s + (s << num_pairs)] = signs / np.sqrt(dim)
    return StateVector(amps)


def control_resource_two_terms(message_counts, num_agents: int) -> np.ndarray:
    """The control resource as the sum of its two dense terms, the all-plus
    EPR product with GHZ(+) and the all-minus one with GHZ(-), scaled by
    1/sqrt(2) and normalized by ``StateVector``: the library's former build,
    kept as the bitwise reference of the closed form."""
    total = sum(message_counts)
    plus = tensor(_epr_block(total, +1), prepare_ghz(num_agents + 1, +1))
    minus = tensor(_epr_block(total, -1), prepare_ghz(num_agents + 1, -1))
    amps = (plus.amplitudes + minus.amplitudes) * SQRT_HALF
    return StateVector(amps).amplitudes


def max_eigenvalue(rho: np.ndarray) -> float:
    """Analytic ceiling for any unitary recovery against a pure target."""
    return float(np.linalg.eigvalsh(rho).max())


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.15g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def report_text(report: dict) -> str:
    """A report as one stdlib dump: every float cut to 15 significant digits,
    then ``json.dumps`` with ``indent=2`` and sorted keys."""
    return json.dumps(_round_floats(report), indent=2, sort_keys=True)


# --- run reports from the library's objects ----------------------------------


def _transcript_dict(t) -> dict:
    return {
        "receiver": t.receiver,
        "message_index": t.message_index,
        "bell_outcomes": [o.value for o in t.bell_outcomes],
        "agent_bits": list(t.agent_bits),
        "sender_ghz_bit": t.sender_ghz_bit,
        "branch": t.branch.value,
        "corrections": [op.value for op in t.corrections],
        "fidelity": t.fidelity,
        "branch_probability": t.branch_probability,
    }


def _density_dict(d) -> dict:
    mat = d.matrix
    return {
        "diag": [float(mat[i, i].real) for i in range(mat.shape[0])],
        "max_off_diagonal": d.max_off_diagonal(),
    }


def diag_matches(report, qubit: int, spec: MessageSpec) -> bool:
    """Whether a defection report's qubit carries its message's diagonal,
    preserved or swapped as the report's form says."""
    alpha, beta = spec.qubits[qubit]
    d = report.per_qubit_density[qubit].matrix
    if report.conforms_to[qubit] is DiagonalForm.PRESERVED:
        want = (abs(alpha) ** 2, abs(beta) ** 2)
    else:
        want = (abs(beta) ** 2, abs(alpha) ** 2)
    return abs(d[0, 0].real - want[0]) < 1e-12 and abs(d[1, 1].real - want[1]) < 1e-12


def _defection_dict(r) -> dict:
    return {
        "defector": r.defector + 1,
        "bell_outcomes": [o.value for o in r.bell_outcomes],
        "cooperator_bits": list(r.cooperator_bits),
        "probability": r.probability,
        "per_qubit": [
            {
                **_density_dict(d),
                "conforms_to": form.value,
                "max_recovery_fidelity": best,
            }
            for d, form, best in zip(r.per_qubit_density, r.conforms_to, r.max_fidelity)
        ],
        "off_diagonal_norm": r.off_diagonal_norm,
    }


def run_report(specs, shape, scenario: dict) -> tuple[dict, int]:
    """The report and exit code of ``teleportnet run`` for ``scenario`` (the
    report's ``scenario`` value), built from the library's transcripts and
    defection reports one record dict at a time; ``report_text`` writes it."""
    report = {"schema_version": 1, "command": "run", "scenario": scenario}
    defector = scenario["defector"]
    if defector is not None:
        flat = MessageSpec(tuple(q for s in specs for q in s.qubits))
        reports = analyze_defection(specs, shape, defector - 1)
        ok = all(
            r.off_diagonal_norm < 1e-12 and all(diag_matches(r, q, flat) for q in range(len(flat)))
            for r in reports
        )
        report["kind"] = "defection_analysis"
        report["branches"] = [_defection_dict(r) for r in reports]
        report["summary"] = {
            "num_branches": len(reports),
            "max_off_diagonal": max(r.off_diagonal_norm for r in reports),
            "probability_sum": sum(r.probability for r in reports),
            "all_diagonal": ok,
        }
        return report, 0 if ok else 1
    mode, seed = scenario["mode"], scenario["seed"]
    if shape.num_receivers == 1:
        transcripts = run_controlled_teleport(specs[0], shape, mode, seed=seed)
        transcripts = transcripts if mode == "enumerate" else [transcripts]
    else:
        transcripts = run_multi_receiver(specs, shape, mode, seed=seed)
        transcripts = [t for branch in transcripts for t in branch] if mode == "enumerate" else list(transcripts)
    min_fid = min(t.fidelity for t in transcripts)
    ok = min_fid >= 1.0 - 1e-10  # the reconstruction bar, written out rather than read from the code under test
    prob_sum = sum(t.branch_probability for t in transcripts) / max(shape.num_receivers, 1)
    report["kind"] = "protocol_run"
    report["transcripts"] = [_transcript_dict(t) for t in transcripts]
    report["summary"] = {
        "num_transcripts": len(transcripts),
        "min_fidelity": min_fid,
        "branch_probability_sum": prob_sum if mode == "enumerate" else None,
        "all_fidelities_pass": ok,
    }
    return report, 0 if ok else 1


# --- sequential tree walker -------------------------------------------------


def _measure_event(state, event, registry, basis, selector):
    """One protocol event on ``state``; ``selector`` is an outcome or a Generator."""
    if event[0] == "bell":
        _, r, i = event
        return measure_bell(state, (registry.message(r, i), registry.sender_epr(r, i)), selector)
    party = event[1]
    qubit = registry.sender_ghz if party == registry.shape.num_agents else registry.agent(party)
    if basis == "hadamard_z":
        return measure_z(apply_hadamard(state, qubit), qubit, selector)
    return measure_x(state, qubit, selector)


def walk_paths(state, events, registry, basis="hadamard_z"):
    """Every leaf of the measurement tree, depth first in ``events`` order:
    (outcome per event, probability, collapsed state)."""
    if not events:
        yield {}, 1.0, state
        return
    head, rest = events[0], events[1:]
    for selector in (tuple(BellOutcome) if head[0] == "bell" else (0, 1)):
        outcome, p, collapsed = _measure_event(state, head, registry, basis, selector)
        for outcomes, prob, final in walk_paths(collapsed, rest, registry, basis):
            outcomes[head] = outcome
            yield outcomes, p * prob, final


def sample_path(state, events, registry, basis, rng):
    """One leaf, each event drawn from ``rng`` in ``events`` order."""
    outcomes, prob = {}, 1.0
    for event in events:
        outcomes[event], p, state = _measure_event(state, event, registry, basis, rng)
        prob *= p
    return outcomes, prob, state


def _network_state(specs, shape):
    flat = [q for s in specs for q in s.qubits]
    resource = control_resource_dense(shape.message_counts, shape.num_agents)
    return StateVector(np.kron(resource, product_state_dense(flat)))


def _canonical_key(outcomes, shape):
    key = [tuple(BellOutcome).index(outcomes[("bell", r, i)])
           for r, m in enumerate(shape.message_counts) for i in range(m)]
    return tuple(key + [int(outcomes[("ghz", j)]) for j in range(shape.num_agents + 1)])


def _leaf_transcripts(outcomes, prob, final, specs, shape, registry):
    n = shape.num_agents
    agent_bits = tuple(int(outcomes[("ghz", j)]) for j in range(n))
    sender_bit = int(outcomes[("ghz", n)])
    branch = infer_branch(agent_bits, sender_bit)
    corrected = final
    ops = {}
    for r, m in enumerate(shape.message_counts):
        for i in range(m):
            ops[r, i] = correction_for(outcomes[("bell", r, i)], branch, CORRECTIONS)
            corrected = apply_pauli(corrected, registry.receiver_epr(r, i), ops[r, i])
    out = []
    for r, spec in enumerate(specs):
        m = len(spec)
        rho = partial_trace(corrected, [registry.receiver_epr(r, i) for i in range(m)])
        outs = tuple(outcomes[("bell", r, i)] for i in range(m))
        messages = (
            [ClassicalMessage("sender", o, f"pair{r}.{i}") for i, o in enumerate(outs)]
            + [ClassicalMessage(f"agent{j}", agent_bits[j], f"agent{j}") for j in range(n)]
            + [ClassicalMessage("sender", sender_bit, "ghz_s")]
        )
        out.append(ProtocolTranscript(
            receiver=r,
            bell_outcomes=outs,
            agent_bits=agent_bits,
            sender_ghz_bit=sender_bit,
            branch=branch,
            corrections=tuple(ops[r, i] for i in range(m)),
            fidelity=fidelity(rho, StateVector(product_state_dense(spec.qubits))),
            branch_probability=prob,
            classical_messages=tuple(messages),
        ))
    return tuple(out)


def walk_transcripts(specs, shape, mode="enumerate", *, seed=None, event_order=None,
                     agent_basis="hadamard_z"):
    """Reference for ``run_multi_receiver``: per branch, one transcript per
    receiver, in canonical order; in sampled mode the single drawn branch."""
    state = _network_state(specs, shape)
    registry = QubitRegistry(shape)
    events = tuple(tuple(e) for e in event_order) if event_order else protocol_events(shape)
    if mode == "sampled":
        leaf = sample_path(state, events, registry, agent_basis, np.random.default_rng(seed))
        return _leaf_transcripts(*leaf, specs, shape, registry)
    leaves = sorted(walk_paths(state, events, registry, agent_basis),
                    key=lambda leaf: _canonical_key(leaf[0], shape))
    return [_leaf_transcripts(*leaf, specs, shape, registry) for leaf in leaves]


def walk_defection(specs, shape, defector):
    """Reference for ``analyze_defection``: (Bell outcomes, cooperator bits,
    probability, receivers' joint density matrix) per cooperating branch."""
    registry = QubitRegistry(shape)
    events = tuple(e for e in protocol_events(shape) if e != ("ghz", defector))
    received = [registry.receiver_epr(r, i) for r, m in enumerate(shape.message_counts) for i in range(m)]
    out = []
    for outcomes, prob, final in walk_paths(_network_state(specs, shape), events, registry):
        bells = tuple(outcomes[e] for e in events if e[0] == "bell")
        bits = tuple(int(outcomes[e]) for e in events if e[0] == "ghz")
        out.append((bells, bits, prob, partial_trace(final, received).matrix))
    return out


def entangled_info_walk(spec, shape) -> ConditionalStateReport:
    """``entangled_info_check`` over the dense product: both Bell pairs
    collapsed onto Phi+ one at a time, then the first received qubit
    projected and the second one reduced."""
    state = tensor(prepare_message_state(spec), prepare_control_resource(shape)[0])
    registry = QubitRegistry(shape)
    for i in range(2):
        pair = (registry.message(0, i), registry.sender_epr(0, i))
        _, _, state = measure_bell(state, pair, BellOutcome.PHI_PLUS)
    (a1, b1), (a2, b2) = spec.qubits
    results = []
    for sign in (+1, -1):
        p, projected = project_onto_qubit_state(state, registry.receiver_epr(0, 0), [a1, sign * b1])
        rho = partial_trace(projected, [registry.receiver_epr(0, 1)])
        results.append((p, fidelity(rho, StateVector([a2, sign * b2]))))
    (pp, fp), (pm, fm) = results
    return ConditionalStateReport(plus_probability=pp, plus_fidelity=fp, minus_probability=pm, minus_fidelity=fm)


def corrected_fidelities(kept: np.ndarray, ops: np.ndarray, counts, pairs) -> list[np.ndarray]:
    """Per receiver, each branch's fidelity as ``protocol._fidelities`` gives it,
    one branch at a time: every received qubit of the kept state corrected by
    ``apply_pauli`` with its Pauli (``ops[b, i]``, in ``PauliOp`` order), each
    receiver's qubits kept by ``partial_trace``, and the ``fidelity`` of that
    with the product of its message qubits."""
    out = [np.empty(len(kept)) for _ in counts]
    for b, row in enumerate(kept):
        state = StateVector(row)
        for i, k in enumerate(ops[b].tolist()):
            state = apply_pauli(state, i, _PAULI_ORDER[k])
        start = 0
        for r, m in enumerate(counts):
            target = StateVector(product_state_dense(pairs[start:start + m]))
            out[r][b] = fidelity(partial_trace(state, range(start, start + m)), target)
            start += m
    return out


def _baseline_leaves(alpha, beta, num_agents, skip=None, rng=None):
    """Leaves of one baseline copy: message 0, sender GHZ 1, receiver 2, agents 3.."""
    ghz = np.zeros(2 ** (num_agents + 2), dtype=complex)
    ghz[0] = ghz[-1] = SQRT_HALF
    state = StateVector(np.kron(ghz, [alpha, beta]))
    bell = [rng] if rng is not None else list(BellOutcome)
    leaves = [((o,), p, s) for o, p, s in (measure_bell(state, (0, 1), sel) for sel in bell)]
    for j in range(num_agents):
        if j == skip:
            continue
        bits = [rng] if rng is not None else [0, 1]
        leaves = [
            (key + (bit,), prob * p, s)
            for key, prob, leaf in leaves
            for bit, p, s in (measure_z(apply_hadamard(leaf, 3 + j), 3 + j, sel) for sel in bits)
        ]
    return leaves


def walk_baseline(spec, num_agents, mode="enumerate", seed=None):
    """Reference for ``run_baseline_ghz``: (copy, Bell outcome, agent bits,
    correction, fidelity, probability) per copy and branch."""
    rng = np.random.default_rng(seed) if mode == "sampled" else None
    out = []
    for index, (alpha, beta) in enumerate(spec.qubits):
        for (outcome, *bits), prob, state in _baseline_leaves(alpha, beta, num_agents, rng=rng):
            op = correction_for(outcome, infer_branch(bits, 0))
            rho = partial_trace(apply_pauli(state, 2, op), [2])
            out.append((index, outcome, tuple(bits), op, fidelity(rho, StateVector([alpha, beta])), prob))
    return out


def walk_baseline_defection(spec, num_agents, defector):
    """Reference for ``analyze_baseline_defection``: (copy, Bell outcome,
    cooperator bits, probability, receiver density matrix)."""
    return [
        (index, outcome, tuple(bits), prob, partial_trace(state, [2]).matrix)
        for index, (alpha, beta) in enumerate(spec.qubits)
        for (outcome, *bits), prob, state in _baseline_leaves(alpha, beta, num_agents, skip=defector)
    ]


# --- the full-size executor ---------------------------------------------------


def _normalized(outcomes, kept):
    """``measure_all``'s ending: the row norms are the probabilities, and a
    row that is not finite or has no weight is refused."""
    probs = np.einsum("bj,bj->b", kept, kept.conj()).real
    if not np.all(np.isfinite(probs)):
        raise ValueError("amplitudes must be finite")
    low = np.flatnonzero(probs < ZERO_BRANCH_ATOL)
    if low.size:
        b = low[0]
        raise ValueError(f"branch with outcomes {outcomes[b].tolist()} has probability {probs[b]:.3e}")
    return outcomes, probs, kept / np.sqrt(probs)[:, None]


def choice_pick(rng, outcomes, probs):
    """``states._pick``'s draw as it was: ``Generator.choice`` on the
    clipped, normalized weights."""
    p = np.clip(np.asarray(probs, dtype=float), 0.0, None)
    return outcomes[rng.choice(len(outcomes), p=p / p.sum())]


def kron_message_state(spec) -> StateVector:
    """``prepare_message_state`` as it was: one ``np.kron`` per qubit."""
    amps = np.array([1.0], dtype=np.complex128)
    for a, b in spec.qubits:
        amps = np.kron(np.array([a, b], dtype=np.complex128), amps)
    return StateVector(amps)


def _nonzeros(state: StateVector) -> tuple[int, np.ndarray, np.ndarray]:
    """``state``'s support as ``measure_all`` takes a resource."""
    return state.num_qubits, (at := np.flatnonzero(state.amplitudes)), state.amplitudes[at]


def ghz_dense(num_qubits: int, sign: int) -> StateVector:
    """``prepare_ghz`` as it was before it was written down from its closed
    form: both corners set in a vector of zeros, normalized by the constructor."""
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[0], amps[-1] = SQRT_HALF, sign * SQRT_HALF
    return StateVector(amps)


def resource_state(resource) -> StateVector:
    """A resource given as ``measure_all`` takes it, by its qubit count and
    support, scattered into zeros."""
    n, idx, vals = resource
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[idx] = vals
    return StateVector._wrap(amps)


def executor_layout(groups, keep):
    """``measure_all``'s layout: the groups' qubits in order, then ``keep``
    from last to first, the first qubit on the most significant index bit."""
    return [q for g in groups for q in g] + list(reversed(keep))


def dense_sampled(resource, message, groups, keep, rng):
    """``measure_all``'s sampled mode over the full 2^N vector: the laid-out
    ``tensor(message, resource)`` is rotated one group at a time in group
    order and each outcome drawn by the Born weights of every row.  Its bits
    are the reference for the loop over the state's support."""
    full = tensor(message, resource_state(resource))
    n = full.num_qubits
    layout = executor_layout(groups, keep)
    t = np.transpose(full.amplitudes.reshape((2,) * n), [n - 1 - q for q in layout]).reshape(-1)
    outcomes = np.zeros((1, len(groups)), dtype=np.int64)
    for g, group in enumerate(groups):
        d = 1 << len(group)
        t = _ROTATIONS[d] @ t.reshape(d, -1)
        weights = np.einsum("ij,ij->i", t, t.conj()).real
        outcomes[0, g] = choice_pick(rng, range(d), weights)
        t = t[outcomes[0, g]]
    return _normalized(outcomes, t.reshape(1, -1))


def scattered_support(resource, message, layout=None):
    """The laid-out state vector: the executor's support of ``tensor(message,
    resource)`` scattered into zeros."""
    n, idx = _support_indices(resource[0], resource[1], message.num_qubits, layout)
    out = np.zeros(1 << n, dtype=np.complex128)
    out[idx] = _support_amplitudes(resource, message)
    return out


def dense_enumerate(resource, message, groups, keep):
    """``measure_all``'s enumerate mode over the full 2^N vector: the
    state's support scattered into zeros in the executor's layout, each
    group's axis rotated in group order and moved behind the others, and
    every row kept.  Its bits are the reference for the loop over the
    state's support."""
    dims = [1 << len(g) for g in groups]
    t = scattered_support(resource, message, executor_layout(groups, keep))
    for d in dims:
        # rotate the leading axis and move it behind the others, so that
        # after the last group the layout is (kept, groups...)
        t = t.reshape(d, -1).T @ _ROTATIONS[d].T
    kept = t.reshape(-1, int(np.prod(dims))).T
    outcomes = np.stack(np.unravel_index(np.arange(kept.shape[0]), dims), axis=1)
    return _normalized(outcomes, kept)


def joint_stack_marginals(kept: np.ndarray, total: int) -> list[np.ndarray]:
    """Each received qubit's 2x2 operators for a defection's ``kept`` rows (the
    defector's qubit on top), through the stack of every branch's joint
    operator and one partial trace of it per qubit."""
    halves = kept.reshape(len(kept), 2, 1 << total)
    joints = np.einsum("bdi,bdj->bij", halves, halves.conj())  # defector traced out
    return [joints] if total == 1 else [_partial_trace_stack(joints, total, [i]) for i in range(total)]


def _partial_trace_stack(rhos: np.ndarray, n: int, kept) -> np.ndarray:
    """Reduced operators over the sorted, in-range ``kept`` for a stack
    ``(count, 2^n, 2^n)`` of n-qubit operators; no validation."""
    traced = [q for q in range(n) if q not in kept]
    axis = lambda q: n - q  # noqa: E731  (axis 0 is the stack; axis j >= 1 is qubit n-j)
    keep_r = [axis(q) for q in reversed(kept)]
    keep_c = [n + a for a in keep_r]
    trace_r = [axis(q) for q in traced]
    trace_c = [n + a for a in trace_r]
    t = np.transpose(rhos.reshape([len(rhos)] + [2] * (2 * n)), [0] + keep_r + trace_r + keep_c + trace_c)
    k, d = len(kept), len(traced)
    t = t.reshape(len(rhos), 1 << k, 1 << d, 1 << k, 1 << d)
    return np.einsum("...atbt->...ab", t)


# --- the per-row record builders ----------------------------------------------


def row_transcripts(t, message_index=None) -> list[tuple[ProtocolTranscript, ...]]:
    """One tuple of transcripts (one per receiver) per row of the table."""
    total, sender = sum(t.counts), t.copies is None
    num_agents = t.outcomes.shape[1] - total - sender
    labels = [f"pair{r}.{i if message_index is None else message_index}"
              for r, m in enumerate(t.counts) for i in range(m)]
    bell_messages = [[ClassicalMessage("sender", o, label) for o in _BELL_ORDER] for label in labels]
    agent_messages = [[ClassicalMessage(f"agent{j}", bit, f"agent{j}") for bit in (0, 1)]
                      for j in range(num_agents)]
    sender_messages = [ClassicalMessage("sender", bit, "ghz_s") for bit in (0, 1)]
    branches = (Branch.EVEN, Branch.ODD)

    out = []
    for row, row_ops, odd, p, *row_fids in zip(
        t.outcomes.tolist(), t.ops.tolist(), t.parity.tolist(), t.probs.tolist(), *(f.tolist() for f in t.fids)
    ):
        bits = tuple(row[total:total + num_agents])
        sender_bit = row[-1] if sender else None
        shared = tuple(agent_messages[j][b] for j, b in enumerate(bits))
        if sender:
            shared += (sender_messages[sender_bit],)
        per_receiver = []
        start = 0
        for r, m in enumerate(t.counts):
            own = range(start, start + m)
            per_receiver.append(ProtocolTranscript(
                receiver=r,
                bell_outcomes=tuple(_BELL_ORDER[row[i]] for i in own),
                agent_bits=bits,
                sender_ghz_bit=sender_bit,
                branch=branches[odd],
                corrections=tuple(_PAULI_ORDER[row_ops[i]] for i in own),
                fidelity=row_fids[r],
                branch_probability=p,
                classical_messages=tuple(bell_messages[i][row[i]] for i in own) + shared,
                message_index=message_index,
            ))
            start += m
        out.append(tuple(per_receiver))
    return out


def _wrap(mat: np.ndarray) -> DensityMatrix:
    """A density matrix holding ``mat``, a complex square matrix of a checked
    stack, made read-only and not copied."""
    dm = object.__new__(DensityMatrix)
    object.__setattr__(dm, "num_qubits", _num_qubits_for(mat.shape[0]))
    object.__setattr__(dm, "matrix", _read_only(mat))
    return dm


def row_reports(t, kept: np.ndarray, defector: int, message_index=None) -> list[DefectionReport]:
    """One report per row of the table, with its joint operator from the kept states the table reduced."""
    total = len(t.operators)
    halves = kept.reshape(len(kept), 2, 1 << total)
    joints = np.einsum("bdi,bdj->bij", halves, halves.conj())  # defector traced out
    norms = t.off.max(axis=1).tolist()
    reports = []
    for b, (row, prob, mat) in enumerate(zip(t.outcomes.tolist(), t.probs.tolist(), joints)):
        per_qubit = tuple(_wrap(ops[inverse[b]]) for ops, inverse in t.operators)
        bells = tuple(_BELL_ORDER[o] for o in row[:total])
        reports.append(DefectionReport(
            defector=defector,
            bell_outcomes=bells,
            cooperator_bits=tuple(row[total:]),
            probability=prob,
            joint_density=_wrap(mat),
            per_qubit_density=per_qubit,
            off_diagonal_norm=norms[b],
            max_fidelity=tuple(t.best[b].tolist()),
            conforms_to=tuple(_form_for(o) for o in bells),
            message_index=message_index,
        ))
    return reports
