"""Controlled-teleportation protocol engine.

Runs the entangling protocol (one sender, n controlling agents, k receivers)
and the per-copy GHZ baseline, either sampling one branch with a seeded RNG or
exhaustively enumerating every measurement branch.  Transcripts record the
classical traffic, the applied corrections, and the reconstruction fidelity.

Every measurement acts on its own qubits, so all of them commute.  One
executor, ``measure_all``, therefore rotates each measured pair or qubit into
its measurement basis in one pass and reads every branch off the result,
instead of collapsing a copy of the state once per branch.  It rotates only
the support of the message (x) resource product, in both modes, and keeps
every rotated row or draws one; network runs, defection, the baseline and
the baseline's defection all measure through it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Literal, Mapping, NamedTuple, Sequence

import numpy as np

from .resources import (
    _LAYOUTS_CACHED,
    MessageSpec,
    NetworkShape,
    ParityClass,
    QubitRegistry,
    _control_support,
    _ghz_support,
    _integral,
    prepare_message_state,
)
from .states import (
    _BELL_MATRIX,
    HADAMARD,
    ZERO_BRANCH_ATOL,
    BellOutcome,
    PauliOp,
    StateVector,
    _pick,
    _read_only,
)

AgentBasis = Literal["hadamard_z", "plus_minus"]
Branch = ParityClass  # the joint parity of all control bits: EVEN picks the first correction column, ODD the second

_BELL_ORDER = tuple(BellOutcome)
_PAULI_ORDER = tuple(PauliOp)
_PAULI_STACK = np.stack([op.matrix for op in _PAULI_ORDER])


# outcome -> (correction in the EVEN branch, correction in the ODD branch)
CORRECTIONS: dict[BellOutcome, tuple[PauliOp, PauliOp]] = {
    BellOutcome.PHI_PLUS: (PauliOp.I, PauliOp.Z),
    BellOutcome.PHI_MINUS: (PauliOp.Z, PauliOp.I),
    BellOutcome.PSI_PLUS: (PauliOp.X, PauliOp.Y),
    BellOutcome.PSI_MINUS: (PauliOp.Y, PauliOp.X),
}

FIDELITY_ATOL = 1e-10


def infer_branch(agent_bits: Sequence[int], sender_bit: int) -> Branch:
    """Branch selected by the agents' bits and the sender's GHZ bit."""
    parity = int(sender_bit) & 1
    for b in agent_bits:
        parity ^= int(b) & 1
    return Branch.EVEN if parity == 0 else Branch.ODD


def correction_for(
    outcome: BellOutcome,
    branch: Branch,
    table: Mapping[BellOutcome, tuple[PauliOp, PauliOp]] | None = None,
) -> PauliOp:
    """Receiver-side Pauli correction for one qubit."""
    pair = (table or CORRECTIONS)[outcome]
    return pair[0] if branch is Branch.EVEN else pair[1]


@dataclass(frozen=True)
class ClassicalMessage:
    """One classical transmission: a Bell outcome or a measurement bit."""

    sender: str
    payload: BellOutcome | int
    about: str


@dataclass(frozen=True)
class Party:
    role: str
    held_qubits: tuple[int, ...]


def parties(shape: NetworkShape) -> tuple[Party, ...]:
    """Qubit holdings of the sender, each receiver, and each agent."""
    reg = QubitRegistry(shape)
    sender_held = []
    out = []
    for r, m in enumerate(shape.message_counts):
        sender_held += [reg.message(r, i) for i in range(m)]
        sender_held += [reg.sender_epr(r, i) for i in range(m)]
        out.append(Party(f"receiver{r}", tuple(reg.receiver_epr(r, i) for i in range(m))))
    sender_held.append(reg.sender_ghz)
    out = [Party("sender", tuple(sender_held))] + out
    out += [Party(f"agent{j}", (reg.agent(j),)) for j in range(shape.num_agents)]
    return tuple(out)


@dataclass(frozen=True)
class ProtocolTranscript:
    """Record of one protocol branch as seen by one receiver."""

    receiver: int
    bell_outcomes: tuple[BellOutcome, ...]
    agent_bits: tuple[int, ...]
    sender_ghz_bit: int | None
    branch: Branch
    corrections: tuple[PauliOp, ...]
    fidelity: float
    branch_probability: float
    classical_messages: tuple[ClassicalMessage, ...] = ()
    message_index: int | None = None


Event = tuple  # ("bell", receiver, index) or ("ghz", party) with party == num_agents for the sender


def protocol_events(shape: NetworkShape) -> tuple[Event, ...]:
    """Canonical event order: Bell pairs, then agents, then the sender."""
    events: list[Event] = [
        ("bell", r, i) for r, m in enumerate(shape.message_counts) for i in range(m)
    ]
    events += [("ghz", j) for j in range(shape.num_agents + 1)]
    return tuple(events)


def _event_qubits(event: Event, registry: QubitRegistry) -> tuple[int, ...]:
    """The qubits one event measures: a Bell pair or one GHZ qubit."""
    if event[0] == "bell":
        _, r, i = event
        return registry.message(r, i), registry.sender_epr(r, i)
    if event[1] == registry.shape.num_agents:
        return (registry.sender_ghz,)
    return (registry.agent(event[1]),)


# Rotation into the measurement basis, keyed by the number of outcomes.  Row k
# of each is the conjugated basis vector of outcome k.  A GHZ qubit read with
# a Hadamard and a Z measurement, or directly in the X basis, gets the same
# amplitudes, so the agent basis needs no rotation of its own.
_ROTATIONS = {4: np.conj(_BELL_MATRIX), 2: HADAMARD}
_MAX_QUBITS = 63  # the widest product whose basis indices an int64 holds


def _measurable(width: int) -> int:
    """``width``, refused when it is wider than int64 basis indices hold."""
    if width > _MAX_QUBITS:
        raise ValueError(f"at most {_MAX_QUBITS} qubits (int64 indices) can be measured, not {width}")
    return width


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An index of each distinct key of a 1-D array, in sorted key order, and each key's index among
    them: ``np.unique``'s ``return_index`` and ``return_inverse`` without its fixed cost.  Equal keys
    stand for equal rows, so any of them will do and the sort need not be stable; one key is not sorted."""
    if len(keys) <= 1:
        return np.zeros(len(keys), dtype=np.intp), np.zeros(len(keys), dtype=np.intp)
    order = keys.argsort()
    ranked = keys[order]
    new = np.concatenate(([True], ranked[1:] != ranked[:-1]))
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = new.cumsum() - 1
    return order[new], inverse


def measure_all(
    resource: tuple[int, np.ndarray, np.ndarray],
    message: StateVector | Sequence[StateVector],
    groups: Sequence[tuple[int, ...]],
    keep: Sequence[int],
    rng: np.random.Generator | Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Measure every group of ``groups`` of ``tensor(message, resource)`` in
    one pass and keep ``keep``.  ``resource`` is given by its support: its
    qubit count and the indices and amplitudes of its nonzeros, in any order.

    A group is a qubit pair ``(a, b)``, measured in the Bell basis, or a
    single qubit, measured in the X basis; every qubit lies in exactly one
    group or in ``keep``.  Returns ``(outcomes, probabilities, kept)``.
    ``outcomes[b, g]`` is group g's result in branch b: an index into
    ``BellOutcome`` for a pair, the bit (0 = plus) for a qubit.  ``kept[b]``
    is the normalized state of the kept qubits in that branch, bit t holding
    qubit ``keep[t]``.

    The groups are measured in the order given, laid out in it from the most
    significant index bit down, then ``keep`` from last to first; bit 2a + b
    of a pair's axis holds (value of a, value of b).  Without ``rng`` every
    branch is returned, in mixed-radix order of the group outcomes (the
    first group most significant).  With ``rng`` one branch is drawn group
    by group, each by Born weights conditioned on the earlier ones, over the
    support.  A sequence of outcome indices in place of ``rng``, one per
    group, fixes each group's outcome, so that only that branch is kept (0:
    Phi+ for a pair, plus for a qubit).  A branch of next to no weight is
    refused: an enumerated one by its probability, a drawn or fixed one by
    each outcome's weight given the earlier ones.  Several messages of one width are enumerated in one pass,
    each with its own copy of the resource, as the most significant branch digit, bit for bit as its own call.
    """
    fixed = rng is not None and not isinstance(rng, np.random.Generator)
    if fixed and len(rng) != len(groups):
        raise ValueError(f"a fixed branch needs one outcome per group: got {len(rng)} for {len(groups)} groups")
    messages = [message] if isinstance(message, StateVector) else list(message)
    if len({s.num_qubits for s in messages}) != 1 or rng is not None and len(messages) > 1:
        raise ValueError(f"give one message, or to enumerate, several of one width: got {len(messages)}")
    steps, final = _plan(resource[0], np.asarray(resource[1], dtype=np.int64).tobytes(), messages[0].num_qubits,
                         tuple(map(tuple, groups)), tuple(keep))
    # t[c, b] is branch b's amplitude at the c-th laid-out value of the unmeasured qubits
    t = np.array([_support_amplitudes(resource, s) for s in messages]).T
    outcomes = np.zeros((len(messages), len(groups)), dtype=np.int64)
    for g, (d, rows, at) in enumerate(steps):
        vals, t = t, np.zeros((rows, t.shape[1]), dtype=np.complex128)
        t[at] = vals[:len(at)]
        del vals  # only the block is held through the rotation
        # rotate the group's axis and move it behind the branches: the first group stays most significant
        t = (t.reshape(d, -1).T @ _ROTATIONS[d].T).reshape(-1, t.shape[-1] * d)
        if rng is not None:
            w = np.ascontiguousarray(t.T)
            weights = np.einsum("ij,ij->i", w, w.conj()).real.tolist()
            k = outcomes[0, g] = _pick(rng[g] if fixed else rng, range(d), weights)
            if weights[k] < ZERO_BRANCH_ATOL * sum(weights):
                raise ValueError(f"outcome {k} on qubits {groups[g]} has probability {weights[k] / sum(weights):.3e}")
            t = w[k, :, None]
    if final is not None:
        vals, t = t, np.zeros((1 << len(keep), t.shape[1]), dtype=np.complex128)
        t[final] = vals[:len(final)]
    kept = t.T
    if rng is None and groups:  # with no group, the one branch has no outcomes
        # the message is the high part of the first group's digit, masked off after
        sizes = [1 << len(g) for g in groups]
        outcomes = np.stack(np.unravel_index(np.arange(len(kept)), [len(messages) * sizes[0]] + sizes[1:]), axis=1)
        outcomes[:, 0] &= sizes[0] - 1
    probs = np.einsum("bj,bj->b", kept, kept.conj()).real
    if not np.all(np.isfinite(probs)):
        raise ValueError("amplitudes must be finite")
    low = np.flatnonzero(probs < ZERO_BRANCH_ATOL) if rng is None else ()  # a draw is guarded as it is made
    if len(low):
        b = low[0]
        raise ValueError(f"branch with outcomes {outcomes[b].tolist()} has probability {probs[b]:.3e}")
    return outcomes, probs, kept / np.sqrt(probs)[:, None]


@functools.lru_cache(maxsize=_LAYOUTS_CACHED)
def _plan(qubits: int, indices: bytes, m: int, groups: tuple, keep: tuple):
    """The half of ``measure_all`` that depends on where the support lies, not on its values, for a
    resource of ``qubits`` qubits with nonzeros at ``indices`` (int64 bytes) and an m-qubit message: per
    group, its outcome count, its block's rows and the rows its amplitudes go to, then the kept values'
    rows (None if every row, in order).  Cached, so its arrays are read-only."""
    layout = [q for g in groups for q in g] + list(reversed(keep))
    width = _measurable(qubits + m)
    if any(len(g) not in (1, 2) for g in groups):
        raise ValueError(f"groups must be qubit pairs or single qubits, got {list(groups)}")
    if sorted(layout) != list(range(width)):
        raise ValueError(f"groups and keep must hold each qubit exactly once, got {sorted(layout)}")
    n, cols = _support_indices(qubits, np.frombuffer(indices, dtype=np.int64), m, layout)
    steps = []
    for group in groups:
        d, n = 1 << len(group), n - len(group)
        # the rows are the values of the later qubits that hold a nonzero, in order; a lone
        # row is padded, since gemv would round it unlike the full block's gemm
        hi, low = cols >> n, cols & ((1 << n) - 1)
        first, at = _distinct(low)
        cols = low[first]
        rows = max(len(cols), min(2, 1 << n))
        steps.append((d, d * rows, _read_only(at + hi * rows)))
    # values out of _distinct are sorted, so 1 << n of them are every row in order; with no
    # group, the kept values are the support's, in its own order
    return tuple(steps), None if steps and len(cols) == 1 << n else _read_only(cols)


def _support_indices(size: int, indices: np.ndarray, m: int, layout: Sequence[int] | None = None):
    """``(N, at)`` for an m-qubit message (x) a ``size``-qubit resource with nonzeros at ``indices``:
    N = m + ``size``, and the index of each of ``_support_amplitudes``, with qubit ``layout[j]`` on
    index bit N-1-j (default: qubit q on bit q)."""
    n = m + size
    qubits = np.arange(n - 1, -1, -1) if layout is None else np.asarray(layout)
    bits = 1 << np.arange(n - 1, -1, -1)
    # product qubit q >= m is resource qubit q - m, q < m message qubit q: lay each out alone, then join
    res, msg = qubits >= m, qubits < m
    at = ((indices[:, None] >> (qubits[res] - m)) & 1) @ bits[res]
    at = at[:, None] | ((np.arange(1 << m)[:, None] >> qubits[msg]) & 1) @ bits[msg]
    return n, at.reshape(-1)


def _support_amplitudes(resource: tuple[int, np.ndarray, np.ndarray], message: StateVector) -> np.ndarray:
    """The amplitudes of ``tensor(message, resource)`` over the resource's support.  Each is the same
    single product as ``tensor``'s, and none is renormalized (a sum of squares rounds apart with and
    without the zeros), so the two agree bit for bit."""
    return (resource[2][:, None] * message.amplitudes).reshape(-1)


def _fidelities(
    kept: np.ndarray, ops: np.ndarray, counts: Sequence[int], qubits: Sequence[tuple[complex, complex]]
) -> list[np.ndarray]:
    """Per receiver, the fidelity of each corrected branch with its message.

    ``ops[b, i]`` indexes (in ``PauliOp`` order) the correction of received qubit i in branch b, and
    ``qubits`` are the message pairs, flattened over receivers like ``kept``'s bits, then over copies
    when the branches are the copies' equal blocks, copy-major.  The correction C is a product of Paulis,
    so <t|C|psi> = <C^dag t|psi> and C^dag t is a product state: the states are never corrected, and
    each received qubit of a branch is contracted with its own factor of C^dag t, highest bit first.
    """
    size = len(kept)
    targets = np.asarray(qubits, dtype=np.complex128).reshape(-1, sum(counts), 2)  # (copy, received qubit, 2)
    # candidates[i, 4c + k] = (k-th Pauli)^dagger |t_i> of copy c
    candidates = np.einsum("kba,cib->icka", _PAULI_STACK.conj(), targets).reshape(targets.shape[1], -1, 2)
    shift = 4 * np.arange(len(targets))[:, None]  # per block of rows, where its copy's candidates start
    out = []
    start = 0
    for m in counts:
        v = kept
        for i in reversed(range(start, start + m)):
            # each copy's rows take that copy's candidates; axes: (branch, later qubits, qubit i, earlier qubits)
            factors = candidates[i].take(ops[:, i].reshape(len(targets), -1) + shift, axis=0).reshape(size, 2).conj()
            v = np.einsum("bhal,ba->bhl", v.reshape(size, -1, 2, 1 << i), factors)
        out.append(np.clip(np.einsum("bhl,bhl->b", v, v.conj()).real, 0.0, 1.0))
        start += m
    return out


class _TranscriptTable(NamedTuple):
    """Every branch of a run as columns, one row per branch."""

    outcomes: np.ndarray  # measure_all's outcomes: Bell outcomes, agent bits, sender bit
    parity: np.ndarray  # 1 where the branch is ODD
    ops: np.ndarray  # ops[b, i]: the correction of received qubit i, an index into PauliOp
    probs: np.ndarray
    fids: list[np.ndarray]  # per receiver
    counts: tuple[int, ...]  # message qubits per receiver
    copies: int | None  # the GHZ baseline's copies; None in a network run, whose last outcome is the sender's bit


def _transcript_table(
    outcomes: np.ndarray,
    probs: np.ndarray,
    kept: np.ndarray,
    specs: Sequence[MessageSpec],
    table: Mapping[BellOutcome, tuple[PauliOp, PauliOp]] | None = None,
    *,
    copies: int | None = None,
) -> _TranscriptTable:
    """The columns of the transcripts of ``measure_all``'s branches.

    Outcome columns are the Bell outcomes, flattened over receivers, then the
    agent bits, then the sender's GHZ bit unless ``copies`` is given.  With it the table is the GHZ
    baseline's: its rows are one equal block per copy, copy-major, and copy i receives qubit i of ``specs[0]``.
    """
    counts = tuple(len(s) for s in specs) if copies is None else (1,)
    total = sum(counts)
    parity = outcomes[:, total:].sum(axis=1) & 1
    table = table or CORRECTIONS
    index = np.array([[_PAULI_ORDER.index(op) for op in table[o]] for o in _BELL_ORDER])
    ops = index[outcomes[:, :total], parity[:, None]]
    fids = _fidelities(kept, ops, counts, [q for s in specs for q in s.qubits])
    return _TranscriptTable(outcomes, parity, ops, probs, fids, counts, copies)


def _record(cls, fields: dict):
    """A frozen dataclass record holding ``fields``, every field's value, built
    without ``__init__``; a record class has no ``__post_init__`` to skip."""
    record = object.__new__(cls)
    record.__dict__.update(fields)
    return record


def _transcripts(t: _TranscriptTable) -> list[tuple[ProtocolTranscript, ...]]:
    """One tuple of transcripts (one per receiver) per row of the table, in the GHZ baseline's table
    with the row's copy as its ``message_index``.  The rows share the parts they have
    in common: each distinct agents' and sender's part, and each receiver's distinct part, is built once."""
    total, copies, sender = sum(t.counts), t.copies, t.copies is None
    copy = np.arange(copies or 1)  # the copies, whose rows are equal blocks, copy-major
    block = len(t.probs) // len(copy)
    num_agents = t.outcomes.shape[1] - total - sender
    # the message that each column after the Bell outcomes (each agent's bit, then the
    # sender's) sends for each bit value
    messages = [[ClassicalMessage(f"agent{j}", bit, f"agent{j}") for bit in (0, 1)] for j in range(num_agents)]
    if sender:
        messages.append([ClassicalMessage("sender", bit, "ghz_s") for bit in (0, 1)])
    digits = t.outcomes[:, total:]
    first, at = _distinct(digits @ (1 << np.arange(digits.shape[1] - 1, -1, -1)))  # each row's bits as one number
    branches = (Branch.EVEN, Branch.ODD)
    # (agent bits, sender bit, their messages, branch) of each distinct part
    shared = [(tuple(row[:num_agents]), row[-1] if sender else None, tuple(map(list.__getitem__, messages, row)),
               branches[odd]) for row, odd in zip(t.outcomes[first, total:].tolist(), t.parity[first].tolist())]
    shared = [shared[i] for i in at.tolist()]
    probs = t.probs.tolist()

    columns = []  # per receiver, its transcript of every row
    start = 0
    for r, m in enumerate(t.counts):
        cols = slice(start, start + m)
        # per message qubit, or in the baseline per copy (one qubit a row), the message of each Bell outcome
        bell_messages = [[ClassicalMessage("sender", o, f"pair{r}.{i}") for o in _BELL_ORDER]
                         for i in range(m if copies is None else copies)]
        # each row's Bell outcomes as base-4 digits, then its parity and its copy above them
        key = t.outcomes[:, cols] @ 4 ** np.arange(m - 1, -1, -1) + (t.parity << 2 * m)
        key.reshape(len(copy), block)[:] += copy[:, None] << 2 * m + 1
        first, at = _distinct(key)
        parts = [(tuple(map(_BELL_ORDER.__getitem__, row)), tuple(map(_PAULI_ORDER.__getitem__, ops)),
                  tuple(map(list.__getitem__, bell_messages[c:c + m], row)), None if copies is None else c)
                 for row, ops, c in zip(t.outcomes[first, cols].tolist(), t.ops[first, cols].tolist(),
                                        (first // block).tolist())]
        columns.append([_record(ProtocolTranscript, {
            "receiver": r, "bell_outcomes": bells, "agent_bits": bits, "sender_ghz_bit": sender_bit,
            "branch": branch, "corrections": corrections, "fidelity": f, "branch_probability": p,
            "classical_messages": own + common, "message_index": index,
        }) for (bells, corrections, own, index), (bits, sender_bit, common, branch), f, p
            in zip(map(parts.__getitem__, at.tolist()), shared, t.fids[r].tolist(), probs)])
        start += m
    return list(zip(*columns))


def _draw_order(event_order: Sequence[Event] | None, events: Sequence[Event]) -> list[int]:
    """``event_order`` as indices into ``events``; their own order when None."""
    order = events if event_order is None else [tuple(e) for e in event_order]
    if sorted(order) != sorted(events):
        raise ValueError("event_order must be a permutation of protocol_events(shape)")
    index = {e: i for i, e in enumerate(events)}
    return [index[e] for e in order]


def _sampling_rng(mode: str, seed: int | None) -> np.random.Generator | None:
    """The generator that sampled mode draws from; None when enumerating.  A given seed is checked in both."""
    if seed is not None and (seed := _integral(seed, "seed")) < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if mode == "enumerate":
        return None
    if mode == "sampled":
        if seed is None:
            raise ValueError("sampled mode needs a seed")
        return np.random.default_rng(seed)
    raise ValueError(f"unknown mode {mode!r}")


def _network_branches(
    specs: Sequence[MessageSpec],
    shape: NetworkShape,
    rng: np.random.Generator | Sequence[int] | None = None,
    event_order: Sequence[Event] | None = None,
    defector: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``measure_all`` over the network's message and control resource: every protocol event but
    party ``defector``'s (an agent, or the sender as party ``num_agents``), keeping the received
    qubits and, above them, the defector's GHZ qubit.  A drawn or fixed branch is drawn in
    ``event_order`` (default: canonical order); enumerating ignores it.  The outcome columns are in
    canonical order either way."""
    if len(specs) != shape.num_receivers:
        raise ValueError(f"got {len(specs)} message specs for {shape.num_receivers} receivers")
    for spec, m in zip(specs, shape.message_counts):
        if len(spec) != m:
            raise ValueError(f"spec length {len(spec)} does not match shape count {m}")
    _measurable(shape.total_qubits)  # before the events are listed or the support's indices overflow
    events = [e for e in protocol_events(shape) if e != ("ghz", defector)]
    order = _draw_order(event_order, events)  # a malformed order is refused in both modes
    if rng is None:
        order.sort()
    registry = QubitRegistry(shape)
    groups = [_event_qubits(events[g], registry) for g in order]
    keep = [registry.receiver_epr(r, i) for r, m in enumerate(shape.message_counts) for i in range(m)]
    keep += [] if defector is None else _event_qubits(("ghz", defector), registry)
    message = prepare_message_state(MessageSpec(tuple(q for spec in specs for q in spec.qubits)))
    outcomes, probs, kept = measure_all(_control_support(shape), message, groups, keep, rng)
    if rng is not None:  # drawn in event order; an enumeration's order is already sorted
        outcomes = outcomes[:, np.argsort(order)]
    return outcomes, probs, kept


def _network_table(
    specs: Sequence[MessageSpec],
    shape: NetworkShape,
    mode: str,
    seed: int | None,
    event_order: Sequence[Event] | None = None,
    agent_basis: AgentBasis = "hadamard_z",
    table: Mapping[BellOutcome, tuple[PauliOp, PauliOp]] | None = None,
) -> _TranscriptTable:
    """The transcript table of a network run: every branch, or one drawn branch."""
    if agent_basis not in ("hadamard_z", "plus_minus"):
        raise ValueError(f"unknown agent basis {agent_basis!r}")
    outcomes, probs, kept = _network_branches(specs, shape, _sampling_rng(mode, seed), event_order)
    return _transcript_table(outcomes, probs, kept, specs, table)


def run_controlled_teleport(
    spec: MessageSpec,
    shape: NetworkShape,
    mode: str = "enumerate",
    *,
    seed: int | None = None,
    event_order: Sequence[Event] | None = None,
    agent_basis: AgentBasis = "hadamard_z",
    correction_table: Mapping[BellOutcome, tuple[PauliOp, PauliOp]] | None = None,
) -> list[ProtocolTranscript] | ProtocolTranscript:
    """Teleport one message string to a single receiver under agent control.

    ``mode="enumerate"`` returns one transcript per measurement branch in
    canonical order; ``mode="sampled"`` draws a single branch with a seeded
    RNG and returns its transcript.
    """
    if shape.num_receivers != 1:
        raise ValueError("run_controlled_teleport is the single-receiver entry point")
    branches = _transcripts(_network_table([spec], shape, mode, seed, event_order, agent_basis, correction_table))
    return [t for t, in branches] if mode == "enumerate" else branches[0][0]


def run_multi_receiver(
    specs: Sequence[MessageSpec],
    shape: NetworkShape,
    mode: str = "enumerate",
    *,
    seed: int | None = None,
    event_order: Sequence[Event] | None = None,
    agent_basis: AgentBasis = "hadamard_z",
) -> list[tuple[ProtocolTranscript, ...]] | tuple[ProtocolTranscript, ...]:
    """Teleport one qubit string to each of k >= 2 receivers in one run.

    The agents measure once; their single bit is shared by every receiver's
    transcript.
    """
    if shape.num_receivers < 2:
        raise ValueError("run_multi_receiver needs at least two receivers")
    branches = _transcripts(_network_table(list(specs), shape, mode, seed, event_order, agent_basis))
    return branches if mode == "enumerate" else branches[0]


def baseline_resource_sizes(shape: NetworkShape) -> list[int]:
    """Resource qubits actually allocated per baseline copy."""
    return [_ghz_support(shape.num_agents + 2)[0]] * shape.total_messages


def _baseline_branches(
    spec: MessageSpec,
    shape: NetworkShape,
    rng: np.random.Generator | None = None,
    defector: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``measure_all`` over the baseline copies, one per message qubit, each copy's branches an equal
    block in message order.  A copy is the message qubit 0 and an (n+2)-qubit GHZ above it: the sender's
    qubit 1, the receiver's qubit 2 and agent j's qubit 3 + j.  Measures the Bell pair (0, 1), then every
    agent but ``defector``, in one pass over all copies, or copy after copy when drawing from ``rng``;
    keeps the receiver qubit, and above it the defector's qubit."""
    if shape.num_receivers != 1:
        raise ValueError("the GHZ baseline covers the single-receiver network")
    if len(spec) != shape.message_counts[0]:
        raise ValueError(f"spec length {len(spec)} does not match shape count {shape.message_counts[0]}")
    n = shape.num_agents
    groups = [(0, 1)] + [(3 + j,) for j in range(n) if j != defector]
    keep = [2] if defector is None else [2, 3 + defector]
    ghz, messages = _ghz_support(n + 2), [StateVector(pair) for pair in spec.qubits]
    if rng is None:
        return measure_all(ghz, messages, groups, keep)
    return tuple(map(np.concatenate, zip(*(measure_all(ghz, s, groups, keep, rng) for s in messages))))


def run_baseline_ghz(
    spec: MessageSpec,
    shape: NetworkShape,
    mode: str = "enumerate",
    *,
    seed: int | None = None,
) -> list[ProtocolTranscript]:
    """Per-qubit GHZ baseline: one (n+2)-qubit GHZ copy per message qubit.

    The copies are independent, so enumeration is per copy: every transcript
    carries its ``message_index``.  Sampled mode returns one transcript per
    copy.  The correction is the usual table with the branch given by the
    parity of that copy's agent bits.
    """
    table = _transcript_table(*_baseline_branches(spec, shape, _sampling_rng(mode, seed)), [spec], copies=len(spec))
    return [t for t, in _transcripts(table)]
