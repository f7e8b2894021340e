"""Entangled resource and message-state builders, plus the parity
decomposition that a Hadamard on every GHZ qubit induces."""

from __future__ import annotations

import cmath
import enum
import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .states import _SQRT_HALF, NORM_ATOL, StateVector, _integral, _read_only

_LAYOUTS_CACHED = 32  # control supports and measure_all plans kept per process; a small sweep makes 16 plans


@dataclass(frozen=True)
class MessageSpec:
    """Per-qubit (alpha, beta) amplitude pairs of a product message."""

    qubits: tuple[tuple[complex, complex], ...]

    def __post_init__(self):
        pairs = tuple((complex(a), complex(b)) for a, b in self.qubits)
        if not pairs:
            raise ValueError("message spec needs at least one qubit")
        for i, (a, b) in enumerate(pairs):
            if not (cmath.isfinite(a) and cmath.isfinite(b)):
                raise ValueError(f"qubit {i} amplitudes are not finite")
            if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > NORM_ATOL:
                raise ValueError(f"qubit {i} amplitude pair is not normalized")
        object.__setattr__(self, "qubits", pairs)

    def __len__(self) -> int:
        return len(self.qubits)

    @classmethod
    def normalized(cls, pairs: Iterable[Sequence[complex]]) -> tuple["MessageSpec", float]:
        """Build a spec from possibly unnormalized pairs.

        Returns the spec and the largest normalization correction applied.
        """
        fixed, worst = [], 0.0
        for a, b in pairs:
            a, b, top = complex(a), complex(b), 1.0
            try:
                with np.errstate(over="raise"):
                    norm = float(np.hypot(abs(a), abs(b)))
            except (OverflowError, FloatingPointError):  # the norm overflows: scale by the largest component first
                top = max(abs(x) for x in (a.real, a.imag, b.real, b.imag))
                a, b = a / top, b / top
                norm = float(np.hypot(abs(a), abs(b)))
            if norm < NORM_ATOL:
                raise ValueError("amplitude pair has zero norm")
            worst = max(worst, abs(norm * top - 1.0))
            fixed.append((a / norm, b / norm))
        return cls(tuple(fixed)), worst

    @classmethod
    def random(cls, num_qubits: int, rng: np.random.Generator) -> "MessageSpec":
        """Haar-random single-qubit states, independent per qubit."""
        raw = rng.standard_normal((num_qubits, 4))
        return cls.normalized((complex(r0, i0), complex(r1, i1)) for r0, i0, r1, i1 in raw)[0]

    @classmethod
    def balanced_random_phases(cls, num_qubits: int, rng: np.random.Generator) -> "MessageSpec":
        """|alpha| = |beta| = 1/sqrt(2) with independent random phases."""
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(num_qubits, 2))
        return cls(tuple(
            (_SQRT_HALF * np.exp(1j * t0), _SQRT_HALF * np.exp(1j * t1))
            for t0, t1 in phases
        ))


@dataclass(frozen=True)
class NetworkShape:
    """Sizes of the teleportation network: per-receiver message counts and
    the number of controlling agents."""

    message_counts: tuple[int, ...]
    num_agents: int

    def __post_init__(self):
        counts = tuple(_integral(m, "message_counts") for m in self.message_counts)
        agents = _integral(self.num_agents, "num_agents")
        if not counts:
            raise ValueError("need at least one receiver")
        if any(m < 1 for m in counts):
            raise ValueError("each receiver needs at least one message qubit")
        if agents < 1:
            raise ValueError("need at least one agent")
        object.__setattr__(self, "message_counts", counts)
        object.__setattr__(self, "num_agents", agents)

    @classmethod
    def single(cls, num_messages: int, num_agents: int) -> "NetworkShape":
        return cls((num_messages,), num_agents)

    @property
    def num_receivers(self) -> int:
        return len(self.message_counts)

    @property
    def total_messages(self) -> int:
        return sum(self.message_counts)


class ParityClass(enum.Enum):
    """Even or odd number of 1s in a measured bitstring."""

    EVEN = "even"
    ODD = "odd"


@dataclass(frozen=True)
class QubitRegistry:
    """Maps protocol roles to simulator qubit indices.

    The layout is four blocks in ascending index, the first three per
    receiver in turn: 0 the message qubits, 1 the sender's EPR halves, 2 the
    receivers' halves, 3 the agents' GHZ qubits followed by the sender's.
    Block k starts at k * M, M the total message count; with
    ``include_messages=False`` (the raw control resource) block 0 is absent
    and block k starts at (k - 1) * M.
    """

    shape: NetworkShape
    include_messages: bool = True

    def _start(self, block: int) -> int:
        return (block - 1 + bool(self.include_messages)) * self.shape.total_messages

    def _block(self, block: int, receiver: int, index: int) -> int:
        counts = self.shape.message_counts
        if not 0 <= receiver < len(counts):
            raise IndexError(f"receiver {receiver} out of range")
        if not 0 <= index < counts[receiver]:
            raise IndexError(f"message index {index} out of range for receiver {receiver}")
        return self._start(block) + sum(counts[:receiver]) + index

    def message(self, receiver: int, index: int) -> int:
        if not self.include_messages:
            raise LookupError("registry has no message qubits")
        return self._block(0, receiver, index)

    def sender_epr(self, receiver: int, index: int) -> int:
        return self._block(1, receiver, index)

    def receiver_epr(self, receiver: int, index: int) -> int:
        return self._block(2, receiver, index)

    def agent(self, agent: int) -> int:
        if not 0 <= agent < self.shape.num_agents:
            raise IndexError(f"agent {agent} out of range")
        return self._start(3) + agent

    @property
    def sender_ghz(self) -> int:
        return self._start(3) + self.shape.num_agents

    @property
    def num_qubits(self) -> int:
        return self.sender_ghz + 1

    def role_labels(self) -> tuple[str, ...]:
        counts = self.shape.message_counts
        roles = [role for k, role in enumerate(("msg", "epr_s", "epr_r")) if self._start(k) >= 0]  # blocks 0-2 present
        labels = [f"{role}{r}.{i}" for role in roles for r, m in enumerate(counts) for i in range(m)]
        return (*labels, *(f"agent{j}" for j in range(self.shape.num_agents)), "ghz_s")


def prepare_message_state(spec: MessageSpec) -> StateVector:
    """Product state over the message qubits, qubit i = message qubit i."""
    amps = np.ones(1, dtype=np.complex128)
    for pair in np.array(spec.qubits, dtype=np.complex128):
        amps = (pair[:, None] * amps).reshape(-1)
    return StateVector(amps)


def _ghz_support(num_qubits: int, sign: int = +1) -> tuple[int, np.ndarray, np.ndarray]:
    """The GHZ state's qubit count, and the indices and amplitudes of its two
    nonzeros: 0 and 2^q - 1, with sqrt(1/2) and sign * sqrt(1/2), the bits of
    the dense vector normalized as a whole."""
    if (num_qubits := _integral(num_qubits, "num_qubits")) < 2:
        raise ValueError("GHZ state needs at least 2 qubits")
    if _integral(sign, "sign") not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    vals = np.array([1, sign], dtype=np.complex128) * np.sqrt(0.5)
    return num_qubits, np.array([0, (1 << num_qubits) - 1]), vals


def prepare_ghz(num_qubits: int, sign: int = +1) -> StateVector:
    """(|0...0> + sign |1...1>)/sqrt(2) over ``num_qubits`` qubits: ``_ghz_support``, scattered."""
    num_qubits, indices, vals = _ghz_support(num_qubits, sign)
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[indices] = vals
    return StateVector._wrap(amps)


def _bit_parity(indices: np.ndarray) -> np.ndarray:
    """Parity (0/1) of the set bits of each index."""
    out = indices.astype(np.uint64)
    for shift in (32, 16, 8, 4, 2, 1):
        out ^= out >> np.uint64(shift)
    return (out & np.uint64(1)).astype(np.int64)


@functools.lru_cache(maxsize=_LAYOUTS_CACHED)
def _control_support(shape: NetworkShape) -> tuple[int, np.ndarray, np.ndarray]:
    """The control resource's qubit count, and the indices and amplitudes of
    its nonzeros, one per M-bit string s in the order of s.  Both EPR products
    put 2^(-M/2) on each |s>|s>, |Phi->^M with the sign (-1)^parity(s), so
    with |GHZ+-> = (|0...0> +- |1...1>)/sqrt(2) the resource is the sum over
    all s of 2^(-M/2) |s>|s>|p...p>, p = parity(s).  Each value is
    sqrt(0.5 ** M), the bits of the two-term build normalized as a whole.
    Cached per shape, so both arrays are read-only."""
    total, reg = shape.total_messages, QubitRegistry(shape, include_messages=False)
    s = np.arange(1 << total)
    ghz = _bit_parity(s) * ((2 << shape.num_agents) - 1)
    vals = np.full(1 << total, np.sqrt(0.5 ** total), dtype=np.complex128)
    indices = s << reg.sender_epr(0, 0) | s << reg.receiver_epr(0, 0) | ghz << reg.agent(0)
    return reg.num_qubits, _read_only(indices), _read_only(vals)


def prepare_control_resource(shape: NetworkShape) -> tuple[StateVector, QubitRegistry]:
    """Entangled control resource (|Phi+>^M |GHZ+> + |Phi->^M |GHZ->)/sqrt(2) over M EPR
    pairs and n + 1 GHZ qubits (the n agents' and the sender's): ``_control_support``, scattered."""
    num_qubits, indices, vals = _control_support(shape)
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[indices] = vals
    return StateVector._wrap(amps), QubitRegistry(shape, include_messages=False)


def _parity_mask(state: StateVector, qubits: Sequence[int]) -> int:
    """Bit mask of ``qubits``, which must be distinct qubits of ``state``."""
    qs = list(qubits)
    if len(set(qs)) != len(qs):
        raise ValueError("qubit list must be distinct")
    mask = 0
    for q in qs:
        if not 0 <= q < state.num_qubits:
            raise IndexError(f"qubit {q} out of range")
        mask |= 1 << q
    return mask


def parity_decompose(state: StateVector, qubits: Sequence[int]) -> dict[ParityClass, float]:
    """Probability mass on even- vs odd-parity bitstrings of ``qubits``."""
    mask = _parity_mask(state, qubits)
    probs = state.probabilities()
    par = _bit_parity(np.arange(probs.size) & mask)
    odd = float(probs[par == 1].sum())
    return {ParityClass.EVEN: float(probs[par == 0].sum()), ParityClass.ODD: odd}


def joint_parity_weights(
    state: StateVector, parity_qubits: Sequence[int], marker_qubit: int
) -> dict[tuple[ParityClass, int], float]:
    """Mass on (parity of ``parity_qubits``, value of ``marker_qubit``) cells."""
    mask = _parity_mask(state, parity_qubits)
    if not 0 <= marker_qubit < state.num_qubits:
        raise IndexError(f"marker qubit {marker_qubit} out of range")
    probs = state.probabilities()
    idx = np.arange(probs.size)
    par = _bit_parity(idx & mask)
    marker = (idx >> marker_qubit) & 1
    return {
        (cls, bit): float(probs[(par == p) & (marker == bit)].sum())
        for p, cls in ((0, ParityClass.EVEN), (1, ParityClass.ODD))
        for bit in (0, 1)
    }
