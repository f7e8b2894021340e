"""Entangled resource and message-state builders, plus the parity
decomposition that a Hadamard on every GHZ qubit induces."""

from __future__ import annotations

import cmath
import enum
import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .states import _SQRT_HALF, NORM_ATOL, StateVector, _read_only

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


def _integral(value, name: str) -> int:
    """``value`` as an int; bools and non-integral numbers are refused, not truncated."""
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError):
        as_int = None
    if isinstance(value, (bool, np.bool_)) or as_int is None or as_int != value:
        raise ValueError(f"{name} takes integers, got {value!r}")
    return as_int


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

    @property
    def resource_qubits(self) -> int:
        return 2 * self.total_messages + self.num_agents + 1

    @property
    def total_qubits(self) -> int:
        return 3 * self.total_messages + self.num_agents + 1


class ParityClass(enum.Enum):
    """Even or odd number of 1s in a measured bitstring."""

    EVEN = "even"
    ODD = "odd"


@dataclass(frozen=True)
class QubitRegistry:
    """Maps protocol roles to simulator qubit indices.

    Layout (ascending index): message blocks per receiver, sender-side EPR
    blocks per receiver, receiver-side EPR blocks per receiver, agent qubits,
    sender's GHZ qubit.  With ``include_messages=False`` the same layout is
    used without the message block (the raw control resource).
    """

    shape: NetworkShape
    include_messages: bool = True

    def _block(self, receiver: int, offset: int, index: int) -> int:
        counts = self.shape.message_counts
        if not 0 <= receiver < len(counts):
            raise IndexError(f"receiver {receiver} out of range")
        if not 0 <= index < counts[receiver]:
            raise IndexError(f"message index {index} out of range for receiver {receiver}")
        return offset + sum(counts[:receiver]) + index

    def message(self, receiver: int, index: int) -> int:
        if not self.include_messages:
            raise LookupError("registry has no message qubits")
        return self._block(receiver, 0, index)

    def sender_epr(self, receiver: int, index: int) -> int:
        offset = self.shape.total_messages if self.include_messages else 0
        return self._block(receiver, offset, index)

    def receiver_epr(self, receiver: int, index: int) -> int:
        base = self.shape.total_messages if self.include_messages else 0
        return self._block(receiver, base + self.shape.total_messages, index)

    def agent(self, agent: int) -> int:
        if not 0 <= agent < self.shape.num_agents:
            raise IndexError(f"agent {agent} out of range")
        base = (3 if self.include_messages else 2) * self.shape.total_messages
        return base + agent

    @property
    def sender_ghz(self) -> int:
        base = (3 if self.include_messages else 2) * self.shape.total_messages
        return base + self.shape.num_agents

    @property
    def num_qubits(self) -> int:
        return self.shape.total_qubits if self.include_messages else self.shape.resource_qubits

    def role_labels(self) -> tuple[str, ...]:
        labels = []
        if self.include_messages:
            for r, m in enumerate(self.shape.message_counts):
                labels += [f"msg{r}.{i}" for i in range(m)]
        for r, m in enumerate(self.shape.message_counts):
            labels += [f"epr_s{r}.{i}" for i in range(m)]
        for r, m in enumerate(self.shape.message_counts):
            labels += [f"epr_r{r}.{i}" for i in range(m)]
        labels += [f"agent{j}" for j in range(self.shape.num_agents)]
        labels.append("ghz_s")
        return tuple(labels)


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
    if num_qubits < 2:
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
    total = shape.total_messages
    s = np.arange(1 << total)
    ghz = _bit_parity(s) * ((2 << shape.num_agents) - 1)
    vals = np.full(1 << total, np.sqrt(0.5 ** total), dtype=np.complex128)
    return shape.resource_qubits, _read_only(s | s << total | ghz << 2 * total), _read_only(vals)


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
