"""Dense state-vector primitives: gates, projective and Bell measurements,
partial trace, and fidelity.

Amplitude layout convention: basis index bit ``k`` (least significant bit is
qubit 0) holds the value of qubit ``k``.  Every public state is unit-norm;
constructors normalize and reject zero or non-finite input.
"""

from __future__ import annotations

import bisect
import enum
import itertools
from typing import Iterable, Sequence, Union

import numpy as np

NORM_ATOL = 1e-12
UNITARY_ATOL = 1e-12
ZERO_BRANCH_ATOL = 1e-14

_SQRT_HALF = 1.0 / np.sqrt(2.0)
_CHOICE_ATOL = np.sqrt(np.finfo(np.float64).eps)  # Generator.choice's bound on a sum of probabilities off 1


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


HADAMARD = _read_only(np.array([[1, 1], [1, -1]], dtype=np.complex128) * _SQRT_HALF)


class PauliOp(enum.Enum):
    """Single-qubit Pauli operators; all four are exactly self-inverse."""

    I = "I"
    X = "X"
    Y = "Y"
    Z = "Z"

    @property
    def matrix(self) -> np.ndarray:
        return _PAULI_MATRICES[self]


_PAULI_MATRICES = {
    PauliOp.I: _read_only(np.eye(2, dtype=np.complex128)),
    PauliOp.X: _read_only(np.array([[0, 1], [1, 0]], dtype=np.complex128)),
    PauliOp.Y: _read_only(np.array([[0, -1j], [1j, 0]], dtype=np.complex128)),
    PauliOp.Z: _read_only(np.array([[1, 0], [0, -1]], dtype=np.complex128)),
}


class BellOutcome(enum.Enum):
    """The four Bell-measurement results for a qubit pair."""

    PHI_PLUS = "phi_plus"
    PHI_MINUS = "phi_minus"
    PSI_PLUS = "psi_plus"
    PSI_MINUS = "psi_minus"

    @property
    def vector(self) -> np.ndarray:
        """Amplitudes over the pair's joint values (00, 01, 10, 11)."""
        return BELL_VECTORS[self]


BELL_VECTORS = {
    BellOutcome.PHI_PLUS: _read_only(np.array([1, 0, 0, 1], dtype=np.complex128) * _SQRT_HALF),
    BellOutcome.PHI_MINUS: _read_only(np.array([1, 0, 0, -1], dtype=np.complex128) * _SQRT_HALF),
    BellOutcome.PSI_PLUS: _read_only(np.array([0, 1, 1, 0], dtype=np.complex128) * _SQRT_HALF),
    BellOutcome.PSI_MINUS: _read_only(np.array([0, 1, -1, 0], dtype=np.complex128) * _SQRT_HALF),
}

# Row k of this matrix is the (conjugate-free, all-real-or-pure-sign) Bell vector.
_BELL_MATRIX = np.stack([BELL_VECTORS[o] for o in BellOutcome])

Selector = Union[int, "BellOutcome", np.random.Generator]


def _num_qubits_for(size: int) -> int:
    n = int(size).bit_length() - 1
    if size <= 0 or (1 << n) != size:
        raise ValueError(f"amplitude array length {size} is not a power of two")
    return n


class StateVector:
    """Normalized complex amplitudes over ``num_qubits`` labeled qubits."""

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, amplitudes: Sequence[complex] | np.ndarray):
        amps = np.array(amplitudes, dtype=np.complex128).reshape(-1)
        n = _num_qubits_for(amps.size)
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(amps)
        if not np.isfinite(norm):  # the squares overflow: scale by the largest component first
            amps /= np.abs(amps.view(np.float64)).max()
            norm = np.linalg.norm(amps)
        if norm < NORM_ATOL:
            raise ValueError("cannot normalize a zero amplitude vector")
        amps /= norm
        object.__setattr__(self, "num_qubits", n)
        object.__setattr__(self, "amplitudes", _read_only(amps))

    def __setattr__(self, name, value):  # states are immutable once built
        raise AttributeError("StateVector is immutable")

    def __repr__(self) -> str:
        return f"StateVector(num_qubits={self.num_qubits})"

    @classmethod
    def _wrap(cls, amps: np.ndarray) -> "StateVector":
        """Trusted fast path for kernel output: amplitudes are already
        finite and unit-norm, so validation is skipped."""
        sv = object.__new__(cls)
        object.__setattr__(sv, "num_qubits", _num_qubits_for(amps.size))
        object.__setattr__(sv, "amplitudes", _read_only(amps))
        return sv

    @classmethod
    def zero(cls, num_qubits: int) -> "StateVector":
        return cls.basis(num_qubits, 0)

    @classmethod
    def basis(cls, num_qubits: int, index: int) -> "StateVector":
        if num_qubits < 0 or not 0 <= index < (1 << num_qubits):
            raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
        amps = np.zeros(1 << num_qubits, dtype=np.complex128)
        amps[index] = 1.0
        return cls(amps)

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "StateVector":
        """Computational basis state; ``bits[k]`` is qubit k's value."""
        index = 0
        for k, b in enumerate(bits):
            index |= (int(b) & 1) << k
        return cls.basis(len(bits), index)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def norm_error(self) -> float:
        return abs(float(np.linalg.norm(self.amplitudes)) - 1.0)


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on ``num_qubits``."""

    __slots__ = ("num_qubits", "matrix")

    HERMITIAN_ATOL = 1e-12
    TRACE_ATOL = 1e-12
    EIGENVALUE_FLOOR = -1e-10

    def __init__(self, matrix: np.ndarray):
        mat = np.array(matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        n = _num_qubits_for(mat.shape[0])
        self._check_stack(mat[None])
        object.__setattr__(self, "num_qubits", n)
        object.__setattr__(self, "matrix", _read_only(mat))

    @classmethod
    def _check_stack(cls, mats: np.ndarray) -> None:
        """The constructor's checks on every operator of a (count, d, d) stack,
        each reduced per operator as the constructor does."""
        if np.any(np.max(np.abs(mats - mats.conj().swapaxes(1, 2)), axis=(1, 2)) > cls.HERMITIAN_ATOL):
            raise ValueError("density matrix is not Hermitian")
        tr = np.trace(mats, axis1=1, axis2=2)
        if np.any((np.abs(tr.real - 1.0) > cls.TRACE_ATOL) | (np.abs(tr.imag) > cls.TRACE_ATOL)):
            raise ValueError("density matrix trace is not 1")
        if not np.all(np.isfinite(mats)):  # NaN passes every comparison above
            raise ValueError("density matrix is not finite")
        if np.any(np.linalg.eigvalsh(mats).min(axis=1) < cls.EIGENVALUE_FLOOR):
            raise ValueError("density matrix has a negative eigenvalue")

    @classmethod
    def _wrap_all(cls, stack: np.ndarray) -> list["DensityMatrix"]:
        """Trusted fast path for every operator of a complex (count, d, d)
        stack that ``_check_stack`` has passed: the stack is made read-only
        once, and each wrapper holds a view of it, not a copy."""
        n = _num_qubits_for(stack.shape[1])
        out = []
        for mat in _read_only(stack):
            dm = object.__new__(cls)
            object.__setattr__(dm, "num_qubits", n)
            object.__setattr__(dm, "matrix", mat)
            out.append(dm)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    def __repr__(self) -> str:
        return f"DensityMatrix(num_qubits={self.num_qubits})"

    @classmethod
    def from_state(cls, state: StateVector) -> "DensityMatrix":
        return cls(np.outer(state.amplitudes, state.amplitudes.conj()))

    def max_off_diagonal(self) -> float:
        off = self.matrix - np.diag(np.diag(self.matrix))
        return float(np.max(np.abs(off)))


def _check_qubit(state: StateVector, qubit: int) -> None:
    if not 0 <= qubit < state.num_qubits:
        raise IndexError(f"qubit {qubit} out of range for {state.num_qubits}-qubit state")


def apply_single_qubit_gate(state: StateVector, qubit: int, gate: np.ndarray) -> StateVector:
    """Apply a 2x2 unitary to one qubit; touches only that qubit's stride."""
    _check_qubit(state, qubit)
    gate = np.asarray(gate, dtype=np.complex128)
    if gate.shape != (2, 2):
        raise ValueError(f"gate must be 2x2, got shape {gate.shape}")
    if not np.max(np.abs(gate.conj().T @ gate - np.eye(2))) <= UNITARY_ATOL:  # NaN is refused too
        raise ValueError("gate matrix is not unitary")
    return StateVector._wrap(_apply_1q(state.amplitudes, qubit, gate))


def _apply_1q(amps: np.ndarray, qubit: int, gate: np.ndarray) -> np.ndarray:
    arr = amps.reshape(-1, 2, 1 << qubit)
    return np.einsum("ab,hbl->hal", gate, arr).reshape(-1)


def apply_pauli(state: StateVector, qubit: int, op: PauliOp) -> StateVector:
    if op is PauliOp.I:
        return state
    return apply_single_qubit_gate(state, qubit, op.matrix)


def apply_hadamard(state: StateVector, qubit: int) -> StateVector:
    return apply_single_qubit_gate(state, qubit, HADAMARD)


def _pick(selector: Selector, outcomes: Sequence, probs: Sequence[float]):
    """The outcome ``selector`` names, or a generator's draw by the weights ``probs``
    through ``Generator.choice``'s own arithmetic, in Python floats and in numpy's
    order (it adds under 8 values one by one): the same outcome and generator state."""
    if isinstance(selector, np.random.Generator):
        p = [max(x, 0.0) for x in probs]  # np.clip: NaN stays
        total = list(itertools.accumulate(p))[-1]
        cdf = list(itertools.accumulate(x / total for x in p)) if total else []
        # choice refuses NaN, negative weights (none survive the clip), a zero sum (0/0 in numpy) and a sum off 1
        if not (cdf and abs(cdf[-1] - 1.0) <= _CHOICE_ATOL):
            raise ValueError(f"weights {list(probs)} are not probabilities")
        return outcomes[bisect.bisect_right([c / cdf[-1] for c in cdf], selector.random())]
    if selector not in outcomes:
        raise ValueError(f"invalid branch selector {selector!r}")
    return selector


_Z_BASIS = _read_only(np.eye(2, dtype=np.complex128))


def _project(state: StateVector, qubits: tuple[int, ...], basis: np.ndarray,
             selector: Selector | None = None, outcomes: Sequence = ()):
    """Measure ``qubits`` in an orthonormal basis whose row k is outcome k's
    ket over their joint values (index 2a + b for a pair's values a, b).

    Without a selector, returns every outcome's Born weight.  Otherwise picks
    an outcome of ``outcomes`` and returns (outcome, probability,
    renormalized state with the qubits left in that outcome's ket).
    """
    for q in qubits:
        _check_qubit(state, q)
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"measured qubits {qubits} must be distinct")
    n = state.num_qubits
    front = [n - 1 - q for q in qubits]  # axis j of the reshaped tensor is qubit n-1-j
    perm = front + [a for a in range(n) if a not in front]
    t = state.amplitudes.reshape([2] * n).transpose(perm)
    overlaps = basis.conj() @ t.reshape(basis.shape[1], -1)
    probs = np.sum(np.abs(overlaps) ** 2, axis=1).tolist()
    if selector is None:
        return probs
    k = outcomes.index(_pick(selector, outcomes, probs))
    if probs[k] < ZERO_BRANCH_ATOL:
        raise ValueError(f"branch {outcomes[k]!r} on qubits {qubits} has probability {probs[k]:.3e}")
    collapsed = np.multiply.outer(basis[k], overlaps[k] / np.sqrt(probs[k])).reshape(t.shape)
    return outcomes[k], probs[k], StateVector._wrap(collapsed.transpose(np.argsort(perm)).reshape(-1))


def z_probabilities(state: StateVector, qubit: int) -> tuple[float, float]:
    """Born weights of qubit value 0 and 1."""
    p0, p1 = _project(state, (qubit,), _Z_BASIS)
    return p0, p1


def measure_z(state: StateVector, qubit: int, selector: Selector) -> tuple[int, float, StateVector]:
    """Measure one qubit in the computational basis.

    ``selector`` is either a ``numpy.random.Generator`` (sample by Born rule)
    or an explicit bit to collapse onto.  Returns (bit, probability,
    renormalized post-measurement state).
    """
    bit, p, after = _project(state, (qubit,), _Z_BASIS, selector, (0, 1))
    return int(bit), p, after


def measure_x(state: StateVector, qubit: int, selector: Selector) -> tuple[int, float, StateVector]:
    """Measure one qubit directly in the (|0>+|1>, |0>-|1>) basis.

    Bit 0 is the plus outcome.  This is the measurement that replaces a
    Hadamard followed by a computational-basis measurement.
    """
    bit, p, after = _project(state, (qubit,), HADAMARD, selector, (0, 1))
    return int(bit), p, after


def bell_probabilities(state: StateVector, pair: tuple[int, int]) -> dict[BellOutcome, float]:
    qa, qb = pair
    return dict(zip(BellOutcome, _project(state, (qa, qb), _BELL_MATRIX)))


def measure_bell(
    state: StateVector, pair: tuple[int, int], selector: Selector
) -> tuple[BellOutcome, float, StateVector]:
    """Project a qubit pair onto the Bell basis.

    Returns (outcome, probability, renormalized post-measurement state); the
    measured pair is left in the corresponding Bell state.
    """
    qa, qb = pair
    return _project(state, (qa, qb), _BELL_MATRIX, selector, tuple(BellOutcome))


def project_onto_qubit_state(
    state: StateVector, qubit: int, ket: Sequence[complex]
) -> tuple[float, StateVector]:
    """Project one qubit onto an arbitrary normalized single-qubit ket.

    Returns (probability, renormalized post-projection state with the qubit
    left in ``ket``).
    """
    _check_qubit(state, qubit)
    v = np.asarray(ket, dtype=np.complex128).reshape(2)
    norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= 1e-9:  # written so that a NaN norm is refused too
        raise ValueError("projection target must be normalized")
    _, p, after = _project(state, (qubit,), (v / norm)[None], 0, (0,))
    return p, after


def partial_trace(source: StateVector | DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix over ``keep`` (ascending order becomes the new
    qubit order), tracing out everything else."""
    kept = sorted(set(int(q) for q in keep))
    if not kept:
        raise ValueError("keep set must be nonempty")
    n = source.num_qubits
    if kept[0] < 0 or kept[-1] >= n:
        raise IndexError(f"keep set {kept} out of range for {n} qubits")
    traced = [q for q in range(n) if q not in kept]
    axis = lambda q: n - 1 - q  # noqa: E731  (axis j of the reshaped tensor is qubit n-1-j)
    perm = [axis(q) for q in reversed(kept)] + [axis(q) for q in traced]
    k, d = 1 << len(kept), 1 << len(traced)
    if isinstance(source, DensityMatrix):  # row axes, then the same order of column axes
        rho = np.transpose(source.matrix.reshape([2] * (2 * n)), perm + [n + a for a in perm])
        return DensityMatrix(np.einsum("atbt->ab", rho.reshape(k, d, k, d)))
    mat = np.transpose(source.amplitudes.reshape([2] * n), perm).reshape(k, d)
    return DensityMatrix(mat @ mat.conj().T)


def fidelity(a: StateVector | DensityMatrix, b: StateVector) -> float:
    """Overlap of ``a`` with the pure state ``b``: |<a|b>|^2, or <b|rho|b>."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(f"qubit counts differ: {a.num_qubits} vs {b.num_qubits}")
    if isinstance(a, StateVector):
        f = float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
    else:
        f = float(np.real(b.amplitudes.conj() @ a.matrix @ b.amplitudes))
    return min(max(f, 0.0), 1.0)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Combined state; ``a`` keeps its qubit indices, ``b`` shifts up by
    ``a.num_qubits``.  Both factors are unit-norm, so their product is not
    renormalized: each amplitude is exactly one product of two factors."""
    return StateVector._wrap(np.kron(b.amplitudes, a.amplitudes))


def states_close(a: StateVector, b: StateVector, atol: float = 1e-12, up_to_phase: bool = True) -> bool:
    """Amplitude-wise comparison, optionally modulo a global phase."""
    if a.num_qubits != b.num_qubits:
        return False
    u, v = a.amplitudes, b.amplitudes
    if up_to_phase:
        inner = np.vdot(v, u)
        if abs(inner) > atol:
            u = u * (abs(inner) / inner)
    return bool(np.max(np.abs(u - v)) <= atol)
