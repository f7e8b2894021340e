"""What a receiver is left with when one agent withholds cooperation.

Enumerates the cooperating parties' measurement branches, traces out the
defector's control qubit, and reports the receiver's reduced operators, their
diagonal structure, and the best fidelity any single-qubit unitary recovery
can still reach.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .protocol import _BELL_ORDER, _baseline_branches, _distinct, _network_branches, _record
from .resources import MessageSpec, NetworkShape, _integral
from .states import HADAMARD, UNITARY_ATOL, BellOutcome, DensityMatrix, PauliOp

_PHI = (BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS)


class DiagonalForm(enum.Enum):
    """Which diagonal the receiver's qubit carries after defection."""

    PRESERVED = "preserved"  # diag(|alpha|^2, |beta|^2)
    SWAPPED = "swapped"      # diag(|beta|^2, |alpha|^2)


@dataclass(frozen=True)
class DefectionReport:
    """Receiver-side view of one cooperating-measurement branch."""

    defector: int
    bell_outcomes: tuple[BellOutcome, ...]
    cooperator_bits: tuple[int, ...]
    probability: float
    joint_density: DensityMatrix
    per_qubit_density: tuple[DensityMatrix, ...]
    off_diagonal_norm: float
    max_fidelity: tuple[float, ...]
    conforms_to: tuple[DiagonalForm, ...]
    message_index: int | None = None


@dataclass(frozen=True)
class ConditionalStateReport:
    """Conditional collapse of the second received qubit after projecting the
    first one (Bell outcomes pinned to the plus pair, the sender's GHZ qubit withheld)."""

    plus_probability: float
    plus_fidelity: float
    minus_probability: float
    minus_fidelity: float


def _clifford_group() -> np.ndarray:
    """The 24 single-qubit Cliffords up to global phase, in closed form: each Pauli times each of the
    six Cliffords that permute the X, Y and Z axes (I, H, S, HS, SH and HSH), every entry exact."""
    h, s = HADAMARD, np.array([[1, 0], [0, 1j]])
    hsh = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2
    return np.stack([p.matrix @ c for p in PauliOp for c in (np.eye(2), h, s, h @ s, s @ h, hsh)])


_CLIFFORDS = _clifford_group()


_DEFAULT_GRID = (1000, 7)


def recovery_unitaries(num_random: int = _DEFAULT_GRID[0], seed: int = _DEFAULT_GRID[1]) -> np.ndarray:
    """Search grid: 24 Cliffords plus Haar-random unitaries (QR of a complex
    Gaussian matrix), stacked as (count, 2, 2).

    The default grid is built once, on first use, and shared read-only.
    """
    for name, value in {"num_random": num_random, "seed": seed}.items():
        if _integral(value, name) < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    return _default_grid() if (num_random, seed) == _DEFAULT_GRID else _build_grid(int(num_random), int(seed))


@lru_cache(maxsize=1)
def _default_grid() -> np.ndarray:
    grid = _build_grid(*_DEFAULT_GRID)
    grid.setflags(write=False)
    return grid


def _build_grid(num_random: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((num_random, 2, 2)) + 1j * rng.standard_normal((num_random, 2, 2))
    q, r = np.linalg.qr(raw)
    d = np.diagonal(r, axis1=1, axis2=2)
    return np.concatenate([_CLIFFORDS, q * (d / abs(d))[:, None, :]])


def max_recovery_fidelity(
    rho: DensityMatrix | np.ndarray,
    target: Sequence[complex],
    unitaries: np.ndarray | None = None,
) -> float:
    """Best fidelity <t|U rho U^dag|t> over the recovery grid."""
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=np.complex128)
    t = np.asarray(target, dtype=np.complex128)
    if mat.shape != (2, 2):
        raise ValueError(f"recovery acts on one qubit: the operator must be 2x2, not {mat.shape}")
    if t.size != 2:
        raise ValueError(f"the recovery target must be 2 amplitudes, not {t.size}")
    if not np.all(np.isfinite(t)):
        raise ValueError("the recovery target must be finite")
    if not np.any(t):
        raise ValueError("the recovery target is the zero vector")
    with np.errstate(over="ignore"):
        if not np.finfo(np.float64).tiny <= np.vdot(t, t).real < np.inf:  # |t|^2 is not a normal float: rescale
            t = t / np.abs(t.view(np.float64)).max()
    return float(_best_recovery(mat[None], t, _recovery_grid(unitaries))[0])


def _recovery_grid(unitaries: np.ndarray | None, shape: NetworkShape | None = None,
                   defector: int | None = None) -> np.ndarray:
    """The grid to search: the default one, built unitary and taken unchecked,
    or the caller's (k, 2, 2) stack, refused unless every U^dag U is within
    ``UNITARY_ATOL`` of I.  Given a shape, first refuses a ``defector``
    (0-based) outside its agents."""
    if shape is not None and not 0 <= defector < shape.num_agents:
        raise IndexError(f"defector {defector} out of range for {shape.num_agents} agents")
    if unitaries is None:
        return recovery_unitaries()
    us = np.asarray(unitaries)
    if us.ndim != 3 or us.shape[1:] != (2, 2):
        raise ValueError(f"the recovery grid must be a (k, 2, 2) stack of unitaries, not {us.shape}")
    if len(us) == 0:
        raise ValueError("the recovery grid has no unitaries")
    # written so that NaN, which fails every comparison, is refused too
    if not np.abs(us.conj().transpose(0, 2, 1) @ us - np.eye(2)).max() <= UNITARY_ATOL:
        raise ValueError("the recovery grid holds a matrix that is not unitary")
    return us


# Operators per grid contraction: bounds the (block, grid) temporaries whatever
# the branch count.
_BLOCK = 64


def _best_recovery(rhos: np.ndarray, target: Sequence[complex], unitaries: np.ndarray) -> np.ndarray:
    """Best fidelity over the grid for each operator of a (count, 2, 2) stack: one einsum
    over the whole grid per block, on the stack in C order, since the einsum rounds by layout.
    A lone operator in a last block, which a grid of one unitary rounds apart, is searched twice."""
    t = np.asarray(target, dtype=np.complex128).reshape(2)
    t = t / np.linalg.norm(t)
    w = np.einsum("gba,b->ga", unitaries.conj(), t)  # w_g = U_g^dag |t>
    padded = np.ascontiguousarray(np.concatenate([rhos, rhos[-1:]]) if len(rhos) % _BLOCK == 1 else rhos)
    return np.concatenate([np.einsum("ga,bac,gc->bg", w.conj(), padded[i:i + _BLOCK], w).real.max(axis=1)
                           for i in range(0, len(padded), _BLOCK)])[:len(rhos)]


def _form_for(outcome: BellOutcome) -> DiagonalForm:
    return DiagonalForm.PRESERVED if outcome in _PHI else DiagonalForm.SWAPPED


class _DefectionTable(NamedTuple):
    """Every cooperating branch of a defection as columns, one row per branch."""

    outcomes: np.ndarray  # measure_all's outcomes: Bell outcomes, then the cooperators' bits
    probs: np.ndarray
    operators: list[tuple[np.ndarray, np.ndarray]]  # per received qubit, its distinct 2x2 operators and each
    # branch's index among them: branch b's is ops[inverse[b]]; a copy's operators are bytewise distinct, all checked
    best: np.ndarray  # best[b, i]: received qubit i's best recovery fidelity
    off: np.ndarray  # off[b, i]: received qubit i's largest off-diagonal magnitude


def _defection_table(
    outcomes: np.ndarray,
    probs: np.ndarray,
    kept: np.ndarray,
    qubits: Sequence[tuple[complex, complex]],
    unitaries: np.ndarray,
) -> _DefectionTable:
    """The columns of ``measure_all`` output whose kept qubits are the
    received ones with the defector's qubit on top.  ``qubits`` are the
    received qubits' targets, then the next copy's when the branches are the
    copies' equal blocks, copy-major (the GHZ baseline's)."""
    total = kept.shape[1].bit_length() - 2  # the kept qubits but the defector's
    targets = np.asarray(qubits, dtype=np.complex128).reshape(-1, total, 2)  # (copy, received qubit, 2)
    halves = kept.reshape(len(kept), 2, 1 << total)
    operators, best, off = [], [], []
    for i in range(total):
        # a handful of distinct 2x2 operators stand for all the branches: check and search those. Each copy keys
        # its own rows by their bytes (0.0 and -0.0, or NaNs, apart), and its run is searched against its target
        copies = np.ascontiguousarray(_marginal(halves, total, i)).reshape(len(targets), -1, 4)  # (copy, row, entry)
        firsts, inverses = zip(*(_distinct(rows.view("V64")[:, 0]) for rows in copies))
        runs = [rows[first].reshape(-1, 2, 2) for rows, first in zip(copies, firsts)]  # joined in copy order
        DensityMatrix._check_stack(ops := np.concatenate(runs))
        inverse = np.concatenate([inv + s for inv, s in zip(inverses, itertools.accumulate(map(len, runs), initial=0))])
        best.append(np.concatenate([_best_recovery(run, t[i], unitaries) for run, t in zip(runs, targets)])[inverse])
        off.append(np.abs(ops[:, [0, 1], [1, 0]]).max(axis=1)[inverse])
        operators.append((ops, inverse))
    return _DefectionTable(outcomes, probs, operators, np.stack(best, axis=1), np.stack(off, axis=1))


def _marginal(halves: np.ndarray, total: int, qubit: int) -> np.ndarray:
    """Received qubit ``qubit``'s 2x2 operators: each branch's joint operator traced over the other
    qubits without being built. Its diagonal blocks, one per value of those qubits (the lowest varies
    slowest), are added to a zero start in a partial trace's order, and so with its bits."""
    others = [q for q in range(total) if q != qubit]
    bases = (sum(b << q for b, q in zip(bits, others)) for bits in itertools.product((0, 1), repeat=len(others)))
    blocks = (np.einsum("bda,bdc->bac", h, h.conj()) for h in (halves[:, :, [a, a | 1 << qubit]] for a in bases))
    return next(blocks) if total == 1 else sum(blocks)


def _network_defection(
    specs: Sequence[MessageSpec], shape: NetworkShape, defector: int, unitaries: np.ndarray | None = None
) -> tuple[_DefectionTable, np.ndarray]:
    """The defection table of a network whose agent ``defector`` (0-based)
    withholds its Hadamard, measurement and bit, and the kept states it reduces."""
    us = _recovery_grid(unitaries, shape, defector)
    outcomes, probs, kept = _network_branches(specs, shape, defector=defector)
    return _defection_table(outcomes, probs, kept, [q for s in specs for q in s.qubits], us), kept


def analyze_defection(
    spec: MessageSpec | Sequence[MessageSpec],
    shape: NetworkShape,
    defector: int,
    *,
    unitaries: np.ndarray | None = None,
) -> list[DefectionReport]:
    """Enumerate all branches of the cooperating parties while ``defector``
    (0-based agent index) withholds its Hadamard, measurement, and bit.

    Accepts one message spec per receiver (a bare spec for the single-receiver
    network); per-qubit entries are flattened over receivers in block order.
    """
    specs = [spec] if isinstance(spec, MessageSpec) else list(spec)
    defector = _integral(defector, "defector")
    return _reports(*_network_defection(specs, shape, defector, unitaries), defector)


def _reports(t: _DefectionTable, kept: np.ndarray, defector: int,
             copies: int | None = None) -> list[DefectionReport]:
    """One report per row of the table, with its joint operator from the kept
    states the table reduced, and in the GHZ baseline's table of ``copies`` copies its copy as its
    ``message_index``.  Each distinct tuple of Bell outcomes, with its diagonal forms, and each
    bytewise-distinct marginal is built once and shared by the rows; with one received qubit the
    joint is the marginal.  A joint is wrapped unchecked: it is a Gram matrix, and its marginals were checked."""
    total = len(t.operators)
    per_qubit = [list(map(DensityMatrix._wrap_all(ops).__getitem__, inverse.tolist())) for ops, inverse in t.operators]
    if total == 1:
        joints = per_qubit[0]
    else:
        halves = kept.reshape(len(kept), 2, 1 << total)
        joints = DensityMatrix._wrap_all(np.einsum("bdi,bdj->bij", halves, halves.conj()))  # defector traced out
    first, at = _distinct(t.outcomes[:, :total] @ 4 ** np.arange(total - 1, -1, -1))
    bells = [tuple(map(_BELL_ORDER.__getitem__, row)) for row in t.outcomes[first, :total].tolist()]
    parts = [(b, tuple(map(_form_for, b))) for b in bells]
    indices = itertools.repeat(None) if copies is None else np.arange(copies).repeat(len(t.probs) // copies).tolist()
    return [_record(DefectionReport, {
        "defector": defector, "bell_outcomes": b, "cooperator_bits": tuple(bits), "probability": p,
        "joint_density": joint, "per_qubit_density": densities, "off_diagonal_norm": norm,
        "max_fidelity": tuple(best), "conforms_to": forms, "message_index": index,
    }) for (b, forms), bits, p, joint, densities, norm, best, index in zip(
        map(parts.__getitem__, at.tolist()), t.outcomes[:, total:].tolist(), t.probs.tolist(), joints,
        zip(*per_qubit), t.off.max(axis=1).tolist(), t.best.tolist(), indices)]


def analyze_two_party_defection(spec: MessageSpec) -> list[DefectionReport]:
    """Single-agent network: the one agent defects, the sender completes all
    of her measurements.  One report per (Bell outcomes, sender bit) branch."""
    return analyze_defection(spec, NetworkShape.single(len(spec), 1), 0)


def analyze_baseline_defection(
    spec: MessageSpec,
    shape: NetworkShape,
    defector: int,
    *,
    unitaries: np.ndarray | None = None,
) -> list[DefectionReport]:
    """Defection in the per-qubit GHZ baseline: the defector withholds all of
    its per-copy bits; reports are per copy and per cooperating branch."""
    defector = _integral(defector, "defector")
    us = _recovery_grid(unitaries, shape, defector)
    outcomes, probs, kept = _baseline_branches(spec, shape, defector=defector)
    return _reports(_defection_table(outcomes, probs, kept, spec.qubits, us), kept, defector, len(spec))


def entangled_info_check(spec: MessageSpec, shape: NetworkShape | None = None) -> ConditionalStateReport:
    """Fix both Bell pairs to Phi+ and each agent's bit to plus through ``_network_branches``, the
    sender withholding its GHZ qubit as a defector would; in that one branch project the first received
    qubit onto alpha1|0> +/- beta1|1>, and report the second received qubit's fidelity against
    alpha2|0> +/- beta2|1>.  The kets are orthogonal, and p+ + p- = 1, only when |alpha1| = |beta1|."""
    if len(spec) != 2:
        raise ValueError("the entangled-information check needs exactly two message qubits")
    shape = shape or NetworkShape.single(2, 1)
    if shape.num_receivers != 1 or shape.message_counts[0] != 2:
        raise ValueError("shape must carry two message qubits to one receiver")
    # exact: every GHZ qubit holds one value p, so tracing them all out leaves sum_p |psi_p><psi_p|; while the
    # sender's qubit is unmeasured the p-terms stay orthogonal, so each agent's plus keeps both at weight 1/2
    _, _, kept = _network_branches([spec], shape, (0,) * (2 + shape.num_agents), defector=shape.num_agents)
    rows = kept[0].reshape(-1, 2, 2)  # (sender's GHZ value, second received qubit, first received qubit)
    (a1, b1), (a2, b2) = spec.qubits
    results = []  # p+, F+, p-, F-; p >= 1/2, since the GHZ qubits dephase the first received qubit
    for sign in (+1, -1):
        v = rows @ np.conj([a1, sign * b1])  # the projected first qubit contracted out, unnormalized
        p = float(np.vdot(v, v).real)
        results += [p, min(max(float(np.sum(np.abs(v @ np.conj([a2, sign * b2])) ** 2)) / p, 0.0), 1.0)]
    return ConditionalStateReport(*results)
