import numpy as np
import pytest

from teleportnet import StateVector


def random_state(num_qubits: int, rng: np.random.Generator) -> StateVector:
    amps = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(1 << num_qubits)
    return StateVector(amps)


def random_unitary2(rng: np.random.Generator) -> np.ndarray:
    raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def row_keys(stack: np.ndarray) -> np.ndarray:
    """One key per row of a (k, ...) stack: the row's bytes as one ``np.void``, as the defection
    table keys its operators."""
    rows = np.ascontiguousarray(stack).reshape(len(stack), -1)
    return rows.view(f"V{rows[0].nbytes}")[:, 0]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
