"""The hash encoding of ``scripts/identity.py``: each result group's arrays and ``bytes`` values are
hashed from their raw buffers, placed by a ``repr`` of the values' structure."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from teleportnet import DensityMatrix

_spec = importlib.util.spec_from_file_location("identity", Path(__file__).parents[1] / "scripts" / "identity.py")
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)


def digest(*values) -> str:
    group = identity.Group()
    group.add(*values)
    return group.hexdigest()


@pytest.fixture
def a(rng) -> np.ndarray:
    return rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))


def test_memory_order_does_not_count(a):
    f = np.asfortranarray(a)
    assert not f.flags.c_contiguous
    assert digest(f) == digest(a.copy()) == digest(a)


def test_dtype_shape_and_every_bit_count(a):
    x = a.real.copy()
    flipped = x.copy()
    flipped.reshape(-1).view(np.uint8)[5] ^= 1
    assert np.count_nonzero(flipped != x) == 1
    # the same bytes under another dtype or shape, and one bit apart
    variants = [x, x.view(np.int64), x.reshape(4, 3), x.reshape(-1), flipped]
    assert len({digest(v) for v in variants}) == len(variants)


def test_bytes_and_an_array_of_the_same_bytes_differ():
    raw = b"teleport"
    assert digest(raw) != digest(np.frombuffer(raw, np.uint8))
    assert digest(raw) != digest(raw[:-1])


def test_order_and_nesting_count(a):
    b = a[::-1].copy()
    assert len({digest(a, b), digest(b, a), digest([a, b])}) == 3


def test_a_density_matrix_hashes_as_its_matrix():
    rho = DensityMatrix(np.array([[0.25, 0.25j], [-0.25j, 0.75]]))
    assert digest(rho) == digest(rho.matrix)
    assert digest(rho) != digest(rho.matrix.T)
