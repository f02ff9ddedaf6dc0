"""Shared oracle helpers: dense matrices built from literal 2x2 Paulis.

These stay independent of the package's own algebra so that every exact
claim is checked through a second route.
"""

import os
from pathlib import Path

import numpy as np
import pytest

# the CLI tests start `python -m merminkit` subprocesses; let them import the
# package from this checkout even when it is not installed
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

SIGMA = {
    0: np.eye(2, dtype=complex),
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_word(letters):
    """Dense matrix of a tensor word, via literal Kronecker products."""
    m = np.eye(1, dtype=complex)
    for j in letters:
        m = np.kron(m, SIGMA[j])
    return m


def sum_matrix(s):
    """Dense matrix of a PauliSum, using only its term view."""
    m = np.zeros((2**s.n, 2**s.n), dtype=complex)
    for letters, coeff in s.terms():
        m = m + coeff * kron_word(letters)
    return m


def random_nonzero_coeffs(rng, count, complex_valued=True):
    out = []
    while len(out) < count:
        c = complex(rng.uniform(-2, 2),
                    rng.uniform(-2, 2) if complex_valued else 0.0)
        if abs(c) >= 0.25:
            out.append(c)
    return out


def random_unit_vector(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
