"""Haar-random local unitaries, for the tests that check invariance under them."""

import functools
import math

import numpy as np

from bellent.qstate import DensityMatrix


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed U(2) element via QR of a complex Ginibre matrix."""
    z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def apply_local_unitaries(rho: DensityMatrix, us) -> DensityMatrix:
    """(U_1 x ... x U_N) rho (U_1 x ... x U_N)^dagger."""
    big = functools.reduce(np.kron, us)
    return DensityMatrix(rho.n_qubits, big @ rho.entries @ big.conj().T)
