"""Concurrence and GME-concurrence measures.

Two evaluation routes are kept side by side: general algorithms (Wootters
eigenvalues, bipartition purities, the exact X-state formula) and the
closed forms for the specific state families.  The two published 3-qubit
closed forms disagree for v < 1; both are shipped under distinct names and
the X-state-derived one is the default everywhere downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotAnXStateError, ParameterError
from .qstate import DensityMatrix, PureState, check_visibility, partial_trace

X_TOL = 1e-9


def concurrence2(rho: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    Factor rho = L L^H over its numerical rank; the singular values of
    L^T (sigma_y x sigma_y) L are then exactly the Wootters lambda_i.
    Working with the factor instead of sqrt-of-eigenvalue pipelines keeps
    full precision at rank-deficient states, where eigenvalue noise would
    otherwise be amplified by the square roots.
    """
    if rho.n_qubits != 2:
        raise ParameterError(f"concurrence2 needs a 2-qubit state, got {rho.n_qubits}")
    m = rho.entries
    yy = np.zeros((4, 4))
    yy[0, 3] = yy[3, 0] = -1.0
    yy[1, 2] = yy[2, 1] = 1.0
    w, v = np.linalg.eigh(m)
    keep = w > 1e-14
    fac = v[:, keep] * np.sqrt(w[keep])
    lam = np.linalg.svd(fac.T @ yy @ fac, compute_uv=False)
    lam = np.concatenate([lam, np.zeros(4 - lam.size)])
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def concurrence_pure(psi: PureState, bipartition) -> float:
    """sqrt(2 (1 - Tr rho_A^2)) across the given bipartition.

    `bipartition` lists the qubits on one side; the complement is the other.
    """
    keep = sorted(set(int(k) for k in bipartition))
    if not keep or len(keep) >= psi.n_qubits:
        raise ParameterError("bipartition must be a non-empty strict subset of the qubits")
    red = partial_trace(psi.projector(), keep)
    pur = float(np.vdot(red.entries, red.entries).real)
    return math.sqrt(max(0.0, 2.0 * (1.0 - pur)))


def gme_concurrence_pure(psi: PureState) -> float:
    """Minimum bipartite concurrence over the three one-vs-rest splits."""
    if psi.n_qubits != 3:
        raise ParameterError(f"needs a 3-qubit pure state, got {psi.n_qubits}")
    return min(concurrence_pure(psi, [k]) for k in range(3))


@dataclass
class XStateDecomposition:
    """Diagonal and anti-diagonal data of an X-form density matrix.

    Pairing: a[j] = rho[j, j], b[j] = rho[D-1-j, D-1-j], z[j] = rho[j, D-1-j]
    for j up to D/2 - 1.
    """

    a: np.ndarray
    b: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.z = np.asarray(self.z, dtype=complex)
        if not (self.a.shape == self.b.shape == self.z.shape) or self.a.ndim != 1:
            raise ParameterError("a, b, z must be equal-length vectors")
        if np.min(self.a) < -1e-12 or np.min(self.b) < -1e-12:
            raise ParameterError("negative diagonal weight")
        if abs(self.a.sum() + self.b.sum() - 1.0) > 1e-10:
            raise ParameterError("diagonal does not sum to 1")
        ab = np.sqrt(np.clip(self.a * self.b, 0.0, None))
        if np.any(np.abs(self.z) > ab + 1e-10):
            raise ParameterError("|z_j| exceeds sqrt(a_j b_j)")


def xstate_decompose(rho: DensityMatrix) -> XStateDecomposition:
    """Extract (a, b, z); reject matrices with off-X structure above 1e-9."""
    m = rho.entries
    d = rho.dim
    mask = np.eye(d, dtype=bool) | np.fliplr(np.eye(d, dtype=bool))
    off = np.abs(np.where(mask, 0.0, m))
    worst = np.unravel_index(int(np.argmax(off)), off.shape)
    if off[worst] > X_TOL:
        raise NotAnXStateError((int(worst[0]), int(worst[1])), float(off[worst]))
    h = d // 2
    a = m.diagonal().real[:h].copy()
    b = m.diagonal().real[:h - d - 1:-1].copy()  # D-1-j for j = 0..h-1
    z = np.array([m[j, d - 1 - j] for j in range(h)])
    return XStateDecomposition(a, b, z)


def gme_concurrence_xstate(dec: XStateDecomposition) -> float:
    """Exact GME concurrence 2 max_i {0, |z_i| - chi_i} of an X state."""
    root = np.sqrt(np.clip(dec.a * dec.b, 0.0, None))
    chi = root.sum() - root
    return max(0.0, 2.0 * float(np.max(np.abs(dec.z) - chi)))


# ---------------------------------------------------------- closed forms

def _check_theta_v(theta: float, v: float) -> None:
    if not 0.0 < theta <= math.pi / 4 + 1e-12:
        raise ParameterError(f"theta must be in (0, pi/4], got {theta!r}")
    check_visibility(v)


def conc_closed_w2(theta: float, v: float) -> float:
    """Concurrence of the 2-qubit noisy gGHZ family: (v(2 sin2t + 1) - 1)/2."""
    _check_theta_v(theta, v)
    return max(0.0, (v * (2.0 * math.sin(2.0 * theta) + 1.0) - 1.0) / 2.0)


def gme_closed_w3_as_printed(theta: float, v: float) -> float:
    """As-printed 3-qubit GME closed form ((3 sin2t + 2)v - 2)/3.

    Kept verbatim for reproducing downstream compositions built on it; its
    zero crossing (v = 2/5 at t = 45 deg) disagrees with the X-state route.
    """
    _check_theta_v(theta, v)
    return max(0.0, ((3.0 * math.sin(2.0 * theta) + 2.0) * v - 2.0) / 3.0)


def gme_closed_w3_xstate(theta: float, v: float) -> float:
    """X-state evaluation of the same family: v sin2t - 3(1 - v)/4.

    Zero at v = 3/7 for t = 45 deg.  Default form for estimation pipelines.
    """
    _check_theta_v(theta, v)
    return max(0.0, v * math.sin(2.0 * theta) - 3.0 * (1.0 - v) / 4.0)


def conc_gsms2(x: float, y: float) -> float:
    """Concurrence of the 2-qubit GHZ-symmetric family: 2|x| + sqrt2 y - 1/2."""
    if abs(y) > 1.0 / (2.0 * math.sqrt(2.0)) + 1e-12 or \
            abs(x) > (1.0 + 2.0 * math.sqrt(2.0) * y) / 4.0 + 1e-12:
        raise ParameterError(f"(x, y) = ({x!r}, {y!r}) leaves the admissible triangle")
    return max(0.0, 2.0 * abs(x) + math.sqrt(2.0) * y - 0.5)


def gme_gsms3(x: float, y: float) -> float:
    """GME concurrence of the 3-qubit GHZ-symmetric family: 2|x| + sqrt3 y - 3/4."""
    if not -1.0 / (4.0 * math.sqrt(3.0)) - 1e-12 <= y <= math.sqrt(3.0) / 4.0 + 1e-12 \
            or abs(x) > (1.0 + 4.0 * math.sqrt(3.0) * y) / 8.0 + 1e-12:
        raise ParameterError(f"(x, y) = ({x!r}, {y!r}) leaves the admissible triangle")
    return max(0.0, 2.0 * abs(x) + math.sqrt(3.0) * y - 0.75)
