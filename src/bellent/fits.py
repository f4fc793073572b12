"""Empirical fit curves linking the nonlocal fraction to visibility and
concurrence, plus refitting and the (theta, v0) curve estimator.

Unit convention: every fit takes p_V in PERCENT (0..100).  The published
coefficient tables only make sense under that reading (the pure-state GME
fit reaches 1 near p_V ~ 11.7), and each serialized FitCurve declares it.

Angles are radians, including inside the polynomial coefficient functions;
the composition checks against the printed constant terms validate that.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import entanglement
from .errors import FitError, ParameterError
from .qstate import check_theta

SQRT10 = math.sqrt(10.0)
CBRT10 = 10.0 ** (1.0 / 3.0)
DEFAULT_DOMAIN = (0.5, 30.0)

_B1 = 14.94 * math.pi / 180.0
_B2 = 29.5 * math.pi / 180.0


def _check_pv(pv) -> None:
    """ParameterError unless p_V (percent), a number or an array, is finite and >= 0."""
    p = np.asarray(pv, dtype=float)
    bad = ~(np.isfinite(p) & (p >= 0.0))
    if bad.any():
        raise ParameterError(
            f"p_V (percent) must be finite and >= 0, got {float(p.flat[bad.argmax()])!r}")


# ------------------------------------------------- fractional-power curves

@dataclass
class FitCurve:
    """Linear combination of fractional powers of p_V (percent)."""

    basis: tuple
    coefficients: tuple
    domain: tuple = DEFAULT_DOMAIN
    units: str = "percent"
    provenance: str = "printed"

    def __post_init__(self):
        self.basis = tuple(float(b) for b in self.basis)
        self.coefficients = tuple(float(c) for c in self.coefficients)
        if len(self.basis) != len(self.coefficients):
            raise ParameterError("basis and coefficients lengths differ")
        if any(b2 <= b1 for b1, b2 in zip(self.basis, self.basis[1:])):
            raise ParameterError("basis exponents must be strictly increasing")
        self.domain = (float(self.domain[0]), float(self.domain[1]))
        if not self.domain[0] < self.domain[1]:
            raise ParameterError("empty fit domain")

    def __call__(self, pv_percent: float) -> float:
        """Sum of c p^b in basis order, on Python floats (0.0 ** 0.0 is 1.0).

        Exponent 1/2 is math.sqrt, which can differ from p ** 0.5 in the last
        bit; numpy's array ** differs from Python's for 1/4 and 1/6.
        """
        _check_pv(pv_percent)
        p = float(pv_percent)
        total = 0.0
        for b, c in zip(self.basis, self.coefficients):
            total += c * (math.sqrt(p) if b == 0.5 else p ** b)
        return total

    def to_json(self) -> str:
        obj = {"basis": list(self.basis), "coefficients": list(self.coefficients),
               "domain": list(self.domain), "units": self.units,
               "provenance": self.provenance}
        return json.dumps(obj, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FitCurve":
        obj = json.loads(text)
        return cls(obj["basis"], obj["coefficients"], obj["domain"],
                   obj.get("units", "percent"), obj.get("provenance", "printed"))


BASIS_2Q = (0.0, 0.25, 0.5, 1.0)
BASIS_3Q = (0.0, 1.0 / 6.0, 0.5, 1.0)


# ------------------------------------------------- critical visibilities

def beta2(theta: float) -> float:
    """Maximal CHSH strength of the 2-qubit family: sqrt(sin^2(2t) + 1).

    Unlike the coefficient functions, it also takes theta = 0.
    """
    if theta:
        check_theta(theta)
    return math.sqrt(math.sin(2.0 * theta) ** 2 + 1.0)


def v2cr(theta: float) -> float:
    return 1.0 / beta2(theta)


def beta3(theta: float) -> float:
    """Piecewise maximal violation strength of the 3-qubit family.

    Branch points at 14.94 and 29.5 degrees; the polynomial branch takes
    theta in radians.  Adjacent branches agree to about 1e-3 or better.
    Like beta2, it also takes theta = 0 (the first branch has no 1/theta).
    """
    if theta:
        check_theta(theta)
    if theta < _B1:
        return 1.0 + 0.0622 * theta + 1.697 * theta ** 2 \
            - 3.391 * theta ** 3 + 1.442 * theta ** 4
    if theta < _B2:
        return (1.0 + 2.0 * math.sqrt(1.0 + math.sin(2.0 * theta) ** 2)) / 3.0
    return math.sqrt(2.0 * math.sin(2.0 * theta) ** 2)


def v3cr(theta: float) -> float:
    return 1.0 / beta3(theta)


# ------------------------------------------------- printed coefficients

def f1(theta: float) -> float:
    check_theta(theta)
    return (0.19674 - 1.3982 * theta + 4.712274 * theta ** 2
            - 6.7193 * theta ** 3 + 3.3384 * theta ** 4) / SQRT10


def f2(theta: float) -> float:
    check_theta(theta)
    return 0.11886 - 0.011544 / theta - 0.363104 * theta \
        + 0.460436 * theta ** 2 - 0.204953 * theta ** 3


def f3(theta: float) -> float:
    check_theta(theta)
    return (0.03848 - 0.011 / theta - 0.02531 * theta
            - 0.018331 * theta ** 2 + 0.017373 * theta ** 3) * 1e-2


def g1(theta: float) -> float:
    check_theta(theta)
    p1 = -0.061297 + 0.55512 * theta - 0.42815 * theta ** 2
    p2 = -18.58393 + 57.9917 * math.sqrt(theta) - 50.2727 * theta \
        + 11.209 * theta ** 2
    return max(p1, p2) / CBRT10


def g2(theta: float) -> float:
    check_theta(theta)
    p = 0.76306 - 4.13852 * theta + 8.28077 * theta ** 2 \
        - 7.2943 * theta ** 3 + 2.38884 * theta ** 4
    return min(0.0, p)


def g3(theta: float) -> float:
    check_theta(theta)
    p1 = 0.0001151 - 0.0004063 * theta + 0.0004321 * theta ** 2
    p2 = -0.015237 + 0.084803 * theta - 0.17408 * theta ** 2 \
        + 0.15723 * theta ** 3 - 0.052804 * theta ** 4
    return max(p1, p2)


# ------------------------------------------------- printed visibility fits

def fitcurve_2q(theta: float) -> FitCurve:
    """Printed 2-qubit visibility fit at fixed theta as a concrete curve."""
    return FitCurve(BASIS_2Q, (v2cr(theta), f1(theta), f2(theta), f3(theta)))


def fitcurve_3q(theta: float) -> FitCurve:
    """Printed 3-qubit visibility fit at fixed theta as a concrete curve."""
    return FitCurve(BASIS_3Q, (v3cr(theta), g1(theta), g2(theta), g3(theta)))


def v_from_pv_2q(theta: float, pv_percent: float) -> float:
    """Visibility from the printed 2-qubit fit: v2cr + f1 p^1/4 + f2 p^1/2 + f3 p."""
    return fitcurve_2q(theta)(pv_percent)


def v_from_pv_3q(theta: float, pv_percent: float) -> float:
    """Visibility from the printed 3-qubit fit: v3cr + g1 p^1/6 + g2 p^1/2 + g3 p."""
    return fitcurve_3q(theta)(pv_percent)


# ------------------------------------------------- concurrence fits

def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


_C_LOWER_2Q = FitCurve(BASIS_2Q, (0.0, 0.6784 / SQRT10, -1.59e-2, 1e-4))
_C_MEMS = FitCurve(BASIS_2Q, (1.0 / math.sqrt(2.0), 0.1125 / SQRT10, -9.0e-4, 2.83e-5))
_C_PHN3 = FitCurve(BASIS_3Q, (0.0, 0.4012, -0.0118, 9.0e-5))
_C_GME_PURE3_SQUARED = FitCurve((0.5, 1.0), (0.06, 0.068))
_C_GME_45 = FitCurve(BASIS_3Q, (0.512, 0.186, -7.1e-3, 1.12e-4))
_C_GME_35 = FitCurve(BASIS_3Q, (0.542, 0.155, -8.2e-3, 1.52e-4))


def c_lower_2q(pv_percent: float) -> float:
    """Lower bound on 2-qubit concurrence from the nonlocal fraction."""
    return _clamp01(_C_LOWER_2Q(pv_percent))


def c_mems_fit(pv_percent: float) -> float:
    """Concurrence upper envelope (MEMS family) vs nonlocal fraction."""
    return _clamp01(_C_MEMS(pv_percent))


def c_phn3_fit(pv_percent: float) -> float:
    """GME concurrence of the phase-damped GHZ family vs nonlocal fraction."""
    return _clamp01(_C_PHN3(pv_percent))


def c_gme_pure3_fit(pv_percent: float) -> float:
    """Pure-state GME lower bound (0.068 p + 0.06 sqrt(p))^(1/2), clamped."""
    return _clamp01(math.sqrt(_C_GME_PURE3_SQUARED(pv_percent)))


def c_gme_45_fit(pv_percent: float) -> float:
    """Printed GME-concurrence fit for the 45-degree 3-qubit family."""
    return _clamp01(_C_GME_45(pv_percent))


def c_gme_35_fit(pv_percent: float) -> float:
    """Printed GME-concurrence fit for the 35-degree 3-qubit family."""
    return _clamp01(_C_GME_35(pv_percent))


FAMILIES = ("werner2", "werner3_printed", "werner3_xstate")


def concurrence_from_pv(theta: float, pv_percent: float, family: str) -> float:
    """Closed-form concurrence at the visibility inferred from p_V.

    `family` picks the closed form: the 2-qubit one, or either of the two
    3-qubit variants (the as-printed form and the X-state-derived form).
    Domain errors from the visibility leaving (0, 1] propagate.
    """
    if family == "werner2":
        return entanglement.conc_closed_w2(theta, v_from_pv_2q(theta, pv_percent))
    if family == "werner3_printed":
        return entanglement.gme_closed_w3_as_printed(theta, v_from_pv_3q(theta, pv_percent))
    if family == "werner3_xstate":
        return entanglement.gme_closed_w3_xstate(theta, v_from_pv_3q(theta, pv_percent))
    raise ParameterError(f"family must be one of {FAMILIES}, got {family!r}")


def refit(xs, basis, provenance: str = "refit", domain=None):
    """Least squares on a fixed fractional-power basis.

    xs holds (pv_percent, value) pairs.  Returns (FitCurve, rms_residual).
    """
    pts = [(float(p), float(v)) for p, v in xs]
    if len(pts) < len(basis):
        raise FitError(f"need at least {len(basis)} points, got {len(pts)}")
    pv = np.array([p for p, _ in pts])
    y = np.array([v for _, v in pts])
    _check_pv(pv)
    if not np.isfinite(y).all():
        raise ParameterError("fitted values must be finite")
    a = np.stack([pv ** float(b) for b in basis], axis=1)  # 0**0 = 1 in numpy
    coef, _, rank, _ = np.linalg.lstsq(a, y, rcond=None)
    if rank < len(basis):
        raise FitError(f"design matrix rank {rank} < {len(basis)}; "
                       "p_V values too degenerate")
    rms = float(np.sqrt(np.mean((a @ coef - y) ** 2)))
    if domain is None:
        domain = (float(pv.min()) if pv.min() > 0 else DEFAULT_DOMAIN[0],
                  float(pv.max()))
    return FitCurve(tuple(basis), tuple(coef), domain, "percent", provenance), rms


def estimate_theta_v0(curve):
    """Recover (theta, v0) of a rescaled visibility curve.

    `curve` holds (v, pv_percent) pairs assumed to follow
    v = (1/v0) [v3cr(theta) + g1 pv^(1/6) + g2 pv^(1/2) + g3 pv].
    Coarse grid search over theta in (0, pi/4], v0 in [0.8, 1], then
    Nelder-Mead refinement.  Returns (theta, v0, rms_residual).
    """
    pts = [(float(v), float(p)) for v, p in curve]
    if len(pts) < 3:
        raise FitError(f"need at least 3 points, got {len(pts)}")
    vs = np.array([v for v, _ in pts])
    pv = np.array([p for _, p in pts])
    _check_pv(pv)
    if not np.isfinite(vs).all():
        raise ParameterError("visibilities must be finite")
    if np.ptp(pv) < 1e-12:
        raise FitError("degenerate curve: all p_V values equal")
    p16, p12 = pv ** (1.0 / 6.0), np.sqrt(pv)

    def sq_resid(theta, v0):
        model = (v3cr(theta) + g1(theta) * p16 + g2(theta) * p12
                 + g3(theta) * pv) / v0
        return float(np.sum((vs - model) ** 2))

    best = None
    for theta in np.linspace(0.02, math.pi / 4, 60):
        for v0 in np.linspace(0.8, 1.0, 41):
            r = sq_resid(theta, v0)
            if best is None or r < best[0]:
                best = (r, theta, v0)

    def objective(z):
        theta = min(max(z[0], 1e-3), math.pi / 4)
        v0 = min(max(z[1], 0.5), 1.5)
        return sq_resid(theta, v0)

    # imported here, not at module level: it costs every CLI start about 0.2 s
    from scipy.optimize import minimize
    res = minimize(objective, [best[1], best[2]], method="Nelder-Mead",
                   options={"xatol": 1e-8, "fatol": 1e-14, "maxiter": 2000})
    theta = float(min(max(res.x[0], 1e-3), math.pi / 4))
    v0 = float(min(max(res.x[1], 0.5), 1.5))
    rms = math.sqrt(sq_resid(theta, v0) / len(pts))
    return theta, v0, rms
