"""Pure states and density matrices for the state families under study.

Conventions
-----------
Qubit 0 is the leftmost ket label; bit i of a basis index addresses qubit i
(so for 3 qubits, index 5 = 0b101 is |101>).  Angles are radians everywhere;
degree conversion happens only at the CLI boundary.

All container types are immutable values after construction (arrays are
marked read-only), so they can be shared freely across workers.

The parameter checks shared by several modules (`check_theta`,
`check_visibility`, `check_gsms2`, `check_gsms3`) live here, as does the
state JSON format (`save_density_matrix`, `save_pure_state`, `load_state`).
Each check is written as `not lo <= x <= hi`, so NaN fails it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .files import format_float, json_field, read_json_object, writing

HERM_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass
class PureState:
    """State vector on 2 or 3 qubits with unit Euclidean norm."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_qubits not in (2, 3):
            raise ParameterError(f"n_qubits must be 2 or 3, got {self.n_qubits}")
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amp.size != 2 ** self.n_qubits:
            raise ParameterError(
                f"amplitude vector has length {amp.size}, expected {2 ** self.n_qubits}")
        if not np.isfinite(amp).all():
            raise ParameterError("state vector has a non-finite amplitude")
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > 1e-12:
            raise ParameterError(f"state vector norm {norm!r} is not 1 within 1e-12")
        self.amplitudes = _readonly(amp)

    def projector(self) -> "DensityMatrix":
        return DensityMatrix(self.n_qubits, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass
class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite matrix on 2 or 3 qubits.

    Construction validates all three invariants.  Eigenvalues in
    [-1e-10, 0) are treated as rounding noise and removed by projecting
    onto the PSD cone (file-loaded experimental matrices need this);
    anything more negative raises ParameterError.
    """

    n_qubits: int
    entries: np.ndarray

    def __post_init__(self):
        # single-qubit matrices appear as partial-trace results
        if self.n_qubits not in (1, 2, 3):
            raise ParameterError(f"n_qubits must be 1, 2 or 3, got {self.n_qubits}")
        d = 2 ** self.n_qubits
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (d, d):
            raise ParameterError(f"entries shape {m.shape}, expected {(d, d)}")
        if not np.isfinite(m).all():
            raise ParameterError("density matrix has a non-finite entry")
        if np.max(np.abs(m - m.conj().T)) > HERM_TOL:
            raise ParameterError("matrix is not Hermitian within 1e-12")
        tr = np.trace(m).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ParameterError(f"trace {tr!r} is not 1 within 1e-12")
        w = np.linalg.eigvalsh(m)
        if w[0] < -PSD_TOL:
            raise ParameterError(
                f"smallest eigenvalue {w[0]:.3e} is below the -1e-10 PSD tolerance")
        if w[0] < 0.0:
            # rounding noise only: clamp the spectrum and renormalize
            w_full, v = np.linalg.eigh(m)
            w_full = np.clip(w_full, 0.0, None)
            m = (v * w_full) @ v.conj().T
            m = 0.5 * (m + m.conj().T)
            m /= np.trace(m).real
        self.entries = _readonly(m)

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits


# ------------------------------------------------------------------ families

def gghz(theta: float, n_qubits: int) -> PureState:
    """Generalized GHZ state cos(theta)|0..0> + sin(theta)|1..1>.

    Parameters
    ----------
    theta : float
        Angle in radians, 0 < theta <= pi/4.
    n_qubits : int
        2 or 3.
    """
    check_theta(theta)
    if n_qubits not in (2, 3):
        raise ParameterError(f"n_qubits must be 2 or 3, got {n_qubits}")
    amp = np.zeros(2 ** n_qubits, dtype=complex)
    amp[0] = math.cos(theta)
    amp[-1] = math.sin(theta)
    return PureState(n_qubits, amp)


def check_theta(theta: float) -> None:
    """ParameterError unless theta is a gGHZ angle in (0, pi/4] radians."""
    if not 0.0 < theta <= math.pi / 4 + 1e-12:
        raise ParameterError(f"theta must be in (0, pi/4], got {theta!r}")


def check_visibility(v: float) -> None:
    """ParameterError unless v is a visibility in (0, 1]."""
    if not 0.0 < v <= 1.0:
        raise ParameterError(f"visibility must be in (0, 1], got {v!r}")


def werner_like(theta: float, v: float, n_qubits: int) -> DensityMatrix:
    """White-noise mixture v |theta><theta| + (1-v)/2^n * identity."""
    check_visibility(v)
    psi = gghz(theta, n_qubits).amplitudes
    d = 2 ** n_qubits
    rho = v * np.outer(psi, psi.conj()) + (1.0 - v) / d * np.eye(d)
    return DensityMatrix(n_qubits, rho)


def check_gsms2(x: float, y: float) -> None:
    """ParameterError unless (x, y) is in the 2-qubit GHZ-symmetric triangle."""
    if not abs(y) <= 1.0 / (2.0 * _SQRT2) + 1e-12:
        raise ParameterError(f"|y| must not exceed 1/(2 sqrt2), got {y!r}")
    if not abs(x) <= (1.0 + 2.0 * _SQRT2 * y) / 4.0 + 1e-12:
        raise ParameterError(f"(x, y) = ({x!r}, {y!r}) leaves the admissible triangle")


def check_gsms3(x: float, y: float) -> None:
    """ParameterError unless (x, y) is in the 3-qubit GHZ-symmetric triangle."""
    if not -1.0 / (4.0 * _SQRT3) - 1e-12 <= y <= _SQRT3 / 4.0 + 1e-12:
        raise ParameterError(f"y = {y!r} outside [-1/(4 sqrt3), sqrt3/4]")
    if not abs(x) <= (1.0 + 4.0 * _SQRT3 * y) / 8.0 + 1e-12:
        raise ParameterError(f"(x, y) = ({x!r}, {y!r}) leaves the admissible triangle")


def _ghz_pm_projectors(n_qubits: int):
    d = 2 ** n_qubits
    plus = np.zeros(d)
    plus[0] = plus[-1] = 1.0 / _SQRT2
    minus = np.zeros(d)
    minus[0], minus[-1] = 1.0 / _SQRT2, -1.0 / _SQRT2
    return np.outer(plus, plus), np.outer(minus, minus)


def gsms2(x: float, y: float) -> DensityMatrix:
    """Two-qubit GHZ-symmetric mixed state.

    (sqrt(2)y + x) P+ + (sqrt(2)y - x) P- + (1 - 2 sqrt(2) y)/4 * identity,
    with P+- the projectors onto (|00> +- |11>)/sqrt(2).  Admissible region:
    |y| <= 1/(2 sqrt(2)), |x| <= (1 + 2 sqrt(2) y)/4.
    """
    check_gsms2(x, y)
    pp, pm = _ghz_pm_projectors(2)
    rho = (_SQRT2 * y + x) * pp + (_SQRT2 * y - x) * pm \
        + (1.0 - 2.0 * _SQRT2 * y) / 4.0 * np.eye(4)
    return DensityMatrix(2, rho)


def gsms3(x: float, y: float) -> DensityMatrix:
    """Three-qubit GHZ-symmetric mixed state, parameters (x, y).

    (2 sqrt(3)/3 y + x) P+ + (2 sqrt(3)/3 y - x) P- + (3 - 4 sqrt(3) y)/24 * id.
    Admissible: -1/(4 sqrt(3)) <= y <= sqrt(3)/4, |x| <= (1 + 4 sqrt(3) y)/8.
    """
    check_gsms3(x, y)
    pp, pm = _ghz_pm_projectors(3)
    rho = (2.0 * _SQRT3 / 3.0 * y + x) * pp + (2.0 * _SQRT3 / 3.0 * y - x) * pm \
        + (3.0 - 4.0 * _SQRT3 * y) / 24.0 * np.eye(8)
    return DensityMatrix(3, rho)


def mems(gamma: float) -> DensityMatrix:
    """Maximally entangled mixed state gamma |Phi+><Phi+| + (1-gamma)|01><01|."""
    if not 2.0 / 3.0 - 1e-12 <= gamma <= 1.0 + 1e-12:
        raise ParameterError(f"gamma must be in [2/3, 1], got {gamma!r}")
    pp, _ = _ghz_pm_projectors(2)
    rho = gamma * pp
    rho[1, 1] += 1.0 - gamma
    return DensityMatrix(2, rho)


def phn(x: float, n_qubits: int) -> DensityMatrix:
    """Phase-damped GHZ mixture (1/2+x)|+GHZ><+GHZ| + (1/2-x)|-GHZ><-GHZ|."""
    if not abs(x) <= 0.5 + 1e-12:
        raise ParameterError(f"|x| must not exceed 1/2, got {x!r}")
    pp, pm = _ghz_pm_projectors(n_qubits)
    return DensityMatrix(n_qubits, (0.5 + x) * pp + (0.5 - x) * pm)


def basis_state(bits: str) -> PureState:
    """Computational basis state from a bit string like "010"."""
    if len(bits) not in (2, 3) or any(b not in "01" for b in bits):
        raise ParameterError(f"bits must be a 2- or 3-character 0/1 string, got {bits!r}")
    n = len(bits)
    amp = np.zeros(2 ** n, dtype=complex)
    amp[int(bits, 2)] = 1.0
    return PureState(n, amp)


# ------------------------------------------------------------------ algebra

def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the qubits in `keep` (0 = leftmost ket label)."""
    keep = sorted(set(int(k) for k in keep))
    n = rho.n_qubits
    if not keep or len(keep) >= n or any(k < 0 or k >= n for k in keep):
        raise ParameterError(f"keep must be a non-empty strict subset of 0..{n - 1}")
    drop = [i for i in range(n) if i not in keep]
    t = rho.entries.reshape([2] * (2 * n))
    # axis i is qubit i of the row index, axis n+i the column index
    perm = keep + drop + [n + k for k in keep] + [n + d for d in drop]
    t = t.transpose(perm)
    dk, dd = 2 ** len(keep), 2 ** len(drop)
    t = t.reshape(dk, dd, dk, dd)
    red = np.einsum("ajbj->ab", t)
    return DensityMatrix(len(keep), red)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2)."""
    return float(np.vdot(rho.entries, rho.entries).real)


# ------------------------------------------------------------------ state files

def _complex_array(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _write_state(path, n_qubits: int, key: str, values) -> None:
    """The JSON that `load_state` reads: [re, im] pairs of `values` under `key`."""
    rows = ",\n    ".join(
        "[%s, %s]" % (format_float(z.real), format_float(z.imag)) for z in values)
    text = '{\n  "n_qubits": %d,\n  "%s": [\n    %s\n  ]\n}\n' % (n_qubits, key, rows)
    with writing(path) as fh:
        fh.write(text)


def save_density_matrix(rho: DensityMatrix, path) -> None:
    _write_state(path, rho.n_qubits, "entries", rho.entries.ravel())


def save_pure_state(psi: PureState, path) -> None:
    _write_state(path, psi.n_qubits, "amplitudes", psi.amplitudes)


def load_state(path):
    """Load either a DensityMatrix or a PureState JSON file."""
    obj = read_json_object(path, "state file")
    n = json_field(obj, "n_qubits", int, path)
    if "entries" in obj:
        # refused before 2 ** n is taken, which a huge n makes huge
        if n not in (1, 2, 3):
            raise ParameterError(f"n_qubits must be 1, 2 or 3, got {n}")
        flat = json_field(obj, "entries", _complex_array, path)
        d = 2 ** n
        if flat.size != d * d:
            raise ParameterError(f"entries length {flat.size}, expected {d * d}")
        return DensityMatrix(n, flat.reshape(d, d))
    if "amplitudes" in obj:
        amp = json_field(obj, "amplitudes", _complex_array, path)
        return PureState(n, amp)
    raise ParameterError("state file has neither 'entries' nor 'amplitudes'")


def as_density_matrix(state) -> DensityMatrix:
    if isinstance(state, DensityMatrix):
        return state
    if isinstance(state, PureState):
        return state.projector()
    raise ParameterError(f"not a state object: {type(state).__name__}")
