"""Pure states and density matrices for the state families under study.

Conventions
-----------
Qubit 0 is the leftmost ket label; bit i of a basis index addresses qubit i
(so for 3 qubits, index 5 = 0b101 is |101>).  Angles are radians everywhere;
degree conversion happens only at the CLI boundary.

All container types are immutable values after construction (arrays are
marked read-only), so they can be shared freely across workers.

The file IO section also holds the helpers every writer and loader of the
package shares (`format_float`, `write_float_lines`, `read_json_object`,
`json_field`), since every other module already imports this one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import MissingDataError, ParameterError, ParseError

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
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > 1e-12:
            raise ParameterError(f"state vector norm {norm!r} is not 1 within 1e-12")
        self.amplitudes = _readonly(amp)

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits

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


@dataclass
class LocalUnitary:
    """2x2 unitary acting on a single qubit."""

    matrix: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.matrix, dtype=complex)
        if u.shape != (2, 2):
            raise ParameterError(f"local unitary shape {u.shape}, expected (2, 2)")
        if np.max(np.abs(u.conj().T @ u - np.eye(2))) > 1e-12:
            raise ParameterError("matrix is not unitary within 1e-12")
        self.matrix = _readonly(u)


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
    if not 0.0 < theta <= math.pi / 4 + 1e-12:
        raise ParameterError(f"theta must be in (0, pi/4], got {theta!r}")
    if n_qubits not in (2, 3):
        raise ParameterError(f"n_qubits must be 2 or 3, got {n_qubits}")
    amp = np.zeros(2 ** n_qubits, dtype=complex)
    amp[0] = math.cos(theta)
    amp[-1] = math.sin(theta)
    return PureState(n_qubits, amp)


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
    if abs(y) > 1.0 / (2.0 * _SQRT2) + 1e-12:
        raise ParameterError(f"|y| must not exceed 1/(2 sqrt2), got {y!r}")
    if abs(x) > (1.0 + 2.0 * _SQRT2 * y) / 4.0 + 1e-12:
        raise ParameterError(f"(x, y) = ({x!r}, {y!r}) leaves the admissible triangle")
    pp, pm = _ghz_pm_projectors(2)
    rho = (_SQRT2 * y + x) * pp + (_SQRT2 * y - x) * pm \
        + (1.0 - 2.0 * _SQRT2 * y) / 4.0 * np.eye(4)
    return DensityMatrix(2, rho)


def gsms3(x: float, y: float) -> DensityMatrix:
    """Three-qubit GHZ-symmetric mixed state, parameters (x, y).

    (2 sqrt(3)/3 y + x) P+ + (2 sqrt(3)/3 y - x) P- + (3 - 4 sqrt(3) y)/24 * id.
    Admissible: -1/(4 sqrt(3)) <= y <= sqrt(3)/4, |x| <= (1 + 4 sqrt(3) y)/8.
    """
    if not -1.0 / (4.0 * _SQRT3) - 1e-12 <= y <= _SQRT3 / 4.0 + 1e-12:
        raise ParameterError(f"y = {y!r} outside [-1/(4 sqrt3), sqrt3/4]")
    if abs(x) > (1.0 + 4.0 * _SQRT3 * y) / 8.0 + 1e-12:
        raise ParameterError(f"(x, y) = ({x!r}, {y!r}) leaves the admissible triangle")
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
    if abs(x) > 0.5 + 1e-12:
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

def apply_local_unitaries(rho: DensityMatrix, us: list[LocalUnitary]) -> DensityMatrix:
    """(U_1 x ... x U_N) rho (U_1 x ... x U_N)^dagger."""
    if len(us) != rho.n_qubits:
        raise ParameterError(
            f"need {rho.n_qubits} local unitaries, got {len(us)}")
    big = np.array([[1.0 + 0j]])
    for u in us:
        if not isinstance(u, LocalUnitary):
            u = LocalUnitary(u)
        big = np.kron(big, u.matrix)
    return DensityMatrix(rho.n_qubits, big @ rho.entries @ big.conj().T)


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


def fidelity_pure(rho: DensityMatrix, psi: PureState) -> float:
    """<psi| rho |psi>."""
    if rho.n_qubits != psi.n_qubits:
        raise ParameterError("qubit counts differ")
    return float(np.vdot(psi.amplitudes, rho.entries @ psi.amplitudes).real)


def visibility_from_purity(p: float) -> float:
    """Invert P = (1 + 7 v^2)/8 for the 3-qubit Werner-like family."""
    if not 0.125 - 1e-12 <= p <= 1.0 + 1e-12:
        raise ParameterError(f"purity must be in [1/8, 1], got {p!r}")
    return math.sqrt(max(0.0, (8.0 * p - 1.0) / 7.0))


# ------------------------------------------------------------------ sampling

def random_bloch_vector(rng: np.random.Generator) -> np.ndarray:
    """Uniform direction on the unit sphere (normalized normal triple)."""
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def haar_unitary(rng: np.random.Generator) -> LocalUnitary:
    """Haar-distributed U(2) element via QR of a complex Ginibre matrix."""
    z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / _SQRT2
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return LocalUnitary(q * (d / np.abs(d)))


# ------------------------------------------------------------------ file IO

# 17 significant digits round-trips any double exactly
_FLOAT_SPEC = ".17g"
# values per %-formatting pass in write_float_lines: its tuple and text stay
# small, whatever the length of the array
_LINES_PER_PASS = 4096


def format_float(x: float) -> str:
    """The package's one text form of a float in written files."""
    return format(float(x), _FLOAT_SPEC)


def write_float_lines(fh, values: np.ndarray) -> None:
    """Write each value in the text of `format_float`, one per line, to fh.

    Formats fixed slices of values in one `%` pass each, which is faster
    than a call per value and holds one slice's text at a time.
    """
    line = "%" + _FLOAT_SPEC + "\n"
    for lo in range(0, len(values), _LINES_PER_PASS):
        chunk = values[lo:lo + _LINES_PER_PASS].tolist()
        fh.write(line * len(chunk) % tuple(chunk))


def read_json_object(path) -> dict:
    """Top-level JSON object of a file; ParseError when it is not one."""
    path = Path(path)
    if not path.is_file():
        raise MissingDataError(f"no such file: {path}")
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg}", line=exc.lineno) from None
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return obj


def json_field(obj: dict, key: str, convert, path, default=None):
    """convert(obj[key]), or `default` when the key is absent and one is given.

    Raises ParseError for a missing key without default and for a value
    `convert` rejects.
    """
    if key not in obj:
        if default is None:
            raise ParseError(f"{path}: missing {key!r}")
        return default
    try:
        return convert(obj[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: bad {key!r}: {exc}") from None


def _complex_array(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def save_density_matrix(rho: DensityMatrix, path) -> None:
    rows = ",\n    ".join(
        "[%s, %s]" % (format_float(z.real), format_float(z.imag))
        for z in rho.entries.ravel())
    text = '{\n  "n_qubits": %d,\n  "entries": [\n    %s\n  ]\n}\n' % (rho.n_qubits, rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def save_pure_state(psi: PureState, path) -> None:
    rows = ",\n    ".join(
        "[%s, %s]" % (format_float(z.real), format_float(z.imag))
        for z in psi.amplitudes)
    text = '{\n  "n_qubits": %d,\n  "amplitudes": [\n    %s\n  ]\n}\n' % (psi.n_qubits, rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_state(path):
    """Load either a DensityMatrix or a PureState JSON file."""
    obj = read_json_object(path)
    n = json_field(obj, "n_qubits", int, path)
    if "entries" in obj:
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
