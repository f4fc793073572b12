"""Bell inequalities, relabeling orbits, and behaviors of quantum states.

Scenario scope is N parties (2 or 3), two settings per party, two outcomes.
A behavior is the table P(r|S) over joint settings S and outcomes r; a Bell
functional is a real coefficient table of the same shape with an LHV bound,
and its normalized value I = sum(mu * P) / bound flags nonlocality at I > 1.

The sampling hot path avoids object construction: `pauli_tensor` converts a
state once, `batch_i_max` turns batches of Bloch directions into normalized
violation strengths.  A quantum behavior is no-signalling, so its 4^N table
entries are fixed by 3^N full and marginal correlators; `correlators`
computes those, one party at a time with the sample axis innermost, and the
fixed matrix `feature_map(N)` turns them into tables.  `batch_behaviors` is
that product, and each `InequalitySet` carries its functionals in the same
correlator basis (`c_matrix`), so `batch_i_max` never builds a table.  Every
Bell value, in either basis, comes from one reduction, `i_max`, which runs in
fixed `_SUB_BLOCK`-column products: a sample's or a block's value has the
same bits however its batch was cut.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import MissingDataError, ParameterError, ParseError
from .qstate import DensityMatrix

# Columns of every Bell-value product in i_max.  BLAS picks its kernel, and
# with it the summation order, by the shape of a product, so a fixed column
# count makes each column's value independent of the others.  batch_i_max
# also builds correlators in sub-blocks of this many samples, which keeps
# their intermediates (at N=3, about 1 KiB a sample) cache-sized.
_SUB_BLOCK = 2048


class Workspace:
    """Named float64 arrays that the sampling kernel reuses from call to call.

    A run that passes one workspace to every `batch_i_max` call allocates its
    intermediates once, instead of once per sub-block, so its hot loop takes
    no page faults and its time does not depend on how the allocator hands
    memory back and forth with the kernel.  An array is a view into a flat
    buffer that only grows, so a shorter block, or the other party count,
    reuses the buffer of a longer one.  Results built in a workspace are
    views into it, valid until its next use; a workspace serves one thread
    at a time.
    """

    def __init__(self):
        self._flat = {}

    def array(self, name: str, shape) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.zeros(size)
        return flat[:size].reshape(shape)


# Relabelings gathered at once in expand_relabelings: at N=3 a block's gather
# index and candidate tables take 64 KiB each, for a 3072-row orbit map.
_ORBIT_BLOCK = 128

PAULI = np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)


@dataclass
class MeasurementSettings:
    """Two unit Bloch directions per party: directions[party, setting] in R^3."""

    n_parties: int
    directions: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.directions, dtype=float)
        if d.shape != (self.n_parties, 2, 3):
            raise ParameterError(f"directions shape {d.shape}, expected {(self.n_parties, 2, 3)}")
        norms = np.linalg.norm(d, axis=-1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ParameterError("measurement directions must be unit vectors within 1e-12")
        d.setflags(write=False)
        self.directions = d


@dataclass
class Behavior:
    """Joint conditional probability table, indexed [S_1..S_N, r_1..r_N]."""

    n_parties: int
    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.shape != (2,) * (2 * self.n_parties):
            raise ParameterError(f"table shape {t.shape} wrong for {self.n_parties} parties")
        t.setflags(write=False)
        self.table = t

    def validate(self, ns_tol: float = 1e-9) -> None:
        """Check nonnegativity, normalization, and no-signaling."""
        n = self.n_parties
        if np.min(self.table) < -1e-12:
            raise ParameterError(f"negative probability {np.min(self.table):.3e}")
        out_axes = tuple(range(n, 2 * n))
        sums = self.table.sum(axis=out_axes)
        if np.max(np.abs(sums - 1.0)) > 1e-10:
            raise ParameterError("probabilities do not sum to 1 for some setting")
        for held in range(1, n):
            for subset in itertools.combinations(range(n), held):
                drop = [i for i in range(n) if i not in subset]
                marg = self.table.sum(axis=tuple(n + i for i in drop))
                # marg still carries all settings axes; require independence
                # from the dropped parties' choices
                for i in drop:
                    a = np.take(marg, 0, axis=i)
                    b = np.take(marg, 1, axis=i)
                    if np.max(np.abs(a - b)) > ns_tol:
                        raise ParameterError(
                            f"signaling above {ns_tol:g} from party {i} to subset {subset}")

    def correlator(self, settings) -> float:
        """Full N-party correlation coefficient E(S)."""
        n = self.n_parties
        sub = self.table[tuple(settings)]
        signs = np.ones((2,) * n)
        for i in range(n):
            idx = [None] * n
            idx[i] = slice(None)
            signs = signs * np.array([1.0, -1.0])[tuple(idx)]
        return float((sub * signs).sum())


@dataclass
class BellInequality:
    """Coefficient table mu with an LHV bound; same index layout as Behavior."""

    n_parties: int
    coefficients: np.ndarray
    lhv_bound: float
    name: str = ""

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if c.shape != (2,) * (2 * self.n_parties):
            raise ParameterError(f"coefficient shape {c.shape} wrong for {self.n_parties} parties")
        if not np.any(c):
            raise ParameterError("inequality has no nonzero coefficient")
        if not self.lhv_bound > 0:
            raise ParameterError(f"LHV bound must be positive, got {self.lhv_bound!r}")
        c.setflags(write=False)
        self.coefficients = c

    def normalized(self) -> "BellInequality":
        if self.lhv_bound == 1.0:
            return self
        return BellInequality(self.n_parties, self.coefficients / self.lhv_bound, 1.0, self.name)

    def key(self) -> bytes:
        """Dedup key: bound-1 coefficients rounded to 1e-9, fixed index order."""
        w = np.round(self.coefficients / self.lhv_bound, 9) + 0.0  # kill -0.0
        return w.tobytes()


def evaluate(ineq: BellInequality, b: Behavior) -> float:
    """Normalized functional value I = sum(mu * P) / C_LHV; violation iff > 1."""
    if ineq.n_parties != b.n_parties:
        raise ParameterError("party counts differ")
    return float(np.sum(ineq.coefficients * b.table)) / ineq.lhv_bound


# ------------------------------------------------------------- base classes

def _full_correlator_ineq(n: int, signs: dict, bound: float, name: str) -> BellInequality:
    mu = np.zeros((2,) * (2 * n))
    parity = np.ones((2,) * n)
    for r in itertools.product((0, 1), repeat=n):
        parity[r] = -1.0 if sum(r) % 2 else 1.0
    for s, sign in signs.items():
        mu[s] = sign * parity
    return BellInequality(n, mu, bound, name)


def chsh() -> BellInequality:
    """E(00) + E(01) + E(10) - E(11), LHV bound 2."""
    return _full_correlator_ineq(
        2, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1}, 2.0, "chsh")


def mermin() -> BellInequality:
    """E(000) - E(011) - E(101) - E(110), LHV bound 2."""
    return _full_correlator_ineq(
        3, {(0, 0, 0): 1, (0, 1, 1): -1, (1, 0, 1): -1, (1, 1, 0): -1}, 2.0, "mermin")


def svetlichny() -> BellInequality:
    """Eight-correlator hybrid-model functional, LHV bound 4."""
    return _full_correlator_ineq(
        3,
        {(0, 0, 0): 1, (0, 1, 1): -1, (1, 0, 1): -1, (1, 1, 0): -1,
         (1, 1, 1): 1, (1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 1): -1},
        4.0, "svetlichny")


# ------------------------------------------------------------- relabelings

def _relabel_index(n: int, perms, inswaps, outflips) -> np.ndarray:
    """Gather map src[g, e] of relabelings g = perms x inswaps x outflips.

    Entry e of the relabeled flat table is entry src[g, e] of the original.
    New party i takes over old party perm[i]; inswap[i] xors its setting;
    outflip[i][s] xors its outcome conditional on the new setting s.  The
    map is built from bit arithmetic on the flat index, whose bit 2N-1-i is
    party i's setting and bit N-1-i its outcome.
    """
    dt = np.min_scalar_type(4 ** n - 1)
    # axes (perm, inswap, outflip, party, .) broadcast to src[perm, inswap, outflip, e]
    perms = np.asarray(perms, dtype=dt).reshape(-1, 1, 1, n, 1)
    inswaps = np.asarray(inswaps, dtype=dt).reshape(1, -1, 1, n, 1)
    outflips = np.asarray(outflips, dtype=dt).reshape(1, 1, -1, n, 2)
    e = np.arange(4 ** n, dtype=dt)
    src = np.zeros((perms.shape[0], inswaps.shape[1], outflips.shape[2], e.size), dt)
    for i in range(n):
        s = (e >> (2 * n - 1 - i)) & 1
        r = (e >> (n - 1 - i)) & 1
        p = perms[..., i, :]
        flip = np.where(s, outflips[..., i, 1:], outflips[..., i, :1])
        src |= (s ^ inswaps[..., i, :]) << (2 * n - 1 - p)
        src |= (r ^ flip) << (n - 1 - p)
    return src.reshape(-1, e.size)


def relabel_behavior(b: Behavior, perm, inswap, outflip) -> Behavior:
    """Apply the same index transformation to a behavior table."""
    src = _relabel_index(b.n_parties, perm, inswap, outflip)[0]
    return Behavior(b.n_parties, b.table.ravel()[src].reshape(b.table.shape))


@dataclass
class InequalitySet:
    """Deduplicated relabeling orbit, every member normalized to bound 1.

    Immutable after construction.  `w_matrix` is the (n_ineqs, 4^N) stack of
    flattened coefficient tables, for behaviors given as tables;
    `c_matrix` = w_matrix @ feature_map(N).T is the (n_ineqs, 3^N) same set on
    the correlator features of `correlators`, for quantum behaviors.
    """

    n_parties: int
    inequalities: list
    tag: str
    w_matrix: np.ndarray = field(init=False)
    c_matrix: np.ndarray = field(init=False)

    def __post_init__(self):
        if not self.inequalities:
            raise ParameterError("inequality set is empty")
        w = np.stack([q.coefficients.ravel() for q in self.inequalities])
        c = w @ feature_map(self.n_parties).T
        w.setflags(write=False)
        c.setflags(write=False)
        self.w_matrix, self.c_matrix = w, c

    def __len__(self) -> int:
        return len(self.inequalities)

    def digest(self) -> str:
        """SHA-256 over the sorted member dedup keys."""
        h = hashlib.sha256()
        for k in sorted(q.key() for q in self.inequalities):
            h.update(k)
        return h.hexdigest()


def expand_relabelings(ineqs, tag: str = "") -> InequalitySet:
    """Orbit under party permutations x input swaps x per-input outcome flips."""
    if isinstance(ineqs, BellInequality):
        ineqs = [ineqs]
    if not ineqs:
        raise ParameterError("no inequalities to expand")
    n = ineqs[0].n_parties
    if any(q.n_parties != n for q in ineqs):
        raise ParameterError("mixed party counts in one set")
    flips = list(itertools.product((0, 1), repeat=2))
    src = _relabel_index(n, list(itertools.permutations(range(n))),
                         list(itertools.product((0, 1), repeat=n)),
                         list(itertools.product(flips, repeat=n)))
    shape = ineqs[0].coefficients.shape
    seen = {}
    for base in ineqs:
        mu = base.normalized().coefficients.ravel()
        # key() of each candidate, i.e. of a bound-1 table, is its rounded
        # entries; rounding commutes with the gather
        rounded = np.round(mu, 9) + 0.0
        width = src.shape[1] * rounded.itemsize
        for lo in range(0, len(src), _ORBIT_BLOCK):
            block = src[lo:lo + _ORBIT_BLOCK]
            keys = rounded[block].tobytes()
            for g in range(len(block)):
                key = keys[g * width:(g + 1) * width]
                if key not in seen:
                    seen[key] = BellInequality(n, mu[block[g]].reshape(shape), 1.0, base.name)
    members = list(seen.values())
    if not tag:
        tag = "+".join(sorted({q.name or "ineq" for q in ineqs}))
    return InequalitySet(n, members, tag)


# ------------------------------------------------------------- evaluation

def pauli_tensor(rho: DensityMatrix) -> np.ndarray:
    """Correlation tensor T[k_1..k_N] = Tr[rho (sigma_k1 x ... x sigma_kN)]."""
    n = rho.n_qubits
    t = rho.entries.reshape([2] * (2 * n))
    # contract each qubit's (row, col) pair with sigma[k, col, row]
    if n == 2:
        lam = np.einsum("abcd,xca,ydb->xy", t, PAULI, PAULI)
    else:
        lam = np.einsum("abcdef,xda,yeb,zfc->xyz", t, PAULI, PAULI, PAULI)
    if np.max(np.abs(lam.imag)) > 1e-10:
        raise ParameterError("correlation tensor has imaginary parts above 1e-10")
    return np.ascontiguousarray(lam.real)


@functools.cache
def feature_map(n: int) -> np.ndarray:
    """Read-only (3^N, 4^N) map from correlator features to behavior tables.

    Feature c has base-3 digit c_i per party (party 0 most significant): 0
    for the identity, 1 + s for the Bloch part at setting s.  Table entry e
    has bit 2N-1-i for party i's setting S_i and bit N-1-i for its outcome
    r_i.  P(r|S) = 2^-N sum_c F_c prod_i m_i with m_i = 1 for c_i = 0,
    (-1)^r_i for c_i = 1 + S_i, and 0 otherwise.
    """
    c = np.arange(3 ** n)[:, None]
    e = np.arange(4 ** n)
    m = np.full((3 ** n, 4 ** n), 2.0 ** -n)
    for i in range(n):
        digit = c // 3 ** (n - 1 - i) % 3
        s = e >> (2 * n - 1 - i) & 1
        r = e >> (n - 1 - i) & 1
        m *= np.where(digit == 0, 1.0, np.where(digit == 1 + s, 1.0 - 2.0 * r, 0.0))
    m.setflags(write=False)
    return m


def correlators(lam: np.ndarray, dirs: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
    """Full and marginal correlators of a batch of settings, shape (B, 3^N).

    Feature c (digits as in `feature_map`) of sample b is lam contracted
    with, per party i, (1, 0, 0, 0) for c_i = 0 and (0, dirs[b, i, c_i - 1])
    otherwise.  Parties are contracted one at a time, each as three
    multiply-adds over its Bloch axis, with samples on the innermost axis:
    no BLAS call, so a sample's bits do not depend on the batch size.  The
    result is the transpose of a C-contiguous (3^N, B) array, in `ws` when
    one is given.
    """
    n = lam.ndim
    b = dirs.shape[0]
    if ws is None:
        ws = Workspace()
    # u[i, s, k] is the (B,) row of component k of party i's direction s
    u = ws.array("u", (n, 2, 3, b))
    np.copyto(u, np.moveaxis(dirs, 0, -1))
    # t[c, k, b]: features c of the parties done, lam indices k of the rest;
    # parties alternate between two output buffers and share one product
    t = lam.reshape(1, -1, 1)
    for i in range(n):
        rest = 4 ** (n - 1 - i)
        t = t.reshape(-1, 4, rest, t.shape[-1])
        out = ws.array(f"party{i % 2}", (t.shape[0], 3, rest, b))
        term = ws.array("term", (t.shape[0], 2, rest, b))
        out[:, 0] = t[:, 0]
        bloch = out[:, 1:]
        np.multiply(u[i, :, 0, None], t[:, None, 1], out=bloch)
        bloch += np.multiply(u[i, :, 1, None], t[:, None, 2], out=term)
        bloch += np.multiply(u[i, :, 2, None], t[:, None, 3], out=term)
        t = out
    return t.reshape(3 ** n, b).T


def batch_behaviors(lam: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Behavior tables for a batch of settings.

    dirs has shape (B, N, 2, 3); the result has shape (B,) + (2,)*(2N) in the
    [S_1..S_N, r_1..r_N] layout shared with Behavior.
    """
    n = lam.ndim
    return (correlators(lam, dirs) @ feature_map(n)).reshape((-1,) + (2,) * (2 * n))


def i_max(x: np.ndarray, coeffs: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
    """Max over the rows of coeffs of coeffs @ x[b], for each row b of x: shape (B,).

    x holds behaviors as rows, in the basis of coeffs: tables with
    `w_matrix`, correlator features with `c_matrix`.  Each run of
    `_SUB_BLOCK` rows is copied into the columns of one fixed-size buffer
    (columns past a short last run are left over and dropped), so every
    product has the same shape and a row's value has the same bits whatever
    rows share its batch.  The buffer and the product live in `ws`.
    """
    if ws is None:
        ws = Workspace()
    out = np.empty(x.shape[0])
    buf = ws.array("columns", (coeffs.shape[1], _SUB_BLOCK))
    prod = ws.array("product", (coeffs.shape[0], _SUB_BLOCK))
    for lo in range(0, x.shape[0], _SUB_BLOCK):
        k = min(_SUB_BLOCK, x.shape[0] - lo)
        buf[:, :k] = x[lo:lo + k].T
        np.matmul(coeffs, buf, out=prod)
        np.max(prod[:, :k], axis=0, out=out[lo:lo + k])
    return out


def batch_i_max(lam: np.ndarray, dirs: np.ndarray, c_matrix: np.ndarray,
                ws: Workspace | None = None) -> np.ndarray:
    """Max normalized functional value per settings sample, shape (B,).

    c_matrix is an `InequalitySet.c_matrix`; correlators are built and
    reduced in sub-blocks of `_SUB_BLOCK` samples, in `ws` when one is given.
    """
    if ws is None:
        ws = Workspace()
    out = np.empty(dirs.shape[0])
    for lo in range(0, dirs.shape[0], _SUB_BLOCK):
        d = dirs[lo:lo + _SUB_BLOCK]
        out[lo:lo + d.shape[0]] = i_max(correlators(lam, d, ws), c_matrix, ws)
    return out


def behavior_from_state(rho: DensityMatrix, m: MeasurementSettings) -> Behavior:
    """Projective-measurement behavior of a state at the given settings."""
    if rho.n_qubits != m.n_parties:
        raise ParameterError(
            f"state has {rho.n_qubits} qubits but settings cover {m.n_parties} parties")
    p = batch_behaviors(pauli_tensor(rho), m.directions[None])
    return Behavior(m.n_parties, p[0])


def max_violation(b: Behavior, iset: InequalitySet) -> float:
    """Maximum normalized value over the expanded set."""
    if iset.n_parties != b.n_parties:
        raise ParameterError("party counts differ")
    return float(i_max(b.table.reshape(1, -1), iset.w_matrix)[0])


# ------------------------------------------------------------- CHSH algebra

def correlation_matrix(rho: DensityMatrix) -> np.ndarray:
    """3x3 matrix R_ij = Tr[rho (sigma_i x sigma_j)] of a 2-qubit state."""
    if rho.n_qubits != 2:
        raise ParameterError("correlation_matrix needs a 2-qubit state")
    return pauli_tensor(rho)[1:, 1:].copy()


def chsh_horodecki(r_matrix, a0, a1, b0, b1) -> float:
    """Normalized |a0 . R (b0 + b1) + a1 . R (b0 - b1)| / 2."""
    r = np.asarray(r_matrix, dtype=float)
    a0, a1, b0, b1 = (np.asarray(v, dtype=float) for v in (a0, a1, b0, b1))
    for v in (a0, a1, b0, b1):
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise ParameterError("settings must be unit vectors")
    return abs(a0 @ r @ (b0 + b1) + a1 @ r @ (b0 - b1)) / 2.0


# ------------------------------------------------------------- file format

def serialize_inequality(ineq: BellInequality) -> str:
    """Fixed-order text form; parse(serialize(x)) round-trips exactly."""
    n = ineq.n_parties
    lines = [
        "bellineq 1",
        f"parties {n}",
        "inputs 2",
        "outputs 2",
        f"bound {format(ineq.lhv_bound, '.17g')}",
    ]
    for idx in np.ndindex(*ineq.coefficients.shape):
        v = ineq.coefficients[idx]
        if v != 0.0:
            s = "".join(str(x) for x in idx[:n])
            r = "".join(str(x) for x in idx[n:])
            lines.append(f"c {s} {r} {format(v, '.17g')}")
    return "\n".join(lines) + "\n"


def parse_inequality(text: str, name: str = "") -> BellInequality:
    """Parse the line-based inequality format; errors carry line numbers."""
    header = [("bellineq", None), ("parties", None), ("inputs", "2"), ("outputs", "2"),
              ("bound", None)]
    pos = 0
    n = None
    bound = None
    coeffs = None
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if pos < len(header):
            key, fixed = header[pos]
            if parts[0] != key:
                raise ParseError(f"expected '{key}', got {parts[0]!r}", line=lineno)
            if len(parts) != 2:
                raise ParseError(f"'{key}' takes exactly one value", line=lineno)
            if key == "bellineq" and parts[1] != "1":
                raise ParseError(f"unsupported format version {parts[1]!r}", line=lineno)
            if fixed is not None and parts[1] != fixed:
                raise ParseError(
                    f"unsupported scenario: {key} {parts[1]} (only {key} {fixed})", line=lineno)
            if key == "parties":
                if parts[1] not in ("2", "3"):
                    raise ParseError(f"parties must be 2 or 3, got {parts[1]}", line=lineno)
                n = int(parts[1])
            if key == "bound":
                try:
                    bound = float(parts[1])
                except ValueError:
                    raise ParseError(f"bad bound {parts[1]!r}", line=lineno) from None
                if not bound > 0:
                    raise ParseError(f"bound must be positive, got {parts[1]}", line=lineno)
                coeffs = np.zeros((2,) * (2 * n))
            pos += 1
            continue
        if parts[0] != "c":
            raise ParseError(f"expected coefficient line, got {parts[0]!r}", line=lineno)
        if len(parts) != 4:
            raise ParseError("coefficient line needs 'c <settings> <outcomes> <value>'",
                             line=lineno)
        s_str, r_str, v_str = parts[1], parts[2], parts[3]
        if len(s_str) != n or len(r_str) != n or \
                any(ch not in "01" for ch in s_str + r_str):
            raise ParseError(f"index arity must be {n} bits of 0/1", line=lineno)
        idx = tuple(int(ch) for ch in s_str) + tuple(int(ch) for ch in r_str)
        if idx in seen:
            raise ParseError(f"duplicate coefficient for {s_str} {r_str}", line=lineno)
        seen.add(idx)
        try:
            coeffs[idx] = float(v_str)
        except ValueError:
            raise ParseError(f"bad coefficient value {v_str!r}", line=lineno) from None
    if pos < len(header):
        raise ParseError(f"truncated file: missing '{header[pos][0]}' line")
    return BellInequality(n, coeffs, bound, name)


def load_inequality_file(path) -> BellInequality:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise MissingDataError(f"cannot read inequality file {path}: {exc}") from None
    try:
        return parse_inequality(text, name=path.stem)
    except ParseError as exc:
        raise ParseError(f"{path.name}: {exc}") from None


def load_inequality_dir(path, expand: bool = True):
    """All *.bellineq files under a directory, optionally orbit-expanded."""
    path = Path(path)
    files = sorted(path.glob("*.bellineq")) if path.is_dir() else []
    if not files:
        raise MissingDataError(f"no .bellineq files in {path}")
    ineqs = [load_inequality_file(f) for f in files]
    if not expand:
        return ineqs
    return expand_relabelings(ineqs, tag=f"dir:{path.name}")


_BUNDLED = {"chsh": chsh, "mermin": mermin, "svetlichny": svetlichny}


def bundled_inequality(name: str) -> BellInequality:
    """Bundled fixture, parsed from the packaged .bellineq file."""
    if name not in _BUNDLED:
        raise MissingDataError(f"no bundled inequality {name!r}")
    from importlib import resources
    ref = resources.files("bellent").joinpath(f"data/{name}.bellineq")
    try:
        text = ref.read_text(encoding="utf-8")
    except (FileNotFoundError, OSError):
        raise MissingDataError(f"bundled file data/{name}.bellineq missing") from None
    return parse_inequality(text, name=name)


def default_set(n_parties: int) -> InequalitySet:
    """Default estimation set: CHSH orbit (N=2), Svetlichny orbit (N=3).

    The three-party set is a strict subset of the known facet classes, so
    estimates built on it are lower bounds on the true nonlocal fraction;
    the tag says so.
    """
    if n_parties == 2:
        return expand_relabelings(bundled_inequality("chsh"), tag="chsh")
    if n_parties == 3:
        return expand_relabelings(
            bundled_inequality("svetlichny"), tag="svetlichny:lower-bound")
    raise ParameterError(f"no default set for {n_parties} parties")
