"""Bell inequalities, relabeling orbits, and behaviors of quantum states.

Scenario scope is N parties (2 or 3), two settings per party, two outcomes.
A behavior is the table P(r|S) over joint settings S and outcomes r; a Bell
functional is a real coefficient table of the same shape with an LHV bound,
and its normalized value I = sum(mu * P) / bound flags nonlocality at I > 1.

The sampling hot path avoids object construction: `pauli_tensor` converts a
state once, `batch_i_max` turns batches of Bloch directions into normalized
violation strengths.  Behaviors come from one einsum per batch along a fixed
pairwise contraction path (one constant per party count, so no call searches
for it), whose intermediates hold 4^N doubles per sample; `batch_i_max`
therefore evaluates a chunk in fixed sub-blocks of `_SUB_BLOCK` samples, which
keeps them cache-sized and gives each sample the same bits however a chunk is
cut.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import MissingDataError, ParameterError, ParseError
from .qstate import DensityMatrix

# Pairwise contraction path of batch_behaviors per party count: the path
# np.einsum_path(..., optimize=True) picks, fixed here.  One path does not
# serve both counts: the N=3 path is out of range at N=2, and (0,1),(0,1),(0,1)
# at N=3 forms a party x party outer product.
_BEHAVIOR_EINSUM = {
    2: ("xy,bsrx,btuy->bstru", ["einsum_path", (0, 1), (0, 1)]),
    3: ("xyz,bsrx,btuy,bvwz->bstvruw", ["einsum_path", (0, 1), (0, 2), (0, 1)]),
}

# Samples per batch_behaviors call inside batch_i_max, and the fixed row count
# of its reduction.  At N=3 each contraction intermediate takes 512 bytes a
# sample: 1 MiB for a sub-block, against 8 MiB for a whole nlfrac chunk.
_SUB_BLOCK = 2048

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

    Immutable after construction; `w_matrix` is the (n_ineqs, 4^N) stack of
    flattened coefficient tables used by the batch evaluator.
    """

    n_parties: int
    inequalities: list
    tag: str
    w_matrix: np.ndarray = field(init=False)

    def __post_init__(self):
        if not self.inequalities:
            raise ParameterError("inequality set is empty")
        w = np.stack([q.coefficients.ravel() for q in self.inequalities])
        w.setflags(write=False)
        self.w_matrix = w

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


def _party_factors(dirs: np.ndarray) -> list:
    """Per-party arrays V[b, S, r, k] with V[...,0] = 1, V[b,S,r,1:] = (-1)^r u."""
    n = dirs.shape[1]
    out = []
    for i in range(n):
        v = np.empty(dirs.shape[:1] + (2, 2, 4))
        v[..., 0] = 1.0
        v[:, :, 0, 1:] = dirs[:, i]
        v[:, :, 1, 1:] = -dirs[:, i]
        out.append(v)
    return out


def batch_behaviors(lam: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Behavior tables for a batch of settings.

    dirs has shape (B, N, 2, 3); the result has shape (B,) + (2,)*(2N) in the
    [S_1..S_N, r_1..r_N] layout shared with Behavior.
    """
    n = lam.ndim
    if n not in _BEHAVIOR_EINSUM:
        raise ParameterError(f"unsupported party count {n}")
    spec, path = _BEHAVIOR_EINSUM[n]
    p = np.einsum(spec, lam, *_party_factors(dirs), optimize=path)
    p /= 2 ** n
    return p


def batch_i_max(lam: np.ndarray, dirs: np.ndarray, w_matrix: np.ndarray) -> np.ndarray:
    """Max normalized functional value per settings sample, shape (B,).

    Works in sub-blocks of `_SUB_BLOCK` samples, each copied into one
    `_SUB_BLOCK`-row buffer whose rows past a short last block are dropped:
    BLAS picks its kernel, and with it the summation order, by the row count
    of the product, so a fixed count makes every sample's value independent
    of how its batch was cut.
    """
    out = np.empty(dirs.shape[0])
    flat = np.zeros((_SUB_BLOCK, w_matrix.shape[1]))
    for lo in range(0, dirs.shape[0], _SUB_BLOCK):
        p = batch_behaviors(lam, dirs[lo:lo + _SUB_BLOCK])
        k = p.shape[0]
        flat[:k].reshape(p.shape)[...] = p
        out[lo:lo + k] = (flat @ w_matrix.T)[:k].max(axis=1)
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
    return float((iset.w_matrix @ b.table.ravel()).max())


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
