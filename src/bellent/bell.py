"""Bell inequalities, relabeling orbits, and behaviors of quantum states.

Scenario scope is N parties (2 or 3), two settings per party, two outcomes.
A behavior is the table P(r|S) over joint settings S and outcomes r; a Bell
functional is a real coefficient table of the same shape with an LHV bound,
and its normalized value I = sum(mu * P) / bound flags nonlocality at I > 1.

Behaviors are arrays, never objects: `pauli_tensor` converts a state once,
`batch_i_max` turns batches of Bloch directions into normalized violation
strengths.  A quantum behavior is no-signalling, so its 4^N table entries
are fixed by 3^N full and marginal correlators; `correlators` computes
those, one party at a time with the sample axis innermost, as
`_rng.bloch_directions` lays the directions out, and the fixed matrix
`feature_map(N)` turns them into tables.  `batch_behaviors` is that
product, and each `InequalitySet` carries its functionals in the same
correlator basis (`c_matrix`), so `batch_i_max` never builds a table.  When
no row of the set reads a marginal feature, as in every bundled set,
`product_rows`, called once per estimate, keeps its 2^N full-correlator
columns, and `batch_i_max`, given rows that wide, builds only the 2^N full
correlators (8 of 27 at N=3), in about half the multiply-adds.  Tables
from counts need not be no-signalling; they are reduced as tables
(`w_matrix`).  Every Bell value, in either basis, comes from one reduction,
`_block_max`, which runs in fixed `_SUB_BLOCK`-column products: a sample's
or a block's value has the same bits however its batch was cut.  It takes
a set's rows `_ROW_TILE` at a time, the last tile short, so its product
does not grow with the set.  `i_max` copies behaviors given as rows into
its columns; `batch_i_max` reduces the buffer that `correlators` builds the
features in, with no copy.  The kernel's intermediates live in the caller's
`Workspace`, the one that `_rng.bloch_directions` draws the directions
into; `nlfrac` hands it one `_SUB_BLOCK` piece at a time.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._rng import Workspace
from .errors import MissingDataError, ParameterError, ParseError
from .files import read_text
from .qstate import DensityMatrix

# Columns of every Bell-value product (_block_max).  BLAS picks its kernel, and
# with it the summation order, by the shape of a product, so a fixed column
# count makes each column's value independent of the others.  batch_i_max
# also builds correlators in sub-blocks of this many samples, which keeps
# their intermediates (at N=3, 0.44 KiB a sample, 1.1 KiB with marginals)
# cache-sized.  Its (rows, 2^N) product has the bits of the zero-filled
# (rows, 3^N) one on the tested BLAS (OpenBLAS 0.3.31, x86-64), as
# test_batch_i_max_builds_marginals_only_for_a_set_that_reads_them checks.
_SUB_BLOCK = 2048
# Most rows of one product: a larger set is reduced in tiles of this many and
# one of the rows left, so its product stays (256, _SUB_BLOCK), 4 MiB.
_ROW_TILE = 256

PAULI = np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)


@dataclass
class BellInequality:
    """Coefficient table mu with an LHV bound, indexed [S_1..S_N, r_1..r_N]."""

    n_parties: int
    coefficients: np.ndarray
    lhv_bound: float
    name: str = ""

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if c.shape != (2,) * (2 * self.n_parties):
            raise ParameterError(f"coefficient shape {c.shape} wrong for {self.n_parties} parties")
        if not 0 < self.lhv_bound < math.inf:
            raise ParameterError(f"LHV bound must be positive and finite, got {self.lhv_bound!r}")
        with np.errstate(over="ignore"):  # the orbit holds mu / bound
            if not np.all(np.isfinite(c / self.lhv_bound)):
                raise ParameterError("coefficients divided by the LHV bound must be finite")
        if not np.any(c):
            raise ParameterError("inequality has no nonzero coefficient")
        c.setflags(write=False)
        self.coefficients = c


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


@dataclass(frozen=True, eq=False)
class InequalitySet:
    """Deduplicated relabeling orbit as coefficient rows, each at LHV bound 1.

    Immutable after construction: a frozen dataclass over read-only arrays,
    so an instance can be shared by any number of callers.  Two sets compare
    equal only if they are the same object; `digest()` compares contents.
    `w_matrix` is the (n_ineqs, 4^N) stack of
    flattened coefficient tables, for behaviors given as tables;
    `c_matrix` = w_matrix @ feature_map(N).T is the (n_ineqs, 3^N) same set on
    the correlator features of `correlators`, for quantum behaviors.  Its
    column 0 holds each row's constant term a_k, the row's value on white
    noise, which is below 1 in every set.
    """

    n_parties: int
    w_matrix: np.ndarray
    tag: str
    c_matrix: np.ndarray = field(init=False)

    def __post_init__(self):
        w = np.ascontiguousarray(self.w_matrix, dtype=float)
        if w.ndim != 2 or not len(w) or w.shape[1] != 4 ** self.n_parties:
            raise ParameterError(f"bad inequality rows {w.shape} for {self.n_parties} parties")
        c = w @ feature_map(self.n_parties).T
        # white noise is local: a row it reaches (constant term a_k >= 1) is
        # invalid, or no no-signalling behavior violates it
        if not np.all(c[:, 0] < 1.0):
            raise ParameterError(f"inequality set {self.tag!r} has a row that white noise "
                                 "reaches (constant term >= 1)")
        w.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "w_matrix", w)
        object.__setattr__(self, "c_matrix", c)

    def __len__(self) -> int:
        return len(self.w_matrix)

    def replay_rows(self) -> np.ndarray:
        """`c_matrix` with its constant column a_k zeroed and each row divided by
        1 - a_k (`c_matrix` itself if every a_k is 0): white noise at visibility v
        scales the rest by v, so a_k + v b_k > 1 exactly when the replay row is > 1/v."""
        a = self.c_matrix[:, 0]
        if not np.any(a):
            return self.c_matrix
        rows = self.c_matrix / (1.0 - a)[:, None]
        rows[:, 0] = 0.0
        rows.setflags(write=False)
        return rows

    def digest(self) -> str:
        """SHA-256 over the sorted rows, rounded to 1e-9."""
        rows = np.round(self.w_matrix, 9) + 0.0  # kill -0.0
        h = hashlib.sha256()
        for k in sorted(r.tobytes() for r in rows):
            h.update(k)
        return h.hexdigest()


def _first_distinct(rows: np.ndarray) -> np.ndarray:
    """The rows that differ from every earlier row once rounded to 1e-9, as in digest()."""
    keys = (np.round(rows, 9) + 0.0).tobytes()  # + 0.0 kills -0.0
    width = rows.shape[1] * rows.itemsize
    first = {}
    for g in range(len(rows)):
        first.setdefault(keys[g * width:(g + 1) * width], g)
    return rows[list(first.values())]


def expand_relabelings(ineqs, tag: str = "") -> InequalitySet:
    """Orbit under party permutations x input swaps x per-input outcome flips.

    Each distinct row (rounded to 1e-9) is kept as its first relabeling
    makes it, with relabelings ordered perm-major, outflip-minor.  Relabeling
    (perm, inswap, outflip) permutes, then swaps, then flips, so the three
    stages, applied in turn to the rows the previous stage kept, keep the
    same rows in the same order as one pass over every relabeling.  The
    Svetlichny orbit takes 6 + 8 + 256 candidate rows this way, not 3072.
    """
    if isinstance(ineqs, BellInequality):
        ineqs = [ineqs]
    if not ineqs:
        raise ParameterError("no inequalities to expand")
    n = ineqs[0].n_parties
    if any(q.n_parties != n for q in ineqs):
        raise ParameterError("mixed party counts in one set")
    flips = list(itertools.product((0, 1), repeat=2))
    same, unswapped, unflipped = [tuple(range(n))], [(0,) * n], [((0, 0),) * n]
    stages = (
        _relabel_index(n, list(itertools.permutations(range(n))), unswapped, unflipped),
        _relabel_index(n, same, list(itertools.product((0, 1), repeat=n)), unflipped),
        _relabel_index(n, same, unswapped, list(itertools.product(flips, repeat=n))),
    )
    orbits = []
    for base in ineqs:
        rows = (base.coefficients / base.lhv_bound).reshape(1, -1)
        for src in stages:
            rows = _first_distinct(rows[:, src].reshape(-1, src.shape[1]))
        orbits.append(rows)
    if not tag:
        tag = "+".join(sorted({q.name or "ineq" for q in ineqs}))
    return InequalitySet(n, _first_distinct(np.concatenate(orbits)), tag)


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


def correlators(lam: np.ndarray, dirs: np.ndarray, ws: Workspace | None = None,
                marginals: bool = True) -> np.ndarray:
    """Correlator features of a batch of settings, shape (B, 3^N), or with
    marginals False the 2^N full correlators alone, (B, 2^N) in feature order.

    Feature c (digits as in `feature_map`) of sample b is lam contracted
    with, per party i, (1, 0, 0, 0) for c_i = 0 and (0, dirs[b, i, c_i - 1])
    otherwise.  Parties are contracted one at a time, each as three
    multiply-adds over its Bloch axis, with samples on the innermost axis:
    no BLAS call, so a sample's bits do not depend on the batch size.  The
    directions are read in place, as the sample-innermost rows that
    `_rng.bloch_directions` writes.  With marginals False only the full
    correlators (every digit >= 1) are built, from lam's Bloch block
    lam[1:, ..., 1:] with two branches a party instead of three; they have
    the bits of the full build.  The result is the transpose of the first B
    columns of `_feature_buffer`, in `ws` when one is given (each party's
    `term` goes to its spent draws buffer), which `batch_i_max` multiplies
    as it stands; its columns past B hold what an earlier use left.
    """
    n = lam.ndim
    b = dirs.shape[0]
    if ws is None:
        ws = Workspace()
    # u[i, s, k] is the (B,) row of component k of party i's direction s
    u = np.moveaxis(dirs, 0, -1)
    # the first lam index and feature digit of each party that enter: 0, or
    # 1 to leave out the identity (lam index 0, digit 0)
    skip = 0 if marginals else 1
    first = 1 - skip  # index of the x component on a party's lam axis
    # t: digits of the parties done, then lam indices of the rest, then samples;
    # parties alternate between two output buffers and share one product
    t = lam[(slice(skip, None),) * n + (None,)]
    for i in range(n):
        at = (slice(None),) * i  # the axes of the parties done
        if i < n - 1:
            shape = (3 - skip,) * (i + 1) + (4 - skip,) * (n - 1 - i) + (b,)
            out = ws.array(f"party{i % 2}", shape)
        else:
            block = _feature_buffer(ws, n, b, marginals)
            out = block.reshape((3 - skip,) * n + (-1,))[..., :b]
        if marginals:
            out[at + (0,)] = t[at + (0,)]
        bloch = out[at + (slice(first, None),)]
        term = ws.array("draws", bloch.shape)
        rows = (2,) + (1,) * (n - 1 - i) + (b,)
        np.multiply(u[i, :, 0].reshape(rows), t[at + (None, first)], out=bloch)
        bloch += np.multiply(u[i, :, 1].reshape(rows), t[at + (None, first + 1)], out=term)
        bloch += np.multiply(u[i, :, 2].reshape(rows), t[at + (None, first + 2)], out=term)
        t = out
    return block[:, :b].T


def _feature_buffer(ws: Workspace, n: int, b: int, marginals: bool) -> np.ndarray:
    """The C-contiguous (3^N, max(b, `_SUB_BLOCK`)) array in ws, or (2^N, ...)
    with marginals False, that `correlators` writes b samples' features into:
    the last party's output buffer, as wide as `i_max`'s products."""
    return ws.array(f"party{(n - 1) % 2}", ((3 if marginals else 2) ** n, max(b, _SUB_BLOCK)))


@functools.cache
def _marginal_features(n: int) -> np.ndarray:
    """Read-only mask of the marginal features: those with a digit 0, all
    3^N - 2^N features but the full correlators."""
    c = np.arange(3 ** n)
    mask = np.any([c // 3 ** i % 3 == 0 for i in range(n)], axis=0)
    mask.setflags(write=False)
    return mask


def batch_behaviors(lam: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Tables P(r|S) of one state's behaviors at a batch of settings.

    dirs has shape (B, N, 2, 3); the result has shape (B,) + (2,)*(2N) in the
    [S_1..S_N, r_1..r_N] layout of `BellInequality.coefficients`.
    """
    n = lam.ndim
    return (correlators(lam, dirs) @ feature_map(n)).reshape((-1,) + (2,) * (2 * n))


def i_max(x: np.ndarray, coeffs: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
    """Max over the rows of coeffs of coeffs @ x[b], for each row b of x: shape (B,).

    x holds behaviors as rows, in the basis of coeffs: tables with
    `w_matrix`, correlator features with `c_matrix`.  Each run of
    `_SUB_BLOCK` rows is copied into the columns of one fixed-size buffer,
    `ws.array("columns")` (columns past a short last run are left over and
    dropped), and reduced by `_block_max`, so every product has the same
    columns and a row's value has the same bits whatever rows share its
    batch.  The buffer and the product live in `ws`.  `batch_i_max`
    reduces its features in the same products, without the copy.
    """
    if ws is None:
        ws = Workspace()
    out = np.empty(x.shape[0])
    buf = ws.array("columns", (coeffs.shape[1], _SUB_BLOCK))
    for lo in range(0, x.shape[0], _SUB_BLOCK):
        k = min(_SUB_BLOCK, x.shape[0] - lo)
        buf[:, :k] = x[lo:lo + k].T
        _block_max(coeffs, buf, out[lo:lo + k], ws)
    return out


def _block_max(coeffs: np.ndarray, columns: np.ndarray, out: np.ndarray,
               ws: Workspace) -> None:
    """out[j] = the max over the rows of coeffs of row @ columns[:, j], for
    the first len(out) of the `_SUB_BLOCK` columns.

    The rows are taken `_ROW_TILE` at a time, the last tile short (a lone
    last row with the row before it, unread, as numpy sends a one-row
    product to gemv, whose sums are not gemm's), so the product, in ws's
    spent draws buffer, is at most (`_ROW_TILE`, `_SUB_BLOCK`).  A set's
    tiles are fixed and every product has all `_SUB_BLOCK` columns, so a
    value has the same bits in any batch, and those of zero-padded tiles.
    """
    k = len(out)
    prod = ws.array("draws", (min(len(coeffs), _ROW_TILE), _SUB_BLOCK))
    tile_max = ws.array("tile max", (_SUB_BLOCK,))
    for lo in range(0, len(coeffs), _ROW_TILE):
        lone = 1 if lo and lo == len(coeffs) - 1 else 0
        tile = coeffs[lo - lone:lo + _ROW_TILE]
        used = np.matmul(tile, columns, out=prod[:len(tile)])[lone:, :k]
        if lo == 0:
            np.max(used, axis=0, out=out)
        else:
            np.maximum(out, np.max(used, axis=0, out=tile_max[:k]), out=out)


def product_rows(c_matrix: np.ndarray) -> np.ndarray:
    """The rows that `batch_i_max` multiplies for c_matrix, an
    `InequalitySet.c_matrix` or its `replay_rows()`: its 2^N full-correlator
    columns when no marginal column is nonzero, else c_matrix as given."""
    is_marginal = _marginal_features(round(math.log(c_matrix.shape[1], 3)))
    return c_matrix if np.any(c_matrix[:, is_marginal]) else c_matrix[:, ~is_marginal]


def batch_i_max(lam: np.ndarray, dirs: np.ndarray, rows: np.ndarray,
                ws: Workspace | None = None) -> np.ndarray:
    """Max normalized functional value per settings sample, shape (B,).

    rows has 3^N columns, the correlator features (an `InequalitySet.c_matrix`
    or its `replay_rows()`), or 2^N, the full correlators alone, as
    `product_rows` leaves a set that reads no marginal feature; only the
    features that rows reads are built.  Correlators are built and reduced in
    sub-blocks of `_SUB_BLOCK` samples, in `ws` when one is given, each in the
    buffer that `correlators` fills, the columns of `i_max`'s products
    (`_block_max`) as it stands.  A value has the bits that `i_max` gives on
    the full `correlators` with either form of the rows.
    """
    if ws is None:
        ws = Workspace()
    marginals = rows.shape[1] != 2 ** lam.ndim
    out = np.empty(dirs.shape[0])
    for lo in range(0, dirs.shape[0], _SUB_BLOCK):
        d = dirs[lo:lo + _SUB_BLOCK]
        correlators(lam, d, ws, marginals)
        _block_max(rows, _feature_buffer(ws, lam.ndim, d.shape[0], marginals),
                   out[lo:lo + d.shape[0]], ws)
    return out


# ------------------------------------------------------------- file format

def parse_inequality(text: str, name: str = "") -> BellInequality:
    """Parse the line-based inequality format; errors carry line numbers."""
    header = [("bellineq", None), ("parties", None), ("inputs", "2"), ("outputs", "2"),
              ("bound", None)]
    pos = 0
    n = bound = coeffs = None
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
                if not 0 < bound < math.inf:
                    raise ParseError(f"bound must be positive and finite, got {parts[1]}",
                                     line=lineno)
                coeffs = np.zeros((2,) * (2 * n))
            pos += 1
            continue
        if parts[0] != "c":
            raise ParseError(f"expected coefficient line, got {parts[0]!r}", line=lineno)
        if len(parts) != 4:
            raise ParseError("coefficient line needs 'c <settings> <outcomes> <value>'",
                             line=lineno)
        s_str, r_str, v_str = parts[1], parts[2], parts[3]
        bits = s_str + r_str
        if len(s_str) != n or len(r_str) != n or bits.strip("01"):
            raise ParseError(f"index arity must be {n} bits of 0/1", line=lineno)
        idx = tuple(map(int, bits))
        if idx in seen:
            raise ParseError(f"duplicate coefficient for {s_str} {r_str}", line=lineno)
        seen.add(idx)
        try:
            v = float(v_str)
        except ValueError:
            raise ParseError(f"bad coefficient value {v_str!r}", line=lineno) from None
        if not math.isfinite(v):
            raise ParseError(f"coefficient value must be finite, got {v_str!r}", line=lineno)
        coeffs[idx] = v
    if pos < len(header):
        raise ParseError(f"truncated file: missing '{header[pos][0]}' line")
    return BellInequality(n, coeffs, bound, name)


def load_inequality_file(path) -> BellInequality:
    path = Path(path)
    text = read_text(path, "inequality file")
    try:
        return parse_inequality(text, name=path.stem)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc.args[0]}", line=exc.line) from None
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from None


def load_inequality_dir(path) -> InequalitySet:
    """Orbit of the *.bellineq files directly in a directory, read in name order."""
    path = Path(path)
    files = sorted(path.glob("*.bellineq")) if path.is_dir() else []
    if not files:
        raise MissingDataError(f"no .bellineq files in {path}")
    ineqs = [load_inequality_file(f) for f in files]
    return expand_relabelings(ineqs, tag=f"dir:{path.name}")


_BUNDLED = ("chsh", "mermin", "svetlichny")


def bundled_inequality(name: str) -> BellInequality:
    """Bundled inequality, parsed from the packaged .bellineq file."""
    if name not in _BUNDLED:
        raise MissingDataError(f"no bundled inequality {name!r}")
    from importlib import resources
    ref = resources.files("bellent").joinpath(f"data/{name}.bellineq")
    try:
        text = ref.read_text(encoding="utf-8")
    except OSError:
        raise MissingDataError(f"bundled file data/{name}.bellineq missing") from None
    return parse_inequality(text, name=name)


def chsh() -> BellInequality:
    """E(00) + E(01) + E(10) - E(11), LHV bound 2."""
    return bundled_inequality("chsh")


def mermin() -> BellInequality:
    """E(000) - E(011) - E(101) - E(110), LHV bound 2."""
    return bundled_inequality("mermin")


def svetlichny() -> BellInequality:
    """Eight-correlator hybrid-model functional, LHV bound 4."""
    return bundled_inequality("svetlichny")


def default_set(n_parties: int) -> InequalitySet:
    """Default estimation set: CHSH orbit (N=2), Svetlichny orbit (N=3).

    The three-party set is a strict subset of the known facet classes, so
    estimates built on it are lower bounds on the true nonlocal fraction;
    the tag says so.  Each call parses the bundled file and expands its
    orbit anew (about 1 ms at N=3).
    """
    if n_parties == 2:
        return expand_relabelings(chsh(), tag="chsh")
    if n_parties == 3:
        return expand_relabelings(svetlichny(), tag="svetlichny:lower-bound")
    raise ParameterError(f"no default set for {n_parties} parties")
