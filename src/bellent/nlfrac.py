"""Nonlocal fraction p_V: Monte Carlo estimators and the analytic 2-qubit curve.

p_V is the probability that Haar-random local projective measurements on a
state produce a behavior violating at least one inequality of a given set.
Sampling uses counter-addressed RNG substreams keyed by (seed, sample index),
so results are bit-identical for any worker count and the same settings are
replayed for different states under a shared seed.  Samples are drawn and
evaluated one `bell._SUB_BLOCK` piece at a time; each worker takes the next
untaken piece until none is left, in one `_rng.Workspace` borrowed from an
idle list, so what a worker holds is sized by one piece, whatever m is.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _rng
from .bell import _SUB_BLOCK, InequalitySet, batch_i_max, pauli_tensor, product_rows
from .errors import ParameterError, ParseError
from .files import json_field, read_json_object, read_table, sidecar_path, write_json, write_table
from .qstate import DensityMatrix, check_visibility

# samples per `sample_chsh_reduced` draw; not a unit of the Monte Carlo's work
CHUNK = 1 << 14

# Workspaces not in use, for the next task: a process allocates as many as
# it ever runs tasks at once, not one per piece or per estimate, each the
# size of one piece.  Results never depend on what a workspace held before.
_IDLE_WORKSPACES: list[_rng.Workspace] = []


@dataclass
class PvEstimate:
    """Estimated nonlocal fraction with its binomial standard error.

    The fields are in the order that `bellent pv` and `bellent exp pv` write
    them (`dataclasses.asdict`).
    """

    p_v: float
    std_err: float
    m: int
    violations: int
    set_tag: str

    @classmethod
    def of_count(cls, violations: int, m: int, set_tag: str) -> PvEstimate:
        """The fraction violations / m with its binomial standard error."""
        p = violations / m
        return cls(p, math.sqrt(p * (1.0 - p) / m), m, violations, set_tag)


@dataclass
class ViolationSamples:
    """Per-sample maximal values over a set's replay rows, for one state and seed."""

    values: np.ndarray
    state_tag: str
    settings_seed: int
    set_tag: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(v)):
            raise ParameterError("violation samples must be finite")
        v.setflags(write=False)
        self.values = v

    @property
    def m(self) -> int:
        return self.values.size

    def violations(self, v: float) -> int:
        """Samples at which the white-noise mixture at visibility v violates: value > 1/v."""
        check_visibility(v)
        return int(np.count_nonzero(self.values > 1.0 / v))


def _check_request(rho: DensityMatrix, iset: InequalitySet, m: int, workers: int) -> None:
    if m < 1:
        raise ParameterError(f"sample count must be >= 1, got {m}")
    if workers < 1:
        raise ParameterError(f"worker count must be >= 1, got {workers}")
    if iset.n_parties != rho.n_qubits:
        raise ParameterError("inequality set and state disagree on party count")


def results_array(count: int, what: str) -> np.ndarray:
    """np.empty(count), or ParameterError when no array of count doubles can be held."""
    try:
        return np.empty(count)
    except (ValueError, MemoryError):  # numpy's "array is too big", or no memory for it
        raise ParameterError(f"{what} {count} is more than memory can hold") from None


def _run_pieces(n_parties: int, seed: int, m: int, workers: int, work) -> int:
    """The sum of work(start, dirs, ws) over the `_SUB_BLOCK` pieces of m
    samples, on min(workers, pieces) tasks.

    A piece is the unit of work.  A task takes a workspace from
    `_IDLE_WORKSPACES`, then draws and evaluates the next untaken piece of
    one shared range until none is left, and puts the workspace back, so a
    workspace holds one piece and a run holds no more than its tasks do,
    whatever m is.  A lone task runs in the calling thread and starts no
    pool; its workspace continues its Philox from piece to piece.  The
    pieces, and with them the products of `bell.i_max`, fall where one
    whole-range `batch_i_max` would cut them, whichever task draws them.
    """
    tag = _rng.bloch_tag(n_parties)
    # next() on a range iterator is atomic, so no two tasks take one piece
    starts = iter(range(0, m, _SUB_BLOCK))

    def task():
        # list.pop is atomic, so two tasks never get the same workspace
        try:
            ws = _IDLE_WORKSPACES.pop()
        except IndexError:
            ws = _rng.Workspace()
        try:
            total = 0
            for start in starts:
                k = min(_SUB_BLOCK, m - start)
                total += work(start, _rng.bloch_directions(seed, tag, start, k, n_parties, ws), ws)
            return total
        finally:
            _IDLE_WORKSPACES.append(ws)

    tasks = min(workers, -(-m // _SUB_BLOCK))
    if tasks == 1:
        return task()
    # the module's name, looked up at each call: the traced benchmark swaps it
    with ThreadPoolExecutor(max_workers=tasks) as pool:
        futures = [pool.submit(task) for _ in range(tasks)]
    return sum(f.result() for f in futures)


def estimate_pv(rho: DensityMatrix, iset: InequalitySet, m: int, seed: int,
                workers: int = 1) -> PvEstimate:
    """Fraction of m Haar-sampled settings whose behavior violates the set.

    Deterministic for fixed (seed, m) regardless of workers: every sample's
    directions come from its own counter range and the total is a sum of
    integer counts.  The set's `c_matrix` is prepared once (`product_rows`),
    and every piece multiplies the same rows.
    """
    _check_request(rho, iset, m, workers)
    lam = pauli_tensor(rho)
    c = product_rows(iset.c_matrix)

    def work(start, dirs, ws):
        return int(np.count_nonzero(batch_i_max(lam, dirs, c, ws) > 1.0))

    return PvEstimate.of_count(_run_pieces(rho.n_qubits, seed, m, workers, work), m, iset.tag)


def violation_distribution(rho: DensityMatrix, iset: InequalitySet, m: int, seed: int,
                           workers: int = 1, state_tag: str = "rho") -> ViolationSamples:
    """All m values of I_max over `iset.replay_rows()`, prepared once (`product_rows`):
    rho's mixture with white noise at visibility v violates at a sample exactly
    when its value is > 1/v."""
    _check_request(rho, iset, m, workers)
    lam = pauli_tensor(rho)
    c = product_rows(iset.replay_rows())
    values = results_array(m, "sample count")

    def work(start, dirs, ws):
        values[start:start + dirs.shape[0]] = batch_i_max(lam, dirs, c, ws)
        return 0

    _run_pieces(rho.n_qubits, seed, m, workers, work)
    return ViolationSamples(values, state_tag, seed, iset.tag)


def pv_from_distribution(samples: ViolationSamples, v: float) -> float:
    """Nonlocal fraction of the sampled state's white-noise mixture at
    visibility v: the fraction of replay-row values above 1/v."""
    return samples.violations(v) / samples.m


# ---------------------------------------------------------------- analytic

def pv_werner2_closed(v: float) -> float:
    """Analytic nonlocal fraction of the 2-qubit Werner state under CHSH.

    2[(1 + v^2) arctan(s / (1 - v^2)) - 3 s] / v^2 with s = sqrt(2 v^2 - 1),
    arctan branch in [0, pi/2] so the v = 1 limit is pi/2 and the value there
    is 2(pi - 3).  Zero at and below v = 1/sqrt(2).
    """
    check_visibility(v)
    if 2.0 * v * v - 1.0 <= 0.0:
        return 0.0
    s = math.sqrt(2.0 * v * v - 1.0)
    ang = math.atan2(s, 1.0 - v * v)
    return 2.0 * ((1.0 + v * v) * ang - 3.0 * s) / (v * v)


def pv_werner2_quadrature(v: float) -> float:
    """Direct integration of the violating cube fraction (times 4).

    The x integrand has a 1/sqrt(1 - x^2) endpoint singularity at v = 1;
    substituting x = sin t removes it, leaving a smooth integrand on
    [0, arcsin(s / v^2)], integrated by `scipy.integrate.quad` to absolute
    and relative tolerance 1e-12.
    """
    check_visibility(v)
    s2 = 2.0 * v * v - 1.0
    if s2 <= 0.0:
        return 0.0
    t_max = math.asin(min(1.0, math.sqrt(s2) / (v * v)))

    def g(t):
        x = math.sin(t)
        d = math.sqrt(2.0) - v * (math.sqrt(1.0 - x) + math.sqrt(1.0 + x))
        return d * d

    # imported here, not at module level: it costs every CLI start about 0.25 s
    from scipy.integrate import quad
    # even integrand in x: 4 * 2 * integral / (V_cube = 8) = integral
    return quad(g, 0.0, t_max, epsabs=1e-12, epsrel=1e-12)[0] / (v * v)


def sample_chsh_reduced(v: float, m: int, seed: int) -> PvEstimate:
    """Monte Carlo on the reduced (alpha, beta, x) cube.

    Samples the two dot products and x uniformly from [-1, 1], counts points
    inside the violating wedges, and multiplies by 4 for the setting/outcome
    relabelings (at most one CHSH variant can be violated at a time).  The
    standard error accounts for that factor.
    """
    check_visibility(v)
    if m < 1:
        raise ParameterError(f"sample count must be >= 1, got {m}")
    if 2.0 * v * v - 1.0 <= 0.0:
        # no admissible x: the wedges are empty for every sample
        return PvEstimate(0.0, 0.0, m, 0, "chsh-reduced-cube")
    hits = 0
    for start in range(0, m, CHUNK):
        u = _rng.uniforms(seed, "chshcube", start, min(CHUNK, m - start), 3)
        pts = 2.0 * u - 1.0
        alpha, beta, x = pts[:, 0], pts[:, 1], pts[:, 2]
        lo = np.sqrt(2.0) - alpha * v * np.sqrt(1.0 + x)
        hi = -(np.sqrt(2.0) + alpha * v * np.sqrt(1.0 + x))
        den = v * np.sqrt(1.0 - x)
        hits += int(np.count_nonzero((beta * den > lo) | (beta * den < hi)))
    q = hits / m
    p = 4.0 * q
    return PvEstimate(p, 4.0 * math.sqrt(q * (1.0 - q) / m), m, 4 * hits,
                      "chsh-reduced-cube")


# ---------------------------------------------------------------- file IO

def save_violation_samples(samples: ViolationSamples, path) -> None:
    """CSV with header `i_max` plus a JSON sidecar at <path>.json."""
    write_table(path, "i_max", [samples.values])
    write_json(sidecar_path(path), {"state_tag": samples.state_tag,
                                    "seed": samples.settings_seed,
                                    "m": samples.m, "set_tag": samples.set_tag})


def load_violation_samples(path) -> ViolationSamples:
    """The samples of a `save_violation_samples` file; its sidecar's "m" must
    equal the row count, so a file that lost rows is refused (ParseError)."""
    values = read_table(path, "i_max", "samples file")[:, 0]
    meta_path = sidecar_path(path)
    meta = read_json_object(meta_path, "file")
    m = json_field(meta, "m", int, meta_path)
    if m != values.size:
        raise ParseError(f"{meta_path}: 'm' is {m}, but {path} holds {values.size} samples")
    return ViolationSamples(values,
                            json_field(meta, "state_tag", str, meta_path),
                            json_field(meta, "seed", int, meta_path),
                            json_field(meta, "set_tag", str, meta_path))
