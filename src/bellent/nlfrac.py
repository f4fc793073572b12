"""Nonlocal fraction p_V: Monte Carlo estimators and the analytic 2-qubit curve.

p_V is the probability that Haar-random local projective measurements on a
state produce a behavior violating at least one inequality of a given set.
Sampling uses counter-addressed RNG substreams keyed by (seed, sample index),
so results are bit-identical for any worker count and the same settings are
replayed for different states under a shared seed.  Each chunk of samples
is drawn and evaluated in one `_rng.Workspace`, borrowed from an idle list.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _rng
from .bell import InequalitySet, batch_i_max, pauli_tensor
from .errors import ParameterError, ParseError
from .qstate import (DensityMatrix, check_visibility, data_lines, json_field,
                     read_json_object, read_text, write_json, write_table)

CHUNK = 1 << 14

# Workspaces not in use, for the next chunk: a process allocates as many as
# it ever runs chunks at once, not one per chunk or per estimate.  Results
# never depend on what a workspace held before.
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
    """Per-sample maximal violation strengths I_max for one state and seed."""

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


def _chunk_ranges(m: int):
    for start in range(0, m, CHUNK):
        yield start, min(CHUNK, m - start)


def _check_request(rho: DensityMatrix, iset: InequalitySet, m: int, workers: int) -> None:
    if m < 1:
        raise ParameterError(f"sample count must be >= 1, got {m}")
    if workers < 1:
        raise ParameterError(f"worker count must be >= 1, got {workers}")
    if iset.n_parties != rho.n_qubits:
        raise ParameterError("inequality set and state disagree on party count")


def _run_chunks(n_parties: int, seed: int, m: int, workers: int, work):
    """work(start, dirs, ws) over disjoint sample ranges, 1 or more threads.

    Each chunk takes a workspace from `_IDLE_WORKSPACES`, draws its
    directions and runs its kernel in it, and puts it back, so no chunk
    allocates its arrays anew.
    """
    tag = f"bloch{n_parties}"

    def one(span):
        start, count = span
        # list.pop is atomic, so two chunks never get the same workspace
        try:
            ws = _IDLE_WORKSPACES.pop()
        except IndexError:
            ws = _rng.Workspace()
        try:
            dirs = _rng.bloch_directions(seed, tag, start, count, n_parties, ws)
            return work(start, dirs, ws)
        finally:
            _IDLE_WORKSPACES.append(ws)

    if workers == 1:
        return [one(s) for s in _chunk_ranges(m)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, _chunk_ranges(m)))


def estimate_pvs(rhos, iset: InequalitySet, m: int, seed: int,
                 workers: int = 1) -> list[PvEstimate]:
    """For each state, the fraction of m Haar-sampled settings whose behavior
    violates the set, all states on the same settings.

    Each chunk draws its directions once and evaluates every state on them,
    so a state's count does not depend on the other states, and the draws
    are paid once for all of them.  Deterministic for fixed (seed, m)
    regardless of workers: every sample's directions come from its own
    counter range and each state's total is a sum of integer counts.
    """
    rhos = list(rhos)
    if not rhos:
        raise ParameterError("no states to estimate")
    for rho in rhos:
        _check_request(rho, iset, m, workers)
    lams = [pauli_tensor(rho) for rho in rhos]
    c = iset.c_matrix

    def work(start, dirs, ws):
        return [int(np.count_nonzero(batch_i_max(lam, dirs, c, ws) > 1.0)) for lam in lams]

    chunks = _run_chunks(iset.n_parties, seed, m, workers, work)
    return [PvEstimate.of_count(violations, m, iset.tag)
            for violations in map(sum, zip(*chunks))]


def estimate_pv(rho: DensityMatrix, iset: InequalitySet, m: int, seed: int,
                workers: int = 1) -> PvEstimate:
    """Fraction of m Haar-sampled settings whose behavior violates the set.

    The one-state case of `estimate_pvs`: deterministic for fixed (seed, m)
    regardless of workers.
    """
    return estimate_pvs([rho], iset, m, seed, workers)[0]


def violation_distribution(rho: DensityMatrix, iset: InequalitySet, m: int, seed: int,
                           workers: int = 1, state_tag: str = "rho") -> ViolationSamples:
    """All m values of I_max; the fraction above 1 recovers estimate_pv."""
    _check_request(rho, iset, m, workers)
    lam = pauli_tensor(rho)
    c = iset.c_matrix
    values = np.empty(m)

    def work(start, dirs, ws):
        values[start:start + dirs.shape[0]] = batch_i_max(lam, dirs, c, ws)

    _run_chunks(rho.n_qubits, seed, m, workers, work)
    return ViolationSamples(values, state_tag, seed, iset.tag)


def pv_from_distribution(samples: ViolationSamples, v: float) -> float:
    """Nonlocal fraction of the white-noise mixture at visibility v.

    Valid when the sampled reference state is mixed with white noise and the
    inequality set has full-correlation form, so I scales linearly with v and
    thresholding at 1/v replays the whole family from one sample set.
    """
    check_visibility(v)
    return int(np.count_nonzero(samples.values > 1.0 / v)) / samples.m


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
    for start, count in _chunk_ranges(m):
        u = _rng.uniforms(seed, "chshcube", start, count, 3)
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
    write_json(f"{path}.json", {"state_tag": samples.state_tag, "seed": samples.settings_seed,
                                "m": samples.m, "set_tag": samples.set_tag})


def load_violation_samples(path) -> ViolationSamples:
    lines = read_text(path, "samples file").splitlines()
    if not lines or lines[0] != "i_max":
        raise ParseError(f"{path}: expected header 'i_max'", line=1)

    def numbers():
        for lineno, x in enumerate(lines[1:], start=2):
            if x.strip():
                try:
                    yield float(x)
                except ValueError:
                    raise ParseError(f"{path}: bad number {x!r}", line=lineno) from None

    values = np.fromiter(numbers(), float)
    if not values.size:
        raise ParseError(f"{path}: no data rows")
    finite = np.isfinite(values)
    if not finite.all():  # the line is looked up on this path only
        raise ParseError(f"{path}: non-finite sample", line=data_lines(lines)[finite.argmin()])
    meta_path = Path(str(path) + ".json")
    meta = read_json_object(meta_path, "file")
    return ViolationSamples(values,
                            json_field(meta, "state_tag", str, meta_path),
                            json_field(meta, "seed", int, meta_path),
                            json_field(meta, "set_tag", str, meta_path))
