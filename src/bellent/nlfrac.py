"""Nonlocal fraction p_V: Monte Carlo estimators and the analytic 2-qubit curve.

p_V is the probability that Haar-random local projective measurements on a
state produce a behavior violating at least one inequality of a given set.
Sampling uses counter-addressed RNG substreams keyed by (seed, sample index),
so results are bit-identical for any worker count and the same settings are
replayed for different states under a shared seed.
"""

from __future__ import annotations

import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _rng
from .bell import InequalitySet, Workspace, batch_i_max, pauli_tensor
from .errors import ParameterError, ParseError
from .qstate import (DensityMatrix, check_visibility, json_field, read_json_object,
                     write_float_lines)

CHUNK = 1 << 14

# Workspaces not in use, for the next estimate: a process allocates its
# sampling buffers once per concurrent thread, not once per estimate or per
# worker thread.  Module-wide because pool threads last one call; results
# never depend on what a workspace held before.
_IDLE_WORKSPACES: list[Workspace] = []


@dataclass
class PvEstimate:
    """Estimated nonlocal fraction with its binomial standard error."""

    p_v: float
    std_err: float
    m: int
    violations: int
    set_tag: str

    def to_json(self) -> str:
        obj = {"p_v": self.p_v, "std_err": self.std_err, "m": self.m,
               "violations": self.violations, "set_tag": self.set_tag}
        return json.dumps(obj, indent=2) + "\n"


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

    Each thread borrows a workspace from `_IDLE_WORKSPACES` when it starts,
    draws every chunk's directions and runs its kernel in it; the call
    hands the workspaces back, so no chunk allocates its arrays anew.
    """
    tag = f"bloch{n_parties}"
    width = _rng.draw_width(6 * n_parties)
    local = threading.local()
    borrowed = []

    def borrow():
        # list.pop is atomic, so two threads never get the same workspace
        try:
            local.ws = _IDLE_WORKSPACES.pop()
        except IndexError:
            local.ws = Workspace()
        borrowed.append(local.ws)

    def one(span):
        start, count = span
        ws = local.ws
        dirs = _rng.bloch_directions(seed, tag, start, count, n_parties,
                                     out=ws.array("dirs", (count, n_parties, 2, 3)),
                                     draws=ws.array("draws", (count, width)))
        return work(start, dirs, ws)

    spans = list(_chunk_ranges(m))
    try:
        if workers == 1:
            borrow()
            return [one(s) for s in spans]
        with ThreadPoolExecutor(max_workers=workers, initializer=borrow) as pool:
            return list(pool.map(one, spans))
    finally:
        _IDLE_WORKSPACES.extend(borrowed)


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
    estimates = []
    for violations in map(sum, zip(*chunks)):
        p = violations / m
        estimates.append(PvEstimate(p, math.sqrt(p * (1.0 - p) / m), m, violations,
                                    iset.tag))
    return estimates


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


def pv_threshold_sensitivity(samples: ViolationSamples, v: float,
                             epsilon: float) -> tuple:
    """Fractions above thresholds 1/v +- epsilon; brackets pv_from_distribution."""
    check_visibility(v)
    if epsilon < 0:
        raise ParameterError(f"epsilon must be >= 0, got {epsilon!r}")
    thr = 1.0 / v
    low = int(np.count_nonzero(samples.values > thr + epsilon)) / samples.m
    high = int(np.count_nonzero(samples.values > thr - epsilon)) / samples.m
    return low, high


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


def pv_werner2_closed_as_printed(v: float) -> float:
    """Documentation-only variant with the (1 - v^2) arctan prefactor.

    Yields -6 at v = 1, contradicting the known 2(pi - 3); kept so the
    discrepancy with `pv_werner2_closed` can be demonstrated, not for use.
    """
    check_visibility(v)
    if 2.0 * v * v - 1.0 <= 0.0:
        return 0.0
    s = math.sqrt(2.0 * v * v - 1.0)
    ang = math.atan2(s, 1.0 - v * v)
    return 2.0 * ((1.0 - v * v) * ang - 3.0 * s) / (v * v)


def _adaptive_simpson(f, a, b, tol, fa, fm, fb, whole, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return (_adaptive_simpson(f, a, m, tol / 2.0, fa, flm, fm, left, depth - 1)
            + _adaptive_simpson(f, m, b, tol / 2.0, fm, frm, fb, right, depth - 1))


def adaptive_simpson(f, a, b, tol=1e-10, max_depth=48) -> float:
    """Recursive Simpson quadrature with Richardson acceptance at 15 tol."""
    if a == b:
        return 0.0
    fa, fb, fm = f(a), f(b), f(0.5 * (a + b))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive_simpson(f, a, b, tol, fa, fm, fb, whole, max_depth)


def pv_werner2_quadrature(v: float) -> float:
    """Direct integration of the violating cube fraction (times 4).

    The x integrand has a 1/sqrt(1 - x^2) endpoint singularity at v = 1;
    substituting x = sin t removes it, leaving a smooth integrand on
    [0, arcsin(s / v^2)] integrated to absolute tolerance 1e-10.
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

    # even integrand in x: 4 * 2 * integral / (V_cube = 8) = integral
    return adaptive_simpson(g, 0.0, t_max, tol=1e-10) / (v * v)


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
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("i_max\n")
        write_float_lines(fh, samples.values)
    sidecar = {"state_tag": samples.state_tag, "seed": samples.settings_seed,
               "m": samples.m, "set_tag": samples.set_tag}
    Path(str(path) + ".json").write_text(
        json.dumps(sidecar, indent=2) + "\n", encoding="utf-8")


def load_violation_samples(path) -> ViolationSamples:
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
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
    meta_path = Path(str(path) + ".json")
    meta = read_json_object(meta_path)
    return ViolationSamples(values,
                            json_field(meta, "state_tag", str, meta_path),
                            json_field(meta, "seed", int, meta_path),
                            json_field(meta, "set_tag", str, meta_path))
