"""Coincidence-count datasets: ingestion, mixing, Bell tests, resampling.

A dataset holds one record table: a numpy structured array (dtype
`RECORD`) with one row per setting, whose columns are the setting id, the
projection direction of each qubit, the 8 outcome counts (index
r1*4 + r2*2 + r3) and the duration.  Every operation works on whole
columns.  A Bell test needs a full behavior, so records are grouped into
blocks of 8 settings (two directions per party, all combinations);
grouping matches directions with a 1e-6 tolerance since real data carries
rounded vectors.  Nonlocal fractions computed here share the estimator
conventions of the sampling module; with exact synthetic counts the two
pipelines see the same settings and produce the same violation flags.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _rng
from .bell import InequalitySet, batch_behaviors, i_max, pauli_tensor
from .errors import MissingDataError, ParameterError, ParseError
from .nlfrac import PvEstimate
from .qstate import (DensityMatrix, basis_state, format_float, json_field,
                     read_json_object)

CC_HEADER = ("setting_id,u1x,u1y,u1z,u2x,u2y,u2z,u3x,u3y,u3z,"
             "r1,r2,r3,counts,duration_s")
DIR_TOL = 1e-6
DEFAULT_MARGIN = 0.015

RECORD = np.dtype([("setting_id", np.int64), ("directions", float, (3, 3)),
                   ("counts", float, (8,)), ("duration_s", float)])
# the setting ids that fit the record table's int64 column
_SETTING_IDS = range(np.iinfo(np.int64).min, np.iinfo(np.int64).max + 1)


def cc_records(setting_id, directions, counts, duration_s=1.0) -> np.ndarray:
    """A record table from its columns: ids (R,), directions (R, 3, 3), counts (R, 8)."""
    shape = np.shape(setting_id)
    if np.shape(directions) != shape + (3, 3):
        raise ParameterError(
            f"directions shape {np.shape(directions)}, expected {shape + (3, 3)}")
    if np.shape(counts) != shape + (8,):
        raise ParameterError(f"counts shape {np.shape(counts)}, expected {shape + (8,)}")
    records = np.empty(shape, RECORD)
    records["setting_id"] = setting_id
    records["directions"] = directions
    records["counts"] = counts
    records["duration_s"] = duration_s
    return records


def _with_counts(records: np.ndarray, counts: np.ndarray) -> np.ndarray:
    out = records.copy()
    out["counts"] = counts
    return out


@dataclass
class CCDataset:
    """A record table (dtype `RECORD`, read-only) with its normalization and tag."""

    records: np.ndarray
    normalization: float = 1.0
    tag: str = ""

    def __post_init__(self):
        recs = np.asarray(self.records)
        if recs.dtype != RECORD or recs.ndim != 1:
            raise ParameterError("records must be a 1-d table of dtype expdata.RECORD")
        if not len(recs):
            raise ParameterError("dataset has no records")
        sid = recs["setting_id"]
        norms = np.linalg.norm(recs["directions"], axis=2)
        bad = ~(np.max(np.abs(norms - 1.0), axis=1) <= 1e-9)
        if bad.any():
            raise ParameterError(
                f"setting {sid[bad.argmax()]}: directions must be unit vectors")
        bad = ~np.isfinite(recs["counts"]).all(axis=1)
        if bad.any():
            raise ParameterError(f"setting {sid[bad.argmax()]}: non-finite count")
        bad = np.min(recs["counts"], axis=1) < 0
        if bad.any():
            raise ParameterError(f"setting {sid[bad.argmax()]}: negative count")
        bad = ~(recs["duration_s"] > 0)
        if bad.any():
            duration = float(recs["duration_s"][bad.argmax()])
            raise ParameterError(f"duration must be positive, got {duration!r}")
        if np.isinf(recs["duration_s"]).any():  # only +inf is left
            raise ParameterError("duration must be finite, got inf")
        if len(np.unique(sid)) != len(sid):
            raise ParameterError("duplicate setting_ids in dataset")
        recs.setflags(write=False)
        self.records = recs

    def total_counts(self) -> float:
        # record sums added one by one in record order (cumsum), not pairwise
        return float(np.cumsum(self.records["counts"].sum(axis=1))[-1])


# ----------------------------------------------------------------- file IO

def save_cc(dataset: CCDataset, path) -> None:
    """One CSV row per (setting, outcome); sidecar JSON at <path>.json."""
    recs = dataset.records
    lines = [CC_HEADER]
    for sid, u, counts, duration in zip(
            recs["setting_id"].tolist(), recs["directions"].reshape(-1, 9).tolist(),
            recs["counts"].tolist(), recs["duration_s"].tolist()):
        head = f"{sid},{','.join(map(format_float, u))},"
        tail = f",{format_float(duration)}"
        for r, count in enumerate(counts):
            lines.append(f"{head}{r >> 2 & 1},{r >> 1 & 1},{r & 1},"
                         f"{format_float(count)}{tail}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    sidecar = {"tag": dataset.tag, "normalization": dataset.normalization}
    Path(str(path) + ".json").write_text(
        json.dumps(sidecar, indent=2) + "\n", encoding="utf-8")


def _parse(rows) -> tuple:
    """The numbers of 15-field CSV rows, each distinct setting head converted once.

    A row is a head (setting id and 9 direction fields, as text) and a tail
    (r1, r2, r3, counts, duration_s).  A setting's rows repeat its head, so
    heads are looked up in a dict and only a new one is converted.  Returns
    (ids (H,), directions (H, 3, 3), row_head (R,), tails (R, 5), message):
    row r has head row_head[r].  Parsing stops at the first row that is not
    15 numbers; R rows parsed, and `message` says what is wrong with the
    next (None when every row parsed).
    """
    head_of, ids, dirs, row_head, tails = {}, [], array("d"), array("q"), array("d")
    message = None
    for row in rows:
        fields = row.rsplit(",", 5)
        head = fields[0]
        k = head_of.get(head)
        try:
            if k is None:
                # a row is 15 fields when its head holds 9 commas; a known head does
                if head.count(",") != 9:
                    message = f"expected 15 fields, got {row.count(',') + 1}"
                    break
                # fields in row order, so the message names a row's first bad one
                sid, *u = head.split(",")
                sid = int(sid)
                if sid not in _SETTING_IDS:
                    message = f"setting_id {sid} is outside the int64 range"
                    break
                dirs.extend(map(float, u))
                ids.append(sid)
                k = head_of[head] = len(head_of)
            _, r1, r2, r3, count, duration = fields
            tails.fromlist([float(r1), float(r2), float(r3), float(count), float(duration)])
        except ValueError as exc:
            message = str(exc)
            break
        row_head.append(k)
    h, r = len(ids), len(row_head)
    return (np.array(ids, dtype=np.int64), np.array(dirs[:9 * h]).reshape(h, 3, 3),
            np.array(row_head), np.array(tails[:5 * r]).reshape(r, 5), message)


def load_cc(path) -> CCDataset:
    """Read a coincidence-count CSV (and its optional sidecar).

    All rows are parsed and checked at once; a malformed file raises
    ParseError for its earliest offending line.  A setting has one set of
    directions and one duration: its rows must agree on both (directions
    within DIR_TOL), and the duration must be finite and positive.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingDataError(f"no such coincidence-count file: {path}")
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CC_HEADER:
        raise ParseError(f"{path}: bad or missing header", line=1)
    # rows (non-blank lines) before `stop` parse; row `stop` is the first that does not
    head_ids, head_dirs, row_head, tails, stop_msg = _parse(filter(str.strip, lines[1:]))
    stop = len(row_head)
    sid, dirs = head_ids[row_head], head_dirs[row_head]
    bits, count, duration = tails[:, :3], tails[:, 3], tails[:, 4]
    outcome = (bits == 1) @ np.array([4, 2, 1])
    ids, first, setting = np.unique(sid, return_index=True, return_inverse=True)
    _, first_key, key = np.unique(setting * 8 + outcome, return_index=True,
                                  return_inverse=True)
    # each row's first failing check, in the order a line is checked; rows
    # past the earliest bad one are never reported, so their inf/nan is silent
    with np.errstate(all="ignore"):
        checks = (
            (~((bits == 0) | (bits == 1)).all(axis=1), "outcome bits must be 0 or 1"),
            (~np.isfinite(count), "non-finite count"),
            (count < 0, "negative count"),
            (~np.isfinite(duration), "non-finite duration"),
            (duration <= 0, "non-positive duration"),
            (~(np.max(np.abs(np.linalg.norm(head_dirs, axis=2) - 1.0), axis=1)
               <= DIR_TOL)[row_head], "non-unit projection direction"),
            (np.max(np.abs(dirs[first[setting]] - dirs), axis=(1, 2)) > DIR_TOL,
             "directions differ within setting {}"),
            (duration[first[setting]] != duration, "durations differ within setting {}"),
            (first_key[key] != np.arange(len(key)), "duplicate outcome for setting {}"),
        )
    for bad, message in checks:
        if bad.any() and bad.argmax() < stop:
            stop = int(bad.argmax())
            stop_msg = message.format(sid[stop])
    if stop_msg is not None:
        lineno = [n for n, line in enumerate(lines[1:], start=2) if line.strip()]
        raise ParseError(f"{path}: {stop_msg}", line=lineno[stop])
    if not len(sid):
        raise ParseError(f"{path}: no data rows")
    tag, norm = path.stem, 1.0
    meta_path = Path(str(path) + ".json")
    if meta_path.is_file():
        meta = read_json_object(meta_path)
        tag = json_field(meta, "tag", str, meta_path, tag)
        norm = json_field(meta, "normalization", float, meta_path, norm)
    counts = np.zeros((len(ids), 8))
    counts[setting, outcome] = count
    return CCDataset(cc_records(ids, dirs[first], counts, duration[first]), norm, tag)


# ----------------------------------------------------------------- blocks

def group_blocks(dataset: CCDataset):
    """Partition records into complete 2x2x2 setting blocks.

    Two records are partners when they share the direction of all but one
    party (keys quantized at 1e-6).  Returns (blocks, n_excluded_records):
    `blocks` is a (B, 8) array of record indices, column S1*4 + S2*2 + S3,
    where S_i = 1 marks party i's larger direction key; blocks are ordered
    by their first record.
    """
    keys = np.rint(dataset.records["directions"] / DIR_TOL).astype(np.int64)
    n = len(keys)
    # party[i]: id of party i's direction key, in the keys' lexicographic order
    party = [np.unique(keys[:, i], axis=0, return_inverse=True)[1].ravel()
             for i in range(3)]
    classes = [np.unique(party[(i + 1) % 3] * n + party[(i + 2) % 3],
                         return_inverse=True)[1].ravel() for i in range(3)]
    # a record's label becomes the lowest record index of its component
    label = np.arange(n)
    while True:
        new = label
        for cls in classes:
            low = np.full(n, n)
            np.minimum.at(low, cls, new)
            new = low[cls]
        if np.array_equal(new, label):
            break
        label = new
    # within a component, party i must take exactly two keys: S_i marks the larger
    complete = np.bincount(label, minlength=n) == 8
    combo = np.zeros(n, dtype=int)
    for i in range(3):
        lo = np.full(n, n)
        hi = np.full(n, -1)
        np.minimum.at(lo, label, party[i])
        np.maximum.at(hi, label, party[i])
        complete[label[(party[i] != lo[label]) & (party[i] != hi[label])]] = False
        combo += (party[i] == hi[label]) << (2 - i)
    table = np.full((n, 8), -1)
    table[label, combo] = np.arange(n)
    complete &= (table >= 0).all(axis=1)
    blocks = table[complete]
    return blocks, n - blocks.size


def behavior_tables(records: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Probability tables (B, 8, 8) [block, S1*4+S2*2+S3, r1*4+r2*2+r3]."""
    counts = records["counts"][blocks]
    totals = counts.sum(axis=2, keepdims=True)
    zero = totals <= 0
    if zero.any():
        sid = records["setting_id"][blocks][zero[..., 0]][0]
        raise ParameterError(f"setting {sid}: zero total count in block")
    return counts / totals


@dataclass
class CCPvResult:
    """Nonlocal fraction over blocks plus its threshold-margin bracket."""

    estimate: PvEstimate
    interval_low: float
    interval_high: float
    n_blocks: int
    n_excluded_records: int

    def to_json(self) -> str:
        obj = {"p_v": self.estimate.p_v, "std_err": self.estimate.std_err,
               "m": self.estimate.m, "violations": self.estimate.violations,
               "set_tag": self.estimate.set_tag,
               "interval_low": self.interval_low,
               "interval_high": self.interval_high,
               "n_excluded_records": self.n_excluded_records}
        return json.dumps(obj, indent=2) + "\n"


def _blocks_for_pv(dataset: CCDataset, iset: InequalitySet, margin: float):
    if iset.n_parties != 3:
        raise ParameterError("coincidence-count analysis is three-party only")
    if margin < 0:
        raise ParameterError(f"margin must be >= 0, got {margin!r}")
    blocks, excluded = group_blocks(dataset)
    if not len(blocks):
        raise ParameterError("no complete setting blocks in dataset")
    return blocks, excluded


def _pv_of_blocks(records, blocks, excluded, iset, margin) -> CCPvResult:
    n = len(blocks)
    # count tables need not be no-signalling, so they are reduced as tables
    values = i_max(behavior_tables(records, blocks).reshape(n, 64), iset.w_matrix)
    violations = int(np.count_nonzero(values > 1.0))
    p = violations / n
    est = PvEstimate(p, math.sqrt(p * (1.0 - p) / n), n, violations, iset.tag)
    low = int(np.count_nonzero(values > 1.0 + margin)) / n
    high = int(np.count_nonzero(values > 1.0 - margin)) / n
    return CCPvResult(est, low, high, n, excluded)


def pv_cc(dataset: CCDataset, iset: InequalitySet,
          margin: float = DEFAULT_MARGIN) -> CCPvResult:
    """Fraction of complete blocks whose behavior violates the set.

    The companion interval counts violations against thresholds 1 +- margin,
    bracketing the effect of finite Bell-value precision.  Incomplete blocks
    are excluded; their record count is reported.
    """
    blocks, excluded = _blocks_for_pv(dataset, iset, margin)
    return _pv_of_blocks(dataset.records, blocks, excluded, iset, margin)


# ----------------------------------------------------------------- mixing

def normalize_cc(dataset: CCDataset) -> CCDataset:
    """Divide all counts by the dataset total (the overall generation rate)."""
    total = dataset.total_counts()
    if total <= 0:
        raise ParameterError("cannot normalize a zero-count dataset")
    recs = dataset.records
    return CCDataset(_with_counts(recs, recs["counts"] / total), total, dataset.tag)


def mix_counts(state_cc: CCDataset, basis_cc, v_c: float) -> CCDataset:
    """Probabilistic white-noise admixture at the counts level.

    mixed = v_c * state + (1 - v_c)/8 * sum(basis); the 8 basis datasets are
    the computational-basis states measured under the same settings, and all
    inputs are expected pre-normalized by their generation rate.
    """
    if not 0.0 <= v_c <= 1.0:
        raise ParameterError(f"v_c must be in [0, 1], got {v_c!r}")
    basis_cc = list(basis_cc)
    if len(basis_cc) != 8:
        raise ParameterError(f"need 8 basis datasets, got {len(basis_cc)}")
    recs = state_cc.records
    for k, ds in enumerate(basis_cc):
        other = ds.records
        # unequal lengths fail the id comparison before directions are subtracted
        if not np.array_equal(other["setting_id"], recs["setting_id"]) \
                or (np.abs(other["directions"] - recs["directions"]) > DIR_TOL).any():
            raise ParameterError(f"basis dataset {k} settings misaligned with state")
    counts = v_c * recs["counts"] + sum(
        (1.0 - v_c) / 8.0 * ds.records["counts"] for ds in basis_cc)
    return CCDataset(_with_counts(recs, counts), 1.0, f"{state_cc.tag}:vc={v_c:g}")


# ----------------------------------------------------------- resampling

STATISTICS = ("pv_cc", "total_counts")


class Resampled(tuple):
    """(mean, std) of a resampled statistic, with the parts of std attached.

    Unpacks and compares as the pair (mean, std).  `std_poisson` is the
    spread of the statistic over the count redraws; `std_sampling` is the
    block-sampling error, present for "pv_cc" only (None otherwise), and
    std**2 == std_poisson**2 + std_sampling**2.
    """

    def __new__(cls, mean: float, std_poisson: float, std_sampling=None):
        std = std_poisson if std_sampling is None else math.hypot(
            std_poisson, std_sampling)
        obj = super().__new__(cls, (mean, std))
        obj.std_poisson = std_poisson
        obj.std_sampling = std_sampling
        return obj

    @property
    def mean(self) -> float:
        return self[0]

    @property
    def std(self) -> float:
        return self[1]


def poisson_resample(dataset: CCDataset, statistic, trials: int, seed: int,
                     iset: InequalitySet = None,
                     margin: float = DEFAULT_MARGIN) -> Resampled:
    """Mean and uncertainty of a statistic from Poisson count redraws.

    Each trial redraws every count as Poisson(count) and recomputes the
    statistic; `statistic` is "pv_cc", "total_counts", or a callable taking
    a CCDataset.  Counts must be raw integers (resampling after mixing
    normalized data is not meaningful).  Redraws never change the settings,
    so "pv_cc" groups the blocks once and reuses them in every trial.

    The mean is taken over redraws of counts that already carry Poisson
    noise, which doubles the count noise: blocks near the threshold cross
    it more often than in the data, so the mean is biased against
    `pv_cc(dataset)` and is not an estimate of p_V.

    For "pv_cc" the returned std is the total uncertainty of the block
    fraction, count noise plus the sampling noise of a finite set of Haar
    blocks, by the law of total variance:
    std**2 = Var_t(p_t) + mean_t(p_t (1 - p_t) / n_t), where the second
    term is each trial's `estimate.std_err**2`.  Redrawing counts alone
    keeps every block's settings fixed, so it never sees the second part.
    For "total_counts" and callables the std is the Poisson-only spread;
    `lambda ds: pv_cc(ds, iset).estimate.p_v` gives that spread for p_V.
    """
    if trials < 2:
        raise ParameterError(f"need at least 2 trials, got {trials}")
    blocked = statistic == "pv_cc"
    if callable(statistic):
        fn = statistic
    elif blocked:
        if iset is None:
            raise ParameterError("statistic 'pv_cc' needs an inequality set")
    elif statistic == "total_counts":
        fn = CCDataset.total_counts
    else:
        raise ParameterError(f"unknown statistic {statistic!r}; "
                             f"expected one of {STATISTICS} or a callable")
    recs = dataset.records
    counts = recs["counts"]
    fractional = np.max(np.abs(counts - np.round(counts)), axis=1) > 1e-9
    if fractional.any():
        raise ParameterError(
            "Poisson resampling needs raw integer counts "
            f"(setting {recs['setting_id'][fractional.argmax()]} has fractional values)")
    if blocked:
        blocks, excluded = _blocks_for_pv(dataset, iset, margin)
    values = np.empty(trials)
    sampling_var = np.empty(trials)
    for t in range(trials):
        gen = _rng.generator(seed, "poisson", t)
        redrawn = _with_counts(recs, gen.poisson(counts).astype(float))
        if blocked:
            est = _pv_of_blocks(redrawn, blocks, excluded, iset, margin).estimate
            values[t], sampling_var[t] = est.p_v, est.std_err ** 2
        else:
            values[t] = fn(CCDataset(redrawn, dataset.normalization, dataset.tag))
    std_sampling = math.sqrt(sampling_var.mean()) if blocked else None
    return Resampled(float(values.mean()), float(values.std(ddof=1)),
                     std_sampling)


# ----------------------------------------------------------- synthesis

def synth_cc_dataset(rho: DensityMatrix, n_blocks: int, seed: int,
                     scale: float = 1.0, tag: str = "synthetic") -> CCDataset:
    """Noiseless dataset: counts = scale * P(r|S) at Haar-sampled settings.

    Uses the same per-sample direction substream as the Monte Carlo
    estimator, so block b sees the directions of sample b for this seed;
    block b holds settings 8b .. 8b+7, setting S1*4 + S2*2 + S3.
    """
    if rho.n_qubits != 3:
        raise ParameterError("synthetic coincidence data is three-qubit only")
    if n_blocks < 1:
        raise ParameterError(f"need at least 1 block, got {n_blocks}")
    dirs = _rng.bloch_directions(seed, "bloch3", 0, n_blocks, 3)
    tables = batch_behaviors(pauli_tensor(rho), dirs)
    s = np.arange(8)
    # party i's direction at setting s is dirs[:, i, S_i], S_i = bit (2 - i) of s
    u = np.stack([dirs[:, i, s >> (2 - i) & 1] for i in range(3)], axis=2)
    return CCDataset(cc_records(np.arange(8 * n_blocks), u.reshape(-1, 3, 3),
                                scale * tables.reshape(-1, 8)), 1.0, tag)


def synth_basis_datasets(n_blocks: int, seed: int, scale: float = 1.0) -> list:
    """The 8 computational-basis datasets under the same settings."""
    out = []
    for k in range(8):
        bits = f"{k:03b}"
        rho = basis_state(bits).projector()
        out.append(synth_cc_dataset(rho, n_blocks, seed, scale, tag=f"basis{bits}"))
    return out


def add_poisson_noise(dataset: CCDataset, seed: int) -> CCDataset:
    """One Poisson draw over all counts (counts' ~ Poisson(counts))."""
    gen = _rng.generator(seed, "poisson-noise", 0)
    recs = dataset.records
    return CCDataset(_with_counts(recs, gen.poisson(recs["counts"]).astype(float)),
                     dataset.normalization, dataset.tag + ":poisson")
