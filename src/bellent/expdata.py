"""Coincidence-count datasets: ingestion, mixing, Bell tests, resampling of p_V.

A dataset holds one record table: a numpy structured array (dtype
`RECORD`) with one row per setting, whose columns are the setting id, the
projection direction of each qubit, the 8 outcome counts (index
r1*4 + r2*2 + r3) and the duration.  Every operation works on whole
columns.  A Bell test needs a full behavior, so records are grouped into
blocks of 8 settings (two directions per party, all combinations);
grouping matches directions with a 1e-6 tolerance since real data carries
rounded vectors.  A record table and the rows of a count file pass one set
of value checks (`_value_faults`), so a file that loads makes a dataset.
Nonlocal fractions computed here use the sampling module's binomial
estimator (`PvEstimate.of_count`); with exact synthetic counts the two
pipelines see the same settings and produce the same violation flags.
p_V is also the one statistic that `poisson_resample` redraws counts for:
its uncertainty is the only one on the route from counts to concurrence.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import _rng
from .bell import InequalitySet, batch_behaviors, i_max, pauli_tensor
from .errors import ParameterError, ParseError
from .files import (FLOAT_FIELD, data_lines, json_field, read_json_object, read_text,
                    sidecar_path, write_json, writing)
from .nlfrac import PvEstimate
from .qstate import DensityMatrix, basis_state

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


def _value_faults(directions, counts, duration) -> tuple:
    """(mask, message) for each value check of a record, in the order a line is checked.

    counts (L, k) and duration (L,) hold L records or file rows, directions
    (D, 3, 3) the directions of D records or file heads (D = L for a
    record table); each mask marks the ones that fail its check.  Rounded
    directions pass: a projection direction is a unit vector within DIR_TOL.
    """
    with np.errstate(all="ignore"):
        # einsum, not np.linalg.norm: it runs on every record of a table
        norms = np.sqrt(np.einsum("lij,lij->li", directions, directions))
        return (
            (~np.isfinite(counts).all(axis=1), "non-finite count"),
            ((counts < 0).any(axis=1), "negative count"),
            (~np.isfinite(duration), "non-finite duration"),
            (duration <= 0, "non-positive duration"),
            (~(np.abs(norms - 1.0) <= DIR_TOL).all(axis=1), "non-unit projection direction"),
        )


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
        for bad, message in _value_faults(recs["directions"], recs["counts"],
                                          recs["duration_s"]):
            if bad.any():
                raise ParameterError(f"setting {sid[bad.argmax()]}: {message}")
        if len(np.unique(sid)) != len(sid):
            raise ParameterError("duplicate setting_ids in dataset")
        recs.setflags(write=False)
        self.records = recs

    def total_counts(self) -> float:
        # record sums added one by one in record order (cumsum), not pairwise
        return float(np.cumsum(self.records["counts"].sum(axis=1))[-1])


# ----------------------------------------------------------------- file IO

# a setting's id and directions, the head of each of its 8 rows
_HEAD = "%d" + f",{FLOAT_FIELD}" * 9
# a record's 8 rows, outcome r1*4 + r2*2 + r3 in order: {0} is its head,
# {1} its duration and each float field a count
_RECORD_ROWS = "".join(f"{{0}},{r >> 2},{r >> 1 & 1},{r & 1},{FLOAT_FIELD},{{1}}\n"
                       for r in range(8))
# rows per pass of save_cc and _columns: the text and split fields of one
# pass stay small (passes over whole 4096-row files raised peak RSS by 2 MiB)
_ROWS_PER_PASS = 512


def save_cc(dataset: CCDataset, path) -> None:
    """One CSV row per (setting, outcome); sidecar JSON at <path>.json.

    Values are written in the text of `format_float`.  Per slice of records,
    each head and each duration is formatted once, set into the record's 8
    rows, and the counts are formatted into those rows in one `%` pass.
    """
    recs = dataset.records
    with writing(path) as fh:
        fh.write(CC_HEADER + "\n")
        for lo in range(0, len(recs), _ROWS_PER_PASS // 8):
            chunk = recs[lo:lo + _ROWS_PER_PASS // 8]
            heads = map(_HEAD.__mod__, zip(chunk["setting_id"].tolist(),
                                           *chunk["directions"].reshape(-1, 9).T.tolist()))
            durations = map(FLOAT_FIELD.__mod__, chunk["duration_s"].tolist())
            rows = "".join(map(_RECORD_ROWS.format, heads, durations))
            fh.write(rows % tuple(chunk["counts"].ravel().tolist()))
    write_json(sidecar_path(path), {"tag": dataset.tag, "normalization": dataset.normalization})


# the outcome index r1*4 + r2*2 + r3 of the bits as save_cc writes them
_OUTCOME = {(f"{r >> 2}", f"{r >> 1 & 1}", f"{r & 1}"): r for r in range(8)}


def _columns(rows) -> tuple:
    """The numbers of 15-field CSV rows, converted a column at a time.

    Returns what `_parse` returns for a file that parses, without the
    message.  Each distinct head and each distinct duration text is
    converted once.  Any row that the passes cannot take (another width,
    bits not written "0" or "1", a number `int` or `float` rejects, an id
    outside int64, a blank line) raises ValueError, KeyError or
    OverflowError; `_parse` then reads the file and names that row.
    """
    head_of, duration_of, parts = {}, {}, []
    for lo in range(0, len(rows), _ROWS_PER_PASS):
        heads, r1, r2, r3, counts, durations = zip(
            *map(str.rsplit, rows[lo:lo + _ROWS_PER_PASS], repeat(","), repeat(5)), strict=True)
        # distinct heads, numbered in order of first appearance
        for head in dict.fromkeys(heads):
            head_of.setdefault(head, len(head_of))
        for text in dict.fromkeys(durations):
            if text not in duration_of:
                duration_of[text] = float(text)
        n = len(heads)
        parts.append((np.fromiter(map(head_of.__getitem__, heads), np.intp, n),
                      np.fromiter(map(_OUTCOME.__getitem__, zip(r1, r2, r3)), np.intp, n),
                      np.fromiter(map(float, counts), float, n),
                      np.fromiter(map(duration_of.__getitem__, durations), float, n)))
    sid, *u = zip(*map(str.split, head_of, repeat(",")), strict=True)
    if len(u) != 9:
        raise ValueError("a head is not 10 fields")
    ids = np.fromiter(map(int, sid), np.int64, len(sid))
    dirs = np.fromiter(map(float, chain.from_iterable(u)), float, 9 * len(sid))
    return (ids, np.ascontiguousarray(dirs.reshape(9, -1).T).reshape(-1, 3, 3),
            *map(np.concatenate, zip(*parts)))


def _parse(rows) -> tuple:
    """The numbers of 15-field CSV rows, read one row at a time up to the first faulty one.

    A row is a head (setting id and 9 direction fields, as text) and a tail
    (r1, r2, r3, counts, duration_s).  A setting's rows repeat its head, so
    heads are looked up in a dict and only a new one is converted.  Returns
    (ids (H,), directions (H, 3, 3), row_head (R,), outcome (R,), counts (R,),
    durations (R,), message): row r has head row_head[r] and heads are
    numbered in order of first appearance.  Parsing stops at the first row
    that is not 15 numbers with bits 0 or 1; R rows parsed, and `message`
    says what is wrong with the next (None when every row parsed).
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
                u = list(map(float, u))
            _, r1, r2, r3, count, duration = fields
            bits = float(r1), float(r2), float(r3)
            count, duration = float(count), float(duration)
        except ValueError as exc:
            message = str(exc)
            break
        if not all(b in (0.0, 1.0) for b in bits):
            message = "outcome bits must be 0 or 1"
            break
        if k is None:
            k = head_of[head] = len(ids)
            ids.append(sid)
            dirs.extend(u)
        row_head.append(k)
        tails.fromlist([bits[0] * 4 + bits[1] * 2 + bits[2], count, duration])
    tails = np.array(tails).reshape(-1, 3)
    return (np.array(ids, dtype=np.int64), np.array(dirs).reshape(-1, 3, 3),
            np.array(row_head, dtype=np.intp), tails[:, 0].astype(np.intp),
            tails[:, 1], tails[:, 2], message)


def load_cc(path) -> CCDataset:
    """Read a coincidence-count CSV (and its optional sidecar).

    All rows are parsed and checked at once; a malformed file raises
    ParseError for its earliest offending line.  A row's values pass the
    checks of a record (`_value_faults`).  A setting has one set of
    directions and one duration: its rows must agree on both (directions
    within DIR_TOL).  A file is parsed in column passes (`_columns`); a file
    they cannot take is walked row by row (`_parse`), which names the
    faulty row.
    """
    # the path as given: it is the file's key in the read log
    lines = read_text(path, "coincidence-count file").splitlines()
    path = Path(path)
    if not lines or lines[0] != CC_HEADER:
        raise ParseError(f"{path}: bad or missing header", line=1)
    # rows (non-blank lines) before `stop` parse; row `stop` is the first that does not
    try:
        parsed, stop_msg = _columns(lines[1:]), None
    except (ValueError, KeyError, OverflowError):
        *parsed, stop_msg = _parse(filter(str.strip, lines[1:]))
    head_ids, head_dirs, row_head, outcome, count, duration = parsed
    stop = len(row_head)
    # settings in id order; a setting's first head holds its first row
    ids, first_head, head_setting = np.unique(head_ids, return_index=True,
                                              return_inverse=True)
    setting = head_setting[row_head]
    first_row = np.unique(row_head, return_index=True)[1][first_head]
    _, first_key, key = np.unique(setting * 8 + outcome, return_index=True,
                                  return_inverse=True)
    # each row's first failing check, in the order a line is checked; rows
    # past the earliest bad one are never reported, so their inf/nan is silent.
    # Direction checks run once per head and read back by row.
    with np.errstate(all="ignore"):
        *row_faults, (non_unit, unit_msg) = _value_faults(head_dirs, count[:, None], duration)
        differ = np.max(np.abs(head_dirs[first_head[head_setting]] - head_dirs),
                        axis=(1, 2)) > DIR_TOL
        checks = (
            *row_faults,
            (non_unit[row_head], unit_msg),
            (differ[row_head], "directions differ within setting {}"),
            (duration[first_row[setting]] != duration, "durations differ within setting {}"),
            (first_key[key] != np.arange(len(key)), "duplicate outcome for setting {}"),
        )
    for bad, message in checks:
        if bad.any() and bad.argmax() < stop:
            stop = int(bad.argmax())
            stop_msg = message.format(ids[setting[stop]])
    if stop_msg is not None:
        raise ParseError(f"{path}: {stop_msg}", line=data_lines(lines)[stop])
    if not len(row_head):
        raise ParseError(f"{path}: no data rows")
    tag, norm = path.stem, 1.0
    meta_path = sidecar_path(path)
    if meta_path.is_file():
        meta = read_json_object(meta_path, "file")
        tag = json_field(meta, "tag", str, meta_path, tag)
        norm = json_field(meta, "normalization", float, meta_path, norm)
    counts = np.zeros((len(ids), 8))
    counts[setting, outcome] = count
    return CCDataset(cc_records(ids, head_dirs[first_head], counts, duration[first_row]),
                     norm, tag)


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


def _blocks_for_pv(dataset: CCDataset, iset: InequalitySet):
    if iset.n_parties != 3:
        raise ParameterError("coincidence-count analysis is three-party only")
    blocks, excluded = group_blocks(dataset)
    if not len(blocks):
        raise ParameterError("no complete setting blocks in dataset")
    return blocks, excluded


def _pv_of_blocks(records, blocks, iset) -> tuple[PvEstimate, np.ndarray]:
    """The fraction of blocks above 1, and every block's Bell value."""
    n = len(blocks)
    # count tables need not be no-signalling, so they are reduced as tables
    values = i_max(behavior_tables(records, blocks).reshape(n, 64), iset.w_matrix)
    return PvEstimate.of_count(int(np.count_nonzero(values > 1.0)), n, iset.tag), values


def pv_cc(dataset: CCDataset, iset: InequalitySet,
          margin: float = DEFAULT_MARGIN) -> CCPvResult:
    """Fraction of complete blocks whose behavior violates the set.

    The companion interval counts violations against thresholds 1 +- margin,
    bracketing the effect of finite Bell-value precision.  Incomplete blocks
    are excluded; their record count is reported.
    """
    if not margin >= 0:
        raise ParameterError(f"margin must be >= 0, got {margin!r}")
    blocks, excluded = _blocks_for_pv(dataset, iset)
    est, values = _pv_of_blocks(dataset.records, blocks, iset)
    n = len(blocks)
    low = int(np.count_nonzero(values > 1.0 + margin)) / n
    high = int(np.count_nonzero(values > 1.0 - margin)) / n
    return CCPvResult(est, low, high, n, excluded)


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

@dataclass(frozen=True)
class Resampled:
    """Mean and uncertainty of the resampled block fraction.

    `std_poisson` is the spread of p_V over the count redraws and
    `std_sampling` the block-sampling error; `std` is their root sum of squares.
    """

    mean: float
    std_poisson: float
    std_sampling: float

    @property
    def std(self) -> float:
        return math.hypot(self.std_poisson, self.std_sampling)


def poisson_resample(dataset: CCDataset, iset: InequalitySet, trials: int,
                     seed: int) -> Resampled:
    """Mean and uncertainty of the block fraction p_V from Poisson count redraws.

    Each trial redraws every count as Poisson(count) and recomputes p_V over
    the dataset's complete blocks.  Counts must be raw integers (resampling
    after mixing normalized data is not meaningful).  Redraws never change
    the settings, so the blocks are grouped once and reused in every trial.

    The mean is taken over redraws of counts that already carry Poisson
    noise, which doubles the count noise: blocks near the threshold cross
    it more often than in the data, so the mean is biased against
    `pv_cc(dataset)` and is not an estimate of p_V.

    The std is the total uncertainty of the block fraction, count noise
    plus the sampling noise of a finite set of Haar blocks, by the law of
    total variance: std**2 = Var_t(p_t) + mean_t(p_t (1 - p_t) / n_t), where
    the second term is each trial's `estimate.std_err**2`.  Redrawing counts
    alone keeps every block's settings fixed, so it never sees the second part.
    """
    if trials < 2:
        raise ParameterError(f"need at least 2 trials, got {trials}")
    recs = dataset.records
    counts = recs["counts"]
    fractional = np.max(np.abs(counts - np.round(counts)), axis=1) > 1e-9
    if fractional.any():
        raise ParameterError(
            "Poisson resampling needs raw integer counts "
            f"(setting {recs['setting_id'][fractional.argmax()]} has fractional values)")
    blocks, _ = _blocks_for_pv(dataset, iset)
    values = np.empty(trials)
    sampling_var = np.empty(trials)
    for t in range(trials):
        gen = _rng.generator(seed, "poisson", t)
        redrawn = _with_counts(recs, gen.poisson(counts).astype(float))
        est = _pv_of_blocks(redrawn, blocks, iset)[0]
        values[t], sampling_var[t] = est.p_v, est.std_err ** 2
    return Resampled(float(values.mean()), float(values.std(ddof=1)),
                     math.sqrt(sampling_var.mean()))


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
    dirs = _rng.bloch_directions(seed, _rng.bloch_tag(3), 0, n_blocks, 3)
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
