import math
import random

import numpy as np
import pytest

from bellent import _rng
from bellent.bell import default_set, expand_relabelings, i_max, mermin
from bellent.errors import MissingDataError, ParameterError, ParseError
from bellent.expdata import (
    CC_HEADER,
    CCDataset,
    add_poisson_noise,
    behavior_tables,
    cc_records,
    group_blocks,
    load_cc,
    mix_counts,
    normalize_cc,
    poisson_resample,
    pv_cc,
    save_cc,
    synth_basis_datasets,
    synth_cc_dataset,
)
from bellent.nlfrac import estimate_pv
from bellent.qstate import format_float, werner_like

RHO = werner_like(np.pi / 4, 0.986, 3)
ISET = default_set(3)


def small_dataset(n_blocks=40, seed=5, scale=1.0):
    return synth_cc_dataset(RHO, n_blocks, seed, scale=scale)


def test_csv_round_trip(tmp_path):
    ds = small_dataset(10)
    p = tmp_path / "cc.csv"
    save_cc(ds, p)
    # a CRLF copy, with its sidecar, loads the same records
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(p.read_bytes().replace(b"\n", b"\r\n"))
    (tmp_path / "crlf.csv.json").write_bytes((tmp_path / "cc.csv.json").read_bytes())
    for back in (load_cc(p), load_cc(crlf)):
        assert back.tag == ds.tag
        assert back.normalization == ds.normalization
        assert len(back.records) == len(ds.records)
        for name in ("setting_id", "counts", "directions", "duration_s"):
            np.testing.assert_array_equal(back.records[name], ds.records[name])


def test_loader_rejects_bad_rows(tmp_path):
    ds = small_dataset(2)
    p = tmp_path / "cc.csv"
    save_cc(ds, p)
    lines = p.read_text().splitlines()

    bad = lines[:]
    bad[3] = bad[3].replace(bad[3].split(",")[-2], "-4", 1)
    q = tmp_path / "neg.csv"
    q.write_text("\n".join(bad) + "\n")
    with pytest.raises(ParseError) as exc:
        load_cc(q)
    assert exc.value.line == 4

    bad = lines[:]
    bad.append(bad[-1])  # duplicate outcome row for the last setting
    q2 = tmp_path / "dup.csv"
    q2.write_text("\n".join(bad) + "\n")
    with pytest.raises(ParseError):
        load_cc(q2)

    q3 = tmp_path / "hdr.csv"
    q3.write_text("setting,alpha\n1,2\n")
    with pytest.raises(ParseError) as exc:
        load_cc(q3)
    assert exc.value.line == 1


def _rejected_line(tmp_path, lines, edit):
    """The ParseError of load_cc on `lines` after edit(lines)."""
    bad = list(lines)
    edit(bad)
    q = tmp_path / "bad.csv"
    q.write_text("\n".join(bad) + "\n")
    with pytest.raises(ParseError) as exc:
        load_cc(q)
    return exc.value


def _set_field(lines, row, col, value):
    parts = lines[row].split(",")
    parts[col] = value
    lines[row] = ",".join(parts)


def test_loader_reports_each_rejection_on_its_line(tmp_path):
    ds = small_dataset(2)
    p = tmp_path / "cc.csv"
    save_cc(ds, p)
    lines = p.read_text().splitlines()
    assert lines[0] == CC_HEADER
    # list index i is file line i + 1; rows 1..8 are setting 0
    cases = [
        (lambda L: L.__setitem__(5, L[5] + ",7"), 6, "expected 15 fields, got 16"),
        (lambda L: _set_field(L, 7, 4, "0.3x"), 8, "could not convert string to float"),
        (lambda L: _set_field(L, 9, 0, "z"), 10, "invalid literal for int()"),
        (lambda L: _set_field(L, 9, 0, "9223372036854775808"), 10,
         "setting_id 9223372036854775808 is outside the int64 range"),
        (lambda L: _set_field(L, 9, 0, "-9223372036854775809"), 10,
         "setting_id -9223372036854775809 is outside the int64 range"),
        (lambda L: _set_field(L, 4, 11, "2"), 5, "outcome bits must be 0 or 1"),
        (lambda L: _set_field(L, 6, 13, "-1"), 7, "negative count"),
        (lambda L: _set_field(L, 6, 13, "nan"), 7, "non-finite count"),
        (lambda L: _set_field(L, 5, 13, "inf"), 6, "non-finite count"),
        (lambda L: _set_field(L, 4, 13, "-inf"), 5, "non-finite count"),
        (lambda L: _set_field(L, 3, 1, "0.5"), 4, "non-unit projection direction"),
        (lambda L: _set_field(L, 3, 1, "nan"), 4, "non-unit projection direction"),
        (lambda L: [_set_field(L, 6, c, v) for c, v in ((1, "0"), (2, "0"), (3, "1"))],
         7, "directions differ within setting 0"),
        (lambda L: L.__setitem__(8, L[7]), 9, "duplicate outcome for setting 0"),
        (lambda L: _set_field(L, 6, 14, "0"), 7, "non-positive duration"),
        (lambda L: _set_field(L, 6, 14, "-2"), 7, "non-positive duration"),
        (lambda L: _set_field(L, 5, 14, "nan"), 6, "non-finite duration"),
        (lambda L: _set_field(L, 5, 14, "inf"), 6, "non-finite duration"),
        (lambda L: _set_field(L, 4, 14, "2"), 5, "durations differ within setting 0"),
        (lambda L: _set_field(L, 1, 14, "2"), 3, "durations differ within setting 0"),
    ]
    for edit, line, message in cases:
        err = _rejected_line(tmp_path, lines, edit)
        assert err.line == line and message in str(err), (line, message, str(err))

    # two faults in one file: the earlier line is reported, whatever its kind
    def late_width_early_value(L):
        L[12] += ",1"
        _set_field(L, 10, 13, "-3")

    def late_value_early_width(L):
        _set_field(L, 12, 13, "-3")
        L[10] += ",1"

    def late_parse_early_dup(L):
        _set_field(L, 14, 2, "?")
        L[11] = L[10]

    for edit, line, message in ((late_width_early_value, 11, "negative count"),
                                (late_value_early_width, 11, "expected 15 fields"),
                                (late_parse_early_dup, 12, "duplicate outcome")):
        err = _rejected_line(tmp_path, lines, edit)
        assert err.line == line and message in str(err), (line, message, str(err))

    # a blank line does not shift the numbering
    err = _rejected_line(tmp_path, lines, lambda L: (L.insert(2, ""),
                                                    _set_field(L, 6, 13, "-1")))
    assert err.line == 7


def test_loader_rejects_malformed_sidecar(tmp_path):
    ds = small_dataset(1)
    p = tmp_path / "cc.csv"
    save_cc(ds, p)
    side = tmp_path / "cc.csv.json"
    for text, match in (('{"tag": "x",\n "normalization": }', "line 2"),
                        ('{"normalization": "lots"}', "normalization"),
                        ('[1, 2]', "JSON object")):
        side.write_text(text)
        with pytest.raises(ParseError, match=match):
            load_cc(p)
    side.write_text('{"normalization": 2.5}')
    back = load_cc(p)
    assert back.normalization == 2.5 and back.tag == "cc"


def _saved_lines(tmp_path, ds):
    p = tmp_path / "cc.csv"
    save_cc(ds, p)
    return p.read_text().splitlines()


def _load_lines(tmp_path, lines):
    q = tmp_path / "edited.csv"
    q.write_text("\n".join(lines) + "\n")
    return load_cc(q)


def test_loader_reads_every_spelling_of_a_setting_head(tmp_path):
    u = np.array([[0.5, 0.5, math.sqrt(0.5)], [0.0, -0.6, 0.8], [1.0, 0.0, 0.0]])
    ds = CCDataset(cc_records([3], u[None], np.arange(1.0, 9.0)[None]))
    lines = _saved_lines(tmp_path, ds)
    spellings = [("3", "0.5"), (" 3", "0.50"), ("03", "5e-1"), ("3 ", " 0.5 "),
                 ("+3", ".5"), ("3", "5E-1"), ("3", "0.500000000000000000"), ("3", "+0.5")]
    for r, (sid, half) in enumerate(spellings, start=1):
        parts = lines[r].split(",")
        parts[0], parts[1], parts[2] = sid, half, half
        if r % 2:
            parts[3] = repr(math.sqrt(0.5))  # 16 digits where save_cc writes 17
        lines[r] = ",".join(parts)
    assert len({row.rsplit(",", 5)[0] for row in lines[1:]}) == 8
    assert _load_lines(tmp_path, lines).records.tobytes() == ds.records.tobytes()
    assert load_cc(tmp_path / "cc.csv").records.tobytes() == ds.records.tobytes()


def test_loader_keys_a_head_by_its_setting_id(tmp_path):
    # two settings with the same direction text stay two records
    u = small_dataset(1).records["directions"][:1]
    counts = np.arange(16.0).reshape(2, 8)
    ds = CCDataset(cc_records([0, 1], np.concatenate([u, u]), counts))
    lines = _saved_lines(tmp_path, ds)
    assert lines[1].rsplit(",", 5)[0].split(",", 1)[1] == lines[9].rsplit(",", 5)[0].split(",", 1)[1]
    back = load_cc(tmp_path / "cc.csv")
    assert len(back.records) == 2 and back.records.tobytes() == ds.records.tobytes()


def test_loader_ignores_row_order(tmp_path):
    ds = small_dataset(40)
    lines = _saved_lines(tmp_path, ds)
    rows = lines[1:]
    random.Random(3).shuffle(rows)
    assert _load_lines(tmp_path, lines[:1] + rows).records.tobytes() == ds.records.tobytes()


def test_loader_keeps_the_first_rows_directions(tmp_path):
    ds = small_dataset(1)
    u = ds.records["directions"][0]
    near = u * (1 + 1e-10)  # within DIR_TOL of u, and a different text
    assert not np.array_equal(near, u)
    lines = _saved_lines(tmp_path, ds)
    parts = lines[4].split(",")
    parts[1:10] = map(format_float, near.ravel())
    lines[4] = ",".join(parts)
    back = _load_lines(tmp_path, lines)
    np.testing.assert_array_equal(back.records["directions"][0], u)
    np.testing.assert_array_equal(back.records["counts"], ds.records["counts"])
    lines[1], lines[4] = lines[4], lines[1]
    back = _load_lines(tmp_path, lines)
    np.testing.assert_array_equal(back.records["directions"][0], near)
    np.testing.assert_array_equal(back.records["counts"], ds.records["counts"])


def test_loader_round_trip_is_bit_identical_at_scale(tmp_path):
    recs = synth_cc_dataset(RHO, 2000, 11).records
    rng = np.random.default_rng(11)
    ds = CCDataset(cc_records(recs["setting_id"], recs["directions"],
                              rng.random((len(recs), 8)) * 1000.0,
                              rng.random(len(recs)) + 0.5), 2.5, "big")
    _saved_lines(tmp_path, ds)
    back = load_cc(tmp_path / "cc.csv")
    assert back.records.tobytes() == ds.records.tobytes()
    assert back.normalization == 2.5 and back.tag == "big"


def test_grouping_is_order_independent():
    ds = small_dataset(12)
    rng = np.random.default_rng(2)
    shuffled = ds.records.copy()
    rng.shuffle(shuffled)
    ds2 = CCDataset(shuffled, ds.normalization, ds.tag)
    blocks, excluded = group_blocks(ds2)
    assert len(blocks) == 12 and excluded == 0
    # dropping one record leaves an incomplete component of 7
    ds3 = CCDataset(ds.records[1:], ds.normalization, ds.tag)
    blocks, excluded = group_blocks(ds3)
    assert len(blocks) == 11 and excluded == 7


def _bfs_blocks(records):
    """Reference grouping: breadth-first search over partner records.

    Returns (blocks as setting-id tuples indexed S1*4 + S2*2 + S3, excluded).
    """
    keys = [tuple(tuple(int(round(x / 1e-6)) for x in u) for u in d)
            for d in records["directions"]]
    patterns = {}
    for idx, k in enumerate(keys):
        for i in range(3):
            patterns.setdefault((i, k[:i] + k[i + 1:]), []).append(idx)
    visited = [False] * len(keys)
    blocks, excluded = [], 0
    for start in range(len(keys)):
        if visited[start]:
            continue
        comp, queue = [start], [start]
        visited[start] = True
        while queue:
            cur = queue.pop()
            for i in range(3):
                for other in patterns[(i, keys[cur][:i] + keys[cur][i + 1:])]:
                    if not visited[other]:
                        visited[other] = True
                        comp.append(other)
                        queue.append(other)
        party_keys = [sorted({keys[j][i] for j in comp}) for i in range(3)]
        combos = {tuple(pk.index(keys[j][i]) for i, pk in enumerate(party_keys)): j
                  for j in comp}
        if len(comp) == 8 and all(len(pk) == 2 for pk in party_keys) \
                and len(combos) == 8:
            blocks.append(tuple(int(records["setting_id"][combos[s]])
                                for s in np.ndindex(2, 2, 2)))
        else:
            excluded += len(comp)
    return blocks, excluded


def _edited(ds, edit):
    recs = ds.records.copy()
    edit(recs)
    return CCDataset(recs, ds.normalization, ds.tag)


def _third_direction(recs):
    # setting 3's first party turns to a new direction: its block has three there
    recs["directions"][3, 0] = [0.0, 0.6, 0.8]


def _chained(recs):
    # block 1 takes block 0's S2=0 and S3=0 directions for parties 2 and 3,
    # so its (., 0, 0) settings share both with block 0's
    for s in range(8):
        if not s & 2:
            recs["directions"][8 + s, 1] = recs["directions"][0, 1]
        if not s & 1:
            recs["directions"][8 + s, 2] = recs["directions"][0, 2]


def _repeated_setting(recs):
    # setting 1 measures along setting 0's directions: its block has 7 combinations
    recs["directions"][1] = recs["directions"][0]


def test_group_blocks_matches_reference_bfs():
    ds = small_dataset(12)
    rng = np.random.default_rng(7)
    ninth = cc_records([999], ds.records["directions"][:1], np.ones((1, 8)))
    cases = {
        "shuffled": _edited(ds, rng.shuffle),
        "dropped": CCDataset(ds.records[np.arange(len(ds.records)) != 13]),
        "third direction": _edited(ds, _third_direction),
        "chained": _edited(ds, _chained),
        "chained and shuffled": _edited(ds, lambda r: (_chained(r), rng.shuffle(r))),
        "repeated setting": _edited(ds, _repeated_setting),
        # a ninth record at block 0's first setting: all 8 combinations, 9 records
        "extra record": CCDataset(np.concatenate([ds.records, ninth])),
    }
    expected_excluded = {"shuffled": 0, "dropped": 7, "third direction": 8,
                         "chained": 16, "chained and shuffled": 16,
                         "repeated setting": 8, "extra record": 9}
    for name, case in cases.items():
        blocks, excluded = group_blocks(case)
        got = [tuple(int(x) for x in case.records["setting_id"][b]) for b in blocks]
        assert (got, excluded) == _bfs_blocks(case.records), name
        assert excluded == expected_excluded[name], name
        assert len(blocks) == (len(case.records) - excluded) // 8, name


def test_block_tables_are_normalized_probabilities():
    ds = small_dataset(8, scale=4000.0)
    blocks, _ = group_blocks(ds)
    for t in behavior_tables(ds.records, blocks):
        assert t.min() >= -1e-12
        np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-12)


def test_pv_cc_matches_direct_estimator():
    n = 200
    seed = 31
    ds = synth_cc_dataset(RHO, n, seed)
    res = pv_cc(ds, ISET)
    est = estimate_pv(RHO, ISET, n, seed)
    assert res.estimate.p_v == est.p_v
    assert res.estimate.violations == est.violations
    assert res.interval_low <= res.estimate.p_v <= res.interval_high
    assert res.n_blocks == n and res.n_excluded_records == 0


def test_mix_identity_and_independence():
    state = normalize_cc(small_dataset(6, scale=4000.0))
    basis = [normalize_cc(b) for b in synth_basis_datasets(6, 5, scale=4000.0)]
    same = mix_counts(state, basis, 1.0)
    np.testing.assert_array_equal(same.records["counts"], state.records["counts"])
    other = normalize_cc(synth_cc_dataset(werner_like(0.4, 0.5, 3), 6, 5,
                                          scale=4000.0))
    n1 = mix_counts(state, basis, 0.0)
    n2 = mix_counts(other, basis, 0.0)
    np.testing.assert_allclose(n1.records["counts"], n2.records["counts"], atol=1e-15)


def test_block_i_max_independent_of_dataset_length():
    """A block's Bell value has the same bits in every prefix of its dataset."""
    ds = synth_cc_dataset(werner_like(np.pi / 4, 0.9, 3), 300, 1)

    def block_values(n_blocks):
        prefix = CCDataset(ds.records[:8 * n_blocks])
        blocks, excluded = group_blocks(prefix)
        assert len(blocks) == n_blocks and excluded == 0
        flat = behavior_tables(prefix.records, blocks).reshape(n_blocks, 64)
        return prefix, i_max(flat, ISET.w_matrix)

    _, whole = block_values(300)
    for n_blocks in (17, 64, 100):
        prefix, values = block_values(n_blocks)
        assert values.tobytes() == whole[:n_blocks].tobytes(), n_blocks
        result = pv_cc(prefix, ISET, margin=1e-3)
        assert result.estimate.violations == np.count_nonzero(values > 1.0)
        assert result.interval_low == np.count_nonzero(values > 1.0 + 1e-3) / n_blocks
        assert result.interval_high == np.count_nonzero(values > 1.0 - 1e-3) / n_blocks


def test_mix_affine_in_visibility():
    """Correlators and Bell values respond affinely to the mixing weight."""
    state = normalize_cc(small_dataset(5, scale=4000.0))
    basis = [normalize_cc(b) for b in synth_basis_datasets(5, 5, scale=4000.0)]

    def imax(vc):
        mixed = mix_counts(state, basis, vc)
        blocks, _ = group_blocks(mixed)
        flat = behavior_tables(mixed.records, blocks).reshape(len(blocks), 64)
        return (flat @ ISET.w_matrix.T).max(axis=1)

    i0, ih, i1 = imax(0.0), imax(0.5), imax(1.0)
    np.testing.assert_allclose(ih, 0.5 * (i0 + i1), atol=1e-12)


def test_mix_rejects_misaligned_bases():
    state = normalize_cc(small_dataset(4))
    basis = [normalize_cc(b) for b in synth_basis_datasets(4, 5)]
    with pytest.raises(ParameterError):
        mix_counts(state, basis[:7], 0.5)
    shifted = [normalize_cc(b) for b in synth_basis_datasets(4, 6)]  # other seed
    with pytest.raises(ParameterError):
        mix_counts(state, shifted, 0.5)
    with pytest.raises(ParameterError):
        mix_counts(state, basis, 1.5)


def test_poisson_resample_total_counts():
    """Poisson spread of a single 100-count record: std 10 within 0.5."""
    u = np.eye(3)[None]
    rec = cc_records([0], u, np.full((1, 8), 12.5))
    with pytest.raises(ParameterError):
        poisson_resample(CCDataset(rec), "total_counts", 100, 1)
    rec = cc_records([0], u, [[13, 12, 13, 12, 13, 12, 13, 12]])
    mean, std = poisson_resample(CCDataset(rec), "total_counts", 10_000, 1)
    assert abs(mean - 100.0) < 0.5
    assert abs(std - 10.0) < 0.5


def test_poisson_resample_is_seeded():
    ds = add_poisson_noise(small_dataset(10, scale=500.0), seed=3)
    a = poisson_resample(ds, "pv_cc", 5, 11, iset=ISET)
    b = poisson_resample(ds, "pv_cc", 5, 11, iset=ISET)
    assert a == b
    c = poisson_resample(ds, "pv_cc", 5, 12, iset=ISET)
    assert a != c or a[1] == c[1] == 0.0


def test_poisson_resample_pv_cc_adds_block_sampling():
    """pv_cc std is count noise plus block sampling, in quadrature."""
    iset = expand_relabelings([mermin()])  # violations on a handful of blocks
    ds = add_poisson_noise(small_dataset(10, scale=500.0), seed=3)
    assert pv_cc(ds, iset).estimate.violations > 0
    res = poisson_resample(ds, "pv_cc", 8, 11, iset=iset)
    assert res == (res.mean, res.std)
    assert res.std_poisson > 0 and res.std_sampling > 0
    assert math.isclose(res.std ** 2, res.std_poisson ** 2 + res.std_sampling ** 2,
                        rel_tol=1e-12)
    # the Poisson part is the spread of p_V itself over the same redraws
    p_only = _poisson_only_reference(ds, lambda d: pv_cc(d, iset).estimate.p_v, 8, 11)
    assert p_only == (res.mean, res.std_poisson)


def _poisson_only_reference(ds, fn, trials, seed):
    values = []
    for t in range(trials):
        gen = _rng.generator(seed, "poisson", t)
        recs = ds.records.copy()
        for counts in recs["counts"]:  # one draw per record, in record order
            counts[...] = gen.poisson(counts)
        values.append(fn(CCDataset(recs, ds.normalization, ds.tag)))
    values = np.array(values)
    return float(values.mean()), float(values.std(ddof=1))


def test_poisson_resample_without_blocks_is_poisson_only():
    ds = add_poisson_noise(small_dataset(4, scale=1000.0), seed=9)
    res = poisson_resample(ds, "total_counts", 50, 4)
    assert res.std_sampling is None and res.std == res.std_poisson
    assert res == _poisson_only_reference(ds, CCDataset.total_counts, 50, 4)


def test_poisson_resample_custom_statistic():
    """Only the named statistics are resampled: a callable is refused."""
    ds = add_poisson_noise(small_dataset(4, scale=1000.0), seed=9)
    with pytest.raises(ParameterError, match="unknown statistic"):
        poisson_resample(ds, lambda d: d.records["counts"][0, 0], 10, 2)
    with pytest.raises(ParameterError):
        poisson_resample(ds, "pv_cc", 1, 2, iset=ISET)
    with pytest.raises(ParameterError, match="unknown statistic 'nosuch'"):
        poisson_resample(ds, "nosuch", 10, 2)


def test_add_poisson_noise_preserves_structure():
    ds = small_dataset(6, scale=4000.0)
    noisy = add_poisson_noise(ds, seed=21)
    assert noisy.tag.endswith(":poisson")
    assert len(noisy.records) == len(ds.records)
    total = ds.total_counts()
    assert abs(noisy.total_counts() - total) < 6 * math.sqrt(total)
    again = add_poisson_noise(ds, seed=21)
    np.testing.assert_array_equal(noisy.records["counts"], again.records["counts"])


def test_synth_basis_datasets_are_deterministic_projections():
    basis = synth_basis_datasets(3, seed=5)
    assert len(basis) == 8
    for ds in basis:
        counts = ds.records["counts"]
        np.testing.assert_allclose(counts.sum(axis=1), 1.0, atol=1e-12)
        assert counts.min() >= -1e-15


def test_dataset_validation():
    u = np.eye(3)[None]
    with pytest.raises(ParameterError):
        CCDataset(cc_records([], np.empty((0, 3, 3)), np.empty((0, 8))))
    rec = cc_records([0], u, np.ones((1, 8)))
    with pytest.raises(ParameterError):
        CCDataset(np.concatenate([rec, cc_records([0], u, np.ones((1, 8)))]))
    with pytest.raises(ParameterError):
        cc_records([1], u, np.ones((1, 7)))
    with pytest.raises(ParameterError, match="setting 2: non-unit projection direction"):
        CCDataset(cc_records([2], u * 2, np.ones((1, 8))))
    with pytest.raises(ParameterError):
        pv_cc(CCDataset(rec), default_set(2))
    with pytest.raises(ParameterError, match="setting 3: negative count"):
        CCDataset(cc_records([3], u, -np.ones((1, 8))))
    for bad in (np.nan, np.inf, -np.inf):
        counts = np.ones((1, 8))
        counts[0, 5] = bad
        with pytest.raises(ParameterError, match="setting 3: non-finite count"):
            CCDataset(cc_records([3], u, counts))
    for bad in (0.0, -1.0):
        with pytest.raises(ParameterError, match="setting 4: non-positive duration"):
            CCDataset(cc_records([4], u, np.ones((1, 8)), bad))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ParameterError, match="setting 4: non-finite duration"):
            CCDataset(cc_records([4], u, np.ones((1, 8)), bad))
    with pytest.raises(ParameterError):
        CCDataset([rec])  # a list is not a record table
    table = CCDataset(rec).records
    with pytest.raises(ValueError):
        table["counts"][0, 0] = 2.0  # read-only


# a value fault of setting 3 as {CSV column: text}; a count is edited on the
# row of outcome 5 only, a duration or direction on all of the setting's rows
VALUE_FAULTS = {
    "non-finite count": {13: "nan"},
    "negative count": {13: "-1"},
    "non-finite duration": {14: "inf"},
    "non-positive duration": {14: "0"},
    "non-unit projection direction": {1: "1", 2: "1", 3: "0"},
}


@pytest.mark.parametrize("message", sorted(VALUE_FAULTS))
def test_value_faults_read_the_same_in_tables_and_files(tmp_path, message):
    ds = small_dataset(2)
    p = tmp_path / "cc.csv"
    save_cc(ds, p)
    lines = p.read_text().splitlines()
    recs = ds.records.copy()
    edits = VALUE_FAULTS[message]
    # setting 3's rows are list indices 25..32, outcome r at 25 + r
    rows = [30] if 13 in edits else range(25, 33)
    for col, text in edits.items():
        for row in rows:
            _set_field(lines, row, col, text)
        if col == 13:
            recs["counts"][3, 5] = float(text)
        elif col == 14:
            recs["duration_s"][3] = float(text)
        else:
            recs["directions"][3].flat[col - 1] = float(text)
    with pytest.raises(ParameterError) as exc:
        CCDataset(recs)
    assert str(exc.value) == f"setting 3: {message}"
    err = _rejected_line(tmp_path, lines, lambda L: None)
    line = rows[0] + 1
    assert (err.line, str(err)) == (line, f"line {line}: {tmp_path / 'bad.csv'}: {message}")


def test_directions_are_unit_within_dir_tol():
    u = np.eye(3)[None]
    CCDataset(cc_records([0], u * (1 + 1e-7), np.ones((1, 8))))
    with pytest.raises(ParameterError, match="setting 0: non-unit projection direction"):
        CCDataset(cc_records([0], u * (1 + 1e-5), np.ones((1, 8))))


def test_rounded_directions_load_and_give_the_same_blocks(tmp_path):
    """A file whose directions carry 7 significant digits gives the exact file's p_V."""
    iset = expand_relabelings([mermin()])
    exact = tmp_path / "exact.csv"
    save_cc(small_dataset(10), exact)
    lines = exact.read_text().splitlines()
    for k in range(1, len(lines)):
        fields = lines[k].split(",")
        fields[1:10] = [f"{float(x):.7g}" for x in fields[1:10]]
        lines[k] = ",".join(fields)
    rounded = tmp_path / "rounded.csv"
    rounded.write_text("\n".join(lines) + "\n")
    norms = np.linalg.norm(load_cc(rounded).records["directions"], axis=2)
    assert 1e-9 < np.max(np.abs(norms - 1.0)) < 1e-6
    a, b = pv_cc(load_cc(exact), iset), pv_cc(load_cc(rounded), iset)
    assert a.estimate.violations > 0
    assert (b.estimate.violations, b.n_blocks, b.n_excluded_records) == \
        (a.estimate.violations, a.n_blocks, a.n_excluded_records)


def test_margin_must_be_a_number_at_least_zero():
    ds = small_dataset(4)
    for bad in (-0.01, float("nan")):
        with pytest.raises(ParameterError, match="margin must be >= 0"):
            pv_cc(ds, ISET, margin=bad)


def test_loader_file_errors(tmp_path):
    with pytest.raises(MissingDataError, match="no such coincidence-count file"):
        load_cc(tmp_path / "missing.csv")
    p = tmp_path / "cc.csv"
    save_cc(small_dataset(2), p)
    lines = p.read_bytes().split(b"\n")
    lines[4] = lines[4].replace(b",", b",\xff", 1)
    p.write_bytes(b"\n".join(lines))
    with pytest.raises(ParseError, match="line 5: .*coincidence-count file is not UTF-8"):
        load_cc(p)
