"""The count-file reader and writer against the row-by-row versions they replaced.

`load_cc` parses a file in column passes and walks it row by row only when
a row does not fit them; `save_cc` writes in `%` passes.  The references
below are the row-by-row loader and the per-record writer as they stood
before: every file must load to the same record bytes, or fail with the
same message on the same line, and every dataset must write the same bytes.
"""

from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellent.errors import ParseError
from bellent.expdata import (
    CC_HEADER,
    DIR_TOL,
    CCDataset,
    _value_faults,
    add_poisson_noise,
    cc_records,
    load_cc,
    save_cc,
    synth_cc_dataset,
)
from bellent.files import (data_lines, format_float, json_field, read_json_object, read_text,
                           sidecar_path)
from bellent.qstate import werner_like

_SETTING_IDS = range(np.iinfo(np.int64).min, np.iinfo(np.int64).max + 1)


def _reference_parse(rows):
    head_of, ids, dirs, row_head, tails = {}, [], array("d"), array("q"), array("d")
    message = None
    for row in rows:
        fields = row.rsplit(",", 5)
        head = fields[0]
        k = head_of.get(head)
        try:
            if k is None:
                if head.count(",") != 9:
                    message = f"expected 15 fields, got {row.count(',') + 1}"
                    break
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


def reference_load_cc(path) -> CCDataset:
    """The row-by-row loader: each row's fields converted with float() in turn."""
    lines = read_text(path, "coincidence-count file").splitlines()
    path = Path(path)
    if not lines or lines[0] != CC_HEADER:
        raise ParseError(f"{path}: bad or missing header", line=1)
    head_ids, head_dirs, row_head, tails, stop_msg = _reference_parse(
        filter(str.strip, lines[1:]))
    stop = len(row_head)
    sid, dirs = head_ids[row_head], head_dirs[row_head]
    bits, count, duration = tails[:, :3], tails[:, 3], tails[:, 4]
    outcome = (bits == 1) @ np.array([4, 2, 1])
    ids, first, setting = np.unique(sid, return_index=True, return_inverse=True)
    _, first_key, key = np.unique(setting * 8 + outcome, return_index=True,
                                  return_inverse=True)
    with np.errstate(all="ignore"):
        checks = (
            (~((bits == 0) | (bits == 1)).all(axis=1), "outcome bits must be 0 or 1"),
            *_value_faults(dirs, count[:, None], duration),
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
        raise ParseError(f"{path}: {stop_msg}", line=data_lines(lines)[stop])
    if not len(sid):
        raise ParseError(f"{path}: no data rows")
    tag, norm = path.stem, 1.0
    meta_path = sidecar_path(path)
    if meta_path.is_file():
        meta = read_json_object(meta_path, "file")
        tag = json_field(meta, "tag", str, meta_path, tag)
        norm = json_field(meta, "normalization", float, meta_path, norm)
    counts = np.zeros((len(ids), 8))
    counts[setting, outcome] = count
    return CCDataset(cc_records(ids, dirs[first], counts, duration[first]), norm, tag)


def reference_save_cc(dataset: CCDataset, path) -> None:
    """The per-record writer: one f-string per row, each value through format_float."""
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


def _loaded(load, path):
    """What load(path) gives: the record bytes, normalization and tag, or the error."""
    try:
        ds = load(path)
    except ParseError as exc:
        return "error", str(exc), exc.line
    return "dataset", ds.records.tobytes(), ds.normalization, ds.tag


def _base_datasets():
    """Small datasets to mutate: raw Poisson counts, fractional counts with
    per-setting durations, and setting ids at both ends of int64."""
    rho = werner_like(np.pi / 4, 0.9, 3)
    raw = add_poisson_noise(synth_cc_dataset(rho, 1, seed=3, scale=50.0), seed=4)
    recs = synth_cc_dataset(rho, 2, seed=5).records
    durations = np.repeat([0.5, 1.0 / 3.0, 2.0, 1.5], 4)
    mixed = CCDataset(cc_records(recs["setting_id"], recs["directions"], recs["counts"],
                                 durations), 2.5, "mixed")
    edge = np.iinfo(np.int64)
    ids = [edge.min, edge.min + 1, -1, 0, 7, edge.max - 2, edge.max - 1, edge.max]
    extreme = CCDataset(cc_records(ids, raw.records["directions"], raw.records["counts"]))
    return raw, mixed, extreme


_BASES = _base_datasets()

# text a field may be given in place of its own: numbers in other spellings,
# values a check refuses, and text that is not a number
_CELLS = ["x", "", " ", "nan", "inf", "-inf", "1e400", "-1", "0", "-0", "2", "0.5",
          "1_0", " 1 ", "0x10", "1.0", "+1", "01"]
_IDS = ["9223372036854775807", "-9223372036854775808", "9223372036854775808",
        "-9223372036854775809", " 3", "+3", "03", "3_0", "3.0"]
_BITS = ["1.0", " 1", "0.0", "-0", "1e0", "+1", "01", "1 ", "2", "-1", "nan", "x"]
_DURATIONS = ["2", "1.0", "1", "0.5", "1e0", "0", "-1", "inf", "nan", "x"]


def _respell(text: str, how: int) -> str:
    """The same number as other text (how 0, 1), or a number a little (2) or
    far (3) away; text that is not a number stays as it is."""
    try:
        x = float(text)
    except ValueError:
        return text
    same = text.upper() if "e" in text else f"{text}0" if "." in text else f"{text}.0"
    return (f" {text}", same, repr(x * (1 + 1e-9)), repr(x + 0.25))[how]


_KINDS = ["width", "cell", "id", "id of a setting", "bits", "head", "head of a setting",
          "swap", "duplicate", "duration", "duration of a setting", "blank"]


def _mutated_text(draw, lines) -> str:
    """The text of the file of `lines` after 0-4 faults or respellings, with LF or CRLF ends."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 4))):
        row = draw(st.integers(1, len(lines) - 1))
        fields = lines[row].split(",")
        kind = draw(st.sampled_from(_KINDS))
        if kind == "swap":
            other = draw(st.integers(1, len(lines) - 1))
            lines[row], lines[other] = lines[other], lines[row]
        elif kind == "duplicate":
            lines.insert(draw(st.integers(1, len(lines))), lines[row])
        elif kind == "blank":
            lines.insert(row, draw(st.sampled_from(["", "  ", "\t"])))
        elif kind == "width":
            if draw(st.booleans()):
                fields.append(draw(st.sampled_from(["1", ""])))
            else:
                del fields[draw(st.integers(0, len(fields) - 1))]
            lines[row] = ",".join(fields)
        elif len(fields) != 15:  # the other kinds edit a column of a 15-field row
            continue
        elif kind.endswith("of a setting"):  # one edit to every row of the row's setting
            col, new = {
                "id of a setting": lambda: (0, draw(st.sampled_from(_IDS))),
                "head of a setting": lambda: (c := draw(st.integers(1, 9)), _respell(
                    fields[c], draw(st.integers(0, 3)))),
                "duration of a setting": lambda: (14, draw(st.sampled_from(_DURATIONS))),
            }[kind]()
            for n, line in enumerate(lines):
                cells = line.split(",")
                if n and cells[0] == fields[0] and len(cells) == 15:
                    cells[col] = new
                    lines[n] = ",".join(cells)
        else:
            if kind == "cell":  # one or two cells, so faults meet on a row
                for col in draw(st.lists(st.integers(0, 14), min_size=1, max_size=2)):
                    fields[col] = draw(st.sampled_from(_CELLS + _BITS))
            elif kind == "bits":
                fields[draw(st.integers(10, 12))] = draw(st.sampled_from(_BITS))
            elif kind == "id":
                fields[0] = draw(st.sampled_from(_IDS))
            elif kind == "duration":
                fields[14] = draw(st.sampled_from(_DURATIONS))
            else:
                col = draw(st.integers(1, 9))
                fields[col] = _respell(fields[col], draw(st.integers(0, 3)))
            lines[row] = ",".join(fields)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + end


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The directory of the saved base datasets, and the lines of each file."""
    d = tmp_path_factory.mktemp("cc")
    for k, ds in enumerate(_BASES):
        save_cc(ds, d / f"base{k}.csv")
    return d, [(d / f"base{k}.csv").read_text().splitlines() for k in range(len(_BASES))]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data())
def test_load_cc_reads_every_file_as_the_row_walk_did(saved, data):
    d, base_lines = saved
    base = data.draw(st.integers(0, len(_BASES) - 1))
    p = d / "mutated.csv"
    p.write_bytes(_mutated_text(data.draw, base_lines[base]).encode())
    (d / "mutated.csv.json").write_bytes((d / f"base{base}.csv.json").read_bytes())
    assert _loaded(load_cc, p) == _loaded(reference_load_cc, p)


# (row, column, text) edits whose faults meet on one row, or that put a
# walked row after a faulty one
_MEETING_FAULTS = [
    [(3, 11, "2"), (3, 13, "x")],
    [(3, 11, "2"), (3, 0, "x")],
    [(3, 12, "nan"), (3, 14, "0")],
    [(3, 10, "1.0"), (2, 13, "-1")],
    [(5, 11, "2"), (2, 14, "2")],
    [(4, 12, " 1"), (4, 1, "2")],
]


@pytest.mark.parametrize("edits", _MEETING_FAULTS)
def test_load_cc_reports_meeting_faults_as_the_row_walk_did(saved, edits):
    d, base_lines = saved
    lines = list(base_lines[0])
    for row, col, text in edits:
        fields = lines[row].split(",")
        fields[col] = text
        lines[row] = ",".join(fields)
    p = d / "edited.csv"
    p.write_text("\n".join(lines) + "\n")
    assert _loaded(load_cc, p) == _loaded(reference_load_cc, p)


def test_load_cc_reads_a_walked_file_as_its_clean_copy(tmp_path):
    # a blank line and a bit written 1.0 send the file to the row walk; its
    # CRLF ends are read as LF
    ds = _BASES[1]
    clean, walked = tmp_path / "clean.csv", tmp_path / "walked.csv"
    save_cc(ds, clean)
    lines = clean.read_text().splitlines()
    lines.insert(5, "")
    lines[9] = lines[9].replace(",0,0,1,", ",0,0,1.0,")
    walked.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    assert load_cc(walked).records.tobytes() == load_cc(clean).records.tobytes() \
        == ds.records.tobytes()


def test_save_cc_writes_the_bytes_of_the_per_record_writer(tmp_path):
    # more records than one formatting pass, with the ends of int64 and of the float range
    rng = np.random.default_rng(7)
    n = 1100
    u = rng.normal(size=(n, 3, 3))
    u /= np.linalg.norm(u, axis=2, keepdims=True)
    u[:3] = [[[-0.0, 0.0, 1.0], [0.0, -0.0, -1.0], [-1.0, -0.0, 0.0]]] * 3
    counts = rng.random((n, 8)) * 10.0 ** rng.integers(-3, 6, (n, 8))
    counts[:3] = [[0.0, 1e-300, 1e300, 0.1 + 0.2, 1 / 3, 5e-324, 1.0, 12345678901234567.0]] * 3
    durations = rng.random(n) + 0.5
    durations[:3] = [1e-300, 1e300, 1 / 3]
    edge = np.iinfo(np.int64)
    ids = np.arange(n) - 550  # in order, as load_cc returns them
    ids[[0, 1, -2, -1]] = [edge.min, edge.min + 1, edge.max - 1, edge.max]
    ds = CCDataset(cc_records(ids, u, counts, durations), 0.1 + 0.2, "edges")
    save_cc(ds, tmp_path / "new.csv")
    reference_save_cc(ds, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert load_cc(tmp_path / "new.csv").records.tobytes() == ds.records.tobytes()
