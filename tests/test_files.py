import hashlib
import math
import random
from importlib import resources

import numpy as np
import pytest

from bellent import expdata, files
from bellent.bell import load_inequality_file
from bellent.errors import MissingDataError, ParseError
from bellent.expdata import load_cc, save_cc, synth_cc_dataset
from bellent.files import read_lines, read_table, read_text, recording_reads, write_table
from bellent.nlfrac import ViolationSamples, load_violation_samples, save_violation_samples
from bellent.qstate import werner_like


def test_write_table_read_table_round_trip_is_bitwise(tmp_path):
    # longer than one formatting pass, with the extremes of the float range
    rng = np.random.default_rng(5)
    columns = rng.normal(size=(3, 5000)) * 10.0 ** rng.integers(-300, 300, (3, 5000))
    columns[:, :3] = [[-0.0, 5e-324, 1e300], [5e-324, 1e300, -0.0], [1e300, -0.0, 5e-324]]
    p = tmp_path / "table.csv"
    write_table(p, "a,b,c", columns)
    back = read_table(p, "a,b,c", "table")
    assert back.shape == (5000, 3) and back.tobytes() == columns.T.tobytes()


@pytest.mark.parametrize("header, text, line, message", [
    ("v,p", "v,pv\n1,2\n", 1, "expected header 'v,p'"),
    ("v,p", "", 1, "expected header 'v,p'"),
    ("v,p", "v,p\n1,2\n\n3\n", 4, "expected 2 fields, got 1"),
    ("v,p", "v,p\n1,2\n1,2,\n", 3, "expected 2 fields, got 3"),
    ("v,p", "v,p\n1,2,3\n4\n", 2, "expected 2 fields, got 3"),
    ("i_max", "i_max\n1\n2,3\n", 3, "expected 1 fields, got 2"),
    ("v,p", "v,p\n1,2\n1,x\n", 3, "could not convert string to float: 'x'"),
    ("v,p", "v,p\n1,2\n \n1e400,1\n", 4, "non-finite value"),
    ("i_max", "i_max\n\n", None, "no data rows"),
])
def test_read_table_names_the_line_of_each_fault(tmp_path, header, text, line, message):
    p = tmp_path / "table.csv"
    p.write_text(text)
    with pytest.raises(ParseError) as exc:
        read_table(p, header, "table")
    assert exc.value.line == line and str(exc.value).endswith(f"{p}: {message}")


def test_read_table_skips_blank_lines(tmp_path):
    p = tmp_path / "table.csv"
    p.write_text("v,p\n\n1,2\n \n3, 4\n")
    assert read_table(p, "v,p", "table").tolist() == [[1.0, 2.0], [3.0, 4.0]]


# every character at which str.splitlines ends a line, CRLF as one
SEPARATORS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029"]
# field texts of 1 to 4 UTF-8 bytes a character
FIELDS = ["", "0.5", "a", "x,y", " ", "\u00e9", "\u20ac", "\U0001d11e", "-1e-300"]


def _random_text(rng: random.Random) -> str:
    parts = []
    for _ in range(rng.randrange(1, 30)):
        parts.append("".join(rng.choice(FIELDS) for _ in range(rng.randrange(3))))
        parts.append(rng.choice(SEPARATORS))
    if rng.random() < 0.5:  # no final newline
        parts.append(rng.choice(FIELDS[1:]))
    return "".join(parts)


def _joined(path):
    return [line for lines in read_lines(path, "table") for line in lines]


@pytest.mark.parametrize("block", [1, 2, 3, 5, 8])
def test_read_lines_joined_are_the_lines_of_read_text(tmp_path, monkeypatch, block):
    monkeypatch.setattr(files, "_BLOCK_BYTES", block)
    rng = random.Random(block)
    texts = ["", "no final newline", "a\r", "\r\n\r", "a\r\nb\n\u20ac\r\n\U0001d11e"]
    texts += [_random_text(rng) for _ in range(200)]
    split_crlf = split_char = 0
    p = tmp_path / "t.csv"
    for text in texts:
        data = text.encode()
        p.write_bytes(data)
        passes = list(read_lines(p, "table"))
        assert all(passes)
        assert [line for lines in passes for line in lines] == read_text(p, "table").splitlines()
        ends = range(block, len(data), block)
        split_crlf += sum(data[i - 1:i + 1] == b"\r\n" for i in ends)
        split_char += sum(data[i] & 0xC0 == 0x80 for i in ends)  # a continuation byte
    # the cases that a block end makes: a CRLF and a character split across it
    assert split_crlf and split_char


def test_read_lines_logs_the_digest_of_the_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(files, "_BLOCK_BYTES", 7)
    data = _random_text(random.Random(1)).encode() * 20
    p = tmp_path / "t.csv"
    p.write_bytes(data)
    with recording_reads() as (reads, _):
        assert _joined(p) == data.decode().splitlines()
    assert reads == {str(p): hashlib.sha256(data).hexdigest()}
    with recording_reads() as (reads, _):
        read_text(p, "table")
    assert reads == {str(p): hashlib.sha256(data).hexdigest()}


def test_reads_are_hashed_only_inside_a_read_log(tmp_path, monkeypatch):
    samples, counts = tmp_path / "samples.csv", tmp_path / "cc.csv"
    values = _samples_file(samples, n=20_000)
    _count_file(counts)
    with recording_reads() as (reads, _):
        clean = load_cc(counts).records.tobytes()
    # both tables span several read blocks, and their sidecars are read whole
    for path in (samples, counts):
        assert path.stat().st_size > 2 * files._BLOCK_BYTES
    assert reads[str(counts)] == hashlib.sha256(counts.read_bytes()).hexdigest()

    def refuse(*args):
        raise AssertionError("hashed outside a read log")

    monkeypatch.setattr(files.hashlib, "sha256", refuse)
    assert load_violation_samples(samples).values.tobytes() == values.tobytes()
    assert load_cc(counts).records.tobytes() == clean
    monkeypatch.undo()
    with recording_reads() as (reads, _):
        load_violation_samples(samples)
    assert reads == {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in (samples, files.sidecar_path(samples))}


def test_read_lines_refuses_what_read_text_refuses(tmp_path):
    with pytest.raises(MissingDataError, match="no such table"):
        _joined(tmp_path / "missing.csv")
    with pytest.raises(MissingDataError, match="no such table"):
        _joined(tmp_path)
    p = tmp_path / "t.csv"
    p.write_bytes(b"a\n\xe2\x82")  # a character cut short at the end of the file
    with pytest.raises(ParseError, match="table is not UTF-8 text") as exc:
        _joined(p)
    assert exc.value.line == 2


def _samples_file(path, n=3000):
    values = np.linspace(0.25, 1.75, n)
    save_violation_samples(ViolationSamples(values, "s", 1, "set"), path)
    return values


def _count_file(path):
    save_cc(synth_cc_dataset(werner_like(math.pi / 4, 0.9, 3), 12, seed=3, scale=100.0), path)


def _edit_line(path, n, edit):
    """The file with line n (1-based) replaced by edit(line), as bytes."""
    lines = path.read_bytes().split(b"\n")
    lines[n - 1] = edit(lines[n - 1])
    path.write_bytes(b"\n".join(lines))


def _set_field(k, text):
    def edit(line):
        fields = line.split(b",")
        fields[k] = text
        return b",".join(fields)
    return edit


def _not_utf8(line):
    return line[:1] + b"\xff" + line[1:]


# (edit of a line in a late block of 64 bytes, message after the path)
SAMPLES_FAULTS = [
    (_set_field(-1, b"x"), "could not convert string to float: 'x'"),
    (_set_field(-1, b"nan"), "non-finite value"),
    (_not_utf8, "samples file is not UTF-8 text"),
]
COUNT_FAULTS = [
    (_set_field(-1, b"x"), "could not convert string to float: 'x'"),
    (_set_field(-1, b"nan"), "non-finite duration"),
    (_set_field(10, b"2"), "outcome bits must be 0 or 1"),
    (_not_utf8, "coincidence-count file is not UTF-8 text"),
    # a row that the column passes take, refused by the value checks
    (_set_field(13, b"-1"), "negative count"),
]


def _refuse_whole_tables(monkeypatch):
    """Let `read_text` read only JSON sidecars: a table is read in passes alone."""
    def read_json_only(path, what):
        assert str(path).endswith(".json"), f"{path} was read whole"
        return read_text(path, what)
    for module in (files, expdata):  # and any loader that imports it by name
        monkeypatch.setattr(module, "read_text", read_json_only, raising=False)


@pytest.mark.parametrize("edit, message", SAMPLES_FAULTS)
def test_a_late_fault_in_a_samples_file_names_its_line(tmp_path, monkeypatch, edit, message):
    monkeypatch.setattr(files, "_BLOCK_BYTES", 64)
    _refuse_whole_tables(monkeypatch)
    p = tmp_path / "samples.csv"
    for blank in (False, True):  # a blank line before the fault
        _samples_file(p)
        _edit_line(p, 2900, edit)
        if blank:
            _edit_line(p, 3, lambda line: b"\n" + line)
        with pytest.raises(ParseError) as exc:
            load_violation_samples(p)
        assert exc.value.line == 2900 + blank
        assert str(exc.value).endswith(f"{p}: {message}")


@pytest.mark.parametrize("edit, message", COUNT_FAULTS)
def test_a_late_fault_in_a_count_file_names_its_line(tmp_path, monkeypatch, edit, message):
    monkeypatch.setattr(files, "_BLOCK_BYTES", 64)
    _refuse_whole_tables(monkeypatch)
    p = tmp_path / "cc.csv"
    for blank in (False, True):  # a blank line before the fault
        _count_file(p)
        _edit_line(p, 90, edit)
        if blank:
            _edit_line(p, 3, lambda line: b"\n" + line)
        with pytest.raises(ParseError) as exc:
            load_cc(p)
        assert exc.value.line == 90 + blank
        assert str(exc.value).endswith(f"{p}: {message}")


def _bit_1_0(line):
    fields = line.split(b",")
    assert fields[12] == b"1"
    fields[12] = b"1.0"
    return b",".join(fields)


def test_a_late_walked_pass_reads_as_the_clean_file(tmp_path, monkeypatch):
    # a blank line, and a bit written 1.0, send a late pass to the row walk;
    # CRLF ends read as LF, and the read log holds the digest of the bytes
    monkeypatch.setattr(files, "_BLOCK_BYTES", 64)
    _refuse_whole_tables(monkeypatch)
    samples, counts = tmp_path / "samples.csv", tmp_path / "cc.csv"
    values = _samples_file(samples)
    _count_file(counts)
    clean = load_cc(counts).records.tobytes()
    _edit_line(counts, 95, _bit_1_0)  # outcome 5: bits 1, 0, 1
    for path, line in ((samples, 2900), (counts, 90)):
        _edit_line(path, line, lambda text: b"\n" + text)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    with recording_reads() as (reads, _):
        assert load_violation_samples(samples).values.tobytes() == values.tobytes()
        assert load_cc(counts).records.tobytes() == clean
    for path in (samples, counts):
        assert reads[str(path)] == hashlib.sha256(path.read_bytes()).hexdigest()


def _prefix(text):
    return lambda line: text + line


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
def test_a_non_utf8_byte_is_named_on_the_line_of_other_faults(tmp_path, monkeypatch, end):
    # read in passes (samples and count files) or whole (an inequality file),
    # a bad byte is named on the line that a bad value on it would be
    monkeypatch.setattr(files, "_BLOCK_BYTES", 64)
    samples, counts = tmp_path / "samples.csv", tmp_path / "cc.csv"
    ineq = tmp_path / "ineq.bellineq"
    _samples_file(samples)
    _count_file(counts)
    ineq.write_bytes(resources.files("bellent").joinpath("data/chsh.bellineq").read_bytes())
    for path, line, load in ((samples, 2900, load_violation_samples), (counts, 90, load_cc),
                             (ineq, 12, load_inequality_file)):
        lines = path.read_bytes().splitlines()
        for edit in (_not_utf8, _prefix(b"x"), _prefix(b"\xff")):
            edited = lines[:line - 1] + [edit(lines[line - 1])] + lines[line:]
            path.write_bytes(end.join(edited) + end)
            with pytest.raises(ParseError) as exc:
                load(path)
            assert exc.value.line == line, (path.name, edit, exc.value)
    # a short samples file, read whole and in passes
    p = tmp_path / "cr.csv"
    p.write_bytes(b"i_max" + end + b"0.5" + end + b"0.7" + end + b"\xff0.2" + end)
    for read in (lambda: read_text(p, "samples file"), lambda: read_table(p, "i_max", "table")):
        with pytest.raises(ParseError, match="not UTF-8 text") as exc:
            read()
        assert exc.value.line == 4
