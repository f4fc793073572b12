"""Property tests of the plain-table inputs the CLI reads.

`rescale` reads a one-column samples file (header `i_max`); `fit refit`
and `fit estimate-theta-v0` read a two-column pairs table (headers
`pv,value` and `v,pv`); `exp pv` reads a 15-column count file.  Whatever
lines such a file holds, the command ends in a documented exit code (0, 2,
3 or 4) with at most one line on stderr; any other exception, a warning
included, fails the test.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellent.cli import main
from bellent.expdata import save_cc, synth_cc_dataset
from bellent.qstate import werner_like

# a cell that the commands accept, and one that may fail: any float text,
# a non-finite or overflowing value, or a token that is not a number
_GOOD = st.floats(0.0, 30.0).map(repr)
_BAD = st.floats(allow_nan=False).map(repr) | st.sampled_from(
    ["nan", "inf", "-inf", "1e400", "-0", "", " ", "x", "1.2.3", "0x10"])


@st.composite
def _table(draw, header, width):
    """The text of a table with `header` and rows of `width` numbers.

    One table in three is well formed.  In the others each line may be
    faulty: a wrong header, a row with an extra cell or comma, a missing
    cell, or a cell from `_BAD`.  Blank lines appear in either.
    """
    faulty = draw(st.integers(0, 2)) > 0

    def fault():
        return faulty and draw(st.integers(0, 3)) == 0

    lines = [draw(st.text(max_size=8)) if fault() else header]
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        cells = draw(st.lists(_GOOD, min_size=width, max_size=width))
        if fault():
            kind = draw(st.integers(0, 2))
            if kind == 0:
                cells.append(draw(_GOOD | st.just("")))
            elif kind == 1:
                cells.pop()
            else:
                cells[draw(st.integers(0, width - 1))] = draw(_BAD)
        lines.append(",".join(cells))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tables")


def _refuse_constant(name):
    raise AssertionError(f"{name} in a JSON result")


def _check_exit(argv) -> None:
    """main(argv) exits 0 silently, with standard JSON if any, or 2, 3 or 4
    with one line on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    assert err.getvalue().count("\n") <= 1 and (code == 0) == (err.getvalue() == "")
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=_refuse_constant)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(text=_table("i_max", 1))
def test_rescale_samples_file_exits_with_a_documented_code(table_dir, text):
    samples = table_dir / "samples.csv"
    samples.write_text(text)
    # the sidecar's "m" is the table's count of non-blank rows, so a
    # well-formed table loads
    m = sum(1 for line in text.splitlines()[1:] if line.strip())
    (table_dir / "samples.csv.json").write_text(
        json.dumps({"state_tag": "s", "seed": 1, "m": m, "set_tag": "chsh"}))
    _check_exit(["rescale", str(samples), "--v-from", "0.8", "--v-to", "1.0",
           "--v-step", "0.1", "--out", str(table_dir / "curve.csv")])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(text=_table("pv,value", 2), basis=st.sampled_from(["2q", "3q"]))
# finite rows whose least squares overflows
@example(text="pv,value\n1,1e308\n2,-1e308\n3,1e308\n4,-1e308\n5,1\n", basis="2q")
def test_fit_refit_table_exits_with_a_documented_code(table_dir, text, basis):
    table = table_dir / "pairs.csv"
    table.write_text(text)
    _check_exit(["fit", "refit", "--in", str(table), "--basis", basis])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(text=_table("v,pv", 2))
# finite rows whose residual overflows
@example(text="v,pv\n0.9,1e308\n0.8,2\n0.7,3\n")
def test_fit_estimate_table_exits_with_a_documented_code(table_dir, text):
    table = table_dir / "pairs.csv"
    table.write_text(text)
    _check_exit(["fit", "estimate-theta-v0", "--in", str(table)])


# cells a count-file row may get in place of its own, by column: the
# setting id, a direction component, an outcome bit, the count, the duration
_CC_BAD_CELLS = {
    0: ["9223372036854775808", "-9223372036854775809", "1.5", "x", ""],
    1: ["2", "0.5", "nan", "inf", "1e400", "x"],
    11: ["2", "-1", "0.5", "x"],
    13: ["nan", "-1", "inf", "-0", "1e400", "x"],
    14: ["2", "0", "-1", "nan", "x"],
}


@pytest.fixture(scope="module")
def cc_lines(table_dir):
    """The lines of a one-block count file: a header, then 8 rows per setting."""
    cc = table_dir / "cc.csv"
    save_cc(synth_cc_dataset(werner_like(np.pi / 4, 0.9, 3), 1, seed=1, scale=100.0), cc)
    return cc.read_text().splitlines()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_exp_pv_count_file_exits_with_a_documented_code(table_dir, cc_lines, data):
    # one to three rows are faulted once each: a bad cell, a wrong field
    # count, or the copy of another outcome row of its setting; then blank
    # lines go in
    lines = list(cc_lines)
    for row in data.draw(st.lists(st.integers(1, len(lines) - 1), min_size=1, max_size=3,
                                  unique=True)):
        fields = lines[row].split(",")
        kind = data.draw(st.sampled_from(["cell", "extra field", "missing field",
                                          "duplicate outcome"]))
        if kind == "cell":
            column = data.draw(st.sampled_from(sorted(_CC_BAD_CELLS)))
            fields[column] = data.draw(st.sampled_from(_CC_BAD_CELLS[column]))
        elif kind == "extra field":
            fields.append("1")
        elif kind == "missing field":
            fields.pop()
        else:
            first = (row - 1) // 8 * 8 + 1
            fields = lines[data.draw(st.integers(first, first + 7))].split(",")
        lines[row] = ",".join(fields)
    for _ in range(data.draw(st.integers(0, 2))):
        lines.insert(data.draw(st.integers(1, len(lines))),
                     data.draw(st.sampled_from(["", "  ", "\t"])))
    cc = table_dir / "faulted.csv"
    cc.write_text("\n".join(lines) + "\n")
    _check_exit(["exp", "pv", "--in", str(cc)])
