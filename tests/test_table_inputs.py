"""Property tests of the plain-table inputs the CLI reads.

`rescale` reads a one-column samples file (header `i_max`); `fit refit`
and `fit estimate-theta-v0` read a two-column pairs table (headers
`pv,value` and `v,pv`).  Whatever lines such a file holds, the command
ends in a documented exit code (0, 2, 3 or 4) with at most one line on
stderr; any other exception, a warning included, fails the test.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellent.cli import main

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
    d = tmp_path_factory.mktemp("tables")
    (d / "samples.csv.json").write_text(
        '{"state_tag": "s", "seed": 1, "m": 2, "set_tag": "chsh"}\n')
    return d


def _check_exit(argv) -> None:
    """main(argv) exits 0 silently, or 2, 3 or 4 with one line on stderr."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    assert err.getvalue().count("\n") <= 1 and (code == 0) == (err.getvalue() == "")


@settings(derandomize=True, max_examples=100, deadline=None)
@given(text=_table("i_max", 1))
def test_rescale_samples_file_exits_with_a_documented_code(table_dir, text):
    samples = table_dir / "samples.csv"
    samples.write_text(text)
    _check_exit(["rescale", str(samples), "--v-from", "0.8", "--v-to", "1.0",
           "--v-step", "0.1", "--out", str(table_dir / "curve.csv")])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(text=_table("pv,value", 2), basis=st.sampled_from(["2q", "3q"]))
def test_fit_refit_table_exits_with_a_documented_code(table_dir, text, basis):
    table = table_dir / "pairs.csv"
    table.write_text(text)
    _check_exit(["fit", "refit", "--in", str(table), "--basis", basis])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(text=_table("v,pv", 2))
def test_fit_estimate_table_exits_with_a_documented_code(table_dir, text):
    table = table_dir / "pairs.csv"
    table.write_text(text)
    _check_exit(["fit", "estimate-theta-v0", "--in", str(table)])
