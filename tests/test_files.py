import numpy as np
import pytest

from bellent.errors import ParseError
from bellent.files import read_table, write_table


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
