"""CSV loading, validation diagnostics, and the bundled fixture."""

import numpy as np
import pytest

from spikedcov.data import ParseError, banknote_fixture_path, load_csv


def write(tmp_path, text, name="d.csv"):
    f = tmp_path / name
    f.write_text(text)
    return f


def test_load_basic(tmp_path):
    f = write(tmp_path, "a,b\n1,2\n3.5,-4e2\n")
    ds = load_csv(f)
    assert ds.columns == ("a", "b")
    assert (ds.n, ds.p) == (2, 2)
    np.testing.assert_array_equal(ds.values, [[1.0, 2.0], [3.5, -400.0]])


def test_blank_lines_skipped(tmp_path):
    f = write(tmp_path, "x,y\n\n1,2\n\n\n3,4\n")
    assert load_csv(f).n == 2


def test_ragged_row_names_line_and_counts(tmp_path):
    f = write(tmp_path, "a,b,c\n1,2,3\n1,2\n")
    with pytest.raises(ParseError) as exc:
        load_csv(f)
    assert exc.value.line == 3
    msg = str(exc.value)
    assert "line 3" in msg and "3" in msg and "2" in msg
    assert msg.startswith(f"{f}: line 3: ")


def test_non_numeric_names_column(tmp_path):
    f = write(tmp_path, "u,v\n1,2\n1,oops\n")
    with pytest.raises(ParseError) as exc:
        load_csv(f)
    assert "oops" in str(exc.value)
    assert "'v'" in str(exc.value)
    assert exc.value.line == 3


def test_non_finite_rejected(tmp_path):
    for bad in ("nan", "inf", "-inf"):
        f = write(tmp_path, f"a\n1\n{bad}\n", name=f"{bad.strip('-')}.csv")
        with pytest.raises(ParseError):
            load_csv(f)


def test_empty_and_header_only(tmp_path):
    with pytest.raises(ParseError):
        load_csv(write(tmp_path, "", name="empty.csv"))
    with pytest.raises(ParseError):
        load_csv(write(tmp_path, "a,b\n", name="header.csv"))


def test_round_trip_bit_exact(tmp_path):
    vals = np.array([[0.1, 1e-17, np.pi], [-3.0, 2**-52, 1e300]])
    # repr gives the shortest string that parses back to the same float
    text = "p,q,r\n" + "".join(",".join(repr(float(x)) for x in row) + "\n" for row in vals)
    back = load_csv(write(tmp_path, text, name="rt.csv"))
    assert back.columns == ("p", "q", "r")
    np.testing.assert_array_equal(back.values, vals)  # exact, not approx


def test_fixture_loads():
    path = banknote_fixture_path()
    ds = load_csv(path)
    assert ds.columns == ("L", "R", "B", "T")
    assert (ds.n, ds.p) == (4, 4)
    np.testing.assert_array_equal(ds.values, ds.values.T)  # symmetric matrix
    assert ds.values[0, 0] == 6.41
