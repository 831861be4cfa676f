"""write_table's numpy formatter against Python's "%.12e", byte for byte."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatext.csvio import _decimal, as_written, format_value, write_table


def _assert_table_matches_format_value(path, columns):
    header = [f"c{j}" for j in range(len(columns))]
    write_table(str(path), header, [columns])
    want = ",".join(header) + "\n" + "".join(
        ",".join(format_value(float(v)) for v in row) + "\n" for row in zip(*columns))
    with open(path, "rb") as fh:
        assert fh.read() == want.encode()


def _with_neighbours(values):
    x = np.asarray(values, dtype=float)
    return np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


# exact binary values whose fourteenth significant digit is a 5 followed by
# zeros: "%.12e" rounds them half to even
EXACT_TIES = [2.0 ** -20, 2.0 ** -19, 3 * 2.0 ** -19, 1234567890123.5, 9999999999999.5,
              1000000000000.5, 12345678901235.0, 123456789012350.0]


def test_exact_ties_take_the_fallback_and_round_half_even(tmp_path):
    ties = np.array(EXACT_TIES + [-v for v in EXACT_TIES])
    _, _, fast = _decimal(ties)
    assert not fast.any()
    assert format_value(2.0 ** -20) == "9.536743164062e-07"          # down to even
    assert format_value(9999999999999.5) == "1.000000000000e+13"      # up to even
    _assert_table_matches_format_value(tmp_path / "ties.csv", [ties, ties[::-1]])


def test_formatter_edge_cases(tmp_path):
    exps = np.arange(-320, 309, 7)
    near_half = [float(f"1.2345678901235e{k}") for k in exps]     # d.dddddddddddd5 x 10^e
    carries = [float(f"9.9999999999995e{k}") for k in exps]       # carries into e + 1
    decades = [float(f"1e{k}") for k in range(-323, 309)]
    # the nearest doubles to d.dddddddddddd5 x 10^e whose scaled y = |x| 10^(12-e)
    # lands 1.95e-3 and 9.8e-4 from the half on the wrong side: a guard band
    # narrower than the error of y would print them wrongly
    crossers = [9.9143828627995e-153, 6.6892160575015e+210, 8.0265176626005e-38]
    borders = [1e-290, 1e290, 1e-99, 1e99, 1e100, 1e-100]
    three_digit = [1.5e100, 9.87654321e-100, 1.234e250, 5e-200, 2.2250738585072014e-308]
    values = np.concatenate([_with_neighbours(near_half), _with_neighbours(carries),
                             _with_neighbours(decades), _with_neighbours(borders),
                             crossers, three_digit,
                             [0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan]])
    values = np.concatenate([values, -values])
    _assert_table_matches_format_value(tmp_path / "edges.csv", [values, values[::-1]])

    assert not _decimal(np.array(crossers))[2].any()
    _, _, fast = _decimal(np.array([0.0, -0.0, 1e-290, -1e-290, 1e290, 9.9e289]))
    assert fast.tolist() == [True, True, True, True, False, True]
    _, _, fast = _decimal(np.array([np.nextafter(1e-290, 0.0), np.inf, -np.inf, np.nan]))
    assert not fast.any()


def test_most_values_take_the_fast_path():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(10000) * 10.0 ** rng.integers(-200, 200, 10000)
    m, e, fast = _decimal(x)
    assert fast.mean() > 0.98
    assert np.all((m[fast] >= 10 ** 12) & (m[fast] < 10 ** 13))
    assert np.all(e[fast] == [int(("%.12e" % v).split("e")[1]) for v in x[fast]])


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    return tmp_path_factory.mktemp("formatter") / "t.csv"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_write_table_matches_format_value_on_bit_patterns(table_path, bits):
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    _assert_table_matches_format_value(table_path, [x, x[::-1]])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=64))
def test_write_table_matches_format_value_on_floats(table_path, values):
    x = np.array(values, dtype=float)
    _assert_table_matches_format_value(table_path, [x, x[::-1]])


def test_as_written_is_each_value_read_back_through_format_value():
    # as_written parses write_table's own bytes: each value is the float its
    # "%.12e" cell reads back as, sign of zero, ties and non-finite included
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e-290, np.nextafter(1e-290, 0.0),
             1e290, np.nextafter(1e290, 0.0), -1e290, 1.7976931348623157e308,
             -1.7976931348623157e308, np.inf, -np.inf, np.nan, 2.5, -2.5] + EXACT_TIES
    rng = np.random.default_rng(25)
    x = np.concatenate([edges, rng.standard_normal(2000) * 10.0 ** rng.integers(-300, 300, 2000)])
    got = as_written(x)
    want = np.array([float(format_value(float(v))) for v in x])
    assert got.shape == x.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.signbit(as_written([-0.0])[0]) and not np.signbit(as_written([0.0])[0])
    assert as_written(2.5).tolist() == [2.5] and as_written([]).size == 0
