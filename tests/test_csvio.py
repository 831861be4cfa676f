"""write_table's numpy formatter against Python's "%.12e", byte for byte,
across its row blocks, scalar columns and Indexed columns, and in memory
that does not grow with a block's length."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatext import csvio
from heatext.csvio import BLOCK_ROWS, Indexed, _decimal, as_written, format_value, write_table


def _assert_table_matches_format_value(path, *blocks):
    # each block a list of columns: arrays of one length, or scalars that
    # repeat down the block's rows (a block of scalars alone is one row)
    header = [f"c{j}" for j in range(len(blocks[0]))]
    write_table(str(path), header, blocks)
    want = ",".join(header) + "\n"
    for columns in blocks:
        rows = max((len(c) for c in columns if np.ndim(c)), default=1)
        cells = [np.broadcast_to(np.asarray(c, dtype=float), (rows,)) for c in columns]
        want += "".join(",".join(format_value(float(v)) for v in row) + "\n"
                        for row in zip(*cells))
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


# values that leave the fast path or sit at its edges: the exact ties,
# non-finite values, the smallest subnormal and both 1e+-290 band edges
EDGES = np.array(EXACT_TIES + [-v for v in EXACT_TIES] + [
    np.inf, -np.inf, np.nan, 5e-324, -5e-324, 0.0, -0.0,
    1e-290, np.nextafter(1e-290, 0.0), -1e-290, 1e290, np.nextafter(1e290, 0.0), -1e290])


@pytest.mark.parametrize("rows", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                  2 * BLOCK_ROWS + 3])
def test_write_table_block_lengths_with_a_scalar_column(tmp_path, rows):
    rng = np.random.default_rng(rows)
    x = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    y = rng.standard_normal(rows)
    _assert_table_matches_format_value(
        tmp_path / "blocks.csv", [0.25, x, y], [-1e-7, y, x], [3.0, 4.0, -5.0], [0.5, x, y])


def test_write_table_edge_values_across_a_block_boundary_and_as_scalars(tmp_path):
    rng = np.random.default_rng(27)
    rows = 2 * BLOCK_ROWS + 3
    x, y = rng.standard_normal(rows), rng.standard_normal(rows)
    k = len(EDGES)
    for at in (0, BLOCK_ROWS - k // 2, 2 * BLOCK_ROWS - k, rows - k):
        x[at:at + k] = EDGES
        y[at:at + k] = EDGES[::-1]
    scalar_blocks = [[v, x[:3], y[:3]] for v in EDGES]
    scalar_rows = [list(EDGES[i:i + 3]) for i in range(0, k - 2, 3)]
    _assert_table_matches_format_value(tmp_path / "edges.csv", [EDGES[0], x, y],
                                       *scalar_blocks, *scalar_rows)


def test_write_table_memory_does_not_grow_with_the_block(tmp_path):
    # the snapshot shape: a scalar time beside three node columns; rows are
    # formatted BLOCK_ROWS at a time, so the traced peak of a block four
    # times as long stays within 10%
    def peak(rows):
        rng = np.random.default_rng(rows)
        x, y, u = (rng.standard_normal(rows) for _ in range(3))
        tracemalloc.start()
        try:
            write_table(str(tmp_path / "t.csv"), ["t", "x", "y", "u"], [(1.0, x, y, u)])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    rows = 4 * BLOCK_ROWS
    assert peak(4 * rows) <= 1.1 * peak(rows)


# values off the fast path for the Indexed columns: the EDGES above and
# magnitudes below 1e-290, which Python's "%.12e" prints
OFF_FAST = list(EDGES) + [1e-300, -1e-295, 2.2250738585072014e-308, -5e-324]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                          st.sampled_from(OFF_FAST)), min_size=1, max_size=40),
       st.lists(st.sampled_from([0, 1, 2, BLOCK_ROWS - 1, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1]),
                min_size=1, max_size=4),
       st.integers(0, 2 ** 32 - 1))
def test_indexed_columns_write_the_bytes_of_their_values_materialised(
        table_path, values, lengths, seed):
    # the snapshot shape: a scalar time, two coordinate columns and a value
    # column. Blocks of one length share one Indexed object (as the CLI's
    # snapshots share their lattice columns); each block also has an
    # Indexed of its own, and the lengths cross BLOCK_ROWS or are empty
    rng = np.random.default_rng(seed)
    v = np.array(values)
    shared = {n: Indexed(v, rng.integers(0, v.size, n)) for n in set(lengths)}
    blocks, plain = [], []
    for b, n in enumerate(lengths + lengths[:1]):  # one length repeats
        own = Indexed(v[::-1].copy(), rng.integers(0, v.size, n))
        u = rng.standard_normal(n)
        blocks.append((0.5 * b, shared[n], own, u))
        plain.append((0.5 * b, v[shared[n].index], own.values[own.index], u))
    write_table(str(table_path), ["t", "x", "y", "u"], blocks)
    with open(table_path, "rb") as fh:
        got = fh.read()
    write_table(str(table_path), ["t", "x", "y", "u"], plain)
    with open(table_path, "rb") as fh:
        assert got == fh.read()


def test_an_indexed_column_is_formatted_once_per_table(tmp_path, monkeypatch):
    # five snapshot blocks share two Indexed columns: their values reach
    # the formatter once each, the time once per block and the value
    # column row by row
    seen = []
    value_words = csvio._value_words

    def counting(x):
        seen.append(x.size)
        return value_words(x)

    monkeypatch.setattr(csvio, "_value_words", counting)
    c = np.linspace(-3.0, 3.0, 7)
    I, J = np.nonzero(np.add.outer(c ** 2, c ** 2) > 1.0)
    x, y = Indexed(c, I), Indexed(c[::-1].copy(), J)
    u = np.arange(I.size, dtype=float)
    write_table(str(tmp_path / "t.csv"), ["t", "x", "y", "u"],
                [(float(t), x, y, u) for t in range(5)])
    assert sum(seen) == 2 * c.size + 5 * (1 + I.size)
    want = "t,x,y,u\n" + "".join(
        f"{format_value(float(t))},{format_value(c[i])},{format_value(c[::-1][j])},"
        f"{format_value(w)}\n" for t in range(5) for i, j, w in zip(I, J, u))
    assert (tmp_path / "t.csv").read_bytes() == want.encode()
