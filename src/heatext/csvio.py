"""CSV emission: header row mandatory, %.12e floats, LF line endings.

write_csv formats each value with format_value and quotes a field that
holds a comma, a double quote or a line break (RFC 4180); read_csv parses
such fields back with the csv module. Numeric fields never need quotes.

write_table prints large float tables with the same bytes as "%.12e",
vectorised with numpy. For a finite nonzero |x| in [1e-290, 1e290) it
takes e = floor(log10 |x|), corrected by one either way so that
y = |x| * 10**(12 - e) lies in [1e12, 1e13), and prints the digits of
m = rint(y) (10**13 carries into the next decade). The power 10**(12 - e)
is the correctly rounded float("1e<k>"), so y has relative error at most
two half-ulps and absolute error at most 2.2e-3 below 1e13. Wherever
|frac(y) - 0.5| > 5e-3, the exact decimal value of x therefore rounds to
the same m as y does, and m is what Python's correctly rounded "%.12e"
prints. The other values go to Python's own "%.12e": those within the
band (which holds every exact tie, so ties keep Python's round-half-even),
non-finite values and nonzero |x| outside [1e-290, 1e290). ±0.0 prints
from the tables. as_written parses a column printed by the same
formatter, so a value and its CSV cell agree on one rounding rule.

write_table streams each block of columns in bounded memory. Its array
columns are sliced BLOCK_ROWS rows at a time into one (rows x k) table,
whose words go into one word buffer reused for every slice, so a block's
columns are never stacked whole. A scalar (0-d) column, such as a
snapshot's time, is formatted once per block and its words repeat down
the rows. The fallback values of a slice are printed with one join of
their "%.12e" strings, read into the words by one frombuffer.

An Indexed column, values[index], is a lattice coordinate: a few hundred
distinct values repeated down tens of thousands of rows and again in every
snapshot block. write_table formats its values once per table, however
many blocks share the Indexed object, and gathers each slice's words by
index[start:start + rows]. Its state is the five words of each distinct
value, 20 bytes apiece; the words of a whole column are never held, so
the memory stays bounded by the distinct values and BLOCK_ROWS. The same
formatter sees the same floats, so the bytes equal those of the column
values[index] materialised.
"""

import csv
import math
import os
from typing import Iterable, NamedTuple, Sequence

import numpy as np

BLOCK_ROWS = 4096  # rows formatted per slice in write_table


class Indexed(NamedTuple):
    """A write_table column that means values[index]: distinct float values
    and a 1-d integer index into them, one entry per row."""

    values: np.ndarray
    index: np.ndarray


def format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return "%.12e" % v
    return str(v)


def _field(v) -> str:
    text = format_value(v)
    if any(c in text for c in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_field(v) for v in row) + "\n")
    return path


# ------------------------------------------------------------ write_table
#
# A value prints as five 4-byte words, "[-]d.d", "dddd", "dddd", "ddde" and
# "+dd[d]" (NUL-padded), then a separator word; the NULs are dropped once
# per block.

_POW10_MIN = -300          # _POW10[i] is the correctly rounded 10**(i + _POW10_MIN)
_POW10 = np.array([float(f"1e{k}") for k in range(_POW10_MIN, 309)])
_EXP_MAX = 330             # _EXP covers the exponents -_EXP_MAX .. _EXP_MAX


def _digit_rows(width: int):
    """The ASCII rows "0..0" to "9..9" of every width-digit string, in order."""
    ascii = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    return np.stack(np.meshgrid(*[ascii] * width, indexing="ij"), axis=-1).reshape(-1, width)


def _word_tables():
    head = np.zeros((200, 4), np.uint8)            # index: 100 * sign + 10 * lead + d1
    body = np.insert(_digit_rows(2), 1, ord("."), axis=1)
    head[:100, :3] = body
    head[100:, 0] = ord("-")
    head[100:, 1:] = body
    quad = _digit_rows(4)
    triple_e = np.insert(_digit_rows(3), 3, ord("e"), axis=1)
    e = np.arange(-_EXP_MAX, _EXP_MAX + 1)
    exp = np.zeros((len(e), 4), np.uint8)
    exp[:, 0] = np.where(e < 0, ord("-"), ord("+"))
    wide = np.abs(e) >= 100
    exp[wide, 1:] = _digit_rows(3)[np.abs(e[wide])]
    exp[~wide, 1:3] = _digit_rows(2)[np.abs(e[~wide])]
    return tuple(t.view(np.uint32).ravel() for t in (head, quad, triple_e, exp))


_HEAD, _QUAD, _TRIPLE_E, _EXP = _word_tables()
_NEWLINE = np.frombuffer(b"\n\0\0\0", np.uint32)
_VALUE = np.dtype((np.void, 20))  # a value's five words as one item, gathered by one copy


def _decimal(x):
    """Thirteen significant digits of float64 values: (m, e, fast).

    Where fast holds, "%.12e" % x prints the digits of the integer m with
    the point after the first, and the exponent e (m = e = 0 for ±0.0).
    Elsewhere m and e mean nothing and x needs Python's "%.12e".
    """
    a = np.abs(x)
    zero = a == 0.0
    fast = zero | ((a >= 1e-290) & (a < 1e290))
    a = np.where(fast & ~zero, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    y = a * _POW10[12 - e - _POW10_MIN]
    e += (y >= 1e13).astype(np.int64) - (y < 1e12)
    y = a * _POW10[12 - e - _POW10_MIN]
    m = np.rint(y)
    fast &= np.abs(y - np.floor(y) - 0.5) > 5e-3
    carry = m >= 1e13
    m[carry] = 1e12
    e += carry
    m[zero] = 0.0
    e[zero] = 0
    return m.astype(np.int64), e, fast


def _value_words(x):
    """The five words of each value of a 2-d float64 table, shape x.shape + (5,).

    Values off the fast path are printed by Python's "%.12e" with one join
    and one frombuffer for the whole table.
    """
    m, e, fast = _decimal(x)
    lead, rest = np.divmod(m, 10 ** 12)
    words = np.empty(x.shape + (5,), np.uint32)
    words[..., 0] = _HEAD[100 * np.signbit(x) + 10 * lead + rest // 10 ** 11]
    words[..., 1] = _QUAD[rest // 10 ** 7 % 10000]
    words[..., 2] = _QUAD[rest // 1000 % 10000]
    words[..., 3] = _TRIPLE_E[rest % 1000]
    words[..., 4] = _EXP[e + _EXP_MAX]
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = "".join([("%.12e" % v).ljust(20, "\0") for v in x.ravel()[slow].tolist()])
        words.reshape(-1, 5)[slow] = np.frombuffer(text.encode(), np.uint32).reshape(-1, 5)
    return words


def _text(words) -> bytes:
    """The bytes of a word array, its NUL padding dropped."""
    return words.tobytes().translate(None, b"\0")


def write_table(path: str, header: Sequence[str], blocks: Iterable[Sequence]) -> str:
    """Write a table of floats, byte for byte as write_csv would.

    Each block is a sequence of columns: arrays of one length, Indexed
    columns values[index] whose index has that length, or scalars
    repeated down it (a block of scalars alone is one row). The array
    columns are formatted BLOCK_ROWS rows at a time into one reused word
    buffer, each scalar once per block, and each Indexed column's values
    once per table, its rows gathered from their words (see the module
    docstring). The memory held grows with neither the length of a block
    nor the number of blocks, only with the distinct values of the
    Indexed columns, 20 bytes each.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    sep = np.frombuffer(b",\0\0\0" * (len(header) - 1) + b"\n\0\0\0", np.uint32)
    words = np.empty((0, len(header), 6), np.uint32)
    formatted = {}  # id of an Indexed column -> (the column, its values' words)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for block in blocks:
            columns = [c if isinstance(c, Indexed) else np.asarray(c, dtype=float)
                       for c in block]
            shapes = [np.shape(c.index) if isinstance(c, Indexed) else c.shape
                      for c in columns]
            shape = np.broadcast_shapes(*shapes)
            n = shape[0] if shape else 1
            if len(words) < min(n, BLOCK_ROWS):
                words = np.empty((min(n, BLOCK_ROWS), len(header), 6), np.uint32)
                words[..., 5] = sep
            floats = [(j, c) for j, c in enumerate(columns) if not isinstance(c, Indexed)]
            scalar_cols = [j for j, c in floats if c.ndim == 0]
            array_cols = [j for j, c in floats if c.ndim > 0]
            gathered = []  # (column number, words of its values, its index)
            for j, c in enumerate(columns):
                if isinstance(c, Indexed):
                    if id(c) not in formatted:
                        values = np.asarray(c.values, dtype=float).reshape(-1, 1)
                        formatted[id(c)] = c, _value_words(values).view(_VALUE).ravel()
                    gathered.append((j, formatted[id(c)][1], np.broadcast_to(c.index, shape)))
            if scalar_cols and n:
                row = np.array([columns[j] for j in scalar_cols]).reshape(1, -1)
                words[:n, scalar_cols, :5] = _value_words(row)
            arrays = [np.broadcast_to(columns[j], shape) for j in array_cols]
            for start in range(0, n, BLOCK_ROWS):
                r = min(BLOCK_ROWS, n - start)
                if arrays:
                    x = np.stack([c[start:start + r] for c in arrays], axis=1)
                    words[:r, array_cols, :5] = _value_words(x)
                for j, value_words, index in gathered:
                    words[:r, j, :5].view(_VALUE)[:, 0] = value_words[index[start:start + r]]
                fh.write(_text(words[:r]))
    return path


def as_written(values) -> np.ndarray:
    """The floats that a column of values reads back as from write_table."""
    column = np.asarray(values, dtype=float).reshape(-1, 1)
    words = np.empty(column.shape + (6,), np.uint32)
    words[..., :5] = _value_words(column)
    words[..., 5] = _NEWLINE
    return np.array(_text(words).split(), dtype=float)


def read_csv(path: str):
    """Read back a CSV written by write_csv: (header, rows of strings)."""
    with open(path, "r", newline="") as fh:
        lines = [row for row in csv.reader(fh) if row]
    return lines[0], lines[1:]
