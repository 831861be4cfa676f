"""CSV emission: header row mandatory, %.12e floats, LF line endings."""

import math
import os
from typing import Iterable, Sequence

import numpy as np

BLOCK_ROWS = 4096  # rows formatted per string in write_table


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return "%.12e" % v
    return str(v)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_value(v) for v in row) + "\n")
    return path


def write_table(path: str, header: Sequence[str], blocks: Iterable[Sequence]) -> str:
    """Write a table of floats, byte for byte as write_csv would.

    Each block is a sequence of columns: arrays of one length, or scalars
    repeated down it. Rows are formatted BLOCK_ROWS at a time with one
    %.12e row template, which prints inf, -inf and nan as format_value
    does, so the whole table is never held as one string.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    row = ",".join(["%.12e"] * len(header)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for columns in blocks:
            table = np.column_stack(np.broadcast_arrays(
                *(np.asarray(c, dtype=float) for c in columns)))
            for start in range(0, len(table), BLOCK_ROWS):
                chunk = table[start:start + BLOCK_ROWS]
                fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))
    return path


def read_csv(path: str):
    """Read back a CSV written by write_csv: (header, rows of strings)."""
    with open(path, "r") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows
