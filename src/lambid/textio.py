"""The delimited-text table format shared by every lambid CSV file.

A table file holds optional ``# `` comment lines, then one exact header
line, then comma-joined rows.  A comment ``# key,value`` is metadata: the
key is the text before its first comma and the value everything after it.
Floats are written as ``%.12g`` and every other cell with ``str``.
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = ["write_table", "read_table", "read_floats", "float_columns", "labels"]


def _row_format(cells) -> str:
    """%-format of a row whose cells are the given values or columns."""
    return ",".join(
        "%.12g" if np.asarray(cell).dtype.kind == "f" else "%s" for cell in cells
    )


_CHUNK_ROWS = 4096  # rows converted to Python scalars at a time


def write_table(path, header: str, columns, comments=()) -> None:
    """Write equal-length columns row by row under the header.

    Each comment is a sequence of cells, written comma-joined after ``# ``.
    Array columns are formatted from Python scalars, a chunk of rows at a
    time; their text is the same as from numpy scalars, only faster.
    """
    row_format = _row_format(columns) + "\n"
    n_rows = min(map(len, columns), default=0)
    with open(path, "w") as fh:
        for comment in comments:
            fh.write("# " + _row_format(comment) % tuple(comment) + "\n")
        fh.write(header + "\n")
        for lo in range(0, n_rows, _CHUNK_ROWS):
            chunk = [column[lo:lo + _CHUNK_ROWS] for column in columns]
            fh.writelines(row_format % row for row in zip(*(
                c.tolist() if isinstance(c, np.ndarray) else c for c in chunk)))


def _read_header(fh, path, header: str) -> list[tuple[str, str]]:
    """The metadata before the header line of the open table file, read up
    to and including the header; ValueError where it is missing."""
    meta: list[tuple[str, str]] = []
    while line := fh.readline():
        line = line.strip()
        if line.startswith("#"):
            key, _, value = line.lstrip("# ").partition(",")
            meta.append((key, value))
        elif line == header:
            return meta
        elif line:
            break
    raise ValueError(f"{path}: missing header line {header!r}")


def read_table(path, header: str) -> tuple[list[tuple[str, str]], list[str]]:
    """(metadata, data lines) of a table file.

    metadata lists the (key, value) of every comment before the header, in
    file order.  Blank lines are skipped; a file whose first other line is
    not a comment or the header raises ValueError.
    """
    with open(path) as fh:
        meta = _read_header(fh, path, header)
        return meta, [ln for ln in fh if ln.strip()]


def read_floats(path, header: str, first: int,
                count: int) -> tuple[list[tuple[str, str]], np.ndarray]:
    """(metadata, float_columns(lines, first, count)) of a table file, as
    read_table and float_columns give them, with the data parsed straight
    from the file in one pass.  np.loadtxt rejects a whitespace-only line,
    which a table skips, so a file it rejects is read again line by line."""
    with open(path) as fh:
        meta = _read_header(fh, path, header)
        start = fh.tell()
        try:
            with warnings.catch_warnings():
                # a header-only table is empty, not a warning
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                values = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2,
                                    usecols=range(first, first + count))
        except ValueError:
            fh.seek(start)
            values = float_columns([ln for ln in fh if ln.strip()], first, count)
    return meta, values.reshape(-1, count)


def float_columns(lines: list[str], first: int, count: int) -> np.ndarray:
    """Columns first .. first+count-1 of the data lines as a float array
    [n_lines, count], parsed exactly as float() parses each cell."""
    if not lines:
        return np.empty((0, count))
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                      usecols=range(first, first + count))


def labels(lines: list[str]) -> list[str]:
    """The first (text) column of the data lines."""
    return [line.split(",", 1)[0].strip() for line in lines]
