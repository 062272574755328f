"""Plain-text matrix files: a "rows cols" header line, then one line of
whitespace-separated decimal floats per row.

Values are written with 17 significant digits so every finite double
round-trips bit-exactly.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MatrixFormatError", "read_matrix", "write_matrix"]


class MatrixFormatError(ValueError):
    """The file content does not parse as a finite float matrix."""


def write_matrix(path, m) -> None:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    line = " ".join(["%.17g"] * a.shape[1]) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{a.shape[0]} {a.shape[1]}\n")
        for row in a:
            fh.write(line % tuple(row.tolist()))


def read_matrix(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise MatrixFormatError(f"{path}: header must be 'rows cols'")
        try:
            rows, cols = int(header[0]), int(header[1])
        except ValueError as exc:
            raise MatrixFormatError(f"{path}: bad header {header!r}") from exc
        if rows < 1 or cols < 1:
            raise MatrixFormatError(f"{path}: dimensions must be positive")
        tokens = fh.read().split()
    if len(tokens) != rows * cols:
        raise MatrixFormatError(
            f"{path}: expected {rows * cols} values, found {len(tokens)}")
    try:
        data = np.fromiter(map(float, tokens), dtype=np.float64, count=len(tokens))
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: non-numeric token") from exc
    if not np.all(np.isfinite(data)):
        raise MatrixFormatError(f"{path}: entries must be finite")
    return data.reshape(rows, cols)
