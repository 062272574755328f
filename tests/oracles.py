"""Dense oracles of the symplectic structure for the tests.

The library never forms J or the adjoint of a whole matrix; these exact
definitions are what its results are checked against.
"""

import numpy as np


def _even_half(k: int, what: str) -> int:
    if k % 2:
        raise ValueError(f"{what} must have even size, got {k}")
    return k // 2


def make_j(n: int) -> np.ndarray:
    """The 2n-by-2n matrix with +I in the (1,2) block and -I in the (2,1) block."""
    if n < 1:
        raise ValueError("half-dimension n must be >= 1")
    j = np.zeros((2 * n, 2 * n))
    idx = np.arange(n)
    j[idx, n + idx] = 1.0
    j[n + idx, idx] = -1.0
    return j


def j_inner(x, y) -> float:
    """Skew product x^T J y = sum_i x(i) y(n+i) - x(n+i) y(i), without forming J."""
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.ndim != 1 or yv.ndim != 1 or xv.size != yv.size:
        raise ValueError("x and y must be 1-D vectors of the same length")
    n = _even_half(xv.size, "vector")
    return float(xv[:n] @ yv[n:] - xv[n:] @ yv[:n])


def adjoint_mat(m) -> np.ndarray:
    """Symplectic adjoint of a 2n-by-2k matrix.

    Computed by exact block moves and sign flips, so the result carries no
    rounding error: for M = [[A, B], [C, D]] the adjoint is
    [[D^T, -B^T], [-C^T, A^T]].
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("expected a nonempty 2-D matrix")
    n = _even_half(a.shape[0], "row count")
    k = _even_half(a.shape[1], "column count")
    # C-ordered, as the library's: a product's rounding depends on the layout
    adj = np.empty((2 * k, 2 * n))
    adj[:k, :n] = a[n:, k:].T
    adj[:k, n:] = -a[:n, k:].T
    adj[k:, :n] = -a[n:, :k].T
    adj[k:, n:] = a[:n, :k].T
    return adj
