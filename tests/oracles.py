"""Dense oracles of the symplectic structure for the tests.

The library never forms J, the adjoint of a whole matrix or the dense
matrix of a transform; these exact definitions are what its results are
checked against.  One reference keeps an older arithmetic whose rounding
the library must still match.
"""

import numpy as np

from symhess import SymplecticTransform, TransformGivens, TransformSH


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


def densify(t) -> np.ndarray:
    """The explicit 2n-by-2n matrix of a transform record."""
    if not isinstance(t, SymplecticTransform):
        raise TypeError(f"not a symplectic transform: {type(t).__name__}")
    n = t.n
    out = np.eye(2 * n)
    if t.is_identity:
        return out
    if isinstance(t, TransformSH):
        v = np.zeros(2 * n)
        v[t.offset:n] = t.u
        v[n + t.offset:] = t.w
        vj = np.concatenate((-v[n:], v[:n]))  # row vector v^T J
        out += t.c * np.outer(v, vj)
    elif isinstance(t, TransformGivens):
        i = np.arange(t.k0 - 1, t.k0 - 1 + t.c.size)
        out[i, i] = out[i + n, i + n] = t.c
        out[i, i + n] = t.s
        out[i + n, i] = -t.s
    else:
        p = np.eye(t.w.size) - t.beta * np.outer(t.w, t.w)
        out[t.k - 1:n, t.k - 1:n] = p
        out[n + t.k - 1:, n + t.k - 1:] = p
    return out


def adjoint_record(t):
    """The record of T^J: I - c v v^J for T = I + c v v^J, the rotations
    by (c, -s), and a reflector itself (symmetric and orthogonal)."""
    if isinstance(t, TransformSH):
        return TransformSH(-t.c, t.u, t.w, t.offset, t.n)
    if isinstance(t, TransformGivens):
        return TransformGivens(t.k0, t.c, -t.s, t.n)
    return t


def right_adjoint_reference(t, m) -> None:
    """In-place M <- M T^J by the right-apply arithmetic the library used
    before its right apply ran the left arithmetic on M^T, kept as the
    reference that pins its rounding, signs of zero included.

    The library rotates a tall M in row blocks; a Givens rotation is
    elementwise, so the blocks do not change its rounding and are left out.
    """
    n = t.n
    if t.is_identity:
        return
    if isinstance(t, TransformSH):
        # M T^J = M - c (M v) (v^T J), and v^T J = [-w, u] on the support.
        up = slice(t.offset, n)
        lo = slice(n + t.offset, 2 * n)
        mv = m[:, up] @ t.u + m[:, lo] @ t.w
        m[:, up] += t.c * (mv[:, None] * t.w)
        m[:, lo] -= t.c * (mv[:, None] * t.u)
    elif isinstance(t, TransformGivens):
        k = t.k0 - 1
        x, y = m[:, k:k + t.c.size], m[:, n + k:n + k + t.c.size]
        sy = t.s * y
        sx = -t.s * x
        x *= t.c
        x += sy
        y *= t.c
        y += sx
    else:
        for block in (slice(t.k - 1, n), slice(n + t.k - 1, 2 * n)):
            m[:, block] -= t.beta * ((m[:, block] @ t.w)[:, None] * t.w)
