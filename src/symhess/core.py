"""Dense linear algebra over the symplectic space R^{2n}.

The space carries the skew-symmetric product (x, y) -> x^T J y with
J = [[0, I], [-I, 0]].  Matrices are plain float64 numpy arrays; every
function validates the even-dimension contract it needs.

``spectral_norm`` is the exact 2-norm from the LAPACK SVD, so the
reduction metrics built on it, ``orth_loss`` = ||I - S^J S||_2 and
``red_err`` = ||H - S^J A S||_2, are exact rather than estimated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "make_j",
    "j_inner",
    "adjoint_mat",
    "symplecticity_residual",
    "spectral_norm",
    "structure_report",
    "StructureReport",
]


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("expected a nonempty 2-D matrix")
    return a


def _even_half(k: int, what: str) -> int:
    if k % 2:
        raise ValueError(f"{what} must have even size, got {k}")
    return k // 2


def _square_half(m: np.ndarray) -> int:
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    return _even_half(m.shape[0], "matrix")


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
    a = _as_matrix(m)
    n = _even_half(a.shape[0], "row count")
    k = _even_half(a.shape[1], "column count")
    out = np.empty((2 * k, 2 * n))
    out[:k, :n] = a[n:, k:].T
    out[:k, n:] = -a[:n, k:].T
    out[k:, :n] = -a[n:, :k].T
    out[k:, n:] = a[:n, :k].T
    return out


def spectral_norm(m) -> float:
    """Largest singular value, exact to rounding (LAPACK SVD).

    Returns nan when ``m`` has a non-finite entry, where the SVD would not
    converge.
    """
    a = _as_matrix(m)
    if not np.all(np.isfinite(a)):
        return float("nan")
    return float(np.linalg.norm(a, 2))


def symplecticity_residual(s) -> float:
    """||S^J S - I||_2; zero exactly when S is symplectic."""
    a = _as_matrix(s)
    _square_half(a)
    g = adjoint_mat(a) @ a
    g[np.diag_indices_from(g)] -= 1.0
    return spectral_norm(g)


@dataclass(frozen=True)
class StructureReport:
    """Per-block verdicts of the upper J-Hessenberg pattern check."""

    h11_max_below_diag: float
    h21_max_below_diag: float
    h22_max_below_diag: float
    h12_max_below_subdiag: float
    is_upper_j_hessenberg: bool
    is_unreduced: bool


def structure_report(h, tol: float) -> StructureReport:
    """Classify a 2n-by-2n matrix against the upper J-Hessenberg pattern.

    The pattern requires the H11, H21 and H22 blocks to be upper triangular
    and H12 to be upper Hessenberg, with off-pattern magnitudes at most
    ``tol``.  ``is_unreduced`` additionally needs every diagonal entry of
    H21 and every subdiagonal entry of H12 to exceed ``tol`` in magnitude.
    """
    a = _as_matrix(h)
    n = _square_half(a)
    if not tol >= 0:  # also refuses nan; inf is allowed
        raise ValueError(f"tol must be nonnegative, got {tol!r}")
    h11, h12 = a[:n, :n], a[:n, n:]
    h21, h22 = a[n:, :n], a[n:, n:]

    def max_below(block: np.ndarray, diag: int) -> float:
        return float(np.max(np.abs(np.tril(block, diag)), initial=0.0))

    m11 = max_below(h11, -1)
    m21 = max_below(h21, -1)
    m22 = max_below(h22, -1)
    m12 = max_below(h12, -2)
    ok = bool(max(m11, m21, m22, m12) <= tol)
    unreduced = bool(
        ok
        and np.all(np.abs(np.diag(h21)) > tol)
        and np.all(np.abs(np.diag(h12, -1)) > tol)
    )
    return StructureReport(m11, m21, m22, m12, ok, unreduced)
