"""Dense linear algebra over the symplectic space R^{2n}.

The space carries the skew-symmetric product (x, y) -> x^T J y with
J = [[0, I], [-I, 0]].  Matrices are plain float64 numpy arrays; every
function validates the even-dimension contract it needs.  ``_real`` and
``_index`` are the package's rules for a real and an integer argument.

``spectral_norm`` is the exact 2-norm from the LAPACK SVD, so the
reduction metrics built on it, ``orth_loss`` = ||I - S^J S||_2 and
``red_err`` = ||H - S^J A S||_2, are exact rather than estimated.

Both metrics form their products the same way: the adjoint S^J is built
``_BLOCK_ROWS`` rows at a time and multiplied left to right into the
2n-by-2n residual, so the metric phase of ``reduce`` and of the CLI's
``check`` holds its inputs plus that one workspace and one block of rows,
never a full-size adjoint or a chain of full-size products.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "symplecticity_residual",
    "reduction_residual",
    "spectral_norm",
    "structure_report",
    "StructureReport",
]


def _as_real(x) -> np.ndarray:
    """``x`` as a float64 array, refusing complex input with ``ValueError``:
    numpy would cast it with only a warning, dropping the imaginary part."""
    a = np.asarray(x)
    if a.dtype.kind == "c":
        raise ValueError(f"input must be real, got dtype {a.dtype}")
    return a.astype(np.float64, copy=False)


def _real(value, name: str):
    """The real-number rule: ``value`` if a ``numbers.Real`` and no bool, else ``ValueError``."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must not be a bool, which acts as 1 or 0, got {value!r}")
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def _index(value, name: str) -> int:
    """The integer rule: ``operator.index`` of ``_real(value, name)``, else ``ValueError``."""
    try:
        return operator.index(_real(value, name))
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


class _ShapeError(ValueError):
    """A matrix has a shape its caller refuses; every matrix shape check is here."""


def _as_matrix(m) -> np.ndarray:
    a = _as_real(m)
    if a.ndim != 2 or a.size == 0:
        raise _ShapeError(f"expected a nonempty 2-D matrix, both dimensions positive; "
                          f"got shape {a.shape}")
    return a


def _square_half(m: np.ndarray) -> int:
    if m.shape[0] != m.shape[1]:
        raise _ShapeError(f"matrix must be square, got shape {m.shape}")
    if m.shape[0] % 2:
        raise _ShapeError(f"matrix must have even size, got {m.shape[0]}")
    return m.shape[0] // 2


def _adjoint_rows(m: np.ndarray, r0: int, out: np.ndarray) -> None:
    """Write rows r0 .. r0 + len(out) - 1 of the symplectic adjoint of ``m``
    into the C-contiguous ``out``, by exact block moves and sign flips.

    For m = [[A, B], [C, D]] of size 2n-by-2k the adjoint is
    [[D^T, -B^T], [-C^T, A^T]]: row r < k is [m(n:, k+r), -m(:n, k+r)] and
    row r >= k is [-m(n:, r-k), m(:n, r-k)].  The halves to
    negate are copied first and flipped by one pass over all of ``out``,
    before the other halves are copied: a ufunc on a strided half would
    allocate iteration buffers.
    """
    n, k = m.shape[0] // 2, m.shape[1] // 2
    r1 = r0 + out.shape[0]
    mid = min(max(k, r0), r1)  # the first row at or past k
    up, lo = out[:mid - r0], out[mid - r0:]
    up_cols, lo_cols = slice(k + r0, k + mid), slice(mid - k, r1 - k)
    up[:, n:] = m[:n, up_cols].T
    lo[:, :n] = m[n:, lo_cols].T
    np.negative(out, out=out)
    up[:, :n] = m[n:, up_cols].T
    lo[:, n:] = m[:n, lo_cols].T


# Rows of S^J per product block in the metrics.  Each residual holds its
# 2n-by-2n result plus one block of this many rows (3/16 of the result at
# 2n = 128); up to 2n = 24 the product is one full matrix multiply.  With
# 24 rows every metric of tools/corpus_digest.py equals the full-size
# product's bit for bit on OpenBLAS's SkylakeX kernel; 32 rows moved two.
_BLOCK_ROWS = 24


def _adjoint_product(s: np.ndarray, a: np.ndarray | None = None) -> np.ndarray:
    """S^J S, or (S^J A) S given ``a``, formed ``_BLOCK_ROWS`` rows at a time.

    Each row block of S^J is built exactly and multiplied by the factors in
    turn, left to right, so each entry sums the same terms as the full
    formula; only the BLAS's own blocking of a sum can round differently.
    The block of S^J goes into the result rows when a second product
    follows, and into the one scratch block when not.
    """
    size = s.shape[0]
    out = np.empty((size, size))
    scratch = np.empty((min(_BLOCK_ROWS, size), size))
    for r0 in range(0, size, _BLOCK_ROWS):
        rows = out[r0:r0 + _BLOCK_ROWS]
        block = scratch[:rows.shape[0]]
        if a is None:
            _adjoint_rows(s, r0, block)
            np.matmul(block, s, out=rows)
        else:
            _adjoint_rows(s, r0, rows)
            np.matmul(rows, a, out=block)
            np.matmul(block, s, out=rows)
    return out


def spectral_norm(m) -> float:
    """Largest singular value, exact to rounding (LAPACK SVD).

    Returns nan when ``m`` has a non-finite entry, where the SVD would not
    converge.
    """
    a = _as_matrix(m)
    # max and min propagate NaN, and an infinity is its own max or min, so
    # this needs no array of flags
    if not (math.isfinite(a.max()) and math.isfinite(a.min())):
        return float("nan")
    return float(np.linalg.norm(a, 2))


def symplecticity_residual(s) -> float:
    """||S^J S - I||_2; zero exactly when S is symplectic."""
    a = _as_matrix(s)
    _square_half(a)
    g = _adjoint_product(a)
    g[np.diag_indices_from(g)] -= 1.0
    return spectral_norm(g)


def reduction_residual(a, h, s) -> np.ndarray:
    """The matrix H - (S^J A) S, whose 2-norm is the ``red_err`` metric.

    The products are formed as in ``symplecticity_residual``, and H is
    subtracted in place.  The rounding of the product depends on the
    layout of ``a``: the reduction passes it C-ordered.
    """
    a, h, s = _as_matrix(a), _as_matrix(h), _as_matrix(s)
    _square_half(s)
    if not a.shape == h.shape == s.shape:
        raise _ShapeError(f"A, H and S must have one shape, got {a.shape}, {h.shape}, {s.shape}")
    r = _adjoint_product(s, a)
    return np.subtract(h, r, out=r)


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
    if not _real(tol, "tol") >= 0:  # also refuses nan; inf is allowed
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
