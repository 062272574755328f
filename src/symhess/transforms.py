"""Elementary symplectic transformations.

Three kinds appear in the reduction:

* ``TransformSH``     rank-one symplectic Householder  T = I + c v v^J,
                      with adjoint T^J = I - c v v^J
* ``TransformGivens`` plane rotations in the disjoint planes (k, n+k),
                      k = k0..k0+c.size-1, held as two arrays; orthogonal
                      and symplectic.  ``vlg`` builds one plane,
                      ``vlg_sweep`` the planes k0..n
* ``TransformVLH``    the same ordinary Householder reflector applied to
                      rows k..n and n+k..2n; orthogonal and symplectic

The SH constructors use the normalized parametrizations needed by the
reduction drivers: ``sh1`` maps a vector to rho*e1, ``sh2`` fixes e1 and
maps a vector onto the span of e1 and e_{n+1}; ``osh1``/``osh2`` pick the
free parameter that minimizes the 2-norm condition number.  ``embed``
pads an SH transform into a larger space with identity action on the
leading coordinates of each half.

One function, ``_left_rows``, updates a matrix by a record, with one
arithmetic per kind; ``apply_right_adjoint`` runs it on the view M^T, as
M T^J = ((T^J)^T M^T)^T, with (T^J)^T itself a record of the same kind.
The library never forms the dense matrix of a transform: that matrix is
the tests' oracle, against which every apply is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _as_real, _index

__all__ = [
    "DEFAULT_BREAKDOWN_TOL",
    "BreakdownError",
    "InvalidParam",
    "TransformSH",
    "TransformGivens",
    "TransformVLH",
    "SymplecticTransform",
    "sh1",
    "sh2",
    "osh1",
    "osh2",
    "vlg",
    "vlg_sweep",
    "vlh",
    "embed",
    "apply_left",
    "apply_right_adjoint",
    "cond2",
]

# Relative pivot threshold: |pivot| <= tol * ||a||_2 counts as a breakdown.
DEFAULT_BREAKDOWN_TOL = 2.0 ** -26


class BreakdownError(Exception):
    """A numerically zero pivot, or in ``reduce`` also a refused free
    parameter (kind ``InvalidParam``) or a non-finite value (``NonFinite``).
    A builder raises it with ``step`` and ``substep`` None, ``reduce`` with
    the step and sub-step where no rescue cleared it."""

    def __init__(self, step: int | None, substep: str | None, kind: str, pivot_value: float):
        self.step = step
        self.substep = substep
        self.kind = kind
        self.pivot_value = float(pivot_value)
        where = "" if step is None else f" at step {step} ({substep} sub-step)"
        super().__init__(f"breakdown{where}: {kind}, pivot value {self.pivot_value!r}")


class InvalidParam(ValueError):
    """A free parameter is not finite or violates its constraint (rho = 0, rho or mu = a(1))."""


@dataclass(frozen=True, eq=False)
class TransformSH:
    """T = I + c v v^J with direction v = [0^offset, u, 0^offset, w].

    ``n`` is the half-dimension of the space the transform acts on; the
    compact ``u``/``w`` pair (length n - offset each) stores only the
    support, so an embedded transform applies with exactly the arithmetic
    of its reduced-space original.  ``c == 0`` means the identity.
    """

    c: float
    u: np.ndarray
    w: np.ndarray
    offset: int
    n: int

    def __post_init__(self):
        if not 0 <= _index(self.offset, "offset") < _index(self.n, "n"):
            raise ValueError("offset must lie in [0, n)")
        span = self.n - self.offset
        if self.u.shape != (span,) or self.w.shape != (span,):
            raise ValueError("u and w must both have length n - offset")

    @property
    def is_identity(self) -> bool:
        return self.c == 0.0


@dataclass(frozen=True, eq=False)
class TransformGivens:
    """Rotations by (c[i], s[i]) in the planes (k0+i, n+k0+i), i = 0..c.size-1.

    The planes are disjoint, so the rotations commute and apply at once by
    slices; k0 is 1-based.  As for the other kinds, a record is skipped only
    when it is the identity (``is_identity``, set once, not a field), here
    when every plane is (c = 1, s = 0); an identity plane inside a record
    that is not is applied.
    """

    k0: int
    c: np.ndarray
    s: np.ndarray
    n: int

    def __post_init__(self):
        if self.c.ndim != 1 or self.c.size == 0 or self.s.shape != self.c.shape:
            raise ValueError("c and s must be nonempty 1-D arrays of one length")
        if not 1 <= _index(self.k0, "k0") <= _index(self.n, "n") - self.c.size + 1:
            raise ValueError("the planes k0..k0+c.size-1 must lie in 1..n")
        if not (np.abs(self.c * self.c + self.s * self.s - 1.0) <= 1e-14).all():
            raise ValueError("c^2 + s^2 must equal 1")
        object.__setattr__(self, "is_identity", bool((self.c == 1).all() and (self.s == 0).all()))


@dataclass(frozen=True, eq=False)
class TransformVLH:
    """Direct sum of one reflector P = I - beta w w^T on rows k..n and n+k..2n.

    ``beta == 0`` means the identity; otherwise beta = 2 / (w^T w).
    k is 1-based.
    """

    k: int
    beta: float
    w: np.ndarray
    n: int

    def __post_init__(self):
        if not 1 <= _index(self.k, "k") <= _index(self.n, "n"):
            raise ValueError("k must lie in 1..n")
        if self.w.shape != (self.n - self.k + 1,):
            raise ValueError("w must have length n - k + 1")
        if self.beta != 0.0:
            wtw = float(self.w @ self.w)
            if abs(self.beta * wtw - 2.0) > 1e-13 * max(1.0, abs(self.beta) * wtw):
                raise ValueError("beta must equal 2 / (w^T w)")

    @property
    def is_identity(self) -> bool:
        return self.beta == 0.0


SymplecticTransform = TransformSH | TransformGivens | TransformVLH


def _as_vector(a) -> np.ndarray:
    v = _as_real(a)
    if v.ndim != 1 or v.size == 0 or v.size % 2:
        raise ValueError("expected a 1-D vector of even length")
    return v


def _identity_sh(m: int) -> TransformSH:
    z = np.zeros(m)
    return TransformSH(0.0, z, z, 0, m)


def _sign(x: float) -> float:
    # sign(0) := 1, the usual Householder convention
    return 1.0 if x >= 0.0 else -1.0


def _norm(v: np.ndarray) -> float:
    """||v||_2 of a 1-D float64 array, rounded as ``np.linalg.norm`` rounds
    it: the square root of the dot of ``v.ravel(order="K")``, a view unless
    v is strided.  A strided dot rounds differently from a contiguous one."""
    x = v.ravel(order="K")
    return math.sqrt(x @ x)


def sh1(a, rho: float, tol: float = DEFAULT_BREAKDOWN_TOL) -> TransformSH:
    """T with T a = rho e1; rho is a free finite nonzero scalar.

    Returns the identity when a is rho e1 already.  A rho equal to a(1) of
    any other a is refused with ``InvalidParam``, as sh2 refuses a mu
    equal to a(1): the direction is normalized by a(1) - rho.  Breaks down
    when the pairing pivot a(n+1) is negligible relative to ||a||.
    """
    av = _as_vector(a)
    if rho == 0.0:
        raise InvalidParam("rho must be nonzero")
    if rho == av[0] and av[1:].any():
        raise InvalidParam("rho must differ from a(1) unless a is rho e1")
    return _sh1(av, rho, _norm(av), tol)


def _sh1(av: np.ndarray, rho: float, norm: float, tol: float) -> TransformSH:
    """sh1 of a checked vector whose 2-norm the caller passes as ``norm``."""
    m = av.size // 2
    aux = av[0] - rho
    nu = av[m]
    if aux == 0.0:
        return _identity_sh(m)
    if abs(nu) <= tol * norm:
        raise BreakdownError(None, None, "ZeroPivot", nu)
    if not math.isfinite(rho):
        # after the pivot test: when ||a|| overflows, osh1 passes rho = +-inf
        # and the test reports a breakdown
        raise InvalidParam(f"rho must be finite, got {rho!r}")
    v = av / aux
    v[0] = 1.0
    c = aux * aux / (rho * nu)
    return TransformSH(float(c), v[:m], v[m:], 0, m)


def sh2(a, mu: float, tol: float = DEFAULT_BREAKDOWN_TOL) -> TransformSH:
    """T with T e1 = e1 and T a = mu e1 + nu e_{n+1}, where nu = a(n+1).

    mu is a free finite scalar different from a(1), near enough to it that
    nu (a(1) - mu) is finite.  In the 2-dimensional space (n == 1) there is
    nothing to eliminate and the identity is returned.
    """
    av = _as_vector(a)
    if not math.isfinite(mu):
        raise InvalidParam(f"mu must be finite, got {mu!r}")
    m = av.size // 2
    if m == 1:
        return _identity_sh(m)
    nu = av[m]
    if abs(nu) <= tol * _norm(av):
        raise BreakdownError(None, None, "ZeroNu", nu)
    if mu == av[0]:
        raise InvalidParam("mu must differ from a(1)")
    v = -av.copy()
    v[0] += mu
    v[m] += nu  # exactly zero: T keeps the (n+1)-th coordinate fixed
    c = -1.0 / (nu * (av[0] - mu))
    if c == 0.0:  # nu (a(1) - mu) overflowed: T would be the identity
        raise InvalidParam(f"mu too far from a(1): nu (a(1) - mu) overflows, got {mu!r}")
    return TransformSH(float(c), v[:m], v[m:], 0, m)


def osh1(a, tol: float = DEFAULT_BREAKDOWN_TOL) -> TransformSH:
    """sh1 with the minimum-condition choice rho = sign(a(1)) ||a||_2.

    A zero vector is already of target form, so it yields the identity.
    """
    av = _as_vector(a)
    norm = _norm(av)
    if norm == 0.0:
        return _identity_sh(av.size // 2)
    return _sh1(av, _sign(float(av[0])) * norm, norm, tol)


def osh2(a, tol: float = DEFAULT_BREAKDOWN_TOL) -> TransformSH:
    """sh2 with the minimum-condition choice mu = a(1) + xi.

    xi is the norm of a over the indices {2..n, n+2..2n}, none when n == 1;
    xi == 0 means the eliminations are already done and the identity is
    returned.
    """
    av = _as_vector(a)
    m = av.size // 2
    tail = np.concatenate((av[1:m], av[m + 1:]))
    xi = _norm(tail)
    nu = av[m]
    if xi == 0.0:
        return _identity_sh(m)
    if abs(nu) <= tol * _norm(av):
        raise BreakdownError(None, None, "ZeroNu", nu)
    v = av / -xi
    v[0] = 1.0
    v[m] = 0.0
    # nu stays a numpy scalar: where tol * ||a|| is NaN a zero nu passes the
    # test above, and xi / nu must give inf there, not ZeroDivisionError
    c = xi / nu
    return TransformSH(float(c), v[:m], v[m:], 0, m)


def _rotations(k0: int, f: np.ndarray, g: np.ndarray, n: int) -> TransformGivens:
    """Rotations in the planes (k, n+k), k = k0..k0+f.size-1, taking each
    pair (f, g) to (hypot(f, g), 0); the identity (c=1, s=0) where both
    entries vanish.

    c and s are built from the pair scaled by the power of two that brings
    its larger entry into [0.5, 1).  The scaling is exact, so c and s do
    not change on normal pairs, but a subnormal pair keeps every bit of
    its ratio: the hypot of the unscaled pair keeps only a few bits.
    """
    _, e = np.frexp(np.maximum(np.abs(f), np.abs(g)))
    f, g = np.ldexp(f, -e), np.ldexp(g, -e)
    r = np.hypot(f, g)
    nonzero = r != 0.0
    c = np.divide(f, r, out=np.ones(f.size), where=nonzero)
    s = np.divide(g, r, out=np.zeros(f.size), where=nonzero)
    return TransformGivens(k0, c, s, n)


def vlg(k: int, a) -> TransformGivens:
    """Givens rotation in the (k, n+k) plane eliminating a(n+k) into a(k),
    as a one-plane record.

    k is 1-based.  When both entries vanish the identity (c=1, s=0) is
    returned.
    """
    av = _as_vector(a)
    n = av.size // 2
    if not 1 <= _index(k, "k") <= n:
        raise ValueError("k must lie in 1..n")
    return _rotations(k, av[k - 1:k], av[n + k - 1:n + k], n)


def vlg_sweep(k0: int, a) -> TransformGivens:
    """The rotations vlg(k, a), k = k0..n, as one record.

    Each reads only rows k and n+k of ``a``, so all of them are built from
    ``a`` as it stands.
    """
    av = _as_vector(a)
    n = av.size // 2
    if not 1 <= _index(k0, "k0") <= n:
        raise ValueError("k0 must lie in 1..n")
    return _rotations(k0, av[k0 - 1:n], av[n + k0 - 1:], n)


def _vlh_from_segment(k: int, segment: np.ndarray, n: int) -> TransformVLH:
    """Reflector concentrating ``segment`` into its first entry.

    The transform applies the same P = I - beta w w^T to rows k..n and
    n+k..2n; the caller decides which half of a column ``segment`` was
    read from.
    """
    seg = np.asarray(segment, dtype=np.float64)  # TransformVLH checks its length
    s0, r1 = float(seg[0]), float(seg[1:] @ seg[1:])
    r = math.sqrt(s0 * s0 + r1)
    if r == 0.0:
        return TransformVLH(k, 0.0, np.zeros_like(seg), n)
    w = seg.copy()
    w[0] = w0 = s0 + _sign(s0) * r
    # w0 * w0 >= r * r > 0 when r > 0, so the division cannot raise
    return TransformVLH(k, 2.0 / (w0 * w0 + r1), w, n)


def vlh(k: int, a) -> TransformVLH:
    """Direct-sum reflector zeroing a(k+1..n) into a(k); k is 1-based.

    An all-zero segment a(k..n) yields the identity (beta = 0).
    """
    av = _as_vector(a)
    n = av.size // 2
    if not 1 <= _index(k, "k") <= n:
        raise ValueError("k must lie in 1..n")
    return _vlh_from_segment(k, av[k - 1:n], n)


def embed(t: TransformSH, offset: int, n: int) -> TransformSH:
    """Pad an SH transform into the 2n-space with ``offset`` leading zeros
    in each half of its direction; the action on the padded coordinates is
    the identity."""
    if not isinstance(t, TransformSH):
        raise TypeError("only symplectic Householder transforms can be embedded")
    if _index(offset, "offset") < 0 or t.n + offset != n:
        raise ValueError(f"size mismatch: transform acts on 2*{t.n}, "
                         f"target 2*{n} with offset {offset}")
    return TransformSH(t.c, t.u, t.w, t.offset + offset, n)


def _half(t: SymplecticTransform, size: int | None = None, axis: str = "") -> int:
    """The half-dimension n of a transform record, checked to be 2n = ``size``
    (the number of rows or columns it is applied to) when one is given."""
    if not isinstance(t, SymplecticTransform):
        raise TypeError(f"not a symplectic transform: {type(t).__name__}")
    if size is not None and size != 2 * t.n:
        raise ValueError(f"transform acts on 2*{t.n} {axis}, matrix has {size}")
    return t.n


def _add_outer(block, scale: float, x, row) -> None:
    """block += scale * (x row^T), the outer product rounded before the
    scaling and laid out like ``block``: rows of M^T cost what M's do."""
    prod = np.multiply(x[:, None], row, order="F" if block.strides[0] < block.strides[1] else "C")
    prod *= scale
    block += prod


def _left_rows(t: SymplecticTransform, m: np.ndarray, n: int) -> None:
    """M <- T M on the rows of a 2n-by-k matrix or view, unchecked: the one
    code that updates a matrix by a record.  A right apply runs it on M^T."""
    if isinstance(t, TransformSH):
        up, lo = m[t.offset:n], m[n + t.offset:]  # the rows where v = (u, w) is nonzero
        row = t.u @ lo - t.w @ up  # v^J M on the support
        _add_outer(up, t.c, t.u, row)
        _add_outer(lo, t.c, t.w, row)
    elif isinstance(t, TransformGivens):
        # rows (x, y) of each plane become (c x + s y, c y - s x), holding
        # only the two products that read the old x and y
        k, size = t.k0 - 1, t.c.size
        c, s = t.c[:, None], t.s[:, None]
        x, y = m[k:k + size], m[n + k:n + k + size]
        sy = s * y
        sx = s * x
        x *= c
        x += sy
        y *= c
        y -= sx
    else:
        for block in (m[t.k - 1:n], m[n + t.k - 1:]):
            _add_outer(block, -t.beta, t.w, t.w @ block)


def apply_left(t: SymplecticTransform, m: np.ndarray) -> None:
    """In-place M <- T M for a 2n-by-k matrix.  A 2n-vector is updated as a
    one-column matrix, with the same arithmetic."""
    n = _half(t, m.shape[0], "rows")
    if not t.is_identity:
        _left_rows(t, m[:, None] if m.ndim == 1 else m, n)  # a view: writes go through


def apply_right_adjoint(t: SymplecticTransform, m: np.ndarray) -> None:
    """In-place M <- M T^J, as M^T <- (T^J)^T M^T by the left arithmetic.

    The orthogonal kinds, Givens and VLH, are their own (T^J)^T.  For an SH
    record (T^J)^T = I + c (J v) v^T, the SH record with the halves
    (w, -u) of J v.
    """
    if m.ndim != 2:
        raise ValueError("right application expects a 2-D matrix")
    n = _half(t, m.shape[1], "columns")
    if t.is_identity:
        return
    if isinstance(t, TransformSH):
        t = TransformSH(t.c, t.w, -t.u, t.offset, n)
    _left_rows(t, m.T, n)


def cond2(t: SymplecticTransform) -> float:
    """2-norm condition number spectral_norm(T) * spectral_norm(T^J), in
    closed form.

    Givens and VLH records are orthogonal: 1.  For T = I + c v v^J the
    vectors v and J^T v are orthogonal and of equal norm, so T is the
    identity plus x times a rank-one product of two orthonormal vectors,
    x = c ||v||^2, and ||T||_2 = ||T^J||_2 = (|x| + sqrt(x^2 + 4)) / 2.
    This form does not cancel near the identity.
    """
    _half(t)  # refuses what is not a transform
    if not isinstance(t, TransformSH):
        return 1.0
    x = t.c * float(t.u @ t.u + t.w @ t.w)
    return ((abs(x) + math.sqrt(x * x + 4.0)) / 2.0) ** 2
