"""Similarity reduction of a 2n-by-2n matrix to upper J-Hessenberg form.

Four variants share one skeleton.  Step j (1-based, j = 1..n-1) runs an
odd sub-step eliminating column j (rows j+1..n and n+j+1..2n) and an even
sub-step eliminating column n+j (rows j+2..n and n+j+1..2n):

* ``jhsh``    both sub-steps are symplectic Householder transforms with
              caller-chosen free parameters (mu for odd, rho for even);
* ``jhosh``   the minimum-condition parameter choices (osh1/osh2);
* ``jhmsh``   odd as jhosh; even replaced by a sweep of Van Loan Givens
              rotations plus one Van Loan reflector (all orthogonal);
* ``jhmsh2``  as jhmsh, with a compact three-transform even sub-step:
              concentrate the lower segment, one rotation, one reflector.

Every transform is applied as a similarity A <- T A T^J while the
accumulator is updated as S <- S T^J, so a successful run returns H and a
symplectic S with H = S^J A S.

A zero pivot a(n+j) aborts the odd sub-step (and, for jhsh/jhosh, a zero
a(n+j+1) aborts the even one).  With ``breakdown_fallback`` enabled an
orthogonal rescue is applied and the sub-step is retried: when the lower
segment of the active column carries mass, a reflector concentrates it
onto the pivot row (case B); when it does not, a short chain of
orthogonal transforms moves upper-block mass onto the pivot row (case
A).  A zero active column needs no elimination and the sub-step is
skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import adjoint_mat, spectral_norm, symplecticity_residual
from .transforms import (
    DEFAULT_BREAKDOWN_TOL,
    Breakdown,
    SymplecticTransform,
    TransformGivens,
    _vlh_from_segment,
    apply_left,
    apply_right_adjoint,
    embed,
    osh1,
    osh2,
    sh1,
    sh2,
    vlg,
    vlh,
)

__all__ = [
    "OptimalStrategy",
    "FixedStrategy",
    "SeededStrategy",
    "ParamStrategy",
    "ReductionOptions",
    "ReductionStep",
    "ReductionResult",
    "BreakdownError",
    "reduction_steps",
    "jhsh",
    "jhosh",
    "jhmsh",
    "jhmsh2",
    "reduce",
    "breakdown_fallback",
    "VARIANTS",
]

VARIANTS = ("jhsh", "jhosh", "jhmsh", "jhmsh2")


@dataclass(frozen=True)
class OptimalStrategy:
    """Free parameters chosen to minimize each transform's condition number."""


@dataclass(frozen=True)
class FixedStrategy:
    """Explicit per-step parameter lists; entry j-1 is used at step j."""

    rhos: tuple[float, ...]
    mus: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "rhos", tuple(float(r) for r in self.rhos))
        object.__setattr__(self, "mus", tuple(float(m) for m in self.mus))


@dataclass(frozen=True)
class SeededStrategy:
    """Reproducible pseudo-random parameters drawn uniformly from [0.5, 1.5).

    The generator is a 64-bit LCG (a = 6364136223846793005,
    c = 1442695040888963407) restarted from ``seed`` at the beginning of
    every reduction; draws happen in execution order, mu before rho at
    each step.
    """

    seed: int


ParamStrategy = OptimalStrategy | FixedStrategy | SeededStrategy


@dataclass(frozen=True)
class ReductionOptions:
    strategy: ParamStrategy = field(default_factory=OptimalStrategy)
    breakdown_fallback: bool = True
    pivot_tol: float = DEFAULT_BREAKDOWN_TOL
    set_exact_zeros: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.pivot_tol) and self.pivot_tol >= 0):
            raise ValueError(f"pivot_tol must be finite and nonnegative, got {self.pivot_tol!r}")


@dataclass(frozen=True)
class ReductionStep:
    """Index bookkeeping for step j: active rows and sub-space sizes."""

    j: int
    alpha_j: int  # n - j + 1, half-size of the odd sub-space
    beta_j: int   # n - j, half-size of the even sub-space
    rows_odd: tuple[range, range]
    rows_even: tuple[range, range]


def reduction_steps(n: int) -> list[ReductionStep]:
    """The steps j = 1..n-1 of a 2n-by-2n reduction (1-based indices)."""
    if n < 1:
        raise ValueError("half-dimension n must be >= 1")
    steps = []
    for j in range(1, n):
        steps.append(ReductionStep(
            j=j,
            alpha_j=n - j + 1,
            beta_j=n - j,
            rows_odd=(range(j, n + 1), range(n + j, 2 * n + 1)),
            rows_even=(range(j + 1, n + 1), range(n + j + 1, 2 * n + 1)),
        ))
    return steps


class BreakdownError(Exception):
    """Reduction aborted on a numerically zero pivot."""

    def __init__(self, step: int, substep: str, kind: str, pivot_value: float):
        self.step = step
        self.substep = substep
        self.kind = kind
        self.pivot_value = float(pivot_value)
        super().__init__(
            f"breakdown at step {step} ({substep} sub-step): "
            f"{kind}, pivot value {pivot_value!r}")


@dataclass(frozen=True, eq=False)
class ReductionResult:
    """Outcome of a successful reduction: H = S^J A S.

    ``transcript`` lists the applied transforms in order; replaying their
    adjoints from the identity reproduces S.  ``orth_loss`` is
    ||I - S^J S||_2 and ``red_err`` is ||H - S^J A S||_2 against the
    original input.
    """

    s: np.ndarray
    h: np.ndarray
    transcript: tuple[SymplecticTransform, ...]
    orth_loss: float
    red_err: float
    fallbacks_used: tuple[tuple[int, str], ...]


class _ParamDrawer:
    """Per-run source of the jhsh free parameters."""

    _LCG_A = 6364136223846793005
    _LCG_C = 1442695040888963407
    _MASK = (1 << 64) - 1

    def __init__(self, strategy: ParamStrategy, n: int):
        self.strategy = strategy
        if isinstance(strategy, FixedStrategy):
            if len(strategy.mus) < n - 1 or len(strategy.rhos) < n - 1:
                raise ValueError(
                    f"fixed strategy needs at least {n - 1} rho and mu values")
        self._state = strategy.seed & self._MASK if isinstance(strategy, SeededStrategy) else 0

    def _draw(self) -> float:
        self._state = (self._LCG_A * self._state + self._LCG_C) & self._MASK
        return 0.5 + self._state / 2.0 ** 64

    def mu(self, j: int) -> float:
        if isinstance(self.strategy, FixedStrategy):
            return self.strategy.mus[j - 1]
        return self._draw()

    def rho(self, j: int) -> float:
        if isinstance(self.strategy, FixedStrategy):
            return self.strategy.rhos[j - 1]
        return self._draw()


def _rotate(c, s, x, y):
    """Givens pairs (c x + s y, -s x + c y), elementwise with broadcasting."""
    return c * x + s * y, -s * x + c * y


def _vlg_lowering(k: int, a: np.ndarray) -> SymplecticTransform:
    """Givens rotation in the (k, n+k) plane zeroing a(k) into a(n+k).

    The mirror image of ``vlg``: it moves mass from the upper half onto
    the pivot row, which is exactly what a zero-pivot rescue needs.
    """
    n = a.size // 2
    f, g = float(a[k - 1]), float(a[n + k - 1])
    r = float(np.hypot(f, g))
    if r == 0.0:
        return vlg(k, a)  # identity
    return TransformGivens(k, g / r, -f / r, n)


def _classify_fallback(column: np.ndarray, j: int, n: int, tol: float) -> str:
    """Pick the rescue for a zero pivot at row n+j of ``column``.

    ``case_b``: a lower-segment entry beyond the pivot is significant, so
    a reflector can concentrate the segment onto row n+j.
    ``degenerate``: the whole active part is zero; nothing to eliminate.
    ``case_a``: the mass sits in the upper block and has to be moved into
    the pivot position through a plane rotation.
    """
    lower_tail = column[n + j:]
    active = np.concatenate((column[j - 1:n], column[n + j - 1:]))
    if not np.all(np.isfinite(active)):
        return "unrecoverable"
    scale = float(np.linalg.norm(active))
    if scale == 0.0:
        return "degenerate"
    if np.any(np.abs(lower_tail) > tol * scale):
        return "case_b"
    return "case_a"


def _case_a_chain(column: np.ndarray, j: int, n: int) -> list[SymplecticTransform]:
    """Orthogonal transforms moving upper-block mass of ``column`` onto the
    pivot row n+j: concentrate rows j+1..n into row j+1, rotate that entry
    into row n+j+1, then concentrate the lower segment onto row n+j.

    The first two members never touch row j, so earlier columns are
    unaffected by them; later members are built from the column as the
    earlier ones leave it (their left actions are what the column sees).
    ``column`` is consumed as scratch.
    """
    chain: list[SymplecticTransform] = []
    if j < n:
        for t in (vlh(j + 1, column), _vlg_lowering(j + 1, column)):
            chain.append(t)
            apply_left(t, column)
    t = _vlh_from_segment(j, column[n + j - 1:].copy(), n)
    chain.append(t)
    return chain


def _fallback_transforms(case: str, column: np.ndarray, j: int,
                         n: int) -> list[SymplecticTransform]:
    if case == "case_b":
        return [_vlh_from_segment(j, column[n + j - 1:].copy(), n)]
    if case == "degenerate":
        return [vlh(j, column)]  # identity: nothing to eliminate
    return _case_a_chain(column.copy(), j, n)


def breakdown_fallback(column, j: int,
                       tol: float = DEFAULT_BREAKDOWN_TOL) -> list[SymplecticTransform] | None:
    """Transforms rescuing a zero pivot at row n+j of a working column.

    Case B (mass in the lower segment): one reflector concentrating that
    segment onto the pivot row; the caller then retries the sub-step.
    Case A (lower segment negligible): a short chain of orthogonal
    transforms moving upper-block mass onto the pivot row, then retry.
    A zero active column yields a single identity reflector and the
    sub-step can simply be skipped.  Returns None when no rescue can
    restore progress (non-finite input).
    """
    col = np.asarray(column, dtype=np.float64)
    if col.ndim != 1 or col.size % 2:
        raise ValueError("expected a 1-D vector of even length")
    n = col.size // 2
    if not 1 <= j <= n:
        raise ValueError("j must lie in 1..n")
    case = _classify_fallback(col, j, n, tol)
    if case == "unrecoverable":
        return None
    return _fallback_transforms(case, col, j, n)


class _Driver:
    def __init__(self, a: np.ndarray, variant: str, opts: ReductionOptions):
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"input must be a square matrix, got shape {a.shape}")
        if a.shape[0] % 2:
            raise ValueError(f"input size must be even, got {a.shape[0]}")
        if not np.all(np.isfinite(a)):
            raise ValueError("input must be finite")
        self.a0 = a.copy()
        self.A = a.copy()
        self.n = a.shape[0] // 2
        self.S = np.eye(2 * self.n)
        self.variant = variant
        self.opts = opts
        self.transcript: list[SymplecticTransform] = []
        self.fallbacks: list[tuple[int, str]] = []
        self.optimal_params = variant != "jhsh" or isinstance(opts.strategy, OptimalStrategy)
        self.drawer = _ParamDrawer(opts.strategy, self.n) if variant == "jhsh" else None
        if variant == "jhmsh":
            self._strict_upper = np.triu(np.ones((self.n, self.n), dtype=bool), 1)

    def similarity(self, t: SymplecticTransform) -> None:
        apply_left(t, self.A)
        apply_right_adjoint(t, self.A)
        apply_right_adjoint(t, self.S)
        self.transcript.append(t)

    def _givens_sweep(self, j: int, col: int) -> None:
        """Apply the similarities by vlg(k, column), k = n down to j+1, at once.

        Rotation k acts in its own plane (k, n+k) and reads only rows k and
        n+k of the working column, which no other rotation of the sweep
        touches, so all of them are built from the column as it stands.
        They are applied by slices with the arithmetic of ``apply_left`` and
        ``apply_right_adjoint``.  Applied one by one from k = n down, the
        rotations gave the 2x2 block with row plane p and column plane q its
        left rotation first when p >= q and its right rotation first when
        p < q; the p < q blocks are recomputed in that order from the saved
        entries, so H and S equal those of the one-by-one sweep bit for bit.
        """
        n, A, S = self.n, self.A, self.S
        m = n - j
        up, lo = slice(j, n), slice(n + j, 2 * n)
        f, g = A[up, col - 1], A[lo, col - 1]
        r = np.hypot(f, g)
        nonzero = r != 0.0
        c = np.divide(f, r, out=np.ones(m), where=nonzero)  # identity where r == 0
        s = np.divide(g, r, out=np.zeros(m), where=nonzero)
        self.transcript.extend(TransformGivens(k, ck, sk, n) for k, ck, sk
                               in zip(range(n, j, -1), c[::-1].tolist(), s[::-1].tolist()))
        cl, sl = c[:, None], s[:, None]
        a11, a12, a21, a22 = (A[rows, cols].copy() for rows in (up, lo) for cols in (up, lo))
        A[up], A[lo] = _rotate(cl, sl, A[up], A[lo])
        for x in (A, S):
            x[:, up], x[:, lo] = _rotate(c, s, x[:, up], x[:, lo])
        r11, r12 = _rotate(c, s, a11, a12)
        r21, r22 = _rotate(c, s, a21, a22)
        l11, l21 = _rotate(cl, sl, r11, r21)
        l12, l22 = _rotate(cl, sl, r12, r22)
        right_first = self._strict_upper[:m, :m]  # blocks with p < q
        for rows, cols, value in ((up, up, l11), (up, lo, l12), (lo, up, l21), (lo, lo, l22)):
            np.copyto(A[rows, cols], value, where=right_first)

    def _subcolumn(self, col: int, row0: int) -> np.ndarray:
        # active part {row0..n, n+row0..2n} of a 1-based column index
        n = self.n
        return np.concatenate((self.A[row0 - 1:n, col - 1], self.A[n + row0 - 1:, col - 1]))

    def _zero_targets(self, col: int, row0: int, keep_lower_pivot: bool) -> None:
        # Assign exact zeros to the eliminated rows of a 1-based column:
        # always rows row0+1..n; the odd sub-step keeps its pivot row n+row0
        # while the even one zeroes the whole lower active segment.
        if self.opts.set_exact_zeros:
            n = self.n
            lower_start = n + row0 if keep_lower_pivot else n + row0 - 1
            self.A[row0:n, col - 1] = 0.0
            self.A[lower_start:, col - 1] = 0.0

    def _eliminate_sh(self, j: int, col: int, row0: int, substep: str, build) -> None:
        """Shared odd/even symplectic-Householder elimination with fallback.

        On a zero pivot the rescue transforms are applied as similarities
        and the sub-step is retried; if the case-A chain still leaves no
        pivot (the upper tail was empty), one more rotation moves the
        diagonal entry down.  A zero active column needs no elimination.
        """
        keep_pivot = substep == "odd"
        try:
            t = build(self._subcolumn(col, row0))
        except Breakdown as exc:
            if not self.opts.breakdown_fallback:
                raise BreakdownError(j, substep, exc.kind, exc.pivot_value) from exc
            case = _classify_fallback(self.A[:, col - 1], row0, self.n, self.opts.pivot_tol)
            if case == "unrecoverable":
                raise BreakdownError(j, substep, exc.kind, exc.pivot_value) from exc
            for ft in _fallback_transforms(case, self.A[:, col - 1], row0, self.n):
                self.similarity(ft)
            self.fallbacks.append((j, f"{substep}_{case}"))
            if case == "degenerate":
                self._zero_targets(col, row0, keep_pivot)
                return
            try:
                t = build(self._subcolumn(col, row0))
            except Breakdown as exc2:
                if case != "case_a":
                    raise BreakdownError(j, substep, exc2.kind, exc2.pivot_value) from exc2
                self.similarity(_vlg_lowering(row0, self.A[:, col - 1]))
                self.fallbacks.append((j, f"{substep}_case_a_rotation"))
                try:
                    t = build(self._subcolumn(col, row0))
                except Breakdown as exc3:
                    raise BreakdownError(j, substep, exc3.kind, exc3.pivot_value) from exc3
        self.similarity(embed(t, row0 - 1, self.n))
        self._zero_targets(col, row0, keep_pivot)

    def odd_substep(self, j: int) -> None:
        tol = self.opts.pivot_tol
        if self.optimal_params:
            build = lambda sub: osh2(sub, tol)
        else:
            mu = self.drawer.mu(j)
            build = lambda sub: sh2(sub, mu, tol)
        self._eliminate_sh(j, j, j, "odd", build)

    def even_substep(self, j: int) -> None:
        n = self.n
        col = n + j  # 1-based working column
        if self.variant in ("jhsh", "jhosh"):
            tol = self.opts.pivot_tol
            if self.optimal_params:
                build = lambda sub: osh1(sub, tol)
            else:
                rho = self.drawer.rho(j)
                build = lambda sub: sh1(sub, rho, tol)
            self._eliminate_sh(j, col, j + 1, "even", build)
            return
        if self.variant == "jhmsh":
            self._givens_sweep(j, col)
            if j <= n - 2:
                self.similarity(vlh(j + 1, self.A[:, col - 1]))
        else:  # jhmsh2
            segment = self.A[n + j:, col - 1]
            if segment.size >= 2:
                self.similarity(_vlh_from_segment(j + 1, segment.copy(), n))
            self.similarity(vlg(j + 1, self.A[:, col - 1]))
            if j <= n - 2:
                self.similarity(vlh(j + 1, self.A[:, col - 1]))
        self._zero_targets(col, j + 1, keep_lower_pivot=False)

    def run(self, step_hook=None) -> ReductionResult:
        for st in reduction_steps(self.n):
            self.odd_substep(st.j)
            self.even_substep(st.j)
            if step_hook is not None:
                step_hook(st.j, self.A)
        orth_loss = symplecticity_residual(self.S)
        red_err = spectral_norm(self.A - adjoint_mat(self.S) @ self.a0 @ self.S)
        self.A.setflags(write=False)
        self.S.setflags(write=False)
        return ReductionResult(
            s=self.S,
            h=self.A,
            transcript=tuple(self.transcript),
            orth_loss=orth_loss,
            red_err=red_err,
            fallbacks_used=tuple(self.fallbacks),
        )


def _run_variant(a, variant: str, opts: ReductionOptions | None,
                 step_hook=None) -> ReductionResult:
    return _Driver(a, variant, opts if opts is not None else ReductionOptions()).run(step_hook)


def jhsh(a, opts: ReductionOptions | None = None) -> ReductionResult:
    """Reduction with symplectic Householder transforms in both sub-steps;
    free parameters come from ``opts.strategy``."""
    return _run_variant(a, "jhsh", opts)


def jhosh(a, opts: ReductionOptions | None = None) -> ReductionResult:
    """jhsh with the minimum-condition parameter choices; the strategy
    field of ``opts`` is ignored."""
    return _run_variant(a, "jhosh", opts)


def jhmsh(a, opts: ReductionOptions | None = None) -> ReductionResult:
    """Odd sub-steps as jhosh; even sub-steps via orthogonal Van Loan
    rotations (k = n down to j+1) plus one reflector."""
    return _run_variant(a, "jhmsh", opts)


def jhmsh2(a, opts: ReductionOptions | None = None) -> ReductionResult:
    """jhmsh with a compact even sub-step: concentrate the lower segment
    with one reflector, rotate it away, then one reflector for the upper
    segment."""
    return _run_variant(a, "jhmsh2", opts)


_DISPATCH = {"jhsh": jhsh, "jhosh": jhosh, "jhmsh": jhmsh, "jhmsh2": jhmsh2}


def reduce(a, variant: str, opts: ReductionOptions | None = None) -> ReductionResult:
    """Dispatch to one of the four variants by (case-insensitive) name."""
    key = str(variant).lower()
    if key not in _DISPATCH:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return _DISPATCH[key](a, opts)
