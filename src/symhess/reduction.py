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

Every transform is applied to the working matrix as a similarity
A <- T A T^J and appended to the transcript; the loop updates no other
matrix.  After the last step S is the transcript's replay, S = T_1^J T_2^J
..., so a successful run returns H and a symplectic S with H = S^J A S.

The variants differ only in the free-parameter rule and the even
sub-step, so one table (``_VARIANT_TABLE``) holds both and one driver runs
them all.

A zero pivot a(n+j) aborts the odd sub-step (and, for jhsh/jhosh, a zero
a(n+j+1) aborts the even one).  With ``breakdown_fallback`` enabled the
driver walks an ordered list of orthogonal rescues, retrying the sub-step
after each: when the lower segment of the active column carries mass, a
reflector concentrates it onto the pivot row (case B); when it does not, a
short chain of orthogonal transforms moves upper-block mass onto the pivot
row (case A), followed if needed by one rotation moving the diagonal entry
down.  The chain is applied to the working matrix member by member, like
every other transform; its first two members are both built from the
column as it stands.  A zero active column needs no elimination: its SH
sub-step records the identity in every variant, neither a rescue nor a
breakdown.  An odd sub-step is rescued only at j = 1 or when
H12(j, j-1) = 0: otherwise any symplectic transform keeping column n+j-1
in form maps e_j to a multiple of itself, so the pivot stays zero, and a
rescue would only break the form.  A breakdown no rescue clears raises
``BreakdownError``, and so does a non-finite working column or metric
(kind ``NonFinite``): a run never returns NaN or infinity as a result.

The loop, the S replay and the metrics run with numpy's floating-point
errors ignored and its ufunc buffer at ``_UFUNC_BUFSIZE`` elements; the
driver's ``step_hook`` runs inside that scope, and the caller's settings
come back on return or raise.  Results do not depend on the buffer size,
so replaying the transcript outside ``reduce`` rebuilds S bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .core import (_as_matrix, _index, _real, _square_half, reduction_residual,
                   spectral_norm, symplecticity_residual)
from .transforms import (
    DEFAULT_BREAKDOWN_TOL,
    BreakdownError,
    InvalidParam,
    SymplecticTransform,
    _givens_rows,
    _norm,
    _rotations,
    _vlh_from_segment,
    apply_left,
    apply_right_adjoint,
    embed,
    osh1,
    osh2,
    sh1,
    sh2,
    vlg,
    vlg_sweep,
    vlh,
)

__all__ = [
    "OptimalStrategy",
    "FixedStrategy",
    "SeededStrategy",
    "ParamStrategy",
    "ReductionOptions",
    "ReductionResult",
    "reduce",
    "VARIANTS",
]

# numpy's ufunc buffer, in elements, while ``reduce`` runs.  At numpy's
# default of 8,192 an operand broadcast along a row shorter than the buffer
# (``x[:, None]`` in a rank-one product, ``c[:, None]`` in a left rotation)
# is copied through the iteration buffers: a 200x400 outer product took
# 108 us, against 26-35 us with at most 1,024 elements (numpy 2.4, one
# Xeon core).  Of 128, 256 and 512, 256 gave the fastest n = 200
# reductions; 16 doubles the cost of a right apply to a few columns.
# Every array is float64 and every sum goes through BLAS, so the size
# moves no rounding.
_UFUNC_BUFSIZE = 256


@dataclass(frozen=True)
class OptimalStrategy:
    """Free parameters chosen to minimize each transform's condition number."""


@dataclass(frozen=True)
class FixedStrategy:
    """Explicit per-step parameter lists; entry j-1 is used at step j.  Each
    is a finite ``numbers.Real``, not a bool or a string, stored as a float;
    every rho is nonzero."""

    rhos: tuple[float, ...]
    mus: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "rhos", tuple(float(_real(r, "rho")) for r in self.rhos))
        object.__setattr__(self, "mus", tuple(float(_real(m, "mu")) for m in self.mus))
        if not all(map(math.isfinite, self.rhos + self.mus)):
            raise ValueError("fixed strategy rho and mu values must be finite")
        if 0.0 in self.rhos:
            raise ValueError("fixed strategy rho values must be nonzero")


@dataclass(frozen=True)
class SeededStrategy:
    """Reproducible pseudo-random parameters drawn uniformly from [0.5, 1.5).

    The generator is a 64-bit LCG (a = 6364136223846793005,
    c = 1442695040888963407) restarted from ``seed`` at the beginning of
    every reduction; each step draws twice, mu before rho.  ``seed`` is an
    integer in 0..2^64-1 that ``operator.index`` accepts, numpy integers
    included and bools not; the state keeps 64 bits, so any other seed
    would repeat one of these and is refused.
    """

    seed: int

    def __post_init__(self):
        seed = _index(self.seed, "seed")
        if not 0 <= seed < 2 ** 64:
            raise ValueError(f"seed must be in 0..2^64-1, got {seed}")
        object.__setattr__(self, "seed", seed)


ParamStrategy = OptimalStrategy | FixedStrategy | SeededStrategy


@dataclass(frozen=True)
class ReductionOptions:
    """Parameter strategy, zero-pivot rescue and pivot threshold of a run.
    No option changes the form of H: every step j writes exact zeros to rows
    j+1..n, n+j+1..2n of column j and rows j+2..n, n+j+1..2n of column n+j."""

    strategy: ParamStrategy = field(default_factory=OptimalStrategy)
    breakdown_fallback: bool = True
    pivot_tol: float = DEFAULT_BREAKDOWN_TOL

    def __post_init__(self):
        if not isinstance(self.strategy, ParamStrategy):
            raise ValueError(f"strategy must be an OptimalStrategy, FixedStrategy or "
                             f"SeededStrategy, got {self.strategy!r}")
        tol = float(_real(self.pivot_tol, "pivot_tol"))  # a float32 would overflow tol * ||a||
        if not (math.isfinite(tol) and tol >= 0):
            raise ValueError(f"pivot_tol must be a finite nonnegative real, got {self.pivot_tol!r}")
        object.__setattr__(self, "pivot_tol", tol)
        if not isinstance(self.breakdown_fallback, (bool, np.bool_)):
            raise ValueError(f"breakdown_fallback must be a bool, got {self.breakdown_fallback!r}")
        object.__setattr__(self, "breakdown_fallback", bool(self.breakdown_fallback))


@dataclass(frozen=True, eq=False)
class ReductionResult:
    """Outcome of a successful reduction: H = S^J A S.

    ``transcript`` lists the applied transforms in order, and ``s`` is its
    replay: the identity with each transform's adjoint applied on the right
    in turn.  A ``TransformGivens`` record holds a range of planes: a
    ``jhmsh`` Givens sweep is one record, and a single rotation is a
    one-plane record.  ``orth_loss`` is
    ||I - S^J S||_2 and ``red_err`` is ||H - S^J A S||_2 against the
    original input.
    """

    s: np.ndarray
    h: np.ndarray
    transcript: tuple[SymplecticTransform, ...]
    orth_loss: float
    red_err: float
    fallbacks_used: tuple[tuple[int, str], ...]


def _lcg_draws(seed: int):
    """The endless stream of ``SeededStrategy`` draws from ``seed``."""
    mask = (1 << 64) - 1
    state = seed
    while True:
        state = (6364136223846793005 * state + 1442695040888963407) & mask
        yield 0.5 + state / 2.0 ** 64


def _free_params(strategy: ParamStrategy, n: int):
    """The free parameters of a run in the order its SH sub-steps take them,
    mu then rho at each step, or None for the optimal choices."""
    if isinstance(strategy, OptimalStrategy):
        return None
    if isinstance(strategy, FixedStrategy):
        if len(strategy.mus) < n - 1 or len(strategy.rhos) < n - 1:
            raise ValueError(f"fixed strategy needs at least {n - 1} rho and mu values")
        return chain.from_iterable(zip(strategy.mus, strategy.rhos))
    return _lcg_draws(strategy.seed)


def _vlg_lowering(k: int, a: np.ndarray) -> SymplecticTransform:
    """Givens rotation in the (k, n+k) plane zeroing a(k) into a(n+k).

    The mirror image of ``vlg``, built as vlg's rotation of the pair
    (a(n+k), -a(k)): it moves mass from the upper half onto the pivot row,
    which is exactly what a zero-pivot rescue needs.
    """
    n = a.size // 2
    return _rotations(k, a[n + k - 1:n + k], -a[k - 1:k], n)


class _Driver:
    def __init__(self, a: np.ndarray, variant: str, opts: ReductionOptions):
        # kept unbound: a bound method stored on self would be a reference
        # cycle, holding the driver's arrays until a gc pass
        self.even_substep, strategy = _algorithm(variant, opts)
        a = _as_matrix(a)
        self.n = _square_half(a)
        if not np.all(np.isfinite(a)):
            raise ValueError("input must be finite")
        # read in place (copied only when not C-ordered), once, for red_err
        self.a0 = np.ascontiguousarray(a)
        self.A = a.copy()
        self.opts = opts
        self.transcript: list[SymplecticTransform] = []
        self.fallbacks: list[tuple[int, str]] = []
        self.params = _free_params(strategy, self.n)

    def similarity(self, t: SymplecticTransform) -> None:
        apply_left(t, self.A)
        apply_right_adjoint(t, self.A)
        self.transcript.append(t)

    def _lower_reflector(self, col: int, row0: int) -> None:
        """Apply the reflector concentrating the lower segment of a 1-based
        column, rows n+row0..2n, onto row n+row0.  It is built from a
        contiguous copy of the segment: the reflector's ``seg[1:] @ seg[1:]``
        rounds differently on a strided view of A, and results keep the
        contiguous rounding."""
        n = self.n
        self.similarity(_vlh_from_segment(row0, self.A[n + row0 - 1:, col - 1].copy(), n))

    def _subcolumn(self, col: int, row0: int) -> np.ndarray:
        # active part {row0..n, n+row0..2n} of a 1-based column index
        n = self.n
        return np.concatenate((self.A[row0 - 1:n, col - 1], self.A[n + row0 - 1:, col - 1]))

    def _check_finite(self, j: int, substep: str, col: int) -> None:
        column = self.A[:, col - 1]
        if not np.isfinite(column).all():
            raise BreakdownError(j, substep, "NonFinite", column[~np.isfinite(column)][0])

    def _zero_targets(self, j: int, col: int, row0: int) -> None:
        """Write exact zeros to the entries step j eliminates from a 1-based
        column: rows row0+1..n and n+j+1..2n."""
        self.A[row0:self.n, col - 1] = 0.0
        self.A[self.n + j:, col - 1] = 0.0

    def _rescues(self, j: int, substep: str, col: int, row0: int):
        """The zero-pivot rescues of a 1-based column in the order they are
        tried, each applied as it is reached; yields the name recorded in
        ``fallbacks_used``.  There is none with the fallback off, or for an
        odd sub-step at j > 1 whose H12(j, j-1) is nonzero (see the module
        docstring).  The pivot is row n+row0 of the column, and the norm of
        the active part {row0..n, n+row0..2n} sets the scale:

        * ``case_b``: a lower-segment entry beyond the pivot exceeds
          ``pivot_tol`` times the scale; one reflector concentrates the
          lower segment onto the pivot row.
        * ``case_a``: the mass sits in the upper block.  A chain of
          similarities moves it onto the pivot row: concentrate rows
          row0+1..n into row row0+1, rotate that entry into row n+row0+1
          (both built from the column before either is applied), then
          concentrate the lower segment onto the pivot row.  Then
          ``case_a_rotation``: one more rotation moves the diagonal entry
          down.
        """
        n = self.n
        odd_refused = substep == "odd" and j > 1 and self.A[j - 1, n + j - 2] != 0.0
        if not self.opts.breakdown_fallback or odd_refused:
            return
        # a view: it follows A through every similarity below
        column = self.A[:, col - 1]
        scale = _norm(self._subcolumn(col, row0))
        if np.any(np.abs(column[n + row0:]) > self.opts.pivot_tol * scale):
            self._lower_reflector(col, row0)
            yield "case_b"
        else:
            # The chain is applied to A member by member.  Its first two
            # members are both built from the column as it stands, neither
            # from what the other leaves; they never touch row row0, so
            # earlier columns keep their form.  The last member is built
            # from the column after both are applied, as in case B.
            if row0 < n:
                for t in (vlh(row0 + 1, column), _vlg_lowering(row0 + 1, column)):
                    self.similarity(t)
            self._lower_reflector(col, row0)
            yield "case_a"
            self.similarity(_vlg_lowering(row0, column))
            yield "case_a_rotation"

    def _eliminate_sh(self, j: int, substep: str, col: int, row0: int,
                      optimal, general) -> None:
        """Symplectic-Householder elimination of the active part of a column,
        built by ``optimal(sub, tol)`` or, when the run takes free parameters,
        by ``general(sub, param, tol)`` with the next one drawn; on a zero
        pivot the next rescue is applied and the build retried.  A zero
        active part needs no elimination: it takes ``optimal``'s identity
        record in every run, and its drawn parameter goes unused.  A free
        parameter the build refuses (a mu or rho equal to a(1) of the
        working column, or a mu too far from it, which the caller cannot
        know past step 1) raises ``BreakdownError`` of kind ``InvalidParam``
        at once: no rescue changes a(1).
        """
        tol = self.opts.pivot_tol
        param = None if self.params is None else next(self.params)
        rescues = self._rescues(j, substep, col, row0)
        while True:
            sub = self._subcolumn(col, row0)
            try:
                # osh2/osh1 return the identity record for a zero active part
                free = param is not None and sub.any()
                t = general(sub, param, tol) if free else optimal(sub, tol)
                break
            except InvalidParam as exc:
                raise BreakdownError(j, substep, "InvalidParam", 0.0) from exc
            except BreakdownError as exc:
                case = next(rescues, None)
                if case is None:
                    raise BreakdownError(j, substep, exc.kind, exc.pivot_value) from exc
            self.fallbacks.append((j, f"{substep}_{case}"))
            self._check_finite(j, substep, col)  # a rescue can overflow it
        self.similarity(embed(t, row0 - 1, self.n))

    def _even_sh(self, j: int) -> None:
        self._eliminate_sh(j, "even", self.n + j, j + 1, osh1, sh1)

    def _even_givens(self, j: int) -> None:
        """The similarities by vlg(k, column n+j), k = n down to j+1, as one
        ``vlg_sweep`` record, then one reflector.

        Applied one by one from k = n down, the rotations gave the 2x2 block
        with row plane p and column plane q its left rotation first when
        p >= q and its right rotation first when p < q.  The record applies
        left first throughout, so the p < q blocks of the active square are
        recomputed right-then-left: a copy of the square saved before the
        record, viewed as a 2m-by-2m matrix (m = n - j), is rotated by the
        record's (c, s) in the planes of that space (by the Givens kernel,
        not the applies: it is no similarity of A) and written back through
        the p < q mask.  H equals that of the one-by-one sweep bit for bit.
        """
        n, col, m = self.n, self.n + j, self.n - j
        t = vlg_sweep(j + 1, self.A[:, col - 1])
        # the active square as (row half, p, column half, q), a view of A
        square = self.A.reshape(2, n, 2, n)[:, j:, :, j:]
        saved = square.copy()
        self.similarity(t)
        if not t.is_identity:  # else the applies skipped it: A is as it was
            rotated = saved.reshape(2 * m, 2 * m)
            _givens_rows(0, t.c, t.s, rotated.T, m)  # the right rotations
            _givens_rows(0, t.c, t.s, rotated, m)  # then the left ones
            np.copyto(square, saved, where=~np.tri(m, dtype=bool)[:, None, :])
        if j <= n - 2:
            self.similarity(vlh(j + 1, self.A[:, col - 1]))

    def _even_compact(self, j: int) -> None:
        n, col = self.n, self.n + j
        if j <= n - 2:
            self._lower_reflector(col, j + 1)
            # the reflector can overflow the column; vlg must not see it
            self._check_finite(j, "even", col)
        self.similarity(vlg(j + 1, self.A[:, col - 1]))
        if j <= n - 2:
            self.similarity(vlh(j + 1, self.A[:, col - 1]))

    def run(self, step_hook=None) -> ReductionResult:
        n = self.n
        # Overflow surfaces as a NonFinite breakdown rather than a warning.
        # errstate also scopes the buffer size: the caller's comes back on
        # return or raise.
        with np.errstate(all="ignore"):
            np.setbufsize(_UFUNC_BUFSIZE)
            for j in range(1, n):
                self._check_finite(j, "odd", j)
                self._eliminate_sh(j, "odd", j, j, osh2, sh2)
                self._zero_targets(j, j, j)
                self._check_finite(j, "even", n + j)
                self.even_substep(self, j)
                self._zero_targets(j, n + j, j + 1)
                if step_hook is not None:
                    step_hook(j, self.A)
            s = np.eye(2 * n)
            for t in self.transcript:
                apply_right_adjoint(t, s)
            orth_loss = symplecticity_residual(s)
            red_err = spectral_norm(reduction_residual(self.a0, self.A, s))
        for metric in (orth_loss, red_err):
            if not math.isfinite(metric):
                raise BreakdownError(n - 1, "even", "NonFinite", metric)
        self.A.setflags(write=False)
        s.setflags(write=False)
        return ReductionResult(
            s=s,
            h=self.A,
            transcript=tuple(self.transcript),
            orth_loss=orth_loss,
            red_err=red_err,
            fallbacks_used=tuple(self.fallbacks),
        )


# variant -> (whether it takes the free parameters of opts.strategy, even
# sub-step); the others use the minimum-condition choices osh2/osh1.
_VARIANT_TABLE = {
    "jhsh": (True, _Driver._even_sh),
    "jhosh": (False, _Driver._even_sh),
    "jhmsh": (False, _Driver._even_givens),
    "jhmsh2": (False, _Driver._even_compact),
}
VARIANTS = tuple(_VARIANT_TABLE)


def _algorithm(variant: str, opts: ReductionOptions):
    """The (even sub-step, parameter strategy) pair a run of ``variant``,
    named case-insensitively, executes under ``opts``, a ``ReductionOptions``.

    Two variants with equal pairs compute the same result: ``jhsh`` under
    ``OptimalStrategy`` is ``jhosh``.
    """
    if not isinstance(opts, ReductionOptions):
        raise TypeError(f"opts must be a ReductionOptions, got {type(opts).__name__}")
    key = str(variant).lower()
    if key not in _VARIANT_TABLE:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    free_params, even_substep = _VARIANT_TABLE[key]
    return even_substep, opts.strategy if free_params else OptimalStrategy()


def reduce(a, variant: str, opts: ReductionOptions | None = None) -> ReductionResult:
    """Reduce ``a`` with one of the four variants, named case-insensitively.

    Only ``jhsh`` takes its free parameters from ``opts.strategy``; the
    others use the minimum-condition choices and ignore it.  ``a`` must be
    a real, finite, nonempty 2n-by-2n matrix, else ``ValueError``: complex
    input is refused, not cast.  It is read in place, not copied, so it must
    not change during the call.  H has exact zeros in rows j+1..n,
    n+j+1..2n of column j and rows j+2..n, n+j+1..2n of column n+j, j < n.
    """
    return _Driver(a, variant, opts if opts is not None else ReductionOptions()).run()
