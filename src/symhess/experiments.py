"""Benchmark matrix families, metric sweeps, and table emission.

Two integer-valued 2n-by-2n families exercise the reduction drivers; both
put a zero in the step-1 pivot position (the first column of the lower
left block), which defeats plain symplectic-Householder elimination and
forces the orthogonal fallback.  Family 2 is Hamiltonian: J A is
symmetric.  ``_generator`` is the one reader of a family number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _index
from .reduction import BreakdownError, ReductionOptions, _algorithm, reduce

__all__ = [
    "SweepRow",
    "gen_family1",
    "gen_family2",
    "run_sweep",
    "emit_table",
]


def _m11(n: int) -> np.ndarray:
    return np.eye(n) + 2.0 * np.eye(n, k=-1)


def _m12(n: int) -> np.ndarray:
    return np.eye(n) + 2.0 * np.eye(n, k=1) + 2.0 * np.eye(n, k=-1)


def gen_family1(n: int) -> np.ndarray:
    """First test family.

    Blocks: M11 lower bidiagonal (diag 1, subdiag 2); M12 symmetric
    tridiagonal (diag 1, off-diag 2); M21 upper bidiagonal with diagonal
    (0, 1, ..., 1) and superdiagonal 2, so its first column is zero;
    M22 lower bidiagonal (diag 1, subdiag 3).
    """
    if _index(n, "n") < 2:
        raise ValueError("n must be >= 2")
    m21 = np.diag([0.0] + [1.0] * (n - 1)) + 2.0 * np.eye(n, k=1)
    m22 = np.eye(n) + 3.0 * np.eye(n, k=-1)
    return np.block([[_m11(n), _m12(n)], [m21, m22]])


def gen_family2(n: int) -> np.ndarray:
    """Second (Hamiltonian) test family.

    M11 and M12 as in family 1; M21 is symmetric with zero first row and
    column and tridiagonal (diag 1, off-diag 3) on indices 2..n;
    M22 = -M11^T.  J A is symmetric exactly.
    """
    if _index(n, "n") < 2:
        raise ValueError("n must be >= 2")
    m21 = np.zeros((n, n))
    m21[1:, 1:] = np.eye(n - 1) + 3.0 * np.eye(n - 1, k=1) + 3.0 * np.eye(n - 1, k=-1)
    m22 = -_m11(n).T
    return np.block([[_m11(n), _m12(n)], [m21, m22]])


_GENERATORS = {1: gen_family1, 2: gen_family2}


def _generator(family: int):
    """The generator of a family number, which is 1 or 2, else ``ValueError``."""
    if _index(family, "family") not in _GENERATORS:
        raise ValueError("family must be " + " or ".join(map(str, _GENERATORS)))
    return _GENERATORS[family]


@dataclass(frozen=True)
class SweepRow:
    n: int
    variant: str
    orth_loss: float | None
    red_err: float | None
    fallback_count: int
    status: str  # "ok" | "breakdown"


def run_sweep(family: int, n_min: int, n_max: int, variants: list[str],
              opts: ReductionOptions | None = None) -> list[SweepRow]:
    """Run every variant on every size of a family and collect both metrics.

    Breakdowns are recorded per row rather than raised.  Variants that run
    the same algorithm (``jhsh`` under ``OptimalStrategy`` is ``jhosh``)
    are reduced once per size and share the outcome; each row keeps the
    caller's label.  The sizes, every name, ``opts`` and the family are
    checked, in that order, before any matrix is generated or reduced.
    """
    n_min, n_max = _index(n_min, "n_min"), _index(n_max, "n_max")
    if not 2 <= n_min <= n_max:
        raise ValueError("need 2 <= n_min <= n_max")
    if opts is None:
        opts = ReductionOptions()
    algorithms = [_algorithm(variant, opts) for variant in variants]
    generate = _generator(family)
    rows: list[SweepRow] = []
    for n in range(n_min, n_max + 1):
        a = generate(n)
        outcomes: dict = {}
        for variant, algorithm in zip(variants, algorithms):
            if algorithm not in outcomes:
                outcomes[algorithm] = _outcome(a, variant, opts)
            rows.append(SweepRow(n, variant, *outcomes[algorithm]))
    return rows


def _outcome(a: np.ndarray, variant: str, opts: ReductionOptions):
    """(orth_loss, red_err, fallback count, status) of one reduction."""
    try:
        res = reduce(a, variant, opts)
    except BreakdownError:
        return None, None, 0, "breakdown"
    return res.orth_loss, res.red_err, len(res.fallbacks_used), "ok"


def _fmt(value: float | None) -> str:
    return "fail" if value is None else f"{value:.4e}"


_COLUMNS = ("n", "variant", "orth_loss", "red_err", "fallbacks", "status")


def emit_table(rows: list[SweepRow], format: str = "csv") -> str:
    """Render sweep rows as CSV or a markdown table (LF line endings)."""
    cells = [
        (str(r.n), r.variant, _fmt(r.orth_loss), _fmt(r.red_err),
         str(r.fallback_count), r.status)
        for r in rows
    ]
    if format == "csv":
        lines = [",".join(_COLUMNS)]
        lines += [",".join(c) for c in cells]
    elif format == "markdown":
        lines = ["| " + " | ".join(_COLUMNS) + " |",
                 "|" + "|".join(" --- " for _ in _COLUMNS) + "|"]
        lines += ["| " + " | ".join(c) + " |" for c in cells]
    else:
        raise ValueError(f"unknown format {format!r}; expected 'csv' or 'markdown'")
    return "\n".join(lines) + "\n"
