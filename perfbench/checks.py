"""Verification of reduction outputs, independent of the library's own metrics.

Every check here runs outside the timed region.  The two accuracy metrics
are recomputed exactly with ``np.linalg.norm(., 2)`` (LAPACK SVD) and a
block-formula symplectic adjoint written here, so a library change that
alters its own metric code cannot hide an accuracy loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

EPS = float(np.finfo(np.float64).eps)


@dataclass
class OpCheck:
    """Outcome of verifying one op.

    ``ok``: the op produced a verified result.  ``units`` counts the
    reductions in the op and ``units_failed`` those that raised, returned
    a non-finite or non-J-Hessenberg H, or failed the transcript replay.
    ``consistent`` turns false only when the program misreports what it
    computed: a sweep row, CLI file or printed metric that disagrees with
    a direct reduction of the same input.
    """

    ok: bool = True
    consistent: bool = True
    units: int = 1
    units_failed: int = 0
    red_err_rel: list[float] = field(default_factory=list)
    orth_loss: list[float] = field(default_factory=list)
    norm_est_rel_err: list[float] = field(default_factory=list)
    reasons: list[str] = field(default_factory=list)

    def fail(self, reason: str, units: int = 1) -> None:
        self.ok = False
        self.units_failed += units
        self.reasons.append(reason)

    def mismatch(self, reason: str, units: int = 1) -> None:
        self.fail("mismatch: " + reason, units)
        self.consistent = False

    def merge(self, other: "OpCheck") -> None:
        """Fold the check of one reduction of a multi-reduction op into this one."""
        self.ok = self.ok and other.ok
        self.consistent = self.consistent and other.consistent
        self.units_failed += other.units_failed
        self.red_err_rel += other.red_err_rel
        self.orth_loss += other.orth_loss
        self.norm_est_rel_err += other.norm_est_rel_err
        self.reasons += other.reasons


def adjoint(m: np.ndarray) -> np.ndarray:
    """Symplectic adjoint J^T M^T J of a 2n-by-2n matrix, by exact block moves."""
    n = m.shape[0] // 2
    return np.block([[m[n:, n:].T, -m[:n, n:].T],
                     [-m[n:, :n].T, m[:n, :n].T]])


def exact_metrics(a: np.ndarray, h: np.ndarray, s: np.ndarray) -> tuple[float, float, float]:
    """(||H - S^J A S||_2 / ||A||_2, ||I - S^J S||_2, ||H - S^J A S||_2)."""
    sj = adjoint(s)
    red = float(np.linalg.norm(h - sj @ a @ s, 2))
    orth = float(np.linalg.norm(np.eye(s.shape[0]) - sj @ s, 2))
    return red / float(np.linalg.norm(a, 2)), orth, red


def replay(transcript, size: int, apply_right_adjoint) -> np.ndarray:
    """S rebuilt from the identity by applying each transcript adjoint in order."""
    s = np.eye(size)
    for t in transcript:
        apply_right_adjoint(t, s)
    return s


def _rel_err(estimate: float, exact: float) -> float:
    return abs(estimate - exact) / max(exact, EPS)


def check_reduction(lib, a: np.ndarray, res) -> OpCheck:
    """Verify one successful reduction result against its input ``a``.

    Fails when H or S is not finite, H is not upper J-Hessenberg with
    tolerance 0, or replaying the transcript from the identity does not
    reproduce S bit for bit.  On success records the exact metrics and the
    relative error of the library's own estimates.
    """
    out = OpCheck()
    h, s = np.asarray(res.h), np.asarray(res.s)
    if h.shape != a.shape or s.shape != a.shape:
        out.fail(f"shape: H {h.shape}, S {s.shape}, A {a.shape}")
        return out
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(s))):
        out.fail("non-finite H or S")
        return out
    if not lib.core.structure_report(h, 0.0).is_upper_j_hessenberg:
        out.fail("H is not upper J-Hessenberg at tolerance 0")
        return out
    transcript = getattr(res, "transcript", None)
    if transcript is None:
        out.fail("result has no transcript to replay")
        return out
    if not np.array_equal(replay(transcript, a.shape[0], lib.transforms.apply_right_adjoint), s):
        out.fail("transcript replay does not reproduce S bit for bit")
        return out
    red_rel, orth, red = exact_metrics(a, h, s)
    out.red_err_rel.append(red_rel)
    out.orth_loss.append(orth)
    out.norm_est_rel_err += [_rel_err(float(res.orth_loss), orth),
                             _rel_err(float(res.red_err), red)]
    return out
