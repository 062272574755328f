"""Command-line interface: generate benchmark matrices, run reductions,
sweep experiment tables, and check factorizations.

Exit codes: 0 success, 2 bad arguments, 3 I/O failure or malformed matrix
file, 4 breakdown, 5 non-square/odd/mismatched input, 6 structure check
failed.  The commands raise; ``_EXIT_CODES`` maps each error to its code.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys

import numpy as np

from .core import adjoint_mat, spectral_norm, structure_report, symplecticity_residual
from .experiments import FamilySpec, emit_table, run_sweep
from .matrixio import MatrixFormatError, read_matrix, write_matrix
from .reduction import (
    DEFAULT_BREAKDOWN_TOL,
    BreakdownError,
    FixedStrategy,
    OptimalStrategy,
    ParamStrategy,
    ReductionOptions,
    SeededStrategy,
    VARIANTS,
    reduce,
)

__all__ = ["main", "run", "cmd_gen", "cmd_reduce", "cmd_experiment", "cmd_check"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_BREAKDOWN = 4
EXIT_BAD_MATRIX = 5
EXIT_STRUCTURE = 6


def _parse_strategy(text: str) -> ParamStrategy:
    if text == "optimal":
        return OptimalStrategy()
    if text.startswith("seeded:"):
        try:
            seed = int(text.split(":", 1)[1], 0)
        except ValueError:
            raise ValueError(f"bad seed in strategy {text!r}")
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        return SeededStrategy(seed)
    if text.startswith("fixed:"):
        path = text.split(":", 1)[1]
        try:
            with open(path, encoding="ascii") as fh:
                values = [float(line) for line in fh if line.strip()]
        except OSError as exc:
            raise OSError(f"cannot read strategy file {path}: {exc}") from exc
        except ValueError:
            raise ValueError(f"strategy file {path} must hold one float per line")
        if len(values) % 2:
            raise ValueError("strategy file must hold rho, mu pairs (even count)")
        return FixedStrategy(rhos=tuple(values[0::2]), mus=tuple(values[1::2]))
    raise ValueError(f"unknown strategy {text!r}; "
                     "expected optimal, seeded:<u64> or fixed:<file>")


def _load_square_even(path) -> np.ndarray:
    a = read_matrix(path)
    if a.shape[0] != a.shape[1] or a.shape[0] % 2:
        raise _BadMatrix(f"{path}: matrix must be square with even size, "
                         f"got {a.shape[0]}x{a.shape[1]}")
    return a


class _BadMatrix(ValueError):
    pass


def _check_writable(path) -> None:
    """Raise now the ``OSError`` that writing ``path`` after the work would
    raise, creating and changing nothing: ``path`` must be a writable
    non-directory, or a new name in a writable directory."""
    path = os.fspath(path)
    if os.path.isdir(path):
        code = errno.EISDIR
    elif os.path.exists(path):
        code = 0 if os.access(path, os.W_OK) else errno.EACCES
    else:
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            code = errno.ENOENT
        else:
            code = 0 if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES
    if code:
        raise OSError(code, os.strerror(code), path)


# The exit code of each error kind a command raises, most specific kind first.
_EXIT_CODES = {
    _BadMatrix: EXIT_BAD_MATRIX,
    MatrixFormatError: EXIT_IO,
    OSError: EXIT_IO,
    ValueError: EXIT_USAGE,
}


def _exit_codes(cmd):
    """Run ``cmd``; a ``BreakdownError`` prints its step lines on stdout and
    exits 4, an error in ``_EXIT_CODES`` prints its message on stderr."""
    @functools.wraps(cmd)
    def wrapper(*args, **kwargs) -> int:
        try:
            return cmd(*args, **kwargs)
        except BreakdownError as exc:
            print(f"step={exc.step}\nsubstep={exc.substep}\nkind={exc.kind}")
            return EXIT_BREAKDOWN
        except tuple(_EXIT_CODES) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    return wrapper


@_exit_codes
def cmd_gen(family: int, n: int, out) -> int:
    write_matrix(out, FamilySpec(family, n).generate())
    return EXIT_OK


@_exit_codes
def cmd_reduce(input, algo: str, strategy: str = "optimal", fallback: bool = True,
               out_h=None, out_s=None, pivot_tol: float = DEFAULT_BREAKDOWN_TOL) -> int:
    if algo not in VARIANTS:  # case-sensitive, unlike the library
        raise ValueError(f"unknown algo {algo!r}")
    strat = _parse_strategy(strategy)
    for out in (out_h, out_s):
        if out is not None:
            _check_writable(out)
    a = _load_square_even(input)
    res = reduce(a, algo, ReductionOptions(strategy=strat, breakdown_fallback=fallback,
                                           pivot_tol=pivot_tol))
    if out_h is not None:
        write_matrix(out_h, res.h)
    if out_s is not None:
        write_matrix(out_s, res.s)
    print(f"orth_loss={res.orth_loss:.17g}")
    print(f"red_err={res.red_err:.17g}")
    print(f"fallbacks={len(res.fallbacks_used)}")
    return EXIT_OK


@_exit_codes
def cmd_experiment(family: int, n_min: int, n_max: int, algos: list[str],
                   format: str = "csv", out=None) -> int:
    # run_sweep checks the family and sizes up front; these it does not.
    if not algos:
        raise ValueError("need at least one algo")
    for algo in algos:
        if algo not in VARIANTS:
            raise ValueError(f"unknown algo {algo!r}")
    if format not in ("csv", "markdown"):
        raise ValueError(f"unknown format {format!r}")
    if out is not None:
        _check_writable(out)
    rows = run_sweep(family, n_min, n_max, algos, ReductionOptions())
    text = emit_table(rows, format)
    if out is None:
        sys.stdout.write(text)
        return EXIT_OK
    with open(out, "w", newline="\n") as fh:
        fh.write(text)
    return EXIT_OK


@_exit_codes
def cmd_check(a_path, s_path, h_path) -> int:
    a = _load_square_even(a_path)
    s = _load_square_even(s_path)
    h = _load_square_even(h_path)
    if not a.shape == s.shape == h.shape:
        raise _BadMatrix("A, S, H must all have the same shape")
    orth_loss = symplecticity_residual(s)
    red_err = spectral_norm(h - adjoint_mat(s) @ a @ s)
    tol = 1e-10 * float(np.linalg.norm(h, "fro"))
    report = structure_report(h, tol)
    print(f"orth_loss={orth_loss:.17g}")
    print(f"red_err={red_err:.17g}")
    print(f"is_upper_j_hessenberg={str(report.is_upper_j_hessenberg).lower()}")
    print(f"is_unreduced={str(report.is_unreduced).lower()}")
    return EXIT_OK if report.is_upper_j_hessenberg else EXIT_STRUCTURE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symhess",
        description="Upper J-Hessenberg reduction via symplectic transformations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a benchmark family matrix")
    p.add_argument("--family", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("reduce", help="reduce a matrix file to J-Hessenberg form")
    p.add_argument("input")
    p.add_argument("--algo", required=True, choices=VARIANTS)
    p.add_argument("--strategy", default="optimal",
                   help="optimal | seeded:<u64> | fixed:<file> "
                        "(file: one float per line, alternating rho, mu per step)")
    p.add_argument("--fallback", default="on", choices=("on", "off"))
    p.add_argument("--pivot-tol", type=float, default=DEFAULT_BREAKDOWN_TOL)
    p.add_argument("--out-h", default=None)
    p.add_argument("--out-s", default=None)

    p = sub.add_parser("experiment", help="sweep a family over a size range")
    p.add_argument("--family", type=int, required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--algos", required=True,
                   help="comma-separated list from: " + ", ".join(VARIANTS))
    p.add_argument("--format", default="csv", choices=("csv", "markdown"))
    p.add_argument("--out", default=None)

    p = sub.add_parser("check", help="verify a factorization A ~ S^J H S")
    p.add_argument("a")
    p.add_argument("s")
    p.add_argument("h")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    if args.command == "gen":
        return cmd_gen(args.family, args.n, args.out)
    if args.command == "reduce":
        return cmd_reduce(args.input, args.algo, args.strategy,
                          args.fallback == "on", args.out_h, args.out_s,
                          args.pivot_tol)
    if args.command == "experiment":
        algos = [a.strip() for a in args.algos.split(",") if a.strip()]
        return cmd_experiment(args.family, args.n_min, args.n_max, algos,
                              args.format, args.out)
    if args.command == "check":
        return cmd_check(args.a, args.s, args.h)
    return EXIT_USAGE  # pragma: no cover


def run() -> None:
    """Console-script entry point."""
    sys.exit(main())
