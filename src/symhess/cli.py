"""Command-line interface: generate benchmark matrices, run reductions,
sweep experiment tables, and check factorizations.

Exit codes: 0 success, 2 bad arguments, 3 I/O failure or malformed matrix
file, 4 breakdown (a free parameter equal to a(1) of the working matrix
included), 5 non-square/odd/mismatched input, 6 structure check failed.
The commands raise, and ``main`` maps each error to its code through
``_EXIT_CODES``.  The shape of a matrix is checked where it is used, by
``reduce`` and the ``core`` metrics, whose message names the shape, not
the file.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

import numpy as np

from .core import (_ShapeError, reduction_residual, spectral_norm, structure_report,
                   symplecticity_residual)
from .experiments import _generator, emit_table, run_sweep
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

__all__ = ["main", "run"]

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
        return SeededStrategy(seed)  # refuses a seed outside 0..2^64-1
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
        if not path or not os.path.isdir(parent):  # open("") fails, abspath("") is the cwd
            code = errno.ENOENT
        elif path.endswith((os.sep, os.altsep or os.sep)):  # abspath drops it; open cannot create "new/"
            code = errno.EISDIR
        else:
            code = 0 if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES
    if code:
        raise OSError(code, os.strerror(code), path)


# The exit code of each error kind a command raises, most specific kind first.
_EXIT_CODES = {
    _ShapeError: EXIT_BAD_MATRIX,
    MatrixFormatError: EXIT_IO,
    OSError: EXIT_IO,
    ValueError: EXIT_USAGE,
}


def _gen(args) -> int:
    write_matrix(args.out, _generator(args.family)(args.n))
    return EXIT_OK


def _reduce(args) -> int:
    strat = _parse_strategy(args.strategy)
    for out in (args.out_h, args.out_s):
        if out is not None:
            _check_writable(out)
    a = read_matrix(args.input)
    res = reduce(a, args.algo, ReductionOptions(strategy=strat,
                                                breakdown_fallback=args.fallback == "on",
                                                pivot_tol=args.pivot_tol))
    if args.out_h is not None:
        write_matrix(args.out_h, res.h)
    if args.out_s is not None:
        write_matrix(args.out_s, res.s)
    print(f"orth_loss={res.orth_loss:.17g}")
    print(f"red_err={res.red_err:.17g}")
    print(f"fallbacks={len(res.fallbacks_used)}")
    return EXIT_OK


def _experiment(args) -> int:
    # run_sweep checks the family, the sizes and the names before it reduces
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos:
        raise ValueError("need at least one algo")
    if args.out is not None:
        _check_writable(args.out)
    rows = run_sweep(args.family, args.n_min, args.n_max, algos, ReductionOptions())
    text = emit_table(rows, args.format)
    if args.out is None:
        sys.stdout.write(text)
        return EXIT_OK
    with open(args.out, "w", newline="\n") as fh:
        fh.write(text)
    return EXIT_OK


def _check(args) -> int:
    a, s, h = read_matrix(args.a), read_matrix(args.s), read_matrix(args.h)
    # reduction_residual checks every shape before any work or output
    red_err = spectral_norm(reduction_residual(a, h, s))
    orth_loss = symplecticity_residual(s)
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
    p.set_defaults(handler=_gen)

    p = sub.add_parser("reduce", help="reduce a matrix file to J-Hessenberg form")
    p.add_argument("input")
    p.add_argument("--algo", required=True, type=str.lower, choices=VARIANTS)
    p.add_argument("--strategy", default="optimal",
                   help="optimal | seeded:<u64> | fixed:<file> "
                        "(file: one float per line, alternating rho, mu per step)")
    p.add_argument("--fallback", default="on", choices=("on", "off"))
    p.add_argument("--pivot-tol", type=float, default=DEFAULT_BREAKDOWN_TOL)
    p.add_argument("--out-h", default=None)
    p.add_argument("--out-s", default=None)
    p.set_defaults(handler=_reduce)

    p = sub.add_parser("experiment", help="sweep a family over a size range")
    p.add_argument("--family", type=int, required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--algos", required=True,
                   help="comma-separated list from: " + ", ".join(VARIANTS))
    p.add_argument("--format", default="csv", choices=("csv", "markdown"))
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_experiment)

    p = sub.add_parser("check", help="verify a factorization A ~ S^J H S")
    p.add_argument("a")
    p.add_argument("s")
    p.add_argument("h")
    p.set_defaults(handler=_check)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.  A ``BreakdownError``
    prints its step lines on stdout and exits 4; an error in
    ``_EXIT_CODES`` prints its message on stderr."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.handler(args)
    except BreakdownError as exc:
        print(f"step={exc.step}\nsubstep={exc.substep}\nkind={exc.kind}")
        return EXIT_BREAKDOWN
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def run() -> None:
    """Console-script entry point."""
    sys.exit(main())
