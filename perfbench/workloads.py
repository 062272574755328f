"""The four benchmark workloads.

Each workload owns its inputs (``setup``), one pass of op items
(``items``), the timed op (``run_op``), a cheap fingerprint of an op's
output used to check repeated ops, and the full verification of an op
(``check``).  Only ``run_op`` runs inside the timed region.

Inputs come from the benchmark seed; the library receives only matrices
and file paths.  The paper families have no randomness, so on
``paper_sweep`` and ``cli_files`` the seed only orders the op items.  The
dense workloads reduce a fixed corpus of seeded Gaussians: the accuracy of
``jhmsh`` on Gaussians spreads over four decades from one matrix to the
next (red_err/||A|| from 4e-7 to 1e-2 over seeds 0..9 at n=200), so a
corpus redrawn per run would make the accuracy metrics useless as a gate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os

import numpy as np

from .checks import OpCheck, check_reduction

VARIANTS = ("jhsh", "jhosh", "jhmsh", "jhmsh2")

# Sizes (half-dimension n) per scale; "tiny" is for the benchmark's own tests.
SCALES = {
    "full": {"sweep_n": (2, 40), "dense_n": 200, "dense_count": 3, "cli_n": 150},
    "tiny": {"sweep_n": (2, 5), "dense_n": 6, "dense_count": 2, "cli_n": 5},
}
CORPUS_SEED = 20161227


class OpError:
    """An exception raised by a timed op, kept as its output."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def fingerprint(self):
        return ("error", type(self.exc).__name__, str(self.exc))


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class Workload:
    name = ""
    units_per_op = 1
    # Reference-kernel parts whose speed the ops follow (calib.py).  Times
    # of interpreted Python swing about twice as far with the host's state
    # as numpy array work, so the dense and CLI ops, which are mostly array
    # work and text I/O, are scaled by the array parts alone: with all
    # three parts their scaled times over-corrected by half.
    speed_parts: tuple[str, ...] = ("rank1", "rotate")

    def __init__(self, lib, seed: int, scale: str, workdir: str):
        self.lib = lib
        self.seed = seed
        self.size = SCALES[scale]
        self.workdir = workdir
        self.breakdown = getattr(lib.reduction, "BreakdownError", ())

    def items(self) -> list:
        """The op items of one pass, in the seed's order."""
        raw = self._items()
        order = np.random.default_rng(self.seed).permutation(len(raw))
        return [raw[i] for i in order]

    def peak_items(self) -> list:
        """Items whose ops set the pass's peak memory (largest inputs)."""
        return self._items()[-1:]

    def check_error(self, err: OpError) -> OpCheck:
        out = OpCheck(units=self.units_per_op)
        out.fail(f"{type(err.exc).__name__}: {err.exc}", units=self.units_per_op)
        return out

    def warmup(self) -> None:
        """Run the op's code paths once on a tiny input before timing."""


class PaperSweep(Workload):
    """The paper's experiment: every variant on families 1 and 2, n = 2..40.

    One op is one (family, n) group of four reductions via ``run_sweep``.
    """

    name = "paper_sweep"
    units_per_op = len(VARIANTS)
    speed_parts = ("rank1", "rotate", "interp")

    def _items(self):
        lo, hi = self.size["sweep_n"]
        # Largest sizes last, so ``peak_items`` picks them.
        return [(f, n) for n in range(lo, hi + 1) for f in (1, 2)]

    def peak_items(self):
        return self._items()[-2:]

    def setup(self) -> None:
        ex = self.lib.experiments
        gen = {1: ex.gen_family1, 2: ex.gen_family2}
        self.inputs = {(f, n): gen[f](n) for f, n in self._items()}

    def warmup(self) -> None:
        self.lib.experiments.run_sweep(2, 2, 4, list(VARIANTS))

    def run_op(self, item):
        family, n = item
        return self.lib.experiments.run_sweep(family, n, n, list(VARIANTS))

    def fingerprint(self, rows):
        return tuple((r.n, r.variant, r.orth_loss, r.red_err, r.fallback_count, r.status)
                     for r in rows)

    def check(self, item, rows) -> OpCheck:
        """Each row must agree with a direct ``reduce`` of the same input,
        whose result is then verified in full."""
        out = OpCheck(units=self.units_per_op)
        if [r.variant for r in rows] != list(VARIANTS):
            out.mismatch(f"{item}: rows {[r.variant for r in rows]}", units=self.units_per_op)
            return out
        a = self.inputs[item]
        for row in rows:
            label = f"family {item[0]} n={item[1]} {row.variant}"
            try:
                res = self.lib.reduction.reduce(a, row.variant)
            except self.breakdown:
                if row.status == "breakdown" and row.orth_loss is None and row.red_err is None:
                    out.fail(f"{label}: breakdown")
                else:
                    out.mismatch(f"{label}: sweep row {row.status}, direct reduce broke down")
                continue
            if (row.status, row.orth_loss, row.red_err, row.fallback_count) != (
                    "ok", res.orth_loss, res.red_err, len(res.fallbacks_used)):
                out.mismatch(f"{label}: sweep row disagrees with direct reduce")
                continue
            one = check_reduction(self.lib, a, res)
            one.reasons = [f"{label}: {r}" for r in one.reasons]
            out.merge(one)
        return out


class Dense(Workload):
    """One variant on a fixed corpus of seeded Gaussians; one op is one reduction."""

    def __init__(self, name: str, variant: str, *args):
        super().__init__(*args)
        self.name = name
        self.variant = variant

    def _items(self):
        return list(range(self.size["dense_count"]))

    def setup(self) -> None:
        m = 2 * self.size["dense_n"]
        self.inputs = [np.random.default_rng([CORPUS_SEED, i]).standard_normal((m, m))
                       for i in self._items()]

    def warmup(self) -> None:
        self.lib.reduction.reduce(np.random.default_rng(0).standard_normal((8, 8)), self.variant)

    def run_op(self, item):
        return self.lib.reduction.reduce(self.inputs[item], self.variant)

    def fingerprint(self, res):
        return _digest(res.h, res.s)

    def check(self, item, res) -> OpCheck:
        return check_reduction(self.lib, self.inputs[item], res)


def _parse_lines(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


class CliFiles(Workload):
    """In-process ``symhess reduce --algo jhmsh2 --out-h --out-s`` then
    ``symhess check`` on a family-1 matrix file written during set-up."""

    name = "cli_files"

    def _items(self):
        return [0]

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        self.a = self.lib.experiments.gen_family1(self.size["cli_n"])
        self.lib.matrixio.write_matrix(self._path("a.txt"), self.a)

    def _cli(self, a_path, h_path, s_path):
        """(reduce exit code, check exit code, reduce output, check output)."""
        outs = [io.StringIO(), io.StringIO()]
        with contextlib.redirect_stdout(outs[0]), contextlib.redirect_stderr(outs[0]):
            rc_reduce = self.lib.cli.main(["reduce", a_path, "--algo", "jhmsh2",
                                           "--out-h", h_path, "--out-s", s_path])
        rc_check = None
        if rc_reduce == 0:
            with contextlib.redirect_stdout(outs[1]), contextlib.redirect_stderr(outs[1]):
                rc_check = self.lib.cli.main(["check", a_path, s_path, h_path])
        return rc_reduce, rc_check, outs[0].getvalue(), outs[1].getvalue()

    def warmup(self) -> None:
        paths = [self._path(f"warm_{x}.txt") for x in "ahs"]
        self.lib.matrixio.write_matrix(paths[0], self.lib.experiments.gen_family1(3))
        self._cli(*paths)

    def run_op(self, item):
        return self._cli(self._path("a.txt"), self._path("h.txt"), self._path("s.txt"))

    def _read(self, name: str) -> np.ndarray:
        # Parsed here rather than with symhess.matrixio, so a reader bug
        # cannot cancel a writer bug.
        with open(self._path(name)) as fh:
            rows, cols = (int(x) for x in fh.readline().split())
            return np.array([float(t) for t in fh.read().split()]).reshape(rows, cols)

    def fingerprint(self, out):
        files = []
        for name in ("h.txt", "s.txt"):
            try:
                with open(self._path(name), "rb") as fh:
                    files.append(hashlib.blake2b(fh.read(), digest_size=16).hexdigest())
            except OSError:
                files.append(None)
        return out + tuple(files)

    def check(self, item, out) -> OpCheck:
        """Exit codes 0, the files hold exactly the H and S of a direct
        reduction, the printed metrics are that reduction's, and the
        reduction passes the full verification."""
        rc_reduce, rc_check, reduce_text, check_text = out
        chk = OpCheck()
        if rc_reduce != 0 or rc_check != 0:
            chk.fail(f"exit codes reduce={rc_reduce} check={rc_check}: "
                     f"{(reduce_text + check_text).strip()}")
            return chk
        res = self.lib.reduction.reduce(self.a, "jhmsh2")
        h, s = self._read("h.txt"), self._read("s.txt")
        if not (np.array_equal(h, res.h) and np.array_equal(s, res.s)):
            chk.mismatch("H or S file differs from a direct reduction")
            return chk
        printed = _parse_lines(reduce_text)
        expect = {"orth_loss": res.orth_loss, "red_err": res.red_err,
                  "fallbacks": len(res.fallbacks_used)}
        if any(float(printed.get(k, "nan")) != v for k, v in expect.items()):
            chk.mismatch(f"printed metrics {printed} differ from {expect}")
            return chk
        if _parse_lines(check_text).get("is_upper_j_hessenberg") != "true":
            chk.mismatch("check exited 0 without confirming the J-Hessenberg structure")
            return chk
        return check_reduction(self.lib, self.a, res)


def make(name: str, lib, seed: int, scale: str, workdir: str) -> Workload:
    args = (lib, seed, scale, workdir)
    if name == "paper_sweep":
        return PaperSweep(*args)
    if name == "dense_givens":
        return Dense(name, "jhmsh", *args)
    if name == "dense_compact":
        return Dense(name, "jhmsh2", *args)
    if name == "cli_files":
        return CliFiles(*args)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("paper_sweep", "dense_givens", "dense_compact", "cli_files")
