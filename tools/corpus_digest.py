"""Bit-identity digest of every reduction over a fixed corpus of 2,912 cases.

Prints one ``#`` header line with the numpy version, the BLAS build and
the BLAS kernel in use, then one line per case: the case name, the
outcome (``ok`` or ``breakdown``) and sha256 hashes over the exact bits of
the result (arrays as uint64 views, so the signs of zeros count).  A
successful run gets three hashes, so that a change can show which part of
the result it moved:

1. H, ``fallbacks_used`` and every field of every transcript record;
2. S;
3. ``orth_loss`` and ``red_err``.

A ``BreakdownError`` gets one hash over the step, sub-step, kind and
pivot value.

The corpus: families 1 and 2 at n = 2..40; Gaussians
``default_rng([1500, s]).standard_normal((2n, 2n))`` for s < 20 and
n in {3, 7, 15, 25, 50}; the three n = 200 Gaussians
``default_rng([20161227, i])`` of the dense benchmark workloads; family 1
at n = 150.  Each input runs under the four variants and four option sets:
the default, ``SeededStrategy(7)``, the rescue off and ``pivot_tol=0.05``.

The tool reduces with whichever ``symhess`` is first on the import path, so
one copy of it digests any checkout.  From the repository root:

    PYTHONPATH=src python3 tools/corpus_digest.py > change.txt
    PYTHONPATH=/path/to/base/src python3 tools/corpus_digest.py > base.txt
    diff base.txt change.txt

A change that keeps every result bit for bit prints no difference; one
that only rounds the metrics differently changes only the third hash of
some lines.  The digests hold for one BLAS kernel only (numpy's OpenBLAS
picks its kernel for the CPU when it loads), so two outputs whose headers
differ are not comparable.  A full run takes 25-40 s on one core of a
2-vCPU Xeon VM (numpy 2.4).  Run as a script, the tool pins BLAS to one
thread before numpy loads: the blocking of a multi-threaded BLAS changes
the roundings of the n=150 and n=200 cases, so without the pin the
digests would depend on the caller's environment.  Imported, it leaves
the environment alone.
"""

from __future__ import annotations

import ctypes
import dataclasses
import glob
import hashlib
import os
import struct

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np

from symhess import (
    VARIANTS,
    BreakdownError,
    ReductionOptions,
    SeededStrategy,
    gen_family1,
    gen_family2,
    reduce,
)

OPTION_SETS = (
    ("default", ReductionOptions()),
    ("seeded7", ReductionOptions(strategy=SeededStrategy(7))),
    ("fallback_off", ReductionOptions(breakdown_fallback=False)),
    ("pivot_tol_0.05", ReductionOptions(pivot_tol=0.05)),
)


def inputs():
    """(name, matrix) for each corpus input, generated as it is reached."""
    for family, gen in ((1, gen_family1), (2, gen_family2)):
        for n in range(2, 41):
            yield f"family{family}_n{n}", gen(n)
    for s in range(20):
        for n in (3, 7, 15, 25, 50):
            yield f"rng1500_{s}_n{n}", np.random.default_rng([1500, s]).standard_normal((2 * n, 2 * n))
    for i in range(3):
        yield f"rng20161227_{i}_n200", np.random.default_rng([20161227, i]).standard_normal((400, 400))
    yield "family1_n150", gen_family1(150)


def cases():
    """(name, matrix, variant, options) for each of the 2,912 cases."""
    for name, a in inputs():
        for variant in VARIANTS:
            for label, opts in OPTION_SETS:
                yield f"{name} {variant} {label}", a, variant, opts


def _feed(h, value) -> None:
    """Hash ``value`` by its exact bits, tagged by type and shape."""
    if isinstance(value, np.ndarray):
        h.update(f"a{value.shape}".encode())
        h.update(np.ascontiguousarray(value, dtype=np.float64).view(np.uint64).tobytes())
    elif isinstance(value, float):
        h.update(b"f" + struct.pack("<d", value))
    elif isinstance(value, (int, np.integer)):
        h.update(f"i{int(value)};".encode())
    elif isinstance(value, str) or value is None:
        h.update(f"s{value!r};".encode())
    elif isinstance(value, (tuple, list)):
        h.update(f"t{len(value)}".encode())
        for item in value:
            _feed(h, item)
    elif dataclasses.is_dataclass(value):
        h.update(f"d{type(value).__name__}".encode())
        for f in dataclasses.fields(value):
            _feed(h, getattr(value, f.name))
    else:
        raise TypeError(f"cannot digest a {type(value).__name__}")


def _sha(value) -> str:
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()


def digest(a, variant: str, opts: ReductionOptions) -> tuple[str, tuple[str, ...]]:
    """(outcome, sha256 hex digests) of one reduction: three for a result
    (H with the transcript and fallbacks, S, the metrics), one for a
    breakdown."""
    try:
        res = reduce(a, variant, opts)
    except BreakdownError as exc:
        return "breakdown", (_sha((exc.step, exc.substep, exc.kind, exc.pivot_value)),)
    return "ok", (_sha((res.h, res.fallbacks_used, res.transcript)), _sha(res.s),
                  _sha((res.orth_loss, res.red_err)))


def blas_core() -> str:
    """The kernel numpy's bundled OpenBLAS picked when it loaded, or
    ``unknown`` for a BLAS that does not say."""
    numpy_dir = os.path.dirname(np.__file__)
    libs = (glob.glob(os.path.join(os.path.dirname(numpy_dir), "numpy.libs", "*openblas*"))
            + glob.glob(os.path.join(numpy_dir, ".dylibs", "*openblas*")))
    for lib in libs:
        try:
            corename = ctypes.CDLL(lib).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def header() -> str:
    """One ``#`` line naming what the digests depend on besides the code."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{blas['name']} {blas['version']}"
    except KeyError:  # a build that does not name its BLAS
        build = "unknown"
    return f"# numpy {np.__version__}; blas {build}; core {blas_core()}"


def main() -> None:
    print(header(), flush=True)
    for name, a, variant, opts in cases():
        outcome, shas = digest(a, variant, opts)
        print(name, outcome, *shas, flush=True)


if __name__ == "__main__":
    main()
