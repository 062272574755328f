"""The environment a result was measured in."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

_BLAS_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads", "MKL_Get_Max_Threads")
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas() -> tuple[str, int | None]:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError, AttributeError):
        name = "unknown"
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() or "mkl" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _BLAS_THREAD_QUERIES:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    return name, threads


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of ``root``'s git repository, read from the files; "unknown"
    in a checkout that is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def collect(root: Path, seed: int) -> dict:
    blas, blas_threads = _blas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "thread_env": {v: os.environ[v] for v in _THREAD_VARS if v in os.environ},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(root),
        "seed": seed,
    }


def describe(env: dict) -> str:
    return (f"env: python {env['python']}, numpy {env['numpy']}, {env['blas']} "
            f"({env['blas_threads']} threads), nproc {env['nproc']}, {env['cpu']}, "
            f"commit {env['git_commit'][:12]}, seed {env['seed']}")
