"""Per-layer spans recorded from outside the library.

The tracer replaces module attributes of ``symhess`` at run time with
wrappers that record a span (name, start, end, parent span, op id) around
each call; nothing under ``src/`` is edited.  Wrappers are installed where
the caller looks the name up: ``reduction`` imports ``apply_left`` by name,
so ``symhess.reduction.apply_left`` is wrapped, not the one in
``transforms``.  A name that a later refactor removed is skipped, so the
layer it measured reads 0 instead of crashing the run.

Spans live in flat in-memory arrays and are written to one ``.npz`` file
when the run ends.  A span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import os
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

OP = "bench.op"
REDUCE = "reduction.reduce"
APPLY_LEFT = "transforms.apply_left"
APPLY_RIGHT_A = "transforms.apply_right_a"
APPLY_RIGHT_S = "transforms.apply_right_s"
BUILD = "transforms.build"
ORTH_LOSS = "core.orth_loss"
RED_ERR = "core.red_err"
STRUCTURE = "core.structure"
READ = "matrixio.read"
WRITE = "matrixio.write"
CLI_MAIN = "cli.main"
SWEEP = "experiments.run_sweep"

# Transform constructors the reduction driver calls by name.
_BUILDERS = ("osh1", "osh2", "sh1", "sh2", "vlg", "vlh", "_vlh_from_segment",
             "embed", "_vlg_lowering")

# (module, attribute, span name) for the plain wrappers.
_PLAIN = [
    ("experiments", "run_sweep", SWEEP),
    ("cli", "main", CLI_MAIN),
    ("cli", "structure_report", STRUCTURE),
    ("cli", "symplecticity_residual", ORTH_LOSS),
    ("cli", "spectral_norm", RED_ERR),
    ("reduction", "symplecticity_residual", ORTH_LOSS),
    ("reduction", "spectral_norm", RED_ERR),
] + [("reduction", b, BUILD) for b in _BUILDERS]

_KINDS = {"TransformSH": "sh", "TransformGivens": "givens", "TransformVLH": "vlh"}

# Per-layer metric -> (how it is derived, span or counter name).  Times are
# self times; every value is a mean per traced op.
PER_LAYER = {
    "transforms.apply_right_a_s": ("self", APPLY_RIGHT_A),
    "transforms.apply_right_s_s": ("self", APPLY_RIGHT_S),
    "transforms.apply_left_s": ("self", APPLY_LEFT),
    "transforms.apply_calls": ("calls", (APPLY_LEFT, APPLY_RIGHT_A, APPLY_RIGHT_S)),
    "transforms.build_s": ("self", BUILD),
    "transforms.build_calls": ("calls", (BUILD,)),
    "transforms.count_sh": ("count", "kind.sh"),
    "transforms.count_givens": ("count", "kind.givens"),
    "transforms.count_vlh": ("count", "kind.vlh"),
    "reduction.driver_self_s": ("self", REDUCE),
    "reduction.fallbacks": ("count", "fallbacks"),
    "reduction.breakdowns": ("count", "breakdowns"),
    "core.orth_loss_s": ("self", ORTH_LOSS),
    "core.red_err_s": ("self", RED_ERR),
    "core.structure_s": ("self", STRUCTURE),
    "matrixio.read_s": ("self", READ),
    "matrixio.write_s": ("self", WRITE),
    "matrixio.mib_read": ("count", "bytes_read"),
    "matrixio.mib_written": ("count", "bytes_written"),
    "cli.self_s": ("self", CLI_MAIN),
    "experiments.sweep_self_s": ("self", SWEEP),
}


class Tracer:
    """Span recorder.  ``install`` wraps the library; ``uninstall`` restores it."""

    def __init__(self, lib):
        self.lib = lib
        self.names: dict[str, int] = {}
        self.name_id = array("h")
        self.parent = array("q")
        self.op_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.current_op = -1
        self.counts: dict[str, float] = {}
        self._last_left = (None, None)
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names[name] = len(self.names)
        return self.names[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_id.append(self.current_op)
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self.stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self.stack.pop()

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def run_op(self, op_index: int, fn):
        """Call ``fn()`` as op ``op_index`` inside a root span."""
        self.current_op = op_index
        i = self._open(self._id(OP))
        try:
            return fn()
        finally:
            self._close(i)

    def _wrap(self, fn, name, after=None):
        nid = self._id(name)

        def wrapper(*args, **kwargs):
            i = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                after(args, out)
            return out
        return wrapper

    # -- installation ----------------------------------------------------
    def _patch(self, module_name: str, attr: str, make) -> None:
        module = getattr(self.lib, module_name, None)
        fn = getattr(module, attr, None)
        if fn is None:
            return
        self._saved.append((module, attr, fn))
        setattr(module, attr, make(fn))

    def install(self) -> None:
        for module_name, attr, name in _PLAIN:
            self._patch(module_name, attr, lambda fn, name=name: self._wrap(fn, name))
        for module_name in ("reduction", "experiments", "cli"):
            self._patch(module_name, "reduce", self._wrap_reduce)
        self._patch("reduction", "apply_left", self._wrap_apply_left)
        self._patch("reduction", "apply_right_adjoint", self._wrap_apply_right)
        self._patch("cli", "read_matrix",
                    lambda fn: self._wrap(fn, READ, self._file_bytes("bytes_read")))
        self._patch("cli", "write_matrix",
                    lambda fn: self._wrap(fn, WRITE, self._file_bytes("bytes_written")))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _file_bytes(self, key):
        def after(args, _out):
            if args and os.path.exists(args[0]):
                self.count(key, os.path.getsize(args[0]))
        return after

    def _wrap_reduce(self, fn):
        inner = self._wrap(fn, REDUCE, self._after_reduce)
        breakdown = getattr(self.lib.reduction, "BreakdownError", ())

        def wrapper(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            except breakdown:
                self.count("breakdowns")
                raise
        return wrapper

    def _after_reduce(self, _args, res) -> None:
        transcript = getattr(res, "transcript", ())
        kinds = Counter(_KINDS.get(type(t).__name__, "other") for t in transcript)
        for kind, k in kinds.items():
            self.count("kind." + kind, k)
        self.count("applied", len(transcript))
        self.count("identity", sum(bool(getattr(t, "is_identity", False)) for t in transcript))
        self.count("fallbacks", len(getattr(res, "fallbacks_used", ())))

    def _wrap_apply_left(self, fn):
        inner = self._wrap(fn, APPLY_LEFT)

        def wrapper(t, m, *args, **kwargs):
            self._last_left = (t, m)
            return inner(t, m, *args, **kwargs)
        return wrapper

    def _wrap_apply_right(self, fn):
        # A right update that follows a left update of the same matrix by
        # the same transform is the similarity update of A; any other right
        # update is the accumulation of S.
        on_a = self._wrap(fn, APPLY_RIGHT_A)
        on_s = self._wrap(fn, APPLY_RIGHT_S)

        def wrapper(t, m, *args, **kwargs):
            last_t, last_m = self._last_left
            target = on_a if (t is last_t and m is last_m) else on_s
            return target(t, m, *args, **kwargs)
        return wrapper

    # -- analysis --------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_id, dtype=np.int16),
            "parent": np.array(self.parent, dtype=np.int64),
            "op_id": np.array(self.op_id, dtype=np.int64),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
        }

    def per_layer(self, traced_ops: int) -> dict[str, float]:
        """Mean per traced op of each per-layer metric in ``PER_LAYER``."""
        sp = self.arrays()
        k = len(self.names)
        dur = (sp["end_ns"] - sp["start_ns"]).astype(np.float64) * 1e-9
        has_parent = sp["parent"] >= 0
        child = np.bincount(sp["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_s = np.bincount(sp["name_id"], weights=dur - child, minlength=k)
        calls = np.bincount(sp["name_id"], minlength=k)
        ops = max(traced_ops, 1)

        def by_name(values, name):
            return float(values[self.names[name]]) if name in self.names else 0.0

        out = {}
        for metric, (how, key) in PER_LAYER.items():
            if how == "self":
                value = by_name(self_s, key)
            elif how == "calls":
                value = sum(by_name(calls, name) for name in key)
            else:
                value = self.counts.get(key, 0)
                if key.startswith("bytes"):
                    value /= 2 ** 20
            out[metric] = value / ops
        applied = self.counts.get("applied", 0)
        out["transforms.identity_frac"] = self.counts.get("identity", 0) / applied if applied else 0.0
        out["trace.op_s"] = by_name(np.bincount(sp["name_id"], weights=dur, minlength=k), OP) / ops
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(sorted(self.names, key=self.names.get)), **self.arrays())
