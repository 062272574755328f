"""The names perfbench's tracer wraps exist in the library.

The tracer (``perfbench/layers.py``) wraps module attributes of ``symhess``
by name and skips a name it cannot find without a message, so a rename in
the library would read 0 on the layer that name measured instead of
failing.  These tests fail instead.
"""

import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import symhess
import symhess.cli  # not imported by the package itself

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import layers  # noqa: E402

TRACED = sorted(
    {(module, attr) for module, attr, _span in layers._PLAIN}
    | {("reduction", name) for name in layers._BUILDERS}
    | {(module, "reduce") for module in ("reduction", "experiments", "cli")}
    | {("reduction", "apply_left"), ("reduction", "apply_right_adjoint"),
       ("reduction", "BreakdownError"), ("cli", "read_matrix"), ("cli", "write_matrix")})


@pytest.mark.parametrize("module, attr", TRACED, ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_name_resolves(module, attr):
    assert callable(getattr(getattr(symhess, module), attr, None))


def test_transform_kinds_are_the_record_classes():
    # the per-kind counts go by class name
    kinds = {t.__name__ for t in typing.get_args(symhess.SymplecticTransform)}
    assert set(layers._KINDS) == kinds


def test_traced_reduction_reads_every_transform_layer():
    a = np.random.default_rng(0).standard_normal((12, 12))
    tracer = layers.Tracer(symhess)
    tracer.install()
    try:
        # the tracer wraps `reduction.reduce`, which the workloads call
        tracer.run_op(0, lambda: symhess.reduction.reduce(a, "jhmsh"))
    finally:
        tracer.uninstall()
    per_layer = tracer.per_layer(1)
    for metric in ("build_s", "apply_left_s", "apply_right_a_s", "apply_right_s_s",
                   "count_sh", "count_givens", "count_vlh"):
        assert per_layer["transforms." + metric] > 0, metric
    assert symhess.reduction.apply_left is symhess.transforms.apply_left  # uninstalled


@pytest.mark.parametrize("variant", ["jhmsh", "jhmsh2"])
def test_right_applies_do_not_call_the_traced_left_apply(variant, monkeypatch):
    # The tracer times `reduction.apply_left` as the left-apply layer.  The
    # right apply runs the left arithmetic too, but must not reach it
    # through that name, or its time would land in the left layer: one call
    # per transcript record means no right apply, in the loop or in the S
    # replay, went through it.
    a = np.random.default_rng(0).standard_normal((12, 12))
    calls = []
    inner = symhess.reduction.apply_left
    monkeypatch.setattr(symhess.reduction, "apply_left",
                        lambda t, m: calls.append(t) or inner(t, m))
    res = symhess.reduction.reduce(a, variant)
    assert len(calls) == len(res.transcript)
