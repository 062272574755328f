"""Tests of the benchmark itself.  Run with

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import symhess  # noqa: E402
from perfbench import calib, checks, compare, workloads  # noqa: E402


def _run(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, tmp_path):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0.2",
                "--trace", str(trace), "--scale", "tiny", "--out", str(tmp_path / "r.json"))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
    record = json.loads((tmp_path / "r.json").read_text())
    assert {"python", "numpy", "blas", "blas_threads", "nproc", "cpu", "git_commit",
            "seed"} <= set(record["env"])
    assert record["env"]["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert len(record["samples"]["kernel_s"]) == len(record["samples"]["op_s"])


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dense_givens",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_speed_factors_follow_the_kernel_locally():
    meter = calib.SpeedMeter(("rotate",))
    ref = calib.REF_PART_S["rotate"]
    meter.samples = [ref] * 20 + [2 * ref] * 20
    local = meter.local_factors()
    assert local[0] == 1.0 and local[-1] == 0.5
    assert meter.factor() == pytest.approx(2 / 3)
    meter.samples = []
    meter.sample()
    assert meter.samples[0] > 0


@pytest.fixture(scope="module")
def reduced():
    a = np.random.default_rng(7).standard_normal((12, 12))
    return a, symhess.reduce(a, "jhmsh2")


def test_checker_accepts_a_true_result(reduced):
    a, res = reduced
    chk = checks.check_reduction(symhess, a, res)
    assert chk.ok and chk.consistent and chk.units_failed == 0
    assert chk.red_err_rel[0] < 1e-12 and chk.orth_loss[0] < 1e-12


def test_checker_rejects_nan_in_h(reduced):
    a, res = reduced
    h = res.h.copy()
    h[0, 0] = np.nan
    chk = checks.check_reduction(symhess, a, dataclasses.replace(res, h=h))
    assert not chk.ok and chk.units_failed == 1 and "non-finite" in chk.reasons[0]


def test_checker_rejects_s_one_ulp_off(reduced):
    a, res = reduced
    s = res.s.copy()
    s[3, 5] = np.nextafter(s[3, 5], np.inf)
    chk = checks.check_reduction(symhess, a, dataclasses.replace(res, s=s))
    assert not chk.ok and chk.units_failed == 1 and "replay" in chk.reasons[0]


def test_raised_exception_is_a_failed_op(tmp_path):
    wl = workloads.make("paper_sweep", symhess, 1, "tiny", str(tmp_path))
    err = symhess.BreakdownError(1, "odd", "ZeroNu", 0.0)
    chk = wl.check_error(workloads.OpError(err))
    assert not chk.ok and chk.consistent and chk.units_failed == 4


def test_sweep_rows_must_match_a_direct_reduce(tmp_path):
    wl = workloads.make("paper_sweep", symhess, 1, "tiny", str(tmp_path))
    wl.setup()
    rows = wl.run_op((1, 3))
    assert wl.check((1, 3), rows).ok
    bad = [dataclasses.replace(rows[0], red_err=rows[0].red_err * 2)] + rows[1:]
    chk = wl.check((1, 3), bad)
    assert not chk.ok and not chk.consistent


@pytest.mark.parametrize("base, new, better, expected", [
    ([1.0, 1.01, 0.99, 1.0], [0.5, 0.51, 0.49, 0.5], "lower", "improved"),
    ([1.0, 1.01, 0.99, 1.0], [1.5, 1.51, 1.49, 1.5], "lower", "worse"),
    ([1.0, 1.01, 0.99, 1.0], [1.01, 0.99, 1.0, 1.0], "lower", "unchanged"),
    ([1.0, 2.0, 0.5, 1.5], [1.1, 2.1, 0.6, 1.3], "lower", "unresolved"),
    ([0.9, 0.91, 0.9, 0.9], [0.95, 0.96, 0.95, 0.95], "higher", "improved"),
])
def test_compare_verdicts(base, new, better, expected):
    pairs = list(zip(base, new))
    assert compare.verdict(base, new, pairs, better, 0.1) == expected


def test_compare_report_has_one_row_per_workload_and_metric(tmp_path):
    def record(workload, seed, value):
        return {"workload": workload, "seed": seed, "trace": 0,
                "metrics": {m["name"]: {"value": value, "unit": m["unit"]}
                            for m in SPEC["end_to_end"]}}
    for name, value in (("base", 1.0), ("new", 0.5)):
        runs = [record(w, s, value) for w in ("dense_givens", "cli_files") for s in (1, 2)]
        (tmp_path / f"{name}.json").write_text(json.dumps({"runs": runs}))
    text = compare.report(tmp_path / "base.json", tmp_path / "new.json", SPEC)
    rows = text.splitlines()[1:]
    assert len(rows) == 2 * len(SPEC["end_to_end"])
    assert all("0.5000" in row for row in rows)
