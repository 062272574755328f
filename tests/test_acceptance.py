"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary lines and timings.
"""

import time

import numpy as np
import pytest

from symhess import (
    BreakdownError,
    ReductionOptions,
    TransformSH,
    apply_left,
    cond2,
    embed,
    gen_family1,
    gen_family2,
    osh1,
    osh2,
    read_matrix,
    reduce,
    run_sweep,
    sh1,
    sh2,
    spectral_norm,
    structure_report,
    symplecticity_residual,
    vlg,
    vlh,
)
from symhess.cli import main as cli_main

from oracles import adjoint_mat, adjoint_record, densify, j_inner

VARIANTS = ("jhsh", "jhosh", "jhmsh", "jhmsh2")


def _report(num, name, budget_s, fn):
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[acceptance] criterion {num} ({name}): FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion {num} ({name}): PASS ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeds budget {budget_s}s"


def _mapped(t, a):
    out = np.asarray(a, dtype=float).copy()
    apply_left(t, out)
    return out


def _admissible(rng, m, floor=0.05):
    a = rng.standard_normal(2 * m)
    while abs(a[m]) < floor * np.linalg.norm(a):
        a = rng.standard_normal(2 * m)
    return a


def test_criterion_1_transform_postconditions():
    def check():
        rng = np.random.default_rng(101)
        for _ in range(1000):
            m = int(rng.integers(2, 7))
            a = _admissible(rng, m)
            na = np.linalg.norm(a)

            rho = float(rng.standard_normal())
            while abs(rho) < 0.05:
                rho = float(rng.standard_normal())
            out = _mapped(sh1(a, rho), a)
            target = np.zeros(2 * m)
            target[0] = rho
            assert np.linalg.norm(out - target) <= 1e-12 * max(na, abs(rho))

            mu = float(rng.standard_normal())
            out = _mapped(sh2(a, mu), a)
            target = np.zeros(2 * m)
            target[0], target[m] = mu, a[m]
            assert np.linalg.norm(out - target) <= 1e-12 * max(na, abs(mu))

            out = _mapped(osh1(a), a)
            assert np.linalg.norm(out[1:]) <= 1e-12 * na
            assert abs(abs(out[0]) - na) <= 1e-12 * na

            t = osh2(a)
            out = _mapped(t, a)
            target = np.zeros(2 * m)
            target[0] = a[0] + np.linalg.norm(np.r_[a[1:m], a[m + 1:]])  # mu
            target[m] = a[m]
            assert np.linalg.norm(out - target) <= 1e-12 * na

            x = _admissible(rng, m)
            y = rng.standard_normal(2 * m)
            while abs(j_inner(x, y)) < 0.1 * np.linalg.norm(x) * np.linalg.norm(y):
                y = rng.standard_normal(2 * m)
            d = y - x  # T = I - (1 / x^J y) (y - x)(y - x)^J maps x to y
            out = _mapped(TransformSH(-1.0 / j_inner(x, y), d[:m], d[m:], 0, m), x)
            scale = max(np.linalg.norm(x), np.linalg.norm(y))
            assert np.linalg.norm(out - y) <= 1e-12 * scale

            k = int(rng.integers(1, m + 1))
            out = _mapped(vlg(k, a), a)
            r = np.hypot(a[k - 1], a[m + k - 1])
            assert abs(out[m + k - 1]) <= 1e-12 * na
            assert abs(out[k - 1] - r) <= 1e-12 * na

            k = int(rng.integers(1, m + 1))
            out = _mapped(vlh(k, a), a)
            assert np.linalg.norm(out[k:m]) <= 1e-12 * na

    _report(1, "transform postconditions", 5.0, check)


def test_criterion_2_embedding_equivalence():
    def check():
        rng = np.random.default_rng(202)
        for _ in range(200):
            m = int(rng.integers(2, 6))
            off = int(rng.integers(0, 5))
            n = m + off
            a = _admissible(rng, m)
            t = osh2(a) if rng.integers(2) else sh1(a, float(rng.uniform(0.5, 1.5)))
            te = embed(t, off, n)
            x = rng.standard_normal(2 * n)
            sub = np.concatenate((x[off:n], x[n + off:]))
            for tt, tte in ((t, te), (adjoint_record(t), adjoint_record(te))):
                small = _mapped(tt, sub)
                expect = x.copy()
                expect[off:n] = small[:m]
                expect[n + off:] = small[m:]
                got = _mapped(tte, x)
                assert np.allclose(got, expect, rtol=1e-15, atol=0.0)

    _report(2, "embedding equivalence", 2.0, check)


def test_criterion_3_condition_optimality():
    def check():
        rng = np.random.default_rng(303)
        for _ in range(100):
            m = int(rng.integers(2, 7))
            a = _admissible(rng, m)
            c1 = cond2(osh1(a))
            c2 = cond2(osh2(a))
            for _ in range(10):
                rho = float(rng.standard_normal())
                while abs(rho) < 1e-3:
                    rho = float(rng.standard_normal())
                assert c1 <= cond2(sh1(a, rho)) + 1e-9
                mu = float(rng.standard_normal())
                assert c2 <= cond2(sh2(a, mu)) + 1e-9

    _report(3, "condition-number optimality", 30.0, check)


def test_criterion_4_symplecticity_and_rotations():
    def check():
        rng = np.random.default_rng(404)
        for _ in range(100):
            m = int(rng.integers(2, 5))
            a = _admissible(rng, m)
            for t in (sh1(a, float(rng.uniform(0.5, 1.5))),
                      sh2(a, float(rng.uniform(-1.5, -0.5))),
                      osh1(a), osh2(a)):
                d = densify(t)
                assert symplecticity_residual(d) <= 1e-11
                assert abs(np.linalg.det(d) - 1.0) <= 1e-10
            k = int(rng.integers(1, m + 1))
            for t in (vlg(k, a), vlh(k, a)):
                d = densify(t)
                assert spectral_norm(d.T @ d - np.eye(2 * m)) <= 1e-13

    _report(4, "symplecticity and rotation properties", 10.0, check)


def test_criterion_5_family1_table():
    def check():
        rows = run_sweep(1, 2, 30, ["jhmsh", "jhmsh2"])
        assert len(rows) == 29 * 2
        for row in rows:
            assert row.status == "ok", row
            bound = 1e-7 if row.n <= 10 else 1e-5
            assert row.orth_loss <= bound, row
            assert row.red_err <= bound, row

    _report(5, "family-1 table, n=2..30", 10.0, check)


def test_criterion_6_family2_table():
    def check():
        rows = run_sweep(2, 2, 20, ["jhmsh", "jhmsh2"])
        assert len(rows) == 19 * 2
        for row in rows:
            assert row.status == "ok", row
            bound = 1e-10 if row.n <= 8 else 5e-2
            assert row.orth_loss <= bound, row
            assert row.red_err <= bound, row

    _report(6, "family-2 (Hamiltonian) table, n=2..20", 5.0, check)


def test_criterion_7_breakdown_behavior():
    def check():
        opts = ReductionOptions(breakdown_fallback=False)
        for gen in (gen_family1, gen_family2):
            for n in (2, 3, 5, 9, 14):
                for variant in ("jhsh", "jhosh"):
                    with pytest.raises(BreakdownError) as exc:
                        reduce(gen(n), variant, opts)
                    assert exc.value.step == 1
                    assert exc.value.kind == "ZeroNu"

    _report(7, "breakdown without fallback", 5.0, check)


def test_criterion_8_factorization_oracle():
    def check():
        rng = np.random.default_rng(808)
        screen = ReductionOptions(breakdown_fallback=False, pivot_tol=0.05)
        for size in (6, 8):
            accepted = 0
            while accepted < 25:
                a = rng.standard_normal((size, size))
                try:
                    results = [reduce(a, variant, screen) for variant in VARIANTS]
                except BreakdownError:
                    continue  # pivot screen rejected this draw
                accepted += 1
                na = spectral_norm(a)
                for res in results:
                    assert structure_report(res.h, 0.0).is_upper_j_hessenberg
                    assert res.red_err <= 1e-10 * na
                    s = np.eye(size)
                    for t in res.transcript:
                        s = s @ adjoint_mat(densify(t))
                    assert spectral_norm(s - res.s) <= 1e-10 * spectral_norm(res.s)

    _report(8, "small-scale factorization oracle", 30.0, check)


def test_criterion_9_cli_pipeline(tmp_path):
    def check():
        a_path = tmp_path / "a.txt"
        h_path = tmp_path / "h.txt"
        s_path = tmp_path / "s.txt"
        assert cli_main(["gen", "--family", "1", "--n", "5",
                         "--out", str(a_path)]) == 0
        assert cli_main(["reduce", str(a_path), "--algo", "jhmsh",
                         "--fallback", "on", "--out-h", str(h_path),
                         "--out-s", str(s_path)]) == 0
        assert cli_main(["check", str(a_path), str(s_path), str(h_path)]) == 0
        # file format round-trips bit-exactly
        a = read_matrix(a_path)
        assert np.array_equal(a, gen_family1(5))
        h1 = read_matrix(h_path)
        from symhess import write_matrix
        write_matrix(tmp_path / "h2.txt", h1)
        assert np.array_equal(read_matrix(tmp_path / "h2.txt"), h1)

    _report(9, "end-to-end CLI pipeline", 10.0, check)
