import collections
import dataclasses
import gc
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

import symhess.reduction as reduction
import symhess.transforms as transforms
from symhess import (
    BreakdownError,
    FixedStrategy,
    OptimalStrategy,
    ReductionOptions,
    SeededStrategy,
    TransformGivens,
    TransformSH,
    TransformVLH,
    apply_left,
    apply_right_adjoint,
    gen_family1,
    gen_family2,
    reduce,
    sh2,
    spectral_norm,
    structure_report,
    symplecticity_residual,
    vlg,
    vlh,
)
from symhess.reduction import _Driver
from symhess.transforms import _vlh_from_segment

from oracles import adjoint_mat, densify, off_pattern

VARIANTS = ("jhsh", "jhosh", "jhmsh", "jhmsh2")


def well_pivoted(rng, size, opts=None):
    """Random matrix that reduces without any small pivot, every variant."""
    screen = ReductionOptions(breakdown_fallback=False, pivot_tol=0.05)
    while True:
        a = rng.standard_normal((size, size))
        try:
            for variant in VARIANTS:
                reduce(a, variant, screen)
        except BreakdownError:
            continue
        return a


def _transform_key(t):
    return (type(t).__name__,) + tuple(
        v.tobytes() if isinstance(v, np.ndarray) else v
        for v in (getattr(t, f.name) for f in dataclasses.fields(t)))


def _outcome(variant, a, opts=None):
    """Everything a reduction returns, bit for bit, or the breakdown it raises."""
    try:
        res = reduce(a, variant, opts)
    except BreakdownError as exc:
        return ("breakdown", exc.step, exc.substep, exc.kind, repr(exc.pivot_value))
    return ("ok", res.h.tobytes(), res.s.tobytes(), [_transform_key(t) for t in res.transcript],
            res.fallbacks_used, res.orth_loss, res.red_err)


def _lcg_fixed_strategy(seed, steps):
    # SeededStrategy's documented generator written out on its own, its
    # draws read as mu before rho at each step
    a, c, mask = 6364136223846793005, 1442695040888963407, (1 << 64) - 1
    state, draws = seed, []
    for _ in range(2 * steps):
        state = (a * state + c) & mask
        draws.append(0.5 + state / 2.0 ** 64)
    return FixedStrategy(mus=draws[0::2], rhos=draws[1::2])


def _table_inputs():
    for n in range(2, 13):
        yield gen_family1(n)
        yield gen_family2(n)
    rng = np.random.default_rng(1600)
    for n in (3, 6, 10, 20):
        yield rng.standard_normal((2 * n, 2 * n))


class TestTrivial:
    def test_2x2_is_identity_reduction(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        for variant in VARIANTS:
            res = reduce(a, variant)
            assert np.array_equal(res.h, a)
            assert np.array_equal(res.s, np.eye(2))
            assert res.transcript == ()
            assert res.orth_loss == 0.0
            assert res.red_err == 0.0


class TestInputValidation:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            reduce(np.zeros((4, 6)), "jhsh")

    def test_rejects_odd_size(self):
        with pytest.raises(ValueError):
            reduce(np.zeros((3, 3)), "jhmsh")

    def test_rejects_empty_before_running(self):
        with pytest.raises(ValueError, match="nonempty"):
            _Driver(np.zeros((0, 0)), "jhmsh", ReductionOptions())

    def test_rejects_nonfinite(self):
        a = np.eye(4)
        a[0, 0] = np.nan
        with pytest.raises(ValueError):
            reduce(a, "jhosh")

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            reduce(np.eye(4), "qr")

    def test_variant_name_case_insensitive(self):
        res = reduce(np.eye(4), "JHMSH")
        assert structure_report(res.h, 0.0).is_upper_j_hessenberg

    @pytest.mark.parametrize("variant", ["jhsh", "jhmsh"])
    @pytest.mark.parametrize("bad", [{"pivot_tol": 0.1}, "default", 0.1],
                             ids=["dict", "str", "float"])
    def test_rejects_opts_that_are_not_options(self, bad, variant):
        # refused by name, not with an AttributeError from inside the driver
        with pytest.raises(TypeError, match=f"ReductionOptions, got {type(bad).__name__}$"):
            reduce(np.eye(4), variant, bad)

    @pytest.mark.parametrize("bad", [True, np.True_, False, "0.1", None, [0.1]],
                             ids=["True", "np.True_", "False", "str", "None", "list"])
    def test_pivot_tol_that_is_not_a_real_number_rejected(self, bad):
        # True used to act as a tolerance of 1.0 and break down at step 1;
        # the others raised TypeError from math.isfinite
        with pytest.raises(ValueError, match=f"pivot_tol .*got {re.escape(repr(bad))}$"):
            ReductionOptions(pivot_tol=bad)

    def test_pivot_tol_is_stored_as_a_float(self):
        # a float32 tolerance kept as float32 formed tol * ||a|| in float32,
        # which overflowed at this scale and broke down at step 1
        a = np.random.default_rng(0).standard_normal((8, 8)) * 1e40
        opts = ReductionOptions(pivot_tol=np.float32(2.0 ** -26))
        assert type(opts.pivot_tol) is float and opts.pivot_tol == 2.0 ** -26
        expect = reduce(a, "jhmsh", ReductionOptions(pivot_tol=2.0 ** -26))
        res = reduce(a, "jhmsh", opts)
        assert np.array_equal(res.h, expect.h) and np.array_equal(res.s, expect.s)
        assert res.red_err <= 1e-12 * spectral_norm(a)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_fixed_strategy_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            FixedStrategy(rhos=(bad,) * 3, mus=(1.0,) * 3)
        with pytest.raises(ValueError, match="finite"):
            FixedStrategy(rhos=(1.0,) * 3, mus=(1.0, bad, 1.0))

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_fixed_strategy_rejects_zero_rho(self, zero):
        with pytest.raises(ValueError, match="nonzero"):
            FixedStrategy(rhos=(1.0, zero, 1.0), mus=(1.0,) * 3)
        assert FixedStrategy(rhos=(1.0,) * 3, mus=(zero,) * 3).mus == (0.0,) * 3

    @pytest.mark.parametrize("flag", ["breakdown_fallback"])
    @pytest.mark.parametrize("bad", ["off", None, 1])
    def test_rejects_non_bool_flags(self, flag, bad):
        with pytest.raises(ValueError, match=flag):
            ReductionOptions(**{flag: bad})

    def test_numpy_bool_flags_stored_as_bool(self):
        assert ReductionOptions(breakdown_fallback=np.False_).breakdown_fallback is False
        assert ReductionOptions(breakdown_fallback=np.True_).breakdown_fallback is True

    def test_options_are_strategy_fallback_and_pivot_tol(self):
        # the exact zeros of H are no option: every run writes them
        names = [f.name for f in dataclasses.fields(ReductionOptions)]
        assert names == ["strategy", "breakdown_fallback", "pivot_tol"]
        with pytest.raises(TypeError):
            ReductionOptions(set_exact_zeros=False)

    @pytest.mark.parametrize("bad", ["seeded", None, 3, OptimalStrategy])
    def test_rejects_unknown_strategy(self, bad):
        with pytest.raises(ValueError, match="strategy"):
            ReductionOptions(strategy=bad)

    @pytest.mark.parametrize("bad", [True, False, np.True_, np.False_],
                             ids=["True", "False", "np.True_", "np.False_"])
    def test_bool_seeds_and_parameters_rejected(self, bad):
        # True and False used to run as seed 1 and 0, and as parameters of
        # 1.0 and 0.0
        match = f"must not be a bool.*got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=f"seed {match}"):
            SeededStrategy(bad)
        with pytest.raises(ValueError, match=f"rho {match}"):
            FixedStrategy(rhos=(1.0, bad), mus=(1.0, 1.0))
        with pytest.raises(ValueError, match=f"mu {match}"):
            FixedStrategy(rhos=(1.0, 1.0), mus=(bad, 1.0))

    def test_integer_and_float_parameters_keep_their_values(self):
        fixed = FixedStrategy(rhos=(1, np.int64(2)), mus=(np.float32(0.5), 0.1))
        assert fixed.rhos == (1.0, 2.0) and fixed.mus == (0.5, 0.1)
        assert all(type(x) is float for x in fixed.rhos + fixed.mus)

    @pytest.mark.parametrize("rhos, mus, bad", [
        (("1.5", " 2 "), ("0.5", "1e0"), "'1.5'"),
        ((np.complex128(1 + 0j),), (1.0,), "np.complex128(1+0j)"),
        ((1 + 0j,), (1.0,), "(1+0j)"),
        ((None,), (1.0,), "None"),
    ], ids=["str", "np.complex128", "complex", "None"])
    def test_fixed_strategy_rejects_parameters_that_are_not_real_numbers(self, rhos, mus, bad):
        # strings used to be parsed, np.complex128 cast with only numpy's
        # ComplexWarning, complex and None refused with a raw TypeError
        with pytest.raises(ValueError, match=f"rho must be a real number, got {re.escape(bad)}$"):
            FixedStrategy(rhos=rhos, mus=mus)
        with pytest.raises(ValueError, match=f"mu must be a real number, got {re.escape(bad)}$"):
            FixedStrategy(rhos=(1.0,) * len(mus), mus=rhos)

    @pytest.mark.parametrize("bad", [1.5, "7", None, np.float64(7.0)])
    def test_seeded_strategy_rejects_non_integer_seed(self, bad):
        with pytest.raises(ValueError, match="seed"):
            SeededStrategy(bad)

    @pytest.mark.parametrize("bad", [-1, 2 ** 64, np.int64(-1)])
    def test_seeded_strategy_rejects_seed_outside_u64(self, bad):
        # the state keeps 64 bits: 2^64 would run as seed 0, -1 as 2^64 - 1
        with pytest.raises(ValueError, match="seed must be in 0..2\\^64-1"):
            SeededStrategy(bad)

    def test_seeded_strategy_accepts_the_u64_range(self):
        assert SeededStrategy(0).seed == 0
        assert SeededStrategy(np.uint64(2 ** 64 - 1)).seed == 2 ** 64 - 1

    def test_seeded_strategy_accepts_numpy_integers(self):
        a = np.random.default_rng(0).standard_normal((8, 8))
        for seed in (np.int64(5), np.uint64(7), np.int8(7)):
            strategy = SeededStrategy(seed)
            assert type(strategy.seed) is int
            expect = reduce(a, "jhsh", ReductionOptions(strategy=SeededStrategy(int(seed))))
            got = reduce(a, "jhsh", ReductionOptions(strategy=strategy))
            assert np.array_equal(got.h, expect.h), seed

    def test_fixed_strategy_length_checked(self):
        opts = ReductionOptions(strategy=FixedStrategy(rhos=(1.0,), mus=(1.0,)))
        with pytest.raises(ValueError):
            reduce(np.random.default_rng(0).standard_normal((8, 8)), "jhsh", opts)


class TestFactorization:
    def test_structure_residuals_and_s(self):
        rng = np.random.default_rng(100)
        for size in (6, 8, 12):
            a = well_pivoted(rng, size)
            na = spectral_norm(a)
            for variant in VARIANTS:
                res = reduce(a, variant)
                rep = structure_report(res.h, 0.0)
                assert rep.is_upper_j_hessenberg
                assert res.red_err <= 1e-6 * na
                assert res.orth_loss <= 1e-6
                assert symplecticity_residual(res.s) == res.orth_loss
                oracle = spectral_norm(res.h - adjoint_mat(res.s) @ a @ res.s)
                assert res.red_err == oracle

    def test_seeded_jhsh_example(self):
        # random 6x6 with all pivots nonzero, seeded parameters
        a = np.random.default_rng(1).standard_normal((6, 6))
        opts = ReductionOptions(strategy=SeededStrategy(1),
                                breakdown_fallback=False, pivot_tol=0.05)
        res = reduce(a, "jhsh", opts)
        assert structure_report(res.h, 0.0).is_upper_j_hessenberg
        assert res.red_err <= 1e-10 * spectral_norm(a)

    def test_transcript_replay_reproduces_s(self):
        rng = np.random.default_rng(200)
        for size in (6, 8, 10):
            a = well_pivoted(rng, size)
            for variant in VARIANTS:
                res = reduce(a, variant)
                s = np.eye(size)
                for t in res.transcript:
                    s = s @ adjoint_mat(densify(t))
                err = spectral_norm(s - res.s)
                assert err <= 1e-10 * spectral_norm(res.s)

    def test_transcript_kinds(self):
        rng = np.random.default_rng(300)
        a = well_pivoted(rng, 8)
        seeded = ReductionOptions(strategy=SeededStrategy(3))
        assert all(isinstance(t, TransformSH) for t in reduce(a, "jhsh", seeded).transcript)
        assert all(isinstance(t, TransformSH) for t in reduce(a, "jhosh").transcript)
        for res in (reduce(a, "jhmsh"), reduce(a, "jhmsh2")):
            orthogonal = [t for t in res.transcript
                          if isinstance(t, (TransformGivens, TransformVLH))]
            sh_kind = [t for t in res.transcript if isinstance(t, TransformSH)]
            # odd sub-steps only contribute SH transforms, even only orthogonal
            assert len(sh_kind) == 8 // 2 - 1
            assert len(orthogonal) == len(res.transcript) - len(sh_kind)
            for t in orthogonal:
                d = densify(t)
                assert spectral_norm(d.T @ d - np.eye(8)) <= 1e-13

    def test_jhmsh_and_jhmsh2_same_structure_different_entries(self):
        a = well_pivoted(np.random.default_rng(400), 6)
        r1, r2 = reduce(a, "jhmsh"), reduce(a, "jhmsh2")
        assert structure_report(r1.h, 0.0).is_upper_j_hessenberg
        assert structure_report(r2.h, 0.0).is_upper_j_hessenberg

    def test_large_scale_residuals(self):
        # 30x30 instance verified well-pivoted for all variants at a 1e-3
        # relative pivot threshold (draw 351 of this stream)
        rng = np.random.default_rng(4321)
        for _ in range(351):
            rng.standard_normal((30, 30))
        a = rng.standard_normal((30, 30))
        na = spectral_norm(a)
        for variant in VARIANTS:
            res = reduce(a, variant,
                         ReductionOptions(breakdown_fallback=False, pivot_tol=1e-3))
            assert structure_report(res.h, 0.0).is_upper_j_hessenberg
            assert res.red_err <= 1e-6 * na
            assert res.orth_loss <= 1e-6

    def test_optimal_beats_seeded_orthogonality_loss(self):
        # paired trials: the minimum-condition parameters lose less
        # J-orthogonality than seeded ones on a clear majority of inputs
        rng = np.random.default_rng(1200)
        wins = total = 0
        screen = dict(breakdown_fallback=False, pivot_tol=0.05)
        while total < 100:
            a = rng.standard_normal((8, 8))
            try:
                r_opt = reduce(a, "jhosh", ReductionOptions(**screen))
                r_sh = reduce(a, "jhsh",
                              ReductionOptions(strategy=SeededStrategy(total), **screen))
            except BreakdownError:
                continue
            total += 1
            wins += r_opt.orth_loss <= r_sh.orth_loss
        assert wins >= 60


class TestVariantsAgree:
    """jhosh, jhmsh and jhmsh2 share the odd sub-step, hence S e1, so by the
    implicit-S theorem S_jhosh^J S_v is a trivial factor: diagonal (1,1),
    (1,2) and (2,2) blocks and a zero (2,1) block.  Its size off that
    pattern is a forward error; each bound sits above the values measured
    on its inputs (Gaussians: 1.9e-14 to 9.7e-13; families: 8.8e-14 to
    3.3e-10; jhsh's free parameters against jhmsh: 2.2e-13 to 7.6e-9)."""

    OTHERS = ("jhmsh", "jhmsh2")
    FREE = (FixedStrategy(rhos=(1.5, -0.75, 2.0, 1.25), mus=(0.5, 2.0, -1.0, 1.5)),
            SeededStrategy(7))

    @pytest.mark.parametrize("seed", range(3))
    def test_gaussians(self, seed):
        a = np.random.default_rng([31, seed, 5]).standard_normal((10, 10))
        s = reduce(a, "jhosh").s
        for variant in self.OTHERS:
            assert off_pattern(s, reduce(a, variant).s) <= 1e-11, variant

    @pytest.mark.parametrize("seed", range(3))
    def test_free_parameters_change_only_the_factor(self, seed):
        # the parameters of jhsh scale the trivial factor; its q is larger
        # than jhosh's, and so is the bound
        a = np.random.default_rng([31, seed, 5]).standard_normal((10, 10))
        s = reduce(a, "jhmsh").s
        for strategy in self.FREE:
            res = reduce(a, "jhsh", ReductionOptions(strategy=strategy))
            assert off_pattern(s, res.s) <= 1e-7, strategy

    @pytest.mark.parametrize("family, gen", [(1, gen_family1), (2, gen_family2)])
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_families_through_the_case_a_rescue(self, family, gen, n):
        a = gen(n)
        base = reduce(a, "jhosh")
        assert base.fallbacks_used == ((1, "odd_case_a"),)
        for variant in self.OTHERS:
            res = reduce(a, variant)
            assert res.fallbacks_used == base.fallbacks_used
            assert np.array_equal(res.s[:, 0].view(np.uint64), base.s[:, 0].view(np.uint64))
            assert off_pattern(base.s, res.s) <= 1e-9, variant

    def test_oracle_sees_an_unrelated_factor(self):
        rng = np.random.default_rng([31, 0, 5])
        s_a = reduce(rng.standard_normal((10, 10)), "jhosh").s
        s_b = reduce(rng.standard_normal((10, 10)), "jhosh").s
        assert off_pattern(s_a, s_b) > 1e-3


class TestFreeParameters:
    def test_fixed_strategy_placement(self):
        # diagonal of H11 holds the odd parameters, the H12 subdiagonal the
        # even ones
        rng = np.random.default_rng(500)
        n = 4
        a = well_pivoted(rng, 2 * n)
        rhos = (1.25, -0.75, 2.5)
        mus = (0.5, 3.0, -1.5)
        res = reduce(a, "jhsh", ReductionOptions(strategy=FixedStrategy(rhos=rhos, mus=mus),
                                                 breakdown_fallback=False))
        for j in range(1, n):
            assert res.h[j - 1, j - 1] == pytest.approx(mus[j - 1], rel=1e-10, abs=1e-10)
            assert res.h[j, n + j - 1] == pytest.approx(rhos[j - 1], rel=1e-10, abs=1e-10)

    def test_seeded_strategy_reproducible(self):
        a = np.random.default_rng(600).standard_normal((8, 8))
        opts = ReductionOptions(strategy=SeededStrategy(42))
        r1 = reduce(a, "jhsh", opts)
        r2 = reduce(a, "jhsh", opts)
        assert np.array_equal(r1.h, r2.h)
        assert np.array_equal(r1.s, r2.s)
        r3 = reduce(a, "jhsh", ReductionOptions(strategy=SeededStrategy(43)))
        assert not np.array_equal(r1.h, r3.h)

    def test_jhosh_ignores_strategy(self):
        a = well_pivoted(np.random.default_rng(700), 6)
        r1 = reduce(a, "jhosh", ReductionOptions(strategy=SeededStrategy(1)))
        r2 = reduce(a, "jhosh", ReductionOptions(strategy=OptimalStrategy()))
        assert np.array_equal(r1.h, r2.h)

    def test_jhsh_with_optimal_strategy_is_jhosh(self):
        opts = ReductionOptions(strategy=OptimalStrategy())
        for a in _table_inputs():
            assert _outcome("jhsh", a, opts) == _outcome("jhosh", a)

    def test_seeded_strategy_draws_mu_then_rho(self):
        for seed, a in enumerate(_table_inputs()):
            n = a.shape[0] // 2
            seeded = ReductionOptions(strategy=SeededStrategy(seed))
            fixed = ReductionOptions(strategy=_lcg_fixed_strategy(seed, n - 1))
            assert _outcome("jhsh", a, seeded) == _outcome("jhsh", a, fixed), seed


class TestColumnPreservation:
    def test_columns_frozen_after_their_step(self):
        rng = np.random.default_rng(800)
        n = 5
        a = well_pivoted(rng, 2 * n)
        for variant in VARIANTS:
            snapshots = {}
            _Driver(a, variant, ReductionOptions()).run(
                step_hook=lambda j, m: snapshots.__setitem__(j, m.copy()))
            final = snapshots[n - 1]
            for j in range(1, n):
                snap = snapshots[j]
                cols = list(range(j)) + list(range(n, n + j - 1))
                assert np.array_equal(final[:, cols], snap[:, cols]), (variant, j)


class TestBreakdowns:
    @pytest.mark.parametrize("family_gen", [gen_family1, gen_family2])
    @pytest.mark.parametrize("variant", ["jhsh", "jhosh"])
    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_families_break_at_step_one(self, family_gen, variant, n):
        opts = ReductionOptions(strategy=SeededStrategy(5), breakdown_fallback=False)
        with pytest.raises(BreakdownError) as exc:
            reduce(family_gen(n), variant, opts)
        assert exc.value.step == 1
        assert exc.value.substep == "odd"
        assert exc.value.kind == "ZeroNu"

    def test_error_carries_pivot_value(self):
        try:
            reduce(gen_family1(3), "jhosh", ReductionOptions(breakdown_fallback=False))
        except BreakdownError as exc:
            assert exc.pivot_value == 0.0
            assert "step 1" in str(exc)
        else:
            pytest.fail("expected a breakdown")
        # the messages show the stored float, not a numpy repr
        a = np.random.default_rng([7, 0]).standard_normal((8, 8)) * 1e140
        with pytest.raises(BreakdownError) as exc:
            reduce(a, "jhmsh2")
        assert exc.value.kind == "NonFinite"
        assert "np.float64" not in str(exc.value)
        with pytest.raises(BreakdownError) as exc:
            sh2(np.array([1.0, 2.0, 0.0, 1.0]), 0.5)
        assert "np.float64" not in str(exc.value)

    @pytest.mark.parametrize("gen, mu", [(gen_family1, 1.0), (gen_family2, -1.0)])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_mu_meeting_the_working_column_is_a_breakdown(self, gen, mu, n):
        # after the step-1 case-A rescue a(1) equals mu: a collision the
        # caller cannot foresee, so it is a breakdown, not a bad argument
        opts = ReductionOptions(strategy=FixedStrategy(rhos=(1.0,) * n, mus=(mu,) * n))
        driver = _Driver(gen(n), "jhsh", opts)
        with pytest.raises(BreakdownError) as exc:
            driver.run()
        assert (exc.value.step, exc.value.substep, exc.value.kind) == (1, "odd", "InvalidParam")
        assert exc.value.pivot_value == 0.0
        assert driver.fallbacks == [(1, "odd_case_a")]  # no rescue after the collision

    def test_rho_meeting_the_working_column_is_a_breakdown(self):
        # the active part of column 3 at the even sub-step is (3, 5): rho = 3
        # = a(1) used to give the identity, and the exact zeros then hid the
        # 5 it left, at red_err/||A||_2 = 0.83
        a = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 3.0, 0.0],
                      [2.0, 0.0, 1.0, 0.0], [0.0, 0.0, 5.0, 1.0]])
        opts = ReductionOptions(strategy=FixedStrategy(rhos=(3.0,), mus=(0.5,)))
        with pytest.raises(BreakdownError) as exc:
            reduce(a, "jhsh", opts)
        assert (exc.value.step, exc.value.substep, exc.value.kind) == (1, "even", "InvalidParam")
        assert exc.value.pivot_value == 0.0
        res = reduce(a, "jhsh", ReductionOptions(strategy=FixedStrategy(rhos=(3.5,), mus=(0.5,))))
        assert res.red_err <= 1e-15 * spectral_norm(a)

    def test_mu_too_far_from_the_working_column_is_a_breakdown(self):
        # nu (a(1) - mu) = 1e150 * -1e160 overflows, so sh2's c = -1 / it is 0
        # and the step-1 record would be the identity, ignoring mu
        a = np.random.default_rng(5).standard_normal((6, 6))
        a[3, 0] = 1e150
        opts = ReductionOptions(strategy=FixedStrategy(rhos=(1.0, 1.0), mus=(1e160, 1.0)))
        driver = _Driver(a, "jhsh", opts)
        with pytest.raises(BreakdownError) as exc:
            driver.run()
        assert (exc.value.step, exc.value.substep, exc.value.kind) == (1, "odd", "InvalidParam")
        assert driver.fallbacks == []


# a tiny input returns "ok" without reducing A (ROADMAP item 5): at 1e-150
# a reflector's left apply rounds w (w^T M) to zero before scaling it by
# beta; at 1e-170 the 2-norms underflow and the builders return identities
_REFLECTOR_UNDERFLOW = pytest.mark.xfail(
    strict=True, reason="VLH left apply: w (w^T M) underflows before the scaling by beta")
_NORM_UNDERFLOW = pytest.mark.xfail(
    strict=True, reason="2-norms underflow to 0: SH and VLH builders return identities")


class TestContract:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_families_keep_the_form_or_raise(self, variant):
        # a returned H is exactly upper J-Hessenberg; anything else raises
        for gen in (gen_family1, gen_family2):
            for n in range(2, 41):
                try:
                    res = reduce(gen(n), variant)
                except BreakdownError:
                    continue
                assert structure_report(res.h, 0.0).is_upper_j_hessenberg, (gen.__name__, n)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("opts", [
        ReductionOptions(),
        ReductionOptions(strategy=SeededStrategy(7)),
        ReductionOptions(breakdown_fallback=False),
        ReductionOptions(pivot_tol=0.05),
    ], ids=["default", "seeded7", "fallback_off", "pivot_tol_0.05"])
    def test_gaussians_keep_the_form_or_raise(self, variant, opts):
        # no option set returns an H without its exact zeros
        for seed in range(20):
            for n in (4, 10, 25):
                a = np.random.default_rng([9, seed, n]).standard_normal((2 * n, 2 * n))
                try:
                    res = reduce(a, variant, opts)
                except BreakdownError:
                    continue
                assert structure_report(res.h, 0.0).is_upper_j_hessenberg, (seed, n)

    def test_late_odd_rescue_is_refused(self):
        # the case-B reflector of step 13 would mix H12(13, 12) into rows
        # 14..n of column n+12
        with pytest.raises(BreakdownError) as exc:
            reduce(gen_family1(19), "jhosh")
        assert (exc.value.step, exc.value.substep, exc.value.kind) == (13, "odd", "ZeroNu")

    def test_jhmsh_refuses_late_odd_rescues_on_family2(self):
        # family 2 from n = 27 on needs an odd rescue at a step j > 1 with a
        # nonzero H12(j, j-1); smaller sizes reduce
        refused = 0
        for n in range(2, 41):
            if n < 27:
                reduce(gen_family2(n), "jhmsh")
                continue
            with pytest.raises(BreakdownError) as exc:
                reduce(gen_family2(n), "jhmsh")
            assert exc.value.substep == "odd" and exc.value.step > 1, n
            refused += 1
        assert refused == 14

    def test_odd_rescue_kept_where_h12_subdiagonal_is_zero(self):
        # family 1 behind an already reduced plane (1, n+1): its zero pivot
        # turns up at step 2, where H12(2, 1) = 0
        n = 4
        a = np.zeros((2 * n, 2 * n))
        rest = [i for i in range(2 * n) if i not in (0, n)]
        a[np.ix_(rest, rest)] = gen_family1(n - 1)
        a[np.ix_([0, n], [0, n])] = [[1.0, 2.0], [3.0, 4.0]]
        for variant in VARIANTS:
            res = reduce(a, variant)
            assert res.fallbacks_used == ((2, "odd_case_a"),), variant
            assert structure_report(res.h, 0.0).is_upper_j_hessenberg, variant
            assert res.red_err <= 1e-8 * spectral_norm(a), variant

    def test_overflow_raises_non_finite(self):
        # element growth overflows during step 23
        with pytest.raises(BreakdownError) as exc:
            reduce(gen_family2(27), "jhsh", ReductionOptions(strategy=SeededStrategy(7)))
        assert (exc.value.step, exc.value.substep, exc.value.kind) == (23, "even", "NonFinite")
        assert not math.isfinite(exc.value.pivot_value)

    @pytest.mark.parametrize("scale, family, variant", [
        (1e140, False, "jhmsh2"),  # the lower-segment reflector overflows
        (1e-310, False, "jhmsh"),  # subnormal pairs in the Givens sweep
        (1e-310, True, "jhmsh"),
    ])
    def test_scaled_input_keeps_the_contract(self, scale, family, variant):
        # finite H and S, or BreakdownError; these used to raise ValueError
        # from a Givens record built on a non-finite or subnormal pair
        a = gen_family1(5) if family else np.random.default_rng([7, 0]).standard_normal((8, 8))
        try:
            res = reduce(a * scale, variant)
        except BreakdownError:
            return
        assert np.isfinite(res.h).all() and np.isfinite(res.s).all()

    @pytest.mark.parametrize("scale, variant", [
        (1e-150, "jhsh"),
        (1e-150, "jhosh"),
        pytest.param(1e-150, "jhmsh", marks=_REFLECTOR_UNDERFLOW),
        pytest.param(1e-150, "jhmsh2", marks=_REFLECTOR_UNDERFLOW),
        *(pytest.param(1e-170, variant, marks=_NORM_UNDERFLOW) for variant in VARIANTS),
    ])
    def test_tiny_scale_reduces_or_raises(self, scale, variant):
        # an "ok" result must reduce A: red_err within 1e-6 ||A||_2
        a = np.random.default_rng(1).standard_normal((8, 8)) * scale
        try:
            res = reduce(a, variant)
        except BreakdownError:
            return
        assert res.red_err <= 1e-6 * spectral_norm(a)

    def test_non_finite_metric_raises(self, monkeypatch):
        monkeypatch.setattr(reduction, "symplecticity_residual", lambda s: float("nan"))
        with pytest.raises(BreakdownError) as exc:
            reduce(gen_family1(3), "jhmsh")
        assert (exc.value.step, exc.value.substep, exc.value.kind) == (2, "even", "NonFinite")


class TestFallback:
    @pytest.mark.parametrize("family_gen", [gen_family1, gen_family2])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_families_reduce_with_fallback(self, family_gen, variant):
        a = family_gen(4)
        res = reduce(a, variant)
        assert structure_report(res.h, 0.0).is_upper_j_hessenberg
        assert res.red_err <= 1e-8 * spectral_norm(a)
        assert res.fallbacks_used
        assert res.fallbacks_used[0][0] == 1

    def test_family_with_seeded_parameters_completes(self):
        # seeded parameters are reproducible but not accuracy-optimal, so
        # only structure and rough magnitudes are guaranteed
        res = reduce(gen_family1(4), "jhsh", ReductionOptions(strategy=SeededStrategy(9)))
        assert structure_report(res.h, 0.0).is_upper_j_hessenberg
        assert res.red_err <= 1e-3

    def test_family1_n10_jhmsh_magnitudes(self):
        res = reduce(gen_family1(10), "jhmsh")
        assert res.red_err <= 1e-5
        assert res.orth_loss <= 1e-5

    def test_family1_n10_jhmsh2_magnitudes(self):
        res = reduce(gen_family1(10), "jhmsh2")
        assert res.red_err <= 1e-5

    def test_family2_n8_jhmsh_magnitudes(self):
        res = reduce(gen_family2(8), "jhmsh")
        assert res.red_err <= 1e-10

    def test_case_b_concentrates_lower_segment(self):
        # pivot zero but mass below it: one reflector moves it up
        n = 3
        a = np.random.default_rng(0).standard_normal((2 * n, 2 * n))
        col = np.array([1.0, 2.0, 3.0, 0.0, 5.0, 0.0])
        a[:, 0] = col
        res = reduce(a, "jhosh")
        assert res.fallbacks_used == ((1, "odd_case_b"),)
        t = res.transcript[0]
        assert isinstance(t, TransformVLH)
        out = col.copy()
        apply_left(t, out)
        assert abs(out[n]) == pytest.approx(5.0, rel=1e-14)
        assert np.max(np.abs(out[n + 1:])) <= 1e-14
        assert structure_report(res.h, 0.0).is_upper_j_hessenberg
        assert res.red_err <= 1e-12 * spectral_norm(a)

    @staticmethod
    def _zero_column_input(name):
        n = 3
        a = np.zeros((2 * n, 2 * n))
        if name == "step2":
            # column 1 needs no transform at step 1, and column 2 is still
            # zero at step 2
            a[:, 0] = [1.0, 0.0, 0.0, 2.0, 0.0, 0.0]
            a[:, n] = np.random.default_rng(5).standard_normal(2 * n)
        return a

    @pytest.mark.parametrize("name", ["zero", "step2"])
    @pytest.mark.parametrize("strategy", [
        OptimalStrategy(), SeededStrategy(7), FixedStrategy((1.0, 1.0), (0.5, 0.5)),
    ], ids=["optimal", "seeded7", "fixed"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_zero_column_is_the_identity_record(self, variant, strategy, name):
        # a column with nothing to eliminate gets the identity record in
        # every variant, under every strategy: neither a rescue nor a
        # breakdown, so the fallback flag changes nothing
        a = self._zero_column_input(name)
        outcomes = []
        for fallback in (True, False):
            opts = ReductionOptions(strategy=strategy, breakdown_fallback=fallback)
            res = reduce(a, variant, opts)
            assert res.fallbacks_used == ()
            assert structure_report(res.h, 0.0).is_upper_j_hessenberg
            assert res.red_err <= 1e-12 * max(spectral_norm(a), 1.0)
            if name == "zero":
                assert all(t.is_identity for t in res.transcript)
                assert isinstance(res.transcript[0], TransformSH)
            outcomes.append(_outcome(variant, a, opts))
        assert outcomes[0] == outcomes[1]

    def test_case_a_moves_upper_mass_to_pivot_row(self):
        # a family column has no lower-segment mass: the case-A chain (two
        # reflectors around a rotation) moves upper mass onto the pivot row
        n = 3
        a = gen_family1(n)
        assert a[n, 0] == 0.0 and not a[n:, 0].any()
        res = reduce(a, "jhosh")
        assert res.fallbacks_used == ((1, "odd_case_a"),)
        chain = res.transcript[:3]
        assert [type(t) for t in chain] == [TransformVLH, TransformGivens, TransformVLH]
        assert isinstance(res.transcript[3], TransformSH)
        w = a.astype(float)
        for t in chain:
            apply_left(t, w)
            apply_right_adjoint(t, w)
        assert abs(w[n, 0]) > 0.1 * np.linalg.norm(w[:, 0])  # pivot restored

    def test_case_a_records_are_built_in_the_documented_order(self):
        # on a non-integer input, where the order of the arithmetic shows in
        # the bits: the reflector and the rotation are both built from the
        # column before the rescue, the lower-segment reflector from the
        # column after both are applied as similarities
        n = 4
        a = np.random.default_rng([99, 2]).standard_normal((2 * n, 2 * n))
        a[n:, 0] = 0.0
        res = reduce(a, "jhmsh")
        assert res.fallbacks_used[0] == (1, "odd_case_a")
        w = a.copy()
        c0 = w[:, 0]
        chain = [vlh(2, c0), reduction._vlg_lowering(2, c0)]
        for t in chain:
            apply_left(t, w)
            apply_right_adjoint(t, w)
        chain.append(_vlh_from_segment(1, w[n:, 0].copy(), n))
        assert list(map(_transform_key, res.transcript[:3])) == list(map(_transform_key, chain))

    @staticmethod
    def _diagonal(n):
        # column 1 is 2 e_1: no mass below the pivot, and the case-A chain
        # leaves the pivot zero, so only the rotation can clear it
        return np.diag(np.arange(2.0, 2.0 + 2 * n))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_case_a_rotation_clears_the_pivot(self, n):
        a = self._diagonal(n)
        a[:, n] += np.random.default_rng([24, n]).standard_normal(2 * n)
        res = reduce(a, "jhsh", ReductionOptions(strategy=SeededStrategy(7)))
        assert res.fallbacks_used == ((1, "odd_case_a"), (1, "odd_case_a_rotation"))
        assert structure_report(res.h, 0.0).is_upper_j_hessenberg
        assert res.red_err <= 1e-8 * spectral_norm(a)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_case_a_rotation_that_fails_is_a_breakdown(self, n):
        driver = _Driver(self._diagonal(n), "jhsh", ReductionOptions(strategy=SeededStrategy(7)))
        with pytest.raises(BreakdownError) as exc:
            driver.run()
        assert (exc.value.step, exc.value.substep, exc.value.kind) == (1, "odd", "ZeroNu")
        assert driver.fallbacks == [(1, "odd_case_a"), (1, "odd_case_a_rotation")]

    def test_even_substep_fallback(self):
        # column 1 already reduced (odd step is the identity) while the even
        # pivot rows of column n+1 vanish: only the even rescue fires
        rng = np.random.default_rng(77)
        n = 3
        a = rng.standard_normal((2 * n, 2 * n))
        a[:, 0] = [1.0, 0.0, 0.0, 2.0, 0.0, 0.0]
        a[n + 1, n] = 0.0
        a[n + 2, n] = 0.0
        with pytest.raises(BreakdownError) as exc:
            reduce(a, "jhosh", ReductionOptions(breakdown_fallback=False))
        assert (exc.value.step, exc.value.substep, exc.value.kind) == (1, "even", "ZeroPivot")
        res = reduce(a, "jhosh")
        assert structure_report(res.h, 0.0).is_upper_j_hessenberg
        assert res.red_err <= 1e-12 * spectral_norm(a)
        assert res.fallbacks_used == ((1, "even_case_a"),)


class TestResultDiagnostics:
    def test_orth_and_red_match_definitions(self):
        a = well_pivoted(np.random.default_rng(1000), 6)
        res = reduce(a, "jhmsh")
        assert res.orth_loss == symplecticity_residual(res.s)
        assert res.red_err == spectral_norm(res.h - adjoint_mat(res.s) @ a @ res.s)

    def test_result_arrays_are_private_copies(self):
        a = well_pivoted(np.random.default_rng(1100), 6)
        res = reduce(a, "jhmsh")
        h0 = res.h.copy()
        a[:] = 0.0
        assert np.array_equal(res.h, h0)

    def test_input_read_in_place(self):
        a = gen_family1(4)
        assert _Driver(a, "jhmsh", ReductionOptions()).a0 is a

    @pytest.mark.parametrize("layout", ["C", "F", "int64"])
    def test_input_unchanged(self, layout):
        g = np.random.default_rng(1150).integers(-5, 6, (8, 8))
        a = {"C": g.astype(float), "F": np.asfortranarray(g.astype(float)), "int64": g}[layout]
        before = a.copy()
        for variant in VARIANTS:
            try:
                reduce(a, variant)
            except BreakdownError:
                pass
            assert a.dtype == before.dtype and np.array_equal(a, before), variant

    def test_red_err_of_fortran_ordered_input(self):
        # at this size the product's rounding depends on the layout of A
        a = np.asfortranarray(np.random.default_rng([1160, 0]).standard_normal((20, 20)))
        res = reduce(a, "jhmsh")
        c_ordered = np.array(a, order="C")
        assert res.red_err == spectral_norm(res.h - adjoint_mat(res.s) @ c_ordered @ res.s)

    def test_driver_freed_without_gc(self):
        # a reference cycle through the driver would keep its arrays (and
        # its reference to the input) alive after the run, until the cyclic
        # collector ran
        gc.disable()
        try:
            for variant in VARIANTS:
                driver = _Driver(gen_family1(4), variant, ReductionOptions())
                ref = weakref.ref(driver)
                driver.run()
                del driver
                assert ref() is None, variant
        finally:
            gc.enable()

    def test_givens_sweep_peak_memory_near_compact_variant(self):
        # The jhmsh sweep rotates in place, so its temporaries must not
        # raise the peak much above that of jhmsh2, whose even sub-step is
        # three transforms.
        a = np.random.default_rng([1500, 100]).standard_normal((200, 200))
        peaks = {}
        for variant in ("jhmsh", "jhmsh2"):
            reduce(a, variant)  # first-call allocations are not the reduction's
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                reduce(a, variant)
                peaks[variant] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["jhmsh"] <= 1.04 * peaks["jhmsh2"], peaks

    def test_s_replay_holds_no_iteration_buffers(self):
        # At numpy's default buffer size the broadcast rank-one products of
        # the S replay allocated iteration buffers near one more matrix
        # (5.94 matrices on this input); with them gone the metric phase
        # sets the peak (4.79).
        n = 40
        a = gen_family1(n)
        reduce(a, "jhmsh")  # first-call allocations are not the reduction's
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            reduce(a, "jhmsh")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 5.0 * 8 * (2 * n) ** 2

    def test_negative_pivot_tol_rejected(self):
        with pytest.raises(ValueError):
            ReductionOptions(pivot_tol=-1.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_non_finite_pivot_tol_rejected(self, tol):
        with pytest.raises(ValueError):
            ReductionOptions(pivot_tol=tol)


class TestSIsTheReplay:
    """The loop updates only A; S is formed once, after it, by replaying
    the transcript through the module's ``apply_right_adjoint``."""

    @staticmethod
    def _record_right_applies(monkeypatch):
        events = []
        inner = reduction.apply_right_adjoint

        def recorder(t, m):
            events.append(("right", m))
            inner(t, m)
        monkeypatch.setattr(reduction, "apply_right_adjoint", recorder)
        return events

    def test_breakdown_updates_only_the_working_matrix(self, monkeypatch):
        # jhmsh refuses a late odd rescue on family 2 from n = 27 on
        events = self._record_right_applies(monkeypatch)
        driver = _Driver(gen_family2(27), "jhmsh", ReductionOptions())
        with pytest.raises(BreakdownError):
            driver.run()
        assert events
        assert all(m is driver.A for _, m in events)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_s_is_built_once_after_the_last_step(self, monkeypatch, variant):
        events = self._record_right_applies(monkeypatch)
        a = np.random.default_rng([1500, 3]).standard_normal((14, 14))
        driver = _Driver(a, variant, ReductionOptions())
        res = driver.run(step_hook=lambda j, _a: events.append(("hook", j)))
        assert not hasattr(driver, "S")
        hooks = [i for i, (kind, _) in enumerate(events) if kind == "hook"]
        assert len(hooks) == 6
        replay = [i for i, (kind, m) in enumerate(events) if kind == "right" and m is not driver.A]
        assert len(replay) == len(res.transcript)
        assert min(replay) > max(hooks)
        assert all(events[i][1] is res.s for i in replay)


class TestNumpyStateRestored:
    """``reduce`` runs with numpy's errors ignored and a small ufunc buffer,
    and hands the caller's settings back however it ends."""

    @staticmethod
    def _state():
        return np.getbufsize(), np.geterr()

    def test_after_a_result(self):
        before = self._state()
        reduce(np.random.default_rng([1500, 3]).standard_normal((14, 14)), "jhmsh")
        assert self._state() == before

    def test_after_a_breakdown(self):
        before = self._state()
        with pytest.raises(BreakdownError):
            reduce(gen_family2(40), "jhmsh2")
        assert self._state() == before

    def test_caller_settings_come_back(self):
        default = np.getbufsize()
        with np.errstate(over="raise"):
            np.setbufsize(1024)  # errstate scopes the buffer size
            before = self._state()
            reduce(gen_family1(4), "jhmsh")
            assert self._state() == before
            assert before[0] == 1024 and before[1]["over"] == "raise"
        assert np.getbufsize() == default

    def test_step_hook_runs_inside_the_scope(self):
        seen = []
        driver = _Driver(gen_family1(4), "jhmsh", ReductionOptions())
        driver.run(step_hook=lambda j, _a: seen.append(self._state()))
        assert len(seen) == 3
        for bufsize, err in seen:
            assert bufsize == reduction._UFUNC_BUFSIZE
            assert set(err.values()) == {"ignore"}


def _even_step_inputs():
    """(a, j) for each even sub-step of n in {2, 3, 5, 9, 16} and 6 seeds;
    the odd seeds plant zero (f, g) pairs in column n+j, every other plane
    from j+1 on, so the sweep builds identity planes there (every plane
    when n = j+1)."""
    for n in (2, 3, 5, 9, 16):
        for j in range(1, n):
            for seed in range(6):
                a = np.random.default_rng([1450, n, j, seed]).standard_normal((2 * n, 2 * n))
                if seed % 2:
                    a[j:n:2, n + j - 1] = a[n + j:2 * n:2, n + j - 1] = 0.0
                yield a, j


class TestTranscriptSimilarityReplay:
    def test_even_givens_is_the_one_by_one_sweep(self):
        # The sweep record applies its left rotations first throughout; the
        # one-by-one similarities vlg(k, column n+j), k = n down to j+1, then
        # vlh(j+1, column n+j), gave the p < q blocks of the active square
        # their right rotation first.  The sub-step must match them bit for
        # bit, identity planes included.
        identities = 0
        for a, j in _even_step_inputs():
            n = a.shape[0] // 2
            driver = _Driver(a.copy(), "jhmsh", ReductionOptions())
            driver._even_givens(j)
            ref = a.copy()
            for k in range(n, j, -1):
                t = vlg(k, ref[:, n + j - 1])
                identities += t.is_identity
                apply_left(t, ref)
                apply_right_adjoint(t, ref)
            if j <= n - 2:
                t = vlh(j + 1, ref[:, n + j - 1])
                apply_left(t, ref)
                apply_right_adjoint(t, ref)
            assert np.array_equal(driver.A.view(np.uint64), ref.view(np.uint64)), (n, j)
        assert identities > 0

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_transcript_rebuilds_s_bit_exact(self, variant):
        # S is the product of the recorded adjoints, applied from the
        # identity in transcript order, sweep records whole
        inputs = [gen(n) for n in range(2, 41) for gen in (gen_family1, gen_family2)]
        inputs += [np.random.default_rng([1500, seed]).standard_normal((2 * n, 2 * n))
                   for seed, n in enumerate((3, 7, 15, 30))]
        reduced = 0
        for a in inputs:
            try:
                res = reduce(a, variant)
            except BreakdownError:
                continue
            s = np.eye(a.shape[0])
            for t in res.transcript:
                apply_right_adjoint(t, s)
            assert np.array_equal(s, res.s), (variant, a.shape)
            reduced += 1
        assert reduced >= len(inputs) // 2

    def test_jhmsh_records_one_sweep_per_step(self):
        n = 50
        a = np.random.default_rng([1500, 50]).standard_normal((2 * n, 2 * n))
        res = reduce(a, "jhmsh")
        assert res.fallbacks_used == ()
        kinds = [type(t) for t in res.transcript]
        assert (kinds.count(TransformSH), kinds.count(TransformGivens),
                kinds.count(TransformVLH)) == (n - 1, n - 1, n - 2)
        sweeps = [t for t in res.transcript if isinstance(t, TransformGivens)]
        assert [t.k0 for t in sweeps] == list(range(2, n + 1))
        assert [t.c.size for t in sweeps] == list(range(n - 1, 0, -1))


class TestIdentitySweepSkipped:
    def test_jhmsh_keeps_negative_zeros_of_a_reduced_input(self):
        # With H12 = 0 and H11, H21, H22 upper triangular every transform of
        # jhmsh is the identity and is skipped, so H is the input bit for bit
        # (-0.0 included) apart from the exact zeros assigned to the targets.
        n = 6
        a = np.random.default_rng(1700).standard_normal((2 * n, 2 * n))
        a[:n, n:] = 0.0
        for rows, cols in ((slice(0, n), slice(0, n)), (slice(n, None), slice(0, n)),
                           (slice(n, None), slice(n, None))):
            a[rows, cols] = np.triu(a[rows, cols])
        a[a == 0.0] = -0.0
        res = reduce(a, "jhmsh")
        assert all(t.is_identity for t in res.transcript)
        expect = a.copy()
        for j in range(1, n):
            expect[j:n, j - 1] = expect[n + j:, j - 1] = 0.0
            expect[j + 1:n, n + j - 1] = expect[n + j:, n + j - 1] = 0.0
        assert np.array_equal(res.h.view(np.uint64), expect.view(np.uint64))
        assert np.array_equal(res.s.view(np.uint64), np.eye(2 * n).view(np.uint64))


class TestRecordsBuiltOnce:
    """A record is built once by its builder, and an SH record once more by
    ``embed``, both through the unchecked ``transforms._record``: no
    ``__post_init__`` runs inside ``reduce``, and no apply builds a record.
    An SH right apply takes the halves of J v from the record's fields, and
    the ``jhmsh`` p < q fix-up rotates by the sweep record's own (c, s)."""

    @pytest.mark.parametrize("variant, opts", [
        ("jhsh", ReductionOptions(SeededStrategy(3))),
        ("jhosh", None),
        ("jhmsh", None),
        ("jhmsh2", None),
    ], ids=VARIANTS)
    def test_constructions_per_transcript_record(self, monkeypatch, variant, opts):
        checked = []
        for kind in (TransformSH, TransformGivens, TransformVLH):
            monkeypatch.setattr(kind, "__post_init__", lambda self: checked.append(self))
        built = collections.Counter()
        unchecked = transforms._record

        def record(kind, **fields):
            built[kind] += 1
            return unchecked(kind, **fields)
        monkeypatch.setattr(transforms, "_record", record)
        built_by_applies = []
        for name in ("apply_left", "apply_right_adjoint"):
            def counted(t, m, apply=getattr(reduction, name)):
                before = built.total()
                apply(t, m)
                built_by_applies.append(built.total() - before)
            monkeypatch.setattr(reduction, name, counted)
        res = reduce(gen_family2(8), variant, opts)
        assert res.fallbacks_used  # the rescue builders ran too
        assert checked == []
        records = collections.Counter(type(t) for t in res.transcript)
        assert built[TransformSH] == 2 * records[TransformSH] > 0
        assert built[TransformGivens] == records[TransformGivens] > 0
        assert built[TransformVLH] == records[TransformVLH] > 0
        # a left and a right apply to A per record, one more right apply in
        # the S replay
        assert built_by_applies == [0] * (3 * len(res.transcript))


class TestRecordsPassThePublicChecks:
    """The builders skip the record checks, so every record a run builds is
    rebuilt here through its public constructor: each passes every check,
    and the constructor keeps its fields as they are."""

    OPTS = {"jhsh": ReductionOptions(SeededStrategy(7))}  # sh1 and sh2 too

    @staticmethod
    def _transcript(a, variant, opts):
        """The records a run applies, up to its breakdown if it has one."""
        driver = _Driver(a, variant, opts)
        try:
            driver.run()
        except BreakdownError:
            pass
        return driver.transcript

    def _check(self, a, variant):
        records = self._transcript(a, variant, self.OPTS.get(variant, ReductionOptions()))
        for t in records:
            public = type(t)(**{f.name: getattr(t, f.name) for f in dataclasses.fields(t)})
            assert _transform_key(public) == _transform_key(t)
            assert public.is_identity == t.is_identity
        return len(records)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_family_records(self, variant):
        for gen in (gen_family1, gen_family2):
            for n in range(2, 13):
                self._check(gen(n), variant)

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_scaled_gaussian_records(self, variant, scale):
        checked = 0
        for seed in range(5):
            for n in (4, 10):
                a = np.random.default_rng([3300, seed, n]).standard_normal((2 * n, 2 * n))
                checked += self._check(a * scale, variant)
        assert checked > 0
