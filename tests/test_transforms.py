import dataclasses
import pickle
import re

import numpy as np
import pytest

import symhess
from symhess import (
    DEFAULT_BREAKDOWN_TOL,
    BreakdownError,
    InvalidParam,
    TransformGivens,
    TransformSH,
    TransformVLH,
    apply_left,
    apply_right_adjoint,
    cond2,
    embed,
    osh1,
    osh2,
    sh1,
    sh2,
    spectral_norm,
    symplecticity_residual,
    vlg,
    vlg_sweep,
    vlh,
)

from oracles import adjoint_mat, adjoint_record, densify, j_inner, right_adjoint_reference
from symhess.reduction import _vlg_lowering
from symhess.transforms import _left_rows, _vlh_from_segment


def mapped(t, a):
    out = np.asarray(a, dtype=float).copy()
    apply_left(t, out)
    return out


def random_pivoted(rng, m, floor=0.05):
    """Random 2m-vector whose pairing pivot a(m+1) is not negligible."""
    a = rng.standard_normal(2 * m)
    while abs(a[m]) < floor * np.linalg.norm(a):
        a = rng.standard_normal(2 * m)
    return a


class TestSh1:
    def test_frozen_example(self):
        a = np.array([3.0, 0.0, 4.0, 0.0])
        t = sh1(a, 5.0)
        assert t.c == 0.2
        assert np.array_equal(np.concatenate((t.u, t.w)), [1.0, 0.0, -2.0, 0.0])
        assert np.allclose(mapped(t, a), [5.0, 0.0, 0.0, 0.0], atol=1e-13)

    def test_identity_when_leading_entry_matches(self):
        # only a vector that is rho e1 already: for any other a the identity
        # would leave a(2..2n) in place (it used to be returned all the same)
        assert sh1(np.array([5.0, 0.0, 0.0, 0.0]), 5.0).is_identity
        with pytest.raises(InvalidParam, match="rho must differ from a\\(1\\)"):
            sh1(np.array([5.0, 1.0, 2.0, 3.0]), 5.0)

    def test_breakdown_on_zero_pivot(self):
        with pytest.raises(BreakdownError) as exc:
            sh1(np.array([3.0, 1.0, 0.0, 2.0]), 1.0)
        assert exc.value.kind == "ZeroPivot"

    def test_rejects_zero_rho(self):
        with pytest.raises(InvalidParam):
            sh1(np.array([1.0, 0.0, 1.0, 0.0]), 0.0)

    @pytest.mark.parametrize("rho", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_rho(self, rho):
        # inf used to give c = nan with a RuntimeWarning, nan a NaN record
        with pytest.raises(InvalidParam):
            sh1(np.array([1.0, 2.0, 3.0, 4.0]), rho)


class TestSh2:
    def test_frozen_example(self):
        a = np.array([3.0, 1.0, 4.0, 2.0])
        t = sh2(a, 1.0)
        assert t.c == -0.125
        assert np.array_equal(np.concatenate((t.u, t.w)), [-2.0, -1.0, 0.0, -2.0])
        assert np.allclose(mapped(t, a), [1.0, 0.0, 4.0, 0.0], atol=1e-13)
        assert np.allclose(mapped(t, [1.0, 0.0, 0.0, 0.0]), [1.0, 0.0, 0.0, 0.0])

    def test_n1_identity(self):
        t = sh2(np.array([2.0, 3.0]), 7.0)
        assert t.is_identity

    def test_breakdown_on_zero_nu(self):
        with pytest.raises(BreakdownError) as exc:
            sh2(np.array([3.0, 1.0, 0.0, 2.0]), 0.0)
        assert exc.value.kind == "ZeroNu"

    def test_rejects_mu_equal_to_leading_entry(self):
        with pytest.raises(InvalidParam):
            sh2(np.array([3.0, 1.0, 4.0, 2.0]), 3.0)

    @pytest.mark.parametrize("mu", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_mu(self, mu):
        # inf used to give an identity record that does not map a
        with pytest.raises(InvalidParam):
            sh2(np.array([1.0, 2.0, 3.0, 4.0]), mu)

    def test_rejects_mu_whose_record_is_the_identity(self):
        # nu (a(1) - mu) = 1e150 * -1e160 overflows, so c = -1 / it is 0 and
        # the record would map a to itself; the multiply warns outside the
        # driver's error state
        with np.errstate(over="ignore"), pytest.raises(InvalidParam):
            sh2(np.array([1.0, 2.0, 3.0, 1e150, 5.0, 6.0]), 1e160)

    def test_direction_pairing_entry_is_exactly_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = int(rng.integers(2, 6))
            a = random_pivoted(rng, m)
            t = sh2(a, float(rng.standard_normal() + 3.0))
            assert np.concatenate((t.u, t.w))[m] == 0.0


class TestOsh1:
    def test_frozen_example(self):
        a = np.array([3.0, 0.0, 4.0, 0.0])
        t = osh1(a)
        # the target is sign(a(1)) ||a||_2 e1
        assert np.array_equal(mapped(t, a), [np.linalg.norm(a), 0.0, 0.0, 0.0])
        assert t.c == 0.2
        assert np.array_equal(np.concatenate((t.u, t.w)), [1.0, 0.0, -2.0, 0.0])

    def test_already_aligned_gives_identity(self):
        a = np.zeros(6)
        a[0] = 1.0
        assert osh1(a).is_identity

    def test_negative_leading_entry(self):
        a = np.array([-3.0, 0.0, 4.0, 0.0])
        t = osh1(a)
        assert np.array_equal(mapped(t, a), [-np.linalg.norm(a), 0.0, 0.0, 0.0])
        assert np.allclose(mapped(t, a), [-5.0, 0.0, 0.0, 0.0], atol=1e-13)

    def test_zero_vector_gives_identity(self):
        assert osh1(np.zeros(4)).is_identity

    @pytest.mark.parametrize("strided", [False, True])
    @pytest.mark.parametrize("m", [2, 5, 20])
    def test_is_sh1_at_the_minimum_condition_rho(self, m, strided):
        # osh1 is the general builder at rho = sign(a(1)) ||a||_2, bit for bit
        def bits(x):
            return np.atleast_1d(np.asarray(x, dtype=np.float64)).view(np.uint64).tolist()
        rng = np.random.default_rng([23, m])
        for _ in range(20):
            matrix = rng.standard_normal((2 * m, 3))  # C-ordered: columns are strided
            a = matrix[:, 1] if strided else matrix[:, 1].copy()
            expected, got = sh1(a, np.sign(a[0]) * np.linalg.norm(a)), osh1(a)
            for field in dataclasses.fields(TransformSH):
                assert bits(getattr(got, field.name)) == bits(getattr(expected, field.name)), field.name

    def test_overflowing_norm_breaks_down(self):
        # rho = ||a|| = inf: the pivot test reports it before sh1 refuses
        # rho; overflow warnings are off, as in the reduction driver
        with np.errstate(over="ignore"), pytest.raises(BreakdownError) as exc:
            osh1(np.array([1e200, 1.0, 1e200, 1.0]))
        assert exc.value.kind == "ZeroPivot"


class TestOsh2:
    def test_frozen_example(self):
        a = np.array([3.0, 1.0, 4.0, 2.0])
        t = osh2(a)
        xi = np.sqrt(5.0)
        # mu = a(1) + xi, xi the norm of a over {2..n, n+2..2n}
        assert mapped(t, a)[0] == pytest.approx(3.0 + xi, rel=1e-15)
        assert t.c == pytest.approx(xi / 4.0, rel=1e-15)
        assert np.allclose(np.concatenate((t.u, t.w)), [1.0, -1.0 / xi, 0.0, -2.0 / xi], rtol=1e-15)
        assert np.allclose(mapped(t, a), [3.0 + xi, 0.0, 4.0, 0.0], atol=1e-13)
        assert np.allclose(mapped(t, [1.0, 0.0, 0.0, 0.0]), [1.0, 0.0, 0.0, 0.0])

    def test_xi_zero_gives_identity(self):
        assert osh2(np.array([7.0, 0.0, 3.0, 0.0])).is_identity

    def test_breakdown_on_zero_nu(self):
        with pytest.raises(BreakdownError) as exc:
            osh2(np.array([3.0, 1.0, 0.0, 2.0]))
        assert exc.value.kind == "ZeroNu"

    def test_n1_identity(self):
        assert osh2(np.array([2.0, 5.0])).is_identity


class TestBreakdownError:
    """A builder's zero pivot raises the class ``reduce`` raises, with no
    step: only the driver knows one."""

    @pytest.mark.parametrize("build, kind", [
        (lambda a: sh1(a, 1.0), "ZeroPivot"),
        (lambda a: sh2(a, 0.0), "ZeroNu"),
        (osh1, "ZeroPivot"),
        (osh2, "ZeroNu"),
    ], ids=["sh1", "sh2", "osh1", "osh2"])
    def test_builder_zero_pivot(self, build, kind):
        with pytest.raises(BreakdownError) as exc:
            build(np.array([3.0, 1.0, 1e-20, 2.0]))
        err = exc.value
        assert (err.step, err.substep, err.kind) == (None, None, kind)
        assert type(err.pivot_value) is float and err.pivot_value == 1e-20
        assert str(err) == f"breakdown: {kind}, pivot value 1e-20"

    def test_reduce_raises_the_same_class_with_its_step(self):
        assert symhess.transforms.BreakdownError is symhess.reduction.BreakdownError
        with pytest.raises(BreakdownError) as exc:
            symhess.reduce(symhess.gen_family1(3), "jhosh",
                           symhess.ReductionOptions(breakdown_fallback=False))
        assert (exc.value.step, exc.value.substep, exc.value.kind) == (1, "odd", "ZeroNu")
        assert str(exc.value) == "breakdown at step 1 (odd sub-step): ZeroNu, pivot value 0.0"

    def test_one_breakdown_class(self):
        for module in (symhess, symhess.transforms, symhess.reduction):
            names = [name for name in dir(module) if name.lower().startswith("breakdown")]
            assert names == ["BreakdownError"], module.__name__


class TestStridedInput:
    """An SH builder given a strided column view returns what it returns for a
    contiguous copy of it, bit for bit: its norms dot a contiguous vector,
    as ``np.linalg.norm`` does, and a strided dot rounds differently.
    osh1's rho is that norm; every builder's pivot test reads it, checked
    both at the default tolerance and at tol = |a(n+1)| / ||a||, where one
    rounding of the norm decides the breakdown.  vlh does not hold this
    yet; its test below is a strict xfail."""

    BUILDERS = {
        "sh1": lambda a, tol: sh1(a, 0.75, tol),
        "sh2": lambda a, tol: sh2(a, 0.25, tol),
        "osh1": osh1,
        "osh2": osh2,
    }

    @staticmethod
    def _bits(*xs):
        return [np.atleast_1d(np.asarray(x, dtype=np.float64)).view(np.uint64).tolist()
                for x in xs]

    @classmethod
    def _outcome(cls, build, a, tol):
        try:
            t = build(a, tol)
        except BreakdownError as exc:
            return "breakdown", exc.kind, cls._bits(exc.pivot_value)
        return "record", cls._bits(t.c, t.u, t.w)

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_column_view_builds_as_its_copy(self, name):
        build = self.BUILDERS[name]
        rng = np.random.default_rng(2100)
        breakdowns = 0
        for m in range(2, 41):
            matrix = rng.standard_normal((2 * m, 6))  # C-ordered: columns are strided
            for j in range(matrix.shape[1]):
                view, copy = matrix[:, j], matrix[:, j].copy()
                edge = abs(copy[m]) / np.linalg.norm(copy)
                for tol in (DEFAULT_BREAKDOWN_TOL, edge):
                    outcome = self._outcome(build, view, tol)
                    assert outcome == self._outcome(build, copy, tol), (m, j, tol)
                    breakdowns += outcome[0] == "breakdown"
        assert breakdowns > 0  # the edge tolerance reaches the pivot test

    # About a quarter of these views round differently from their copies.
    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="_vlh_from_segment dots seg[1:] in place, where the SH builders "
               "ravel the vector first; one rounding for every reflector moves "
               "the dense accuracy medians past their bound (ROADMAP item 9), "
               "so it waits for item 12's gate")
    def test_vlh_column_view_builds_as_its_copy(self):
        rng = np.random.default_rng(2100)
        for m in range(2, 41):
            matrix = rng.standard_normal((2 * m, 6))
            for j in range(matrix.shape[1]):
                view, copy = matrix[:, j], matrix[:, j].copy()
                for k in range(1, m + 1):
                    got, want = vlh(k, view), vlh(k, copy)
                    assert self._bits(got.beta, got.w) == self._bits(want.beta, want.w), (m, j, k)


class TestVlg:
    def test_frozen_example(self):
        a = np.zeros(6)
        a[1], a[4] = 3.0, 4.0  # k=2, n=3
        t = vlg(2, a)
        assert (t.k0, t.c.tolist(), t.s.tolist()) == (2, [0.6], [0.8])
        out = mapped(t, a)
        assert out[1] == pytest.approx(5.0, rel=1e-15)
        assert abs(out[4]) <= 1e-15

    def test_zero_pair_gives_identity(self):
        assert vlg(1, np.zeros(4)).is_identity

    def test_subnormal_pair_keeps_full_precision(self):
        # the rotation of a subnormal pair is that of the pair scaled into
        # the normal range, bit for bit; the hypot of the pair itself keeps
        # only a few bits
        rng = np.random.default_rng(5)
        for _ in range(20):
            x, y = np.ldexp(rng.standard_normal(2), -1060)
            tiny = vlg(1, [x, 0.0, y, 0.0])
            normal = vlg(1, np.ldexp([x, 0.0, y, 0.0], 1060))
            assert np.array_equal(tiny.c, normal.c) and np.array_equal(tiny.s, normal.s)

    def test_already_eliminated(self):
        a = np.array([1.0, 0.0, 0.0, 0.0])
        t = vlg(1, a)
        assert t.is_identity

    def test_left_application_touches_only_two_rows(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((6, 6))
        t = vlg(2, rng.standard_normal(6))
        out = m.copy()
        apply_left(t, out)
        untouched = [0, 2, 3, 5]
        assert np.array_equal(out[untouched], m[untouched])


class TestVlgSweep:
    def _column(self, rng, n):
        a = rng.standard_normal(2 * n)
        a[[1, n + 1]] = 0.0  # plane 2 is an identity rotation
        return a

    def test_rotations_are_vlg_per_plane(self, one_plane_records):
        rng = np.random.default_rng(30)
        n = 6
        a = self._column(rng, n)

        def fields(r):
            return r.k0, r.c.tolist(), r.s.tolist(), r.n

        for k0 in range(1, n + 1):
            t = vlg_sweep(k0, a)
            got = [fields(r) for r in one_plane_records(t)]
            want = [fields(vlg(k, a)) for k in range(n, k0 - 1, -1)]
            assert got == want

    def test_applies_as_its_rotations_bit_for_bit(self, one_plane_records):
        # the planes are disjoint, so a one-sided update by the whole sweep
        # is the rotations' updates, one by one
        rng = np.random.default_rng(31)
        n = 5
        t = vlg_sweep(2, self._column(rng, n))
        m = rng.standard_normal((2 * n, 2 * n))
        for apply, target in ((apply_left, m), (apply_left, m[:, 0]), (apply_right_adjoint, m)):
            whole, single = target.copy(), target.copy()
            apply(t, whole)
            for r in one_plane_records(t):
                apply(r, single)
            assert np.array_equal(whole, single)

    def test_densify_and_adjoint(self, one_plane_records):
        rng = np.random.default_rng(32)
        n = 4
        t = vlg_sweep(2, self._column(rng, n))
        d = densify(t)
        product = np.eye(2 * n)
        for r in one_plane_records(t):
            product = densify(r) @ product
        assert np.array_equal(d, product)
        assert spectral_norm(d.T @ d - np.eye(2 * n)) <= 1e-13
        assert symplecticity_residual(d) <= 1e-13
        assert np.array_equal(densify(adjoint_record(t)), d.T)
        assert np.array_equal(adjoint_mat(densify(t)), d.T)

    def test_identity(self, one_plane_records):
        t = vlg_sweep(1, np.zeros(6))
        assert t.is_identity
        assert all(r.is_identity for r in one_plane_records(t))
        assert not vlg_sweep(1, np.array([1.0, 0.0, 1.0, 0.0])).is_identity

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            vlg_sweep(0, np.ones(4))
        with pytest.raises(ValueError):
            TransformGivens(2, np.ones(2), np.zeros(2), 2)
        with pytest.raises(ValueError):
            TransformGivens(1, np.ones(2), np.ones(2), 2)
        with pytest.raises(ValueError):
            TransformGivens(0, np.ones(1), np.zeros(1), 2)
        with pytest.raises(ValueError):
            TransformGivens(1, np.ones(0), np.zeros(0), 2)
        with pytest.raises(ValueError):
            TransformGivens(1, np.ones(2), np.zeros(1), 2)
        with pytest.raises(ValueError):
            TransformGivens(1, np.ones((1, 1)), np.zeros((1, 1)), 2)


class TestGivensSkipRule:
    """A Givens record is skipped only when every plane is the identity."""

    @staticmethod
    def _signed(n):
        # applying an identity plane would turn each -0.0 into -0.0 + 0*1 = +0.0
        m = np.ones((2 * n, 2 * n))
        m[:n, :n] = -0.0
        return m

    def test_identity_record_leaves_negative_zeros(self):
        n = 4
        m = self._signed(n)
        for t in (vlg_sweep(1, np.zeros(2 * n)), vlg_sweep(3, np.zeros(2 * n)),
                  vlg(2, np.zeros(2 * n))):
            assert t.is_identity
            for apply, target in ((apply_left, m), (apply_left, m[:, 0]),
                                  (apply_right_adjoint, m)):
                out = target.copy()
                apply(t, out)
                assert np.array_equal(out.view(np.uint64), target.view(np.uint64))

    def test_identity_plane_of_a_moving_record_is_applied(self):
        n = 3
        t = TransformGivens(1, np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]), n)
        assert not t.is_identity
        out = self._signed(n)
        apply_left(t, out)
        assert not np.signbit(out[[0, 2], :n]).any()
        out = self._signed(n)
        apply_right_adjoint(t, out)
        assert not np.signbit(out[:n, [0, 2]]).any()

    def test_one_plane_record_moves_exactly_its_two_rows_or_columns(self):
        rng = np.random.default_rng(34)
        n = 5
        m = rng.standard_normal((2 * n, 2 * n))
        t = vlg(3, rng.standard_normal(2 * n))
        assert t.c.size == 1 and not t.is_identity
        c, s = float(t.c[0]), float(t.s[0])
        i, j = 2, n + 2
        kept = [r for r in range(2 * n) if r not in (i, j)]
        out = m.copy()
        apply_left(t, out)
        assert np.array_equal(out[kept], m[kept])
        assert np.array_equal(out[i], c * m[i] + s * m[j])
        assert np.array_equal(out[j], -s * m[i] + c * m[j])
        vec = m[:, 0].copy()
        apply_left(t, vec)
        assert np.array_equal(vec, out[:, 0])
        # every kind updates a vector with the arithmetic of a matrix column
        for other in (osh2(random_pivoted(rng, n)), vlh(2, rng.standard_normal(2 * n))):
            assert not other.is_identity
            whole = m.copy()
            apply_left(other, whole)
            vec = m[:, 0].copy()
            apply_left(other, vec)
            assert np.array_equal(vec, whole[:, 0])
        out = m.copy()
        apply_right_adjoint(t, out)
        assert np.array_equal(out[:, kept], m[:, kept])
        assert np.array_equal(out[:, i], c * m[:, i] + s * m[:, j])
        assert np.array_equal(out[:, j], -s * m[:, i] + c * m[:, j])


class TestGivensRounding:
    """Every Givens apply rounds as the two-product formula
    (c x + s y, -s x + c y), including the signs of zeros."""

    @staticmethod
    def _reference(c, s, x, y):
        return c * x + s * y, -s * x + c * y

    @staticmethod
    def _signed(rng, shape):
        m = rng.standard_normal(shape)
        flat = m.reshape(-1)
        flat[::5] = 0.0
        flat[1::5] = -0.0
        return m

    def test_applies_match_the_formula_bit_for_bit(self):
        rng = np.random.default_rng(3500)
        # (record, rows of the right-applied matrix)
        records = (
            (vlg(2, rng.standard_normal(10)), 7),
            (vlg_sweep(2, rng.standard_normal(10)), 7),
            (TransformGivens(1, np.array([1.0, 0.6, 0.0]), np.array([0.0, -0.8, 1.0]), 5), 7),
            # a wide sweep, 99 planes, right-applied to a tall matrix
            (vlg_sweep(2, np.random.default_rng(3501).standard_normal(200)), 250),
        )
        for t, rows in records:
            n, k = t.n, t.k0 - 1
            up, lo = slice(k, k + t.c.size), slice(n + k, n + k + t.c.size)
            for shape in ((2 * n,), (2 * n, 7)):
                m = self._signed(rng, shape)
                out = m.copy()
                apply_left(t, out)
                c, s = (t.c, t.s) if m.ndim == 1 else (t.c[:, None], t.s[:, None])
                expect = m.copy()
                expect[up], expect[lo] = self._reference(c, s, m[up], m[lo])
                assert np.array_equal(out.view(np.uint64), expect.view(np.uint64))
            m = self._signed(rng, (rows, 2 * n))
            out = m.copy()
            apply_right_adjoint(t, out)
            expect = m.copy()
            expect[:, up], expect[:, lo] = self._reference(t.c, t.s, m[:, up], m[:, lo])
            assert np.array_equal(out.view(np.uint64), expect.view(np.uint64))


class TestRightApplyRounding:
    """The right apply runs the left arithmetic on M^T, with the halves
    (w, -u) for an SH record, and rounds exactly as its former arithmetic did
    (``oracles.right_adjoint_reference``), signs of zero included."""

    N = 6

    @classmethod
    def _records(cls, rng):
        n = cls.N
        col = rng.standard_normal(2 * n)
        col[[2, n + 3]] = 0.0, -0.0  # zero entries in the directions
        sub = np.concatenate((col[2:n], col[n + 2:]))  # 2(n - 2) entries
        tiny = col.copy()
        tiny[[1, 4, n + 2]] *= 1e-310  # subnormal entries in the direction
        zeros = np.zeros(2 * n)
        records = [
            embed(sh1(sub, 1.5), 2, n),
            embed(sh2(sub, 0.25), 2, n),
            embed(osh1(sub), 2, n),
            embed(osh2(sub), 2, n),
            osh2(col),
            osh2(tiny),
            vlh(2, col),
            _vlh_from_segment(3, col[n + 2:], n),
            vlg(3, col),
            vlg_sweep(2, col),
            _vlg_lowering(2, col),
            # identity records
            sh1(col[0] * np.eye(2 * n)[0], float(col[0])),
            osh1(zeros),
            vlh(3, zeros),
            vlg(2, zeros),
            vlg_sweep(1, zeros),
            _vlg_lowering(4, zeros),
        ]
        assert sum(t.is_identity for t in records) == 6
        return records

    @classmethod
    def _matrices(cls, rng):
        for rows in (2 * cls.N, 3):
            m = rng.standard_normal((rows, 2 * cls.N))
            planted = rng.random(m.shape) < 0.3
            m[planted] = np.where(rng.random(planted.sum()) < 0.5, 0.0, -0.0)
            m[1] = np.where(rng.random(2 * cls.N) < 0.5, 0.0, -0.0)  # a row of signed zeros
            # as drawn, with subnormal entries (about 1e-310), and scaled
            # near 1e150, where the products stay finite
            subnormal = m.copy()
            subnormal[rng.random(m.shape) < 0.3] *= 1e-310
            for x in (m, subnormal, m * 1e150):
                yield x
                yield np.asfortranarray(x)

    def test_right_apply_matches_the_reference_bit_for_bit(self):
        rng = np.random.default_rng(1700)
        for t in self._records(rng):
            for m in self._matrices(rng):
                out, expect = m.copy(order="K"), m.copy(order="K")
                apply_right_adjoint(t, out)
                right_adjoint_reference(t, expect)
                assert np.isfinite(out).all()
                assert np.array_equal(out.view(np.uint64), expect.view(np.uint64)), t


class TestVlh:
    def test_frozen_example(self):
        a = np.array([3.0, 4.0, 0.0, 0.0])  # n=2, k=1, segment (3,4)
        t = vlh(1, a)
        assert t.beta == 0.025
        assert np.array_equal(t.w, [8.0, 4.0])
        out = mapped(t, a)
        assert out[0] == pytest.approx(-5.0, rel=1e-15)
        assert abs(out[1]) <= 1e-14

    def test_negative_leading_entry(self):
        a = np.array([-3.0, 4.0, 0.0, 0.0])
        t = vlh(1, a)
        assert t.w[0] == -8.0
        assert mapped(t, a)[0] == pytest.approx(5.0, rel=1e-15)

    def test_zero_segment_gives_identity(self):
        a = np.zeros(6)
        a[3:] = 1.0  # lower half ignored by the segment
        assert vlh(1, a).is_identity

    def test_acts_on_both_halves(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal(6)
        t = vlh(1, a)
        out = mapped(t, a)
        assert np.max(np.abs(out[1:3])) <= 1e-14 * np.linalg.norm(a)


class TestPostconditionProperties:
    def test_mapping_targets(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = int(rng.integers(2, 7))
            a = random_pivoted(rng, m)
            na = np.linalg.norm(a)

            rho = float(rng.standard_normal())
            while abs(rho) < 0.1:
                rho = float(rng.standard_normal())
            out = mapped(sh1(a, rho), a)
            target = np.zeros(2 * m)
            target[0] = rho
            assert np.linalg.norm(out - target) <= 1e-12 * max(na, abs(rho))

            mu = float(rng.standard_normal())
            out = mapped(sh2(a, mu), a)
            target = np.zeros(2 * m)
            target[0], target[m] = mu, a[m]
            assert np.linalg.norm(out - target) <= 1e-12 * max(na, abs(mu))

            out = mapped(osh1(a), a)
            assert np.linalg.norm(out[1:]) <= 1e-12 * na

            t = osh2(a)
            out = mapped(t, a)
            target = np.zeros(2 * m)
            target[0] = a[0] + np.linalg.norm(np.r_[a[1:m], a[m + 1:]])  # mu
            target[m] = a[m]
            assert np.linalg.norm(out - target) <= 1e-12 * na

    def test_isometry_condition(self):
        # (T2 a)^J (T2 e1) must equal a^J e1
        rng = np.random.default_rng(12)
        for _ in range(200):
            m = int(rng.integers(2, 7))
            a = random_pivoted(rng, m)
            e1 = np.zeros(2 * m)
            e1[0] = 1.0
            for t in (sh2(a, float(rng.standard_normal())), osh2(a)):
                lhs = j_inner(mapped(t, a), mapped(t, e1))
                rhs = j_inner(a, e1)
                assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(a)

    def test_symplecticity_of_densified(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            m = int(rng.integers(2, 6))
            a = random_pivoted(rng, m)
            for t in (sh1(a, 1.3), sh2(a, 0.7), osh1(a), osh2(a),
                      vlg(int(rng.integers(1, m + 1)), a),
                      vlh(int(rng.integers(1, m + 1)), a)):
                assert symplecticity_residual(densify(t)) <= 1e-11

    def test_van_loan_orthogonality(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            m = int(rng.integers(1, 6))
            a = rng.standard_normal(2 * m)
            k = int(rng.integers(1, m + 1))
            for t in (vlg(k, a), vlh(k, a)):
                d = densify(t)
                assert spectral_norm(d.T @ d - np.eye(2 * m)) <= 1e-13

    def test_adjoint_identity(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            m = int(rng.integers(2, 6))
            a = random_pivoted(rng, m)
            t = osh2(a)
            assert spectral_norm(densify(t) @ adjoint_mat(densify(t)) - np.eye(2 * m)) <= 1e-11

    def test_determinant_is_one(self):
        rng = np.random.default_rng(16)
        for _ in range(40):
            m = int(rng.integers(2, 5))
            a = random_pivoted(rng, m)
            for t in (sh1(a, 0.9), sh2(a, -0.4), osh1(a), osh2(a)):
                assert np.linalg.det(densify(t)) == pytest.approx(1.0, abs=1e-10)


class TestEmbed:
    def test_offset_zero_preserves_action(self):
        a = np.array([3.0, 1.0, 4.0, 2.0])
        t = osh2(a)
        te = embed(t, 0, 2)
        assert np.array_equal(mapped(te, a), mapped(t, a))

    def test_identity_embeds_to_identity(self):
        t = sh2(np.array([1.0, 2.0]), 0.5)  # n=1 identity
        assert embed(t, 2, 3).is_identity

    def test_padded_equivalence_both_directions(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            m = int(rng.integers(2, 5))
            off = int(rng.integers(0, 4))
            n = m + off
            t = osh2(random_pivoted(rng, m))
            te = embed(t, off, n)
            x = rng.standard_normal(2 * n)
            sub = np.concatenate((x[off:n], x[n + off:]))
            for tt, tte in ((t, te), (adjoint_record(t), adjoint_record(te))):
                small = mapped(tt, sub)
                expect = x.copy()
                expect[off:n] = small[:m]
                expect[n + off:] = small[m:]
                got = mapped(tte, x)
                assert np.allclose(got, expect, rtol=1e-15, atol=0.0)
                # untouched coordinates are preserved bit-for-bit
                assert np.array_equal(got[:off], x[:off])
                assert np.array_equal(got[n:n + off], x[n:n + off])

    def test_size_mismatch(self):
        t = osh2(np.array([3.0, 1.0, 4.0, 2.0]))
        with pytest.raises(ValueError):
            embed(t, 1, 2)
        with pytest.raises(TypeError):
            embed(vlg(1, np.zeros(4)), 0, 2)


class TestApply:
    def test_identity_is_untouched_bit_for_bit(self):
        rng = np.random.default_rng(18)
        m = rng.standard_normal((4, 4))
        t = sh1(np.array([5.0, 0.0, 0.0, 0.0]), 5.0)  # identity (a = rho e1)
        out = m.copy()
        apply_left(t, out)
        apply_right_adjoint(t, out)
        assert np.array_equal(out, m)

    def test_left_matches_dense_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            half = int(rng.integers(2, 5))
            a = random_pivoted(rng, half)
            for t in (osh2(a), sh1(a, 1.1), vlg(1, a), vlh(1, a)):
                m = rng.standard_normal((2 * half, 2 * half))
                out = m.copy()
                apply_left(t, out)
                assert np.allclose(out, densify(t) @ m, rtol=1e-13, atol=1e-13)

    def test_right_adjoint_matches_dense_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            half = int(rng.integers(2, 5))
            a = random_pivoted(rng, half)
            for t in (osh2(a), sh1(a, -0.8), vlg(2, a), vlh(1, a)):
                m = rng.standard_normal((2 * half, 2 * half))
                out = m.copy()
                apply_right_adjoint(t, out)
                assert np.allclose(out, m @ adjoint_mat(densify(t)), rtol=1e-13, atol=1e-13)

    def test_sh1_zeroes_matrix_column(self):
        m = np.eye(4)
        m[:, 0] = [3.0, 0.0, 4.0, 0.0]
        t = sh1(m[:, 0], 5.0)
        apply_left(t, m)
        assert np.allclose(m[:, 0], [5.0, 0.0, 0.0, 0.0], atol=1e-14)

    def test_similarity_keeps_reduced_columns(self):
        # step-1 pattern: once columns 1 and n+1 are eliminated (with exact
        # zeros in the eliminated slots), the step-2 odd similarity leaves
        # both of them untouched bit-for-bit
        rng = np.random.default_rng(23)
        n = 3
        m = rng.standard_normal((2 * n, 2 * n))

        def similarity(t):
            apply_left(t, m)
            apply_right_adjoint(t, m)

        sub = np.concatenate((m[0:n, 0], m[n:, 0]))
        assert abs(sub[n]) > 0.05 * np.linalg.norm(sub)
        similarity(embed(osh2(sub), 0, n))
        m[1:n, 0] = 0.0
        m[n + 1:, 0] = 0.0
        sub_even = np.concatenate((m[1:n, n], m[n + 1:, n]))
        assert abs(sub_even[n - 1]) > 1e-6
        similarity(embed(osh1(sub_even), 1, n))
        m[2:n, n] = 0.0
        m[n + 1:, n] = 0.0

        snapshot = m.copy()
        sub2 = np.concatenate((m[1:n, 1], m[n + 1:, 1]))
        assert abs(sub2[n - 1]) > 1e-6
        similarity(embed(osh2(sub2), 1, n))
        assert np.array_equal(m[:, 0], snapshot[:, 0])
        assert np.array_equal(m[:, n], snapshot[:, n])

    def test_size_mismatch(self):
        t = osh2(np.array([3.0, 1.0, 4.0, 2.0]))
        with pytest.raises(ValueError):
            apply_left(t, np.zeros((6, 6)))
        with pytest.raises(ValueError):
            apply_right_adjoint(t, np.zeros((4, 6)))

    def test_rejects_what_is_not_a_transform(self):
        for op in (lambda t: apply_left(t, np.zeros(4)),
                   lambda t: apply_right_adjoint(t, np.zeros((4, 4))), densify, cond2):
            with pytest.raises(TypeError):
                op(np.eye(4))


class TestRefusals:
    """Each record and builder refuses the arguments outside its contract
    with ``ValueError``, naming the argument at fault."""

    @pytest.mark.parametrize("offset", [-1, 2])
    def test_sh_offset_outside_range(self, offset):
        with pytest.raises(ValueError, match="offset"):
            TransformSH(0.0, np.zeros(2), np.zeros(2), offset, 2)

    @pytest.mark.parametrize("u, w", [(np.zeros(1), np.zeros(2)), (np.zeros(2), np.zeros(3)),
                                      (np.zeros((2, 1)), np.zeros(2))])
    def test_sh_direction_of_wrong_length(self, u, w):
        with pytest.raises(ValueError, match="u and w"):
            TransformSH(0.0, u, w, 0, 2)

    @pytest.mark.parametrize("k", [0, 4])
    def test_vlh_k_outside_range(self, k):
        with pytest.raises(ValueError, match="k must"):
            TransformVLH(k, 0.0, np.zeros(3), 3)

    def test_vlh_w_of_wrong_length(self):
        with pytest.raises(ValueError, match="w must"):
            TransformVLH(2, 0.0, np.zeros(3), 3)

    @pytest.mark.parametrize("beta", [1.0, -1.0, 2.0 / 5.0 * (1 + 1e-10)])
    def test_vlh_beta_not_two_over_wtw(self, beta):
        w = np.array([1.0, 2.0])  # w^T w = 5
        TransformVLH(1, 2.0 / 5.0, w, 2)
        with pytest.raises(ValueError, match="beta"):
            TransformVLH(1, beta, w, 2)

    @pytest.mark.parametrize("a", [np.zeros(3), np.zeros((2, 2)), np.zeros(0)])
    def test_vector_not_one_dimensional_of_even_length(self, a):
        for build in (lambda: vlh(1, a), lambda: vlg(1, a), lambda: osh2(a)):
            with pytest.raises(ValueError, match="even length"):
                build()

    @pytest.mark.parametrize("k", [0, 3])
    def test_vlg_and_vlh_k_outside_range(self, k):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        for build in (vlg, vlh):
            with pytest.raises(ValueError, match="k must"):
                build(k, a)

    @pytest.mark.parametrize("build, bad", [
        (lambda i: TransformSH(0.5, np.ones(2), np.ones(2), i, 3), True),
        (lambda i: TransformSH(0.5, np.ones(1), np.ones(1), 1, i), 2.0),
        (lambda i: TransformGivens(i, np.array([0.6]), np.array([0.8]), 2), 1.0),
        (lambda i: TransformGivens(1, np.array([0.6]), np.array([0.8]), i), 2.0),
        (lambda i: TransformVLH(i, 0.4, np.array([1.0, 2.0]), 2), 1.0),
        (lambda i: TransformVLH(1, 0.4, np.array([1.0, 2.0]), i), 2.0),
        (lambda i: embed(osh2(np.array([3.0, 1.0, 4.0, 2.0])), i, 3), 1.0),
        (lambda i: vlh(i, np.array([3.0, 4.0, 1.0, 2.0])), 1.0),
        (lambda i: vlg(i, np.array([3.0, 4.0, 1.0, 2.0])), 2.0),
        (lambda i: vlg_sweep(i, np.array([3.0, 4.0, 1.0, 2.0])), True),
    ], ids=["sh-offset-bool", "sh-n-float", "givens-k0-float", "givens-n-float",
            "vlh-record-k-float", "vlh-record-n-float", "embed-offset-float",
            "vlh-k-float", "vlg-k-float", "vlg-sweep-k0-bool"])
    def test_index_that_is_not_an_integer(self, build, bad):
        # a float index used to build a record whose first apply raised a
        # raw TypeError from slicing, and a bool one ran as 1
        with pytest.raises(ValueError, match=re.escape(repr(bad)) + "$"):
            build(bad)

    @pytest.mark.parametrize("index", [np.int64(2), np.uint8(2), np.intp(2)],
                             ids=["int64", "uint8", "intp"])
    def test_numpy_integer_indices_act_as_ints(self, index):
        a = np.array([3.0, 4.0, 1.0, 2.0, 5.0, 6.0])
        t = osh2(np.array([3.0, 1.0, 4.0, 2.0]))
        pairs = [(build(index, a), build(2, a)) for build in (vlg, vlg_sweep, vlh)]
        pairs.append((embed(t, index - 1, index + 1), embed(t, 1, 3)))
        m = np.random.default_rng(33).standard_normal((6, 6))
        for got, want in pairs:
            for field in dataclasses.fields(want):
                assert np.array_equal(getattr(got, field.name), getattr(want, field.name))
            x, y = m.copy(), m.copy()
            for record, target in ((got, x), (want, y)):
                apply_left(record, target)
                apply_right_adjoint(record, target)
            assert np.array_equal(x, y)

    def test_right_apply_to_a_vector(self):
        t = vlh(1, np.array([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(ValueError, match="2-D"):
            apply_right_adjoint(t, np.zeros(4))


class TestApplyTarget:
    """The applies update a float64 numpy array only.  Anything else is
    refused with ``ValueError`` naming its type or dtype, and left as it
    was: a list raised a raw ``AttributeError``, an int array numpy's
    ``UFuncTypeError``, and float32 and complex arrays ran in their own
    arithmetic."""

    @pytest.mark.parametrize("m, named", [
        ([[1.0, 2.0, 3.0, 4.0]] * 4, "a list"),
        (np.arange(16).reshape(4, 4), "dtype int64"),
        (np.arange(16, dtype=np.float32).reshape(4, 4), "dtype float32"),
        (np.arange(16).reshape(4, 4) + 1j, "dtype complex128"),
        (np.arange(4), "dtype int64"),
    ], ids=["list", "int64", "float32", "complex", "int64-vector"])
    def test_matrix_that_is_not_float64_refused(self, m, named):
        t = osh2(np.array([3.0, 1.0, 4.0, 2.0]))
        assert not t.is_identity
        before = np.array(m)
        for apply in (apply_left, apply_right_adjoint):
            with pytest.raises(ValueError, match=f"float64 numpy array, got {named}$"):
                apply(t, m)
        assert np.array_equal(np.array(m), before)

    def test_unpickled_float64_array_accepted(self):
        # its dtype equals float64 but is an object of its own
        m = np.random.default_rng(3102).standard_normal((4, 4))
        unpickled = pickle.loads(pickle.dumps(m))
        assert unpickled.dtype is not m.dtype
        t = osh2(np.array([3.0, 1.0, 4.0, 2.0]))
        for x in (m, unpickled):
            apply_left(t, x)
            apply_right_adjoint(t, x)
        assert np.array_equal(unpickled, m)


class TestRightApplyBuildsNoRecord:
    """An SH right apply runs the left arithmetic on M^T with the halves
    (w, -u) of J v taken from the record's own fields.  It must round as
    the left apply of the record ``TransformSH(c, w, -u, offset, n)`` on
    M^T does, on every layout of M."""

    N = 5

    @classmethod
    def _records(cls):
        n = cls.N
        col = np.random.default_rng(3100).standard_normal(2 * n)
        sub = np.concatenate((col[1:n], col[n + 1:]))
        records = [osh2(col), sh1(col, 1.5), embed(osh1(sub), 1, n), embed(sh2(sub, 0.25), 1, n)]
        assert not any(t.is_identity for t in records)
        return records

    @classmethod
    def _targets(cls, rng):
        """(whole array, view of it that the record updates) pairs: C- and
        F-ordered matrices, and a view strided along both axes."""
        width = 2 * cls.N
        for rows in (width, 3):
            m = rng.standard_normal((rows, width))
            yield m, m
            f = np.asfortranarray(m)
            yield f, f
        base = rng.standard_normal((2 * width + 1, 3 * width))
        yield base, base[::2, ::3]

    def test_right_apply_is_the_left_rows_of_the_derived_record(self):
        rng = np.random.default_rng(3101)
        n = self.N
        for t in self._records():
            derived = TransformSH(t.c, t.w, -t.u, t.offset, n)
            for whole, view in self._targets(rng):
                expect = whole.copy(order="K")
                expect_view = expect if view is whole else expect[::2, ::3]
                apply_right_adjoint(t, view)
                _left_rows(derived, expect_view.T, n)
                assert np.array_equal(np.ascontiguousarray(whole).view(np.uint64),
                                      np.ascontiguousarray(expect).view(np.uint64)), t


class TestRecordFields:
    # the corpus digest hashes every field of every transcript record, so
    # a field added, dropped or reordered changes its meaning
    @pytest.mark.parametrize("kind, names", [
        (TransformSH, ("c", "u", "w", "offset", "n")),
        (TransformGivens, ("k0", "c", "s", "n")),
        (TransformVLH, ("k", "beta", "w", "n")),
    ])
    def test_fields(self, kind, names):
        assert tuple(f.name for f in dataclasses.fields(kind)) == names

    @pytest.mark.parametrize("kind", [TransformSH, TransformGivens, TransformVLH])
    def test_no_dense_or_adjoint_members(self, kind):
        # a record holds only its arithmetic; the dense matrix and T^J are
        # the tests' oracles
        assert not hasattr(kind, "adjoint")
        assert not hasattr(kind, "v")


class TestDensify:
    def test_quarter_rotation(self):
        t = TransformGivens(k0=1, c=np.array([0.0]), s=np.array([1.0]), n=1)
        assert np.array_equal(densify(t), [[0.0, 1.0], [-1.0, 0.0]])

    def test_sh2_example_is_a_rotation(self):
        t = sh2(np.array([3.0, 1.0, 4.0, 2.0]), 1.0)
        assert np.linalg.det(densify(t)) == pytest.approx(1.0, abs=1e-12)

    def test_identity(self):
        t = sh2(np.array([1.0, 2.0]), 0.1)
        assert np.array_equal(densify(t), np.eye(2))


def svd_cond2(t):
    """Reference condition number from the densified transform."""
    d = densify(t)
    return spectral_norm(d) * spectral_norm(adjoint_mat(d))


class TestCond2:
    def test_identity_is_one(self):
        t = sh2(np.array([1.0, 2.0]), 0.3)
        assert cond2(t) == 1.0

    def test_givens_is_one(self):
        t = vlg(1, np.array([3.0, 0.0, 4.0, 0.0]))
        assert cond2(t) == pytest.approx(1.0, abs=1e-12)

    def test_sweep_and_vlh_are_one(self):
        rng = np.random.default_rng(23)
        for t in (vlg_sweep(1, rng.standard_normal(8)), vlh(1, rng.standard_normal(8))):
            assert cond2(t) == 1.0
            assert svd_cond2(t) == pytest.approx(1.0, abs=1e-12)

    def test_sh_closed_form_matches_svd(self):
        rng = np.random.default_rng(24)
        for _ in range(60):
            m = int(rng.integers(2, 7))
            a = random_pivoted(rng, m)
            for t in (osh1(a), osh2(a), sh1(a, float(rng.uniform(0.5, 2.0))),
                      sh2(a, float(a[0] + rng.uniform(0.5, 2.0))),
                      embed(osh1(a[np.r_[1:m, m + 1:2 * m]]), 1, m)):
                assert cond2(t) == pytest.approx(svd_cond2(t), rel=1e-12)

    def test_near_identity_does_not_cancel(self):
        # cond2 = 1 + |x| + O(x^2) with x = c ||v||^2; a form subtracting
        # two numbers near 2 would return exactly 1 here
        u, w = np.array([1.0, 0.5]), np.array([0.0, 2.0])
        for c in (1e-9, -3e-10, 1e-12):
            t = TransformSH(c, u, w, 0, 2)
            x = abs(c) * 5.25
            assert cond2(t) - 1.0 == pytest.approx(x, abs=1e-14)
            assert svd_cond2(t) - 1.0 == pytest.approx(x, abs=1e-14)

    def test_optimal_beats_arbitrary(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            a = random_pivoted(rng, 3)
            c_opt = cond2(osh1(a))
            for _ in range(5):
                rho = float(rng.standard_normal())
                while abs(rho) < 1e-3:
                    rho = float(rng.standard_normal())
                assert c_opt <= cond2(sh1(a, rho)) + 1e-9
