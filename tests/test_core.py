import enum
import re
import tracemalloc

import numpy as np
import pytest

from symhess import (
    reduce,
    reduction_residual,
    spectral_norm,
    structure_report,
    symplecticity_residual,
)
from symhess.core import _BLOCK_ROWS, _index

from oracles import adjoint_mat, j_inner, make_j


class TestMakeJ:
    def test_n1(self):
        assert np.array_equal(make_j(1), np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_n2_pattern(self):
        j = make_j(2)
        expect = np.zeros((4, 4))
        expect[0, 2] = expect[1, 3] = 1.0
        expect[2, 0] = expect[3, 1] = -1.0
        assert np.array_equal(j, expect)

    def test_squares_to_minus_identity(self):
        j = make_j(3)
        assert np.array_equal(j @ j, -np.eye(6))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            make_j(0)


class TestJInner:
    def test_canonical_pairing(self):
        n = 4
        e1 = np.zeros(2 * n)
        e1[0] = 1.0
        en1 = np.zeros(2 * n)
        en1[n] = 1.0
        assert j_inner(e1, en1) == 1.0

    def test_self_is_zero(self):
        x = np.array([1.0, -2.0, 3.0, 0.5])
        assert j_inner(x, x) == 0.0

    def test_direct_2x2(self):
        # n=1: x^T J y = x1 y2 - x2 y1
        assert j_inner([1.0, 2.0], [3.0, 4.0]) == 1.0 * 4.0 - 2.0 * 3.0

    def test_skew_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            x = rng.standard_normal(2 * n)
            y = rng.standard_normal(2 * n)
            bound = 1e-14 * np.linalg.norm(x) * np.linalg.norm(y)
            assert abs(j_inner(x, y) + j_inner(y, x)) <= bound

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            j_inner([1.0, 2.0], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            j_inner([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


class TestAdjointMat:
    def test_identity(self):
        assert np.array_equal(adjoint_mat(np.eye(4)), np.eye(4))

    def test_j_adjoint_is_minus_j(self):
        j = make_j(2)
        # dense oracle: J^J = J^T J^T J
        oracle = j.T @ j.T @ j
        got = adjoint_mat(j)
        assert np.array_equal(got, -j)
        assert np.allclose(got, oracle)

    def test_scaling(self):
        a = 2.0 * np.eye(2)
        assert np.array_equal(adjoint_mat(a), a)
        assert np.array_equal(adjoint_mat(a) @ a, 4.0 * np.eye(2))

    def test_involution_exact(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((6, 6))
        assert np.array_equal(adjoint_mat(adjoint_mat(m)), m)

    def test_matches_definition(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((6, 4))
        oracle = make_j(2).T @ m.T @ make_j(3)
        assert np.allclose(adjoint_mat(m), oracle, rtol=1e-14, atol=1e-14)

    def test_product_rule(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.standard_normal((6, 6))
            b = rng.standard_normal((6, 6))
            lhs = adjoint_mat(a @ b)
            rhs = adjoint_mat(b) @ adjoint_mat(a)
            assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-13)

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            adjoint_mat(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            adjoint_mat(np.zeros((4, 3)))


class TestSymplecticityResidual:
    def test_identity(self):
        assert symplecticity_residual(np.eye(4)) == 0.0

    def test_j_is_symplectic(self):
        for n in range(1, 21):
            assert symplecticity_residual(make_j(n)) <= 1e-15

    def test_scaled_identity(self):
        # (2I)^J (2I) = 4I, residual ||3I|| = 3
        assert symplecticity_residual(2.0 * np.eye(2)) == pytest.approx(3.0, rel=1e-12)

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            symplecticity_residual(np.zeros((3, 3)))


def _exact_symplectic(n):
    # J diag(D, D^-1) with D a diagonal of powers of two: symplectic, and
    # every product with it is exact
    d = 2.0 ** (np.arange(n) % 7 - 3)
    return make_j(n) @ np.diag(np.concatenate((d, 1.0 / d)))


class TestBlockedResiduals:
    """Both metrics form S^J S and (S^J A) S ``_BLOCK_ROWS`` rows at a time."""

    # multi-block sizes; a block straddles row n except at n = 72
    SIZES = [17, 50, 65, 72]

    @pytest.mark.parametrize("n", SIZES)
    def test_exact_on_an_exactly_symplectic_s(self, n):
        # any misplaced or mis-signed row of S^J would leave a nonzero entry
        s = _exact_symplectic(n)
        a = np.random.default_rng([1700, n]).standard_normal((2 * n, 2 * n))
        h = adjoint_mat(s) @ a @ s
        assert 2 * n > _BLOCK_ROWS
        assert symplecticity_residual(s) == 0.0
        assert not np.any(reduction_residual(a, h, s))

    @pytest.mark.parametrize("n", SIZES)
    def test_agree_with_the_dense_formula(self, n):
        # The blocked and dense products sum the same terms; only the BLAS
        # blocking of each sum can differ, by a few n eps of |S^J| |A| |S|.
        a = np.random.default_rng([1700, n]).standard_normal((2 * n, 2 * n))
        res = reduce(a, "jhmsh")
        s, h = res.s, res.h
        bound = 2 * n * np.finfo(float).eps * spectral_norm(s) ** 2
        dense_orth = spectral_norm(adjoint_mat(s) @ s - np.eye(2 * n))
        assert abs(symplecticity_residual(s) - dense_orth) <= bound
        dense_red = h - adjoint_mat(s) @ a @ s
        assert spectral_norm(reduction_residual(a, h, s) - dense_red) <= bound * spectral_norm(a)

    def test_one_block_is_the_full_product(self):
        n = _BLOCK_ROWS // 2
        a = np.random.default_rng([1700, 0]).standard_normal((2 * n, 2 * n))
        res = reduce(a, "jhmsh")
        s, h = res.s, res.h
        g = adjoint_mat(s) @ s
        g[np.diag_indices_from(g)] -= 1.0
        assert symplecticity_residual(s) == spectral_norm(g)
        assert np.array_equal(reduction_residual(a, h, s), h - adjoint_mat(s) @ a @ s)

    def test_metric_phase_holds_one_workspace(self):
        # Both metrics together peak at one 2n-by-2n buffer plus a block of
        # rows: the dense formula held two full-size temporaries.
        n = 64
        a = np.random.default_rng([1700, n]).standard_normal((2 * n, 2 * n))
        res = reduce(a, "jhmsh")

        def metrics():
            return symplecticity_residual(res.s), spectral_norm(reduction_residual(a, res.h, res.s))

        metrics()  # first-call allocations are not the metrics'
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert metrics() == (res.orth_loss, res.red_err)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * (2 * n) ** 2

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            reduction_residual(np.eye(4), np.eye(4), np.eye(6))
        with pytest.raises(ValueError):
            reduction_residual(np.eye(3), np.eye(3), np.eye(3))


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(4)) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, -7.0, 2.0])) == pytest.approx(7.0, rel=1e-12)

    def test_nilpotent(self):
        assert spectral_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0, rel=1e-12)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_against_svd_oracle(self):
        for k in range(100):
            m = np.random.default_rng(k).standard_normal((4, 4))
            oracle = np.linalg.svd(m, compute_uv=False)[0]
            assert abs(spectral_norm(m) - oracle) <= 1e-9 * oracle

    def test_rectangular(self):
        m = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        assert spectral_norm(m) == pytest.approx(2.0, rel=1e-12)

    def test_near_degenerate_top_pair_against_svd_oracle(self):
        # sigma_1 / sigma_2 = 1 + 1e-9: power iteration converges too slowly here
        q1, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((6, 6)))
        q2, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((6, 6)))
        sigma = np.array([3.0 + 3e-9, 3.0, 1.0, 0.5, 0.25, 0.0])
        m = q1 @ np.diag(sigma) @ q2.T
        oracle = np.linalg.svd(m, compute_uv=False)[0]
        assert spectral_norm(m) == pytest.approx(oracle, rel=1e-14)
        assert spectral_norm(m) == pytest.approx(sigma[0], rel=1e-14)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gives_nan(self, bad):
        m = np.eye(4)
        m[1, 2] = bad
        assert np.isnan(spectral_norm(m))

    @pytest.mark.parametrize("first, second", [(np.nan, np.inf), (np.inf, -np.inf),
                                               (-np.inf, np.nan), (np.inf, 1e308)])
    def test_mixed_non_finite_gives_nan(self, first, second):
        m = np.random.default_rng(3).standard_normal((40, 40))
        m[3, 30], m[35, 2] = first, second
        assert np.isnan(spectral_norm(m))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            spectral_norm(np.zeros((0, 2)))


class TestStructureReport:
    def test_identity_is_hessenberg_not_unreduced(self):
        rep = structure_report(np.eye(4), 0.0)
        assert rep.is_upper_j_hessenberg
        assert not rep.is_unreduced
        assert rep.h11_max_below_diag == 0.0

    def test_single_violation(self):
        h = np.eye(4)
        h[3, 0] = 1.0  # H21 entry (2,1)
        rep = structure_report(h, 1e-12)
        assert not rep.is_upper_j_hessenberg
        assert rep.h21_max_below_diag == 1.0

    def test_h12_subdiagonal_is_allowed(self):
        n = 3
        h = np.zeros((2 * n, 2 * n))
        h[:n, :n] = np.triu(np.ones((n, n)))
        h[n:, :n] = np.triu(np.ones((n, n)))
        h[n:, n:] = np.triu(np.ones((n, n)))
        h[:n, n:] = np.triu(np.ones((n, n)), -1)  # upper Hessenberg
        rep = structure_report(h, 0.0)
        assert rep.is_upper_j_hessenberg
        assert rep.is_unreduced

    def test_unreduced_needs_nonzero_h21_diagonal(self):
        n = 2
        h = np.zeros((4, 4))
        h[:n, :n] = np.triu(np.ones((n, n)))
        h[n:, n:] = np.triu(np.ones((n, n)))
        h[:n, n:] = np.triu(np.ones((n, n)), -1)
        rep = structure_report(h, 0.0)  # H21 identically zero
        assert rep.is_upper_j_hessenberg
        assert not rep.is_unreduced

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            structure_report(np.zeros((3, 3)), 0.0)
        with pytest.raises(ValueError):
            structure_report(np.eye(4), -1.0)
        with pytest.raises(ValueError):
            structure_report(np.eye(4), float("nan"))

    @pytest.mark.parametrize("tol", ["x", True, None], ids=["str", "bool", "None"])
    def test_tol_that_is_not_a_real_number(self, tol):
        # "x" and None used to raise a raw TypeError, True to run as 1.0
        with pytest.raises(ValueError, match=f"tol .*got {tol!r}$"):
            structure_report(np.eye(4), tol)

    def test_integer_and_float32_tol_accepted(self):
        h = np.eye(4)
        h[3, 0] = 0.5
        for tol in (0, np.int64(1), np.float32(0.25)):
            assert structure_report(h, tol) == structure_report(h, float(tol))

    def test_infinite_tol_accepted(self):
        # cmd_check's tolerance 1e-10 * ||H||_F overflows for a finite huge H
        rep = structure_report(np.full((4, 4), 1e308), float("inf"))
        assert rep.is_upper_j_hessenberg


class TestIndexRule:
    """``_index``, the integer rule: an exact int comes back unchanged, on
    a fast path; every other value goes through ``operator.index`` with the
    real-number rule first."""

    def test_exact_int_comes_back_as_the_same_object(self):
        value = int("1" * 30)  # not a cached small int
        assert _index(value, "k") is value

    @pytest.mark.parametrize("bad, message", [
        (True, "k must not be a bool, which acts as 1 or 0, got True"),
        (np.True_, f"k must not be a bool, which acts as 1 or 0, got {np.True_!r}"),
        (2.0, "k must be an integer, got 2.0"),
        ("2", "k must be a real number, got '2'"),
    ], ids=["bool", "numpy-bool", "float", "str"])
    def test_refused_with_its_message(self, bad, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _index(bad, "k")

    def test_numpy_integer_and_int_enum_accepted(self):
        class Level(enum.IntEnum):
            TWO = 2

        for value in (np.int64(2), Level.TWO):
            got = _index(value, "k")
            assert got == 2 and type(got) is int
