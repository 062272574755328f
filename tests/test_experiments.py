import numpy as np
import pytest

import symhess.experiments as experiments
from symhess import (
    VARIANTS,
    BreakdownError,
    FamilySpec,
    ReductionOptions,
    SeededStrategy,
    SweepRow,
    emit_table,
    gen_family1,
    gen_family2,
    reduce,
    run_sweep,
)

from oracles import make_j

SEEDED = ReductionOptions(strategy=SeededStrategy(7))


@pytest.fixture
def reduce_calls(monkeypatch):
    """The variant names ``run_sweep`` passes to ``reduce``, in call order."""
    calls = []

    def counting_reduce(a, variant, opts=None):
        calls.append(variant)
        return reduce(a, variant, opts)

    monkeypatch.setattr(experiments, "reduce", counting_reduce)
    return calls


class TestFamily1:
    def test_frozen_n2(self):
        expect = np.array([
            [1.0, 0.0, 1.0, 2.0],
            [2.0, 1.0, 2.0, 1.0],
            [0.0, 2.0, 1.0, 0.0],
            [0.0, 1.0, 3.0, 1.0],
        ])
        assert np.array_equal(gen_family1(2), expect)

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_lower_left_block_first_column_zero(self, n):
        a = gen_family1(n)
        assert np.array_equal(a[n:, 0], np.zeros(n))

    def test_upper_right_block_symmetric(self):
        a = gen_family1(3)
        m12 = a[:3, 3:]
        assert np.array_equal(m12, m12.T)

    def test_integer_entries(self):
        a = gen_family1(6)
        assert set(np.unique(a)) <= {0.0, 1.0, 2.0, 3.0}

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            gen_family1(1)


class TestFamily2:
    def test_frozen_n2(self):
        expect = np.array([
            [1.0, 0.0, 1.0, 2.0],
            [2.0, 1.0, 2.0, 1.0],
            [0.0, 0.0, -1.0, -2.0],
            [0.0, 1.0, 0.0, -1.0],
        ])
        assert np.array_equal(gen_family2(2), expect)

    @pytest.mark.parametrize("n", [2, 5, 12, 20])
    def test_hamiltonian_exactly(self, n):
        a = gen_family2(n)
        ja = make_j(n) @ a
        assert np.array_equal(ja, ja.T)

    def test_lower_left_block_border_zero(self):
        a = gen_family2(5)
        m21 = a[5:, :5]
        assert np.array_equal(m21[0, :], np.zeros(5))
        assert np.array_equal(m21[:, 0], np.zeros(5))
        assert np.array_equal(m21, m21.T)

    def test_integer_entries(self):
        a = gen_family2(6)
        assert set(np.unique(a)) <= {-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0}

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            gen_family2(0)


class TestFamilySpec:
    def test_generate_dispatch(self):
        assert np.array_equal(FamilySpec(1, 3).generate(), gen_family1(3))
        assert np.array_equal(FamilySpec(2, 3).generate(), gen_family2(3))

    def test_validation(self):
        with pytest.raises(ValueError):
            FamilySpec(3, 4)
        with pytest.raises(ValueError):
            FamilySpec(1, 1)


class TestRunSweep:
    def test_single_row(self):
        rows = run_sweep(1, 2, 2, ["jhmsh"])
        assert len(rows) == 1
        row = rows[0]
        assert (row.n, row.variant, row.status) == (2, "jhmsh", "ok")
        assert row.orth_loss <= 1e-14
        assert row.fallback_count == 1

    def test_family2_n20_magnitude(self):
        rows = run_sweep(2, 20, 20, ["jhmsh2"])
        assert rows[0].status == "ok"
        assert rows[0].red_err <= 5e-2

    def test_empty_variant_list(self):
        assert run_sweep(1, 2, 4, []) == []

    def test_breakdown_is_recorded_not_raised(self):
        opts = ReductionOptions(breakdown_fallback=False)
        rows = run_sweep(1, 2, 3, ["jhosh"], opts)
        assert all(r.status == "breakdown" for r in rows)
        assert all(r.orth_loss is None and r.red_err is None for r in rows)

    def test_row_count(self):
        rows = run_sweep(1, 2, 6, ["jhmsh", "jhmsh2"])
        assert len(rows) == 5 * 2

    def test_determinism(self):
        rows1 = run_sweep(1, 2, 8, ["jhmsh", "jhmsh2"])
        rows2 = run_sweep(1, 2, 8, ["jhmsh", "jhmsh2"])
        assert emit_table(rows1, "csv") == emit_table(rows2, "csv")

    def test_validation(self):
        with pytest.raises(ValueError):
            run_sweep(3, 2, 4, ["jhmsh"])
        with pytest.raises(ValueError):
            run_sweep(1, 5, 4, ["jhmsh"])

    def test_unknown_variant_rejected_before_any_reduction(self, reduce_calls):
        with pytest.raises(ValueError, match="'nope'"):
            run_sweep(1, 2, 3, ["jhmsh", "nope"])
        assert reduce_calls == []


class TestSweepSharesReductions:
    @pytest.mark.parametrize("opts", [ReductionOptions(), SEEDED], ids=["optimal", "seeded"])
    @pytest.mark.parametrize("family", [1, 2])
    def test_rows_equal_direct_reductions(self, family, opts):
        rows = run_sweep(family, 2, 12, list(VARIANTS), opts)
        assert [(r.n, r.variant) for r in rows] == [
            (n, v) for n in range(2, 13) for v in VARIANTS]
        for row in rows:
            try:
                res = reduce(FamilySpec(family, row.n).generate(), row.variant, opts)
            except BreakdownError:
                expect = SweepRow(row.n, row.variant, None, None, 0, "breakdown")
            else:
                expect = SweepRow(row.n, row.variant, res.orth_loss, res.red_err,
                                  len(res.fallbacks_used), "ok")
            assert row == expect

    @pytest.mark.parametrize("opts, calls_per_n", [(ReductionOptions(), 3), (SEEDED, 4)],
                             ids=["optimal", "seeded"])
    def test_one_reduction_per_distinct_algorithm(self, reduce_calls, opts, calls_per_n):
        run_sweep(1, 2, 5, list(VARIANTS), opts)
        assert len(reduce_calls) == 4 * calls_per_n

    def test_repeated_name_reduced_once(self, reduce_calls):
        rows = run_sweep(1, 3, 3, ["jhmsh", "JHMSH"])
        assert reduce_calls == ["jhmsh"]
        assert [r.variant for r in rows] == ["jhmsh", "JHMSH"]
        assert rows[0].orth_loss == rows[1].orth_loss and rows[0].red_err == rows[1].red_err

    def test_seeded_jhsh_is_not_jhosh(self):
        rows = run_sweep(1, 2, 12, ["jhsh", "jhosh"], SEEDED)
        jhsh_rows, jhosh_rows = rows[0::2], rows[1::2]
        assert any((a.orth_loss, a.red_err, a.status) != (b.orth_loss, b.red_err, b.status)
                   for a, b in zip(jhsh_rows, jhosh_rows))


class TestEmitTable:
    def test_empty_rows_header_only(self):
        text = emit_table([], "csv")
        assert text == "n,variant,orth_loss,red_err,fallbacks,status\n"

    def test_one_ok_row(self):
        rows = [SweepRow(3, "jhmsh", 1.23456e-9, 9.87654e-8, 1, "ok")]
        text = emit_table(rows, "csv")
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[1] == "3,jhmsh,1.2346e-09,9.8765e-08,1,ok"

    def test_breakdown_row_renders_fail(self):
        rows = [SweepRow(4, "jhsh", None, None, 0, "breakdown")]
        text = emit_table(rows, "csv")
        assert text.splitlines()[1] == "4,jhsh,fail,fail,0,breakdown"

    def test_markdown_format(self):
        rows = [SweepRow(2, "jhmsh2", 1e-16, 1e-15, 1, "ok")]
        text = emit_table(rows, "markdown")
        lines = text.splitlines()
        assert lines[0].startswith("| n | variant |")
        assert lines[1].startswith("|")
        assert "| 2 | jhmsh2 | 1.0000e-16 |" in lines[2]

    def test_lf_endings(self):
        text = emit_table([SweepRow(2, "jhmsh", 1e-16, 1e-15, 0, "ok")], "csv")
        assert "\r" not in text
        assert text.endswith("\n")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_table([], "html")
