"""Exact integer combinatorics: tables, oracle, and the bound lemmas."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavytail import cli, stirling
from heavytail.errors import CapacityError, DomainError
from heavytail.stirling import (
    build_table,
    check_degree4_bound,
    check_lemma_P_decomposition,
    check_product_bound,
    check_rising_identity,
    falling_factorial,
    poly_f,
    poly_h,
    poly_P,
    run_lemma_suite,
    subset_sum_oracle,
)

# `heavytail stirling-check` stdout, byte for byte.
STIRLING_CHECK_STDOUT = (
    "[PASS] table-vs-oracle: i <= 12, exact integer equality\n"
    "[PASS] rising-identity: i <= 30, x in [-5, 5]\n"
    "[PASS] P-decomposition: N <= 50, all 0 <= i <= N-3\n"
    "[PASS] product-bound: sampled N <= 10000, i near sqrt(2N)\n"
    "[PASS] degree4-bound: i <= 30, all 0 <= j <= i\n"
)


class TestTable:
    def test_base_row(self):
        table = build_table(4)
        assert table.row(0) == (1,)

    def test_hand_rows_r1(self):
        # s(i+1, j; 1) = s(i, j-1; 1) - (1+i) s(i, j; 1)
        table = build_table(3)
        assert table.row(1) == (-1, 1)
        assert table.row(2) == (2, -3, 1)
        assert table.row(3) == (-6, 11, -6, 1)

    def test_entry_bounds(self):
        table = build_table(3)
        with pytest.raises(DomainError):
            table.entry(4, 0)
        with pytest.raises(DomainError):
            table.entry(2, 3)

    def test_entries_are_python_ints(self):
        table = build_table(40)
        v = table.entry(40, 3)
        assert isinstance(v, int)
        assert abs(v) > 2**63  # exactness would be lost in fixed width


class TestOracle:
    def test_hand_values(self):
        assert subset_sum_oracle(2, 1) == 3
        assert subset_sum_oracle(3, 2) == 6
        assert subset_sum_oracle(4, 4) == 1

    def test_matches_table_magnitudes(self):
        table = build_table(12)
        for i in (1, 5, 9, 12):
            for j in range(1, i + 1):
                assert abs(table.entry(i, j)) == subset_sum_oracle(i, j)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            subset_sum_oracle(21, 1)


class TestFallingFactorial:
    def test_values(self):
        assert falling_factorial(5, 3) == 60
        assert falling_factorial(4, 0) == 1
        assert falling_factorial(3, 5) == 0  # passes through zero

    @given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_recurrence(self, x, k):
        assert falling_factorial(x, k + 1) == falling_factorial(x, k) * (x - k)


class TestBoundPolynomials:
    def test_p_decomposition_hand_value(self):
        # P_2(5) = (4)_4 + h_2(5) = 24 + 625 = 649
        table = build_table(8)
        assert poly_P(table, 2, 5) == 649
        assert falling_factorial(4, 4) + poly_h(2, 5) == 649

    def test_f_values(self):
        assert poly_f(0) == 6
        assert poly_f(1) == 22
        assert poly_f(2) == 88


class TestLemmaChecks:
    def test_rising_identity(self):
        table = build_table(20)
        assert all(check_rising_identity(table, i, range(-5, 6)) for i in range(21))

    def test_p_decomposition(self):
        table = build_table(30)
        assert check_lemma_P_decomposition(table, N=30, i=10)

    def test_product_bound_inside_region(self):
        assert check_product_bound(N=1000, i=30)  # 30^2 < 2000

    def test_product_bound_rejects_outside_region(self):
        with pytest.raises(DomainError):
            check_product_bound(N=100, i=15)  # 15^2 > 200

    def test_degree4_bound(self):
        table = build_table(22)
        assert all(check_degree4_bound(table, i, j) for i in range(21) for j in range(i + 1))

    def test_product_bound_is_sharp_ish(self):
        # the rational floor of e^2 used by the bound is below the true e^2
        from heavytail.stirling import _E_SQUARED_FLOOR

        assert _E_SQUARED_FLOOR < Fraction(73890560989306496, 10**16)
        assert float(_E_SQUARED_FLOOR) == pytest.approx(7.389056098930649, rel=1e-15)


class TestSuite:
    def test_reduced_suite_passes(self):
        results = run_lemma_suite()
        assert len(results) == 5
        assert all(r.passed for r in results)
        names = {r.name for r in results}
        assert {"table-vs-oracle", "rising-identity"} <= names

    def test_reports_first_pair_counterexample(self, monkeypatch, capsys):
        true_oracle = stirling.subset_sum_oracle

        def off_by_one(i, j):
            return true_oracle(i, j) + ((i, j) == (5, 2))

        monkeypatch.setattr(stirling, "subset_sum_oracle", off_by_one)
        results = {r.name: r for r in run_lemma_suite()}
        oracle = results.pop("table-vs-oracle")
        assert not oracle.passed
        assert oracle.detail == "first counterexample at (i=5, j=2)"
        assert all(r.passed for r in results.values())
        assert cli.main(["stirling-check"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] table-vs-oracle: first counterexample at (i=5, j=2)\n" in out

    def test_reports_first_index_counterexample(self, monkeypatch):
        true_check = stirling.check_rising_identity

        def fails_from_seven(table, i, x_values):
            return i < 7 and true_check(table, i, x_values)

        monkeypatch.setattr(stirling, "check_rising_identity", fails_from_seven)
        results = {r.name: r for r in run_lemma_suite()}
        rising = results.pop("rising-identity")
        assert not rising.passed
        assert rising.detail == "first counterexample at i=7"
        assert all(r.passed for r in results.values())

    def test_cli_stdout_is_pinned(self, capsys):
        assert cli.main(["stirling-check"]) == 0
        assert capsys.readouterr().out == STIRLING_CHECK_STDOUT
