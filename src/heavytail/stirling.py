"""Non-centered Stirling numbers of the first kind, exactly.

Builds the integer table s(i,j;r) from the recurrence
s(i+1,j;r) = s(i,j−1;r) − (r+i)·s(i,j;r) (expansion of
(x−r)_{i+1} = (x−r)_i·(x−r−i)) and machine-checks the combinatorial
bounds used in the second-moment analysis. Everything is arbitrary
precision; no float enters any check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import CapacityError, DomainError, ParameterError

# Subset enumeration is C(i, j) terms; past i = 20 it stops being a
# practical oracle.
SUBSET_ORACLE_LIMIT = 20

# Rational lower bound on e^2 = 7.389056098930650227…; the products under
# test stay below e^(1 + 1/sqrt(2N)) < 2.8, so comparing against this
# truncation can never produce a false verdict.
_E_SQUARED_FLOOR = Fraction(73890560989306495, 10**16)


@dataclass(frozen=True)
class StirlingTable:
    """Exact integers s(i,j;r) for 0 ≤ j ≤ i ≤ i_max (r = 1 in all tests)."""

    i_max: int
    r: int
    rows: tuple[tuple[int, ...], ...]

    def entry(self, i: int, j: int) -> int:
        if not 0 <= i <= self.i_max:
            raise DomainError(f"row {i} outside table (i_max={self.i_max})")
        if not 0 <= j <= i:
            raise DomainError(f"column {j} outside row {i}")
        return self.rows[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        if not 0 <= i <= self.i_max:
            raise DomainError(f"row {i} outside table (i_max={self.i_max})")
        return self.rows[i]


def build_table(i_max: int, r: int = 1) -> StirlingTable:
    """Exact table of s(i,j;r); only r=1 is exercised by the lemma suite."""
    i_max = int(i_max)
    if i_max < 0:
        raise ParameterError(f"i_max must be nonnegative, got {i_max}")
    rows = [(1,)]
    for i in range(i_max):
        prev = rows[-1]
        cur = []
        for j in range(i + 2):
            above = prev[j - 1] if 1 <= j <= i + 1 else 0
            same = prev[j] if j <= i else 0
            cur.append(above - (r + i) * same)
        rows.append(tuple(cur))
    return StirlingTable(i_max=i_max, r=r, rows=tuple(rows))


def subset_sum_oracle(i: int, j: int) -> int:
    """|s(i,j;1)| = i!·Σ 1/(r₁⋯r_j) over j-subsets of {1..i}, exact rationals."""
    i, j = int(i), int(j)
    if i < 1:
        raise ParameterError(f"i must be a positive integer, got {i}")
    if i > SUBSET_ORACLE_LIMIT:
        raise CapacityError(f"subset oracle limited to i <= {SUBSET_ORACLE_LIMIT}, got {i}")
    if not 1 <= j <= i:
        raise DomainError(f"need 1 <= j <= i, got j={j}, i={i}")
    total = Fraction(0)
    for subset in combinations(range(1, i + 1), j):
        total += Fraction(1, math.prod(subset))
    value = math.factorial(i) * total
    if value.denominator != 1:
        raise AssertionError("subset sum did not reduce to an integer")
    return int(value)


def falling_factorial(x: int, k: int) -> int:
    """(x)_k = x(x−1)⋯(x−k+1) over exact integers."""
    out = 1
    for m in range(k):
        out *= x - m
    return out


@dataclass(frozen=True)
class BoundPolynomials:
    """Exact evaluators for the bound polynomials P_i, h_i and f."""

    table: StirlingTable

    def P(self, i: int, x: int) -> int:
        """P_i(x) = Σ_{j=0}^{i} s(i+2,j;1)·x^j."""
        if i + 2 > self.table.i_max:
            raise DomainError(f"P_{i} needs table row {i + 2} (i_max={self.table.i_max})")
        row = self.table.row(i + 2)
        return sum(row[j] * x**j for j in range(i + 1))

    @staticmethod
    def h(i: int, x: int) -> int:
        """h_i(x) = x^(i+1)·((i+2)(i+3)/2 − x)."""
        return x ** (i + 1) * ((i + 2) * (i + 3) // 2 - x)

    @staticmethod
    def f(x: int) -> int:
        """f(x) = (x+1)(x+2)[1 + 2x + x(x−1)] + 4; nonnegative for x ≥ 0."""
        return (x + 1) * (x + 2) * (1 + 2 * x + x * (x - 1)) + 4


def check_rising_identity(table: StirlingTable, x_values, i_values=None) -> bool:
    """(x+i)_i = Σ_j |s(i,j;1)|·x^j exactly for every tested (i, x)."""
    if i_values is None:
        i_values = range(table.i_max + 1)
    for i in i_values:
        row = table.row(i)
        for x in x_values:
            x = int(x)
            lhs = falling_factorial(x + i, i)
            rhs = sum(abs(row[j]) * x**j for j in range(i + 1))
            if lhs != rhs:
                return False
    return True


def check_lemma_P_decomposition(table: StirlingTable, N: int, i: int) -> bool:
    """P_i(N) = (N−1)_{i+2} + h_i(N), exactly.

    Once i ≥ √(2N) the decomposition also pins the size chain
    2N^(i+3) > P_i(N) > (N−1)_{i+2} ≥ 0 with h_i(N) > 0; both are
    verified in that regime.
    """
    N, i = int(N), int(i)
    if not 0 <= i <= N - 3:
        raise DomainError(f"decomposition needs 0 <= i <= N-3, got i={i}, N={N}")
    polys = BoundPolynomials(table)
    p_val = polys.P(i, N)
    fall = falling_factorial(N - 1, i + 2)
    h_val = polys.h(i, N)
    if p_val != fall + h_val:
        return False
    if i * i >= 2 * N:
        if not h_val > 0:
            return False
        if not (2 * N ** (i + 3) > p_val > fall >= 0):
            return False
    return True


def check_product_bound(N: int, i: int) -> bool:
    """Π_{j=1}^{i} (1 + j/N) ≤ e² for 0 ≤ i < √(2N), over exact rationals."""
    N, i = int(N), int(i)
    if N < 1:
        raise ParameterError(f"N must be positive, got {N}")
    if i < 0 or i * i >= 2 * N:
        raise DomainError(f"product bound needs 0 <= i < sqrt(2N), got i={i}, N={N}")
    product = Fraction(1)
    for j in range(1, i + 1):
        product *= Fraction(N + j, N)
    return product <= _E_SQUARED_FLOOR


def check_degree4_bound(table: StirlingTable, i_max_check: int) -> bool:
    """|s(i+2,j;1)| ≤ f(i)·|s(i,j;1)| for all 0 ≤ j ≤ i ≤ i_max_check, exactly."""
    i_max_check = int(i_max_check)
    if i_max_check + 2 > table.i_max:
        raise DomainError(
            f"degree-4 check to i={i_max_check} needs table rows to {i_max_check + 2}"
        )
    for i in range(i_max_check + 1):
        f_i = BoundPolynomials.f(i)
        row_i = table.row(i)
        row_i2 = table.row(i + 2)
        for j in range(i + 1):
            if abs(row_i2[j]) > f_i * abs(row_i[j]):
                return False
    return True


@dataclass(frozen=True)
class LemmaResult:
    name: str
    passed: bool
    detail: str


# Tested ranges of run_lemma_suite; the whole suite takes well under a
# second at these.
ORACLE_I = 12
RISING_I = 30
DECOMPOSITION_N = 50
PRODUCT_N = 10**4
DEGREE4_I = 30


def run_lemma_suite() -> list[LemmaResult]:
    """Run every exact check over its tested range (the constants above).

    Returns one result per lemma with the first counterexample (if any);
    consumed by the `stirling-check` CLI subcommand and the acceptance
    suite.
    """
    table = build_table(max(RISING_I, DEGREE4_I + 2, DECOMPOSITION_N - 1))
    results = []

    detail = f"i <= {ORACLE_I}, exact integer equality"
    passed = True
    for i in range(1, ORACLE_I + 1):
        for j in range(1, i + 1):
            if abs(table.entry(i, j)) != subset_sum_oracle(i, j):
                passed, detail = False, f"first counterexample at (i={i}, j={j})"
                break
        if not passed:
            break
    results.append(LemmaResult("table-vs-oracle", passed, detail))

    xs = range(-5, 6)
    detail = f"i <= {RISING_I}, x in [-5, 5]"
    passed = True
    for i in range(RISING_I + 1):
        if not check_rising_identity(table, xs, i_values=[i]):
            passed, detail = False, f"first counterexample at i={i}"
            break
    results.append(LemmaResult("rising-identity", passed, detail))

    detail = f"N <= {DECOMPOSITION_N}, all 0 <= i <= N-3"
    passed = True
    for N in range(3, DECOMPOSITION_N + 1):
        for i in range(0, N - 2):
            if i + 2 > table.i_max:
                break
            if not check_lemma_P_decomposition(table, N, i):
                passed, detail = False, f"first counterexample at (N={N}, i={i})"
                break
        if not passed:
            break
    results.append(LemmaResult("P-decomposition", passed, detail))

    sample_ns = [1, 2, 3, 5, 8, 13, 50, 100, 541, 1000, 4096, PRODUCT_N]
    detail = f"sampled N <= {PRODUCT_N}, i near sqrt(2N)"
    passed = True
    for N in sample_ns:
        i_top = math.isqrt(2 * N - 1)
        if i_top * i_top >= 2 * N:
            i_top -= 1
        for i in sorted({0, i_top // 2, i_top}):
            if not check_product_bound(N, i):
                passed, detail = False, f"first counterexample at (N={N}, i={i})"
                break
        if not passed:
            break
    results.append(LemmaResult("product-bound", passed, detail))

    detail = f"i <= {DEGREE4_I}, all 0 <= j <= i"
    passed = check_degree4_bound(table, DEGREE4_I)
    if not passed:
        for i in range(DEGREE4_I + 1):
            for j in range(i + 1):
                if abs(table.entry(i + 2, j)) > BoundPolynomials.f(i) * abs(table.entry(i, j)):
                    detail = f"first counterexample at (i={i}, j={j})"
                    break
    results.append(LemmaResult("degree4-bound", passed, detail))

    return results
