"""Non-centered Stirling numbers of the first kind, exactly, at r = 1.

Builds the integer table s(i,j;1) from the recurrence
s(i+1,j;1) = s(i,j−1;1) − (1+i)·s(i,j;1) (expansion of
(x−1)_{i+1} = (x−1)_i·(x−1−i)) and machine-checks the combinatorial
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
    """Exact integers s(i,j;1) for 0 ≤ j ≤ i ≤ i_max."""

    i_max: int
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


def build_table(i_max: int) -> StirlingTable:
    """Exact table of s(i,j;1) for rows 0..i_max."""
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
            cur.append(above - (1 + i) * same)
        rows.append(tuple(cur))
    return StirlingTable(i_max=i_max, rows=tuple(rows))


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


def poly_P(table: StirlingTable, i: int, x: int) -> int:
    """P_i(x) = Σ_{j=0}^{i} s(i+2,j;1)·x^j."""
    row = table.row(i + 2)
    return sum(row[j] * x**j for j in range(i + 1))


def poly_h(i: int, x: int) -> int:
    """h_i(x) = x^(i+1)·((i+2)(i+3)/2 − x)."""
    return x ** (i + 1) * ((i + 2) * (i + 3) // 2 - x)


def poly_f(x: int) -> int:
    """f(x) = (x+1)(x+2)[1 + 2x + x(x−1)] + 4; nonnegative for x ≥ 0."""
    return (x + 1) * (x + 2) * (1 + 2 * x + x * (x - 1)) + 4


def check_rising_identity(table: StirlingTable, i: int, x_values) -> bool:
    """(x+i)_i = Σ_j |s(i,j;1)|·x^j exactly for every tested x."""
    row = table.row(i)
    return all(
        falling_factorial(x + i, i) == sum(abs(row[j]) * x**j for j in range(i + 1))
        for x in map(int, x_values)
    )


def check_lemma_P_decomposition(table: StirlingTable, N: int, i: int) -> bool:
    """P_i(N) = (N−1)_{i+2} + h_i(N), exactly.

    Once i ≥ √(2N) the decomposition also pins the size chain
    2N^(i+3) > P_i(N) > (N−1)_{i+2} ≥ 0 with h_i(N) > 0; both are
    verified in that regime.
    """
    N, i = int(N), int(i)
    if not 0 <= i <= N - 3:
        raise DomainError(f"decomposition needs 0 <= i <= N-3, got i={i}, N={N}")
    p_val = poly_P(table, i, N)
    fall = falling_factorial(N - 1, i + 2)
    h_val = poly_h(i, N)
    if p_val != fall + h_val:
        return False
    return i * i < 2 * N or (h_val > 0 and 2 * N ** (i + 3) > p_val > fall >= 0)


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


def check_degree4_bound(table: StirlingTable, i: int, j: int) -> bool:
    """|s(i+2,j;1)| ≤ f(i)·|s(i,j;1)|, exactly."""
    return abs(table.entry(i + 2, j)) <= poly_f(i) * abs(table.entry(i, j))


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


def _product_indices(N: int) -> list[int]:
    """0, the midpoint and the largest i with i² < 2N."""
    i_top = math.isqrt(2 * N - 1)
    return sorted({0, i_top // 2, i_top})


def run_lemma_suite() -> list[LemmaResult]:
    """Run every exact check over its tested range (the constants above).

    Each lemma is a check over a stream of cases, each case a mapping of
    the check's keyword arguments; the result reports the first case that
    fails, if any. Consumed by the `stirling-check` CLI subcommand and the
    acceptance suite.
    """
    table = build_table(max(RISING_I, DEGREE4_I + 2, DECOMPOSITION_N - 1))
    product_ns = (1, 2, 3, 5, 8, 13, 50, 100, 541, 1000, 4096, PRODUCT_N)
    lemmas = (
        (
            "table-vs-oracle", f"i <= {ORACLE_I}, exact integer equality",
            ({"i": i, "j": j} for i in range(1, ORACLE_I + 1) for j in range(1, i + 1)),
            lambda i, j: abs(table.entry(i, j)) == subset_sum_oracle(i, j),
        ),
        (
            "rising-identity", f"i <= {RISING_I}, x in [-5, 5]",
            ({"i": i} for i in range(RISING_I + 1)),
            lambda i: check_rising_identity(table, i, range(-5, 6)),
        ),
        (
            "P-decomposition", f"N <= {DECOMPOSITION_N}, all 0 <= i <= N-3",
            ({"N": N, "i": i} for N in range(3, DECOMPOSITION_N + 1) for i in range(N - 2)),
            lambda N, i: check_lemma_P_decomposition(table, N, i),
        ),
        (
            "product-bound", f"sampled N <= {PRODUCT_N}, i near sqrt(2N)",
            ({"N": N, "i": i} for N in product_ns for i in _product_indices(N)),
            check_product_bound,
        ),
        (
            "degree4-bound", f"i <= {DEGREE4_I}, all 0 <= j <= i",
            ({"i": i, "j": j} for i in range(DEGREE4_I + 1) for j in range(i + 1)),
            lambda i, j: check_degree4_bound(table, i, j),
        ),
    )
    results = []
    for name, detail, cases, check in lemmas:
        failure = next((case for case in cases if not check(**case)), None)
        if failure is not None:
            label = ", ".join(f"{key}={value}" for key, value in failure.items())
            detail = "first counterexample at " + (label if len(failure) == 1 else f"({label})")
        results.append(LemmaResult(name, failure is None, detail))
    return results
