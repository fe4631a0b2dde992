import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conekit.errors import DimensionMismatch, ExactBackend, MixedBackend, PreconditionFailed
from conekit.numerics import (
    Ordering,
    SymMatrix,
    ToleranceContext,
    Vector,
    approx_eq,
    exact_det,
    exact_inverse,
    exact_null_space,
    exact_rank,
    exact_solve,
    fraction_sqrt,
    fraction_sqrt_bounds,
    independent_rows,
    lp_nonneg_solve,
    scalar_cmp,
)

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)


class TestScalarCmp:
    def test_equal(self):
        assert scalar_cmp(F(3, 2), F(3, 2)) is Ordering.EQUAL

    def test_less(self):
        assert scalar_cmp(F(1, 3), F(2, 5)) is Ordering.LESS

    def test_ieee_greater(self):
        # 0.1 + 0.2 rounds up in binary
        assert scalar_cmp(0.1 + 0.2, 0.3) is Ordering.GREATER

    def test_mixed_backend(self):
        with pytest.raises(MixedBackend):
            scalar_cmp(F(1), 1.0)


class TestApproxEq:
    def test_close(self):
        assert approx_eq(1.0, 1.0 + 1e-12)

    def test_far(self):
        assert not approx_eq(1.0, 1.1)

    def test_relative(self):
        assert approx_eq(1e6, 1e6 * (1 + 1e-10))

    def test_exact_backend_rejected(self):
        with pytest.raises(ExactBackend):
            approx_eq(F(1), F(1))

    def test_custom_context(self):
        assert approx_eq(1.0, 1.05, ToleranceContext(abs_tol=0.1, rel_tol=0.0))


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(rationals, rationals, rationals)
def test_order_compatibility(a, b, c):
    if a <= b:
        assert a + c <= b + c
    if a >= 0 and b >= 0:
        assert a * b >= 0


class TestVector:
    def test_arith(self):
        v = Vector([F(1), F(2)])
        w = Vector([F(3), F(-1)])
        assert (v + w).coords == (F(4), F(1))
        assert (v - w).coords == (F(-2), F(3))
        assert v.scale(F(2)).coords == (F(2), F(4))
        assert v.dot(w) == 1

    def test_mixed_coords_rejected(self):
        with pytest.raises(MixedBackend):
            Vector([F(1), 2.0])

    def test_mixed_vectors_rejected(self):
        with pytest.raises(MixedBackend):
            Vector([F(1)]) + Vector([1.0])


class TestSymMatrix:
    def test_asymmetric_rejected(self):
        with pytest.raises(Exception):
            SymMatrix([[F(1), F(2)], [F(3), F(4)]])

    def test_quad(self):
        m = SymMatrix([[F(1), F(0)], [F(0), F(-1)]])
        v = Vector([F(2), F(1)])
        assert m.quad(v, v) == 3


class TestExactLinearAlgebra:
    def test_rank(self):
        assert exact_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
        assert exact_rank([[F(1), F(0)], [F(0), F(1)]]) == 2

    def test_det(self):
        assert exact_det([[F(1), F(1), F(1)], [F(1), F(0), F(1)], [F(1), F(1), F(0)]]) == 1
        with pytest.raises(DimensionMismatch):
            exact_det([[F(1), F(2)]])

    def test_solve_and_inverse(self):
        a = [[F(2), F(1)], [F(1), F(3)]]
        x = exact_solve(a, [F(5), F(10)])
        assert [a[i][0] * x[0] + a[i][1] * x[1] for i in range(2)] == [F(5), F(10)]
        inv = exact_inverse(a)
        prod = [
            [sum(a[i][k] * inv[k][j] for k in range(2)) for j in range(2)] for i in range(2)
        ]
        assert prod == [[F(1), F(0)], [F(0), F(1)]]


class TestLP:
    def test_feasible(self):
        # x = 3/2*(1,1) + 1/2*(1,-1) = (2,1)
        sol = lp_nonneg_solve([[F(1), F(1)], [F(1), F(-1)]], [F(2), F(1)])
        assert sol is not None
        assert all(t >= 0 for t in sol)
        assert sol[0] + sol[1] == 2 and sol[0] - sol[1] == 1

    def test_infeasible(self):
        # cone of (1,1),(1,-1) does not contain (-1,0)
        sol = lp_nonneg_solve([[F(1), F(1)], [F(1), F(-1)]], [F(-1), F(0)])
        assert sol is None

    def test_boundary(self):
        sol = lp_nonneg_solve([[F(1), F(1)], [F(1), F(-1)]], [F(1), F(1)])
        assert sol == [F(1), F(0)]


small_rationals = st.one_of(
    st.just(F(0)), st.fractions(min_value=-8, max_value=8, max_denominator=6)
)


@st.composite
def rational_matrices(draw, square=False):
    """Matrices of dims 1-6; some rows are combinations of earlier rows."""
    m = draw(st.integers(1, 6))
    n = m if square else draw(st.integers(1, 6))
    rows = []
    for i in range(m):
        if i and draw(st.booleans()):
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            c, d = draw(small_rationals), draw(small_rationals)
            rows.append([c * x + d * y for x, y in zip(rows[j], rows[k])])
        else:
            rows.append(draw(st.lists(small_rationals, min_size=n, max_size=n)))
    return rows


def matmul(a, b):
    return [[sum(x * y for x, y in zip(r, col)) for col in zip(*b)] for r in a]


def transpose(a):
    return [list(c) for c in zip(*a)]


def identity(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


class TestEliminationProperties:
    @settings(max_examples=60, deadline=None)
    @given(rational_matrices(square=True), st.data())
    def test_solve(self, a, data):
        b = data.draw(st.lists(small_rationals, min_size=len(a), max_size=len(a)))
        x = exact_solve(a, b)
        assert (x is None) == (exact_det(a) == 0)
        if x is not None:
            assert matmul(a, transpose([x])) == transpose([b])

    @settings(max_examples=60, deadline=None)
    @given(rational_matrices(square=True))
    def test_inverse_det_rank_agree(self, a):
        n = len(a)
        inv = exact_inverse(a)
        det = exact_det(a)
        assert (det == 0) == (inv is None) == (exact_rank(a) < n)
        if inv is not None:
            assert matmul(a, inv) == identity(n)
            assert det * exact_det(inv) == 1

    @settings(max_examples=60, deadline=None)
    @given(rational_matrices())
    def test_rank_of_transpose(self, a):
        assert exact_rank(a) == exact_rank(transpose(a))

    @settings(max_examples=60, deadline=None)
    @given(rational_matrices())
    def test_null_space(self, a):
        n = len(a[0])
        null = exact_null_space(a, n)
        assert exact_rank(a) + len(null) == n
        for v in null:
            assert all(sum(x * y for x, y in zip(r, v)) == 0 for r in a)
        if null:
            assert exact_rank(null) == len(null)

    @settings(max_examples=60, deadline=None)
    @given(rational_matrices())
    def test_independent_rows(self, a):
        keep = independent_rows(a)
        rank = exact_rank(a)
        assert len(keep) == rank
        assert keep == sorted(set(keep))
        assert exact_rank([a[i] for i in keep]) == rank

    @settings(max_examples=60, deadline=None)
    @given(rational_matrices(), st.data())
    def test_lp(self, a, data):
        m, n = len(a), len(a[0])
        if data.draw(st.booleans()):
            # b in the cone of the columns: the LP must find some theta
            theta0 = data.draw(st.lists(st.integers(0, 3).map(F), min_size=n, max_size=n))
            b = [sum(x * y for x, y in zip(r, theta0)) for r in a]
            feasible = True
        else:
            b = data.draw(st.lists(small_rationals, min_size=m, max_size=m))
            feasible = None
        theta = lp_nonneg_solve(a, b)
        if feasible:
            assert theta is not None
        if theta is not None:
            assert all(t >= 0 for t in theta)
            assert [sum(x * y for x, y in zip(r, theta)) for r in a] == b


    @settings(max_examples=60, deadline=None)
    @given(rational_matrices(), st.data())
    def test_lp_phase2(self, a, data):
        n = len(a[0])
        theta0 = data.draw(st.lists(st.integers(0, 3).map(F), min_size=n, max_size=n))
        b = [sum(x * y for x, y in zip(r, theta0)) for r in a]
        c = data.draw(st.lists(st.integers(0, 4).map(F), min_size=n, max_size=n))
        theta = lp_nonneg_solve(a, b, c)
        assert all(t >= 0 for t in theta)
        assert [sum(x * y for x, y in zip(r, theta)) for r in a] == b
        # the minimum over all basic feasible solutions, by brute force
        keep = independent_rows(a)
        costs = []
        for cols in itertools.combinations(range(n), len(keep)):
            s = exact_solve([[a[i][j] for j in cols] for i in keep], [b[i] for i in keep])
            if s is not None and all(t >= 0 for t in s):
                costs.append(sum(c[j] * t for j, t in zip(cols, s)))
        assert sum(ci * t for ci, t in zip(c, theta)) == min(costs)

    @pytest.mark.parametrize(
        "a, b, c, want",
        [
            # row 2 = 2 row 1: phase 1 ends with row 2's artificial basic at
            # zero and no nonzero real column in its row, so the row is dropped
            ([[1, 1], [2, 2]], [1, 2], [2, 1], [0, 1]),
            # row 2's artificial stays basic at zero with a -1 in column 2,
            # where it is pivoted out
            ([[1, 1, 1], [0, -1, 0]], [1, 0], [2, 0, 1], [0, 0, 1]),
        ],
    )
    def test_lp_phase2_degenerate(self, a, b, c, want):
        a, b = [[F(x) for x in r] for r in a], [F(x) for x in b]
        assert lp_nonneg_solve(a, b, [F(x) for x in c]) == [F(x) for x in want]

    def test_lp_phase2_unbounded(self):
        # theta_1 = theta_2 can grow without bound, and so can -theta_1
        with pytest.raises(PreconditionFailed):
            lp_nonneg_solve([[F(1), F(-1)]], [F(0)], [F(-1), F(0)])


class TestFractionSqrt:
    def test_perfect_square(self):
        assert fraction_sqrt(F(9, 4)) == F(3, 2)

    def test_not_square(self):
        assert fraction_sqrt(F(2)) is None

    def test_bounds(self):
        lo, hi = fraction_sqrt_bounds(F(2))
        assert lo * lo <= 2 <= hi * hi
        assert float(hi - lo) < 1e-14
