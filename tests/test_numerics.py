import itertools
import math
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conekit import numerics as numerics_module
from conekit.cone import PCone, contains
from conekit.errors import DimensionMismatch, ExactBackend, PreconditionFailed
from conekit.numerics import (
    SymMatrix,
    Vector,
    _eliminate,
    _int_symmatrix,
    _integers,
    _int_vector,
    _pivot,
    approx_eq,
    as_scalar,
    exact_det,
    exact_inverse,
    exact_null_space,
    exact_rank,
    exact_solve,
    fraction_sqrt,
    fraction_sqrt_bounds,
    lp_nonneg_solve,
)

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)


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


class TestAsScalar:
    @pytest.mark.parametrize("s", ["1e10000000", "-1e-10000000", "1E+4301", "2.5e-4301", " 1e1_000_000 "])
    def test_huge_decimal_exponent_rejected_fast(self, s):
        # Fraction would expand 10**exponent in full: 11 s for 1e10000000
        t0 = time.perf_counter()
        with pytest.raises(PreconditionFailed):
            as_scalar(s)
        assert time.perf_counter() - t0 < 0.1

    def test_exponents_up_to_the_cap_stay_exact(self):
        cap = sys.get_int_max_str_digits()
        assert as_scalar(f"1e{cap}") == 10**cap
        assert as_scalar(f"-3e-{cap}") == F(-3, 10**cap)
        assert as_scalar("3/4") == F(3, 4)
        assert as_scalar("1.5E2") == 150

    def test_cap_of_zero_switches_the_limit_off(self, monkeypatch):
        # int and Fraction read a cap of 0 as no limit
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        assert as_scalar("1.5E2") == 150
        assert as_scalar("1e1") == 10
        assert as_scalar("2e-4301") == F(2, 10**4301)


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

    def test_float_coords_are_exact(self):
        assert Vector([F(1), 2.0]) == Vector([F(1), F(2)])
        assert Vector([0.1, 1.5]).coords == (F(0.1), F(3, 2))
        assert Vector([0.1]) != Vector([F(1, 10)])

    def test_float_vectors_add_exactly(self):
        assert Vector([F(1)]) + Vector([1.0]) == Vector([F(2)])
        assert Vector([0.1]) + Vector([0.2]) == Vector([F(0.1) + F(0.2)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coords_rejected(self, bad):
        with pytest.raises(PreconditionFailed):
            Vector([1.0, bad])
        with pytest.raises(PreconditionFailed):
            contains(PCone(2, 1), Vector([bad, 0.0]))
        with pytest.raises(PreconditionFailed):
            SymMatrix([[bad, 0.0], [0.0, 1.0]])

    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(min_value=-1e-300, max_value=1e-300, allow_subnormal=True),
                st.sampled_from([0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_floats_round_trip(self, fs):
        # a float enters at its binary value and reads back bit for bit
        v = Vector(fs)
        assert [f.hex() for f in v.as_floats()] == [(f + 0.0).hex() for f in fs]
        assert v == Vector([F(f) for f in fs])


def assert_normal(v: Vector):
    """v's integers are in lowest terms and equal its coords."""
    assert v._den > 0 and math.gcd(v._den, *v._nums) == 1
    assert tuple(F(a, v._den) for a in v._nums) == v.coords


class TestIntegerVector:
    """Exact vectors are integers over one denominator; every result must
    equal Fraction arithmetic on the coordinates, in lowest terms."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_ops_match_fraction_arithmetic(self, data):
        n = data.draw(st.integers(1, 6))
        xs, ys = (data.draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(2))
        lam = data.draw(entries)
        u, v = Vector(xs), Vector(ys)
        cases = [
            (u + v, [a + b for a, b in zip(xs, ys)]),
            (u - v, [a - b for a, b in zip(xs, ys)]),
            (u - u, [F(0)] * n),
            (-u, [-a for a in xs]),
            (u.scale(lam), [lam * a for a in xs]),
            (u.scale(0), [F(0)] * n),
            ((u + v).scale(lam) - v, [lam * (a + b) - b for a, b in zip(xs, ys)]),
        ]
        for got, want in cases:
            # read the integers before coords: coords are built from them
            assert_normal(got)
            assert got.coords == tuple(want)
            assert got.is_zero() == all(c == 0 for c in want)
            assert got.as_floats() == tuple(float(c) for c in want)
            same = Vector(want)
            assert got == same and same == got and hash(got) == hash(same)
            assert (got._nums, got._den) == (same._nums, same._den)
        m = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = data.draw(entries)
        w, z = u + v, u.scale(lam)
        want = sum(m[i][j] * (xs[i] + ys[i]) * lam * xs[j] for i in range(n) for j in range(n))
        assert SymMatrix(m).quad(w, z) == want

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_construction_paths_agree(self, data):
        n = data.draw(st.integers(1, 6))
        xs = data.draw(st.lists(entries, min_size=n, max_size=n))
        k = data.draw(st.integers(1, 10**6))
        v = Vector(xs)
        assert_normal(v)
        den = math.lcm(*(x.denominator for x in xs))
        # the same vector from unreduced integers, and rebuilt by arithmetic
        paths = [
            _int_vector([k * x.numerator * (den // x.denominator) for x in xs], k * den),
            -(-v),
            v + Vector.zero(n),
            v.scale(k).scale(F(1, k)),
        ]
        for w in paths:
            assert_normal(w)
            assert w == v and v == w and hash(w) == hash(v)
            assert w != v + Vector.unit(n, 0)
        # the coordinates rounded to floats give v back iff each is a binary value
        assert (v == Vector([float(x) for x in xs])) == all(F(float(x)) == x for x in xs)

    def test_float_scale_is_exact(self):
        assert Vector([F(1), F(2)]).scale(0.5) == Vector([F(1, 2), F(1)])
        assert Vector([F(3)]).scale(0.1) == Vector([3 * F(0.1)])

    def test_hash_builds_no_coords(self):
        v = Vector([1, 2]) + Vector([1, 1])
        hash(v)
        # the slot itself, without the __getattr__ fallback that fills it
        with pytest.raises(AttributeError):
            Vector.coords.__get__(v)
        assert hash(v) == hash(Vector([2, 3]))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_zero_and_unit_on_integers(self, n):
        for got, want in [(Vector.zero(n), Vector([0] * n))] + [
            (Vector.unit(n, i), Vector([int(j == i) for j in range(n)])) for i in range(n)
        ]:
            # built on integers: no Fraction coordinates until read
            with pytest.raises(AttributeError):
                Vector.coords.__get__(got)
            assert_normal(got)
            assert got == want and hash(got) == hash(want) and got.dim == n
            assert got.coords == want.coords

    @pytest.mark.parametrize("n", [0, -1])
    def test_zero_and_unit_need_positive_dim(self, n):
        for make in (lambda: Vector.zero(n), lambda: Vector.unit(n, 0)):
            with pytest.raises(DimensionMismatch):
                make()

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_equal_vectors_hash_equal(self, data):
        n = data.draw(st.integers(1, 6))
        xs = data.draw(st.lists(entries, min_size=n, max_size=n))
        k = data.draw(st.integers(1, 10**6))
        den = math.lcm(*(x.denominator for x in xs))
        nums = [x.numerator * (den // x.denominator) for x in xs]
        # each vector is hashed before its coords or integers are read
        paths = [
            lambda: Vector(xs),
            lambda: Vector([str(x) for x in xs]),
            lambda: Vector([x.numerator if x.denominator == 1 else float(x) if F(float(x)) == x else x for x in xs]),
            lambda: _int_vector([k * a for a in nums], k * den),
            lambda: -(-Vector(xs)),
            lambda: Vector(xs) + Vector.zero(n),
            lambda: Vector(xs).scale(k).scale(F(1, k)),
            lambda: (Vector(xs) + Vector.unit(n, 0)) - Vector.unit(n, 0),
        ]
        want = hash(Vector(xs))
        for make in paths:
            w = make()
            assert hash(w) == want
            assert w == Vector(xs)


def _rows_built(m: SymMatrix) -> bool:
    # the slot itself, without the __getattr__ fallback that fills it
    try:
        object.__getattribute__(m, "rows")
    except AttributeError:
        return False
    return True


class TestSymMatrix:
    def test_asymmetric_rejected(self):
        with pytest.raises(Exception):
            SymMatrix([[F(1), F(2)], [F(3), F(4)]])

    def test_quad(self):
        m = SymMatrix([[F(1), F(0)], [F(0), F(-1)]])
        v = Vector([F(2), F(1)])
        assert m.quad(v, v) == 3

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatch):
            SymMatrix([])

    @pytest.mark.parametrize("ints", [[], [[1, 2]], [[1, 2], [3]], [[1, 2], [3, 4]]])
    def test_int_constructor_checks_shape_and_symmetry(self, ints):
        with pytest.raises(DimensionMismatch):
            _int_symmatrix(ints, 1)

    def test_zero_matrices_of_different_size_differ(self):
        assert _int_symmatrix([[0]], 3) != _int_symmatrix([[0, 0], [0, 0]], 1)
        assert SymMatrix([[0]]) == _int_symmatrix([[0]], 7)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_construction_paths_agree(self, data):
        n = data.draw(st.integers(1, 6))
        m = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = data.draw(entries)
        k = data.draw(st.integers(1, 10**6))
        den = math.lcm(*(x.denominator for r in m for x in r))
        # the same matrix from Fractions, from unreduced integers, and from
        # mixed ints, Fractions, floats and strings where they are exact
        mixed = [[x.numerator if x.denominator == 1 else float(x) if F(float(x)) == x else str(x) for x in r] for r in m]
        ints = _int_symmatrix([[k * x.numerator * (den // x.denominator) for x in r] for r in m], k * den)
        paths = [SymMatrix(m), ints, SymMatrix(mixed), SymMatrix([[str(x) for x in r] for r in m])]
        for got in paths:
            assert got == paths[0] and hash(got) == hash(paths[0])
            assert got.rows == tuple(map(tuple, m))
        assert (ints._nz, ints._den) == (paths[0]._nz, paths[0]._den)
        assert math.gcd(ints._den, *(x for _, _, x in ints._nz)) == 1
        u = data.draw(st.lists(entries, min_size=n, max_size=n))
        assert ints.quad(Vector(u), Vector(u)) == paths[0].quad(Vector(u), Vector(u))
        if any(x for r in m for x in r):
            i, j, _ = paths[0]._nz[0]
            m[i][j] += 1
            m[j][i] = m[i][j]
            assert SymMatrix(m) != paths[0]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_quad_property(self, data):
        n = data.draw(st.integers(1, 6))
        m = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = data.draw(entries)
        u = data.draw(st.lists(entries, min_size=n, max_size=n))
        v = data.draw(st.one_of(st.just(u), st.lists(entries, min_size=n, max_size=n)))
        q = SymMatrix(m).quad(Vector(u), Vector(v))
        assert isinstance(q, F)
        assert q == sum(m[i][j] * u[i] * v[j] for i in range(n) for j in range(n))
        # float entries are taken at their binary values
        mf, uf, vf = [[float(x) for x in r] for r in m], [float(x) for x in u], [float(x) for x in v]
        want = sum(F(mf[i][j]) * F(uf[i]) * F(vf[j]) for i in range(n) for j in range(n))
        assert SymMatrix(mf).quad(Vector(uf), Vector(vf)) == want

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_rows_built_on_first_read(self, data):
        n = data.draw(st.integers(1, 6))
        small = st.integers(-(10**6), 10**6)
        ints = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                ints[i][j] = ints[j][i] = data.draw(small)
        den = data.draw(st.integers(1, 10**6))
        m = _int_symmatrix(ints, den)
        assert not _rows_built(m)
        want = SymMatrix([[F(x, den) for x in r] for r in ints])
        u = Vector(data.draw(st.lists(entries, min_size=n, max_size=n)))
        v = Vector(data.draw(st.lists(entries, min_size=n, max_size=n)))
        # none of these reads rows
        assert m.dim == n and m == want and hash(m) == hash(want)
        assert m.apply(u) == want.apply(u) and m.quad(u, v) == want.quad(u, v)
        assert m._int_quad(u, v) == want._int_quad(u, v)
        assert m.as_floats() == tuple(tuple(float(x) for x in r) for r in want.rows)
        assert not _rows_built(m)
        # repr reads them, and builds them once
        assert repr(m) == repr(want) and _rows_built(m)
        assert m.rows == want.rows


class TestIntQuad:
    """``_int_quad`` is u^T M v times the positive product of the three
    denominators: it has the sign of ``quad``, and ``quad`` is it over them."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_sign_and_value_of_quad(self, data):
        n = data.draw(st.integers(1, 6))
        m = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = data.draw(entries)
        vectors = st.lists(entries, min_size=n, max_size=n)
        u = data.draw(st.one_of(st.just([F(0)] * n), vectors))
        if u[0] and data.draw(st.booleans()):
            # make u null for m: solve u^T m u = 0 for m[0][0]
            rest = sum(m[i][j] * u[i] * u[j] for i in range(n) for j in range(n) if i or j)
            m[0][0] = -rest / (u[0] * u[0])
        v = data.draw(st.one_of(st.just(u), st.just([F(0)] * n), vectors))
        mat, uu, vv = SymMatrix(m), Vector(u), Vector(v)
        want = sum(m[i][j] * u[i] * v[j] for i in range(n) for j in range(n))
        got = mat._int_quad(uu, vv)
        assert type(got) is int
        assert (got > 0) - (got < 0) == (want > 0) - (want < 0)
        assert mat.quad(uu, vv) == F(got, mat._den * uu._den * vv._den) == want

    def test_null_and_zero(self):
        mink = SymMatrix([[1, 0], [0, -1]])
        null, zero = Vector([F(3, 2), F(-3, 2)]), Vector.zero(2)
        assert mink._int_quad(null, null) == 0 and mink.quad(null, null) == 0
        assert mink._int_quad(null, zero) == 0 and mink._int_quad(zero, zero) == 0
        assert mink._int_quad(null, Vector([1, 1])) > 0

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            SymMatrix([[1, 0], [0, -1]])._int_quad(Vector([1, 0]), Vector([1, 0, 0]))


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

    def test_empty_system(self):
        assert lp_nonneg_solve([], []) == []
        assert lp_nonneg_solve([], [], []) == []

    def test_crash_column_leaves_and_reenters(self, monkeypatch):
        """Column 1 = (1, 0) starts basic in row 0; column 0 enters there
        (a ratio tie broken on the basis index 1 < 3), and column 1 comes
        back in row 1, in place of its artificial."""
        exchanges = []
        real = numerics_module._exchange

        def spy(tab, basis, var, r, s, d, n):
            exchanges.append((basis[r], var[s]))
            return real(tab, basis, var, r, s, d, n)

        monkeypatch.setattr(numerics_module, "_exchange", spy)
        a, b, c = [[1, 1], [1, 0]], [2, 2], [1, 2]
        assert lp_nonneg_solve(a, b, c) == [F(2), F(0)] == _full_tableau_lp(a, b, c)
        # (leaving, entering): the crash column leaves, then the artificial of row 1
        assert exchanges == [(1, 0), (3, 1)]

    def test_pivot_exchanges_the_pivot_column(self):
        """After the pivot, column col holds the leaving column: d at row r
        and minus the old entries elsewhere; the rest is the Bareiss update."""
        a = [[2, 1, 4], [3, 5, 1], [0, 2, 7]]
        assert _pivot(a, 0, 0, 1) == 2
        assert a == [[1, 1, 4], [-3, 7, -10], [0, 4, 14]]


small_rationals = st.one_of(
    st.just(F(0)), st.fractions(min_value=-8, max_value=8, max_denominator=6)
)
# exact values of doubles: 53-bit numerators over denominators up to 2^60
binary_floats = st.builds(lambda k, e: F(k, 2**e), st.integers(-(2**53), 2**53), st.integers(0, 60))
entries = st.one_of(small_rationals, binary_floats)
# rows of very different scale
row_scales = st.sampled_from([1, 1, 1, F(1, 2**40), 2**40, F(1, 10**9), 10**12])


@st.composite
def rational_matrices(draw, square=False):
    """Matrices of dims 1-6; some rows are combinations of earlier rows.

    Entries are small rationals or the binary values of doubles, and rows
    are scaled by factors from 10^-9 to 10^12.
    """
    m = draw(st.integers(1, 6))
    n = m if square else draw(st.integers(1, 6))
    rows = []
    for i in range(m):
        if i and draw(st.booleans()):
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            c, d = draw(small_rationals), draw(small_rationals)
            rows.append([c * x + d * y for x, y in zip(rows[j], rows[k])])
        else:
            scale = draw(row_scales)
            rows.append([scale * x for x in draw(st.lists(entries, min_size=n, max_size=n))])
    return rows


def independent_rows(rows):
    """Indices of the first maximal linearly independent subset of the rows:
    the pivot columns of the transpose."""
    return _eliminate([list(c) for c in zip(*rows)])[1]


def matmul(a, b):
    return [[sum(x * y for x, y in zip(r, col)) for col in zip(*b)] for r in a]


def transpose(a):
    return [list(c) for c in zip(*a)]


def identity(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def _integers_by_lcm(xs):
    """``_integers`` without its all-int fast path: every entry through the lcm."""
    xs = [x if isinstance(x, (int, F)) else F(x) for x in xs]
    k = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (k // x.denominator) for x in xs], k


class TestIntegers:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-(10**30), 10**30), max_size=8))
    def test_all_int_matches_lcm_path(self, xs):
        got = _integers(xs)
        assert got == _integers_by_lcm(xs) == (xs, 1)
        assert all(type(v) is int for v in got[0])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.booleans(),
                st.integers(-100, 100),
                rationals,
                st.floats(allow_nan=False, allow_infinity=False, width=32),
            ),
            max_size=8,
        )
    )
    def test_bool_and_mixed_unchanged(self, xs):
        got = _integers(xs)
        assert got == _integers_by_lcm(xs)
        assert all(type(v) is int for v in got[0])

    def test_bools_become_ints(self):
        assert _integers([True, False, 3]) == ([1, 0, 3], 1)
        assert [type(v) for v in _integers([True, False])[0]] == [int, int]


def _positive_singleton(col):
    nz = [x for x in col if x]
    return len(nz) == 1 and nz[0] > 0


def _least_basic_cost(a, b, c):
    """The least c . theta over the basic feasible solutions of a theta = b, by brute force."""
    keep = independent_rows(a)
    costs = []
    for cols in itertools.combinations(range(len(a[0])), len(keep)):
        s = exact_solve([[a[i][j] for j in cols] for i in keep], [b[i] for i in keep])
        if s is not None and all(t >= 0 for t in s):
            costs.append(sum(c[j] * t for j, t in zip(cols, s)))
    return min(costs)


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
    @given(st.one_of(rational_matrices(), rational_matrices(square=True)))
    def test_forward_matches_gauss_jordan(self, a):
        """exact_rank and exact_det eliminate forward only; their rank and
        determinant are those of the Gauss-Jordan _eliminate, on every shape
        and rank."""
        _, pivots, _, det = _eliminate(a)
        assert exact_rank(a) == len(pivots)
        if len(a) == len(a[0]):
            assert exact_det(a) == det

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
            b = data.draw(st.lists(entries, min_size=m, max_size=m))
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

    @settings(max_examples=60, deadline=None)
    @given(rational_matrices(), st.data())
    def test_lp_column_scaling_keeps_pivots(self, a, data):
        """Scaling column j and its cost by s_j > 0 changes no pivot, so the
        solution is theta_j / s_j: the same A theta, as extension relies on."""
        n = len(a[0])
        theta0 = data.draw(st.lists(st.integers(0, 3).map(F), min_size=n, max_size=n))
        b = [sum(x * y for x, y in zip(r, theta0)) for r in a]
        c = data.draw(st.one_of(st.none(), st.lists(st.integers(0, 4).map(F), min_size=n, max_size=n)))
        s = data.draw(st.lists(st.one_of(st.integers(1, 10**6).map(F), small_rationals.filter(lambda x: x > 0)), min_size=n, max_size=n))
        scaled = [[x * k for x, k in zip(r, s)] for r in a]
        theta = lp_nonneg_solve(a, b, c)
        got = lp_nonneg_solve(scaled, b, None if c is None else [x * k for x, k in zip(c, s)])
        assert got == [t / k for t, k in zip(theta, s)]

    @settings(max_examples=60, deadline=None)
    @given(rational_matrices(), st.data())
    def test_lp_identity_block_starts_basic(self, a, data):
        """[B | I] theta = b with b >= 0: the crash basis takes the identity
        columns, which are already feasible, so theta = (0, b) with no pivot.
        A positive singleton column of B would be taken first, so those are
        negated."""
        m = len(a)
        cols = [[-x for x in col] if _positive_singleton(col) else list(col) for col in zip(*a)]
        a = [list(r) + [F(int(i == k)) for k in range(m)] for i, r in enumerate(zip(*cols))]
        b = [abs(x) for x in data.draw(st.lists(entries, min_size=m, max_size=m))]
        assert lp_nonneg_solve(a, b) == [F(0)] * len(cols) + b

    @settings(max_examples=60, deadline=None)
    @given(rational_matrices(), st.data())
    def test_lp_phase2_with_unit_columns(self, a, data):
        """Positive multiples of unit columns, inserted anywhere, start basic
        in their rows when b_i > 0 (and not when b_i < 0 negates the row):
        the optimum is still the least cost over basic feasible solutions."""
        m = len(a)
        cols = [list(col) for col in zip(*a)]
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.integers(0, m - 1))
            s = data.draw(st.fractions(min_value=F(1, 6), max_value=8, max_denominator=6))
            cols.insert(data.draw(st.integers(0, len(cols))), [s * int(k == i) for k in range(m)])
        a, n = [list(r) for r in zip(*cols)], len(cols)
        theta0 = data.draw(st.lists(st.integers(0, 3).map(F), min_size=n, max_size=n))
        b = [sum(x * y for x, y in zip(r, theta0)) for r in a]
        c = data.draw(st.lists(st.integers(0, 4).map(F), min_size=n, max_size=n))
        theta = lp_nonneg_solve(a, b, c)
        assert all(t >= 0 for t in theta)
        assert [sum(x * y for x, y in zip(r, theta)) for r in a] == b
        assert sum(ci * t for ci, t in zip(c, theta)) == _least_basic_cost(a, b, c)

    @pytest.mark.parametrize(
        "a, b, c, want",
        [
            # row 2 = 2 row 1: phase 1 ends with row 2's artificial basic at
            # zero and no nonzero real column in its row, so the row is dropped
            ([[1, 1], [2, 2]], [1, 2], [2, 1], [0, 1]),
            # row 2's artificial stays basic at zero with a -1 in column 2,
            # where it is pivoted out
            ([[1, 1, 1], [0, -1, 0]], [1, 0], [2, 0, 1], [0, 0, 1]),
            # phase 1 pivots on 4 (the row is negated so that b >= 0), so
            # phase 2 starts on an integer tableau scaled by 4 and must
            # price its costs to match
            ([[-4, -2]], [-14], [3, 1], [0, 7]),
            # every row is 0 = 0 and stays on its artificial: phase 2 drops
            # them all and prices an empty tableau
            ([[0]], [0], [0], [0]),
            ([[0, 0], [0, 0]], [0, 0], [1, 0], [0, 0]),
        ],
    )
    def test_lp_phase2_degenerate(self, a, b, c, want):
        a, b = [[F(x) for x in r] for r in a], [F(x) for x in b]
        assert lp_nonneg_solve(a, b, [F(x) for x in c]) == [F(x) for x in want]

    def test_lp_phase2_unbounded(self):
        # theta_1 = theta_2 can grow without bound, and so can -theta_1
        with pytest.raises(PreconditionFailed):
            lp_nonneg_solve([[F(1), F(-1)]], [F(0)], [F(-1), F(0)])


def _gauss_jordan_pivot(a, r, col, d):
    """The Bareiss pivot on a full tableau: column col becomes d' times a unit column."""
    p = a[r][col]
    for i, row in enumerate(a):
        if i != r:
            f = row[col]
            row[:] = [(p * x - f * y) // d for x, y in zip(row, a[r])]
    return p


def _full_tableau_bland(tab, basis, n, d):
    """Bland's rule on a full tableau: every real column stored, the objective row last."""
    m = len(tab) - 1
    while True:
        enter = next((j for j in range(n) if tab[m][j] > 0), None)
        if enter is None:
            return d
        leave = None
        for i in range(m):
            t = tab[i][enter]
            if t > 0:
                if leave is None:
                    leave = i
                    continue
                lhs, rhs = tab[i][n] * tab[leave][enter], tab[leave][n] * t
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            return None
        d = _gauss_jordan_pivot(tab, leave, enter, d)
        basis[leave] = enter


def _full_tableau_lp(A, b, c=None):
    """lp_nonneg_solve on a full tableau [A | b]: each crash column pivoted
    in one at a time, every basic column stored as d times a unit column."""
    m = len(A)
    n = len(A[0]) if m else 0
    flat, la = _integers([x for row in A for x in row])
    rhs, lb = _integers(b)
    tab = []
    for i in range(m):
        r = flat[i * n : (i + 1) * n] + [rhs[i]]
        tab.append([-x for x in r] if r[n] < 0 else r)
    basis = list(range(n, n + m))
    d = 1
    for j in range(n):
        col = [r[j] for r in tab]
        if col.count(0) == m - 1:
            i = next(i for i, x in enumerate(col) if x)
            if col[i] > 0 and basis[i] >= n:
                d = _gauss_jordan_pivot(tab, i, j, d)
                basis[i] = j
    art = [r for r, k in zip(tab, basis) if k >= n]
    tab.append([sum(col) for col in zip(*art)] if art else [0] * (n + 1))
    d = _full_tableau_bland(tab, basis, n, d)
    if tab[m][n] != 0:
        return None
    if c is not None:
        tab.pop()
        for i in reversed(range(m)):
            if basis[i] < n:
                continue
            col = next((j for j in range(n) if tab[i][j]), None)
            if col is None:
                del tab[i], basis[i]
                continue
            if tab[i][col] < 0:
                tab[i] = [-x for x in tab[i]]
            d = _gauss_jordan_pivot(tab, i, col, d)
            basis[i] = col
        cost, _ = _integers(c)
        tab.append(
            [sum(cost[k] * r[j] for k, r in zip(basis, tab)) - d * cost[j] for j in range(n)]
            + [sum(cost[k] * r[n] for k, r in zip(basis, tab))]
        )
        d = _full_tableau_bland(tab, basis, n, d)
        if d is None:
            raise PreconditionFailed("unbounded")
    theta = [F(0)] * n
    for i, k in enumerate(basis):
        if k < n:
            theta[k] = F(tab[i][n] * la, d * lb)
    return theta


@st.composite
def lp_systems(draw):
    """(A, b, c) for lp_nonneg_solve: a rational matrix with zero and
    duplicate rows inserted, then an identity block, a block of scaled unit
    columns of either sign (slacks, positive ones crash columns) or
    nothing appended; b in the cone of the columns or drawn freely (often
    negative); c None, nonnegative, or of any sign (possibly unbounded)."""
    a = [list(r) for r in draw(rational_matrices())]
    n = len(a[0])
    for _ in range(draw(st.integers(0, 2))):
        row = [F(0)] * n if draw(st.booleans()) else list(draw(st.sampled_from(a)))
        a.insert(draw(st.integers(0, len(a))), row)
    m = len(a)
    block = draw(st.sampled_from(["none", "identity", "slack"]))
    if block == "identity":
        a = [r + [F(int(i == k)) for k in range(m)] for i, r in enumerate(a)]
    elif block == "slack":
        for _ in range(draw(st.integers(1, m + 1))):
            i = draw(st.integers(0, m - 1))
            s = draw(st.fractions(min_value=-3, max_value=8, max_denominator=6).filter(bool))
            for k, r in enumerate(a):
                r.append(s * int(k == i))
    n = len(a[0])
    if draw(st.booleans()):
        theta0 = draw(st.lists(st.integers(0, 3).map(F), min_size=n, max_size=n))
        b = [sum(x * y for x, y in zip(r, theta0)) for r in a]
    else:
        b = draw(st.lists(small_rationals, min_size=m, max_size=m))
    c = draw(
        st.one_of(
            st.none(),
            st.lists(st.integers(0, 4).map(F), min_size=n, max_size=n),
            st.lists(small_rationals, min_size=n, max_size=n),
        )
    )
    return a, b, c


def _lp_outcome(solve, a, b, c):
    try:
        return solve(a, b, c)
    except PreconditionFailed:
        return "unbounded"


class TestCondensedTableau:
    @settings(max_examples=80, deadline=None)
    @given(lp_systems())
    def test_matches_full_tableau(self, system):
        """The condensed tableau makes the full tableau's pivots: the same
        theta, the same None, the same unbounded objective."""
        assert _lp_outcome(lp_nonneg_solve, *system) == _lp_outcome(_full_tableau_lp, *system)

    @pytest.mark.parametrize(
        "a, b, c, want",
        [
            # a ratio tie between rows 0 or 1, on their artificials, and row
            # 2, on crash column 3: it breaks on the basis index, not the row
            ([[-1, -1, 2, 0, 0, 0], [0, -2, 0, 0, 0, 0], [1, -2, 0, 2, -1, 1]], [-2, -1, 2], None, ["3", "1/2", "3/4", 0, 0, 0]),
            # crash column 0 leaves and takes the entering column's slot,
            # ahead of smaller variables: Bland's rule reads the variable,
            # not the slot
            ([[2, 1, 2, 1, -1], [0, 0, -1, 1, 2]], [2, 2], [0, 0, 2, 2, 3], ["3/2", 0, 0, 0, 1]),
        ],
    )
    def test_pivot_order(self, a, b, c, want):
        assert lp_nonneg_solve(a, b, c) == [F(x) for x in want] == _full_tableau_lp(a, b, c)


class TestFractionSqrt:
    def test_perfect_square(self):
        assert fraction_sqrt(F(9, 4)) == F(3, 2)

    def test_not_square(self):
        assert fraction_sqrt(F(2)) is None

    def test_bounds(self):
        lo, hi = fraction_sqrt_bounds(F(2))
        assert lo * lo <= 2 <= hi * hi
        assert float(hi - lo) < 1e-14
