import dataclasses
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conekit import properties
from conekit.cone import FutureCone, PCone, in_core
from conekit.errors import OutsideCone, PreconditionFailed, UnsupportedFamily
from conekit.hypnorm import (
    DiscreteLq,
    EqualityCollinearity,
    FormInduced,
    PHyperbolic,
    equality_is_collinear,
    norm_eval,
    norm_sq_eval,
    polar_inner,
    polarizability_residual,
    reverse_cs_residual,
    reverse_triangle_residual,
)
from conekit.lorentz import minkowski_form
from conekit.numerics import Vector
from conekit.properties import run_suite


def vec(*xs):
    return Vector([F(x) for x in xs])


H2 = PHyperbolic(2, 1)


class TestExponentAtLeastOne:
    """{x0 >= |x|_p} is closed under addition only for p >= 1; the checks
    that rely on it never meet another p."""

    @pytest.mark.parametrize("p", [F(1, 2), F(99, 100), 0, -1, math.nan])
    def test_below_one_rejected(self, p):
        with pytest.raises(UnsupportedFamily):
            PCone(p, 2)
        with pytest.raises(UnsupportedFamily):
            PHyperbolic(p, 2)

    @pytest.mark.parametrize("p", [1, F(3, 2), 2, 3.0, math.inf])
    def test_at_least_one_accepted(self, p):
        assert PHyperbolic(p, 2).p == PCone(p, 2).p == p


class TestNormEval:
    def test_p2(self):
        assert norm_eval(PHyperbolic(2, 2), vec(2, 1, 1)) == pytest.approx(math.sqrt(2))

    def test_axis(self):
        assert norm_eval(PHyperbolic(2, 2), vec(1, 0, 0)) == 1.0

    def test_discrete_lq(self):
        h = DiscreteLq(F(1, 2), [F(1), F(1)])
        assert norm_eval(h, vec(4, 9)) == pytest.approx(25.0)

    def test_outside(self):
        with pytest.raises(OutsideCone):
            norm_eval(H2, vec(1, 2))

    def test_p_inf_limit(self):
        # x0 inside the cone, 0 on its boundary; p = 100 is already close
        h = PHyperbolic(math.inf, 2)
        assert norm_eval(h, vec(3, 1, -2)) == 3.0
        assert norm_eval(h, vec(F(1, 2), F(1, 4), 0)) == 0.5
        assert norm_eval(h, vec(5, 5, -1)) == 0.0
        assert norm_eval(PHyperbolic(math.inf, 0), vec(7)) == 7.0
        assert norm_eval(PHyperbolic(100, 2), vec(3, 1, -2)) == pytest.approx(3.0)

    def test_non_integer_p_membership(self):
        h = PHyperbolic(F(3, 2), 2)
        # max |x_j| < x0 < sum |x_j|: membership needs the 3/2-th powers
        with pytest.raises(UnsupportedFamily):
            norm_eval(h, vec(3, 2, 2))
        with pytest.raises(UnsupportedFamily):
            reverse_triangle_residual(h, vec(3, 2, 2), vec(1, 0, 0))
        # one nonzero spatial coordinate, or x0 >= sum |x_j|, still evaluates
        assert norm_eval(h, vec(5, 0, 4)) == pytest.approx((5**1.5 - 4**1.5) ** (2 / 3))
        assert norm_eval(h, vec(3, 1, 1)) == pytest.approx((3**1.5 - 2) ** (2 / 3))

    def test_p_inf_interior_below_float_resolution(self):
        # x0 - x1 = 1e-20: both round to the same float, but x is interior
        h = PHyperbolic(math.inf, 1)
        x = Vector([F(1, 3) + F(1, 10**20), F(1, 3)])
        assert in_core(PCone(math.inf, 1), x)
        assert norm_eval(h, x) == 1 / 3
        assert norm_eval(h, vec(F(1, 3), F(1, 3))) == 0.0


    def test_float_overflow_is_a_conekit_error(self):
        # 10^4 ** 100 and 5 ** 1e300 are beyond the largest float
        with pytest.raises(PreconditionFailed, match="float range"):
            norm_eval(PHyperbolic(100, 2), vec(10**4, 1, 1))
        with pytest.raises(PreconditionFailed, match="float range"):
            polarizability_residual(PHyperbolic(1e300, 2), vec(5, 1, 1), vec(5, 1, 1))
        with pytest.raises(PreconditionFailed, match="float range"):
            norm_eval(PHyperbolic(math.inf, 1), vec(10**400, 1))
        # the largest powers below the range keep their float value
        assert norm_eval(PHyperbolic(100, 2), vec(1000, 1, 1)) == (1000.0**100.0 - 2.0) ** 0.01

class TestNormSqEval:
    def test_values(self):
        assert norm_sq_eval(H2, vec(2, 1)) == 3
        assert norm_sq_eval(H2, vec(1, 1)) == 0
        assert norm_sq_eval(H2, vec(5, 3)) == 16

    def test_unsupported(self):
        with pytest.raises(UnsupportedFamily):
            norm_sq_eval(PHyperbolic(3, 1), vec(2, 1))


class TestReverseTriangle:
    def test_example(self):
        r = reverse_triangle_residual(H2, vec(2, 1), vec(3, -1))
        assert r == pytest.approx(5 - math.sqrt(3) - math.sqrt(8), abs=1e-9)
        assert r > 0

    def test_homogeneity_equality(self):
        v = vec(3, 2)
        assert reverse_triangle_residual(H2, v, v) == pytest.approx(0.0, abs=1e-12)

    def test_discrete_lq(self):
        h = DiscreteLq(F(1, 2), [F(1), F(1)])
        assert reverse_triangle_residual(h, vec(4, 0), vec(0, 9)) == pytest.approx(12.0)


class TestPolarizability:
    def test_p2_exact_zero(self):
        assert polarizability_residual(H2, vec(2, 1), vec(3, -1)) == 0

    def test_p1_witness(self):
        assert polarizability_residual(PHyperbolic(1, 1), vec(1, 1), vec(1, -1)) == -4

    def test_p3_witness(self):
        r = polarizability_residual(PHyperbolic(3, 1), vec(1, 1), vec(1, -1))
        assert r == pytest.approx(26 ** (2 / 3) - 8, abs=1e-6)

    @pytest.mark.parametrize("x0", [10**200, 4.4e153], ids=["square", "sum"])
    def test_float_square_overflow_is_a_conekit_error(self, x0):
        # each norm is finite; at 10^200 its square is inf, at 4.4e153 the
        # squares are finite and their sums are inf: inf - inf would be nan
        h, v = PHyperbolic(F(3, 2), 1), vec(x0, 1)
        with pytest.raises(PreconditionFailed, match="float range"):
            polarizability_residual(h, v, v)
        # below the range the residual stays a finite float
        assert math.isfinite(polarizability_residual(h, vec(4.2e153, 0), vec(4.2e153, 0)))


class TestPolarInner:
    def test_example(self):
        assert polar_inner(H2, vec(2, 1), vec(3, -1)) == 7

    def test_t_with_itself(self):
        assert polar_inner(H2, vec(1, 0), vec(1, 0)) == 1

    def test_null_pair(self):
        assert polar_inner(H2, vec(1, 1), vec(1, -1)) == 2

    def test_symmetric_bilinear(self):
        u, v, w = vec(2, 1), vec(3, -1), vec(1, 0)
        assert polar_inner(H2, u, v) == polar_inner(H2, v, u)
        lhs = polar_inner(H2, u.scale(F(2)) + v.scale(F(3)), w)
        assert lhs == 2 * polar_inner(H2, u, w) + 3 * polar_inner(H2, v, w)

    def test_unsupported_exact(self):
        with pytest.raises(UnsupportedFamily):
            polar_inner(PHyperbolic(3, 1), vec(2, 1), vec(2, 0))


class TestReverseCS:
    def test_example(self):
        r = reverse_cs_residual(H2, vec(2, 1), vec(3, -1))
        assert r.residual == pytest.approx(7 - math.sqrt(24), abs=1e-9)
        assert r.inner == 7
        assert r.inner_sq_minus_prod == 49 - 24
        assert r.holds

    def test_self_pair(self):
        r = reverse_cs_residual(H2, vec(2, 1), vec(2, 1))
        assert r.inner_sq_minus_prod == 0 and r.holds

    def test_collinear_null(self):
        r = reverse_cs_residual(H2, vec(1, 1), vec(2, 2))
        assert r.inner == 0 and r.inner_sq_minus_prod == 0 and r.holds


class TestEqualityCollinear:
    def test_collinear(self):
        r = equality_is_collinear(H2, vec(2, 1), vec(4, 2))
        assert r.equality and r.collinear

    def test_generic(self):
        r = equality_is_collinear(H2, vec(2, 1), vec(3, -1))
        assert not r.equality and not r.collinear

    def test_zero(self):
        r = equality_is_collinear(H2, vec(0, 0), vec(3, 1))
        assert r.equality and r.collinear

    def test_p1_norm_is_additive_on_same_ray_only(self):
        h1 = PHyperbolic(1, 1)
        r = equality_is_collinear(h1, vec(2, 1), vec(4, 2))
        assert r.equality and r.collinear

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e8])
    def test_float_multiples_are_equal_and_collinear(self, scale):
        # floats enter at their binary value, so w = k v is an exact
        # nonneg multiple of v at every scale: equal and collinear; a
        # generic pair is neither
        h3 = PHyperbolic(3, 2)
        rng = random.Random(0)
        for _ in range(200):
            s = [rng.uniform(-1, 1) for _ in range(2)]
            x0 = sum(abs(c) ** 3 for c in s) ** (1 / 3) + rng.uniform(0.1, 2)
            v = Vector([scale * c for c in [x0] + s])
            w = v.scale(rng.uniform(0.1, 10))
            r = equality_is_collinear(h3, v, w)
            assert r.equality and r.collinear, (v, w)
        r = equality_is_collinear(h3, Vector([3 * scale, scale, 0.0]), Vector([3 * scale, -scale, 0.0]))
        assert not r.equality and not r.collinear

    @pytest.mark.parametrize(
        "h, v, w",
        [
            (PHyperbolic(3, 2), vec(3, 1, 0), Vector([3, 1, 1e-12])),
            (DiscreteLq(F(1, 2), [1, 2]), vec(1, 1), Vector([1, 1 + 1e-12])),
        ],
        ids=["p3", "lq"],
    )
    def test_near_collinear_pair_is_neither(self, h, v, w):
        # n(v + w) - n(v) - n(w) is about 1e-38 for p = 3, yet positive
        assert equality_is_collinear(h, v, w) == EqualityCollinearity(False, False)

    def test_p_inf_is_exact(self):
        # n = x0 is additive inside the cone: (2, 1) + (2, -1) = (4, 0),
        # 4 = 2 + 2, though the pair is not collinear; a null member adds
        # x0 to the sum's norm but 0 to the sum of norms
        h = PHyperbolic(math.inf, 1)
        assert equality_is_collinear(h, vec(2, 1), vec(2, -1)) == EqualityCollinearity(True, False)
        assert equality_is_collinear(h, vec(1, 1), vec(2, 0)) == EqualityCollinearity(False, False)
        # collinearity is exact too: a 1e-12 turn is not collinear
        w = Vector([1, F(1, 3) + F(1, 10**12)])
        assert equality_is_collinear(h, vec(1, F(1, 3)), w) == EqualityCollinearity(True, False)
        assert equality_is_collinear(h, vec(2, 2), vec(3, 3)) == EqualityCollinearity(True, True)


def _dec(x) -> Decimal:
    x = F(x)
    return Decimal(x.numerator) / Decimal(x.denominator)


def _ref_norm(h, x) -> Decimal:
    """n(x) of a member to the context's precision: the radicand exactly
    for an integer p, decimal powers otherwise."""
    if isinstance(h, DiscreteLq):
        q = _dec(h.q)
        acc = sum(_dec(m) * _dec(f) ** q for m, f in zip(h.weights, x.coords))
        return acc ** (1 / q)
    p, (x0, *ys) = F(h.p), x.coords
    if p.denominator == 1:
        r = _dec(x0**p - sum(abs(y) ** p for y in ys))
    else:
        r = _dec(x0) ** _dec(p) - sum(_dec(abs(y)) ** _dec(p) for y in ys)
    return max(r, Decimal(0)) ** (1 / _dec(p))


@st.composite
def _member_pairs(draw):
    """A norm of 1 < p < inf or DiscreteLq and two vectors for it.  A
    p-hyperbolic vector is null on one axis, inside (x0 >= sum |y_j|) or in
    the band max |y_j| <= x0 <= sum |y_j|, where it may be outside the cone
    or undecidable by the p-cone rule; the test skips those draws."""
    coord = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    if draw(st.booleans()):
        q = draw(st.sampled_from([F(1, 3), F(1, 2), F(9, 10)]))
        h = DiscreteLq(q, draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
        n = len(h.weights)
        return h, *(Vector([abs(c) for c in draw(st.lists(coord, min_size=n, max_size=n))]) for _ in range(2))
    h = PHyperbolic(draw(st.sampled_from([F(11, 10), F(3, 2), 3, 4, 7])), draw(st.integers(1, 3)))
    pair = []
    for _ in range(2):
        ys = draw(st.lists(coord, min_size=h.spatial_dim, max_size=h.spatial_dim))
        hi, lo = sum(abs(y) for y in ys), max(abs(y) for y in ys)
        kind = draw(st.sampled_from(["null", "interior", "band"]))
        if kind == "null":
            # x0 = |y_j| on one axis: on the boundary for every p
            j = draw(st.integers(0, h.spatial_dim - 1))
            ys = [y if i == j else F(0) for i, y in enumerate(ys)]
            x0 = abs(ys[j])
        elif kind == "interior":
            x0 = hi + draw(st.fractions(min_value=0, max_value=2, max_denominator=5))
        else:
            x0 = lo + (hi - lo) * draw(st.fractions(min_value=0, max_value=1, max_denominator=7))
        pair.append(Vector([x0] + ys))
    return h, *pair


class TestEqualityByStrictConvexity:
    """For 1 < p < inf and ``DiscreteLq`` the set {n >= 1} has no segment
    on its boundary, so n(v + w) > n(v) + n(w) on every member pair that
    is not nonneg-collinear; checked against a 120-digit decimal reference."""

    @settings(max_examples=300, deadline=None)
    @given(_member_pairs(), st.fractions(min_value=0, max_value=5, max_denominator=4))
    @example((PHyperbolic(3, 2), vec(3, 1, 0), Vector([3, 1, 1e-12])), F(1))
    @example((DiscreteLq(F(1, 2), [1, 2]), vec(1, 1), Vector([1, 1 + 1e-12])), F(1))
    def test_equality_iff_collinear(self, hvw, k):
        h, v, w = hvw
        try:
            ec = equality_is_collinear(h, v, w)
            # a nonneg multiple of a member is a member, equal and collinear
            assert equality_is_collinear(h, v, v.scale(k)) == EqualityCollinearity(True, True)
        except (UnsupportedFamily, OutsideCone):
            assume(False)
        with localcontext() as ctx:
            ctx.prec = 120
            gap = _ref_norm(h, v + w) - _ref_norm(h, v) - _ref_norm(h, w)
        if ec.collinear:
            assert ec.equality and abs(gap) < Decimal(10) ** -100
        else:
            assert not ec.equality and gap > 0, (h, v, w, gap)


class TestFormInduced:
    def test_matches_p2(self):
        form = minkowski_form(1)
        cone = FutureCone(form, vec(1, 0))
        h = FormInduced(cone)
        assert norm_sq_eval(h, vec(2, 1)) == 3
        assert polar_inner(h, vec(2, 1), vec(3, -1)) == 7


class TestHomogeneity:
    def test_scaling(self):
        v = vec(3, 2)
        assert norm_sq_eval(H2, v.scale(F(5))) == 25 * norm_sq_eval(H2, v)
        assert norm_eval(PHyperbolic(3, 1), Vector([3.0, 1.0])) == pytest.approx(
            3 * norm_eval(PHyperbolic(3, 1), Vector([1.0, 1 / 3])), rel=1e-9
        )


class TestReverseCsSuite:
    """The reverse_cs property suite reports each failure with its witness."""

    def test_equality_without_collinearity_fails(self, monkeypatch):
        monkeypatch.setattr(properties, "equality_is_collinear", lambda h, v, w: EqualityCollinearity(True, False))
        res = run_suite("reverse_cs", trials=5, seed=1)
        assert not res.passed and res.trials == 1
        assert res.witness["kind"] == "equality" and set(res.witness) == {"v", "w", "kind"}

    def test_reverse_cs_failure(self, monkeypatch):
        real = properties.reverse_cs_residual
        monkeypatch.setattr(properties, "reverse_cs_residual", lambda *a: dataclasses.replace(real(*a), holds=False))
        res = run_suite("reverse_cs", trials=5, seed=1)
        assert not res.passed and res.trials == 1 and set(res.witness) == {"v", "w"}
