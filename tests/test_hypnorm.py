import math
import random
from fractions import Fraction as F

import pytest

from conekit.cone import FutureCone, PCone, in_core
from conekit.errors import OutsideCone, UnsupportedFamily
from conekit.hypnorm import (
    DiscreteLq,
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
    def test_float_family_uses_relative_rule(self, scale):
        # p = 3 is decided in floats: w = k v must read as equal and
        # collinear at every scale, a generic pair as neither
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
