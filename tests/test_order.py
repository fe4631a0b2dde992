from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conekit.cone import FutureCone, Polyhedral
from conekit.errors import PreconditionFailed
from conekit.lorentz import decompose, minkowski_frame, wick_inner
from conekit.numerics import Vector
from conekit.order import (
    OrderedSequence,
    completeness_certificate,
    is_bounded_above,
    is_nondecreasing,
    monotone_wick_check,
)


def vec(*xs):
    return Vector([F(x) for x in xs])


FRAME = minkowski_frame(1)
CONE = FutureCone(FRAME.form, FRAME.t)
T = vec(1, 0)


class TestIsNondecreasing:
    def test_geometric(self):
        s = OrderedSequence.geometric(CONE, FRAME, T, n=20)
        assert is_nondecreasing(s)

    def test_alternating(self):
        terms = [vec(0, 0) if k % 2 == 0 else T for k in range(6)]
        chk = is_nondecreasing(OrderedSequence(CONE, FRAME, terms))
        assert not chk and chk.fail_index == 1

    def test_constant(self):
        s = OrderedSequence(CONE, FRAME, [vec(2, 1)] * 5)
        assert is_nondecreasing(s)


class TestIsBoundedAbove:
    def test_geometric_bounded(self):
        s = OrderedSequence.geometric(CONE, FRAME, T, n=20)
        assert is_bounded_above(s, T)

    def test_affine_unbounded(self):
        s = OrderedSequence.affine(CONE, FRAME, vec(0, 0), T, n=20)
        chk = is_bounded_above(s, T.scale(F(10)))
        assert not chk and chk.fail_index == 11

    def test_empty_vacuous(self):
        s = OrderedSequence(CONE, FRAME, [])
        assert is_bounded_above(s, T)


class TestCompletenessCertificate:
    def test_geometric_to_t(self):
        s = OrderedSequence.geometric(CONE, FRAME, T, n=40)
        cert = completeness_certificate(s, T)
        assert cert.alpha_monotone and cert.cauchy_bound_ok
        assert cert.converged and cert.limit == T.scale(1 - F(1, 2**39))
        assert cert.max_residual < 1e-9

    def test_toward_null_vector(self):
        target = vec(1, 1)
        s = OrderedSequence.geometric(CONE, FRAME, target, n=40)
        cert = completeness_certificate(s, vec(2, 1))
        assert cert.converged
        assert cert.limit == target.scale(1 - F(1, 2**39))
        assert cert.alpha_monotone and cert.cauchy_bound_ok

    def test_unbounded_rejected(self):
        s = OrderedSequence.affine(CONE, FRAME, vec(0, 0), T, n=20)
        with pytest.raises(PreconditionFailed):
            completeness_certificate(s, T.scale(F(10)))

    def test_not_monotone_rejected(self):
        terms = [T, vec(0, 0)]
        with pytest.raises(PreconditionFailed):
            completeness_certificate(OrderedSequence(CONE, FRAME, terms), T)

    def test_short_prefix_not_converged(self):
        s = OrderedSequence.geometric(CONE, FRAME, T, n=10)
        cert = completeness_certificate(s, T)
        assert not cert.converged and cert.limit is None

    def test_cauchy_bound_fails_outside_the_light_cone(self):
        # (1, 2) is spacelike: along (1 - 2^-k)(1, 2), n(w_j - w_k) = 2 (alpha_j - alpha_k)
        cone = Polyhedral([vec(1, 2), vec(1, -2)])
        s = OrderedSequence.geometric(cone, FRAME, vec(1, 2), n=12)
        cert = completeness_certificate(s, vec(1, 2))
        assert cert.alpha_monotone and not cert.cauchy_bound_ok

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(1, 4), st.integers(-5, 5)), min_size=1, max_size=3),
        st.lists(st.tuples(st.integers(0, 2), st.fractions(0, 3, max_denominator=4)), max_size=8),
    )
    def test_cauchy_bound_matches_all_pairs(self, gens, steps):
        """Checking consecutive terms gives the all-pairs answer."""
        cone = Polyhedral([vec(a, b) for a, b in gens])
        terms = [vec(0, 0)]
        for k, lam in steps:
            terms.append(terms[-1] + cone.generators[k % len(gens)].scale(lam))
        y = terms[-1] + cone.generators[0]
        cert = completeness_certificate(OrderedSequence(cone, FRAME, terms), y)
        decs = [decompose(FRAME, v) for v in terms]
        all_pairs = all(
            decs[j].alpha >= decs[k].alpha
            and wick_inner(FRAME, decs[j].w - decs[k].w, decs[j].w - decs[k].w)
            <= (decs[j].alpha - decs[k].alpha) ** 2
            for k in range(len(decs))
            for j in range(k + 1, len(decs))
        )
        assert cert.cauchy_bound_ok == all_pairs


class TestMonotoneWick:
    def test_example(self):
        assert monotone_wick_check(FRAME, CONE, vec(1, 0), vec(3, 1))

    def test_equal(self):
        assert monotone_wick_check(FRAME, CONE, vec(2, 1), vec(2, 1))

    def test_zero_base(self):
        assert monotone_wick_check(FRAME, CONE, vec(0, 0), vec(5, 3))

    def test_precondition(self):
        with pytest.raises(PreconditionFailed):
            monotone_wick_check(FRAME, CONE, vec(3, 1), vec(1, 0))
