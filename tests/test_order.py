import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conekit.order as order_module
from conekit.cone import FutureCone, Orthant, PCone, Polyhedral, contains, leq
from conekit.errors import PreconditionFailed
from conekit.lorentz import decompose, minkowski_frame, wick_inner
from conekit.numerics import Vector
from conekit.order import (
    CompletenessCertificate,
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

    @pytest.mark.parametrize(
        "gap, converged",
        [
            (F(order_module.LIMIT_RESIDUAL) - F(1, 10**40), True),
            (F(order_module.LIMIT_RESIDUAL) * (1 - F(1, 2**40)), True),
            (F(order_module.LIMIT_RESIDUAL), False),
            (F(order_module.LIMIT_RESIDUAL) + F(1, 10**40), False),
        ],
        ids=["below-by-1e-40", "below-by-2^-40", "equal", "above-by-1e-40"],
    )
    def test_limit_residual_is_exact(self, gap, converged):
        # the last step's Wick norm is gap exactly: W = I for the Minkowski frame
        s = OrderedSequence(CONE, FRAME, [vec(0, 0), vec(gap, 0)])
        cert = completeness_certificate(s, vec(1, 0))
        assert cert.converged is converged
        assert cert.limit == (vec(gap, 0) if converged else None)

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


def _ref_certificate_checks(s, y):
    """The certificate's preconditions as checked term by term: every step,
    every term's bound, then emptiness."""
    if not is_nondecreasing(s):
        raise PreconditionFailed("sequence is not nondecreasing")
    if not is_bounded_above(s, y):
        raise PreconditionFailed("sequence is not bounded above by y")
    if not s.terms:
        raise PreconditionFailed("empty sequence")


def _ref_monotone_wick_check(frame, cone, x, y):
    if not (contains(cone, x) and contains(cone, y) and leq(x, y, cone)):
        raise PreconditionFailed("need x, y in F with x <= y")
    return wick_inner(frame, x, x) <= wick_inner(frame, y, y)


def _outcome(fn, *args):
    """fn's value, or the message of the PreconditionFailed it raised."""
    try:
        return fn(*args)
    except PreconditionFailed as e:
        return str(e)


CONES = [CONE, Polyhedral([vec(1, 2), vec(1, -1)]), PCone(1, 1), PCone(math.inf, 1), Orthant(2)]
# members and non-members of every cone in CONES
POINTS = [vec(*x) for x in [(0, 0), (1, 0), (1, 1), (1, -1), (2, 1), (1, 2), (0, 1), (-1, 0), (1, -2)]]


class TestConvexityChecks:
    """One ``leq`` on the last term, and no check of y of its own, give what
    checking every term and y did: the cones are convex."""

    def _assert_certificate_matches(self, cone, terms, y):
        s = OrderedSequence(cone, FRAME, terms)
        want = _outcome(_ref_certificate_checks, s, y)
        got = _outcome(completeness_certificate, s, y)
        if want is None:
            assert isinstance(got, CompletenessCertificate)
        else:
            assert got == want

    @pytest.mark.parametrize(
        "terms, y",
        [
            ([T, vec(0, 0)], T),  # a decreasing step
            ([vec(0, 0), T, T.scale(3)], T.scale(2)),  # a term above y
            ([vec(-2, 0), vec(-1, 0)], vec(F(-1, 2), 0)),  # y outside F, above every term
            ([vec(0, 0), T], vec(0, 1)),  # y outside F and not above the terms
            ([], T),
        ],
        ids=["decreasing", "above-y", "y-outside-bounded", "y-outside-unbounded", "empty"],
    )
    def test_certificate_cases(self, terms, y):
        self._assert_certificate_matches(CONE, terms, y)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(CONES),
        st.lists(st.tuples(st.sampled_from(POINTS), st.fractions(0, 2, max_denominator=3)), max_size=6),
        st.sampled_from(POINTS),
        st.sampled_from(POINTS),
    )
    def test_certificate_matches_full_checks(self, cone, steps, start, offset):
        # start, then one term per step; no steps is the empty sequence
        terms = list(itertools.accumulate((p.scale(k) for p, k in steps), initial=start)) if steps else []
        y = (terms[-1] if terms else start) + offset
        self._assert_certificate_matches(cone, terms, y)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(CONES), st.sampled_from(POINTS), st.sampled_from(POINTS), st.sampled_from(POINTS))
    def test_monotone_wick_matches_full_checks(self, cone, x, step, y):
        for b in (y, x + step):
            want = _outcome(_ref_monotone_wick_check, FRAME, cone, x, b)
            assert _outcome(monotone_wick_check, FRAME, cone, x, b) == want

    def test_one_leq_per_certificate(self, monkeypatch):
        calls = []

        def spy(x, y, c):
            calls.append(x)
            return leq(x, y, c)

        monkeypatch.setattr(order_module, "leq", spy)
        s = OrderedSequence.geometric(CONE, FRAME, T, n=40)
        completeness_certificate(s, T)
        assert calls == [s.terms[-1]]
