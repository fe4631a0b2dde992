from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conekit.cone import FutureCone, Orthant, PCone, contains
from conekit.errors import ConeMismatch, NotCausal, NotMember
from conekit.lorentz import GramForm, LorentzFrame, minkowski_frame
from conekit.numerics import SymMatrix, Vector, exact_det
from conekit.span import (
    FormalDifference,
    _future_split,
    canonicalize,
    embed,
    equiv,
    extend_linear,
    future_decompose,
    future_decompose_is_minimal,
)


def vec(*xs):
    return Vector([F(x) for x in xs])


O1 = Orthant(1)


class TestEmbed:
    def test_basic(self):
        d = embed(vec(3), O1)
        assert d.pos == vec(3) and d.neg == vec(0)

    def test_zero(self):
        d = embed(vec(0), O1)
        assert d.value() == vec(0)

    def test_pcone(self):
        d = embed(vec(2, 1), PCone(2, 1))
        assert d.pos == vec(2, 1) and d.neg == vec(0, 0)

    def test_not_member(self):
        with pytest.raises(NotMember):
            embed(vec(-1), O1)


class TestEquiv:
    def test_shifted(self):
        assert equiv(FormalDifference(O1, vec(3), vec(1)), FormalDifference(O1, vec(5), vec(3)))

    def test_zero_class(self):
        v = vec(7)
        assert equiv(FormalDifference(O1, v, v), FormalDifference(O1, vec(0), vec(0)))

    def test_unequal(self):
        assert not equiv(
            FormalDifference(O1, vec(3), vec(1)), FormalDifference(O1, vec(4), vec(3))
        )

    def test_cone_mismatch(self):
        from conekit.cone import Polyhedral

        a = FormalDifference(Polyhedral([vec(1, 1)]), vec(2, 2), vec(0, 0))
        b = FormalDifference(Polyhedral([vec(1, 0)]), vec(2, 0), vec(0, 0))
        with pytest.raises(ConeMismatch):
            equiv(a, b)

    def test_eq_operator(self):
        assert FormalDifference(O1, vec(3), vec(1)) == FormalDifference(O1, vec(5), vec(3))

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(FormalDifference(O1, vec(1), vec(0)))


class TestExtendLinear:
    def test_example(self):
        def f(v):
            return Vector([v.coords[0], 2 * v.coords[0]])

        d = FormalDifference(O1, vec(5), vec(3))
        assert extend_linear(f, d) == vec(2, 4)

    def test_zero_class(self):
        def f(v):
            return v.scale(F(3))

        d = FormalDifference(O1, vec(4), vec(4))
        assert extend_linear(f, d) == vec(0)

    def test_identity(self):
        d = FormalDifference(O1, vec(3), vec(1))
        assert extend_linear(lambda v: v, d) == vec(2)


class TestCanonicalize:
    def test_orthant(self):
        c = Orthant(2)
        d = canonicalize(FormalDifference(c, vec(3, 1), vec(1, 2)))
        assert equiv(d, FormalDifference(c, vec(3, 1), vec(1, 2)))
        assert min(min(d.pos.coords), min(d.neg.coords)) == 0


class TestFutureDecompose:
    FRAME = minkowski_frame(1)

    def test_spacelike_unit(self):
        fd = future_decompose(vec(0, 1), self.FRAME)
        assert fd.lambda_star == F(1, 2)
        assert fd.v1 == vec(F(1, 2), F(1, 2))
        assert fd.v2 == vec(F(1, 2), F(-1, 2))

    def test_t_itself(self):
        fd = future_decompose(vec(1, 0), self.FRAME)
        assert fd.lambda_star == F(1, 2)
        assert fd.v1 == vec(1, 0) and fd.v2 == vec(0, 0)

    def test_minus_t(self):
        fd = future_decompose(vec(-1, 0), self.FRAME)
        assert fd.lambda_star == F(1, 2)
        assert fd.v1 == vec(0, 0) and fd.v2 == vec(1, 0)

    def test_difference_exact(self):
        x = vec(F(3, 7), F(-5, 3))
        fd = future_decompose(x, self.FRAME)
        assert fd.v1 - fd.v2 == x
        cone = FutureCone(self.FRAME.form, self.FRAME.t)
        from conekit.cone import contains

        assert contains(cone, fd.v1) and contains(cone, fd.v2)

    def test_minimality(self):
        for x in [vec(0, 1), vec(2, -3), vec(F(1, 2), F(1, 3))]:
            fd = future_decompose(x, self.FRAME)
            if fd.lambda_star > 0:
                assert future_decompose_is_minimal(self.FRAME, x, fd.lambda_star)


quarters = st.integers(-16, 16).map(lambda k: F(k, 4))
fifths = st.integers(-30, 30).map(lambda k: F(k, 5))


@st.composite
def lorentz_frames(draw):
    """diag(1, -1, ..., -1) on a random exact basis B of R^2..R^4, and t = b_0."""
    n = draw(st.integers(2, 4))
    rows = draw(st.lists(st.lists(quarters, min_size=n, max_size=n), min_size=n, max_size=n))
    assume(exact_det(rows) != 0)
    d = SymMatrix([[int(i == j) * (1 if i == 0 else -1) for j in range(n)] for i in range(n)])
    basis = [Vector(r) for r in rows]
    return LorentzFrame(GramForm(basis, d), basis[0])


def _targets(frame, data):
    """A random x, and x = c t + k b_1, whose n(w_x) = |k| is rational."""
    n = frame.dim
    c, k = data.draw(fifths), data.draw(fifths)
    return [Vector(data.draw(st.lists(fifths, min_size=n, max_size=n))), frame.t.scale(c) + frame.form.basis[1].scale(k)]


class TestFutureSplit:
    """``_future_split`` in the causal future of any timelike t."""

    @settings(max_examples=150, deadline=None)
    @given(lorentz_frames(), st.data())
    def test_parts_in_the_future_of_t(self, frame, data):
        # t drawn by rejection: unit or not, future- or past-directed
        n = frame.dim
        t = Vector(data.draw(st.lists(fifths, min_size=n, max_size=n)))
        try:
            cone = FutureCone(frame.form, t)
        except NotCausal:
            assume(False)
        for x in _targets(frame, data):
            fd = _future_split(frame.form.std, t, x)
            assert fd.v1 - fd.v2 == x
            assert contains(cone, fd.v1) and contains(cone, fd.v2)

    @settings(max_examples=150, deadline=None)
    @given(lorentz_frames(), st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8), st.data())
    def test_scaled_unit_t_is_the_frame_split(self, frame, r, data):
        # t = r frame.t: mu scales by r and lam by 1 / r, so lam t is the
        # frame's split whenever n(w_x) is rational
        for x in _targets(frame, data):
            fd = future_decompose(x, frame)
            split = _future_split(frame.form.std, frame.t.scale(r), x)
            assert split.exact_lambda == fd.exact_lambda
            if fd.exact_lambda:
                assert (split.v1, split.v2, split.lambda_star * r) == (fd.v1, fd.v2, fd.lambda_star)
