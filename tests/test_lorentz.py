import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import conekit.cone as cone_module
import conekit.lorentz as lorentz_module
import conekit.numerics as numerics_module
from conekit import hypnorm, span
from conekit.cone import (
    FutureCone,
    Polyhedral,
    SelfDualityReport,
    contains,
    dual_contains,
    in_core,
    is_proper,
    leq,
    sample_future_causal,
    self_duality_report,
)
from conekit.errors import (
    DependentBasis,
    DimensionMismatch,
    NotCausal,
    NotFutureCausal,
    NotLorentzian,
    NotMember,
    OutsideCone,
    PreconditionFailed,
    UnsupportedFamily,
)
from conekit.hypnorm import FormInduced, PHyperbolic, norm_sq_eval, polar_inner
from conekit.lorentz import (
    CausalClass,
    FormKind,
    GramForm,
    LorentzFrame,
    Signature,
    _wick_kernel,
    causal_class,
    classify,
    decompose,
    frame_from_unit_vector,
    future_defect,
    future_defect_exact,
    gram_from_cone_basis,
    minkowski_form,
    minkowski_frame,
    spatial_basis,
    wick_inner,
    wick_norm,
    wick_orthogonal_basis,
)
from conekit.numerics import (
    SymMatrix,
    Vector,
    _eliminate,
    _solve,
    exact_det,
    exact_rank,
    exact_solve,
    fraction_sqrt,
    fraction_sqrt_bounds,
)
from conekit.order import OrderedSequence, completeness_certificate, monotone_wick_check
from conekit.span import MINIMALITY_SLACK, FutureDecomposition, future_decompose, future_decompose_is_minimal


def vec(*xs):
    return Vector([F(x) for x in xs])


FRAME2 = minkowski_frame(1)


class TestGramFromConeBasis:
    def test_r12_example(self):
        h = PHyperbolic(2, 2)
        basis = [vec(1, 0, 0), vec(1, 1, 0), vec(1, 0, 1)]
        g = gram_from_cone_basis(h, basis)
        rows = [list(r) for r in g.gram.rows]
        assert rows == [[1, 1, 1], [1, 0, 1], [1, 1, 0]]
        assert exact_det(rows) == 1

    def test_r11_example(self):
        g = gram_from_cone_basis(PHyperbolic(2, 1), [vec(1, 0), vec(1, 1)])
        assert [list(r) for r in g.gram.rows] == [[1, 1], [1, 0]]

    def test_one_dimensional(self):
        h = PHyperbolic(2, 0)
        g = gram_from_cone_basis(h, [vec(1)])
        assert [list(r) for r in g.gram.rows] == [[1]]
        # diag(1) is positive definite, not Lorentzian
        assert classify(g) == classify(g.gram) == Signature(FormKind.POSITIVE_DEFINITE, 1, 0, 0)
        assert classify(minkowski_form(0)) == classify(g)

    @pytest.mark.parametrize("basis", [[], [vec(1, 0)], [vec(1, 0), vec(1, 1), vec(2, 1)]])
    def test_wrong_size(self, basis):
        with pytest.raises(DimensionMismatch):
            gram_from_cone_basis(PHyperbolic(2, 1), basis)

    def test_dependent_basis(self):
        with pytest.raises(DependentBasis):
            gram_from_cone_basis(PHyperbolic(2, 1), [vec(1, 0), vec(2, 0)])
        h = FormInduced(FutureCone(minkowski_form(1), vec(1, 0)))
        with pytest.raises(DependentBasis):
            gram_from_cone_basis(h, [vec(2, 1), vec(4, 2)])


def _spy_membership(monkeypatch) -> list:
    """Record every vector whose cone membership hypnorm checks."""
    calls, real = [], hypnorm.contains

    def spy(c, x):
        calls.append(x)
        return real(c, x)

    monkeypatch.setattr(hypnorm, "contains", spy)
    return calls


class TestGramFromConeBasisChecks:
    @pytest.mark.parametrize("h", [PHyperbolic(1, 1), PHyperbolic(3, 1)])
    def test_family_before_membership(self, h, monkeypatch):
        calls = _spy_membership(monkeypatch)
        with pytest.raises(UnsupportedFamily):
            gram_from_cone_basis(h, [vec(1, 0), vec(0, 5)])
        assert calls == []

    def test_first_non_member_named(self, monkeypatch):
        calls = _spy_membership(monkeypatch)
        basis = [vec(2, 1), vec(1, 3), vec(1, -2)]
        with pytest.raises(OutsideCone, match=re.escape(repr(basis[1]))):
            gram_from_cone_basis(PHyperbolic(2, 1), basis)
        assert calls == basis[:2]

    def test_each_member_checked_once(self, monkeypatch):
        calls = _spy_membership(monkeypatch)
        basis = [vec(1, 0, 0), vec(1, 1, 0), vec(1, 0, 1)]
        gram_from_cone_basis(PHyperbolic(2, 2), basis)
        assert calls == basis

    def test_dependence_after_every_member(self, monkeypatch):
        calls = _spy_membership(monkeypatch)
        basis = [vec(1, 0, 0), vec(2, 0, 0), vec(1, 0, 1)]
        with pytest.raises(DependentBasis):
            gram_from_cone_basis(PHyperbolic(2, 2), basis)
        assert calls == basis

    def test_size_after_every_member(self, monkeypatch):
        calls = _spy_membership(monkeypatch)
        basis = [vec(1, 0), vec(1, 1), vec(2, 1)]
        with pytest.raises(DimensionMismatch):
            gram_from_cone_basis(PHyperbolic(2, 1), basis)
        assert calls == basis

    @pytest.mark.parametrize("form_induced", [False, True])
    def test_no_inverse_and_no_signature(self, form_induced, monkeypatch):
        """G = B^T N B: the standard form is N and the signature N's, by
        Sylvester's law, so neither is computed."""
        h = PHyperbolic(2, 2)
        if form_induced:
            # std = diag(1, -1/4, -1), eliminated and classified before the spies
            form = GramForm([vec(1, 0, 0), vec(0, 2, 0), vec(0, 0, 1)], lorentz_module._minkowski_matrix(3))
            h = FormInduced(FutureCone(form, vec(1, 0, 0)))
        calls = []
        for mod in (lorentz_module, numerics_module):
            for name in ("_eliminate", "_exact_signature"):
                real = getattr(mod, name)
                monkeypatch.setattr(mod, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
        g = gram_from_cone_basis(h, [vec(1, 0, 0), vec(1, 1, 0), vec(1, 0, 1)])
        sig = classify(g)
        assert calls == []
        assert sig == classify(g.gram) and sig.kind is FormKind.LORENTZIAN
        assert calls == ["_exact_signature"]


class TestClassify:
    def test_minkowski(self):
        sig = classify(minkowski_form(2))
        assert sig.kind is FormKind.LORENTZIAN and sig.minus == 2

    def test_cone_basis_gram(self):
        m = SymMatrix([[F(1), F(1), F(1)], [F(1), F(0), F(1)], [F(1), F(1), F(0)]])
        sig = classify(m)
        assert sig.kind is FormKind.LORENTZIAN
        assert (sig.plus, sig.minus, sig.zero) == (1, 2, 0)

    def test_positive_definite(self):
        sig = classify(SymMatrix([[F(1), F(0)], [F(0), F(1)]]))
        assert sig.kind is FormKind.POSITIVE_DEFINITE

    def test_degenerate(self):
        sig = classify(SymMatrix([[F(1), F(0)], [F(0), F(0)]]))
        assert sig.kind is FormKind.DEGENERATE

    def test_zero_diagonal_pivot_rescue(self):
        sig = classify(SymMatrix([[F(0), F(1)], [F(1), F(0)]]))
        assert (sig.plus, sig.minus, sig.zero) == (1, 1, 0)

    def test_float_mode(self):
        # float entries are taken at their binary values and classified exactly
        sig = classify(SymMatrix([[1.0, 0.0], [0.0, -1.0]]))
        assert sig.kind is FormKind.LORENTZIAN
        assert classify(SymMatrix([[1.0, 0.5], [0.5, 0.25]])).kind is FormKind.DEGENERATE
        # det = 0.01 - 0.1^2 < 0 on the binary values of 0.1 and 0.01
        assert classify(SymMatrix([[1.0, 0.1], [0.1, 0.01]])).kind is FormKind.LORENTZIAN


scalars = st.one_of(st.just(F(0)), st.fractions(min_value=-8, max_value=8, max_denominator=6))


@st.composite
def symmetric_matrices(draw):
    """Symmetric rational matrices of dims 1-6, often with zero diagonals."""
    n = draw(st.integers(1, 6))
    zero_diagonal = draw(st.booleans())
    m = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or not zero_diagonal:
                m[i][j] = m[j][i] = draw(scalars)
    return m


class TestClassifyProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(scalars, min_size=1, max_size=6))
    def test_diagonal_counts_signs(self, d):
        n = len(d)
        sig = classify(SymMatrix([[d[i] if i == j else F(0) for j in range(n)] for i in range(n)]))
        assert (sig.plus, sig.minus, sig.zero) == (
            sum(x > 0 for x in d),
            sum(x < 0 for x in d),
            sum(x == 0 for x in d),
        )

    @settings(max_examples=100, deadline=None)
    @given(symmetric_matrices(), st.data())
    def test_sylvester_inertia(self, m, data):
        # P^T M P has the signature of M for every invertible P
        n = len(m)
        ints = st.integers(-3, 3).map(F)
        p = data.draw(
            st.lists(st.lists(ints, min_size=n, max_size=n), min_size=n, max_size=n).filter(
                lambda p: exact_det(p) != 0
            )
        )
        ptmp = [
            [sum(p[a][i] * m[a][b] * p[b][j] for a in range(n) for b in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert classify(SymMatrix(ptmp)) == classify(SymMatrix(m))

    @settings(max_examples=100, deadline=None)
    @given(symmetric_matrices(), st.sampled_from([F(1), F(2) ** 60, F(2) ** -60]))
    def test_nonzero_count_is_rank(self, m, scale):
        # dependent rows included: the duplicated last row and column lower the rank
        n = len(m)
        m = [[x * scale for x in r[:n]] + [r[0] * scale] for r in m]
        m.append(list(m[0][:n]) + [m[0][0]])
        sig = classify(SymMatrix(m))
        assert sig.plus + sig.minus == exact_rank(m)
        assert sig.zero >= 1


class TestGramFormStandard:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_std_reproduces_gram(self, data):
        """<b_i, b_j> in standard coordinates is the given Gram entry, exactly."""
        n = data.draw(st.integers(1, 5))
        entry = st.fractions(min_value=-4, max_value=4, max_denominator=5)
        rows = data.draw(
            st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n).filter(
                lambda r: exact_det(r) != 0
            )
        )
        g = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = data.draw(scalars)
        basis = [Vector(r) for r in rows]
        form = GramForm(basis, SymMatrix(g))
        assert [[form.inner(u, v) for v in basis] for u in basis] == g


class TestFrame:
    def test_requires_lorentzian(self):
        with pytest.raises(NotLorentzian):
            LorentzFrame(
                GramForm([vec(1, 0), vec(0, 1)], SymMatrix([[F(1), F(0)], [F(0), F(1)]])),
                vec(1, 0),
            )

    def test_requires_unit_t(self):
        with pytest.raises(NotLorentzian):
            LorentzFrame(minkowski_form(1), vec(2, 0))

    def test_from_unit_vector_rescale(self):
        frame = frame_from_unit_vector(minkowski_form(1), vec(2, 0))
        assert frame.t == vec(1, 0)

    def test_from_unit_vector_nonsquare(self):
        with pytest.raises(NotLorentzian):
            frame_from_unit_vector(minkowski_form(1), vec(2, 1))  # <t,t> = 3

    def test_repr_shows_content(self):
        # no memory address: the repr rebuilds the frame, and equal frames
        # built apart print alike
        frame = frame_from_unit_vector(GramForm([vec(1, 0), vec(1, 1)], SymMatrix([[1, 0], [0, -1]])), vec(2, 0))
        names = {"LorentzFrame": LorentzFrame, "GramForm": GramForm, "SymMatrix": SymMatrix, "Vector": Vector, "Fraction": F}
        again = eval(repr(frame), names)
        assert (again.form.basis, again.form.gram, again.form.std, again.t) == (frame.form.basis, frame.form.gram, frame.form.std, vec(1, 0))
        assert repr(minkowski_frame(2)) == repr(minkowski_frame(2))

class TestDecompose:
    def test_basic(self):
        d = decompose(FRAME2, vec(3, 4))
        assert d.alpha == 3 and d.w == vec(0, 4)

    def test_t(self):
        d = decompose(FRAME2, vec(1, 0))
        assert d.alpha == 1 and d.w.is_zero()

    def test_orthogonality_and_reconstruction(self):
        v = vec(F(2, 3), F(-7, 5))
        d = decompose(FRAME2, v)
        assert FRAME2.inner(d.w, FRAME2.t) == 0
        assert FRAME2.t.scale(d.alpha) + d.w == v


class TestWick:
    def test_example(self):
        assert wick_inner(FRAME2, vec(3, 4), vec(3, 4)) == 25
        assert wick_norm(FRAME2, vec(3, 4)) == 5.0

    def test_t_unit(self):
        assert wick_inner(FRAME2, vec(1, 0), vec(1, 0)) == 1

    def test_orthogonal(self):
        assert wick_inner(FRAME2, vec(1, 0), vec(0, 1)) == 0

    def test_orthogonal_basis(self):
        frame = minkowski_frame(2)
        b = wick_orthogonal_basis(frame)
        assert len(b) == 2
        assert wick_inner(frame, b[0], b[1]) == 0


@st.composite
def general_frames(draw, max_dim=5):
    """The form with Gram matrix D = diag(1, -1, ..., -1) on a random exact
    basis B, and t = b_0: S = B^-T D B^-1 is any Lorentzian form, <t,t> = 1."""
    n = draw(st.integers(2, max_dim))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    assume(exact_det(rows) != 0)
    d = SymMatrix([[F(int(i == j) * (1 if i == 0 else -1)) for j in range(n)] for i in range(n)])
    basis = [Vector(r) for r in rows]
    frame = LorentzFrame(GramForm(basis, d), basis[0])
    minkowski = minkowski_frame(n - 1)
    assume(frame.form.std != minkowski.form.std or frame.t != minkowski.t)
    return frame


def _eliminated_spatial_basis(frame):
    """The first n - 1 independent projections, found by elimination."""
    n, t = frame.dim, frame.t
    cands = [e - t.scale(frame.inner(e, t)) for e in (Vector.unit(n, i) for i in range(n))]
    # the independent rows are the pivot columns of the transpose
    rows = [w.coords for w in cands]
    return [cands[i] for i in _eliminate([list(c) for c in zip(*rows)])[1][: n - 1]]


def _fraction_spatial_basis(frame):
    """Reference: the projections e_i - <e_i, t> t on Fraction coordinates."""
    t = frame.t.coords
    last = max(i for i, c in enumerate(t) if c != 0)
    st_ = frame._st.coords
    return [Vector([int(i == j) - a * c for j, c in enumerate(t)]) for i, a in enumerate(st_) if i != last]


def _fraction_wick_basis(frame):
    """Reference: Gram-Schmidt under the Wick pairing, one Vector operation at a time."""
    out = []
    for b in _fraction_spatial_basis(frame):
        w = b
        for u in out:
            w = w - u.scale(wick_inner(frame, b, u) / wick_inner(frame, u, u))
        out.append(w)
    return out


def _integers(vectors):
    return [(v._nums, v._den) for v in vectors]


def _vector_loop_sample(frame, rng, radius=F(10)):
    """sample_future_causal's draws, built one Vector operation at a time."""
    alpha = F(rng.randint(0, 1000), 1000) * radius
    w = Vector.zero(frame.dim)
    for b in _fraction_wick_basis(frame):
        w = w + b.scale(F(rng.randint(-1000, 1000), 1000))
    s = 2 * frame.inner(w, frame.t) ** 2 - frame.inner(w, w)
    if s > 0:
        _, hi = fraction_sqrt_bounds(s)
        w = w.scale(F(rng.randint(0, 1000), 1000) / hi)
    return frame.t.scale(alpha) + w.scale(alpha)


class TestWickOnGeneralFrames:
    @settings(max_examples=80, deadline=None)
    @given(general_frames(), st.data())
    def test_closed_forms(self, frame, data):
        n = frame.dim
        entry = st.fractions(min_value=-10, max_value=10, max_denominator=6)
        u, v = (Vector(data.draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(2))
        t = frame.t
        assert wick_inner(frame, u, v) == 2 * frame.inner(u, t) * frame.inner(v, t) - frame.inner(u, v)
        assert spatial_basis(frame) == _eliminated_spatial_basis(frame)
        assert _integers(spatial_basis(frame)) == _integers(_fraction_spatial_basis(frame))
        assert _integers(wick_orthogonal_basis(frame)) == _integers(_fraction_wick_basis(frame))
        seed = data.draw(st.integers(0, 2**32))
        got, want = random.Random(seed), random.Random(seed)
        for radius in (F(10), F(1, 3), 7):
            x = sample_future_causal(frame, got, radius)
            assert x == _vector_loop_sample(frame, want, radius)
            d = decompose(frame, x)
            assert future_defect_exact(frame, x) == d.alpha**2 - wick_inner(frame, d.w, d.w)
        assert got.random() == want.random()
        if causal_class(frame, u) is CausalClass.FUTURE_CAUSAL:
            d = decompose(frame, u)
            assert future_defect_exact(frame, u) == d.alpha**2 - wick_inner(frame, d.w, d.w)


def _three_norm_polar_inner(h, v, w):
    """Reference: the polarization identity on three squared norms."""
    return (norm_sq_eval(h, v + w) - norm_sq_eval(h, v) - norm_sq_eval(h, w)) / 2


def _two_solve_std(basis, gram):
    """Reference: S = B^-T G B^-1 by two block solves with B^T on Fraction
    coordinates: B^T Y = G^T gives Y^T = G B^-1, then B^T S = Y^T."""
    bt = [b.coords for b in basis]
    y = _solve(bt, list(zip(*gram.rows)))
    return SymMatrix(_solve(bt, list(zip(*y))))


@st.composite
def p2_bases(draw):
    """An independent basis of the p = 2 cone in dims 2-8: x0 >= sum |x_i|."""
    n = draw(st.integers(2, 8))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    rows = []
    for _ in range(n):
        spatial = draw(st.lists(entry, min_size=n - 1, max_size=n - 1))
        rows.append([sum(map(abs, spatial)) + draw(st.fractions(0, 2, max_denominator=4))] + spatial)
    assume(exact_det(rows) != 0)
    return [Vector(r) for r in rows]


class TestGramOnIntegers:
    """polar_inner, gram_from_cone_basis and GramForm.std against the
    three-norm pairing, the pairwise Gram matrix and the two-solve std."""

    @staticmethod
    def check(h, basis):
        for u in basis:
            for v in basis:
                assert polar_inner(h, u, v) == _three_norm_polar_inner(h, u, v)
        g = gram_from_cone_basis(h, basis)
        assert g.gram == SymMatrix([[_three_norm_polar_inner(h, u, v) for v in basis] for u in basis])
        want = _two_solve_std(basis, g.gram)
        assert g.std == want and g.std.rows == want.rows
        # the signature known by Sylvester's law is the one found anew
        assert classify(g) == classify(g.gram)
        return g

    @settings(max_examples=40, deadline=None)
    @given(p2_bases())
    def test_p2(self, basis):
        n = len(basis)
        g = self.check(PHyperbolic(2, n - 1), basis)
        assert g.std == minkowski_form(n - 1).std

    # the two-solve reference takes most of the time on 8-D frames
    @settings(max_examples=25, deadline=None)
    @given(general_frames(max_dim=8), st.integers(0, 2**32))
    def test_form_induced(self, frame, seed):
        form = frame.form
        assert form.std == _two_solve_std(form.basis, form.gram)
        st_ = form.std.apply(frame.t).coords
        assert frame.wick == SymMatrix([[2 * a * b - x for b, x in zip(st_, r)] for a, r in zip(st_, form.std.rows)])
        rng = random.Random(seed)
        basis = [sample_future_causal(frame, rng) for _ in range(frame.dim)]
        assume(exact_rank([b.coords for b in basis]) == frame.dim)
        g = self.check(FormInduced(FutureCone(form, frame.t)), basis)
        assert g.std == form.std


def _fraction_sample(frame, rng, radius):
    """sample_future_causal's formula on Fraction coordinates: w = sum c_k b_k
    coordinate by coordinate, then alpha t + scale w."""
    basis = _fraction_wick_basis(frame)
    alpha = F(rng.randint(0, 1000), 1000) * radius
    cs = [F(rng.randint(-1000, 1000), 1000) for _ in basis]
    w = Vector([sum(c * b for c, b in zip(cs, col)) for col in zip(*(b.coords for b in basis))])
    s = wick_inner(frame, w, w)
    scale = alpha
    if s > 0:
        _, hi = fraction_sqrt_bounds(s)
        scale *= F(rng.randint(0, 1000), 1000) / hi
    return Vector([alpha * a + scale * b for a, b in zip(frame.t.coords, w.coords)])


def _random_frame(rng, n):
    """diag(1, -1, ..., -1) on a random exact basis of R^n, t = b_0."""
    while True:
        rows = [[F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        if exact_det(rows) != 0:
            break
    d = SymMatrix([[F(int(i == j) * (1 if i == 0 else -1)) for j in range(n)] for i in range(n)])
    basis = [Vector(r) for r in rows]
    return LorentzFrame(GramForm(basis, d), basis[0])


class TestIntegerSampler:
    """The sampler and the Wick basis run on integers; they must return the
    vectors, and make the draws, of their formulas on Fraction coordinates."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_bases_match_fraction_loop(self, n):
        rng = random.Random(n)
        for frame in [minkowski_frame(n - 1)] + [_random_frame(rng, n) for _ in range(3)]:
            assert _integers(spatial_basis(frame)) == _integers(_fraction_spatial_basis(frame))
            assert _integers(wick_orthogonal_basis(frame)) == _integers(_fraction_wick_basis(frame))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_fraction_formula(self, n):
        rng = random.Random(n)
        frames = [minkowski_frame(n - 1)] + [_random_frame(rng, n) for _ in range(2)]
        for k, frame in enumerate(frames):
            # W = 2 (St)(St)^T - S, on Fractions
            st_ = [sum(a * b for a, b in zip(r, frame.t.coords)) for r in frame.form.std.rows]
            rows = frame.form.std.rows
            assert frame.wick == SymMatrix([[2 * a * b - x for b, x in zip(st_, r)] for a, r in zip(st_, rows)])
            for radius in (F(10), F(5), F(1, 3), 7):
                got, want = random.Random(100 * n + k), random.Random(100 * n + k)
                for _ in range(5):
                    assert sample_future_causal(frame, got, radius) == _fraction_sample(frame, want, radius)
                assert got.random() == want.random()

    def test_float_frame(self):
        # a frame given in floats is the exact frame of their binary values
        basis = [Vector([1.0, 0.0, 0.0]), Vector([0.0, 1.0, 0.0]), Vector([0.0, 0.0, 1.0])]
        form = GramForm(basis, SymMatrix([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]))
        frame = LorentzFrame(form, Vector([1.0, 0.0, 0.0]))
        assert frame.wick == minkowski_frame(2).wick
        got, want = random.Random(3), random.Random(3)
        for radius in (F(10), F(1, 3)):
            assert sample_future_causal(frame, got, radius) == _fraction_sample(frame, want, radius)
        assert got.random() == want.random()


class TestSamplerRadius:
    # a frame given in float entries
    FLOAT_FRAME = LorentzFrame(
        GramForm([Vector([1.0, 0.0]), Vector([0.0, 1.0])], SymMatrix([[1.0, 0.0], [0.0, -1.0]])), Vector([1.0, 0.0])
    )

    @pytest.mark.parametrize("frame", [minkowski_frame(2), FLOAT_FRAME], ids=["exact", "float"])
    @pytest.mark.parametrize("radius", [F(-5), -1, -0.5])
    def test_negative_radius_raises_before_drawing(self, frame, radius):
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(PreconditionFailed):
            sample_future_causal(frame, rng, radius)
        assert rng.getstate() == state

    def test_float_radius_is_exact(self):
        # a float radius makes the draws and the sample of its binary value
        got, want = random.Random(1), random.Random(1)
        frame = minkowski_frame(2)
        for _ in range(5):
            assert sample_future_causal(frame, got, 2.5) == sample_future_causal(frame, want, F(5, 2))
        assert got.random() == want.random()

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_non_finite_radius_raises_before_drawing(self, radius):
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(PreconditionFailed):
            sample_future_causal(minkowski_frame(2), rng, radius)
        assert rng.getstate() == state

    def test_zero_radius(self):
        assert sample_future_causal(minkowski_frame(2), random.Random(1), 0) == Vector.zero(3)


class TestCausalClass:
    def test_classes(self):
        assert causal_class(FRAME2, vec(2, 1)) is CausalClass.FUTURE_CAUSAL
        assert causal_class(FRAME2, vec(-2, 1)) is CausalClass.PAST_CAUSAL
        assert causal_class(FRAME2, vec(1, 2)) is CausalClass.SPACELIKE
        assert causal_class(FRAME2, vec(0, 0)) is CausalClass.ZERO


class TestFutureDefect:
    def test_values(self):
        assert future_defect(FRAME2, vec(2, 1)) == pytest.approx(1.0)
        assert future_defect(FRAME2, vec(1, 1)) == pytest.approx(0.0)
        assert future_defect_exact(FRAME2, vec(2, 1)) == 3

    def test_not_future(self):
        with pytest.raises(NotFutureCausal):
            future_defect(FRAME2, vec(1, 2))


class TestRecoveredMinkowski:
    def test_standard_coordinates(self):
        for n in range(1, 6):
            h = PHyperbolic(2, n)
            basis = [Vector.unit(n + 1, 0)]
            for i in range(1, n + 1):
                basis.append(Vector.unit(n + 1, 0) + Vector.unit(n + 1, i))
            g = gram_from_cone_basis(h, basis)
            std = g.in_standard_coordinates().rows
            for i in range(n + 1):
                for j in range(n + 1):
                    want = F(1) if i == j == 0 else (F(-1) if i == j else F(0))
                    assert std[i][j] == want


class TestCoreImpliesPositive:
    def test_sampled(self):
        rng = random.Random(9)
        frame = minkowski_frame(2)
        cone = FutureCone(frame.form, frame.t)
        h = PHyperbolic(2, 2)
        hits = 0
        for _ in range(200):
            v = sample_future_causal(frame, rng)
            if not v.is_zero() and in_core(cone, v):
                assert norm_sq_eval(h, v) > 0
                hits += 1
        assert hits > 0


# References: the sign decisions as they were made on Fractions, one form
# value (``GramForm.inner``, ``wick_inner``, squared norms) at a time.


def _ref_future_contains(c, x):
    return c.form.inner(x, x) >= 0 and c.form.inner(x, c.t) >= 0


def _ref_future_in_core(c, x):
    if not _ref_future_contains(c, x):
        raise NotMember(f"{x!r} is not in the cone")
    return c.form.inner(x, x) > 0 and c.form.inner(x, c.t) > 0


def _ref_dual_contains(c, g, v):
    """F* = {v : <v, x>_g >= 0 on F}: over a polyhedral cone's generators,
    and S^-1 G v in F for a future cone of form S, G being g's, by one
    Fraction solve: reverse Cauchy-Schwarz makes F's Euclidean dual S F."""
    if g.inner(v, v) < 0:
        raise NotCausal("dual cone membership is only defined for causal vectors")
    if isinstance(c, Polyhedral):
        return all(g.inner(v, gen) >= 0 for gen in c.generators)
    gv = [sum(a * b for a, b in zip(row, v.coords)) for row in g.std.rows]
    return _ref_future_contains(c, Vector(exact_solve(c.form.std.rows, gv)))


def _ref_contains(c, x):
    return _ref_future_contains(c, x) if isinstance(c, FutureCone) else contains(c, x)


def _ref_causal_class(frame, v):
    if v.is_zero():
        return CausalClass.ZERO
    if frame.inner(v, v) < 0:
        return CausalClass.SPACELIKE
    return CausalClass.FUTURE_CAUSAL if frame.inner(v, frame.t) >= 0 else CausalClass.PAST_CAUSAL


def _ref_reverse_cs(h, v, w):
    inner = polar_inner(h, v, w)
    nv, nw = hypnorm._norm_sq(h, v), hypnorm._norm_sq(h, w)
    gap = inner * inner - nv * nw
    residual = float(inner) - math.sqrt(max(float(nv), 0.0) * max(float(nw), 0.0))
    return hypnorm.ReverseCSResult(residual, inner, gap, inner >= 0 and gap >= 0)


def _ref_equality_is_collinear(h, v, w):
    """The exact families' branch."""
    hypnorm._require_member(h, v)
    hypnorm._require_member(h, w)
    if isinstance(h, PHyperbolic) and h.p == 1:
        def n1(u):
            return u.coords[0] - sum(abs(c) for c in u.coords[1:])

        eq = n1(v + w) == n1(v) + n1(w)
    else:
        eq = _ref_reverse_cs(h, v, w).inner_sq_minus_prod == 0
    return hypnorm.EqualityCollinearity(eq, _ref_collinear_nonneg(v, w))


def _ref_collinear_nonneg(v, w):
    """Nonnegative collinearity by an exact rank test, then the ratio's sign."""
    if v.is_zero() or w.is_zero():
        return True
    if exact_rank([v.coords, w.coords]) > 1:
        return False
    i = next(i for i, c in enumerate(w.coords) if c != 0)
    return v.coords[i] * w.coords[i] >= 0


def _ref_monotone_wick_check(frame, c, x, y):
    if not (contains(c, x) and contains(c, y) and leq(x, y, c)):
        raise PreconditionFailed("need x, y in F with x <= y")
    return wick_inner(frame, x, x) <= wick_inner(frame, y, y)


def _ref_sampling_frame(c, g):
    for x in [c.t] if isinstance(c, FutureCone) else c.generators:
        if g.inner(x, x) > 0:
            return frame_from_unit_vector(g, x)
    raise NotLorentzian("no timelike vector available for causal sampling")


def _ref_positive_multiple(a, b):
    """a = k b for some k > 0, entry by entry on Fractions."""
    k = next(x / y for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra, rb) if y)
    return k > 0 and all(x == k * y for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra, rb))


def _ref_self_duality_report(c, g, samples, seed):
    """The theorem for a future cone: self-dual under g iff its form is a
    positive multiple of g's, a Lorentzian g.  Otherwise the first sample
    in exactly one of F and F* is the witness, with none when t is not
    g-timelike or g(t, t) is no rational square; a polyhedral cone checks
    its generators first."""
    rng = random.Random(seed)
    future = isinstance(c, FutureCone)
    if future and _ref_positive_multiple(c.form.std, g.std):
        return SelfDualityReport(True, None, len(range(samples)))
    if future and classify(g).kind is FormKind.LORENTZIAN:
        q = g.inner(c.t, c.t)
        # the theorem has decided "no", and no unit frame scales t
        if q <= 0 or fraction_sqrt(q) is None:
            return SelfDualityReport(False, None, 0)
    frame = _ref_sampling_frame(c, g)
    if isinstance(c, Polyhedral):
        for a in c.generators:
            if g.inner(a, a) < 0:
                return SelfDualityReport(False, a, 0, "F_not_causal")
            for b in c.generators:
                if g.inner(a, b) < 0:
                    return SelfDualityReport(False, a, 0, "F_not_subset_dual")
    checked = 0
    for _ in range(samples):
        v = sample_future_causal(frame, rng)
        checked += 1
        in_dual, in_f = _ref_dual_contains(c, g, v), _ref_contains(c, v)
        if in_dual and not in_f:
            return SelfDualityReport(False, v, checked, "dual_not_subset_F")
        if in_f and not in_dual:
            return SelfDualityReport(False, v, checked, "F_not_subset_dual")
    return SelfDualityReport(not future, None, checked)


def _outcome(fn, *args):
    """fn's value, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as e:
        return type(e)


def _scaled_form(frame):
    """A second form under which frame.t is also a unit vector: the same
    Gram matrix on the basis with its spatial vectors doubled."""
    b = frame.form.basis
    return GramForm([b[0]] + [x.scale(2) for x in b[1:]], frame.form.gram)


class TestSignsOnIntegers:
    """Every sign decided on the integers of ``SymMatrix._int_quad`` equals
    the Fraction decision it replaced, on general frames, on light-cone and
    zero vectors, and on future cones whose form is not the pairing's."""

    @staticmethod
    def vectors(frame, data):
        n, b = frame.dim, frame.form.basis
        entry = st.fractions(min_value=-6, max_value=6, max_denominator=5)
        k = data.draw(st.fractions(min_value=F(1, 7), max_value=5, max_denominator=7))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        # b_0 = t and b_0 +- b_i are future null vectors: the Gram matrix is diag(1, -1, ...)
        null = [b[0] + b[1], b[0] - b[1], b[0] + b[n - 1]]
        vs = [Vector.zero(n), frame.t, frame.t.scale(k)] + null + [v.scale(k) for v in null]
        vs += [-v for v in vs[1:]]
        vs += [sample_future_causal(frame, rng, radius) for radius in (F(1, 3), F(10))]
        vs += [Vector(data.draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(2)]
        return vs

    @settings(max_examples=30, deadline=None)
    @given(general_frames(max_dim=8), st.data())
    def test_cone_and_causal_class(self, frame, data):
        form, t = frame.form, frame.t
        g2 = _scaled_form(frame)
        assert g2.std != form.std and g2.inner(t, t) == 1
        frame2 = LorentzFrame(g2, t)
        vs = self.vectors(frame, data)
        cones = [FutureCone(form, t), FutureCone(g2, t)]
        # a null generator first: the sampling frame is built on the first timelike one
        poly = Polyhedral([vs[3], t, vs[-3]])
        for x in vs:
            for c in cones:
                assert contains(c, x) == _ref_future_contains(c, x)
                assert _outcome(in_core, c, x) == _outcome(_ref_future_in_core, c, x)
            for c in cones + [poly]:
                for g in (form, g2):
                    assert _outcome(dual_contains, c, g, x) == _outcome(_ref_dual_contains, c, g, x)
            assert causal_class(frame, x) is _ref_causal_class(frame, x)
            assert causal_class(frame2, x) is _ref_causal_class(frame2, x)
        seed = data.draw(st.integers(0, 2**32))
        for c, g in [(cones[0], form), (cones[0], g2), (cones[1], form), (poly, form), (poly, g2)]:
            got = _outcome(self_duality_report, c, g, 20, seed)
            assert got == _outcome(_ref_self_duality_report, c, g, 20, seed)

    @settings(max_examples=20, deadline=None)
    @given(general_frames(max_dim=8), st.data())
    def test_hypnorm_and_order(self, frame, data):
        vs = self.vectors(frame, data)
        g2 = _scaled_form(frame)
        for c in [FutureCone(frame.form, frame.t), FutureCone(g2, frame.t)]:
            h = FormInduced(c)
            members = [x for x in vs if contains(c, x)]
            outside = [x for x in vs if not contains(c, x)][:2]
            for v in members + outside[:1]:
                for w in members + outside:
                    assert _outcome(hypnorm.reverse_cs_residual, h, v, w) == _outcome(_ref_reverse_cs, h, v, w)
                    want = _outcome(lambda: _ref_reverse_cs(h, v, w).holds)
                    assert _outcome(hypnorm.reverse_triangle_holds_exact, h, v, w) == want
                    want = _outcome(_ref_equality_is_collinear, h, v, w)
                    assert _outcome(hypnorm.equality_is_collinear, h, v, w) == want
            if c.form is frame.form:
                for x in members[:4]:
                    for z in members:
                        y = x + z
                        assert monotone_wick_check(frame, c, x, y) == _ref_monotone_wick_check(frame, c, x, y)
                        want = _outcome(_ref_monotone_wick_check, frame, c, y, x)
                        assert _outcome(monotone_wick_check, frame, c, y, x) == want
                # steps along the null vector b_0 + b_1: the bound holds with equality
                seq = OrderedSequence.affine(c, frame, members[-1], vs[3], 4)
                steps = zip(seq.terms, seq.terms[1:])
                want = all(frame.inner(v - u, v - u) >= 0 and frame.inner(v - u, frame.t) >= 0 for u, v in steps)
                assert completeness_certificate(seq, seq.terms[-1]).cauchy_bound_ok == want

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 8), st.data())
    def test_p_families(self, n, data):
        frame = minkowski_frame(n - 1)
        vs = self.vectors(frame, data)
        for h in (PHyperbolic(2, n - 1), PHyperbolic(1, n - 1)):
            members = [x for x in vs if hypnorm.contains(hypnorm.cone_of(h), x)]
            outside = [x for x in vs if not hypnorm.contains(hypnorm.cone_of(h), x)][:2]
            for v in members + outside[:1]:
                for w in members + outside:
                    if h.p == 2:
                        want = _outcome(_ref_reverse_cs, h, v, w)
                        assert _outcome(hypnorm.reverse_cs_residual, h, v, w) == want
                        want = _outcome(lambda: _ref_reverse_cs(h, v, w).holds)
                        assert _outcome(hypnorm.reverse_triangle_holds_exact, h, v, w) == want
                    want = _outcome(_ref_equality_is_collinear, h, v, w)
                    assert _outcome(hypnorm.equality_is_collinear, h, v, w) == want

    @pytest.mark.parametrize("n", range(2, 9))
    def test_wick_kernel_norms(self, n):
        rng = random.Random(n)
        frames = [minkowski_frame(n - 1)] + [_random_frame(rng, n) for _ in range(3)]
        for frame in frames:
            cols, qs, lcm = _wick_kernel(frame)
            basis = list(zip(*cols))
            assert len(qs) == len(basis) == n - 1
            assert lcm == math.lcm(*(b._den for b in wick_orthogonal_basis(frame)))
            nz = frame.wick._nz
            for k, bk in enumerate(basis):
                for j, bj in enumerate(basis):
                    q = sum(m * bk[r] * bj[s] for r, s, m in nz)
                    assert q == (qs[k] if j == k else 0)
            assert all(q > 0 for q in qs)


class TestMembershipCheckedOnce:
    """The exact families' checks, and ``equality_is_collinear`` on every
    family, test each argument's membership once, in argument order."""

    V, W = vec(2, 1), vec(3, -1)
    FORM_NORM = FormInduced(FutureCone(minkowski_form(1), vec(1, 0)))
    FAMILIES = [
        (PHyperbolic(2, 1), V, W),
        (PHyperbolic(1, 1), V, W),
        (FORM_NORM, V, W),
        (PHyperbolic(3, 1), V, W),
        (hypnorm.DiscreteLq(F(1, 2), [1, 2]), vec(2, 1), vec(1, 3)),
    ]
    IDS = [f"h{i}" for i in range(5)]

    @pytest.mark.parametrize("h, v, w", FAMILIES, ids=IDS)
    def test_equality_is_collinear(self, h, v, w, monkeypatch):
        calls = _spy_membership(monkeypatch)
        hypnorm.equality_is_collinear(h, v, w)
        assert calls == [v, w]

    @pytest.mark.parametrize("fn", [hypnorm.reverse_triangle_residual, hypnorm.polarizability_residual])
    @pytest.mark.parametrize("h, v, w", FAMILIES, ids=IDS)
    def test_sums_of_members_unchecked(self, fn, h, v, w, monkeypatch):
        # v + w and v + 2w are members by convexity
        calls = _spy_membership(monkeypatch)
        fn(h, v, w)
        assert calls == [v, w]

    @pytest.mark.parametrize("h", [PHyperbolic(2, 1), FORM_NORM])
    def test_norm_sq_eval(self, h, monkeypatch):
        calls = _spy_membership(monkeypatch)
        assert norm_sq_eval(h, self.V) == 3
        assert calls == [self.V]

    def test_gram_from_cone_basis_form_induced(self, monkeypatch):
        calls = _spy_membership(monkeypatch)
        basis = [self.V, self.W]
        gram_from_cone_basis(self.FORM_NORM, basis)
        assert calls == basis

    @pytest.mark.parametrize("fn", [hypnorm.reverse_cs_residual, hypnorm.reverse_triangle_holds_exact, polar_inner])
    def test_pairings(self, fn, monkeypatch):
        calls = _spy_membership(monkeypatch)
        fn(PHyperbolic(2, 1), self.V, self.W)
        assert calls == [self.V, self.W]


def _ref_decomposition_inequalities(frame, x, lam):
    """The four decomposition constraints on Fractions, as span evaluated them before."""
    alpha = frame.inner(x, frame.t)
    q = frame.inner(x, x)
    return [
        lam * lam + lam * alpha + q / 4 >= 0,
        lam * lam - lam * alpha + q / 4 >= 0,
        lam >= -alpha / 2,
        lam >= alpha / 2,
    ]


def _ref_future_decompose(x, frame):
    alpha = frame.inner(x, frame.t)
    lo, hi = fraction_sqrt_bounds(alpha * alpha - frame.inner(x, x))
    lam = (abs(alpha) + hi) / 2
    if not all(_ref_decomposition_inequalities(frame, x, lam)):
        raise AssertionError("minimal lambda failed its defining inequalities")
    half_x = x.scale(F(1, 2))
    return FutureDecomposition(frame.t.scale(lam) + half_x, frame.t.scale(lam) - half_x, lam, lo == hi)


def _ref_future_decompose_is_minimal(frame, x, lam):
    if lam == 0:
        return True
    return not all(_ref_decomposition_inequalities(frame, x, lam - MINIMALITY_SLACK))


class TestFutureDecomposeOnIntegers:
    """``future_decompose`` and ``future_decompose_is_minimal`` on integers
    return, and raise, what the Fraction code did."""

    @settings(max_examples=40, deadline=None)
    @given(general_frames(max_dim=8), st.data())
    def test_matches_fraction_code(self, frame, data):
        n, b, t = frame.dim, frame.form.basis, frame.t
        k = data.draw(st.fractions(min_value=F(1, 7), max_value=5, max_denominator=7))
        entry = st.fractions(min_value=-6, max_value=6, max_denominator=5)
        # the Gram matrix on b is diag(1, -1, ...): b_0 +- b_i are null, and
        # n(w) is rational for t + k b_1 and irrational for b_1 + b_2
        xs = [Vector.zero(n), t.scale(k), t.scale(-k), b[0] + b[1], -(b[0] - b[n - 1]), t + b[1].scale(k)]
        xs += [b[1] + b[n - 1], Vector(data.draw(st.lists(entry, min_size=n, max_size=n))), Vector.zero(n + 1)]
        exact = set()
        for fr in (frame, LorentzFrame(_scaled_form(frame), t)):
            for x in xs:
                got = _outcome(future_decompose, x, fr)
                assert got == _outcome(_ref_future_decompose, x, fr)
                if not isinstance(got, FutureDecomposition):
                    continue
                exact.add(got.exact_lambda)
                lam = got.lambda_star
                for m in (lam, lam - MINIMALITY_SLACK, lam - F(1, 10**9), lam + F(1, 10**9)):
                    assert future_decompose_is_minimal(fr, x, m) == _ref_future_decompose_is_minimal(fr, x, m)
                    holds = span._lambda_holds(*span._decomposition_ints(fr.form.std, fr.t, x), m)
                    assert holds == all(_ref_decomposition_inequalities(fr, x, m))
        assert exact == ({True, False} if n > 2 else {True})


class TestCollinearCrossProducts:
    """``hypnorm._collinear_nonneg`` by cross products agrees with an exact rank test."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_matches_rank_reference(self, n, data):
        entry = st.one_of(st.just(F(0)), st.fractions(min_value=-4, max_value=4, max_denominator=3))
        u = Vector(data.draw(st.lists(entry, min_size=n, max_size=n)))
        c = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
        other = Vector(data.draw(st.lists(entry, min_size=n, max_size=n)))
        i = data.draw(st.integers(0, n - 1))
        bumped = u + Vector.unit(n, i)
        vs = [Vector.zero(n), u, -u, u.scale(c), u.scale(abs(c) + 1), u.scale(-abs(c) - 1), bumped, other]
        for v in vs:
            for w in vs:
                assert hypnorm._collinear_nonneg(v, w) == _ref_collinear_nonneg(v, w)


@st.composite
def future_forms(draw):
    """A Lorentzian form S of dims 2-4 on a random rational basis: e_0 and
    n - 1 random vectors, with Gram matrix diag(d_0, -d_1, ...), d_i > 0,
    so e_0 is S-timelike.  Every Lorentzian S with <e_0, e_0>_S > 0 has
    such a basis: e_0 and a basis of its S-orthogonal complement."""
    n = draw(st.integers(2, 4))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    rows = [[int(i == 0) for i in range(n)]] + draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n - 1, max_size=n - 1))
    assume(exact_det(rows) != 0)
    ds = draw(st.lists(st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4), min_size=n, max_size=n))
    gram = SymMatrix([[(ds[i] if i == 0 else -ds[i]) * (i == j) for j in range(n)] for i in range(n)])
    return GramForm([Vector(r) for r in rows], gram)


class TestSelfDualityProbe:
    """A future cone is self-dual under g iff its form is a positive
    multiple of g's; samples only find the witness of a "no"."""

    T = vec(1, 0)
    # std = diag(1, -4): the future cone |x_1| <= x_0 / 2, inside Minkowski's
    NARROW = GramForm([vec(1, 0), vec(0, F(1, 2))], SymMatrix([[1, 0], [0, -1]]))
    # std = diag(4, -1): the future cone |x_1| <= 2 x_0, around Minkowski's
    WIDE = GramForm([vec(1, 0), vec(0, 1)], SymMatrix([[4, 0], [0, -1]]))

    def test_narrower_cone_reports_dual_not_subset(self):
        c, g = FutureCone(self.NARROW, self.T), minkowski_form(1)
        rep = self_duality_report(c, g, 50, 3)
        assert rep == _ref_self_duality_report(c, g, 50, 3)
        assert not rep.holds and rep.direction == "dual_not_subset_F"
        assert dual_contains(c, g, rep.witness) and not contains(c, rep.witness)

    def test_wider_cone_reports_f_not_subset_dual(self):
        c, g = FutureCone(self.WIDE, self.T), minkowski_form(1)
        rep = self_duality_report(c, g, 50, 3)
        assert rep == _ref_self_duality_report(c, g, 50, 3)
        assert not rep.holds and rep.direction == "F_not_subset_dual"
        assert contains(c, rep.witness) and not dual_contains(c, g, rep.witness)
        # (1, 9/10) is in F, and <(1, 9/10), (1/2, 1)>_g = -2/5 with (1/2, 1) in F
        v = vec(1, F(9, 10))
        assert contains(c, v) and contains(c, vec(F(1, 2), 1)) and not dual_contains(c, g, v)

    def test_skipped_only_for_the_same_form(self, monkeypatch):
        calls, real = [], cone_module.dual_contains
        monkeypatch.setattr(cone_module, "dual_contains", lambda *a: calls.append(a[2]) or real(*a))
        # two GramForm objects with one std
        rep = self_duality_report(FutureCone(minkowski_form(1), self.T), minkowski_form(1), 30, 5)
        assert rep == SelfDualityReport(True, None, 30) and calls == []
        # std = diag(1, -1/4): a wider cone, not self-dual; one probe per sample
        wide = FutureCone(_scaled_form(FRAME2), self.T)
        rep = self_duality_report(wide, minkowski_form(1), 30, 5)
        assert rep == _ref_self_duality_report(wide, minkowski_form(1), 30, 5)
        assert not rep.holds and rep.direction == "F_not_subset_dual"
        assert len(calls) == rep.samples_checked

    @pytest.mark.parametrize("n", [0, 7, -3])
    def test_same_form_draws_no_sample(self, n, monkeypatch):
        """Self-dual by reverse Cauchy-Schwarz: the report holds with the
        requested count, and no sample is drawn."""
        calls, real = [], cone_module.sample_future_causal
        monkeypatch.setattr(cone_module, "sample_future_causal", lambda *a: calls.append(a) or real(*a))
        c = FutureCone(minkowski_form(1), self.T)
        assert self_duality_report(c, minkowski_form(1), n, 5) == SelfDualityReport(True, None, len(range(n)))
        assert calls == []
        # a form with another std draws one sample per trial, up to its witness
        rep = self_duality_report(FutureCone(_scaled_form(FRAME2), self.T), minkowski_form(1), 3, 5)
        assert len(calls) == rep.samples_checked <= 3

    @pytest.mark.parametrize("samples", [0, 7, -3])
    @pytest.mark.parametrize("scale, t", [(3, (1, 0)), (F(1, 2), (1, 0)), (1, (2, 0)), (F(2, 3), (-5, 3))])
    def test_positive_multiple_draws_no_sample(self, scale, t, samples, monkeypatch):
        """S = k G, k > 0, for any timelike t, past-directed too: self-dual
        by the theorem, with no sample and no unit t."""
        calls, real = [], cone_module.sample_future_causal
        monkeypatch.setattr(cone_module, "sample_future_causal", lambda *a: calls.append(a) or real(*a))
        g = minkowski_form(1)
        c = FutureCone(GramForm(g.basis, SymMatrix([[scale, 0], [0, -scale]])), vec(*t))
        assert self_duality_report(c, g, samples, 5) == SelfDualityReport(True, None, len(range(samples)))
        assert calls == []

    def test_same_form_keeps_the_errors(self):
        c = FutureCone(minkowski_form(1), self.T)
        with pytest.raises(TypeError):
            self_duality_report(c, minkowski_form(1), 2.0, 5)
        # t = (2, 0) is not a unit vector, and the theorem needs none
        c2 = FutureCone(minkowski_form(1), vec(2, 0))
        assert self_duality_report(c2, minkowski_form(1), 3, 5) == SelfDualityReport(True, None, 3)
        # another form samples on g's frame of t: <t, t>_g = 8 has no rational
        # root, and t = (1, 1) is g-null.  With no frame the theorem's "no"
        # comes without a witness, and a count that is no int still raises
        for form, t in [(self.NARROW, vec(3, 1)), (_scaled_form(FRAME2), vec(1, 1))]:
            c3 = FutureCone(form, t)
            assert self_duality_report(c3, minkowski_form(1), 3, 5) == SelfDualityReport(False, None, 0)
            with pytest.raises(TypeError):
                self_duality_report(c3, minkowski_form(1), 2.0, 5)

    # derandomized: the examples are the same on every run.  The witness is
    # a sampled probe: a form within a few percent of a multiple of g's
    # leaves it a thin band of the g-future cone, and about one form in a
    # thousand of this strategy needs more than 50 samples
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(future_forms(), st.integers(0, 2**32), st.data())
    def test_dual_rule_and_witness(self, form, seed, data):
        """dual_contains is the rule S^-1 G v in F on causal v, and a form
        that is not a positive multiple of g's reports its witness within
        50 samples: a vector in exactly one of F and F*."""
        n = form.dim
        g, c = minkowski_form(n - 1), FutureCone(form, Vector.unit(n, 0))
        rng = random.Random(seed)
        vs = [sample_future_causal(minkowski_frame(n - 1), rng) for _ in range(6)]
        vs += [-v for v in vs] + [Vector.unit(n, 0) + Vector.unit(n, i) for i in range(1, n)] + [Vector.zero(n)]
        entry = st.fractions(min_value=-6, max_value=6, max_denominator=5)
        vs += [Vector(data.draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(3)]
        for v in vs:
            assert _outcome(dual_contains, c, g, v) == _outcome(_ref_dual_contains, c, g, v)
        rep = self_duality_report(c, g, 50, seed)
        assert rep == _ref_self_duality_report(c, g, 50, seed)
        if _ref_positive_multiple(form.std, g.std):
            assert rep.holds
        else:
            assert not rep.holds and rep.witness is not None
            in_dual = _ref_dual_contains(c, g, rep.witness)
            assert in_dual != contains(c, rep.witness)
            assert rep.direction == ("dual_not_subset_F" if in_dual else "F_not_subset_dual")


class TestSignatureKeptOnForm:
    def test_one_elimination_per_form(self, monkeypatch):
        calls, real = [], lorentz_module._exact_signature
        monkeypatch.setattr(lorentz_module, "_exact_signature", lambda m: calls.append(m) or real(m))
        form = GramForm([vec(1, 0, 0), vec(1, 1, 0), vec(0, 1, 1)], lorentz_module._minkowski_matrix(3))
        t = vec(1, 0, 0)
        LorentzFrame(form, t)
        c = FutureCone(form, t)
        assert all(is_proper(c) for _ in range(3))
        assert calls == [form.gram]
        # a SymMatrix is classified anew on every call
        assert classify(form) == classify(form.gram) == classify(form.gram)
        assert calls == [form.gram] * 3
