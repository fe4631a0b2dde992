import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conekit.cone as cone_module
from conekit.cone import (
    MAX_EXACT_P,
    FutureCone,
    Orthant,
    PCone,
    Polyhedral,
    Properness,
    contains,
    dual_contains,
    h_description,
    in_core,
    is_proper,
    leq,
    null_rays_2d,
    sample_future_causal,
    self_duality_report,
)
from conekit.errors import DimensionMismatch, NotCausal, NotLorentzian, NotMember, UnsupportedFamily
from conekit.lorentz import GramForm, minkowski_form, minkowski_frame
from conekit.numerics import SymMatrix, Vector, exact_rank, exact_solve, lp_nonneg_solve


def vec(*xs):
    return Vector([F(x) for x in xs])


MINK2 = minkowski_form(1)
FUT2 = FutureCone(MINK2, vec(1, 0))


class TestContains:
    def test_polyhedral_interior(self):
        c = Polyhedral([vec(1, 1), vec(1, -1)])
        assert contains(c, vec(2, 1))  # theta = (3/2, 1/2)

    def test_zero_in_every_cone(self):
        for c in [Polyhedral([vec(1, 1)]), PCone(2, 1), FUT2, Orthant(2)]:
            assert contains(c, Vector.zero(c.ambient_dim))

    def test_pcone_outside(self):
        assert not contains(PCone(2, 2), vec(1, 2, 2))  # 1 < sqrt(8)

    def test_pcone_boundary_exact(self):
        assert contains(PCone(2, 1), vec(1, 1))
        assert contains(PCone(1, 2), vec(3, 2, 1))
        assert not contains(PCone(1, 2), vec(3, 2, F(3, 2)))

    def test_pcone_inf(self):
        import math

        assert contains(PCone(math.inf, 2), vec(2, 2, -2))
        assert not contains(PCone(math.inf, 2), vec(2, 3, 0))

    # the 16 integer solutions of d^3 = a^3 + b^3 + c^3, 0 < a <= b <= c < d < 40
    CUBES = [
        (d, a, b, c)
        for a in range(1, 40)
        for b in range(a, 40)
        for c in range(b, 40)
        for d in range(c + 1, 40)
        if d**3 == a**3 + b**3 + c**3
    ]

    def test_pcone3_exact_boundary(self):
        assert len(self.CUBES) == 16
        c = PCone(3, 3)
        for point in self.CUBES:
            for scale in (1, 3, 7, 10):
                x = Vector([F(t, scale) for t in point])
                assert contains(c, x) and not in_core(c, x), x
                # just outside along x0
                assert not contains(c, x - Vector([F(1, 10**30), 0, 0, 0]))

    def test_pcone_non_integer_p(self):
        c = PCone(F(3, 2), 2)
        # max |x_i| < x0 < sum |x_i|: only the p-th powers decide
        with pytest.raises(UnsupportedFamily):
            contains(c, vec(3, 2, 2))
        with pytest.raises(UnsupportedFamily):
            contains(PCone(2.5, 2), vec(3, 2, 2))
        # outside that band max |x_i| <= |x|_p <= sum |x_i| decides every p
        assert in_core(c, vec(3, 1, 1)) and in_core(c, vec(4, 2, 2))
        assert not contains(c, vec(2, 2, 1)) and not contains(c, vec(2, -2, 2))
        # at most one nonzero spatial coordinate: |x|_p = max |x_i| for every p
        assert contains(c, vec(2, 0, -2)) and not in_core(c, vec(2, 0, -2))
        assert in_core(c, vec(2, 1, 0)) and not contains(c, vec(1, 0, 2))
        # a negative x0 is outside for every p
        assert not contains(c, vec(-1, 1, 1))

    @pytest.mark.parametrize("p", [MAX_EXACT_P + 1, 10**300, F(10**300 + 1, 2)])
    def test_pcone_p_above_cap(self, p):
        """x0^p is never built for p > MAX_EXACT_P: the brackets decide
        what they can, and the band raises at once."""
        c = PCone(p, 2)
        with pytest.raises(UnsupportedFamily):
            contains(c, vec(3, 2, 2))
        assert in_core(c, vec(4, 2, 2)) and not contains(c, vec(2, 2, 1))
        assert contains(c, vec(2, 2, 0)) and not in_core(c, vec(2, 2, 0))

    def test_pcone_p_at_cap(self):
        # |(1000, 1000)|_128 = 1000 * 2^(1/128), between 1005 and 1006
        assert MAX_EXACT_P == 128
        c = PCone(128, 2)
        assert in_core(c, vec(1006, 1000, 1000)) and not contains(c, vec(1005, 1000, -1000))

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([1, 2, 3, 4, 5, 6, 3.0]),
        st.lists(st.just(F(0)) | st.fractions(min_value=-4, max_value=4, max_denominator=8), min_size=1, max_size=4),
        st.integers(-2, 2),
    )
    def test_pcone_integer_p_matches_fractions(self, p, spatial, shift):
        """contains and in_core against x0^p vs sum |x_i|^p on Fractions, on
        points at, just inside and just outside x0 = max |x_i|, and random x0."""
        c = PCone(p, len(spatial))
        k = int(p)
        m = max(abs(s) for s in spatial)
        for x0 in (m, m + F(shift, 64), F(shift, 3)):
            x = Vector([x0] + spatial)
            rhs = sum(abs(s) ** k for s in spatial)
            inside = x0 >= 0 and x0**k >= rhs
            assert contains(c, x) == inside
            if inside:
                assert in_core(c, x) == (x0 > 0 and x0**k > rhs)
            else:
                with pytest.raises(NotMember):
                    in_core(c, x)

    def test_future_cone(self):
        assert contains(FUT2, vec(2, 1))
        assert contains(FUT2, vec(1, 1))  # null boundary
        assert not contains(FUT2, vec(-2, 1))
        assert not contains(FUT2, vec(1, 2))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            contains(FUT2, vec(1, 2, 3))


eighths = st.integers(-16, 16).map(lambda k: F(k, 8))


@st.composite
def cones_and_points(draw):
    """Small cones of any rank, and points: generator combinations (some on
    the boundary, with zero coefficients) and arbitrary points."""
    d = draw(st.integers(1, 3))
    gens = draw(st.lists(st.lists(eighths, min_size=d, max_size=d), min_size=1, max_size=5))
    coeffs = draw(st.lists(st.integers(0, 3), min_size=len(gens), max_size=len(gens)))
    inside = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(d)]
    other = draw(st.lists(eighths, min_size=d, max_size=d))
    return Polyhedral([Vector(g) for g in gens]), [Vector(inside), Vector(other)]


class TestHDescription:
    def test_lower_dimensional(self):
        d = h_description(Polyhedral([vec(1, 0, 0), vec(0, 1, 0)]))
        assert d.normals == ((0, 1, 0), (1, 0, 0))  # the facets through e1, e2
        assert d.equalities == ((0, 0, 1),)

    def test_built_once_per_cone(self):
        c = Polyhedral([vec(1, 1), vec(1, -1)])
        assert h_description(c) is h_description(c)

    def test_null_rays_2d(self):
        assert null_rays_2d(FUT2).generators == (vec(1, 1), vec(1, -1))
        assert null_rays_2d(FUT2) is null_rays_2d(FUT2)

    @settings(max_examples=200, deadline=None)
    @given(cones_and_points())
    def test_membership_matches_lp(self, problem):
        c, points = problem
        d = h_description(c)
        for x in points:
            by_h = all(sum(a * b for a, b in zip(e, x.coords)) == 0 for e in d.equalities) and all(
                sum(a * b for a, b in zip(h, x.coords)) >= 0 for h in d.normals
            )
            assert by_h == contains(c, x)


class TestFutureConeConstruction:
    def test_t_not_timelike(self):
        for t in (vec(0, 1), vec(1, 1), vec(0, 0)):
            with pytest.raises(NotCausal):
                FutureCone(MINK2, t)

    def test_form_not_lorentzian(self):
        euclid = GramForm([vec(1, 0), vec(0, 1)], SymMatrix([[1, 0], [0, 1]]))
        with pytest.raises(NotLorentzian):
            FutureCone(euclid, vec(1, 0))

    def test_t_dimension(self):
        with pytest.raises(DimensionMismatch):
            FutureCone(MINK2, vec(1, 0, 0))


def _proper_by_generator(c):
    """``is_proper`` on a polyhedral cone by one membership LP per generator."""
    for g in c.generators:
        if not g.is_zero() and contains(c, -g):
            return Properness(False, g)
    return Properness(True)


@st.composite
def cones_for_properness(draw):
    """Polyhedral cones of dimension 1 to 4, pointed or not, with zero,
    duplicate and parallel generators and lineality pairs g, -g inserted
    anywhere, the last position included."""
    d = draw(st.integers(1, 4))
    gens = draw(st.lists(st.lists(eighths, min_size=d, max_size=d), min_size=1, max_size=5))
    for kind in draw(st.lists(st.sampled_from(["zero", "duplicate", "parallel", "opposite"]), max_size=4)):
        g = draw(st.sampled_from(gens))
        k = draw(st.sampled_from([F(1, 3), 2, 5]))
        new = {"zero": [0] * d, "duplicate": g, "parallel": [k * a for a in g], "opposite": [-k * a for a in g]}[kind]
        gens.insert(draw(st.integers(0, len(gens))), new)
    return Polyhedral([Vector(g) for g in gens])


class TestIsProper:
    def test_future_cone_proper(self):
        assert is_proper(FUT2)

    def test_polyhedral_improper_with_witness(self):
        rep = is_proper(Polyhedral([vec(1, 0), vec(-1, 0)]))
        assert not rep
        assert rep.witness is not None
        w = rep.witness
        assert contains(Polyhedral([vec(1, 0), vec(-1, 0)]), w)
        assert contains(Polyhedral([vec(1, 0), vec(-1, 0)]), -w)

    def test_polyhedral_proper(self):
        assert is_proper(Polyhedral([vec(1, 1), vec(1, -1)]))

    def test_pcone_proper(self):
        assert is_proper(PCone(2, 3))

    def test_all_zero_generators_proper(self):
        assert is_proper(Polyhedral([vec(0, 0), vec(0, 0)])) == Properness(True)

    def test_zero_generator_left_out(self):
        # a zero generator alone would make the Gordan LP feasible
        assert is_proper(Polyhedral([vec(0, 0), vec(1, 1), vec(1, -1)])) == Properness(True)

    def test_lineality_plane_witness_first_in_order(self):
        # lineality space span(e1, e2): e3 is not in it, e1 is the first that is
        c = Polyhedral([vec(0, 0, 1), vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0), vec(-1, -1, 0)])
        assert is_proper(c) == Properness(False, vec(1, 0, 0))

    @settings(max_examples=200, deadline=None)
    @given(cones_for_properness())
    def test_matches_generator_loop(self, c):
        assert is_proper(c) == _proper_by_generator(c)


class TestLeq:
    def test_orthant(self):
        o = Orthant(2)
        assert leq(vec(1, 1), vec(2, 3), o)
        assert not leq(vec(1, 1), vec(0, 5), o)

    def test_future(self):
        assert leq(vec(1, 0), vec(3, 1), FUT2)

    def test_reflexive_transitive(self):
        o = Orthant(3)
        x, y, z = vec(1, 2, 3), vec(2, 2, 4), vec(5, 2, 4)
        assert leq(x, x, o)
        assert leq(x, y, o) and leq(y, z, o) and leq(x, z, o)


class TestInCore:
    def test_future_interior(self):
        assert in_core(FUT2, vec(2, 1))

    def test_future_null_boundary(self):
        assert not in_core(FUT2, vec(1, 1))

    def test_zero_never_core(self):
        for c in [Polyhedral([vec(1, 1), vec(1, -1)]), PCone(2, 1), FUT2]:
            assert not in_core(c, Vector.zero(2))

    def test_not_member(self):
        with pytest.raises(NotMember):
            in_core(FUT2, vec(0, 1))

    @pytest.mark.parametrize("p", [1, 2, math.inf, 3])
    def test_pcone_interior_and_boundary(self, p):
        c = PCone(p, 2)
        for x in [vec(3, 1, 1), vec(1, F(1, 3), F(-1, 3)), vec(F(1, 2), 0, 0)]:
            assert in_core(c, x)
        # boundary points: x0 = |x|_p
        boundary = {1: vec(2, 1, -1), 2: vec(5, 3, 4), math.inf: vec(2, -2, 1), 3: vec(1, 1, 0)}
        assert contains(c, boundary[p]) and not in_core(c, boundary[p])
        assert not in_core(c, vec(0, 0, 0))

    @pytest.mark.parametrize("p", [1, 2, math.inf, 3])
    def test_pcone_half_line(self, p):
        # spatial_dim 0: the half-line x0 >= 0, whose core is x0 > 0
        c = PCone(p, 0)
        assert in_core(c, vec(F(1, 7)))
        assert not in_core(c, vec(0))

    def test_polyhedral(self):
        c = Polyhedral([vec(1, 1), vec(1, -1)])
        assert in_core(c, vec(2, 0))
        assert not in_core(c, vec(1, 1))
        # no cutoff: interior points arbitrarily close to a facet
        quadrant = Polyhedral([vec(1, 0), vec(0, 1)])
        assert in_core(quadrant, Vector([F(1), F(1, 2**22)]))
        assert in_core(quadrant, Vector([F(1), F(1, 2**60)]))
        # non-pointed half-plane: the core is y > 0
        half_plane = Polyhedral([vec(1, 0), vec(-1, 0), vec(0, 1)])
        assert in_core(half_plane, vec(0, 1))
        assert not in_core(half_plane, vec(1, 0))
        # a lower-dimensional cone has no core
        assert not in_core(Polyhedral([vec(1, 0, 0), vec(0, 1, 0)]), vec(1, 1, 0))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_polyhedral_square_matches_solve(self, data):
        """On a square cone, x = G theta is in the core iff theta > 0."""
        n = data.draw(st.integers(1, 5))
        entry = st.one_of(st.just(F(0)), st.fractions(min_value=-4, max_value=4, max_denominator=5))
        coeff = st.one_of(
            st.just(F(0)),
            st.integers(1, 64).map(lambda k: F(1, 2**k)),
            st.fractions(min_value=0, max_value=4, max_denominator=7),
        )
        gens = [data.draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
        theta = data.draw(st.lists(coeff, min_size=n, max_size=n))
        rows = [[g[i] for g in gens] for i in range(n)]  # columns = generators
        x = Vector([sum(r[j] * theta[j] for j in range(n)) for r in rows])
        sol = exact_solve(rows, list(x.coords))
        expected = sol is not None and all(t > 0 for t in sol)
        assert in_core(Polyhedral([Vector(g) for g in gens]), x) == expected

    @settings(max_examples=200, deadline=None)
    @given(cones_and_points(), st.lists(eighths, min_size=1, max_size=4))
    def test_matches_membership_first(self, problem, other):
        """Non-members, boundary points, rank-deficient cones and a point of
        any dimension: the same value, or the same exception type."""
        c, points = problem
        for x in points + [Vector(other)]:
            assert _outcome(in_core, c, x) == _outcome(_core_after_membership, c, x)

    @pytest.mark.parametrize("x", [vec(1, 2), vec(0, 1), vec(2, 2, 1), vec(-1, 0, 0)])
    def test_orthant_matches_membership_first(self, x):
        c = Orthant(3)
        assert _outcome(in_core, c, x) == _outcome(_core_after_membership, c, x)


def _core_after_membership(c, x):
    """``in_core`` on a polyhedral cone or an orthant with membership
    decided first, then the rank, then the core LP."""
    if not contains(c, x):
        raise NotMember(f"{x!r} is not in the cone")
    if isinstance(c, Orthant):
        return all(v > 0 for v in x.coords)
    gens = [g._nums for g in c.generators]
    if exact_rank(gens) < c.ambient_dim:
        return False
    xs = x._nums
    a = [[g[i] for g in gens] + [-xs[i]] for i in range(c.ambient_dim)]
    b = [xs[i] - sum(g[i] for g in gens) for i in range(c.ambient_dim)]
    return lp_nonneg_solve(a, b) is not None


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as e:
        return type(e)


class TestLPCount:
    """One LP for a pointed cone's properness and for a core point."""

    @pytest.fixture
    def lp_calls(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return lp_nonneg_solve(*args, **kwargs)

        monkeypatch.setattr(cone_module, "lp_nonneg_solve", spy)
        return calls

    # eight rays around the axis (4, 0, 0): a pointed, full cone in R^3
    OCTAGON = Polyhedral(
        [vec(4, a, b) for a, b in [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]]
    )

    def test_pointed_cone_properness_is_one_lp(self, lp_calls):
        assert is_proper(self.OCTAGON)
        assert len(lp_calls) == 1

    def test_core_point_is_one_lp(self, lp_calls):
        assert in_core(self.OCTAGON, vec(4, 0, 0))
        assert len(lp_calls) == 1


class TestDualContains:
    def test_polyhedral_dual(self):
        c = Polyhedral([vec(1, 0), vec(1, 1)])
        assert dual_contains(c, MINK2, vec(1, -1))
        # the dual is strictly larger: (1,-1) is not a member
        assert not contains(c, vec(1, -1))

    def test_t_in_dual(self):
        assert dual_contains(FUT2, MINK2, vec(1, 0))

    def test_not_causal(self):
        with pytest.raises(NotCausal):
            dual_contains(FUT2, MINK2, vec(1, 2))


class TestSelfDuality:
    def test_minkowski_r3_self_dual(self):
        form = minkowski_form(2)
        cone = FutureCone(form, Vector([F(1), F(0), F(0)]))
        rep = self_duality_report(cone, form, samples=500, seed=11)
        assert rep.holds

    def test_strict_subcone_fails(self):
        rep = self_duality_report(
            Polyhedral([vec(1, 0), vec(1, 1)]), MINK2, samples=500, seed=11
        )
        assert not rep.holds
        assert rep.witness is not None

    def test_zero_samples_vacuous(self):
        rep = self_duality_report(FUT2, MINK2, samples=0, seed=0)
        assert rep.holds and rep.samples_checked == 0


class TestConvexClosure:
    def test_random_nonneg_combinations(self):
        rng = random.Random(4)
        frame = minkowski_frame(2)
        cone = FutureCone(frame.form, frame.t)
        for _ in range(50):
            x = sample_future_causal(frame, rng)
            y = sample_future_causal(frame, rng)
            a = F(rng.randint(0, 16), 4)
            b = F(rng.randint(0, 16), 4)
            assert contains(cone, x.scale(a) + y.scale(b))

    def test_future_properness_pointwise(self):
        rng = random.Random(5)
        frame = minkowski_frame(1)
        cone = FutureCone(frame.form, frame.t)
        for _ in range(50):
            x = sample_future_causal(frame, rng)
            if contains(cone, -x):
                assert x.is_zero()
