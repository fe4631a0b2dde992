import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conekit import cone as cone_module
from conekit import extension, lorentz
from conekit.cone import FutureCone, PCone, Polyhedral, contains, h_description, sample_future_causal
from conekit.errors import BallNotContained, DimensionMismatch, DimTooLarge, Infeasible, NotLorentzian, UnsupportedFamily
from conekit.errors import PreconditionFailed
from conekit.extension import (
    CoordBaseNorm,
    ExtensionProblem,
    WickBaseNorm,
    equivalence_constant,
    extended_norm,
    grid_oracle,
)
from conekit.lorentz import GramForm, LorentzFrame, decompose, minkowski_frame, wick_norm
from conekit.numerics import SymMatrix, Vector, exact_det, exact_rank, exact_solve


def vec(*xs):
    return Vector([F(x) for x in xs])


FRAME = minkowski_frame(1)
CONE = FutureCone(FRAME.form, FRAME.t)
WICK = WickBaseNorm(FRAME)


def fut_problem(x, **kw):
    return ExtensionProblem(CONE, WICK, x, **kw)


# A Wick norm that is not Euclidean: the frame vector (3/2, 1, 1/2) of R^{1,2}
TILTED_WICK = WickBaseNorm(LorentzFrame(minkowski_frame(2).form, vec(F(3, 2), 1, F(1, 2))))
PYRAMID = Polyhedral([vec(1, 1, 1), vec(1, -1, 1), vec(-1, 1, 1), vec(-1, -1, 1)])
FIVE = Polyhedral([vec(1, 0, 1), vec(F(1, 2), 1, 1), vec(-1, F(1, 4), 1), vec(F(-1, 2), -1, 1), vec(1, -1, 2)])
PLANE = Polyhedral([vec(1, 0, 1), vec(0, 1, 1), vec(1, 1, 2)])  # a 2-D cone in R^3
WEDGE = Polyhedral([vec(1, 0, 0), vec(-1, 0, 0), vec(0, 1, 1), vec(0, -1, 1)])  # not pointed
# Golden values: the least of 60 SLSQP starts (scipy) on the (theta, phi)
# formulation, whose equality constraints are restricted to the range of G.
OVERCOMPLETE_3D_GOLDEN = [
    (PYRAMID, CoordBaseNorm("l2"), (0.5, 2.0, 0.0), 2.872281323269),
    (PYRAMID, TILTED_WICK, (0.5, 2.0, 0.0), 3.167908627303),
    (FIVE, CoordBaseNorm("l2"), (-1.25, 0.75, -0.5), 2.386191472842),
    (FIVE, TILTED_WICK, (2.0, -1.5, 0.25), 6.999281918521),
    (PLANE, CoordBaseNorm("l2"), (1.0, -1.0, 0.0), 2.828427124746),
    (PLANE, TILTED_WICK, (0.5, -1.5, -1.0), 4.531371416381),
    (WEDGE, CoordBaseNorm("l2"), (0.5, 2.0, -1.0), 2.872281323269),
]


class TestExtendedNorm:
    def test_spacelike_unit(self):
        res = extended_norm(fut_problem(Vector([0.0, 1.0])))
        assert res.value == pytest.approx(math.sqrt(2), abs=1e-3)

    def test_agrees_on_cone(self):
        res = extended_norm(fut_problem(Vector([2.0, 1.0])))
        assert res.value == pytest.approx(math.sqrt(5), abs=1e-3)

    def test_zero(self):
        res = extended_norm(fut_problem(Vector([0.0, 0.0])))
        assert res.value == pytest.approx(0.0, abs=1e-9)

    def test_timelike_axis(self):
        res = extended_norm(fut_problem(Vector([-3.0, 0.0])))
        assert res.value == pytest.approx(3.0, abs=1e-3)

    def test_polyhedral_square(self):
        c = Polyhedral([vec(1, 1), vec(1, -1)])
        res = extended_norm(ExtensionProblem(c, CoordBaseNorm("l2"), Vector([2.0, 1.0])))
        o = grid_oracle(ExtensionProblem(c, CoordBaseNorm("l2"), Vector([2.0, 1.0])))
        assert res.value == pytest.approx(o, abs=3e-3)

    def test_polyhedral_overcomplete(self):
        # three generators in the plane: the non-square solver path
        c = Polyhedral([vec(1, 1), vec(1, 0), vec(1, -1)])
        p = ExtensionProblem(c, CoordBaseNorm("l2"), Vector([0.0, 1.0]))
        res = extended_norm(p)
        assert res.value == pytest.approx(grid_oracle(p), abs=3e-3)

    def test_witnesses_decompose(self):
        res = extended_norm(fut_problem(Vector([0.0, 1.0])))
        diff = res.u - res.v
        assert diff.coords[0] == pytest.approx(0.0, abs=1e-6)
        assert diff.coords[1] == pytest.approx(1.0, abs=1e-6)

    def test_future2d_builds_no_frame(self, monkeypatch):
        builds = []
        init = lorentz.LorentzFrame.__init__

        def counting_init(frame, *args):
            builds.append(frame)
            init(frame, *args)

        monkeypatch.setattr(lorentz.LorentzFrame, "__init__", counting_init)
        rng = random.Random(4)
        for i in range(50):
            x = Vector([rng.uniform(-3, 3), rng.uniform(-3, 3)])
            extended_norm(ExtensionProblem(CONE, CoordBaseNorm(("l1", "l2", "linf")[i % 3]), x))
        assert builds == []

    def test_future2d_needs_lorentz_frame(self):
        # a Euclidean form is rejected when the cone is built
        euclid = GramForm([vec(1, 0), vec(0, 1)], SymMatrix([[F(1), F(0)], [F(0), F(1)]]))
        with pytest.raises(NotLorentzian):
            FutureCone(euclid, vec(1, 0))

    @pytest.mark.parametrize("kind, want", [("l1", 2.0), ("l2", math.sqrt(2)), ("linf", 1.0)])
    def test_future2d_non_unit_t(self, kind, want):
        # t = (2, 0) has no frame, but the cone is that of t = (1, 0): the
        # same null rays, so the same values, and the same split, so the same oracle
        x = Vector([0, 1])
        unit, scaled = (ExtensionProblem(FutureCone(FRAME.form, vec(k, 0)), CoordBaseNorm(kind), x) for k in (1, 2))
        assert extended_norm(scaled).value == extended_norm(unit).value == pytest.approx(want, rel=1e-15)
        assert grid_oracle(scaled) == grid_oracle(unit)

    @pytest.mark.parametrize("kind", ["l2", "linf"])
    def test_future3d_non_unit_t_oracle(self, kind):
        # the oracle's box comes from the split in the future of t itself:
        # t = (2, 0, 0) splits x as t = (1, 0, 0) does, to the same value
        x = Vector([0, 1, 0])
        unit, scaled = (ExtensionProblem(FutureCone(minkowski_frame(2).form, vec(k, 0, 0)), CoordBaseNorm(kind), x) for k in (1, 2))
        assert grid_oracle(scaled) == grid_oracle(unit)

    @pytest.mark.parametrize("norm", [CoordBaseNorm("l1"), CoordBaseNorm("l2"), CoordBaseNorm("linf"), WICK], ids=["l1", "l2", "linf", "wick"])
    def test_zero_cone(self, norm):
        res = extended_norm(ExtensionProblem(Polyhedral([vec(0, 0)]), norm, vec(0, 0)))
        assert res.value == 0.0 and res.u == res.v == vec(0, 0)

    @pytest.mark.parametrize("kind, want", [("l1", 1.5), ("l2", math.sqrt(1.25)), ("linf", 1.0)])
    def test_polyhedral_collinear_generators(self, kind, want):
        # the generators span a line and the target lies on it: n~(x) = n(x)
        c = Polyhedral([vec(1, F(1, 2)), vec(2, 1), vec(3, F(3, 2))])
        res = extended_norm(ExtensionProblem(c, CoordBaseNorm(kind), Vector([1.0, 0.5])))
        assert res.value == pytest.approx(want, abs=1e-6)
        assert (res.u - res.v).coords == pytest.approx((1.0, 0.5), abs=1e-9)

    def test_overcomplete_3d_ignores_max_iters(self):
        # l2 on an overcomplete 3-D cone is solved on its faces: u = (0, 3/4, 3/4)
        x = Vector([0.0, 1.0, 0.5])
        for kw in ({"max_iters": 1}, {}):
            res = extended_norm(ExtensionProblem(PYRAMID, CoordBaseNorm("l2"), x, **kw))
            assert res.value == pytest.approx(math.sqrt(2), abs=1e-12)
            assert res.iterations == 0 and res.converged is True

    def test_overcomplete_2d_l2_pinned(self):
        # the square cone on the extreme rays (1, 0), (1, -3/8): u = (8/3, 0)
        c = Polyhedral([vec(1, 0), vec(1, F(-1, 8)), vec(1, F(-3, 8))])
        res = extended_norm(ExtensionProblem(c, CoordBaseNorm("l2"), Vector([0.0, 1.0])))
        assert res.value == pytest.approx((8 + math.sqrt(73)) / 3, abs=1e-9)
        assert res.iterations == 0 and res.converged is True

    @pytest.mark.parametrize(
        "x", [(4.643179252925446, 1.5477264176418153), (-1.42971154504479, -0.47657051501493)]
    )
    def test_collinear_seed_is_exact(self, x):
        # x lies on the line of the generators in binary; a seed rounded to
        # denominators <= 10^9 falls off it and the LP reported Infeasible
        assert F(x[0]) == 3 * F(x[1])
        c = Polyhedral([vec(3, 1), vec(6, 2)])
        res = extended_norm(ExtensionProblem(c, CoordBaseNorm("l2"), Vector(list(x))))
        assert res.value == pytest.approx(math.hypot(*x), rel=1e-9)

    def test_closed_form_result_fields(self):
        res = extended_norm(fut_problem(Vector([0.0, 1.0])))
        assert res.iterations == 0 and res.converged is True

    @pytest.mark.parametrize(
        "cone, norm",
        [
            (Polyhedral([vec(1, 1), vec(1, -1)]), CoordBaseNorm("l2")),
            (Polyhedral([vec(1, 1), vec(1, -1)]), WICK),
            (CONE, CoordBaseNorm("l2")),
            (CONE, CoordBaseNorm("l1")),
            (Polyhedral([vec(1, 1), vec(1, 0), vec(1, -1)]), CoordBaseNorm("l1")),
            (Polyhedral([vec(1, 1), vec(1, 0), vec(1, -1)]), CoordBaseNorm("linf")),
            (PYRAMID, CoordBaseNorm("l2")),
            (PYRAMID, TILTED_WICK),
            (Polyhedral([vec(1, 0, 0), vec(0, 1, 0)]), CoordBaseNorm("l2")),
        ],
    )
    def test_finite_solvers_do_not_iterate(self, cone, norm):
        x = Vector([0.5, 2.0, 0.0][: cone.ambient_dim])
        res = extended_norm(ExtensionProblem(cone, norm, x, max_iters=1))
        assert res.iterations == 0 and res.converged is True

    @pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
    def test_lower_dimensional_cone(self, kind):
        # cone(e1, e2) in R^3: u in F and u - x in F force u = (1, 0, 0)
        p = ExtensionProblem(Polyhedral([vec(1, 0, 0), vec(0, 1, 0)]), CoordBaseNorm(kind), Vector([1.0, -1.0, 0.0]))
        assert extended_norm(p).value == pytest.approx(2.0, abs=1e-9)
        assert grid_oracle(p) == pytest.approx(2.0, abs=3e-3)

    def test_target_outside_span(self):
        p = ExtensionProblem(Polyhedral([vec(1, 0, 0), vec(0, 1, 0)]), CoordBaseNorm("l2"), Vector([1.0, 0.0, 0.5]))
        with pytest.raises(Infeasible):
            extended_norm(p)

    @pytest.mark.parametrize("fn", [extended_norm, grid_oracle])
    @pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
    @pytest.mark.parametrize("x", [[1.0], [1.0, 2.0, 3.0]])
    def test_target_dimension_mismatch(self, fn, kind, x):
        with pytest.raises(DimensionMismatch):
            fn(ExtensionProblem(Polyhedral([vec(1, 0), vec(0, 1)]), CoordBaseNorm(kind), Vector(x)))

    @pytest.mark.parametrize(
        "call",
        [
            lambda cone, norm, x: extended_norm(ExtensionProblem(cone, norm, x)),
            lambda cone, norm, x: grid_oracle(ExtensionProblem(cone, norm, x)),
            lambda cone, norm, x: equivalence_constant(cone, norm, x, 0.5),
        ],
        ids=["extended_norm", "grid_oracle", "equivalence_constant"],
    )
    @pytest.mark.parametrize("cone", [Polyhedral([vec(1, 1), vec(1, -1)]), CONE], ids=["polyhedral", "future"])
    def test_base_norm_dimension_mismatch(self, call, cone):
        # a Wick norm on R^3 with a cone and a target in R^2
        with pytest.raises(DimensionMismatch):
            call(cone, WickBaseNorm(minkowski_frame(2)), vec(1, 0))

    @pytest.mark.parametrize("cone, norm, x, want", OVERCOMPLETE_3D_GOLDEN)
    def test_overcomplete_3d_pinned(self, cone, norm, x, want):
        res = extended_norm(ExtensionProblem(cone, norm, Vector(list(x))))
        assert res.value == pytest.approx(want, abs=1e-9)
        assert (res.u - res.v).coords == pytest.approx(x, abs=1e-12)

    @pytest.mark.parametrize(
        "m, stage, module, enumerator, calls_before",
        [
            # C(100, 2) = 4950 facet-search subsets; one null space for E
            (100, "facet search", cone_module, "exact_null_space", 1),
            # 32 facets: sum_{j <= 3} C(32, j) = 5489 face subsets
            (32, "face enumeration", extension, "combinations", 0),
        ],
        ids=["100-facet search-exact_null_space-1", "32-face enumeration-extension.combinations-0"],
    )
    def test_work_cap_trips_before_enumerating(self, monkeypatch, m, stage, module, enumerator, calls_before):
        calls = []
        original = getattr(module, enumerator)
        monkeypatch.setattr(module, enumerator, lambda *a: calls.append(a) or original(*a))
        with pytest.raises(DimTooLarge, match=f"{stage} needs .* above MAX_SUBSETS"):
            extended_norm(ExtensionProblem(_moment_curve_cone(m), CoordBaseNorm("l2"), Vector([1.0, 0.0, 0.0])))
        assert len(calls) == calls_before

    def test_face_cap_is_the_solver_s_alone(self):
        # the 32 facets are read, but only the face solver enumerates their subsets
        c, s = _moment_curve_cone(32), vec(1, F(1, 2), F(1, 3))
        k = equivalence_constant(c, CoordBaseNorm("l2"), s, 0.01)
        assert k == pytest.approx(2 * (7 / 6) / 0.01 + 1, rel=1e-12)
        assert len(h_description(c).normals) == 32


def _moment_curve_cone(m):
    """Generators on the moment curve (1, t, t^2): all m are extreme rays and facets."""
    return Polyhedral([vec(1, F(k, m), F(k * k, m * m)) for k in range(m)])


FRAMES = {d: minkowski_frame(d - 1) for d in range(2, 7)}
CONES = {d: FutureCone(f.form, f.t) for d, f in FRAMES.items()}
WICKS = {d: WickBaseNorm(f) for d, f in FRAMES.items()}


def _solve(x: Vector):
    return extended_norm(ExtensionProblem(CONES[x.dim], WICKS[x.dim], x))


exact_targets = st.integers(2, 6).flatmap(
    lambda d: st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=50), min_size=d, max_size=d
    )
).map(Vector)
float_targets = st.integers(2, 6).flatmap(
    lambda d: st.lists(
        st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=d, max_size=d
    )
).map(Vector)


class TestClosedFormProperties:
    """The future cone with the Wick norm: n~ = n_W on causal x, sqrt(2) n(w) else."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(exact_targets, float_targets))
    def test_value_witnesses_and_axioms(self, x):
        frame = FRAMES[x.dim]
        res = _solve(x)
        if frame.inner(x, x) >= 0:
            want = wick_norm(frame, x)
        else:
            want = math.sqrt(2) * wick_norm(frame, decompose(frame, x).w)
        assert res.value == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert res.u - res.v == x
        assert contains(CONES[x.dim], res.u) and contains(CONES[x.dim], res.v)
        norm = WICKS[x.dim]
        nu_nv = norm.value(np.array(res.u.as_floats())) + norm.value(np.array(res.v.as_floats()))
        assert res.value == pytest.approx(nu_nv, rel=1e-12, abs=1e-12)
        assert _solve(-x).value == pytest.approx(res.value, rel=1e-12, abs=1e-12)
        assert _solve(x.scale(2)).value == pytest.approx(2 * res.value, rel=1e-12, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 6),
        st.integers(1, 20),
        st.integers(0, 20),
        st.sampled_from((1, -1)),
        st.sampled_from((1, -1)),
    )
    def test_null_targets(self, d, m, n, time_sign, space_sign):
        # (m^2 + n^2, m^2 - n^2, 2mn) is null; in 2-D only (a, +-a) is
        if d == 2:
            x = vec(time_sign * m, space_sign * m)
        else:
            spatial = [m * m - n * n, 2 * m * n] + [0] * (d - 3)
            x = vec(time_sign * (m * m + n * n), *[space_sign * c for c in spatial])
        frame = FRAMES[d]
        assert frame.inner(x, x) == 0
        alpha = float(frame.inner(x, frame.t))
        res = _solve(x)
        assert res.value == pytest.approx(math.sqrt(2) * abs(alpha), rel=1e-12)
        assert wick_norm(frame, x) == pytest.approx(res.value, rel=1e-12)
        assert math.sqrt(2) * wick_norm(frame, decompose(frame, x).w) == pytest.approx(
            res.value, rel=1e-12
        )

    @pytest.mark.parametrize("d", range(2, 7))
    def test_pinned_spacelike(self, d):
        # x = (1/2, 1, ..., 1): n(w) = sqrt(d - 1) > 1/2, so n~(x) = sqrt(2 (d - 1))
        x = vec(F(1, 2), *[1] * (d - 1))
        res = _solve(x)
        assert res.value == pytest.approx(math.sqrt(2 * (d - 1)), rel=1e-14)
        if d == 2:
            p = ExtensionProblem(CONES[2], WICKS[2], Vector([0.5, 1.0]))
            assert grid_oracle(p) == pytest.approx(res.value, abs=3e-3)


class TestClosedFormPrecondition:
    """The closed form is taken only on the Wick norm's own future cone: the
    same form, and a t with <t, frame.t> > 0."""

    # std = diag(1, -4): the future cone |x_1| <= x_0 / 2, inside Minkowski's
    NARROW = FutureCone(GramForm([vec(1, 0), vec(0, F(1, 2))], SymMatrix([[1, 0], [0, -1]])), vec(1, 0))

    def test_narrow_2d_cone_by_its_null_rays(self):
        p = ExtensionProblem(self.NARROW, WICK, vec(0, 1))
        res = extended_norm(p)
        # u = (1, 1/2), v = (1, -1/2) on the cone's null rays: n~ = sqrt(5)
        assert res.value == pytest.approx(math.sqrt(5), rel=1e-12)
        assert res.value == pytest.approx(grid_oracle(p), abs=3e-3)

    def test_past_2d_cone_by_its_null_rays(self):
        past = FutureCone(FRAME.form, vec(-1, 0))
        res = extended_norm(ExtensionProblem(past, WICK, vec(F(1, 2), 1)))
        assert res.value == pytest.approx(math.sqrt(2), rel=1e-12)
        assert res.u.as_floats()[0] <= 0 and res.v.as_floats()[0] <= 0

    def test_other_cone_above_2d_unsupported(self):
        form = minkowski_frame(2).form
        # std = diag(1, -1/4, -1): another form
        wide = GramForm([vec(1, 0, 0), vec(0, 2, 0), vec(0, 0, 1)], form.std)
        for c in (FutureCone(form, vec(-1, 0, 0)), FutureCone(wide, vec(1, 0, 0))):
            with pytest.raises(UnsupportedFamily):
                extended_norm(ExtensionProblem(c, WickBaseNorm(minkowski_frame(2)), vec(0, 1, 0)))

    def test_another_t_of_the_same_orientation(self):
        # TILTED_WICK's frame has t = (3/2, 1, 1/2): the same future cone as t = e_0
        c = FutureCone(minkowski_frame(2).form, vec(1, 0, 0))
        x = vec(F(1, 2), 2, 0)
        res = extended_norm(ExtensionProblem(c, TILTED_WICK, x))
        frame = TILTED_WICK.frame
        want = math.sqrt(2) * wick_norm(frame, decompose(frame, x).w)
        assert res.value == pytest.approx(want, rel=1e-12)
        assert res.u - res.v == x and contains(c, res.u) and contains(c, res.v)


# Obtuse 2-D cones (1, a), (b, 1), whose generators meet at 151-179 degrees.
# Golden values: l1 / linf are the exact minimum over the vertices of the
# arrangement of the objective's kink lines and the box theta >= max(G^-1 x, 0);
# l2 comes from nested golden sections.  Each agreed within 1e-15 with an
# independent LP or Nelder-Mead solve.
OBTUSE_GOLDEN = [
    ("-1/2", "-7/4", (0.25, 0.625), "l1", 0.875),
    ("-3/4", "-3/2", (2.0, 0.25), "l1", 2.25),
    ("-1/8", "-13/8", (-1.75, -2.125), "l1", 3.875),
    ("-15/8", "-1/2", (-1.75, 1.625), "linf", 1.75),
    ("-7/4", "-3/8", (2.875, -1.625), "linf", 2.875),
    ("-15/8", "-3/2", (1.5, -2.25), "linf", 279 / 116),
    ("-1/2", "-7/8", (-2.5, 2.0), "linf", 8 / 3),
    ("-5/8", "-2", (0.75, 1.375), "l2", 1.5662455107677085),
    ("-1", "-7/8", (1.875, -2.0), "l2", 2.742981788964926),
    ("-15/8", "-1/2", (1.5, -2.875), "l2", 3.2430339887498945),
    ("-1/2", "-1", (-2.5, 1.5), "l2", 2.943174758686337),
    ("0", "-15/8", (2.875, -1.0), "l2", 3.125),
]


def _norm(kind, v):
    return {"l1": sum(abs(t) for t in v), "l2": math.hypot(*v), "linf": max(abs(t) for t in v)}[kind]


def _corner_bound(gens, x, kind):
    """n(u) + n(u - x) at u = G max(G^-1 x, 0), a feasible point of a square cone."""
    n = len(gens)
    d = exact_solve([[g[i] for g in gens] for i in range(n)], [F(t) for t in x])
    u = [float(sum(max(t, 0) * g[i] for t, g in zip(d, gens))) for i in range(n)]
    return _norm(kind, u) + _norm(kind, [a - b for a, b in zip(u, x)])


def _in_square_cone(gens, y, tol):
    g = np.array([[float(c) for c in gen] for gen in gens]).T
    return bool(np.all(np.linalg.solve(g, y) >= -tol * (1.0 + np.max(np.abs(y)))))


eighths = st.integers(-16, 16).map(lambda k: F(k, 8))


@st.composite
def square_problems(draw):
    d = draw(st.integers(2, 3))
    gens = draw(
        st.lists(st.lists(eighths, min_size=d, max_size=d), min_size=d, max_size=d).filter(
            lambda g: exact_det(g) != 0
        )
    )
    x = draw(st.lists(st.floats(-3, 3), min_size=d, max_size=d))
    return gens, x, draw(st.sampled_from(("l1", "l2", "linf")))


@st.composite
def overcomplete_problems(draw):
    # 2-D fans of 3-4 generators (1, s); pointed 3-D cones of 4-5 generators
    d = draw(st.integers(2, 3))
    if d == 2:
        gens = [(F(1), s) for s in draw(st.lists(eighths, min_size=3, max_size=4, unique=True))]
    else:
        gen = st.tuples(eighths, eighths, st.integers(1, 16).map(lambda k: F(k, 8)))
        gens = draw(st.lists(gen, min_size=4, max_size=5).filter(lambda g: exact_rank(g) == 3))
    x = draw(st.lists(st.floats(-3, 3), min_size=d, max_size=d))
    return gens, x, draw(st.sampled_from(("l1", "l2", "linf")))


class TestPolyhedralSolvers:
    @pytest.mark.parametrize("a, b, x, kind, want", OBTUSE_GOLDEN)
    def test_obtuse_golden(self, a, b, x, kind, want):
        c = Polyhedral([vec(1, F(a)), vec(F(b), 1)])
        res = extended_norm(ExtensionProblem(c, CoordBaseNorm(kind), Vector(list(x))))
        assert res.value == pytest.approx(want, abs=1e-9)
        assert (res.u - res.v).coords == pytest.approx(x, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(square_problems(), overcomplete_problems()))
    def test_witnesses_and_bounds(self, problem):
        gens, x, kind = problem
        # F is the union of its simplicial subcones (Caratheodory): they
        # decide membership, and each one's corner bounds n~(x) above
        subcones = [s for s in itertools.combinations(gens, len(x)) if exact_det(s) != 0]
        res = extended_norm(ExtensionProblem(Polyhedral([Vector(g) for g in gens]), CoordBaseNorm(kind), Vector(x)))
        u, v = res.u.as_floats(), res.v.as_floats()
        scale = 1.0 + max(abs(t) for t in x)
        assert [a - b for a, b in zip(u, v)] == pytest.approx(x, abs=1e-12 * scale)
        for w in (u, v):
            assert any(_in_square_cone(s, np.array(w), 1e-9) for s in subcones)
        assert res.value == pytest.approx(_norm(kind, u) + _norm(kind, v), rel=1e-12, abs=1e-12)
        assert _norm(kind, x) <= res.value + 1e-12 * scale
        assert res.value <= min(_corner_bound(s, x, kind) for s in subcones) + 1e-9 * scale


class TestGridOracle:
    def test_example_values(self):
        assert grid_oracle(fut_problem(Vector([0.0, 1.0]))) == pytest.approx(
            math.sqrt(2), abs=2e-3
        )
        assert grid_oracle(fut_problem(Vector([2.0, 1.0]))) == pytest.approx(
            math.sqrt(5), abs=2e-3
        )
        assert grid_oracle(fut_problem(Vector([0.0, 0.0]))) == 0.0

    def test_dim_too_large(self):
        frame = minkowski_frame(3)
        cone = FutureCone(frame.form, frame.t)
        with pytest.raises(DimTooLarge):
            grid_oracle(ExtensionProblem(cone, WickBaseNorm(frame), Vector([0.0] * 4)))

    def test_oracle_upper_bounds_infimum(self):
        p = fut_problem(Vector([0.3, 0.9]))
        assert grid_oracle(p) >= extended_norm(p).value - 1e-3

    @pytest.mark.parametrize("gens", [[vec(1)], [vec(1), vec(-1)]], ids=["ray", "line"])
    @pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
    def test_one_dimensional(self, gens, kind):
        # u >= 0 (or any u on the line) and u + 2 >= 0: |u| + |u + 2| >= 2, with equality at u = 0
        p = ExtensionProblem(Polyhedral(gens), CoordBaseNorm(kind), Vector([-2.0]))
        assert extended_norm(p).value == pytest.approx(2.0, abs=1e-12)
        assert grid_oracle(p) == pytest.approx(2.0, abs=1e-9)


class TestMembershipTest:
    @pytest.mark.parametrize("p", [1, 2, 3, math.inf])
    @pytest.mark.parametrize("spatial_dim", [1, 2])
    def test_pcone_matches_contains(self, p, spatial_dim):
        c = PCone(p, spatial_dim)
        pts = [(x0,) + r for x0 in range(-1, 5) for r in itertools.product(range(-3, 4), repeat=spatial_dim)]
        mask = extension._membership_test(c, 1e-12)(np.array(pts, dtype=float))
        assert mask.tolist() == [contains(c, Vector(list(q))) for q in pts]

    def test_pcone_inf_mask(self):
        mask = extension._membership_test(PCone(math.inf, 1), 1e-12)(np.array([[0.5, 0.0], [2.0, 5.0], [3.0, 1.0]]))
        assert mask.tolist() == [True, False, True]


def _per_slice_grid_scan(p, member, x, center, halfwidth, resolution):
    """Reference: the grid scan one x0-slice at a time, with 1-D as a special case."""
    n = p.cone.ambient_dim
    axes = [np.linspace(c - halfwidth, c + halfwidth, resolution) for c in center]
    best = math.inf
    best_pt = None
    rest = np.meshgrid(*axes[1:], indexing="ij") if n > 1 else []
    rest_flat = np.stack([r.ravel() for r in rest], axis=1) if n > 1 else np.zeros((1, 0))
    for x0 in axes[0]:
        pts = np.hstack([np.full((rest_flat.shape[0], 1), x0), rest_flat])
        mask = member(pts) & member(pts - x)
        if not mask.any():
            continue
        feas = pts[mask]
        vals = p.base_norm.values(feas) + p.base_norm.values(feas - x)
        i = int(vals.argmin())
        if vals[i] < best:
            best = float(vals[i])
            best_pt = feas[i]
    return best, best_pt


class TestGridScanBlocks:
    FULL, ZOOM = extension.GRID_RESOLUTION, extension.ZOOM_RESOLUTION

    @pytest.mark.parametrize(
        "cone, norm, x, resolution",
        [
            (Polyhedral([vec(1)]), CoordBaseNorm("l1"), [-2.0], FULL),
            # every u in [-2, 0] ties: the first minimum must win
            (Polyhedral([vec(1), vec(-1)]), CoordBaseNorm("l1"), [-2.0], FULL),
            (CONE, WICK, [0.3, 0.9], FULL),
            # F = R^2: n~(x) = |x|_inf is attained on a parallelogram of u
            # across three blocks, whose first points in x0-major and in
            # x1-major order differ
            (Polyhedral([vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)]), CoordBaseNorm("linf"), [2.0, 1.0], FULL),
            (Polyhedral([vec(1, F(1, 2)), vec(F(1, 2), 1)]), CoordBaseNorm("l2"), [2.0, 1.0], FULL),
            (Polyhedral([vec(1, 1), vec(1, -1)]), CoordBaseNorm("linf"), [-1.0, 2.5], ZOOM),
            (PLANE, CoordBaseNorm("l2"), [1.0, -1.0, 0.0], FULL),
            (PYRAMID, TILTED_WICK, [0.5, 2.0, 0.0], ZOOM),
        ],
    )
    def test_matches_per_slice_scan(self, cone, norm, x, resolution):
        p = ExtensionProblem(cone, norm, Vector(x))
        xf = np.array(x)
        member = extension._membership_test(cone, 1e-12)
        # a step of 2^-5 at 201 points: the tied values are exact
        center, halfwidth = np.zeros(len(x)), 3.125
        best, pt = extension._grid_scan(p, member, xf, center, halfwidth, resolution)
        want_best, want_pt = _per_slice_grid_scan(p, member, xf, center, halfwidth, resolution)
        assert want_pt is not None
        assert best == want_best
        assert pt.tolist() == want_pt.tolist()


def _einsum_member(c, tol):
    """The grid membership test with the three-operand einsum, for future cones."""
    if isinstance(c, FutureCone):
        s, t = np.array(c.form.std.as_floats()), np.array(c.t.as_floats())
        return lambda pts: (np.einsum("ij,jk,ik->i", pts, s, pts) >= -tol) & (pts @ s @ t >= -tol)
    return extension._membership_test(c, tol)


def _einsum_values(norm, pts):
    if isinstance(norm, WickBaseNorm):
        return np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", pts, norm.matrix, pts), 0.0))
    return norm.values(pts)


def _full_mask_oracle(p):
    """Reference: grid_oracle with both membership masks taken on every grid
    point and every quadratic form a three-operand einsum."""
    n = p.cone.ambient_dim
    x = np.array(p.target.as_floats())
    u0, v0 = extension._feasible_decomposition(p.cone, p.target)
    ub = p.base_norm.value(np.array(u0.as_floats())) + p.base_norm.value(np.array(v0.as_floats()))
    if ub == 0.0:
        return 0.0
    halfwidth = p.base_norm.coord_bound(ub) * (1.0 + 8.0 / (extension.GRID_RESOLUTION - 1))
    member = _einsum_member(p.cone, 1e-12)
    center, resolution, best = np.zeros(n), extension.GRID_RESOLUTION, math.inf
    for _ in range(1 + extension.ZOOM_PASSES):
        axes = [np.linspace(c - halfwidth, c + halfwidth, resolution) for c in center]
        rows = max(1, extension.SCAN_BLOCK // resolution ** (n - 1))
        val, pt = math.inf, None
        for a in range(0, resolution, rows):
            pts = np.stack(np.meshgrid(axes[0][a : a + rows], *axes[1:], indexing="ij"), axis=-1).reshape(-1, n)
            feas = pts[member(pts) & member(pts - x)]
            if len(feas):
                vals = _einsum_values(p.base_norm, feas) + _einsum_values(p.base_norm, feas - x)
                i = int(vals.argmin())
                if vals[i] < val:
                    val, pt = float(vals[i]), feas[i]
        if pt is None:
            break
        best = min(best, val)
        center, halfwidth, resolution = pt, 4.0 * halfwidth / (resolution - 1), extension.ZOOM_RESOLUTION
    return best


@st.composite
def random_frames(draw, n):
    """The form diag(1, -1, ..., -1) on a random exact basis B, and t = b_0."""
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n).filter(lambda r: exact_det(r) != 0))
    d = SymMatrix([[int(i == j) * (1 if i == 0 else -1) for j in range(n)] for i in range(n)])
    basis = [Vector(r) for r in rows]
    return LorentzFrame(GramForm(basis, d), basis[0])


@st.composite
def oracle_problems(draw):
    n = draw(st.integers(2, 3))
    if draw(st.booleans()):
        gens = draw(st.lists(st.lists(eighths, min_size=n, max_size=n), min_size=n, max_size=n + 1).filter(lambda g: exact_rank(g) == n))
        cone = Polyhedral([Vector(g) for g in gens])
    else:
        frame = draw(random_frames(n))
        # any timelike t: the oracle's box comes from the split in its future
        k = draw(st.integers(1, 3))
        cone = FutureCone(frame.form, frame.t.scale(k))
    kind = draw(st.sampled_from(("l1", "l2", "linf", "wick")))
    norm = WickBaseNorm(draw(random_frames(n))) if kind == "wick" else CoordBaseNorm(kind)
    x = draw(st.lists(st.floats(-3, 3), min_size=n, max_size=n))
    return ExtensionProblem(cone, norm, Vector(x))


def _independent_faces(normals, k):
    """Reference: the j-subsets (j <= k) of facet indices whose normals are
    linearly independent, level by level, up to the first empty level."""
    faces = [((),)]
    for j in range(1, k + 1):
        level = tuple(
            s + (i,)
            for s in faces[-1]
            for i in range(s[-1] + 1 if s else 0, len(normals))
            if exact_rank([normals[t] for t in s + (i,)]) == j
        )
        if not level:
            break
        faces.append(level)
    return [f for level in faces for f in level]


def _independent_face_solve(desc, x, norm):
    """Reference: the face solver's batch on the independent facet sets only."""
    n = len(x)
    k = n - len(desc.equalities)
    faces = _independent_faces(desc.normals, k)
    r = np.linalg.cholesky(norm.matrix).T if isinstance(norm, WickBaseNorm) else np.eye(n)
    rinv = np.linalg.inv(r)
    h = np.array(desc.normals, dtype=float).reshape(-1, n) @ rinv
    h /= np.linalg.norm(h, axis=1, keepdims=True)
    e = np.array(desc.equalities, dtype=float).reshape(-1, n) @ rinv
    s = math.frexp(float(np.max(np.abs(x))))[1]
    y = r @ np.ldexp(x, -s)
    lo = np.maximum(h @ y, 0.0)
    pad = (len(h),) * k
    idx = np.array([f + pad[len(f) :] for f in faces], dtype=np.intp).reshape(len(faces), k)
    hz, loz = np.vstack([h, np.zeros(n)]), np.append(lo, 0.0)
    m = np.concatenate([np.broadcast_to(e, (len(idx),) + e.shape), hz[idx]], axis=1)
    rhs = np.concatenate([np.zeros((len(idx), len(e))), loz[idx]], axis=1)
    pinv = np.linalg.pinv(m)
    a_pt = (pinv @ rhs[:, :, None])[:, :, 0]
    py = (pinv @ (m @ y)[:, :, None])[:, :, 0]
    a = np.linalg.norm(a_pt, axis=1)
    ab = a + np.linalg.norm(py - a_pt, axis=1)
    t = np.divide(a, ab, out=np.zeros_like(a), where=ab > 0)
    cand = a_pt + t[:, None] * (y - py)
    vals = np.linalg.norm(cand, axis=1) + np.linalg.norm(cand - y, axis=1)
    vals[~np.all(cand @ h.T >= lo - extension._SLACK * vals[:, None], axis=1)] = math.inf
    best = int(np.argmin(vals))
    if vals[best] == math.inf:
        raise Infeasible("no feasible face")
    u = np.ldexp(rinv @ cand[best], s)
    return norm.value(u) + norm.value(u - x)


@st.composite
def face_problems(draw):
    """A Euclidean or Wick norm, a target in the cone's span, and one of:
    a 2-D/3-D cone of n-6 random generators; one of 1-6 integer combinations
    of fewer than n random vectors (lower-dimensional, non-pointed or zero);
    or a random linear image of the 4-D cone on (1, +-e_i).  Only the last
    has dependent facet sets: the normals of a 3-D section are vertices of a
    convex polygon, no three on a line, while the 8 normals (1, +-1, +-1, +-1)
    have 6 coplanar quadruples, the square faces of a cube."""
    kind = draw(st.sampled_from(("random", "combined", "octahedral")))
    n = 4 if kind == "octahedral" else draw(st.integers(2, 3))
    vectors = st.lists(eighths, min_size=n, max_size=n)
    if kind == "random":
        gens = draw(st.lists(vectors, min_size=n, max_size=6))
    elif kind == "combined":
        base = draw(st.lists(vectors, min_size=1, max_size=n - 1))
        coeffs = st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base))
        gens = [[sum(c * b[i] for c, b in zip(cs, base)) for i in range(n)] for cs in draw(st.lists(coeffs, min_size=1, max_size=6))]
    else:
        a = draw(st.lists(vectors, min_size=n, max_size=n).filter(lambda r: exact_det(r) != 0))
        octahedral = [[1] + [s * int(i == j) for j in range(3)] for i in range(3) for s in (1, -1)]
        gens = [[sum(r[j] * g[j] for j in range(n)) for r in a] for g in octahedral]
    xs = draw(st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens)))
    x = Vector([float(sum(c * g[i] for c, g in zip(xs, gens))) for i in range(n)])
    norm = WickBaseNorm(draw(random_frames(n))) if draw(st.booleans()) else CoordBaseNorm("l2")
    return Polyhedral([Vector(g) for g in gens]), norm, x


class TestFaceSets:
    @settings(max_examples=300, deadline=None)
    @given(face_problems())
    def test_all_facet_sets_match_independent_sets(self, problem):
        # a dependent facet set changes no value: the same minimum, within rounding
        c, norm, x = problem

        def outcome(solve):
            try:
                return solve()
            except Infeasible:
                return "infeasible"

        got = outcome(lambda: extended_norm(ExtensionProblem(c, norm, x)).value)
        want = outcome(lambda: _independent_face_solve(h_description(c), np.array(x.as_floats()), norm))
        assert got == (want if want == "infeasible" else pytest.approx(want, rel=1e-12))


class TestGridOracleReference:
    # each 3-D example scans 201^3 points twice: few examples
    @settings(max_examples=10, deadline=None)
    @given(oracle_problems())
    def test_matches_full_mask_einsum_scan(self, p):
        # the same grid points pass, in the same order, and every quadratic
        # form rounds as the three-operand einsum does: the same value
        assert grid_oracle(p) == _full_mask_oracle(p)

    def test_quad_rows_is_the_einsum(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3):
            pts = rng.uniform(-300, 300, size=(500, n))
            for _ in range(20):
                m = rng.integers(-16, 17, size=(n, n)) / 7
                m = np.where(rng.random((n, n)) < 0.3, 0.0, m + m.T)
                want = np.einsum("ij,jk,ik->i", pts, m, pts)
                assert extension._quad_rows(pts, m).tolist() == want.tolist()


class TestNormAxiomsSampled:
    def test_symmetry_and_homogeneity(self):
        rng = random.Random(2)
        for _ in range(10):
            x = Vector([rng.uniform(-3, 3), rng.uniform(-3, 3)])
            v = extended_norm(fut_problem(x)).value
            vneg = extended_norm(fut_problem(-x)).value
            v2 = extended_norm(fut_problem(x.scale(2.0))).value
            assert vneg == pytest.approx(v, abs=2e-3)
            assert v2 == pytest.approx(2 * v, rel=2e-3, abs=2e-3)

    def test_triangle(self):
        rng = random.Random(3)
        for _ in range(10):
            x = Vector([rng.uniform(-2, 2), rng.uniform(-2, 2)])
            y = Vector([rng.uniform(-2, 2), rng.uniform(-2, 2)])
            nx = extended_norm(fut_problem(x)).value
            ny = extended_norm(fut_problem(y)).value
            nxy = extended_norm(fut_problem(x + y)).value
            assert nxy <= nx + ny + 2e-3

    def test_dominates_base_norm(self):
        rng = random.Random(7)
        for _ in range(20):
            x = sample_future_causal(FRAME, rng)
            xf = Vector([float(c) for c in x.coords])
            assert wick_norm(FRAME, x) <= extended_norm(fut_problem(xf)).value + 1e-3


class TestEquivalenceConstant:
    def test_k_five(self):
        assert equivalence_constant(CONE, WICK, vec(1, 0), 0.5) == pytest.approx(5.0)

    def test_k_five_scaled(self):
        assert equivalence_constant(CONE, WICK, vec(2, 0), 1.0) == pytest.approx(5.0)

    def test_ball_not_contained(self):
        with pytest.raises(BallNotContained) as e:
            equivalence_constant(CONE, WICK, vec(1, 0), 1.0)
        assert e.value.witness is not None

    @pytest.mark.parametrize("delta", [-0.5, 0.0, math.nan, math.inf])
    def test_radius_must_be_finite_and_positive(self, delta):
        with pytest.raises(PreconditionFailed):
            equivalence_constant(CONE, WICK, vec(1, 0), delta)

    def test_pcone_inf_ball(self):
        # B_1/2((1, 0)) in linf lies in x0 >= |x1|
        assert equivalence_constant(PCone(math.inf, 1), CoordBaseNorm("linf"), vec(1, 0), 0.5) == pytest.approx(5.0)

    def test_center_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            equivalence_constant(CONE, WICK, vec(1, 0, 0), 0.5)

    @pytest.mark.parametrize(
        "cone, norm, s, delta",
        [
            (CONE, WICK, vec(1, 0), 0.5),
            (CONE, WICK, vec(1, 0), 1.0),
            (CONE, WICK, vec(1, 0), 0.70712),  # just above 1/sqrt(2): one sample leaves F
            (CONE, CoordBaseNorm("l2"), vec(2, F(1, 2)), 0.9),
            (Polyhedral([vec(1, 1), vec(1, -1)]), CoordBaseNorm("l1"), vec(3, 1), 1.0),
            (Polyhedral([vec(1, 1), vec(1, -1)]), CoordBaseNorm("linf"), vec(3, 1), 1.5),
            (PYRAMID, TILTED_WICK, vec(0, 0, 2), 0.5),
            (PYRAMID, CoordBaseNorm("l2"), vec(F(1, 2), 0, 1), 0.5),
        ],
    )
    def test_matches_per_sample_check(self, cone, norm, s, delta):
        def outcome(check):
            try:
                return check(cone, norm, s, delta)
            except BallNotContained as e:
                return e.witness

        assert outcome(equivalence_constant) == outcome(_per_sample_equivalence_constant)


def _per_sample_equivalence_constant(cone, base_norm, s, delta):
    """Reference: the ball check one sample and one membership call at a time."""
    rng = random.Random(extension.BALL_SEED)
    sf = np.array(s.as_floats())
    member = extension._membership_test(cone, extension.BALL_TOL)
    for _ in range(extension.BALL_SAMPLES):
        direction = np.array([rng.gauss(0.0, 1.0) for _ in range(s.dim)])
        nv = base_norm.value(direction)
        if nv <= 1e-15:
            continue
        pt = sf + direction * (delta / nv)
        if not member(pt[None, :])[0]:
            raise BallNotContained("ball leaves the cone", witness=pt.tolist())
    return 2.0 * base_norm.value(sf) / delta + 1.0
