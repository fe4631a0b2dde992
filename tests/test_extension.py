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
from conekit.cone import FutureCone, PCone, Polyhedral, contains, sample_future_causal
from conekit.errors import BallNotContained, DimensionMismatch, DimTooLarge, Infeasible, NotLorentzian
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
        euclid = GramForm([vec(1, 0), vec(0, 1)], SymMatrix([[F(1), F(0)], [F(0), F(1)]]))
        for cone in (FutureCone(euclid, vec(1, 0)), FutureCone(FRAME.form, vec(2, 0))):
            with pytest.raises(NotLorentzian):
                extended_norm(ExtensionProblem(cone, CoordBaseNorm("l2"), Vector([0.0, 1.0])))

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
        "m, stage, enumerator, calls_before",
        [
            # C(100, 2) = 4950 facet-search subsets; one null space for E
            (100, "facet search", "exact_null_space", 1),
            # 32 facets: sum_{j <= 3} C(32, j) = 5489 face subsets
            (32, "face enumeration", "exact_rank", 0),
        ],
    )
    def test_work_cap_trips_before_enumerating(self, monkeypatch, m, stage, enumerator, calls_before):
        # generators on the moment curve (1, t, t^2): all m are extreme rays
        calls = []
        original = getattr(cone_module, enumerator)
        monkeypatch.setattr(cone_module, enumerator, lambda *a: calls.append(a) or original(*a))
        c = Polyhedral([vec(1, F(k, m), F(k * k, m * m)) for k in range(m)])
        with pytest.raises(DimTooLarge, match=f"{stage} needs .* above MAX_SUBSETS"):
            extended_norm(ExtensionProblem(c, CoordBaseNorm("l2"), Vector([1.0, 0.0, 0.0])))
        assert len(calls) == calls_before


FRAMES = {d: minkowski_frame(d - 1) for d in range(2, 7)}
CONES = {d: FutureCone(f.form, f.t) for d, f in FRAMES.items()}
WICKS = {d: WickBaseNorm(f) for d, f in FRAMES.items()}


def _solve(x: Vector):
    return extended_norm(ExtensionProblem(CONES[x.dim], WICKS[x.dim], x))


def _in_future(frame, u: Vector, tol: float) -> bool:
    scale = 1.0 + max(abs(c) for c in u.as_floats())
    return frame.inner(u, u) >= -tol * scale**2 and frame.inner(u, frame.t) >= -tol * scale


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
        assert (res.u - res.v).coords == pytest.approx(x.as_floats(), abs=1e-9)
        assert _in_future(frame, res.u, 1e-12) and _in_future(frame, res.v, 1e-12)
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
