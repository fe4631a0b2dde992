"""The extended norm on span(F) and its brute-force oracle.

n~(x) = inf { n(u) + n(v) : u, v in F, x = u - v }.  On the future cone
with the Wick norm it has a closed form: n_W(x) on causal x and
sqrt(2) n(w_x) on spacelike x.  On polyhedral cones (and the 2-D future
cone, spanned by its two null rays) the solver is a projected subgradient
method on the generator coefficients, followed by a deterministic
pattern-search polish that brings the value within the solver tolerance;
the grid oracle certifies accuracy independently.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

import numpy as np

from .cone import Cone, FutureCone, Orthant, PCone, Polyhedral
from .errors import (
    BallNotContained,
    DimTooLarge,
    Infeasible,
    NotLorentzian,
    UnsupportedFamily,
)
from .lorentz import LorentzFrame, wick_inner
from .numerics import Vector, exact_det, exact_null_space, independent_rows, lp_nonneg_solve
from .span import future_decompose


class WickBaseNorm:
    """Positive definite Wick norm of a Lorentz frame, as the base norm n."""

    __slots__ = ("frame", "matrix")

    def __init__(self, frame: LorentzFrame):
        object.__setattr__(self, "frame", frame)
        n = frame.dim
        units = [Vector.unit(n, i) for i in range(n)]
        m = np.array(
            [[float(wick_inner(frame, units[i], units[j])) for j in range(n)] for i in range(n)]
        )
        object.__setattr__(self, "matrix", m)

    def __setattr__(self, *a):
        raise AttributeError("WickBaseNorm is immutable")

    def value(self, v: np.ndarray) -> float:
        return math.sqrt(max(float(v @ self.matrix @ v), 0.0))

    def values(self, pts: np.ndarray) -> np.ndarray:
        return np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", pts, self.matrix, pts), 0.0))

    def subgrad(self, v: np.ndarray) -> np.ndarray:
        n = self.value(v)
        if n <= 1e-15:
            return np.zeros_like(v)
        return self.matrix @ v / n

    def coord_bound(self, r: float) -> float:
        lam_min = float(np.linalg.eigvalsh(self.matrix)[0])
        return r / math.sqrt(max(lam_min, 1e-30))


class CoordBaseNorm:
    """Coordinate l1 / l2 / linf norm as the base norm n."""

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        if kind not in ("l1", "l2", "linf"):
            raise UnsupportedFamily(f"unknown coordinate norm {kind!r}")
        object.__setattr__(self, "kind", kind)

    def __setattr__(self, *a):
        raise AttributeError("CoordBaseNorm is immutable")

    def value(self, v: np.ndarray) -> float:
        if self.kind == "l1":
            return float(np.sum(np.abs(v)))
        if self.kind == "l2":
            return float(np.linalg.norm(v))
        return float(np.max(np.abs(v)))

    def values(self, pts: np.ndarray) -> np.ndarray:
        if self.kind == "l1":
            return np.sum(np.abs(pts), axis=1)
        if self.kind == "l2":
            return np.linalg.norm(pts, axis=1)
        return np.max(np.abs(pts), axis=1)

    def subgrad(self, v: np.ndarray) -> np.ndarray:
        if self.kind == "l1":
            return np.sign(v)
        if self.kind == "l2":
            n = float(np.linalg.norm(v))
            return v / n if n > 1e-15 else np.zeros_like(v)
        i = int(np.argmax(np.abs(v)))
        g = np.zeros_like(v)
        g[i] = math.copysign(1.0, v[i]) if v[i] != 0 else 0.0
        return g

    def coord_bound(self, r: float) -> float:
        # all three dominate the sup norm, so coordinates are bounded by r
        return r


BaseNorm = Union[WickBaseNorm, CoordBaseNorm]


@dataclass(frozen=True)
class ExtensionProblem:
    cone: Cone
    base_norm: BaseNorm
    target: Vector
    max_iters: int = 100_000
    resolution: int = 201
    _stall_window: int = field(default=300, repr=False)


@dataclass(frozen=True)
class ExtensionResult:
    value: float
    u: Vector
    v: Vector
    iterations: int
    # False when the subgradient phase ran to max_iters instead of stalling
    converged: bool


def _generator_matrix(c: Polyhedral) -> np.ndarray:
    return np.array([[float(x) for x in g.coords] for g in c.generators]).T  # columns


def _subgradient_descent(z, f, sg, project, step_c, max_iters, stall_window):
    """Projected subgradient steps step_c/sqrt(k), keeping the best point.

    Stops after max_iters steps, or once stall_window + 1 steps in a row
    fail to improve on the best value.  Returns (best, best value,
    iterations, stalled).
    """
    best, best_val = z.copy(), f(z)
    since = 0
    k = 0
    for k in range(1, max_iters + 1):
        z = project(z - (step_c / math.sqrt(k)) * sg(z))
        val = f(z)
        if val < best_val - 1e-12:
            best_val, best = val, z.copy()
            since = 0
        else:
            since += 1
            if since > stall_window:
                return best, best_val, k, True
    return best, best_val, k, False


def _square_solve(gmat, x, norm: BaseNorm, max_iters, stall_window):
    """min n(G theta) + n(G(theta - d)) over theta >= max(d, 0), G square."""
    d = np.linalg.solve(gmat, x)
    lo = np.maximum(d, 0.0)

    def f(theta):
        u = gmat @ theta
        return norm.value(u) + norm.value(u - x)

    def sg(theta):
        u = gmat @ theta
        return gmat.T @ (norm.subgrad(u) + norm.subgrad(u - x))

    step_c = 0.5 * max(1.0, norm.value(x))
    theta, best_val, iters, stalled = _subgradient_descent(
        lo + 0.5 * (1.0 + np.abs(d)), f, sg, lambda t: np.maximum(t, lo), step_c, max_iters, stall_window
    )
    # deterministic pattern-search polish (convex objective, box feasible set)
    step = 0.25 * max(1.0, float(np.max(np.abs(theta))))
    n = theta.shape[0]
    while step > 1e-9:
        improved = False
        for i in range(n):
            for s in (step, -step):
                trial = theta.copy()
                trial[i] = max(trial[i] + s, lo[i])
                val = f(trial)
                if val < best_val - 1e-15:
                    best_val, theta = val, trial
                    improved = True
        if not improved:
            step *= 0.5
    u = gmat @ theta
    return best_val, u, u - x, iters, stalled


def _general_polyhedral_solve(c: Polyhedral, x, norm: BaseNorm, max_iters, stall_window):
    """(theta, phi) formulation: min n(G theta) + n(G phi), G(theta-phi) = x.

    Feasibility is restored by exact projection onto the affine constraint
    followed by clipping to the nonnegative orthant and re-projection; the
    reported value uses the exact difference v = u - x.  Generators that
    span less than the ambient space make rows of G dependent; the
    projection keeps a maximal independent set of them, which cuts out the
    same affine set because the constraint is consistent.
    """
    gmat = _generator_matrix(c)
    n, m = gmat.shape
    amat, xr = np.hstack([gmat, -gmat]), x
    rows = independent_rows([[g.coords[i] for g in c.generators] for i in range(n)])
    if len(rows) < n:
        amat, xr = amat[rows], x[rows]
    aat_inv = np.linalg.inv(amat @ amat.T)

    def proj_affine(z):
        return z - amat.T @ (aat_inv @ (amat @ z - xr))

    def restore(z):
        for _ in range(30):
            z = proj_affine(np.maximum(z, 0.0))
        return proj_affine(z)

    def f(z):
        u = gmat @ z[:m]
        return norm.value(u) + norm.value(u - x)

    def sg(z):
        gu = gmat.T @ norm.subgrad(gmat @ z[:m])
        gv = gmat.T @ norm.subgrad(gmat @ z[m:])
        return np.concatenate([gu, gv])

    # seed from an exact feasible decomposition of (a rational rounding of) x
    coeffs = lp_nonneg_solve(
        [
            [c.generators[j].coords[i] for j in range(m)]
            + [-c.generators[j].coords[i] for j in range(m)]
            for i in range(n)
        ],
        [Fraction(xi).limit_denominator(10**9) for xi in x],
    )
    if coeffs is None:
        raise Infeasible("target is outside F - F (rank-deficient generators)")
    z = restore(np.array([float(t) for t in coeffs]))
    step_c = 0.5 * max(1.0, norm.value(x))
    best, best_val, iters, stalled = _subgradient_descent(z, f, sg, restore, step_c, max_iters, stall_window)
    u = gmat @ best[:m]
    return best_val, u, u - x, iters, stalled


def _feasible_decomposition(c: Cone, x: Vector):
    """One exact decomposition x = u - v with u, v in F (upper-bound witness)."""
    if not x.exact:
        x = Vector([Fraction(t) for t in x.coords])
    if isinstance(c, FutureCone):
        frame = LorentzFrame(c.form, c.t)
        fd = future_decompose(x, frame)
        return fd.v1, fd.v2
    if isinstance(c, Polyhedral):
        m = len(c.generators)
        a = [
            [g.coords[i] for g in c.generators] + [-g.coords[i] for g in c.generators]
            for i in range(c.ambient_dim)
        ]
        z = lp_nonneg_solve(a, list(x.coords))
        if z is None:
            raise Infeasible("target is outside F - F (rank-deficient generators)")
        u = Vector.zero(c.ambient_dim)
        v = Vector.zero(c.ambient_dim)
        for j, g in enumerate(c.generators):
            u = u + g.scale(z[j])
            v = v + g.scale(z[m + j])
        return u, v
    if isinstance(c, Orthant):
        pos = Vector([max(t, 0) for t in x.coords])
        return pos, pos - x
    raise UnsupportedFamily(f"no decomposition strategy for {type(c).__name__}")


def _future_wick_closed_form(norm: WickBaseNorm, target: Vector) -> ExtensionResult:
    """n~ on the future cone of the Wick norm's frame, in closed form.

    With x = alpha t + w, the null coordinates of the plane through t and w
    turn the cone into an orthant and the Wick norm into the Euclidean norm,
    so n~(x) = n_W(x) when x is causal and sqrt(2) n(w) when it is spacelike.
    Both squares are rational in alpha and <x, x>: the causal/spacelike
    decision is exact on the target's (exact or binary) rational value.
    """
    frame = norm.frame
    x = np.array(target.as_floats())
    # scale by 2^-e so that |x| < 1: the squares neither underflow nor overflow
    e = math.frexp(float(np.max(np.abs(x))))[1]
    xq = Vector([Fraction(c) * Fraction(2) ** -e for c in target.coords])
    alpha = frame.inner(xq, frame.t)
    xx = frame.inner(xq, xq)
    if xx >= 0:
        # causal: the target itself (or its negative) is the cheapest split
        q = 2 * alpha * alpha - xx
        u = x if alpha >= 0 else np.zeros_like(x)
    else:
        # spacelike: u on the null ray t + w_hat, v = u - x on t - w_hat
        q = 2 * (alpha * alpha - xx)
        nw = math.sqrt(float(alpha * alpha - xx))
        a = float(alpha)
        tf = np.array(frame.t.as_floats())
        y = np.array(xq.as_floats())
        u = np.ldexp((0.5 * (a + nw)) * (tf + (y - a * tf) / nw), e)
    value = math.ldexp(math.sqrt(float(q)), e)
    return ExtensionResult(value, Vector(u.tolist()), Vector((u - x).tolist()), 0, True)


def _null_generators_2d(c: FutureCone) -> np.ndarray:
    """Columns t + w_hat, t - w_hat: the null rays bounding a 2-D future cone.

    w = (-(St)_1, (St)_0) is S-orthogonal to t, with n(w)^2 = -<w, w>.  It is
    oriented like e_i - <e_i, t> t for the first e_i not parallel to t, the
    direction a frame's spatial basis starts from.
    """
    s = c.form.std
    (s00, s01), (_, s11) = s.rows
    if s00 * s11 - s01 * s01 >= 0:
        raise NotLorentzian("2-D future cone needs a form with det < 0")
    if c.form.inner(c.t, c.t) != 1:
        raise NotLorentzian("frame vector must satisfy <t,t> = 1 exactly")
    st = s.apply(c.t).coords
    w = Vector([-st[1], st[0]])
    if next(z for z in s.apply(w).coords if z != 0) > 0:
        w = -w
    what = np.array(w.as_floats()) / math.sqrt(float(-s.quad(w, w)))
    tf = np.array(c.t.as_floats())
    return np.column_stack([tf + what, tf - what])


def extended_norm(p: ExtensionProblem) -> ExtensionResult:
    """Minimize n(u) + n(u - x) over u in F intersect (x + F)."""
    c = p.cone
    if isinstance(c, FutureCone) and isinstance(p.base_norm, WickBaseNorm):
        return _future_wick_closed_form(p.base_norm, p.target)
    args = (np.array(p.target.as_floats()), p.base_norm, p.max_iters, p._stall_window)
    if isinstance(c, Polyhedral):
        m = len(c.generators)
        if m == c.ambient_dim and exact_det([list(g.coords) for g in c.generators]) != 0:
            solved = _square_solve(_generator_matrix(c), *args)
        else:
            solved = _general_polyhedral_solve(c, *args)
    elif isinstance(c, FutureCone):
        if c.ambient_dim != 2:
            raise UnsupportedFamily(
                "future-cone solver needs the Wick base norm above ambient dimension 2"
            )
        solved = _square_solve(_null_generators_2d(c), *args)
    else:
        raise UnsupportedFamily("extended_norm expects Polyhedral or FutureCone")
    val, u, v, iters, converged = solved
    return ExtensionResult(val, Vector(u.tolist()), Vector(v.tolist()), iters, converged)


def _facet_normals(c: Polyhedral) -> np.ndarray:
    """Outer description of the conic hull: h with h . g >= 0 for all g.

    Candidate facet normals come from null spaces of (dim-1)-subsets of the
    generators; a candidate is kept when one orientation is nonnegative on
    every generator.  Valid for dim <= 3, which is all the oracle supports.
    """
    import itertools

    n = c.ambient_dim
    gens = [list(g.coords) for g in c.generators]
    normals = []
    subsets = itertools.combinations(gens, n - 1) if n > 1 else [()]
    for sub in subsets:
        for h in exact_null_space(list(sub), n):
            for sgn in (1, -1):
                cand = [sgn * x for x in h]
                if all(sum(ci * gi for ci, gi in zip(cand, g)) >= 0 for g in gens):
                    normals.append([float(x) for x in cand])
                    break
    return np.array(normals) if normals else np.zeros((0, n))


def _span_equalities(c: Polyhedral):
    """Normals of span(generators): pts in the cone must be orthogonal."""
    gens = [list(g.coords) for g in c.generators]
    return [[float(x) for x in v] for v in exact_null_space(gens, c.ambient_dim)]


def _membership_mask(c: Cone, pts: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    if isinstance(c, FutureCone):
        s = np.array([[float(v) for v in row] for row in c.form.std.rows])
        t = np.array(c.t.as_floats())
        return (np.einsum("ij,jk,ik->i", pts, s, pts) >= -tol) & (pts @ s @ t >= -tol)
    if isinstance(c, Polyhedral):
        gmat = _generator_matrix(c)
        if gmat.shape[0] == gmat.shape[1] and abs(float(np.linalg.det(gmat))) > 1e-12:
            theta = np.linalg.solve(gmat, pts.T).T
            return np.all(theta >= -tol, axis=1)
        hmat = _facet_normals(c)
        mask = np.ones(len(pts), dtype=bool)
        if hmat.size:
            mask &= np.all(pts @ hmat.T >= -tol, axis=1)
        for eq in _span_equalities(c):
            mask &= np.abs(pts @ np.array(eq)) <= tol
        return mask
    if isinstance(c, Orthant):
        return np.all(pts >= -tol, axis=1)
    if isinstance(c, PCone):
        pf = float(c.p)
        sp = np.abs(pts[:, 1:]) ** pf
        return pts[:, 0] >= np.sum(sp, axis=1) ** (1.0 / pf) - tol
    raise UnsupportedFamily(f"no grid membership for {type(c).__name__}")


def _grid_scan(p: ExtensionProblem, x, center, halfwidth, res):
    n = p.cone.ambient_dim
    axes = [np.linspace(c - halfwidth, c + halfwidth, res) for c in center]
    best = math.inf
    best_pt = None
    # chunk over the first coordinate to bound memory in dimension 3
    rest = np.meshgrid(*axes[1:], indexing="ij") if n > 1 else []
    rest_flat = (
        np.stack([r.ravel() for r in rest], axis=1) if n > 1 else np.zeros((1, 0))
    )
    for x0 in axes[0]:
        pts = np.hstack([np.full((rest_flat.shape[0], 1), x0), rest_flat])
        mask = _membership_mask(p.cone, pts) & _membership_mask(p.cone, pts - x)
        if not mask.any():
            continue
        feas = pts[mask]
        vals = p.base_norm.values(feas) + p.base_norm.values(feas - x)
        i = int(vals.argmin())
        if vals[i] < best:
            best = float(vals[i])
            best_pt = feas[i]
    return best, best_pt


def grid_oracle(p: ExtensionProblem, zoom_passes: int = 2) -> float:
    """Brute-force upper-convergent value of n~(x) by grid enumeration.

    Scans u over a coordinate box sized from one feasible decomposition,
    then refines by re-gridding a small box around the best point.  Grid
    feasibility uses a 1e-12 slack, orders of magnitude below the solver
    tolerance.
    """
    n = p.cone.ambient_dim
    if n > 3:
        raise DimTooLarge("grid oracle supports ambient dimension <= 3")
    res = min(p.resolution, 401)
    x = np.array(p.target.as_floats())
    u0, v0 = _feasible_decomposition(p.cone, p.target)
    ub = p.base_norm.value(np.array(u0.as_floats())) + p.base_norm.value(np.array(v0.as_floats()))
    if ub == 0.0:
        return 0.0
    # a few grid steps of margin: the witness decomposition can sit right on
    # the box edge, leaving the shifted cone's apex unresolvable otherwise
    bound = p.base_norm.coord_bound(ub) * (1.0 + 8.0 / (res - 1))
    center = np.zeros(n)
    halfwidth = bound
    best = math.inf
    for _ in range(1 + zoom_passes):
        val, pt = _grid_scan(p, x, center, halfwidth, res)
        if pt is None:
            break
        best = min(best, val)
        step = 2.0 * halfwidth / (res - 1)
        center, halfwidth = pt, 2.0 * step
    return best


def _contains_float(c: Cone, pt: np.ndarray, tol: float) -> bool:
    return bool(_membership_mask(c, pt[None, :], tol)[0])


def equivalence_constant(
    cone: Cone,
    base_norm: BaseNorm,
    s: Vector,
    delta: float,
    samples: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
) -> float:
    """K = 2 n(s) / delta + 1 with a sampled check that B_delta(s) lies in F."""
    rng = random.Random(seed)
    n = s.dim
    sf = np.array(s.as_floats())
    d = float(delta)
    for _ in range(samples):
        direction = np.array([rng.gauss(0.0, 1.0) for _ in range(n)])
        nv = base_norm.value(direction)
        if nv <= 1e-15:
            continue
        pt = sf + direction * (d / nv)
        if not _contains_float(cone, pt, tol):
            raise BallNotContained(
                f"ball of radius {d} around {s!r} leaves the cone", witness=pt.tolist()
            )
    return 2.0 * base_norm.value(sf) / d + 1.0
