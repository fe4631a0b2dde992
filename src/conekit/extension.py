"""The extended norm on span(F) and its brute-force oracle.

n~(x) = inf { n(u) + n(v) : u, v in F, x = u - v }.  On the future cone
with the Wick norm it has a closed form: n_W(x) on causal x and
sqrt(2) n(w_x) on spacelike x.  Polyhedral cones, and the 2-D future cone
as the square cone on its two null rays, are solved on the exact (binary)
values of their generators and of the target: l1 and linf by one exact
two-phase simplex LP, l2 and Wick norms on a full-rank square cone by
enumerating the faces of the feasible set.  A pointed, full-dimensional
2-D cone is the square cone on its two extreme rays.  Only l2 and Wick
norms on other cones (overcomplete in dimension 3 and up, or
lower-dimensional) still use a projected subgradient method, capped by
``max_iters``.  The grid oracle certifies accuracy independently.
"""

from __future__ import annotations

import itertools
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
from .numerics import Vector, exact_null_space, exact_solve, independent_rows, lp_nonneg_solve
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
    # read only by the iterative solver: l2 and Wick norms on cones that are
    # neither square of full rank nor pointed and full-dimensional in 2-D
    max_iters: int = 100_000
    resolution: int = 201
    _stall_window: int = field(default=300, repr=False)


@dataclass(frozen=True)
class ExtensionResult:
    value: float
    u: Vector
    v: Vector
    iterations: int
    # False when the iterative solver (see max_iters) ran to max_iters
    # instead of stalling; the finite solvers report iterations = 0 and
    # converged = True
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


def _lp_solve(gens, xq, kind: str) -> ExtensionResult:
    """n~(x) for the l1 or linf base norm: one exact LP over theta, phi >= 0.

    gens are the generator columns of G and xq the target, both exact.  With
    u = G theta and v = G phi:
      l1:   G theta - u+ + u- = 0, G phi - v+ + v- = 0, u+ - u- - v+ + v- = x,
            minimise sum(u+ + u- + v+ + v-);
      linf: G(theta - phi) = x, +-(G theta)_i <= tau_u, +-(G phi)_i <= tau_v
            (as equalities with slacks), minimise tau_u + tau_v.
    The optimum is exact, and u - v = x holds exactly before the witnesses
    are rounded to floats.
    """
    n, m = len(xq), len(gens)
    zero_m, zero_n = [0] * m, [0] * n
    rows, rhs = [], []
    if kind == "l1":
        # columns: theta, phi, u+, u-, v+, v-
        cost = [0] * (2 * m) + [1] * (4 * n)
        for i in range(n):
            g = [col[i] for col in gens]
            e = [int(k == i) for k in range(n)]
            ne = [-t for t in e]
            rows += [
                g + zero_m + ne + e + zero_n + zero_n,
                zero_m + g + zero_n + zero_n + ne + e,
                zero_m + zero_m + e + ne + ne + e,
            ]
            rhs += [0, 0, xq[i]]
    else:
        # columns: theta, phi, tau_u, tau_v, one slack per bound row
        cost = [0] * (2 * m) + [1, 1] + [0] * (4 * n)
        bounds = []
        for i in range(n):
            g = [col[i] for col in gens]
            ng = [-t for t in g]
            rows.append(g + ng + [0, 0] + [0] * (4 * n))
            rhs.append(xq[i])
            bounds += [g + zero_m + [-1, 0], ng + zero_m + [-1, 0], zero_m + g + [0, -1], zero_m + ng + [0, -1]]
        for k, row in enumerate(bounds):
            rows.append(row + [int(j == k) for j in range(4 * n)])
            rhs.append(0)
    z = lp_nonneg_solve(rows, rhs, cost)
    if z is None:
        raise Infeasible("target is outside F - F (rank-deficient generators)")
    u = [sum(z[j] * col[i] for j, col in enumerate(gens)) for i in range(n)]
    v = [sum(z[m + j] * col[i] for j, col in enumerate(gens)) for i in range(n)]
    if kind == "l1":
        value = sum(abs(t) for t in u) + sum(abs(t) for t in v)
    else:
        value = max(abs(t) for t in u) + max(abs(t) for t in v)
    return ExtensionResult(float(value), Vector([float(t) for t in u]), Vector([float(t) for t in v]), 0, True)


def _face_solve(gmat: np.ndarray, x: np.ndarray, lo: np.ndarray, norm: BaseNorm) -> ExtensionResult:
    """n~(x) for a Euclidean base norm on a square cone, by its 2^n faces.

    u ranges over P = G(lo + R^n_+) with lo = max(G^-1 x, 0).  After the
    change of coordinates y = R u, where n(u) = |R u| (R = I for l2, the
    transposed Cholesky factor for a Wick norm), take each face of P with
    free set S.  On its affine hull H, with A', B' the projections of 0 and
    x and a, b their distances, |u| + |u - x| is least at
    A' + a/(a+b) (B' - A').  The minimiser over P lies in the relative
    interior of some face, where it is also the (unique) minimiser over H,
    so the best candidate is the minimum.  Each candidate's coefficients are
    clamped to >= 0 before it is evaluated, so every value is attained by a
    point of P and rounding cannot drop the minimiser's own candidate.
    """
    n = gmat.shape[0]
    r = np.linalg.cholesky(norm.matrix).T if isinstance(norm, WickBaseNorm) else np.eye(n)
    h, y = r @ gmat, r @ x
    corner = h @ lo
    best = None
    for mask in range(1 << n):
        free = [i for i in range(n) if mask >> i & 1]
        d = h[:, free]
        # coefficients on the face of the projections of 0 and y onto H, by
        # the normal equations (the face's columns are independent)
        s = np.linalg.solve(d.T @ d, d.T @ np.column_stack([-corner, y - corner]))
        a = float(np.linalg.norm(corner + d @ s[:, 0]))
        b = float(np.linalg.norm(corner + d @ s[:, 1] - y))
        t = a / (a + b) if a + b > 0 else 0.0
        theta = lo.copy()
        theta[free] += np.maximum(s[:, 0] + t * (s[:, 1] - s[:, 0]), 0.0)
        u = gmat @ theta
        val = norm.value(u) + norm.value(u - x)
        if best is None or val < best[0]:
            best = (val, u)
    val, u = best
    return ExtensionResult(val, Vector(u.tolist()), Vector((u - x).tolist()), 0, True)


def _square_rays(gens, n: int) -> list | None:
    """Indices of generators whose square cone is cone(gens), or None.

    A cone on n generators is square on all of them.  A pointed,
    full-dimensional 2-D cone is the square cone on its two extreme rays:
    the pair that writes every generator with coefficients >= 0, found
    exactly.
    """
    if len(gens) == n:
        return list(range(n))
    if n == 2:
        for pair in itertools.combinations(range(len(gens)), 2):
            cols = [[gens[k][i] for k in pair] for i in range(2)]
            if all((s := exact_solve(cols, g)) is not None and min(s) >= 0 for g in gens):
                return list(pair)
    return None


def _general_polyhedral_solve(c: Polyhedral, x, xq, norm: BaseNorm, max_iters, stall_window):
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

    # seed from an exact feasible decomposition of x's exact (binary) value
    coeffs = lp_nonneg_solve(
        [
            [c.generators[j].coords[i] for j in range(m)]
            + [-c.generators[j].coords[i] for j in range(m)]
            for i in range(n)
        ],
        xq,
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
    direction a frame's spatial basis starts from.  The rays are rounded to
    floats; for a Minkowski frame they are exact.
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
    """Minimize n(u) + n(u - x) over u in F intersect (x + F).

    A polyhedral cone, or the 2-D future cone as the square cone on its null
    rays, is solved on the exact (binary) values of its generators and of
    the target: by one LP for l1 / linf, by face enumeration for l2 and Wick
    norms on a square cone of full rank (a pointed, full-dimensional 2-D
    cone on its extreme rays), and by projected subgradient descent for l2
    and Wick norms otherwise.
    """
    c = p.cone
    norm = p.base_norm
    if isinstance(c, FutureCone) and isinstance(norm, WickBaseNorm):
        return _future_wick_closed_form(norm, p.target)
    if isinstance(c, Polyhedral):
        gmat = _generator_matrix(c)
        gens = [g.coords for g in c.generators]
    elif isinstance(c, FutureCone):
        if c.ambient_dim != 2:
            raise UnsupportedFamily(
                "future-cone solver needs the Wick base norm above ambient dimension 2"
            )
        gmat = _null_generators_2d(c)
        gens = [[Fraction(t) for t in col] for col in gmat.T.tolist()]
    else:
        raise UnsupportedFamily("extended_norm expects Polyhedral or FutureCone")
    xq = [Fraction(t) for t in p.target.coords]
    if isinstance(norm, CoordBaseNorm) and norm.kind != "l2":
        return _lp_solve(gens, xq, norm.kind)
    x = np.array(p.target.as_floats())
    rays = _square_rays(gens, len(xq))
    d = exact_solve([[gens[k][i] for k in rays] for i in range(len(xq))], xq) if rays else None
    if d is not None:
        return _face_solve(gmat[:, rays], x, np.array([float(max(t, 0)) for t in d]), norm)
    val, u, v, iters, converged = _general_polyhedral_solve(c, x, xq, norm, p.max_iters, p._stall_window)
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
