"""The extended norm on span(F) and its brute-force oracle.

n~(x) = inf { n(u) + n(v) : u, v in F, x = u - v }.  On the Wick norm's
own future cone (the frame's form, and a t in the frame's time
orientation) it has a closed form: n_W(x) on causal x and sqrt(2) n(w_x)
on spacelike x, with exact witnesses u, v built on integers.  Polyhedral
cones, and any other 2-D future cone as the polyhedral cone on its two
null rays, are solved by finite methods: l1 and linf by one exact
two-phase simplex LP on the generators and the target; l2 and Wick norms
by enumerating the faces of F cap (x + F), cut out by the cone's exact
H-description (see ``cone.h_description``), which covers overcomplete,
lower-dimensional and non-pointed cones alike.  No solver iterates.  The
grid oracle certifies accuracy independently.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .cone import Cone, FutureCone, HDescription, Orthant, PCone, Polyhedral, _check_dim, h_description, null_rays_2d
from .errors import (
    BallNotContained,
    DimensionMismatch,
    DimTooLarge,
    Infeasible,
    PreconditionFailed,
    UnsupportedFamily,
)
from .lorentz import LorentzFrame
from .numerics import Vector, _int_vector, lp_nonneg_solve
from .span import _decomposition_ints, _spatial_norm_bounds, future_decompose


def _quad_rows(pts: np.ndarray, m: np.ndarray) -> np.ndarray:
    """p^T M p for each row p: the terms (p_j M_jk) p_k of the nonzero M_jk,
    j-major, each added to a running sum from 0.  That is the arithmetic of
    einsum("ij,jk,ik->i", pts, M, pts), so the result is the same to the
    bit, in one array operation per term instead of einsum's loop over
    every point and every j, k."""
    q = np.zeros(len(pts))
    for j, k in zip(*np.nonzero(m)):
        q += pts[:, j] * m[j, k] * pts[:, k]
    return q


class WickBaseNorm:
    """Positive definite Wick norm of a Lorentz frame, as the base norm n."""

    __slots__ = ("frame", "matrix")

    def __init__(self, frame: LorentzFrame):
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "matrix", np.array(frame.wick.as_floats()))

    def __setattr__(self, *a):
        raise AttributeError("WickBaseNorm is immutable")

    def value(self, v: np.ndarray) -> float:
        return math.sqrt(max(float(v @ self.matrix @ v), 0.0))

    def values(self, pts: np.ndarray) -> np.ndarray:
        return np.sqrt(np.maximum(_quad_rows(pts, self.matrix), 0.0))

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

    def coord_bound(self, r: float) -> float:
        # all three dominate the sup norm, so coordinates are bounded by r
        return r


BaseNorm = Union[WickBaseNorm, CoordBaseNorm]


@dataclass(frozen=True)
class ExtensionProblem:
    cone: Cone
    base_norm: BaseNorm
    target: Vector
    # unread: no solver iterates.  Kept only because the benchmark harness
    # (bench/workloads.py, bench/tracing.py) sets and reads it.
    max_iters: int = 100_000

    def __post_init__(self):
        _check_dims(self.cone, self.base_norm, self.target)


def _check_dims(c: Cone, norm: BaseNorm, x: Vector):
    """x, and a Wick base norm's frame, must have the cone's ambient dimension."""
    _check_dim(c, x)
    if isinstance(norm, WickBaseNorm) and norm.frame.dim != c.ambient_dim:
        raise DimensionMismatch(f"Wick base norm dim {norm.frame.dim} != ambient dim {c.ambient_dim}")


@dataclass(frozen=True)
class ExtensionResult:
    value: float
    u: Vector
    v: Vector
    # every solver is finite: iterations is always 0 and converged True
    iterations: int
    converged: bool


def _combine(z, cols) -> Vector:
    """sum_j z_j cols_j for Fractions z_j and integer columns: one integer vector."""
    den = math.lcm(*(t.denominator for t in z))
    ks = [t.numerator * (den // t.denominator) for t in z]
    return _int_vector([sum(map(operator.mul, ks, row)) for row in zip(*cols)], den)


def _lp_solve(gens, xq, kind: str) -> ExtensionResult:
    """n~(x) for the l1 or linf base norm: one exact LP over theta, phi >= 0.

    gens are the generators' integers, the columns of G, and xq the exact
    target.  Each generator's positive denominator scales its column alone,
    which leaves every pivot of ``lp_nonneg_solve`` unchanged: G theta is
    the same vector.  With u = G theta and v = G phi:
      l1:   G theta - u+ + u- = 0, G phi - v+ + v- = 0, G theta - G phi = x,
            minimise sum(u+ + u- + v+ + v-);
      linf: G(theta - phi) = x, +-(G theta)_i <= tau_u, +-(G phi)_i <= tau_v
            (as equalities with slacks), minimise tau_u + tau_v.
    Every row but the n target rows has a column of its own with a +1 in it
    alone (u-_i, v-_i, or the slack), which the simplex's crash basis makes
    basic, so only the target rows start on artificials.  The optimum is
    exact, and so are the witnesses: u - v = x holds exactly.
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
                g + [-t for t in g] + [0] * (4 * n),
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
    u, v = _combine(z[:m], gens), _combine(z[m : 2 * m], gens)
    norm = sum if kind == "l1" else max
    value = Fraction(norm(map(abs, u._nums)), u._den) + Fraction(norm(map(abs, v._nums)), v._den)
    return ExtensionResult(float(value), u, v, 0, True)


# Relative slack of the face solver's inequality check, in units of the
# candidate's own value: far above the rounding of a small projection, far
# below any real violation.
_SLACK = 1e-9


def _face_solve(desc: HDescription, x: np.ndarray, norm: BaseNorm) -> ExtensionResult:
    """n~(x) for a Euclidean base norm, by the faces of Q = F cap (x + F).

    Q = {u : E u = 0, h . u >= max(0, h . x) for every facet normal h}.  After
    the change of coordinates y = R u, where n(u) = |R u| (R = I for l2, the
    transposed Cholesky factor for a Wick norm), take each independent set S
    of at most k facets, and the affine hull H where E u = 0 and the facets
    of S hold with equality.  With A', B' the projections of 0 and x onto H
    (by the pseudo-inverse of the rows that cut out H) and a, b their
    distances, |y| + |y - x| is least on H at A' + a/(a+b) (B' - A').  The
    minimiser over Q lies in the relative interior of some face, whose
    affine hull is one such H, so the best candidate that meets every
    inequality within _SLACK is the minimum.  All sets are solved as one
    batch.
    """
    n, k = len(x), desc.rank
    r = np.linalg.cholesky(norm.matrix).T if isinstance(norm, WickBaseNorm) else np.eye(n)
    rinv = np.linalg.inv(r)
    h = np.array(desc.normals, dtype=float).reshape(-1, n) @ rinv
    h /= np.linalg.norm(h, axis=1, keepdims=True)
    e = np.array(desc.equalities, dtype=float).reshape(-1, n) @ rinv
    # n~ is homogeneous: solve for x / 2^s with |x| < 2^s, so no square
    # underflows or overflows
    s = math.frexp(float(np.max(np.abs(x))))[1]
    y = r @ np.ldexp(x, -s)
    lo = np.maximum(h @ y, 0.0)
    # every set padded to k facets with the index of an appended zero row:
    # M = [E; h_S; 0] is n x n, and its pseudo-inverse ignores the zero rows
    pad = (len(h),) * k
    idx = np.array([f + pad[len(f):] for level in desc.faces for f in level], dtype=np.intp).reshape(-1, k)
    hz, loz = np.vstack([h, np.zeros(n)]), np.append(lo, 0.0)
    m = np.concatenate([np.broadcast_to(e, (len(idx),) + e.shape), hz[idx]], axis=1)
    rhs = np.concatenate([np.zeros((len(idx), len(e))), loz[idx]], axis=1)
    pinv = np.linalg.pinv(m)
    a_pt = (pinv @ rhs[:, :, None])[:, :, 0]  # A', the projection of 0
    py = (pinv @ (m @ y)[:, :, None])[:, :, 0]  # y - py is B' - A'
    a = np.linalg.norm(a_pt, axis=1)
    ab = a + np.linalg.norm(py - a_pt, axis=1)
    t = np.divide(a, ab, out=np.zeros_like(a), where=ab > 0)
    cand = a_pt + t[:, None] * (y - py)
    vals = np.linalg.norm(cand, axis=1) + np.linalg.norm(cand - y, axis=1)
    vals[~np.all(cand @ h.T >= lo - _SLACK * vals[:, None], axis=1)] = math.inf
    best = int(np.argmin(vals))
    if vals[best] == math.inf:
        raise Infeasible("no face of F cap (x + F) has a feasible minimiser in float arithmetic")
    u = np.ldexp(rinv @ cand[best], s)
    return ExtensionResult(norm.value(u) + norm.value(u - x), Vector(u.tolist()), Vector((u - x).tolist()), 0, True)


def _feasible_decomposition(c: Cone, x: Vector):
    """One exact decomposition x = u - v with u, v in F (upper-bound witness)."""
    if isinstance(c, FutureCone):
        if c.ambient_dim != 2 or c.form.inner(c.t, c.t) == 1:
            fd = future_decompose(x, LorentzFrame(c.form, c.t))
            return fd.v1, fd.v2
        # no frame has a non-unit t, but a 2-D cone is the cone on its null rays
        c = null_rays_2d(c)
    if isinstance(c, Polyhedral):
        # the generators' integers as columns: as in _lp_solve, their
        # denominators change no pivot
        gens = [g._nums for g in c.generators]
        m = len(gens)
        z = lp_nonneg_solve([list(row) + [-t for t in row] for row in zip(*gens)], list(x.coords))
        if z is None:
            raise Infeasible("target is outside F - F (rank-deficient generators)")
        return _combine(z[:m], gens), _combine(z[m:], gens)
    if isinstance(c, Orthant):
        pos = Vector([max(t, 0) for t in x.coords])
        return pos, pos - x
    raise UnsupportedFamily(f"no decomposition strategy for {type(c).__name__}")


def _future_wick_closed_form(norm: WickBaseNorm, target: Vector) -> ExtensionResult:
    """n~ on the future cone of the Wick norm's frame, in closed form.

    With x = alpha t + w, the null coordinates of the plane through t and w
    turn the cone into an orthant and the Wick norm into the Euclidean norm,
    so n~(x) = n_W(x) when x is causal and sqrt(2) n(w) when it is spacelike.
    Both squares are rational in alpha and <x, x>, read on integers from
    ``span._decomposition_ints``: the causal/spacelike decision is exact, and
    so are the witnesses.  A causal x splits as x - 0 (alpha >= 0) or
    0 - (-x).  A spacelike x has n(w) > |alpha|; with a rational r >= n(w)
    from ``span._spatial_norm_bounds``, u = ((r^2 - alpha^2) t +
    (r + alpha) x) / (2r) = (alpha + r) / 2 (t + w / r) and v = u - x =
    (r - alpha) / 2 (t - w / r) are future-causal, as
    <t +- w/r, t +- w/r> = 1 - n(w)^2 / r^2 >= 0.
    """
    # <x, t> = a / k and <x, x> = xx / k^2
    a, xx, k = _decomposition_ints(norm.frame, target)
    # the value on x / 2^e with |x| < 2^e: the squares neither underflow nor overflow
    e = math.frexp(max(map(abs, target.as_floats())))[1]
    if xx >= 0:
        # causal: the target itself (or its negative) is the cheapest split
        q = 2 * a * a - xx
        u = target if a >= 0 else Vector.zero(target.dim)
    else:
        # spacelike: u on the null ray t + w/r, v = u - x on t - w/r
        q = 2 * (a * a - xx)
        _, rn, rd = _spatial_norm_bounds(a, xx, k)
        # with r = rn / rd and alpha = a / k: r + alpha = p / (rd k) and
        # r^2 - alpha^2 = p m / (rd k)^2, for p = rn k + a rd, m = rn k - a rd
        p, m = rn * k + a * rd, rn * k - a * rd
        t, xd = norm.frame.t, target._den
        c = rd * k * t._den
        u = _int_vector([p * (m * xd * y + c * z) for y, z in zip(t._nums, target._nums)], 2 * rn * c * k * xd)
    # n~(x / 2^e)^2 = q / (k^2 4^e), rounded once: int / int rounds as float(Fraction) does
    sq = (q << max(-2 * e, 0)) / (k * k << max(2 * e, 0))
    return ExtensionResult(math.ldexp(math.sqrt(sq), e), u, u - target, 0, True)


def _own_future_cone(c: FutureCone, frame: LorentzFrame) -> bool:
    """True iff c is the frame's future cone: the same form, and a t in the
    frame's time orientation, <c.t, frame.t> > 0."""
    s = frame.form.std
    return c.form.std == s and s._int_quad(c.t, frame.t) > 0


def extended_norm(p: ExtensionProblem) -> ExtensionResult:
    """Minimize n(u) + n(u - x) over u in F intersect (x + F).

    The Wick norm's own future cone is solved in closed form.  A polyhedral
    cone, or any other 2-D future cone as the polyhedral cone on its null
    rays, is solved by one exact LP for l1 / linf and by enumerating
    the faces of F cap (x + F) for l2 and Wick norms: every result has
    iterations = 0 and converged = True.  Raises Infeasible when x is not in
    F - F, and DimTooLarge when the cone's H-description would enumerate
    more than cone.MAX_SUBSETS subsets, and UnsupportedFamily for a future
    cone above dimension 2 that is not the Wick norm's own.
    """
    c = p.cone
    norm = p.base_norm
    if isinstance(c, FutureCone):
        if isinstance(norm, WickBaseNorm) and _own_future_cone(c, norm.frame):
            return _future_wick_closed_form(norm, p.target)
        if c.ambient_dim != 2:
            raise UnsupportedFamily(
                "future-cone solver needs the Wick norm of the cone's own frame above ambient dimension 2"
            )
        c = null_rays_2d(c)
    elif not isinstance(c, Polyhedral):
        raise UnsupportedFamily("extended_norm expects Polyhedral or FutureCone")
    xq = p.target.coords
    if isinstance(norm, CoordBaseNorm) and norm.kind != "l2":
        return _lp_solve([g._nums for g in c.generators], xq, norm.kind)
    desc = h_description(c)
    if any(sum(a * b for a, b in zip(e, xq)) for e in desc.equalities):
        raise Infeasible("target is outside F - F (rank-deficient generators)")
    return _face_solve(desc, np.array(p.target.as_floats()), norm)


def _membership_test(c: Cone, tol: float):
    """Float membership of each row of a point array, with slack tol.

    The cone's float data (its form, or its unit facet normals and span
    equalities) is built once, so one test serves many arrays.
    """
    if isinstance(c, FutureCone):
        s = np.array(c.form.std.as_floats())
        st = s @ np.array(c.t.as_floats())
        return lambda pts: (_quad_rows(pts, s) >= -tol) & (pts @ st >= -tol)
    if isinstance(c, Polyhedral):
        desc = h_description(c)
        n = c.ambient_dim
        h = np.array(desc.normals, dtype=float).reshape(-1, n)
        e = np.array(desc.equalities, dtype=float).reshape(-1, n)
        h /= np.linalg.norm(h, axis=1, keepdims=True)
        e /= np.linalg.norm(e, axis=1, keepdims=True)
        return lambda pts: np.all(pts @ h.T >= -tol, axis=1) & np.all(np.abs(pts @ e.T) <= tol, axis=1)
    if isinstance(c, Orthant):
        return lambda pts: np.all(pts >= -tol, axis=1)
    if isinstance(c, PCone):
        pf = float(c.p)
        return lambda pts: pts[:, 0] >= np.linalg.norm(pts[:, 1:], ord=pf, axis=1) - tol
    raise UnsupportedFamily(f"no grid membership for {type(c).__name__}")


# grid points per axis in grid_oracle's first scan and in each of its
# ZOOM_PASSES zoomed re-scans, and the most points one scan block tests at once
GRID_RESOLUTION = 201
ZOOM_RESOLUTION = 41
ZOOM_PASSES = 4
SCAN_BLOCK = 1 << 13


def _grid_scan(p: ExtensionProblem, member, x, center, halfwidth, resolution):
    """The least n(u) + n(u - x), and its first minimiser u, over one grid's feasible points."""
    axes = [np.linspace(c - halfwidth, c + halfwidth, resolution) for c in center]
    rows = max(1, SCAN_BLOCK // resolution ** (len(axes) - 1))
    best, best_pt = math.inf, None
    for a in range(0, resolution, rows):
        block = np.meshgrid(axes[0][a : a + rows], *axes[1:], indexing="ij")
        pts = np.stack(block, axis=-1).reshape(-1, len(axes))
        pts = pts[member(pts)]
        # boolean indexing keeps the order, so the first minimiser is the same
        feas = pts[member(pts - x)]
        if len(feas):
            vals = p.base_norm.values(feas) + p.base_norm.values(feas - x)
            i = int(vals.argmin())
            if vals[i] < best:
                best, best_pt = float(vals[i]), feas[i]
    return best, best_pt


def grid_oracle(p: ExtensionProblem) -> float:
    """Brute-force upper-convergent value of n~(x) by grid enumeration.

    Scans u over a coordinate box sized from one feasible decomposition on
    GRID_RESOLUTION points per axis, then ZOOM_PASSES times on ZOOM_RESOLUTION
    points in a box of +-2 steps around the best point (the step shrinks
    10-fold per zoom).  Each scan tests blocks of whole x0-slices of at most
    SCAN_BLOCK points, or one slice when it is larger: one block per 2-D pass
    raised peak RSS by 9 % and ran no faster.  Grid feasibility uses a 1e-12
    slack; u - x is tested only on the points u that passed.  A quadratic
    form (a future cone's membership, a Wick norm) is summed one nonzero
    matrix entry at a time by ``_quad_rows``.
    The box comes from ``_feasible_decomposition``: the frame's exact
    decomposition on a future cone with a unit t, the LP on the null rays
    of a 2-D future cone whose t is not a unit vector.
    """
    n = p.cone.ambient_dim
    if n > 3:
        raise DimTooLarge("grid oracle supports ambient dimension <= 3")
    x = np.array(p.target.as_floats())
    u0, v0 = _feasible_decomposition(p.cone, p.target)
    ub = p.base_norm.value(np.array(u0.as_floats())) + p.base_norm.value(np.array(v0.as_floats()))
    if ub == 0.0:
        return 0.0
    # a few grid steps of margin: the witness decomposition can sit right on
    # the box edge, leaving the shifted cone's apex unresolvable otherwise
    halfwidth = p.base_norm.coord_bound(ub) * (1.0 + 8.0 / (GRID_RESOLUTION - 1))
    member = _membership_test(p.cone, 1e-12)
    center = np.zeros(n)
    resolution = GRID_RESOLUTION
    best = math.inf
    for _ in range(1 + ZOOM_PASSES):
        val, pt = _grid_scan(p, member, x, center, halfwidth, resolution)
        if pt is None:
            break
        best = min(best, val)
        center, halfwidth, resolution = pt, 4.0 * halfwidth / (resolution - 1), ZOOM_RESOLUTION
    return best


# equivalence_constant checks B_delta(s) in F on BALL_SAMPLES boundary
# points drawn from random.Random(BALL_SEED), with membership slack BALL_TOL
BALL_SAMPLES = 1000
BALL_SEED = 0
BALL_TOL = 1e-9


def equivalence_constant(cone: Cone, base_norm: BaseNorm, s: Vector, delta: float) -> float:
    """K = 2 n(s) / delta + 1 with a sampled check that B_delta(s) lies in F."""
    d = float(delta)
    if not (math.isfinite(d) and d > 0):
        raise PreconditionFailed(f"ball radius must be finite and positive, got {delta!r}")
    _check_dims(cone, base_norm, s)
    rng = random.Random(BALL_SEED)
    dirs = np.array([[rng.gauss(0.0, 1.0) for _ in range(s.dim)] for _ in range(BALL_SAMPLES)])
    # value() per row: values() rounds l2 and Wick norms differently in the last bit
    nv = np.array([base_norm.value(row) for row in dirs])
    keep = nv > 1e-15
    sf = np.array(s.as_floats())
    pts = sf + dirs[keep] * (d / nv[keep])[:, None]
    out = np.flatnonzero(~_membership_test(cone, BALL_TOL)(pts))
    if len(out):
        raise BallNotContained(f"ball of radius {d} around {s!r} leaves the cone", witness=pts[out[0]].tolist())
    return 2.0 * base_norm.value(sf) / d + 1.0
