"""The extended norm on span(F), its brute-force oracle, and the norm
equivalence constant.

n~(x) = inf { n(u) + n(v) : u, v in F, x = u - v }.  On the Wick norm's
own future cone (the frame's form, and a t in the frame's time
orientation) it has a closed form: n_W(x) on causal x and sqrt(2) n(w_x)
on spacelike x, with exact witnesses u, v built on integers.  So does the
orthant under an l1, l2 or linf norm: n(x+) + n(x-), with the witnesses
u = x+ and v = x-.  Polyhedral cones, and any other 2-D future cone as the
polyhedral cone on its two rays t +- rho w, built on integers with rho the
lower bound of the root (``cone.null_rays_2d``: exact on a rational cone,
else the inner cone's value, an upper bound within about 1e-15 relative),
are solved by finite methods: l1 and linf by one exact two-phase simplex
LP on the generators and the target; l2 and Wick norms by enumerating the
faces of F cap (x + F), cut out by the cone's exact H-description (see
``cone.h_description``), which covers overcomplete, lower-dimensional and
non-pointed cones alike.  No solver iterates.  The grid oracle certifies
accuracy independently, on one float view of the cone (``_grid_tests``).
The equivalence constant K = 2 n(s) / delta + 1 needs B_delta(s) in F,
which is decided exactly, facet by facet, by the dual norm, or in closed
form on the Wick norm's own future cone.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Union

import numpy as np

from .cone import Cone, FutureCone, HDescription, Orthant, PCone, Polyhedral, _check_dim, _check_work, h_description, null_rays_2d
from .errors import (
    BallNotContained,
    DimensionMismatch,
    DimTooLarge,
    Infeasible,
    PreconditionFailed,
    UnsupportedFamily,
)
from .lorentz import LorentzFrame, decompose, spatial_basis
from .numerics import Vector, _int_vector, exact_inverse, lp_nonneg_solve
from .span import _decomposition_ints, _future_split, _spatial_norm_bounds


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
        """The norm of each row, one array operation per column, added left to
        right: the arithmetic of np.sum(np.abs(pts), axis=1),
        np.linalg.norm(pts, axis=1) and np.max(np.abs(pts), axis=1), so the
        same to the bit, without their slow loop over a short axis."""
        if self.kind == "l2":
            return np.sqrt(functools.reduce(np.add, [c * c for c in pts.T]))
        return functools.reduce(np.add if self.kind == "l1" else np.maximum, [np.abs(c) for c in pts.T])

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
    basic from the start: its condensed tableau never stores those columns,
    so only the target rows start on artificials.  The optimum is
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
    transposed Cholesky factor for a Wick norm), take each set S of at most
    k = dim span(G) facets, and the affine hull H where E u = 0 and the
    facets of S hold with equality.  With A', B' the projections of 0 and x
    onto H (by the pseudo-inverse of the rows that cut out H) and a, b their
    distances, |y| + |y - x| is least on H at A' + a/(a+b) (B' - A').  The
    minimiser over Q lies in the relative interior of some face, whose
    affine hull an independent S cuts out, so the best candidate that meets
    every inequality within _SLACK is the minimum.  A dependent S is
    harmless: the pseudo-inverse projects onto the hull of an independent
    subset, or its candidate is some point, kept only if feasible.  All
    sum_{j <= k} C(K, j) sets of the K facets, at most cone.MAX_SUBSETS,
    are solved as one batch.
    """
    n, nf = len(x), len(desc.normals)
    k = n - len(desc.equalities)
    count = sum(math.comb(nf, j) for j in range(k + 1))
    _check_work(count, "the face enumeration")
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
    pad = (nf,) * k
    faces = [f + pad[j:] for j in range(k + 1) for f in combinations(range(nf), j)]
    idx = np.array(faces, dtype=np.intp).reshape(count, k)
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
        fd = _future_split(c.form.std, c.t, x)
        return fd.v1, fd.v2
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
    a, xx, k = _decomposition_ints(norm.frame.form.std, norm.frame.t, target)
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

    The Wick norm's own future cone is solved in closed form, and so is the
    orthant under a coordinate norm: every feasible u has u >= x+ and
    u - x >= x-, and an l1, l2 or linf norm is monotone in the absolute
    values of the coordinates, so n~(x) = n(x+) + n(x-), with the exact
    witnesses u = x+ and v = x- (a Wick norm on an orthant raises
    UnsupportedFamily).  A polyhedral cone, or any other 2-D future cone
    as the polyhedral cone on its integer rays (``cone.null_rays_2d``), is
    solved by one exact LP for l1 / linf and by enumerating the faces of
    F cap (x + F) for l2 and Wick norms: every result has iterations = 0
    and converged = True.  Raises Infeasible when x is not in
    F - F, DimTooLarge when the facet search or the face batch would run
    through more than cone.MAX_SUBSETS subsets, and UnsupportedFamily for a
    future cone above dimension 2 that is not the Wick norm's own.
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
    elif isinstance(c, Orthant) and isinstance(norm, CoordBaseNorm):
        u, v = _feasible_decomposition(c, p.target)
        return ExtensionResult(norm.value(np.array(u.as_floats())) + norm.value(np.array(v.as_floats())), u, v, 0, True)
    elif not isinstance(c, Polyhedral):
        raise UnsupportedFamily("extended_norm expects Polyhedral, FutureCone, or Orthant with a coordinate norm")
    xq = p.target.coords
    if isinstance(norm, CoordBaseNorm) and norm.kind != "l2":
        return _lp_solve([g._nums for g in c.generators], xq, norm.kind)
    desc = h_description(c)
    if any(sum(a * b for a, b in zip(e, xq)) for e in desc.equalities):
        raise Infeasible("target is outside F - F (rank-deficient generators)")
    return _face_solve(desc, np.array(p.target.as_floats()), norm)


def _all_columns(b: np.ndarray) -> np.ndarray:
    """np.all(b, axis=1), one array operation per column: a reduction over a
    short axis loops many times slower."""
    return functools.reduce(np.logical_and, b.T) if b.shape[1] else np.ones(len(b), dtype=bool)


def _linear_bounds(g: np.ndarray, tol: float):
    """Line bounds of {p : g p >= -tol} (see ``_grid_tests``).  The rows are
    put in the order rising, falling, flat along the last axis, so each
    group is one slice."""
    g = np.vstack((g[g[:, -1] > 0], g[g[:, -1] < 0], g[g[:, -1] == 0]))
    rising, level = int(np.sum(g[:, -1] > 0)), int(np.sum(g[:, -1] != 0))
    g_lead, neg_last = g[:, :-1].T, -g[:level, -1]
    row_l1 = LINE_ROUNDING * np.abs(g).sum(axis=1)

    def bounds(lead, scale):
        # g_last s >= -r on each line
        r = (lead @ g_lead + (tol + scale * row_l1)).T
        s = r[:level] / neg_last[:, None]
        lo = functools.reduce(np.maximum, s[:rising], np.full(len(lead), -np.inf))
        hi = functools.reduce(np.minimum, s[rising:], np.full(len(lead), np.inf))
        for row in r[level:]:
            hi[row < 0] = -np.inf
        return lo, hi

    return bounds


def _future_bounds(s: np.ndarray, st: np.ndarray, tol: float):
    """Line bounds of {p : p^T S p >= -tol, p . St >= -tol} (see
    ``_grid_tests``): the hull of where a s^2 + b s + c >= 0 meets the
    half-space's interval, from the roots in the stable form q / a, c / q."""
    a, s_cross, s_lead = s[-1, -1], 2.0 * s[:-1, -1], s[:-1, :-1]
    s_l1 = LINE_ROUNDING * float(np.abs(s).sum())
    half_space = _linear_bounds(st[None, :], tol)

    def bounds(lead, scale):
        lo, hi = half_space(lead, scale)
        b = lead @ s_cross
        c = _quad_rows(lead, s_lead) + (tol + scale * scale * s_l1)
        if a == 0.0:
            # b s + c >= 0; a line with b = 0 keeps [lo, hi]
            root = -c / np.where(b == 0, 1.0, b)
            return np.where(b > 0, np.maximum(lo, root), lo), np.where(b < 0, np.minimum(hi, root), hi)
        disc = b * b - (4.0 * a) * c
        q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), b))
        # q == 0 only where b == 0 and disc <= 0: a double root at 0, or none
        r1, r2 = q / a, c / np.where(q == 0, np.inf, q)
        r1, r2 = np.minimum(r1, r2), np.maximum(r1, r2)
        if a < 0:
            return np.maximum(lo, r1), np.where(disc < 0, -np.inf, np.minimum(hi, r2))
        # feasible outside two real roots: the hull of what they leave of [lo, hi]
        left = (disc < 0) | (lo <= np.minimum(r1, hi))
        right = (disc < 0) | (np.maximum(r2, lo) <= hi)
        return np.where(left, lo, np.maximum(r2, lo)), np.where(right, hi, np.minimum(r1, hi))

    return bounds


def _future_floats(c: FutureCone):
    """A future cone's form S and its St, in floats."""
    s = np.array(c.form.std.as_floats())
    return s, s @ np.array(c.t.as_floats())


def _unit_facets(c: Polyhedral):
    """A polyhedral cone's unit facet normals and unit span equalities, in floats."""
    desc = h_description(c)
    n = c.ambient_dim
    h = np.array(desc.normals, dtype=float).reshape(-1, n)
    e = np.array(desc.equalities, dtype=float).reshape(-1, n)
    h /= np.linalg.norm(h, axis=1, keepdims=True)
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    return h, e


def _grid_tests(c: Cone, tol: float):
    """(member, bounds): the float membership test of each row of a point
    array, with slack tol, and its line bounds.

    The cone's float data (its form, or its unit facet normals and span
    equalities) is built once, so one pair serves many arrays.
    ``bounds(lead, scale)`` takes the leading coordinates of lines along
    the last axis, one row per line, and returns per line the float
    interval [lo, hi] of the last coordinate s outside of which the point
    (lead, s) fails ``member``.  Each inequality is widened by
    LINE_ROUNDING times scale (at least the largest |coordinate| of any
    point), times its coefficients, far beyond the rounding of the test
    itself, so no passing point falls outside.  A polyhedral cone bounds s
    by its unit facet normals and by each span equality taken as two
    half-spaces, the orthant by its coordinate half-spaces, a future cone
    by the roots of the line's quadratic p^T S p >= -tol, intersected with
    p . St >= -tol.
    """
    if isinstance(c, FutureCone):
        s, st = _future_floats(c)
        return (lambda pts: (_quad_rows(pts, s) >= -tol) & (pts @ st >= -tol)), _future_bounds(s, st, tol)
    if isinstance(c, Polyhedral):
        h, e = _unit_facets(c)
        bounds = _linear_bounds(np.vstack([h, e, -e]), tol)
        if not len(e):
            return (lambda pts: _all_columns(pts @ h.T >= -tol)), bounds
        return (lambda pts: _all_columns(pts @ h.T >= -tol) & _all_columns(np.abs(pts @ e.T) <= tol)), bounds
    if isinstance(c, Orthant):
        return (lambda pts: _all_columns(pts >= -tol)), _linear_bounds(np.eye(c.ambient_dim), tol)
    raise UnsupportedFamily(f"no grid membership for {type(c).__name__}")


# grid points per axis in grid_oracle's first scan and in each of its
# ZOOM_PASSES zoomed re-scans, and the most points one scan block tests at once
GRID_RESOLUTION = 201
ZOOM_RESOLUTION = 41
ZOOM_PASSES = 4
SCAN_BLOCK = 1 << 13
# grid steps kept on each side of a line's bounds, and the relative slack
# by which the bounds widen each inequality against rounding
LINE_MARGIN = 2
LINE_ROUNDING = 1e-9


def _line_ranges(bounds, lines, x, last, scale):
    """The first index on the last axis, and the number of points, to build on
    each line: LINE_MARGIN steps beyond where u and u - x both can pass."""
    lo, hi = bounds(np.vstack((lines, lines - x[:-1])), scale)
    m = len(lines)
    first = np.maximum(np.searchsorted(last, np.maximum(lo[:m], lo[m:] + x[-1])) - LINE_MARGIN, 0)
    stop = np.searchsorted(last, np.minimum(hi[:m], hi[m:] + x[-1]), "right") + LINE_MARGIN
    return first, np.maximum(np.minimum(stop, len(last)) - first, 0)


def _grid_scan(p: ExtensionProblem, member, x, center, halfwidth, resolution, bounds=None):
    """The least n(u) + n(u - x), and its first minimiser u, over one grid's feasible points.

    The grid is read as lines along its last axis, in meshgrid's i-major
    order.  With line bounds (see ``_grid_tests``), a line's points are
    built only within LINE_MARGIN steps of where both u and u - x can pass,
    unless the whole grid fits in one block of SCAN_BLOCK points: there the
    bounds cost more than they skip (a 2-D zoom pass, 1 681 points, ran
    about 25 us slower bounded, 2-core Xeon, numpy 2.4.6).
    """
    n = len(center)
    axes = [np.linspace(c - halfwidth, c + halfwidth, resolution) for c in center]
    last, lead = axes[-1], np.zeros((1, 0))
    for ax in axes[:-1]:
        lead = np.column_stack((np.repeat(lead, resolution, axis=0), np.tile(ax, len(lead))))
    if bounds is None or resolution**n <= SCAN_BLOCK:
        first, count = np.zeros(len(lead), dtype=np.intp), np.full(len(lead), resolution)
    else:
        # SCAN_BLOCK lines at a time, so the bounds' arrays stay small too
        scale = float(np.abs(center).max() + halfwidth + np.abs(x).max())
        ranges = [_line_ranges(bounds, lead[a : a + SCAN_BLOCK], x, last, scale) for a in range(0, len(lead), SCAN_BLOCK)]
        first, count = (np.concatenate(r) for r in zip(*ranges))
    ends = np.cumsum(count)
    # each point's index on the last axis, less its index among the built points
    offset = first - (ends - count)
    best, best_pt = math.inf, None
    a = done = 0
    while done < ends[-1]:
        # whole lines, at most SCAN_BLOCK points (a line has at most resolution)
        b = max(int(np.searchsorted(ends, done + SCAN_BLOCK, "right")), a + 1)
        c, end = count[a:b], int(ends[b - 1])
        pts = np.empty((end - done, n))
        pts[:, :-1] = np.repeat(lead[a:b], c, axis=0)
        pts[:, -1] = last[np.arange(done, end) + np.repeat(offset[a:b], c)]
        a, done = b, end
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
    10-fold per zoom).  A scan reads the grid as lines along its last axis
    and builds on each line only the points within LINE_MARGIN steps of the
    float interval where both u and u - x can pass (``_grid_tests``): a
    polyhedral cone's unit facet normals and its span equalities as pairs
    of half-spaces, the orthant's coordinate half-spaces, or the roots of a
    future cone's quadratic on the line within its half-space.  The points
    are built by index, in meshgrid's order, and tested in blocks of whole
    lines of at most SCAN_BLOCK points; a pass whose grid fits in one block
    scans whole lines.  Grid feasibility uses a 1e-12 slack;
    u - x is tested only on the points u that passed, so the same points
    pass, in the same order, as on the whole grid.  A quadratic form (a
    future cone's membership, a Wick norm) is summed one nonzero matrix
    entry at a time by ``_quad_rows``, and a coordinate norm and a
    polyhedral test one column at a time.
    The box comes from ``_feasible_decomposition``: on a future cone, the
    exact split ``span._future_split`` in the causal future of its t, which
    takes any timelike t, unit or not, in any dimension.
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
    member, bounds = _grid_tests(p.cone, 1e-12)
    center = np.zeros(n)
    resolution = GRID_RESOLUTION
    best = math.inf
    for _ in range(1 + ZOOM_PASSES):
        val, pt = _grid_scan(p, member, x, center, halfwidth, resolution, bounds)
        if pt is None:
            break
        best = min(best, val)
        center, halfwidth, resolution = pt, 4.0 * halfwidth / (resolution - 1), ZOOM_RESOLUTION
    return best


def _ball_normals(c: Cone, norm: BaseNorm) -> list:
    """Normals h of half-spaces h . x >= 0 whose intersection is F, or lies
    in F, for the ball check: a polyhedral cone's span equalities, each as
    the pair +-e, then its facet normals; the orthant's e_i; (1, +-e_i) for
    PCone p = inf and (1, sigma), sigma in {+-1}^n, for p = 1; any 2-D future
    cone's ``null_rays_2d``, an inner cone when irrational."""
    if isinstance(c, FutureCone) and c.ambient_dim == 2:
        c = null_rays_2d(c)
    if isinstance(c, Polyhedral):
        desc = h_description(c)
        return [h for e in desc.equalities for h in (e, [-t for t in e])] + list(desc.normals)
    n = c.ambient_dim
    if isinstance(c, Orthant):
        return [[int(i == j) for j in range(n)] for i in range(n)]
    if isinstance(c, PCone) and c.p == math.inf:
        return [[1] + [sgn * int(i == j) for j in range(1, n)] for i in range(1, n) for sgn in (1, -1)]
    if isinstance(c, PCone) and c.p == 1:
        _check_work(2 ** (n - 1), "the p = 1 cone's facets")
        return [[1, *sigma] for sigma in product((1, -1), repeat=n - 1)]
    what = f"PCone with p = {c.p}" if isinstance(c, PCone) else f"{n}-D {type(c).__name__}"
    raise UnsupportedFamily(f"no exact ball check for a {what} under {getattr(norm, 'kind', 'a Wick norm')}")


def _round_against(h, w) -> list:
    """The exact point w in floats, each coordinate rounded toward a lower
    h . w, so h . w < 0 still holds of the floats."""
    out = [float(x) for x in w]
    for i, (a, x) in enumerate(zip(h, w)):
        if (a > 0 and out[i] > x) or (a < 0 and out[i] < x):
            out[i] = math.nextafter(out[i], math.copysign(math.inf, -a))
    return out


def _facet_witness(normals, norm: BaseNorm, s: Vector, d: Fraction):
    """A float point of B_d(s) outside the first half-space h . x >= 0 with
    h . s < d n*(h), n* the dual norm, or None when there is none.

    n*(h) is max |h_i| for l1, sum |h_i| for linf, |h|_2 for l2 and
    sqrt(h^T W^-1 h) for a Wick norm of matrix W; l2 and Wick compare
    squares after h . s >= 0.  The witness is s - d u, u the unit maximiser
    of h . u: +-e_k at the largest |h_k| (l1), sign(h) (linf), both exact,
    so their floats are rounded against h (``_round_against``);
    h / |h|_2 (l2) and W^-1 h / n*(h) (Wick) in floats.
    """
    kind = getattr(norm, "kind", "wick")
    if kind == "wick":
        # W^-1 = D N^-1 for W = N / D
        w = norm.frame.wick
        winv = [[w._den * x for x in row] for row in exact_inverse(w._int_rows())]
    sq = s.coords
    for h in normals:
        hs = sum(map(operator.mul, h, sq))
        if kind in ("l1", "linf"):
            k = max(range(len(h)), key=lambda i: abs(h[i]))
            u = [((a > 0) - (a < 0)) * (kind == "linf" or i == k) for i, a in enumerate(h)]
            if hs < d * sum(map(operator.mul, h, u)):  # h . u = n*(h)
                return _round_against(h, [x - d * y for x, y in zip(sq, u)])
        else:
            y = list(h) if kind == "l2" else [sum(map(operator.mul, row, h)) for row in winv]
            hy = sum(map(operator.mul, h, y))  # n*(h)^2
            if hs < 0 or hs * hs < d * d * hy:
                return (s.as_floats() - float(d) / math.sqrt(hy) * np.array(y, dtype=float)).tolist()
    return None


def _future_witness(norm: WickBaseNorm, s: Vector, d: Fraction):
    """On the Wick norm's own future cone, a float point of B_d(s) outside
    F, or None when the ball lies in F.

    With s = alpha t + w, the ball lies in F iff d sqrt(2) <= alpha - n(w),
    with q = <s, s> = alpha^2 - n(w)^2: alpha >= 0, alpha^2 >= 2 d^2,
    q + 2 d^2 >= 0 and (q + 2 d^2)^2 >= 8 alpha^2 d^2, exactly.  Else
    s + d (w / n(w) - t) / sqrt(2), at Wick distance d from s, has
    alpha - d / sqrt(2) < n(w) + d / sqrt(2); when w = 0, the first vector
    of ``spatial_basis`` takes w / n(w)'s place.
    """
    frame = norm.frame
    dec = decompose(frame, s)
    a, q, dd = dec.alpha, frame.inner(s, s), 2 * d * d
    if a >= 0 and a * a >= dd and q + dd >= 0 and (q + dd) ** 2 >= 4 * a * a * dd:
        return None
    w = np.array((spatial_basis(frame)[0] if dec.w.is_zero() else dec.w).as_floats())
    tf = np.array(frame.t.as_floats())
    return (np.array(s.as_floats()) + float(d) * (w / norm.value(w) - tf) / math.sqrt(2.0)).tolist()


def equivalence_constant(cone: Cone, base_norm: BaseNorm, s: Vector, delta: float) -> float:
    """K = 2 n(s) / delta + 1, once B_delta(s), the closed n-ball, is decided
    to lie in F, exactly.

    delta is taken as a float, at its exact binary value.  B_delta(s) lies
    in a half-space h . x >= 0 iff h . s >= delta n*(h), n* the dual norm
    (Boyd & Vandenberghe 2004, sec. 8.5.1), which ``_facet_witness`` checks
    on every normal of ``_ball_normals``: a polyhedral cone's exact
    H-description (a lower-dimensional one holds no ball: its equalities
    fail), the orthant's and PCone p = 1 or inf's facets, and a 2-D future
    cone's rays.  On the Wick norm's own future cone the rule is
    delta sqrt(2) <= alpha - n(w), decided in squares (``_future_witness``).
    A future cone above dimension 2 under any other norm, or a PCone of
    another p, raises UnsupportedFamily.  BallNotContained carries a float
    point of the ball outside F (on an irrational 2-D future cone, outside
    its inner cone) as its witness.
    """
    d = float(delta)
    if not (math.isfinite(d) and d > 0):
        raise PreconditionFailed(f"ball radius must be finite and positive, got {delta!r}")
    _check_dims(cone, base_norm, s)
    if isinstance(cone, FutureCone) and isinstance(base_norm, WickBaseNorm) and _own_future_cone(cone, base_norm.frame):
        witness = _future_witness(base_norm, s, Fraction(d))
    else:
        witness = _facet_witness(_ball_normals(cone, base_norm), base_norm, s, Fraction(d))
    if witness is not None:
        raise BallNotContained(f"ball of radius {d} around {s!r} leaves the cone", witness=witness)
    return 2.0 * base_norm.value(np.array(s.as_floats())) / d + 1.0
