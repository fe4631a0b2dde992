"""Reference computations and output checkers, written apart from conekit.

Nothing here calls into conekit: every expected value is recomputed from
the raw coordinates, so a checker can only agree with the library when the
library is right.  Exact checks use ``Fraction``; float checks state their
tolerance where they are defined.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Gates, as in the acceptance suite and the ROADMAP.
WICK_CLOSED_FORM_TOL = 1e-6
REFERENCE_TOL = 3e-3
WITNESS_TOL = 1e-9
MEMBER_TOL = 1e-9


# ------------------------------------------------------------ exact algebra


def mink(u, v):
    """Minkowski pairing diag(1, -1, ..., -1) on coordinate sequences."""
    return u[0] * v[0] - sum(a * b for a, b in zip(u[1:], v[1:]))


def euclid(u, v):
    return sum(a * b for a, b in zip(u, v))


def quad(s, u, v):
    """u^T S v for a matrix given as a list of rows."""
    return sum(u[i] * s[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))


def is_future_causal(x) -> bool:
    """x in the causal future of e0 under the Minkowski form."""
    return x[0] >= 0 and mink(x, x) >= 0


def det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fraction."""
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    out = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            out = -out
        out *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return out


def inverse(rows):
    """Inverse of a nonsingular rational matrix by Gauss-Jordan."""
    n = len(rows)
    a = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for c in range(n):
        p = next(i for i in range(c, n) if a[i][c] != 0)
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [r[n:] for r in a]


def form_in_standard_coords(basis, gram):
    """S = B^-T G B^-1 where the columns of B are the basis vectors."""
    n = len(basis)
    inv = inverse([[basis[j][i] for j in range(n)] for i in range(n)])
    tmp = [[sum(gram[i][k] * inv[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(inv[k][i] * tmp[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def minkowski_rows(dim):
    return [[Fraction(0 if i != j else (1 if i == 0 else -1)) for j in range(dim)] for i in range(dim)]


def collinear_nonneg(u, v) -> bool:
    """u, v lie on one ray from the origin (zero counts as collinear)."""
    if all(c == 0 for c in u) or all(c == 0 for c in v):
        return True
    i = next(i for i, c in enumerate(v) if c != 0)
    r = u[i] / v[i]
    return r > 0 and all(a == r * b for a, b in zip(u, v))


def simplicial_coefficients(gens, x):
    """Coefficients theta with sum theta_i g_i = x for independent gens."""
    n = len(gens)
    inv = inverse([[gens[j][i] for j in range(n)] for i in range(n)])
    return [sum(inv[i][k] * x[k] for k in range(n)) for i in range(n)]


# ------------------------------------------------------------- float norms


def base_norm(kind: str, v) -> float:
    """l1 / l2 / linf, and 'wick': the Wick norm of the e0 Minkowski frame,
    which is the Euclidean norm in standard coordinates."""
    if kind == "l1":
        return sum(abs(c) for c in v)
    if kind in ("l2", "wick"):
        return math.sqrt(sum(c * c for c in v))
    if kind == "linf":
        return max(abs(c) for c in v)
    raise ValueError(kind)


def extended_norm_future_wick(x) -> float:
    """Closed form of n~ on the e0 Minkowski future cone with the Wick norm.

    In null coordinates the cone is an orthant and the Wick norm is
    Euclidean: n~(x) = n_W(x) when |alpha| >= |w|, else sqrt(2) |w|.
    """
    alpha = x[0]
    w = math.sqrt(sum(c * c for c in x[1:]))
    return math.hypot(alpha, w) if abs(alpha) >= w else math.sqrt(2.0) * w


def _golden_min(f, lo, hi, iters=90):
    r = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - r * (b - a), a + r * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - r * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + r * (b - a)
            fd = f(d)
    return min(f(lo), fc, fd, f((a + b) / 2.0))


def extended_norm_2d(g1, g2, x, kind: str) -> float:
    """n~(x) on the 2-D cone spanned by g1, g2, by nested golden sections.

    u = G theta ranges over theta >= max(G^-1 x, 0); the objective
    n(u) + n(u - x) is convex there, and n(u) <= f(corner) bounds theta, so a
    golden section over each coordinate of a bounded box finds the minimum.
    """
    dt = g1[0] * g2[1] - g2[0] * g1[1]
    d1 = (x[0] * g2[1] - g2[0] * x[1]) / dt
    d2 = (g1[0] * x[1] - x[0] * g1[1]) / dt
    lo1, lo2 = max(d1, 0.0), max(d2, 0.0)

    def f(t1, t2):
        u = (g1[0] * t1 + g2[0] * t2, g1[1] * t1 + g2[1] * t2)
        return base_norm(kind, u) + base_norm(kind, (u[0] - x[0], u[1] - x[1]))

    # |theta|_inf <= |G^-1|_inf |u|_inf <= |G^-1|_inf n(u) <= |G^-1|_inf f(corner)
    inv_norm = max(abs(g2[1]) + abs(g2[0]), abs(g1[1]) + abs(g1[0])) / abs(dt)
    width = 2.0 * inv_norm * f(lo1, lo2) + 1.0
    return _golden_min(lambda t1: _golden_min(lambda t2: f(t1, t2), lo2, lo2 + width), lo1, lo1 + width)


def extreme_rays_2d(gens):
    """The two extreme rays of a pointed 2-D cone whose generators have x0 > 0."""
    by_slope = sorted(gens, key=lambda g: g[1] / g[0])
    return by_slope[0], by_slope[-1]


# ------------------------------------------------------------------ checks


def check_extension(value, u, v, x, kind, member) -> str | None:
    """Properties every extended-norm answer must have; None when all hold.

    u - v = x, u and v in the cone (``member`` decides with slack), the value
    equals n(u) + n(v), and it is at least n(x) by the triangle inequality.
    """
    if len(u) != len(x) or len(v) != len(x):
        return "witness dimension"
    scale = 1.0 + max(abs(c) for c in x)
    if any(abs(a - b - c) > WITNESS_TOL * scale for a, b, c in zip(u, v, x)):
        return "u - v != x"
    if not (member(u) and member(v)):
        return "witness outside the cone"
    nu_nv = base_norm(kind, u) + base_norm(kind, v)
    if abs(value - nu_nv) > 1e-9 * (1.0 + nu_nv):
        return "value != n(u) + n(v)"
    if value < base_norm(kind, x) - 1e-9 * scale:
        return "value < n(x)"
    return None


def future_member(x) -> bool:
    """Float membership in the e0 Minkowski future cone, with slack."""
    w = math.sqrt(sum(c * c for c in x[1:]))
    return x[0] >= w - MEMBER_TOL * (1.0 + abs(x[0]))


def simplicial_member(gens, x) -> bool:
    """Float membership in cone(gens) for independent gens, by elimination."""
    n = len(gens)
    a = [[float(gens[j][i]) for j in range(n)] + [float(x[i])] for i in range(n)]
    for c in range(n):
        p = max(range(c, n), key=lambda i: abs(a[i][c]))
        a[c], a[p] = a[p], a[c]
        for i in range(n):
            if i != c:
                f = a[i][c] / a[c][c]
                a[i] = [xi - f * yi for xi, yi in zip(a[i], a[c])]
    scale = 1.0 + max(abs(float(c)) for c in x)
    return all(a[i][n] / a[i][i] >= -MEMBER_TOL * scale for i in range(n))
