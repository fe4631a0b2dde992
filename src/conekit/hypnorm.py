"""Hyperbolic norm families, polarization, reverse Cauchy-Schwarz.

Checks work on squared norms: every check expressible in squares
(polarizability, reverse CS, equality cases) is decided exactly, so null
and boundary cases come out exactly.  On the quadratic families the reverse
Cauchy-Schwarz and reverse triangle signs and the equality case are read
off three integers of the bilinear form (``_cs_triple``), with no Fraction
built for a sign.  Square roots force floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .cone import Cone, FutureCone, Orthant, PCone, contains
from .errors import OutsideCone, UnsupportedFamily
from .lorentz import _minkowski_matrix
from .numerics import SymMatrix, Vector, approx_eq, exact_rank

# a Fraction, or the float value of a norm that needs a root
Scalar = Union[Fraction, float]


@dataclass(frozen=True)
class PHyperbolic:
    """(x0^p - sum |x_j|^p)^(1/p) on the p-cone in R^{1+n}.

    p = math.inf is the p -> inf limit: x0 inside the cone, 0 on its boundary.
    """

    p: object
    spatial_dim: int


@dataclass(frozen=True)
class DiscreteLq:
    """(sum mu_i f_i^q)^(1/q), 0 < q < 1, on the orthant."""

    q: Fraction
    weights: tuple

    def __init__(self, q, weights):
        q = Fraction(q)
        if not 0 < q < 1:
            raise UnsupportedFamily("DiscreteLq requires q in (0, 1)")
        ws = tuple(Fraction(w) for w in weights)
        if any(w <= 0 for w in ws):
            raise UnsupportedFamily("weights must be positive")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "weights", ws)


@dataclass(frozen=True)
class FormInduced:
    """sqrt(<v, v>) restricted to a future cone."""

    cone: FutureCone


HyperbolicNorm = Union[PHyperbolic, DiscreteLq, FormInduced]


def cone_of(h: HyperbolicNorm) -> Cone:
    if isinstance(h, PHyperbolic):
        return PCone(h.p, h.spatial_dim)
    if isinstance(h, DiscreteLq):
        return Orthant(len(h.weights))
    return h.cone


def _require_member(h: HyperbolicNorm, x: Vector):
    if not contains(cone_of(h), x):
        raise OutsideCone(f"{x!r} is outside the cone of {h!r}")


def _norm_sq_exactable(h: HyperbolicNorm) -> bool:
    """Families whose squared norm is a rational function of rational input."""
    if isinstance(h, FormInduced):
        return True
    return isinstance(h, PHyperbolic) and h.p in (1, 2)


def _norm_sq(h: HyperbolicNorm, x: Vector) -> Scalar:
    """Squared norm; Fraction for p in {1,2} and FormInduced, float otherwise."""
    if isinstance(h, FormInduced):
        return h.cone.form.inner(x, x)
    if isinstance(h, PHyperbolic):
        if h.p not in (1, 2):
            v = _pnorm_value(h.p, x.as_floats())
            return v * v
        # x on its integers over d, then one Fraction over d^2
        x0, *spatial = x._nums
        if h.p == 2:
            r = x0 * x0 - sum(s * s for s in spatial)
        else:
            r = x0 - sum(abs(s) for s in spatial)
            r = r * r
        return Fraction(r, x._den * x._den)
    return norm_eval(h, x) ** 2


def _pnorm_value(p, xs: tuple) -> float:
    if p == math.inf:
        return xs[0] if xs[0] > max((abs(s) for s in xs[1:]), default=0.0) else 0.0
    inner = abs(xs[0]) ** float(p) - sum(abs(s) ** float(p) for s in xs[1:])
    return max(inner, 0.0) ** (1.0 / float(p))


def norm_eval(h: HyperbolicNorm, x: Vector) -> float:
    """Norm value as a float (the codomain is [0, inf]; these families are finite)."""
    _require_member(h, x)
    if isinstance(h, FormInduced):
        return math.sqrt(max(float(h.cone.form.inner(x, x)), 0.0))
    if isinstance(h, PHyperbolic):
        return _pnorm_value(h.p, x.as_floats())
    acc = sum(float(w) * float(f) ** float(h.q) for w, f in zip(h.weights, x.coords))
    return acc ** (1.0 / float(h.q)) if acc > 0 else 0.0


def _require_quadratic(h: HyperbolicNorm, what: str):
    """Only p = 2 and form-induced norms are squares of a quadratic form."""
    if not (isinstance(h, FormInduced) or (isinstance(h, PHyperbolic) and h.p == 2)):
        raise UnsupportedFamily(f"exact {what} needs p = 2 or a form-induced norm")


def _bilinear_form(h: HyperbolicNorm) -> SymMatrix:
    """The matrix B with ||x||^2 = x^T B x of a quadratic-family norm: the
    form's ``std`` for a form-induced norm, diag(1, -1, ..., -1) for p = 2."""
    return h.cone.form.std if isinstance(h, FormInduced) else _minkowski_matrix(h.spatial_dim + 1)


def norm_sq_eval(h: HyperbolicNorm, x: Vector) -> Fraction:
    """Exact rational squared norm; only the quadratic families support it."""
    _require_quadratic(h, "squared norm")
    _require_member(h, x)
    return _norm_sq(h, x)


def reverse_triangle_residual(h: HyperbolicNorm, u: Vector, v: Vector) -> float:
    """||u + v|| - ||u|| - ||v||; >= 0 for a valid hyperbolic norm."""
    _require_member(h, u)
    _require_member(h, v)
    return norm_eval(h, u + v) - norm_eval(h, u) - norm_eval(h, v)


def polarizability_residual(h: HyperbolicNorm, v: Vector, w: Vector) -> Scalar:
    """LHS - RHS of ||v+2w||^2 + ||v||^2 = 2||v+w||^2 + 2||w||^2.

    Exactly zero (Fraction) on positively polarizable exact families;
    nonzero witnesses certify failure for p = 1 (exact) and p = 3 (float).
    """
    _require_member(h, v)
    _require_member(h, w)
    lhs = _norm_sq(h, v + w.scale(2)) + _norm_sq(h, v)
    rhs = 2 * _norm_sq(h, v + w) + 2 * _norm_sq(h, w)
    return lhs - rhs


def polar_inner(h: HyperbolicNorm, v: Vector, w: Vector) -> Fraction:
    """Polarization pairing (||v+w||^2 - ||v||^2 - ||w||^2) / 2, exact.

    On the quadratic families ||x||^2 = x^T B x for a symmetric matrix B
    (``_bilinear_form``), and the polarization identity
    B(v+w, v+w) - B(v, v) - B(w, w) = 2 B(v, w) makes the pairing
    v^T B w itself, one ``quad`` on the vectors' integers.
    ``polarizability_residual`` still evaluates squared norms: it tests the
    identity.
    """
    _require_polar_pair(h, v, w)
    return _bilinear_form(h).quad(v, w)


def _require_polar_pair(h: HyperbolicNorm, v: Vector, w: Vector):
    """The checks of an exact pairing: the family, then v's and w's membership."""
    _require_quadratic(h, "polarization")
    _require_member(h, v)
    _require_member(h, w)


def _cs_triple(b: SymMatrix, v: Vector, w: Vector) -> tuple[int, int, int]:
    """(b_vw, b_vv, b_ww) = ``_int_quad`` of (v, w), (v, v) and (w, w) under
    a bilinear form B = N / D.  On the one scale k = D d_v d_w,
    <v, w> = b_vw / k and ||v||^2 ||w||^2 = b_vv b_ww / k^2, so
    <v, w>^2 - ||v||^2 ||w||^2 = (b_vw^2 - b_vv b_ww) / k^2."""
    return b._int_quad(v, w), b._int_quad(v, v), b._int_quad(w, w)


@dataclass(frozen=True)
class ReverseCSResult:
    residual: float  # <v,w> - ||v|| ||w||
    inner: Fraction  # exact <v,w>
    inner_sq_minus_prod: Fraction  # exact <v,w>^2 - ||v||^2 ||w||^2
    holds: bool  # decided without square roots


def reverse_cs_residual(h: HyperbolicNorm, v: Vector, w: Vector) -> ReverseCSResult:
    """Reverse Cauchy-Schwarz check <v,w> >= ||v|| ||w|| on cone members,
    decided on the integers of ``_cs_triple``."""
    _require_polar_pair(h, v, w)
    b = _bilinear_form(h)
    bvw, bvv, bww = _cs_triple(b, v, w)
    k = b._den * v._den * w._den
    gap = bvw * bvw - bvv * bww
    # int / int rounds as float(Fraction) does: ||v||^2 = b_vv / (D d_v^2)
    nv, nw = bvv / (b._den * v._den * v._den), bww / (b._den * w._den * w._den)
    residual = bvw / k - math.sqrt(max(nv, 0.0) * max(nw, 0.0))
    return ReverseCSResult(residual, Fraction(bvw, k), Fraction(gap, k * k), bvw >= 0 and gap >= 0)


def reverse_triangle_holds_exact(h: HyperbolicNorm, u: Vector, v: Vector) -> bool:
    """||u+v|| >= ||u|| + ||v|| via squared comparison (no square roots):
    <u,v> >= 0 and <u,v>^2 >= ||u||^2 ||v||^2, on integers."""
    _require_polar_pair(h, u, v)
    buv, buu, bvv = _cs_triple(_bilinear_form(h), u, v)
    return buv >= 0 and buv * buv >= buu * bvv


@dataclass(frozen=True)
class EqualityCollinearity:
    equality: bool
    collinear: bool


def _collinear_nonneg(v: Vector, w: Vector) -> bool:
    if v.is_zero() or w.is_zero():
        return True
    # on the integers of v and w: their denominators are positive
    vn, wn = v._nums, w._nums
    if exact_rank([vn, wn]) > 1:
        return False
    i = next(i for i, c in enumerate(wn) if c != 0)
    return vn[i] * wn[i] >= 0


def equality_is_collinear(h: HyperbolicNorm, v: Vector, w: Vector) -> EqualityCollinearity:
    """Detect ||v+w|| = ||v|| + ||w|| and whether v, w are nonneg-collinear.

    Each argument's membership is checked once, in argument order.  On
    exact families equality reduces to <v,w>^2 = ||v||^2 ||w||^2, decided
    on the integers of ``_cs_triple`` (the 1-hyperbolic norm is rational
    and compared directly); collinearity is an exact rank check plus sign
    of the ratio.  The other families, whose norm values are irrational
    floats, compare n(v+w) with n(v) + n(w), and the cross products v_i w_j
    with v_j w_i of the rounded coordinates, by the float rule ``approx_eq``.
    """
    _require_member(h, v)
    _require_member(h, w)
    if _norm_sq_exactable(h):
        if isinstance(h, PHyperbolic) and h.p == 1:
            # the 1-hyperbolic norm itself is rational: compare values directly
            def n1(u):
                return u.coords[0] - sum(abs(c) for c in u.coords[1:])

            eq = n1(v + w) == n1(v) + n1(w)
        else:
            # equality iff <v,w> = ||v|| ||w||, decided in squares
            bvw, bvv, bww = _cs_triple(_bilinear_form(h), v, w)
            eq = bvw * bvw == bvv * bww
        return EqualityCollinearity(eq, _collinear_nonneg(v, w))
    eq = approx_eq(norm_eval(h, v + w), norm_eval(h, v) + norm_eval(h, w))
    vf, wf = v.as_floats(), w.as_floats()
    cross = all(
        approx_eq(vf[i] * wf[j], vf[j] * wf[i]) for i in range(len(vf)) for j in range(i + 1, len(wf))
    )
    return EqualityCollinearity(eq, cross)
