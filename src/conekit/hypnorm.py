"""Hyperbolic norm families, polarization, reverse Cauchy-Schwarz.

Checks work on squared norms: every check expressible in squares
(polarizability, reverse CS, equality cases) is decided exactly, so null
and boundary cases come out exactly.  On the quadratic families the reverse
Cauchy-Schwarz and reverse triangle signs and the equality case are read
off three integers of the bilinear form (``_cs_triple``), with no Fraction
built for a sign.  Square roots force floats.  Each argument's membership
is checked once: the cones are convex (p >= 1), so sums of members such as
v + w and v + 2w are members, evaluated unchecked.  That check is exact, so
a p-hyperbolic call raises UnsupportedFamily where ``PCone`` membership does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .cone import Cone, FutureCone, Orthant, PCone, _pcone_holds, contains
from .errors import OutsideCone, UnsupportedFamily
from .lorentz import _minkowski_matrix
from .numerics import SymMatrix, Vector, approx_eq

# a Fraction, or the float value of a norm that needs a root
Scalar = Union[Fraction, float]


@dataclass(frozen=True)
class PHyperbolic:
    """(x0^p - sum |x_j|^p)^(1/p) on the p-cone in R^{1+n}.

    p = math.inf is the p -> inf limit: x0 inside the cone, 0 on its boundary.
    Every call checks membership with ``PCone``'s exact rule: for a
    non-integer p, or an integer p above ``cone.MAX_EXACT_P``, a point with
    max |x_j| < x0 < sum |x_j| raises UnsupportedFamily.
    """

    p: object
    spatial_dim: int

    def __post_init__(self):
        PCone(self.p, self.spatial_dim)  # raises UnsupportedFamily for p < 1


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


def _quadratic_form(h: HyperbolicNorm, what: str, *members: Vector) -> SymMatrix:
    """The checks of an exact quadratic-family call: the family, then each
    member's membership, in order.  Returns ``_bilinear_form(h)``."""
    b = _bilinear_form(h)
    if b is None:
        raise UnsupportedFamily(f"exact {what} needs p = 2 or a form-induced norm")
    for x in members:
        _require_member(h, x)
    return b


def _norm_sq(h: HyperbolicNorm, x: Vector) -> Scalar:
    """Squared norm of a cone member, unchecked: a Fraction on the quadratic
    families and for p = 1, a float otherwise."""
    b = _bilinear_form(h)
    if b is not None:
        return b.quad(x, x)
    if isinstance(h, PHyperbolic) and h.p == 1:
        return _norm1(x) ** 2
    v = _norm_value(h, x)
    return v * v


def _norm1(x: Vector) -> Fraction:
    """The 1-hyperbolic norm x0 - sum |x_j| of a member, on x's integers over its denominator."""
    x0, *spatial = x._nums
    return Fraction(x0 - sum(abs(s) for s in spatial), x._den)


def norm_eval(h: HyperbolicNorm, x: Vector) -> float:
    """Norm value as a float (the codomain is [0, inf]; these families are finite)."""
    _require_member(h, x)
    return _norm_value(h, x)


def _norm_value(h: HyperbolicNorm, x: Vector) -> float:
    """``norm_eval`` on a vector already known to be in the cone."""
    if isinstance(h, FormInduced):
        return math.sqrt(max(float(h.cone.form.inner(x, x)), 0.0))
    if isinstance(h, PHyperbolic):
        x0, *spatial = x.as_floats()
        if h.p == math.inf:
            return x0 if _pcone_holds(math.inf, x, strict=True) else 0.0
        inner = abs(x0) ** float(h.p) - sum(abs(s) ** float(h.p) for s in spatial)
        return max(inner, 0.0) ** (1.0 / float(h.p))
    acc = sum(float(w) * float(f) ** float(h.q) for w, f in zip(h.weights, x.coords))
    return acc ** (1.0 / float(h.q)) if acc > 0 else 0.0


def _bilinear_form(h: HyperbolicNorm) -> SymMatrix | None:
    """The matrix B with ||x||^2 = x^T B x of the quadratic families: the
    form's ``std`` for a form-induced norm, diag(1, -1, ..., -1) for p = 2.
    None for every other family."""
    if isinstance(h, FormInduced):
        return h.cone.form.std
    return _minkowski_matrix(h.spatial_dim + 1) if isinstance(h, PHyperbolic) and h.p == 2 else None


def norm_sq_eval(h: HyperbolicNorm, x: Vector) -> Fraction:
    """Exact rational squared norm; only the quadratic families support it."""
    return _quadratic_form(h, "squared norm", x).quad(x, x)


def reverse_triangle_residual(h: HyperbolicNorm, u: Vector, v: Vector) -> float:
    """||u + v|| - ||u|| - ||v||; >= 0 for a valid hyperbolic norm."""
    _require_member(h, u)
    _require_member(h, v)
    return _norm_value(h, u + v) - _norm_value(h, u) - _norm_value(h, v)


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
    return _quadratic_form(h, "polarization", v, w).quad(v, w)


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
    b = _quadratic_form(h, "polarization", v, w)
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
    buv, buu, bvv = _cs_triple(_quadratic_form(h, "polarization", u, v), u, v)
    return buv >= 0 and buv * buv >= buu * bvv


@dataclass(frozen=True)
class EqualityCollinearity:
    equality: bool
    collinear: bool


def _collinear_nonneg(v: Vector, w: Vector) -> bool:
    if v.is_zero() or w.is_zero():
        return True
    # on the integers (positive denominators): v = (v_i / w_i) w iff v_j w_i = v_i w_j for all j
    vn, wn = v._nums, w._nums
    i = next(i for i, c in enumerate(wn) if c != 0)
    return vn[i] * wn[i] >= 0 and all(x * wn[i] == vn[i] * y for x, y in zip(vn, wn))


def equality_is_collinear(h: HyperbolicNorm, v: Vector, w: Vector) -> EqualityCollinearity:
    """Detect ||v+w|| = ||v|| + ||w|| and whether v, w are nonneg-collinear.

    On exact families equality reduces to <v,w>^2 = ||v||^2 ||w||^2, decided
    on the integers of ``_cs_triple`` (the 1-hyperbolic norm is rational and
    compared directly); collinearity is exact: the cross products of the
    integers against w's first nonzero coordinate, plus the sign of the
    ratio.  The other families, whose norm values are irrational
    floats, compare n(v+w) with n(v) + n(w), and the cross products v_i w_j
    with v_j w_i of the rounded coordinates, by the float rule ``approx_eq``.
    """
    _require_member(h, v)
    _require_member(h, w)
    b = _bilinear_form(h)
    if b is not None:
        # equality iff <v,w> = ||v|| ||w||, decided in squares
        bvw, bvv, bww = _cs_triple(b, v, w)
        return EqualityCollinearity(bvw * bvw == bvv * bww, _collinear_nonneg(v, w))
    if isinstance(h, PHyperbolic) and h.p == 1:
        # the 1-hyperbolic norm itself is rational: compare values directly
        return EqualityCollinearity(_norm1(v + w) == _norm1(v) + _norm1(w), _collinear_nonneg(v, w))
    eq = approx_eq(_norm_value(h, v + w), _norm_value(h, v) + _norm_value(h, w))
    vf, wf = v.as_floats(), w.as_floats()
    cross = all(
        approx_eq(vf[i] * wf[j], vf[j] * wf[i]) for i in range(len(vf)) for j in range(i + 1, len(wf))
    )
    return EqualityCollinearity(eq, cross)
