"""Formal differences and the span of a cone.

The span is realized concretely: elements are equivalence classes of pairs
(pos, neg) of cone members under (v1, w1) ~ (v2, w2) iff v1 + w2 = v2 + w1.
Equality of ``FormalDifference`` values is equivalence-class equality.
``future_decompose`` splits any x into future-causal parts on the integers
of the form and the vectors: the four constraints on lam are integer
inequalities, and lam is the one ``Fraction`` built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .cone import Cone, Orthant, contains
from .errors import ConeMismatch, NotMember
from .lorentz import LorentzFrame
from .numerics import Vector, _int_vector, _sqrt_bounds, as_scalar


class FormalDifference:
    """Equivalence class pos - neg over a carried cone."""

    __slots__ = ("cone", "pos", "neg")

    def __init__(self, cone: Cone, pos: Vector, neg: Vector):
        if not contains(cone, pos):
            raise NotMember("positive part is not in the cone")
        if not contains(cone, neg):
            raise NotMember("negative part is not in the cone")
        object.__setattr__(self, "cone", cone)
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "neg", neg)

    def __setattr__(self, *a):
        raise AttributeError("FormalDifference is immutable")

    def value(self) -> Vector:
        """The represented span element pos - neg in ambient coordinates."""
        return self.pos - self.neg

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalDifference):
            return NotImplemented
        if self.cone != other.cone:
            return False
        return equiv(self, other)

    def __hash__(self):
        raise TypeError("FormalDifference values are unhashable (class equality)")

    def __repr__(self):
        return f"FormalDifference({self.pos!r} - {self.neg!r})"


def embed(x: Vector, c: Cone) -> FormalDifference:
    """The canonical map iota: F -> span(F), x |-> class of (x, 0)."""
    return FormalDifference(c, x, Vector.zero(x.dim))


def equiv(a: FormalDifference, b: FormalDifference) -> bool:
    """(v1, w1) ~ (v2, w2) iff v1 + w2 = v2 + w1 (componentwise exact)."""
    if a.cone != b.cone:
        raise ConeMismatch("formal differences over different cones")
    return a.pos + b.neg == b.pos + a.neg


def canonicalize(d: FormalDifference) -> FormalDifference:
    """Reduced representative (Orthant only): subtract the componentwise min."""
    if not isinstance(d.cone, Orthant):
        return d
    m = [min(p, q) for p, q in zip(d.pos.coords, d.neg.coords)]
    pos = Vector([p - x for p, x in zip(d.pos.coords, m)])
    neg = Vector([q - x for q, x in zip(d.neg.coords, m)])
    return FormalDifference(d.cone, pos, neg)


def extend_linear(f: Callable[[Vector], Vector], d: FormalDifference) -> Vector:
    """The unique linear extension: f~(pos - neg) = f(pos) - f(neg)."""
    return f(d.pos) - f(d.neg)


@dataclass(frozen=True)
class FutureDecomposition:
    v1: Vector
    v2: Vector
    lambda_star: Fraction
    exact_lambda: bool  # False when lambda_star is a rational upper bound


def _decomposition_ints(frame: LorentzFrame, x: Vector) -> tuple[int, int, int]:
    """(a, q, k): <x, t> = a / k and <x, x> = q / k^2, k = D d_x d_t for S = N / D."""
    s, t = frame.form.std, frame.t
    return s._int_quad(x, t), s._int_quad(x, x) * s._den * t._den**2, s._den * x._den * t._den


def _lambda_holds(a: int, q: int, k: int, lam: Fraction) -> bool:
    """The four constraints making v1,2 = lam t +- x/2 future-causal,
    lam^2 +- lam alpha + <x, x> / 4 >= 0 and lam >= +-alpha / 2, times
    4 lam_d^2 k^2 resp. 2 lam_d k > 0: B +- C >= 0 and 2 lam_n k >= |a| lam_d."""
    ln, ld = lam.numerator, lam.denominator
    b, c = 4 * ln * ln * k * k + ld * ld * q, 4 * ln * ld * k * a
    return b >= abs(c) and 2 * ln * k >= abs(a) * ld


def future_decompose(x: Vector, frame: LorentzFrame) -> FutureDecomposition:
    """Split x = v1 - v2 with both parts in the causal future of t.

    Uses the minimal lam = (|alpha_x| + n(w_x)) / 2 solving the four
    constraints, with alpha_x = <x, t> and n(w_x)^2 = alpha_x^2 - <x, x>;
    when n(w_x) is irrational, a rational upper bound within 1e-15 is used
    instead, keeping v1 - v2 = x exact.  On ``_decomposition_ints``'s (a, q, k),
    n(w_x)^2 = (a^2 - q) / k^2 is reduced by one gcd (its root's bound depends
    on lowest terms); v1, v2 are integer vectors over 2 lam_d d_t d_x.  The
    constraints are re-checked exactly on every call.
    """
    a, q, k = _decomposition_ints(frame, x)
    r, kk = a * a - q, k * k
    g = math.gcd(r, kk)
    lo, hi, den = _sqrt_bounds(r // g, kk // g)
    lam = Fraction(abs(a) * den + hi * k, 2 * k * den)
    if not _lambda_holds(a, q, k, lam):
        raise AssertionError("minimal lambda failed its defining inequalities")
    t, ln, ld = frame.t, lam.numerator, lam.denominator
    ts, xs = [2 * ln * x._den * c for c in t._nums], [ld * t._den * c for c in x._nums]
    e = 2 * ld * t._den * x._den
    v1, v2 = (_int_vector([p + sign * y for p, y in zip(ts, xs)], e) for sign in (1, -1))
    return FutureDecomposition(v1, v2, lam, lo == hi)


# how far below lam future_decompose_is_minimal probes the constraints
MINIMALITY_SLACK = Fraction(1, 1000)


def future_decompose_is_minimal(frame: LorentzFrame, x: Vector, lam: Fraction) -> bool:
    """True iff lam - MINIMALITY_SLACK violates a constraint (or lam = 0)."""
    if lam == 0:
        return True
    return not _lambda_holds(*_decomposition_ints(frame, x), as_scalar(lam) - MINIMALITY_SLACK)
