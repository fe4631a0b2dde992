"""Formal differences and the span of a cone.

The span is realized concretely: elements are equivalence classes of pairs
(pos, neg) of cone members under (v1, w1) ~ (v2, w2) iff v1 + w2 = v2 + w1.
Equality of ``FormalDifference`` values is equivalence-class equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .cone import Cone, Orthant, contains
from .errors import ConeMismatch, NotMember
from .lorentz import LorentzFrame
from .numerics import Vector, fraction_sqrt_bounds


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


def _decomposition_inequalities(frame: LorentzFrame, x: Vector, lam: Fraction) -> list[bool]:
    """The four constraints making v1,2 = lam*t +- x/2 future-causal."""
    alpha = frame.inner(x, frame.t)
    q = frame.inner(x, x)
    return [
        lam * lam + lam * alpha + q / 4 >= 0,
        lam * lam - lam * alpha + q / 4 >= 0,
        lam >= -alpha / 2,
        lam >= alpha / 2,
    ]


def future_decompose(x: Vector, frame: LorentzFrame) -> FutureDecomposition:
    """Split x = v1 - v2 with both parts in the causal future of t.

    Uses the minimal lam = (|alpha_x| + n(w_x)) / 2 solving the four
    constraints, with alpha_x = <x, t> and n(w_x)^2 = alpha_x^2 - <x, x>;
    when n(w_x) is irrational, a rational upper bound within 1e-15 is used
    instead, keeping v1 - v2 = x exact.  The constraints are re-checked
    exactly on every call.
    """
    alpha = frame.inner(x, frame.t)
    lo, hi = fraction_sqrt_bounds(alpha * alpha - frame.inner(x, x))
    lam = (abs(alpha) + hi) / 2
    if not all(_decomposition_inequalities(frame, x, lam)):
        raise AssertionError("minimal lambda failed its defining inequalities")
    half_x = x.scale(Fraction(1, 2))
    v1 = frame.t.scale(lam) + half_x
    v2 = frame.t.scale(lam) - half_x
    return FutureDecomposition(v1, v2, lam, lo == hi)


# how far below lam future_decompose_is_minimal probes the constraints
MINIMALITY_SLACK = Fraction(1, 1000)


def future_decompose_is_minimal(frame: LorentzFrame, x: Vector, lam: Fraction) -> bool:
    """True iff lam - MINIMALITY_SLACK violates a constraint (or lam = 0)."""
    if lam == 0:
        return True
    return not all(_decomposition_inequalities(frame, x, lam - MINIMALITY_SLACK))
