"""Cone order, monotone Wick norm, and finite completeness certificates.

Sequential completeness is not finitely decidable, so the certificate
verifies the proof mechanism on a finite prefix: monotone time components,
the telescoping Cauchy bound on the spatial parts (exact), and a declared
limit once the tail residual drops below 1e-9 (exact, in squares).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cone import Cone, contains, leq
from .errors import PreconditionFailed
from .lorentz import LorentzFrame, wick_norm
from .numerics import Vector

LIMIT_RESIDUAL = 1e-9
_LIMIT_SQ = Fraction(LIMIT_RESIDUAL) ** 2
# terms before the declared limit whose Wick distance to it is reported
TAIL_TERMS = 5


@dataclass(frozen=True)
class SeqCheck:
    ok: bool
    fail_index: int | None = None

    def __bool__(self) -> bool:
        return self.ok


class OrderedSequence:
    """Finite prefix of a sequence in span(F), with the cone order."""

    __slots__ = ("cone", "frame", "terms")

    def __init__(self, cone: Cone, frame: LorentzFrame, terms: Sequence[Vector]):
        object.__setattr__(self, "cone", cone)
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "terms", tuple(terms))

    def __setattr__(self, *a):
        raise AttributeError("OrderedSequence is immutable")

    @classmethod
    def geometric(cls, cone: Cone, frame: LorentzFrame, target: Vector, n: int = 64) -> "OrderedSequence":
        """v_k = (1 - 2^-k) * target, approaching target from below."""
        terms = []
        r = Fraction(1)
        for _ in range(n):
            terms.append(target.scale(1 - r))
            r /= 2
        return cls(cone, frame, terms)

    @classmethod
    def affine(
        cls, cone: Cone, frame: LorentzFrame, start: Vector, step: Vector, n: int
    ) -> "OrderedSequence":
        terms = [start]
        for _ in range(n - 1):
            terms.append(terms[-1] + step)
        return cls(cone, frame, terms)


def is_nondecreasing(s: OrderedSequence) -> SeqCheck:
    """Consecutive differences must lie in the cone (exact)."""
    for k in range(len(s.terms) - 1):
        if not contains(s.cone, s.terms[k + 1] - s.terms[k]):
            return SeqCheck(False, k)
    return SeqCheck(True)


def is_bounded_above(s: OrderedSequence, y: Vector) -> SeqCheck:
    for k, v in enumerate(s.terms):
        if not leq(v, y, s.cone):
            return SeqCheck(False, k)
    return SeqCheck(True)


@dataclass(frozen=True)
class CompletenessCertificate:
    alpha_monotone: bool
    cauchy_bound_ok: bool
    limit: Vector | None
    max_residual: float
    converged: bool


def completeness_certificate(s: OrderedSequence, y: Vector) -> CompletenessCertificate:
    """Verify the convergence mechanism on the finite prefix.

    (a) time components alpha_k nondecreasing and bounded by alpha_y;
    (b) n(w_j - w_k) <= alpha_j - alpha_k for all j > k, exactly (the
        telescoping bound from the future-defect inequality), checked on
        consecutive terms only: by the Wick norm's triangle inequality they
        imply every other pair, n(w_j - w_k) <= sum_{k<=i<j} n(w_{i+1} -
        w_i) <= sum_{k<=i<j} (alpha_{i+1} - alpha_i).  As alpha_k = <v_k, t>
        and n(dw)^2 = dalpha^2 - <dv, dv>, a step holds iff dalpha >= 0 and
        <dv, dv> >= 0;
    (c) limit declared as the last term once consecutive Wick distance
        drops below LIMIT_RESIDUAL, decided exactly on the step's squared
        Wick norm against LIMIT_RESIDUAL^2, with the max (float) Wick
        distance of the TAIL_TERMS terms before it reported.
    """
    if not s.terms:
        raise PreconditionFailed("empty sequence")
    if not is_nondecreasing(s):
        raise PreconditionFailed("sequence is not nondecreasing")
    # with the steps in F, y - v_k = (y - v_last) + (v_last - v_k) is in F by convexity
    if not leq(s.terms[-1], y, s.cone):
        raise PreconditionFailed("sequence is not bounded above by y")
    frame = s.frame
    alphas = [frame.inner(v, frame.t) for v in s.terms]
    alpha_y = frame.inner(y, frame.t)
    alpha_monotone = all(
        alphas[k] <= alphas[k + 1] for k in range(len(alphas) - 1)
    ) and all(a <= alpha_y for a in alphas)
    steps = zip(s.terms, s.terms[1:], alphas, alphas[1:])
    std = frame.form.std
    cauchy_ok = all(b >= a and std._int_quad(v - u, v - u) >= 0 for u, v, a, b in steps)
    limit = None
    converged = False
    max_residual = float("inf")
    if len(s.terms) >= 2:
        # n_W(d) < LIMIT_RESIDUAL iff d^T W d < LIMIT_RESIDUAL^2, on integers:
        # d^T W d = _int_quad / (W_den d_den^2)
        d, w = s.terms[-1] - s.terms[-2], frame.wick
        if w._int_quad(d, d) * _LIMIT_SQ.denominator < _LIMIT_SQ.numerator * w._den * d._den**2:
            limit = s.terms[-1]
            converged = True
            tail_terms = s.terms[-(TAIL_TERMS + 1) : -1]
            max_residual = max(
                (wick_norm(frame, v - limit) for v in tail_terms), default=0.0
            )
    return CompletenessCertificate(alpha_monotone, cauchy_ok, limit, max_residual, converged)


def monotone_wick_check(frame: LorentzFrame, cone: Cone, x: Vector, y: Vector) -> bool:
    """Wick norm monotonicity along the cone order, in exact squares: with
    n_x = ``_int_quad`` of (x, x) under W, n_W(x)^2 = n_x / (W_den d_x^2),
    so n_W(x) <= n_W(y) iff n_x d_y^2 <= n_y d_x^2, on integers."""
    # y = x + (y - x) is in F by convexity: no check of its own
    if not (contains(cone, x) and leq(x, y, cone)):
        raise PreconditionFailed("need x, y in F with x <= y")
    w = frame.wick
    return w._int_quad(x, x) * y._den**2 <= w._int_quad(y, y) * x._den**2
