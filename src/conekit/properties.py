"""Seeded random samplers and named property suites.

Each suite draws exact rational samples from a deterministic RNG, checks
one library invariant, and returns a PropertyResult that both the test
suite and the `conekit proptest` subcommand consume.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .cone import FutureCone, Polyhedral, is_proper, leq, sample_future_causal, self_duality_report
from .hypnorm import PHyperbolic, equality_is_collinear, polarizability_residual, reverse_cs_residual
from .lorentz import (
    FormKind,
    classify,
    decompose,
    future_defect_exact,
    gram_from_cone_basis,
    minkowski_form,
    minkowski_frame,
    wick_inner,
)
from .numerics import Vector, exact_det
from .order import monotone_wick_check
from .span import (
    FormalDifference,
    embed,
    equiv,
    extend_linear,
    future_decompose,
    future_decompose_is_minimal,
)


# ambient dimension of the polarizability, reverse_cs, nondegenerate, wick,
# order and span suites; future_decompose draws frames of spatial dimension
# 1..MAX_SPATIAL; BASIS_TRIES bounds sample_independent_cone_basis's draws
SUITE_DIM = 3
MAX_SPATIAL = 5
BASIS_TRIES = 200
# rand_fraction draws multiples of 1/RAND_DEN in [-RAND_BOUND, RAND_BOUND]
RAND_BOUND = 8
RAND_DEN = 8


def rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-RAND_BOUND * RAND_DEN, RAND_BOUND * RAND_DEN), RAND_DEN)


def rand_vector(rng: random.Random, dim: int) -> Vector:
    return Vector([rand_fraction(rng) for _ in range(dim)])


def sample_p2_cone_point(rng: random.Random, spatial_dim: int) -> Vector:
    """Exact point of the p=2 cone: alpha dominates the l1 bound on |w|_2."""
    w = [rand_fraction(rng) for _ in range(spatial_dim)]
    slack = Fraction(rng.randint(0, 16), 8)
    alpha = sum(abs(c) for c in w) + slack
    return Vector([alpha] + w)


def sample_p2_interior_point(rng: random.Random, spatial_dim: int) -> Vector:
    w = [rand_fraction(rng) for _ in range(spatial_dim)]
    alpha = sum(abs(c) for c in w) + Fraction(rng.randint(1, 16), 8)
    return Vector([alpha] + w)


def sample_independent_cone_basis(rng: random.Random, dim: int) -> list:
    # small perturbations of the standard cone basis stay independent and inside
    for _ in range(BASIS_TRIES):
        basis = []
        t = sample_p2_interior_point(rng, dim - 1)
        basis.append(t)
        for i in range(1, dim):
            w = [Fraction(rng.randint(-2, 2), 8) for _ in range(dim - 1)]
            w[i - 1] += 1
            alpha = sum(abs(c) for c in w) + Fraction(rng.randint(1, 8), 8)
            basis.append(Vector([alpha] + w))
        rows = [list(v.coords) for v in basis]
        if exact_det(rows) != 0:
            return basis
    raise RuntimeError("failed to sample an independent basis")


@dataclass
class PropertyResult:
    name: str
    passed: bool
    trials: int
    metrics: dict = field(default_factory=dict)
    witness: dict | None = None


def _fail(name: str, trials: int, witness: dict, **metrics) -> PropertyResult:
    return PropertyResult(name, False, trials, dict(metrics), witness)


def suite_polarizability(trials: int = 10_000, seed: int = 0) -> PropertyResult:
    """p=2 polarizability residual is exactly zero on random cone pairs."""
    rng = random.Random(seed)
    h = PHyperbolic(2, SUITE_DIM - 1)
    for k in range(trials):
        v = sample_p2_cone_point(rng, SUITE_DIM - 1)
        w = sample_p2_cone_point(rng, SUITE_DIM - 1)
        r = polarizability_residual(h, v, w)
        if r != 0:
            return _fail("polarizability", k + 1, {"v": v, "w": w, "residual": r})
    return PropertyResult("polarizability", True, trials, {"max_residual": 0})


def suite_reverse_cs(trials: int = 10_000, seed: int = 1) -> PropertyResult:
    """Reverse CS and reverse triangle hold exactly; equality iff collinear."""
    rng = random.Random(seed)
    h = PHyperbolic(2, SUITE_DIM - 1)
    for k in range(trials):
        v = sample_p2_cone_point(rng, SUITE_DIM - 1)
        w = sample_p2_cone_point(rng, SUITE_DIM - 1)
        res = reverse_cs_residual(h, v, w)
        if not res.holds:
            return _fail("reverse_cs", k + 1, {"v": v, "w": w})
        ec = equality_is_collinear(h, v, w)
        if ec.equality and not ec.collinear:
            return _fail("reverse_cs", k + 1, {"v": v, "w": w, "kind": "equality"})
    return PropertyResult("reverse_cs", True, trials)


def suite_nondegenerate(trials: int = 100, seed: int = 2) -> PropertyResult:
    """Random cone bases give det(Gram) != 0 and a Lorentzian signature.

    Both are computed on the Gram matrix itself, not read off the form's
    signature, which ``gram_from_cone_basis`` knows by Sylvester's law."""
    rng = random.Random(seed)
    h = PHyperbolic(2, SUITE_DIM - 1)
    for k in range(trials):
        basis = sample_independent_cone_basis(rng, SUITE_DIM)
        m = gram_from_cone_basis(h, basis).gram
        d = exact_det(m._int_rows()) / m._den**m.dim  # det(N / D) = det(N) / D^n
        sig = classify(m)
        if d == 0 or sig.kind is not FormKind.LORENTZIAN:
            return _fail("nondegenerate", k + 1, {"basis": basis, "det": d, "sig": sig})
    return PropertyResult("nondegenerate", True, trials)


def suite_wick(trials: int = 10_000, seed: int = 3) -> PropertyResult:
    """Decomposition reconstructs, Wick form is positive definite,
    future defect is nonnegative on future-causal vectors."""
    rng = random.Random(seed)
    frame = minkowski_frame(SUITE_DIM - 1)
    for k in range(trials):
        v = rand_vector(rng, SUITE_DIM)
        d = decompose(frame, v)
        if frame.t.scale(d.alpha) + d.w != v:
            return _fail("wick", k + 1, {"v": v, "kind": "reconstruction"})
        if not v.is_zero() and wick_inner(frame, v, v) <= 0:
            return _fail("wick", k + 1, {"v": v, "kind": "positivity"})
        x = sample_future_causal(frame, rng)
        if future_defect_exact(frame, x) < 0:
            return _fail("wick", k + 1, {"x": x, "kind": "defect"})
    return PropertyResult("wick", True, trials)


def suite_future_decompose(trials: int = 10_000, seed: int = 4) -> PropertyResult:
    rng = random.Random(seed)
    frames = [minkowski_frame(n) for n in range(1, MAX_SPATIAL + 1)]
    for k in range(trials):
        frame = frames[rng.randrange(len(frames))]
        x = rand_vector(rng, frame.form.dim)
        fd = future_decompose(x, frame)
        if fd.v1 - fd.v2 != x:
            return _fail("future_decompose", k + 1, {"x": x, "kind": "difference"})
        if future_defect_exact(frame, fd.v1) < 0 or future_defect_exact(frame, fd.v2) < 0:
            return _fail("future_decompose", k + 1, {"x": x, "kind": "causal"})
        if not future_decompose_is_minimal(frame, x, fd.lambda_star):
            return _fail("future_decompose", k + 1, {"x": x, "kind": "minimal"})
    return PropertyResult("future_decompose", True, trials)


def suite_self_duality(trials: int = 10_000, seed: int = 5) -> PropertyResult:
    """Minkowski R^3 future cone is self-dual; a strict polyhedral
    subcone of it fails with a witness."""
    form = minkowski_form(2)
    cone = FutureCone(form, Vector([1, 0, 0]))
    rep = self_duality_report(cone, form, samples=trials, seed=seed)
    if not rep.holds:
        return _fail("self_duality", trials, {"witness": rep.witness, "direction": rep.direction})
    sub = Polyhedral([Vector([1, 0]), Vector([1, 1])])
    form2 = minkowski_form(1)
    rep2 = self_duality_report(sub, form2, samples=trials, seed=seed + 1)
    if rep2.holds or rep2.witness is None:
        return _fail("self_duality", trials, {"kind": "subcone should fail"})
    return PropertyResult(
        "self_duality", True, trials, {"subcone_witness": rep2.witness, "direction": rep2.direction}
    )


def suite_order(trials: int = 10_000, seed: int = 6) -> PropertyResult:
    """Antisymmetry of <= on a proper cone and monotone Wick norm."""
    rng = random.Random(seed)
    frame = minkowski_frame(SUITE_DIM - 1)
    cone = FutureCone(frame.form, frame.t)
    assert is_proper(cone)
    for k in range(trials):
        x = sample_future_causal(frame, rng)
        z = sample_future_causal(frame, rng)
        y = x + z
        if not monotone_wick_check(frame, cone, x, y):
            return _fail("order", k + 1, {"x": x, "y": y, "kind": "monotone"})
        # antisymmetry: x <= y and y <= x force x = y
        if leq(x, y, cone) and leq(y, x, cone) and x != y:
            return _fail("order", k + 1, {"x": x, "y": y, "kind": "antisymmetry"})
        if z != Vector.zero(SUITE_DIM) and leq(y, x, cone):
            return _fail("order", k + 1, {"x": x, "y": y, "kind": "strictness"})
    return PropertyResult("order", True, trials)


def suite_span(trials: int = 1_000, seed: int = 7) -> PropertyResult:
    """equiv is an equivalence relation and extend_linear is well defined
    across equivalent representatives, with f = extend_linear . embed."""
    rng = random.Random(seed)
    frame = minkowski_frame(SUITE_DIM - 1)
    cone = FutureCone(frame.form, frame.t)
    mat = [[rand_fraction(rng) for _ in range(SUITE_DIM)] for _ in range(2)]

    def f(u: Vector) -> Vector:
        return Vector([sum(r[i] * u.coords[i] for i in range(SUITE_DIM)) for r in mat])

    for k in range(trials):
        u = sample_future_causal(frame, rng)
        v = sample_future_causal(frame, rng)
        w = sample_future_causal(frame, rng)
        a = FormalDifference(cone, u, v)
        b = FormalDifference(cone, u + w, v + w)
        c = FormalDifference(cone, u + w + w, v + w + w)
        if not (equiv(a, a) and equiv(a, b) and equiv(b, a)):
            return _fail("span", k + 1, {"u": u, "v": v, "w": w, "kind": "relation"})
        if equiv(a, b) and equiv(b, c) and not equiv(a, c):
            return _fail("span", k + 1, {"u": u, "v": v, "w": w, "kind": "transitivity"})
        if extend_linear(f, a) != extend_linear(f, b):
            return _fail("span", k + 1, {"u": u, "v": v, "kind": "well-defined"})
        if extend_linear(f, embed(u, cone)) != f(u):
            return _fail("span", k + 1, {"u": u, "kind": "factorization"})
    return PropertyResult("span", True, trials)


SUITES: dict[str, Callable[..., PropertyResult]] = {
    "polarizability": suite_polarizability,
    "reverse_cs": suite_reverse_cs,
    "nondegenerate": suite_nondegenerate,
    "wick": suite_wick,
    "future_decompose": suite_future_decompose,
    "self_duality": suite_self_duality,
    "order": suite_order,
    "span": suite_span,
}


def run_suite(name: str, trials: int | None = None, seed: int | None = None) -> PropertyResult:
    fn = SUITES.get(name)
    if fn is None:
        raise KeyError(name)
    kwargs = {}
    if trials is not None:
        kwargs["trials"] = trials
    if seed is not None:
        kwargs["seed"] = seed
    return fn(**kwargs)
