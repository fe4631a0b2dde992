"""Acceptance criteria, one test per criterion, one printed line each.

Each test prints "criterion N (<label>): PASS" on success; a failure
raises before the line is printed and pytest reports it red.
"""

import json
import math
import os
import random
from fractions import Fraction as F

import numpy as np

from conekit.cli import main as cli_main
from conekit.cone import (
    FutureCone,
    Polyhedral,
    contains,
    leq,
    sample_future_causal,
    self_duality_report,
)
from conekit.extension import (
    ExtensionProblem,
    WickBaseNorm,
    equivalence_constant,
    extended_norm,
    grid_oracle,
)
from conekit.hypnorm import (
    FormInduced,
    PHyperbolic,
    equality_is_collinear,
    polarizability_residual,
    reverse_cs_residual,
    reverse_triangle_holds_exact,
)
from conekit.lorentz import minkowski_frame, wick_norm
from conekit.numerics import Vector
from conekit.order import OrderedSequence, completeness_certificate
from conekit.properties import (
    run_suite,
    sample_p2_cone_point,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def ok(n, label):
    print(f"criterion {n} ({label}): PASS")


def vec(*xs):
    return Vector([F(x) for x in xs])


def test_criterion_1_polarization_recovers_minkowski():
    for n in range(1, 6):
        h = PHyperbolic(2, n)
        basis = [Vector.unit(n + 1, 0)]
        for i in range(1, n + 1):
            basis.append(Vector.unit(n + 1, 0) + Vector.unit(n + 1, i))
        from conekit.lorentz import gram_from_cone_basis

        std = gram_from_cone_basis(h, basis).in_standard_coordinates().rows
        for i in range(n + 1):
            for j in range(n + 1):
                want = F(1) if i == j == 0 else (F(-1) if i == j else F(0))
                assert std[i][j] - want == 0
    ok(1, "polarization recovers Minkowski, zero rational residual, n=1..5")


def test_criterion_2_polarizability_dichotomy():
    res = run_suite("polarizability", trials=10_000, seed=0)
    assert res.passed
    assert polarizability_residual(PHyperbolic(1, 1), vec(1, 1), vec(1, -1)) == -4
    r3 = polarizability_residual(PHyperbolic(3, 1), vec(1, 1), vec(1, -1))
    assert abs(r3 - (26 ** (2 / 3) - 8)) <= 1e-6
    ok(2, "polarizability: p=2 exactly 0 on 1e4 pairs; p=1/p=3 witnesses")


def test_criterion_3_reverse_inequalities_and_strictness():
    rng = random.Random(3)
    frames = {d: minkowski_frame(d) for d in range(1, 8)}
    for k in range(10_000):
        d = rng.randint(1, 7)  # ambient dims 2..8
        if k % 2 == 0:
            h = PHyperbolic(2, d)
            u = sample_p2_cone_point(rng, d)
            v = sample_p2_cone_point(rng, d)
        else:
            frame = frames[d]
            h = FormInduced(FutureCone(frame.form, frame.t))
            u = sample_future_causal(frame, rng, radius=F(5))
            v = sample_future_causal(frame, rng, radius=F(5))
        assert reverse_triangle_holds_exact(h, u, v)
        assert reverse_cs_residual(h, u, v).holds
        ec = equality_is_collinear(h, u, v)
        if ec.equality:
            assert ec.collinear
    # the same checks as the reverse_cs suite of `conekit proptest` runs them
    assert run_suite("reverse_cs", trials=10_000, seed=1).passed
    ok(3, "reverse triangle + reverse CS exact, equality => collinear, 1e4 pairs and the suite")


def test_criterion_4_nondegeneracy():
    res = run_suite("nondegenerate", trials=100, seed=2)
    assert res.passed
    ok(4, "100 random cone bases: det != 0 and Lorentzian signature, exact")


def test_criterion_5_lorentz_decomposition_wick():
    res = run_suite("wick", trials=10_000, seed=3)
    assert res.passed
    ok(5, "decomposition exact, Wick positive definite, future defect >= 0, 1e4")


def test_criterion_6_future_decompose():
    res = run_suite("future_decompose", trials=10_000, seed=4)
    assert res.passed
    ok(6, "future_decompose exact + minimal on 1e4 samples, n <= 5")


def test_criterion_7_self_duality():
    res = run_suite("self_duality", trials=10_000, seed=5)
    assert res.passed
    assert res.metrics["subcone_witness"] is not None
    ok(7, "Minkowski R^3 self-dual on 1e4 samples; strict subcone fails with witness")


def test_criterion_8_extended_norm():
    frame = minkowski_frame(1)
    cone = FutureCone(frame.form, frame.t)
    wick = WickBaseNorm(frame)
    rng = random.Random(8)

    # solver vs independent oracle on 100 random 2-D instances
    from conekit.extension import CoordBaseNorm

    for k in range(100):
        if k % 2 == 0:
            c, b = cone, wick
        else:
            c = Polyhedral([vec(1, F(rng.randint(-1, 1), 2)), vec(F(1, 2), 1)])
            b = CoordBaseNorm("l2")
        x = Vector([rng.uniform(-3, 3), rng.uniform(-3, 3)])
        p = ExtensionProblem(c, b, x)
        assert abs(extended_norm(p).value - grid_oracle(p)) <= 3e-3

    # n~((0,1)) = sqrt(2)
    val = extended_norm(ExtensionProblem(cone, wick, Vector([0.0, 1.0]))).value
    assert abs(val - math.sqrt(2)) <= 1e-3

    # n~ = n on F, 1e3 cone points
    for _ in range(1_000):
        x = sample_future_causal(frame, rng)
        xf = Vector([float(c) for c in x.coords])
        v = extended_norm(ExtensionProblem(cone, wick, xf)).value
        assert abs(v - wick_norm(frame, x)) <= 1e-6

    # n~(x) <= K n(x) with K = 2 n(s)/delta + 1 = 5 for s=(1,0), delta=1/2
    k = equivalence_constant(cone, wick, vec(1, 0), 0.5)
    assert k == 5.0
    for _ in range(1_000):
        x = Vector([rng.uniform(-3, 3), rng.uniform(-3, 3)])
        nt = extended_norm(ExtensionProblem(cone, wick, x)).value
        assert nt <= k * wick.value(np.array(x.coords)) + 1e-6
    ok(8, "extended norm: oracle within 3e-3, sqrt(2) value, n~ = n on F, K = 5 bound")


def test_criterion_9_order_suite():
    res = run_suite("order", trials=10_000, seed=6)
    assert res.passed
    # completeness certificate on geometric sequences toward random targets
    frame = minkowski_frame(1)
    cone = FutureCone(frame.form, frame.t)
    rng = random.Random(9)
    for _ in range(20):
        target = sample_future_causal(frame, rng)
        if target.is_zero():
            continue
        s = OrderedSequence.geometric(cone, frame, target, n=40)
        cert = completeness_certificate(s, target)
        assert cert.alpha_monotone and cert.cauchy_bound_ok
        assert cert.converged and cert.max_residual < 1e-9
    ok(9, "antisymmetry + monotone Wick norm on 1e4 pairs; certificates converge")


def test_criterion_10_span_construction():
    res = run_suite("span", trials=1_000, seed=7)
    assert res.passed
    ok(10, "equiv is an equivalence, extend_linear well defined, f factors, 1e3")


def test_criterion_11_determinism(tmp_path, capsys):
    scenario = os.path.join(ROOT, "scenarios", "minkowski_p2.json")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(["run", scenario, "--out", str(a), "--seed", "42"]) == 0
    assert cli_main(["run", scenario, "--out", str(b), "--seed", "42"]) == 0
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    for rep in (ra, rb):
        for t in rep["tasks"]:
            t.pop("wall_time_ms", None)
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
    capsys.readouterr()
    ok(11, "fixed-seed scenario reports byte-identical modulo timing")
