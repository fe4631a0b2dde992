"""The benchmark's checks on itself, run before every measurement.

The references must be right on hand-worked cases, and the checkers must
reject answers that are deliberately wrong.  A failure stops the run.
"""

from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction as F

import conekit as ck

import refs
import workloads


def _reference_cases():
    yield "closed form n~((0,1)) = sqrt(2)", abs(refs.extended_norm_future_wick((0.0, 1.0)) - math.sqrt(2)) < 1e-15
    yield "closed form n~((2,1)) = sqrt(5)", abs(refs.extended_norm_future_wick((2.0, 1.0)) - math.sqrt(5)) < 1e-15
    # the 2-D future cone is cone((1,1), (1,-1)) and its Wick norm is l2
    for x, want in (((0.0, 1.0), math.sqrt(2)), ((2.0, 1.0), math.sqrt(5))):
        got = refs.extended_norm_2d((1.0, 1.0), (1.0, -1.0), x, "l2")
        yield f"2-D reference n~({x}) = {want:.6f}", abs(got - want) < 1e-9
    # cone basis (1,0), (1,1): Gram [[1,1],[1,0]] recovers diag(1,-1)
    yield "Minkowski form from a 2-D cone basis", refs.form_in_standard_coords(
        [(F(1), F(0)), (F(1), F(1))], [[F(1), F(1)], [F(1), F(0)]]
    ) == refs.minkowski_rows(2)
    basis = [(F(1), F(0), F(0)), (F(1), F(1), F(0)), (F(1), F(0), F(1))]
    gram = [[refs.mink(a, b) for b in basis] for a in basis]
    yield "Minkowski form from a 3-D cone basis", refs.form_in_standard_coords(basis, gram) == refs.minkowski_rows(3)


def _checker_cases():
    ext = workloads.ExtendedNorm(0, pool=0)
    x = [0.0, 1.0]
    problem = ck.ExtensionProblem(ext.cones[2], ext.wick_norms[2], ck.Vector(x))
    ref = lambda: (refs.extended_norm_future_wick(x), refs.WICK_CLOSED_FORM_TOL)  # noqa: E731
    op = ext._solve_op("wick", problem, x, "wick", refs.future_member, reference=ref)
    res = op.run()
    yield "extended norm of (0,1) passes its check", op.check(res) is None
    yield "an altered norm value is rejected", op.check(dataclasses.replace(res, value=res.value + 1e-3)) is not None
    shifted = ck.Vector([res.u.coords[0] + 0.01, res.u.coords[1]])
    yield "a witness with u - v != x is rejected", op.check(dataclasses.replace(res, u=shifted)) is not None

    dec = workloads.ExactDecisions(0, pool=0)
    op = dec._gram_classify(random.Random(0))
    g, sig = op.run()
    yield "a cone basis passes the signature check", op.check((g, sig)) is None
    wrong = dataclasses.replace(sig, plus=sig.plus + 1, minus=sig.minus - 1)
    yield "a wrong signature is rejected", op.check((g, wrong)) is not None


def run() -> None:
    failed = [name for cases in (_reference_cases(), _checker_cases()) for name, ok in cases if not ok]
    if failed:
        raise RuntimeError("benchmark self-check failed: " + "; ".join(failed))
