"""The three workloads: inputs drawn from the workload seed, one op per call.

``build(name, seed)`` is the set-up: it draws every input with the
benchmark's own samplers and builds the frames, cones and norms that the
timed operations reuse.  The result is a list of rounds; one round is a
fixed list of ``Op``s with the same make-up of operation kinds in every
round, so a run that attempts whole rounds always attempts the same share
of each kind.  Rounds are cycled; inputs differ between the rounds of the
pool and repeat after it.

Each ``Op`` holds a ``run`` closure (the timed call, or short fixed
sequence of calls, into conekit's public API) and a ``check`` closure that
returns None when the output is right and a reason otherwise.  Checks use
``refs`` only, never a stored copy of conekit's output.  ``fault`` names
the known program fault an op exposes; such ops are expected to fail.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

import conekit as ck
from conekit import cli, cone, extension, hypnorm, lorentz, order, span

import refs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIOS = os.path.join(ROOT, "scenarios")
OUT_DIR = os.path.join(ROOT, ".bench_build", "cli")

# Named faults kept in the workloads (see README).
FAULT_IN_CORE = "in_core_cutoff"
FAULT_GENERAL = "general_solver"

# The overcomplete problems are the first draws of this generator, not of
# the workload seed, so the operations that fail are the same in every run.
OVERCOMPLETE_DRAW_SEED = 1
OVERCOMPLETE_COUNT = 4
OVERCOMPLETE_MAX_ITERS = 2000


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    fault: str | None = None


def _vec(xs) -> ck.Vector:
    return ck.Vector(list(xs))


def _frac(rng, lo=-8, hi=8, den=8) -> F:
    return F(rng.randint(lo * den, hi * den), den)


def _p2_point(rng, n) -> tuple:
    """Point of the p=2 cone in R^{1+n}: alpha >= |w|_1 >= |w|_2."""
    w = [_frac(rng) for _ in range(n)]
    return tuple([sum(abs(c) for c in w) + F(rng.randint(0, 16), 8)] + w)


def _unit_timelike(rng, n) -> tuple:
    """Rational unit future timelike vector of R^{1+n}:
    ((1 + |u|^2), 2u) / (1 - |u|^2) with |u| < 1/2."""
    u = [F(rng.randint(-8, 8), 8 * (2 * n)) for _ in range(n)]  # |u|_1 <= 1/2
    s = sum(c * c for c in u)
    return tuple([(1 + s) / (1 - s)] + [2 * c / (1 - s) for c in u])


def _independent_p2_basis(rng, dim) -> list:
    """Cone basis of the p=2 cone: one interior point plus tilted axes."""
    while True:
        w = [_frac(rng) for _ in range(dim - 1)]
        basis = [tuple([sum(abs(c) for c in w) + F(rng.randint(1, 16), 8)] + w)]
        for i in range(1, dim):
            w = [F(rng.randint(-2, 2), 8) for _ in range(dim - 1)]
            w[i - 1] += 1
            basis.append(tuple([sum(abs(c) for c in w) + F(rng.randint(1, 8), 8)] + w))
        if refs.det(basis) != 0:
            return basis


def _reason(ok: bool, why: str) -> str | None:
    return None if ok else why


# ------------------------------------------------------------ exact_checks


class ExactChecks:
    """Property trials modelled on acceptance criteria 2, 3, 5, 6, 9 and 10."""

    MIX = {  # ops of each kind per round
        "polarization": 130,
        "polarization_p1": 25,
        "reverse": 240,
        "wick": 160,
        "future_decompose": 160,
        "order": 160,
        "span": 110,
        "certificate": 4,
        "cli_determinism": 1,
        "cli_p1": 1,
    }
    POOL = 4

    def __init__(self, seed: int, pool: int = POOL):
        self.frames = {d: ck.minkowski_frame(d - 1) for d in range(2, 9)}
        self.cones = {d: ck.FutureCone(f.form, f.t) for d, f in self.frames.items()}
        self.p2 = {d: ck.PHyperbolic(2, d - 1) for d in range(2, 9)}
        self.p1 = {d: ck.PHyperbolic(1, d - 1) for d in range(2, 9)}
        self.form_norm = {d: ck.FormInduced(c) for d, c in self.cones.items()}
        rng = random.Random(f"exact_checks/{seed}")
        self.maps = {d: [[_frac(rng) for _ in range(d)] for _ in range(2)] for d in range(2, 9)}
        os.makedirs(OUT_DIR, exist_ok=True)
        self.rounds = [self._round(rng) for _ in range(pool)]

    def _round(self, rng) -> list:
        ops = []
        for kind, count in self.MIX.items():
            make = getattr(self, "_" + kind)
            ops.extend(make(rng) for _ in range(count))
        random.Random(rng.random()).shuffle(ops)
        return ops

    def _polarization(self, rng) -> Op:
        d = rng.randint(2, 8)
        h, v, w = self.p2[d], _p2_point(rng, d - 1), _p2_point(rng, d - 1)
        vv, wv = _vec(v), _vec(w)

        def run():
            return hypnorm.polarizability_residual(h, vv, wv), hypnorm.polar_inner(h, vv, wv)

        def check(out):
            r, pi = out
            return _reason(isinstance(r, F) and r == 0 and pi == refs.mink(v, w), "p=2 residual/polar")

        return Op("polarization", run, check)

    def _polarization_p1(self, rng) -> Op:
        d = rng.randint(2, 8)
        h, v, w = self.p1[d], _p2_point(rng, d - 1), _p2_point(rng, d - 1)
        if rng.random() < 0.25:  # the acceptance witness in its own dimension
            v = tuple([F(1), F(1)] + [F(0)] * (d - 2))
            w = tuple([F(1), F(-1)] + [F(0)] * (d - 2))

        def n1sq(x):
            return (x[0] - sum(abs(c) for c in x[1:])) ** 2

        def add(a, b, k=1):
            return tuple(x + k * y for x, y in zip(a, b))

        want = n1sq(add(v, w, 2)) + n1sq(v) - 2 * n1sq(add(v, w)) - 2 * n1sq(w)
        vv, wv = _vec(v), _vec(w)

        def run():
            return hypnorm.polarizability_residual(h, vv, wv)

        return Op("polarization_p1", run, lambda r: _reason(r == want, "p=1 residual"))

    def _reverse(self, rng) -> Op:
        d = rng.randint(2, 8)
        op_seed = rng.getrandbits(32)
        if rng.random() < 0.5:
            h, frame = self.p2[d], None
            u = _p2_point(rng, d - 1)
            k = F(rng.randint(1, 8), 4)
            v = tuple(c * k for c in u) if rng.random() < 0.1 else _p2_point(rng, d - 1)
            fixed = (_vec(u), _vec(v))
        else:
            h, frame, fixed = self.form_norm[d], self.frames[d], None

        def run():
            if fixed is None:
                r = random.Random(op_seed)
                a = cone.sample_future_causal(frame, r, radius=F(5))
                b = cone.sample_future_causal(frame, r, radius=F(5))
            else:
                a, b = fixed
            return (
                a,
                b,
                hypnorm.reverse_triangle_holds_exact(h, a, b),
                hypnorm.reverse_cs_residual(h, a, b),
                hypnorm.equality_is_collinear(h, a, b),
            )

        def check(out):
            a, b, tri, cs, ec = out
            a, b = a.coords, b.coords
            if fixed is None and not (refs.is_future_causal(a) and refs.is_future_causal(b)):
                return "sample not future-causal"
            ip = refs.mink(a, b)
            gap = ip * ip - refs.mink(a, a) * refs.mink(b, b)
            if not (tri and cs.holds and cs.inner == ip and cs.inner_sq_minus_prod == gap and gap >= 0):
                return "reverse triangle / Cauchy-Schwarz"
            if ec.equality != (gap == 0) or ec.collinear != refs.collinear_nonneg(a, b):
                return "equality / collinearity flags"
            return _reason(not ec.equality or ec.collinear, "equality without collinearity")

        return Op("reverse", run, check)

    def _wick(self, rng) -> Op:
        d = rng.randint(2, 8)
        frame = self.frames[d]
        v = tuple(_frac(rng) for _ in range(d))
        vv = _vec(v)
        op_seed = rng.getrandbits(32)

        def run():
            x = cone.sample_future_causal(frame, random.Random(op_seed))
            return (
                lorentz.decompose(frame, vv),
                lorentz.wick_inner(frame, vv, vv),
                x,
                lorentz.future_defect_exact(frame, x),
            )

        def check(out):
            dec, q, x, defect = out
            x = x.coords
            if dec.alpha != v[0] or dec.w.coords != (F(0),) + v[1:]:
                return "decomposition"
            if q != refs.euclid(v, v) or (q <= 0 and any(v)):
                return "Wick positivity"
            return _reason(refs.is_future_causal(x) and defect == refs.mink(x, x), "future defect")

        return Op("wick", run, check)

    def _future_decompose(self, rng) -> Op:
        d = rng.randint(2, 6)
        frame = self.frames[d]
        x = tuple(_frac(rng) for _ in range(d))
        xv = _vec(x)

        def run():
            fd = span.future_decompose(xv, frame)
            return fd, span.future_decompose_is_minimal(frame, xv, fd.lambda_star)

        def check(out):
            fd, minimal = out
            v1, v2, lam = fd.v1.coords, fd.v2.coords, fd.lambda_star
            if any(a - b != c for a, b, c in zip(v1, v2, x)):
                return "v1 - v2 != x"
            if not (refs.is_future_causal(v1) and refs.is_future_causal(v2)):
                return "parts not future-causal"
            s = sum(c * c for c in x[1:])  # n(w_x)^2
            gap = 2 * lam - abs(x[0])  # >= n(w_x) exactly, and close to it
            if gap < 0 or gap * gap < s or float(gap) - math.sqrt(s) > 1e-12 * (1 + float(lam)):
                return "lambda not minimal"
            perfect = all(math.isqrt(k) ** 2 == k for k in (s.numerator, s.denominator))
            return _reason(fd.exact_lambda == perfect and (lam == 0 or minimal), "minimality flags")

        return Op("future_decompose", run, check)

    def _order(self, rng) -> Op:
        d = rng.randint(2, 8)
        frame, c = self.frames[d], self.cones[d]
        op_seed = rng.getrandbits(32)

        def run():
            r = random.Random(op_seed)
            x = cone.sample_future_causal(frame, r)
            z = cone.sample_future_causal(frame, r)
            y = x + z
            return (
                x,
                z,
                order.monotone_wick_check(frame, c, x, y),
                cone.leq(x, y, c),
                cone.leq(y, x, c),
                cone.is_proper(c),
            )

        def check(out):
            x, z, mono, up, down, proper = out
            y = tuple(a + b for a, b in zip(x.coords, z.coords))
            if not (refs.is_future_causal(x.coords) and refs.is_future_causal(z.coords)):
                return "sample not future-causal"
            if not (mono and refs.euclid(x.coords, x.coords) <= refs.euclid(y, y)):
                return "monotone Wick norm"
            return _reason(up and down == z.is_zero() and bool(proper), "order / antisymmetry")

        return Op("order", run, check)

    def _span(self, rng) -> Op:
        d = rng.randint(2, 8)
        frame, c, m = self.frames[d], self.cones[d], self.maps[d]
        op_seed = rng.getrandbits(32)

        def f(u):
            return ck.Vector([sum(r[i] * u.coords[i] for i in range(d)) for r in m])

        def run():
            r = random.Random(op_seed)
            u, v, w = (cone.sample_future_causal(frame, r) for _ in range(3))
            a = span.FormalDifference(c, u, v)
            b = span.FormalDifference(c, u + w, v + w)
            shifted = span.FormalDifference(c, u + w, v)
            return (
                (u, v, w),
                (span.equiv(a, b), span.equiv(b, a), span.equiv(a, shifted)),
                (span.extend_linear(f, a), span.extend_linear(f, b), span.extend_linear(f, span.embed(u, c))),
            )

        def mapped(x):
            return tuple(sum(r[i] * x[i] for i in range(d)) for r in m)

        def check(out):
            (u, v, w), (ab, ba, a_shift), (fa, fb, fu) = out
            want = mapped(tuple(p - q for p, q in zip(u.coords, v.coords)))
            if not (ab and ba and a_shift == w.is_zero()):
                return "equivalence relation"
            return _reason(fa.coords == want and fb.coords == want and fu.coords == mapped(u.coords), "extension")

        return Op("span", run, check)

    def _certificate(self, rng) -> Op:
        frame, c = self.frames[2], self.cones[2]
        op_seed = rng.getrandbits(32)

        def run():
            target = cone.sample_future_causal(frame, random.Random(op_seed))
            seq = order.OrderedSequence.geometric(c, frame, target, n=40)
            return target, order.completeness_certificate(seq, target)

        def check(out):
            target, cert = out
            limit = tuple(x * (1 - F(1, 2**39)) for x in target.coords)
            ok = cert.alpha_monotone and cert.cauchy_bound_ok and cert.converged
            return _reason(ok and cert.max_residual < 1e-9 and cert.limit.coords == limit, "certificate")

        return Op("certificate", run, check)

    def _cli(self, scenario, out_name, argv_seed):
        path = os.path.join(SCENARIOS, scenario)
        out = os.path.join(OUT_DIR, out_name)

        def once():
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["run", path, "--out", out, "--seed", str(argv_seed)])
            with open(out) as fh:
                report = json.load(fh)
            for t in report["tasks"]:
                t.pop("wall_time_ms")
            return rc, report

        return once

    def _cli_determinism(self, rng) -> Op:
        seed = rng.randint(0, 10**6)
        once = self._cli("minkowski_p2.json", "minkowski_p2.json", seed)

        def run():
            return once(), once()

        def check(out):
            (rc1, r1), (rc2, r2) = out
            if rc1 != 0 or rc2 != 0 or json.dumps(r1, sort_keys=True) != json.dumps(r2, sort_keys=True):
                return "exit code or reports differ"
            tasks = {t["name"]: t for t in r1["tasks"]}
            sig = tasks["signature-cone-basis"]["metrics"]["signature"]
            ok = all(t["status"] == "pass" for t in r1["tasks"]) and r1["seed"] == seed
            ok = ok and tasks["polarizability-p2"]["metrics"]["residual"] == "0/1"
            return _reason(ok and sig == {"kind": "lorentzian", "plus": 1, "minus": 1, "zero": 0}, "report")

        return Op("cli_determinism", run, check)

    def _cli_p1(self, rng) -> Op:
        once = self._cli("p1_counterexample.json", "p1_counterexample.json", rng.randint(0, 10**6))

        def check(out):
            rc, report = out
            (task,) = report["tasks"]
            return _reason(rc == 1 and task["status"] == "fail" and task["metrics"]["residual"] == "-4/1", "p1")

        return Op("cli_p1", once, check)


# --------------------------------------------------------- exact_decisions


class ExactDecisions:
    """Elimination and phase-1 LP: signatures, polyhedral decisions, frames."""

    MIX = {
        "gram_classify": 70,
        "contains_in": 60,
        "contains_out": 60,
        "is_proper": 60,
        "in_core_interior": 40,
        "in_core_boundary": 20,
        "near_facet": 10,
        "frame_sample": 60,
        "self_duality_future": 30,
        "self_duality_subcone": 30,
    }
    POOL = 4

    def __init__(self, seed: int, pool: int = POOL):
        self.eta = {d: ck.SymMatrix(refs.minkowski_rows(d)) for d in range(2, 7)}
        self.mink_forms = {d: ck.minkowski_form(d - 1) for d in range(2, 5)}
        self.p2 = {d: ck.PHyperbolic(2, d - 1) for d in range(2, 9)}
        rng = random.Random(f"exact_decisions/{seed}")
        self.rounds = [self._round(rng) for _ in range(pool)]

    def _round(self, rng) -> list:
        ops = []
        for kind, count in self.MIX.items():
            make = getattr(self, "_" + kind)
            ops.extend(make(rng) for _ in range(count))
        random.Random(rng.random()).shuffle(ops)
        return ops

    def _gram_classify(self, rng) -> Op:
        d = rng.randint(2, 8)
        basis = _independent_p2_basis(rng, d)
        h, bv = self.p2[d], [_vec(b) for b in basis]

        def run():
            g = lorentz.gram_from_cone_basis(h, bv)
            return g, lorentz.classify(g)

        def check(out):
            g, sig = out
            if [list(r) for r in g.gram.rows] != [[refs.mink(a, b) for b in basis] for a in basis]:
                return "Gram matrix"
            if [list(r) for r in g.in_standard_coordinates().rows] != refs.minkowski_rows(d):
                return "standard form is not diag(1, -1, ..., -1)"
            return _reason((sig.kind.value, sig.plus, sig.minus, sig.zero) == ("lorentzian", 1, d - 1, 0), "signature")

        return Op("gram_classify", run, check)

    def _polyhedral(self, rng, full=True, simplicial=False, dmax=6, mmax=12):
        """Pointed cone: every generator has h . g >= 1 for a random h."""
        d = rng.randint(2, dmax)
        m = d if simplicial else rng.randint(d if full else 2, mmax)
        h = [rng.randint(1, 4)] + [rng.randint(-3, 3) for _ in range(d - 1)]
        hh = refs.euclid(h, h)
        while True:
            gens = []
            for _ in range(m):
                g = [rng.randint(-4, 4) for _ in range(d)]
                lift = max(0, -((refs.euclid(h, g) - 1) // hh))  # integer ceil((1 - h.g) / |h|^2)
                gens.append(tuple(F(a + lift * b) for a, b in zip(g, h)))
            if m < d or refs.det(gens[:d]) != 0:
                return d, h, gens

    def _combo(self, rng, gens, lo):
        theta = [F(rng.randint(lo, 16), 8) for _ in gens]
        return tuple(sum(t * g[i] for t, g in zip(theta, gens)) for i in range(len(gens[0]))), theta

    def _contains_in(self, rng) -> Op:
        _, _, gens = self._polyhedral(rng, full=False)
        c = ck.Polyhedral([_vec(g) for g in gens])
        x, _ = self._combo(rng, gens, 0)
        xv = _vec(x)
        return Op("contains_in", lambda: cone.contains(c, xv), lambda r: _reason(r is True, "member reported outside"))

    def _contains_out(self, rng) -> Op:
        d, h, gens = self._polyhedral(rng, full=False)
        c = ck.Polyhedral([_vec(g) for g in gens])
        y = [_frac(rng) for _ in range(d)]
        k = refs.euclid(h, y) / refs.euclid(h, h) + 1
        x = tuple(a - k * b for a, b in zip(y, h))  # h . x = -|h|^2 < 0 <= h . F
        xv = _vec(x)
        return Op("contains_out", lambda: cone.contains(c, xv), lambda r: _reason(r is False, "separated point inside"))

    def _is_proper(self, rng) -> Op:
        d, h, gens = self._polyhedral(rng, full=False)
        proper = rng.random() < 0.5
        if not proper:
            g0 = gens[0]
            gens = gens + [tuple(-a for a in g0)]
        c = ck.Polyhedral([_vec(g) for g in gens])

        def check(rep):
            if proper:
                return _reason(rep.proper is True and rep.witness is None, "pointed cone reported improper")
            w = None if rep.witness is None else rep.witness.coords
            ok = rep.proper is False and w in gens and tuple(-a for a in w) in gens
            return _reason(ok, "lineality witness")

        return Op("is_proper", lambda: cone.is_proper(c), check)

    def _in_core_interior(self, rng) -> Op:
        _, _, gens = self._polyhedral(rng, full=True)
        c = ck.Polyhedral([_vec(g) for g in gens])
        x, _ = self._combo(rng, gens, 2)  # every coefficient >= 1/4, spanning set
        xv = _vec(x)
        return Op("in_core_interior", lambda: cone.in_core(c, xv), lambda r: _reason(r is True, "interior point"))

    def _in_core_boundary(self, rng) -> Op:
        # A "no" walks every epsilon level, 2d LPs each, so these stay in
        # dims <= 4 with <= 8 generators to keep them from swamping the mix.
        if rng.random() < 0.5:  # a point on a facet of a simplicial cone
            _, _, gens = self._polyhedral(rng, simplicial=True, dmax=4)
            x, theta = self._combo(rng, gens, 1)
            x = tuple(a - theta[0] * b for a, b in zip(x, gens[0]))
        else:  # a cone of lower dimension has an empty core
            _, _, gens = self._polyhedral(rng, full=False, dmax=3, mmax=8)
            gens = [g + (F(0),) for g in gens]
            x, _ = self._combo(rng, gens, 1)
        c = ck.Polyhedral([_vec(g) for g in gens])
        xv = _vec(x)
        return Op("in_core_boundary", lambda: cone.in_core(c, xv), lambda r: _reason(r is False, "boundary point"))

    def _near_facet(self, rng) -> Op:
        # Fixed input, independent of the seed: an interior point 2^-22 from
        # a facet of cone(e1, e2).  The right answer is True.
        c = ck.Polyhedral([ck.Vector([1, 0]), ck.Vector([0, 1])])
        x = ck.Vector([F(1), F(1, 2**22)])
        return Op("near_facet", lambda: cone.in_core(c, x), lambda r: _reason(r is True, "near-facet interior point"), FAULT_IN_CORE)

    def _frame_sample(self, rng) -> Op:
        d = rng.randint(2, 6)
        while True:
            basis = [tuple(_frac(rng, -2, 2, 4) for _ in range(d)) for _ in range(d)]
            if refs.det(basis) != 0:
                break
        tau = _unit_timelike(rng, d - 1)  # Minkowski coordinates in the basis
        lam = F(rng.randint(1, 12), rng.randint(1, 12))
        cand = tuple(lam * sum(tau[i] * basis[i][k] for i in range(d)) for k in range(d))
        bv, eta, cv = [_vec(b) for b in basis], self.eta[d], _vec(cand)
        op_seed = rng.getrandbits(32)

        def run():
            form = lorentz.GramForm(bv, eta)
            frame = lorentz.frame_from_unit_vector(form, cv)
            r = random.Random(op_seed)
            return form, frame, [cone.sample_future_causal(frame, r) for _ in range(2)]

        def check(out):
            form, frame, xs = out
            s = refs.form_in_standard_coords(basis, refs.minkowski_rows(d))
            t = tuple(c / lam for c in cand)
            if [list(r) for r in form.std.rows] != s or frame.t.coords != t:
                return "form or frame vector"
            ok = all(refs.quad(s, x.coords, x.coords) >= 0 and refs.quad(s, x.coords, t) >= 0 for x in xs)
            return _reason(ok, "sample not future-causal")

        return Op("frame_sample", run, check)

    def _self_duality_future(self, rng) -> Op:
        d = rng.randint(2, 4)
        form = self.mink_forms[d]
        t = _vec(_unit_timelike(rng, d - 1))
        c = ck.FutureCone(form, t)
        op_seed = rng.getrandbits(32)

        def check(rep):
            return _reason(rep.holds and rep.witness is None and rep.samples_checked == 6, "future cone is self-dual")

        return Op("self_duality_future", lambda: cone.self_duality_report(c, form, 6, op_seed), check)

    def _self_duality_subcone(self, rng) -> Op:
        """A narrow simplicial cone around a unit timelike t: F subset F*
        holds, and most future-causal samples lie in F* but not in F."""
        d = rng.randint(2, 4)
        form = self.mink_forms[d]
        t = _unit_timelike(rng, d - 1)
        while True:
            gens = [t] + [
                tuple(a + F(rng.randint(-2, 2), 32) for a in t) for _ in range(d - 1)
            ]
            if refs.det(gens) != 0 and all(refs.is_future_causal(g) and refs.mink(g, g) > 0 for g in gens):
                break
        c = ck.Polyhedral([_vec(g) for g in gens])
        op_seed = rng.getrandbits(32)

        def check(rep):
            if rep.holds or rep.direction != "dual_not_subset_F" or rep.witness is None:
                return "subcone reported self-dual"
            v = rep.witness.coords
            in_dual = all(refs.mink(v, g) >= 0 for g in gens)
            outside = any(th < 0 for th in refs.simplicial_coefficients(gens, v))
            return _reason(refs.is_future_causal(v) and in_dual and outside, "witness")

        return Op("self_duality_subcone", lambda: cone.self_duality_report(c, form, 40, op_seed), check)


# ----------------------------------------------------------- extended_norm


class ExtendedNorm:
    """The float solvers and the grid oracle, on every extended_norm branch."""

    MIX = {
        "wick": 40,
        "future2d": 12,
        "simplicial2d": 20,
        "simplicial3d": 16,
    }
    ORACLES = 2  # of the ~40 2-D targets of a round, one in twenty
    POOL = 4

    def __init__(self, seed: int, pool: int = POOL):
        self.frames = {d: ck.minkowski_frame(d - 1) for d in range(2, 7)}
        self.cones = {d: ck.FutureCone(f.form, f.t) for d, f in self.frames.items()}
        self.wick_norms = {d: ck.WickBaseNorm(f) for d, f in self.frames.items()}
        self.coord_norms = {k: ck.CoordBaseNorm(k) for k in ("l1", "l2", "linf")}
        self.overcomplete = self._overcomplete_draws()
        rng = random.Random(f"extended_norm/{seed}")
        self.rounds = [self._round(rng) for _ in range(pool)]

    def _round(self, rng) -> list:
        ops, planar = [], []
        for kind, count in self.MIX.items():
            make = getattr(self, "_" + kind)
            for _ in range(count):
                op, problem = make(rng)
                ops.append(op)
                if problem is not None:
                    planar.append(problem)
        step = len(planar) // self.ORACLES
        ops.extend(self._oracle(*planar[k * step]) for k in range(self.ORACLES))
        ops.extend(self.overcomplete)
        random.Random(rng.random()).shuffle(ops)
        return ops

    def _target(self, rng, d):
        return [rng.uniform(-3.0, 3.0) for _ in range(d)]

    def _solve_op(self, kind, problem, x, norm_kind, member, reference=None, upper=None, fault=None):
        def run():
            return extension.extended_norm(problem)

        def check(res):
            u, v = res.u.as_floats(), res.v.as_floats()
            why = refs.check_extension(res.value, u, v, x, norm_kind, member)
            if why:
                return why
            if reference is not None:
                want, tol = reference()
                return _reason(abs(res.value - want) <= tol, f"value off the reference by {abs(res.value - want):.3g}")
            return _reason(res.value <= upper() + 1e-9 * (1 + res.value), "value above a feasible decomposition")

        return Op(kind, run, check, fault)

    def _wick(self, rng):
        d = rng.randint(2, 6)
        w = self._target(rng, d - 1)
        r = math.sqrt(sum(c * c for c in w))
        # half causal (|alpha| >= |w|), half spacelike
        alpha = rng.choice((-1, 1)) * (r * rng.uniform(1.0, 2.0) if rng.random() < 0.5 else r * rng.uniform(0.0, 1.0))
        x = [alpha] + w
        p = ck.ExtensionProblem(self.cones[d], self.wick_norms[d], ck.Vector(x))
        ref = (lambda: (refs.extended_norm_future_wick(x), refs.WICK_CLOSED_FORM_TOL))
        op = self._solve_op("wick", p, x, "wick", refs.future_member, reference=ref)
        return op, ((p, ref) if d == 2 else None)

    def _future2d(self, rng):
        kind = rng.choice(("l1", "l2", "linf"))
        x = self._target(rng, 2)
        p = ck.ExtensionProblem(self.cones[2], self.coord_norms[kind], ck.Vector(x))
        ref = _memo(lambda: (refs.extended_norm_2d((1.0, 1.0), (1.0, -1.0), x, kind), refs.REFERENCE_TOL))
        return self._solve_op("future2d", p, x, kind, refs.future_member, reference=ref), (p, ref)

    def _simplicial2d(self, rng):
        kind = rng.choice(("l1", "l2", "linf"))
        a, b = F(rng.randint(0, 4), 8), F(rng.randint(0, 4), 8)
        gens = ((F(1), a), (b, F(1)))
        x = self._target(rng, 2)
        p = ck.ExtensionProblem(ck.Polyhedral([_vec(g) for g in gens]), self.coord_norms[kind], ck.Vector(x))
        gf = [tuple(float(c) for c in g) for g in gens]
        ref = _memo(lambda: (refs.extended_norm_2d(gf[0], gf[1], x, kind), refs.REFERENCE_TOL))
        member = lambda y: refs.simplicial_member(gens, y)  # noqa: E731
        return self._solve_op("simplicial2d", p, x, kind, member, reference=ref), (p, ref)

    def _simplicial3d(self, rng):
        kind = rng.choice(("l1", "l2", "linf"))
        while True:
            gens = [tuple(F(1) if i == j else F(rng.randint(0, 4), 8) for j in range(3)) for i in range(3)]
            if refs.det(gens) != 0:
                break
        x = self._target(rng, 3)
        p = ck.ExtensionProblem(ck.Polyhedral([_vec(g) for g in gens]), self.coord_norms[kind], ck.Vector(x))

        def upper():  # the corner theta = max(G^-1 x, 0) is feasible
            theta = [max(float(t), 0.0) for t in refs.simplicial_coefficients(gens, [F(c) for c in x])]
            u = [sum(t * float(g[i]) for t, g in zip(theta, gens)) for i in range(3)]
            return refs.base_norm(kind, u) + refs.base_norm(kind, [a - b for a, b in zip(u, x)])

        member = lambda y: refs.simplicial_member(gens, y)  # noqa: E731
        return self._solve_op("simplicial3d", p, x, kind, member, upper=upper), None

    def _oracle(self, problem, ref) -> Op:
        def check(value):
            want, _ = ref()
            return _reason(abs(value - want) <= refs.REFERENCE_TOL, f"oracle off the reference by {abs(value - want):.3g}")

        return Op("oracle", lambda: extension.grid_oracle(problem), check)

    def _overcomplete_draws(self) -> list:
        """The first draws of a fixed generator: 2-D cones of 3-4 generators
        (1, s) and targets in [-3, 3]^2, solved with a stated iteration cap."""
        rng = random.Random(OVERCOMPLETE_DRAW_SEED)
        kinds = ("l1", "l2", "linf")
        ops = []
        for k in range(OVERCOMPLETE_COUNT):
            while True:
                m = rng.randint(3, 4)
                slopes = sorted({F(rng.randint(-8, 8), 8) for _ in range(m)})
                if len(slopes) >= 3:
                    break
            kind = kinds[k % 3]
            x = [rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)]
            gens = [(F(1), s) for s in slopes]
            c = ck.Polyhedral([_vec(g) for g in gens])
            p = ck.ExtensionProblem(c, self.coord_norms[kind], ck.Vector(x), max_iters=OVERCOMPLETE_MAX_ITERS)
            rays = refs.extreme_rays_2d(gens)
            rf = [tuple(float(c) for c in g) for g in rays]
            ref = _memo(lambda rf=rf, x=x, kind=kind: (refs.extended_norm_2d(rf[0], rf[1], x, kind), refs.REFERENCE_TOL))
            member = lambda y, rays=rays: refs.simplicial_member(rays, y)  # noqa: E731
            ops.append(self._solve_op("overcomplete", p, x, kind, member, reference=ref, fault=FAULT_GENERAL))
        return ops


def _memo(fn):
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


WORKLOADS = {
    "exact_checks": ExactChecks,
    "exact_decisions": ExactDecisions,
    "extended_norm": ExtendedNorm,
}


def build(name: str, seed: int) -> list:
    """Set-up: the pool of rounds for one workload and seed."""
    return WORKLOADS[name](seed).rounds
