"""Proper linear cones: membership, properness, order, core, dual cones.

Polyhedral membership, properness and core are decided by exact rational
LP, because boundary points (null vectors, facets) are routine inputs here
and float LP misclassifies them; a pointed cone's properness and a core
point each take one LP.  PCone membership and core are decided on the
vector's integers: max |x_i| <= |x|_p <= sum |x_i| settles every point
outside the band between them, for any p, and inside it an integer
p <= MAX_EXACT_P compares powers; any other p raises UnsupportedFamily
there.  FutureCone checks its form and t once, at construction;
its membership, core and dual membership, and the self-duality probe are
signs of the form, read off the integer ``SymMatrix._int_quad`` without
building a Fraction.  A future cone is self-dual under its own form by
reverse Cauchy-Schwarz, so that case of the probe draws no sample.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import (
    DimensionMismatch,
    DimTooLarge,
    NotCausal,
    NotLorentzian,
    NotMember,
    PreconditionFailed,
    UnsupportedFamily,
)
from .lorentz import (
    FormKind,
    GramForm,
    LorentzFrame,
    _require_unit,
    _wick_kernel,
    classify,
    frame_from_unit_vector,
)
from .numerics import (
    Vector,
    _int_vector,
    _sqrt_bounds,
    as_scalar,
    exact_null_space,
    exact_rank,
    lp_nonneg_solve,
)


@dataclass(frozen=True)
class Polyhedral:
    """Conic hull of finitely many generators."""

    generators: tuple

    def __init__(self, generators: Sequence[Vector]):
        gens = tuple(generators)
        if not gens:
            raise DimensionMismatch("need at least one generator")
        if any(g.dim != gens[0].dim for g in gens):
            raise DimensionMismatch("generators disagree on ambient dimension")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_h", None)  # h_description, built on first use

    @property
    def ambient_dim(self) -> int:
        return self.generators[0].dim


@dataclass(frozen=True)
class PCone:
    """{(x0, x) : x0 >= |x|_p} in R^{1+n}; p = math.inf is allowed.  Only
    p >= 1 makes it convex: any other p, a nan among them, is unsupported."""

    p: object
    spatial_dim: int

    def __post_init__(self):
        if not self.p >= 1:
            raise UnsupportedFamily(f"p-cone needs p >= 1, got {self.p!r}")

    @property
    def ambient_dim(self) -> int:
        return self.spatial_dim + 1


@dataclass(frozen=True)
class FutureCone:
    """Causal future of t under a Lorentzian Gram form: {x : <x, x> >= 0,
    <x, t> >= 0}.  Construction raises NotLorentzian unless the form
    classifies as Lorentzian, and NotCausal unless <t, t> > 0: the set is
    then a proper convex cone."""

    form: GramForm
    t: Vector

    def __post_init__(self):
        sig = classify(self.form)
        if sig.kind is not FormKind.LORENTZIAN:
            raise NotLorentzian(f"future cone over a form of signature {sig}")
        if self.form.std._int_quad(self.t, self.t) <= 0:
            raise NotCausal(f"future cone needs a timelike t, <t, t> > 0: {self.t!r}")
        object.__setattr__(self, "_rays", None)  # null_rays_2d, built on first use

    @property
    def ambient_dim(self) -> int:
        return self.t.dim


@dataclass(frozen=True)
class Orthant:
    """Componentwise-nonnegative functions on a finite discrete space."""

    dim: int

    @property
    def ambient_dim(self) -> int:
        return self.dim


Cone = Union[Polyhedral, PCone, FutureCone, Orthant]


# Caps the subsets one enumeration runs through: the (k-1)-subsets of the m
# generators that ``h_description`` searches for facets, C(m, k-1), and the
# j-subsets (j <= k) of the K facets whose affine hulls the extended norm's
# face solver batches, sum_j C(K, j).  2^12 admits a square cone up to
# dimension 12 and a 3-D cone with up to 29 facets.  The cones of the
# benchmark need at most 8 subsets, those of the tests at most 42 (a 3-D
# cone with 6 facets), apart from the two built to trip the cap.
MAX_SUBSETS = 4096


@dataclass(frozen=True)
class HDescription:
    """cone(G) = {u : E u = 0, h . u >= 0 for every facet normal h}, exactly.

    ``normals`` are the facet normals, each in span(G) with its first
    nonzero entry +-1; ``equalities`` a basis E of the orthogonal complement
    of span(G), so dim span(G) = n - len(equalities).
    """

    normals: tuple
    equalities: tuple


def _check_work(count: int, what: str):
    if count > MAX_SUBSETS:
        raise DimTooLarge(f"{what} needs {count} subsets, above MAX_SUBSETS = {MAX_SUBSETS}")


def h_description(c: Polyhedral) -> HDescription:
    """The exact H-description of a polyhedral cone, built once per cone.

    For rank k, a facet holds k - 1 independent generators, so its normal
    spans the null space of those generators together with E; a candidate
    is kept when one orientation is >= 0 on every generator.  Raises
    DimTooLarge, before searching, when the search would exceed
    MAX_SUBSETS = 4096 subsets.
    """
    if c._h is None:
        n = c.ambient_dim
        # the generators' integers: positive multiples span the same faces
        gens = [g._nums for g in c.generators]
        eqs = exact_null_space(gens, n)
        k = n - len(eqs)
        normals = {}  # dict as an ordered set
        if k:
            _check_work(math.comb(len(gens), k - 1), "the facet search")
            for sub in itertools.combinations(gens, k - 1):
                null = exact_null_space(list(sub) + eqs, n)
                if len(null) != 1:
                    continue
                h = null[0]
                dots = [sum(a * b for a, b in zip(h, g)) for g in gens]
                if all(d <= 0 for d in dots):
                    h = [-t for t in h]
                elif min(dots) < 0:
                    continue
                lead = abs(next(t for t in h if t))
                normals[tuple(t / lead for t in h)] = None
        object.__setattr__(c, "_h", HDescription(tuple(normals), tuple(map(tuple, eqs))))
    return c._h


def null_rays_2d(c: FutureCone) -> Polyhedral:
    """A 2-D future cone as the polyhedral cone on its null rays t_hat +- w_hat.

    The cone depends only on the form and the time orientation, so any
    timelike t serves: t_hat = t / sqrt(<t, t>).  w = (-(St)_1, (St)_0) is
    S-orthogonal to t, with n(w)^2 = -<w, w>.  It is oriented like
    e_i - <e_i, t> t for the first e_i not parallel to t, the direction a
    frame's spatial basis starts from.  The rays are computed in floats (for
    a Minkowski form and t = (k, 0) they are exact), then built once per cone.
    """
    if c._rays is None:
        s = c.form.std
        st = s.apply(c.t).coords
        w = Vector([-st[1], st[0]])
        if next(z for z in s.apply(w).coords if z != 0) > 0:
            w = -w
        nt = math.sqrt(float(s.quad(c.t, c.t)))
        nw = math.sqrt(float(-s.quad(w, w)))
        what = [a / nw for a in w.as_floats()]
        rays = [Vector([a / nt + sgn * b for a, b in zip(c.t.as_floats(), what)]) for sgn in (1, -1)]
        object.__setattr__(c, "_rays", Polyhedral(rays))
    return c._rays


def _check_dim(c: Cone, x: Vector):
    if x.dim != c.ambient_dim:
        raise DimensionMismatch(f"vector dim {x.dim} != ambient dim {c.ambient_dim}")


def _polyhedral_member(c: Polyhedral, x: Vector) -> bool:
    """x in cone(G): feasibility of G theta = x, theta >= 0, with positive
    multiples of the generators (their integers) as columns and of x as
    right-hand side."""
    a = list(zip(*(g._nums for g in c.generators)))
    return lp_nonneg_solve(a, x._nums) is not None


# The largest integer p whose powers x0^p and |x_i|^p are computed: they
# hold p times the bit length of x0, so an unbounded p (a scenario's "1e300")
# would never finish.  Every p of the tests and benchmark is at most 100.
MAX_EXACT_P = 128


def _pcone_holds(p, x: Vector, strict: bool = False) -> bool:
    """x0 >= |spatial|_p, or x0 > |spatial|_p when strict, on x's integers:
    both sides scale with its positive denominator.

    max |x_i| <= |x|_p <= sum |x_i| brackets the norm for every p >= 1;
    once two x_i are nonzero, the lower bound is strict for finite p and the
    upper one for p > 1.  It settles every x0 outside the band
    max |x_i| < x0 < sum |x_i|, for any p.  For p = inf, and whenever at most one spatial coordinate is
    nonzero, |x|_p = max |x_i|.  In the band an integer p = k <= MAX_EXACT_P
    compares x0^k with sum |x_i|^k; any other p raises UnsupportedFamily:
    no float decides an exact input, and a larger power costs without bound.
    """
    x0, *spatial = x._nums
    if x0 < 0:
        return False
    cmp = operator.gt if strict else operator.ge
    nonzero = [abs(s) for s in spatial if s]
    top = max(nonzero, default=0)
    if p == math.inf or len(nonzero) <= 1:
        return cmp(x0, top)
    if x0 <= top:
        return False
    total = sum(nonzero)
    if x0 >= total:
        return x0 > total or p > 1 or not strict
    k = int(p) if p <= MAX_EXACT_P else 0
    if k != p:
        raise UnsupportedFamily(
            f"p-cone membership between max |x_i| and sum |x_i| is exact only for"
            f" integer p <= MAX_EXACT_P = {MAX_EXACT_P} or p = inf, got {p!r}"
        )
    return cmp(x0**k, sum(s**k for s in nonzero))


def contains(c: Cone, x: Vector) -> bool:
    _check_dim(c, x)
    if isinstance(c, Orthant):
        return all(v >= 0 for v in x._nums)  # signs of coords: _den > 0
    if isinstance(c, PCone):
        return _pcone_holds(c.p, x)
    if isinstance(c, FutureCone):
        s = c.form.std
        return s._int_quad(x, x) >= 0 and s._int_quad(x, c.t) >= 0
    return _polyhedral_member(c, x)


@dataclass(frozen=True)
class Properness:
    proper: bool
    witness: Vector | None = None

    def __bool__(self) -> bool:
        return self.proper


def is_proper(c: Cone) -> Properness:
    """Decide F cap (-F) = {0}.

    Polyhedral: by Gordan's alternative (Gordan 1873; Schrijver 1986,
    Sec. 7.8), either y . g > 0 for some y and every nonzero generator g,
    and F is pointed, or G theta = 0, 1 . theta = 1, theta >= 0 is feasible
    over the nonzero generators.  One phase-1 LP on their integers decides
    which.  Zero generators are left out: one zero column alone makes that
    LP feasible, and they add nothing to F.  When it is feasible, every g_i
    with theta_i > 0 is in the lineality space (-theta_i g_i =
    sum_{j != i} theta_j g_j lies in F), and the generators are walked in
    order, with one membership LP ``contains(c, -g)`` for each one outside
    theta's support.  So the witness is the first nonzero generator g, in
    order, with -g in F, whatever theta the LP returns.  Orthant, PCone and
    FutureCone are proper by construction: a FutureCone checks its
    Lorentzian form and timelike t when it is built.
    """
    if isinstance(c, (Orthant, PCone, FutureCone)):
        return Properness(True)
    gens = [g for g in c.generators if not g.is_zero()]
    if not gens:
        return Properness(True)
    # G theta = 0, 1 . theta = 1, theta >= 0
    a = [*zip(*(g._nums for g in gens)), [1] * len(gens)]
    theta = lp_nonneg_solve(a, [0] * c.ambient_dim + [1])
    if theta is None:
        return Properness(True)
    # 1 . theta = 1: some theta_i > 0, so the walk stops
    return next(Properness(False, g) for g, t in zip(gens, theta) if t > 0 or contains(c, -g))


def leq(x: Vector, y: Vector, c: Cone) -> bool:
    """Cone order: x <= y iff y - x in F."""
    return contains(c, y - x)


def in_core(c: Cone, x: Vector) -> bool:
    """Algebraic-interior membership (core in the ordered-cone sense) of a
    member x; a non-member raises NotMember.

    Core is taken as the algebraic interior; for FutureCone/PCone this
    coincides with strict inequalities.  A Polyhedral cone has a core only
    when its generators span the space, and then its core is the set of
    strictly positive combinations of the generators (Rockafellar, Convex
    Analysis, Thm 6.9); homogenised as G(theta + 1) = (1 + lam) x with
    theta, lam >= 0, this is decided exactly by one phase-1 LP, with no
    cutoff.  Positive multiples of the generators and of x have the same
    strictly positive combinations, so the LP runs on their integers.  That
    core LP runs first: a point of the core is in F, so a "yes" needs no
    membership LP, and only a "no" (or a rank below full) checks membership,
    to tell a boundary point from a non-member.
    """
    _check_dim(c, x)
    if isinstance(c, Polyhedral) and _polyhedral_core(c, x):
        return True
    if not contains(c, x):
        raise NotMember(f"{x!r} is not in the cone")
    if isinstance(c, Orthant):
        return all(v > 0 for v in x._nums)
    if isinstance(c, PCone):
        return _pcone_holds(c.p, x, strict=True)
    if isinstance(c, FutureCone):
        s = c.form.std
        return s._int_quad(x, x) > 0 and s._int_quad(x, c.t) > 0
    return False  # a polyhedral member outside the core


def _polyhedral_core(c: Polyhedral, x: Vector) -> bool:
    """x = G mu for some mu > 0, with G of full rank: the core of a polyhedral
    cone, which is empty below full rank."""
    gens = [g._nums for g in c.generators]
    if exact_rank(gens) < c.ambient_dim:
        return False
    # x = G mu with mu > 0, homogenised: G theta - lam x = x - sum(g), theta, lam >= 0
    xs = x._nums
    a = [[g[i] for g in gens] + [-xs[i]] for i in range(c.ambient_dim)]
    b = [xs[i] - sum(g[i] for g in gens) for i in range(c.ambient_dim)]
    return lp_nonneg_solve(a, b) is not None


def dual_contains(c: Cone, g: GramForm, v: Vector) -> bool:
    """Membership of a causal vector v in the dual cone F*.

    Polyhedral: <v, g_i> >= 0 over the generators (necessary and sufficient
    for conic hulls).  FutureCone: by reverse Cauchy-Schwarz the dual of the
    future cone is itself, so this is future-cone membership.
    """
    _check_dim(c, v)
    s = g.std
    if s._int_quad(v, v) < 0:
        raise NotCausal("dual cone membership is only defined for causal vectors")
    if isinstance(c, Polyhedral):
        return all(s._int_quad(v, gen) >= 0 for gen in c.generators)
    if isinstance(c, FutureCone):
        return s._int_quad(v, c.t) >= 0
    raise UnsupportedFamily("dual_contains expects Polyhedral or FutureCone")


def _sampling_frame(c: Cone, g: GramForm) -> LorentzFrame:
    if isinstance(c, FutureCone):
        return LorentzFrame(g, c.t)
    if isinstance(c, Polyhedral):
        for gen in c.generators:
            if g.std._int_quad(gen, gen) > 0:
                return frame_from_unit_vector(g, gen)
    raise NotLorentzian("no timelike generator available for causal sampling")


def sample_future_causal(
    frame: LorentzFrame, rng: random.Random, radius: Fraction = Fraction(10)
) -> Vector:
    """Exact future-causal sample: alpha*t + w with n(w) <= alpha <= radius.

    alpha is uniform in [0, radius]; w is drawn in the Wick unit ball of the
    spatial complement and scaled by alpha, which guarantees membership and
    avoids rejection bias near the light cone.  It draws a for alpha =
    (a / 1000) radius, one c_k per Wick-orthogonal basis vector b_k, and u
    only when s = n(w)^2 > 0: w = sum_k (c_k / 1000) b_k is scaled by
    (u / 1000) / hi, hi >= n(w) the upper bound ``fraction_sqrt_bounds``
    gives, to Wick norm <= u / 1000.

    It runs on integers: with the b_k as integers over their lcm L
    (``lorentz._wick_kernel``), w's integers are sum_k c_k b_k over 1000 L.
    The b_k are exactly Wick-orthogonal, so s's numerator w^T N w on the
    Wick matrix's numerators N is sum_k c_k^2 q_k, with q_k = b_k^T N b_k on
    the same integers, built once per frame; s = that / (W_den (1000 L)^2)
    is reduced by one gcd, since the bound on sqrt(s) depends on s in lowest
    terms.  The sample alpha (t + (u / 1000) / hi w) is one integer vector.
    A float radius is taken at its binary value; a negative radius raises
    before any draw.
    """
    radius = as_scalar(radius)
    if radius < 0:
        raise PreconditionFailed(f"sampling radius must be >= 0, got {radius!r}")
    t = frame.t
    cols, qs, lcm = _wick_kernel(frame)
    a = rng.randint(0, 1000) * radius.numerator  # alpha = a / (1000 r_d)
    cs = [rng.randint(-1000, 1000) for _ in qs]
    den = 1000 * radius.denominator * t._den
    sn = sum(c * c * q for c, q in zip(cs, qs))
    if sn == 0:
        return _int_vector([a * x for x in t._nums], den)
    sd = frame.wick._den * (1000 * lcm) ** 2
    g = math.gcd(sn, sd)
    u = rng.randint(0, 1000)
    w = [sum(map(operator.mul, cs, col)) for col in cols]
    _, hn, hd = _sqrt_bounds(sn // g, sd // g)
    # t + (u hd / (1000 hn)) w / (1000 L), over t_d 10^6 hn L
    kt, kw = 1_000_000 * hn * lcm, t._den * u * hd
    return _int_vector([a * (x * kt + y * kw) for x, y in zip(t._nums, w)], den * kt)


@dataclass(frozen=True)
class SelfDualityReport:
    holds: bool
    witness: Vector | None
    samples_checked: int
    direction: str | None = None  # which inclusion failed


def self_duality_report(c: Cone, g: GramForm, samples: int, seed: int) -> SelfDualityReport:
    """Sampled check of F = F* against the causal structure of g.

    A FutureCone whose form's ``std`` is g's is self-dual by reverse
    Cauchy-Schwarz (O'Neill 1983, ch. 5): no sample is drawn, and the report
    holds with ``samples_checked`` the requested count, len(range(samples)),
    each sample passing by the theorem.  t must still be a unit vector
    under g, as a sampling frame needs, and ``samples`` an integer.
    Otherwise F subset F* is checked exactly on generators (Polyhedral)
    resp. on sampled pairs via the reverse Cauchy-Schwarz sign (FutureCone),
    and F* subset F is probed on ``samples`` future-causal vectors drawn by
    ``sample_future_causal`` with its default radius.
    """
    rng = random.Random(seed)  # first: a seed Random rejects raises before any other check
    s = g.std
    if isinstance(c, FutureCone) and c.form.std == s:
        _require_unit(g, c.t)
        return SelfDualityReport(True, None, len(range(samples)))
    frame = _sampling_frame(c, g)
    # F subset F*: pairwise nonnegativity of the form on F
    if isinstance(c, Polyhedral):
        for a in c.generators:
            if s._int_quad(a, a) < 0:
                return SelfDualityReport(False, a, 0, "F_not_causal")
            for b in c.generators:
                if s._int_quad(a, b) < 0:
                    return SelfDualityReport(False, a, 0, "F_not_subset_dual")
    checked = 0
    for _ in range(samples):
        v = sample_future_causal(frame, rng)
        checked += 1
        if isinstance(c, FutureCone):
            u = sample_future_causal(frame, rng)
            if s._int_quad(u, v) < 0:
                return SelfDualityReport(False, v, checked, "F_not_subset_dual")
        try:
            in_dual = dual_contains(c, g, v)
        except NotCausal:
            continue
        if in_dual and not contains(c, v):
            return SelfDualityReport(False, v, checked, "dual_not_subset_F")
    return SelfDualityReport(True, None, checked)
