"""Proper linear cones: membership, properness, order, core, dual cones.

Polyhedral membership, properness and core are decided by exact rational
LP, because boundary points (null vectors, facets) are routine inputs here
and float LP misclassifies them; a pointed cone's properness and a core
point each take one LP.  PCone membership and core are decided on the
vector's integers: max |x_i| <= |x|_p <= sum |x_i| settles every point
outside the band between them, for any p, and inside it an integer
p <= MAX_EXACT_P compares powers; any other p raises UnsupportedFamily
there.  FutureCone checks its form and t once, at construction;
its membership and core are signs of the form, read off the integer
``SymMatrix._int_quad`` without building a Fraction.  Its dual under a
Lorentzian form g is G^-1 S F, S its own form and G g's, by reverse
Cauchy-Schwarz, so dual membership is one exact solve, and the cone is
self-dual under g iff S is a positive multiple of G: that verdict draws
no sample, and a sample only serves as the witness of a "no".
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
    _wick_kernel,
    classify,
    frame_from_unit_vector,
)
from .numerics import (
    SymMatrix,
    Vector,
    _int_vector,
    _sqrt_bounds,
    as_scalar,
    exact_null_space,
    exact_rank,
    exact_solve,
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
    """A 2-D future cone as the polyhedral cone on its rays t +- rho w.

    The cone depends only on the form and the time orientation, so any
    timelike t serves.  w = (-(St)_1, (St)_0) is S-orthogonal to t, oriented
    like e_i - <e_i, t> t for the first e_i not parallel to t, the direction
    a frame's spatial basis starts from.  The null rays are t +- rho w with
    rho = sqrt(<t, t> / -<w, w>); the rays are built on integers with rho
    the lower bound ``numerics._sqrt_bounds`` gives, exact when the ratio is
    a rational square.  So both rays lie in F: on an irrational cone they
    span an inner cone, whose extended norm is an upper bound within about
    1e-15 relative.  Built once per cone.
    """
    if c._rays is None:
        s, t = c.form.std, c.t
        a = s.apply(t)._nums
        w = _int_vector([-a[1], a[0]], 1)
        if next(z for z in s.apply(w)._nums if z) > 0:
            w = -w
        # <t, t> / -<w, w> on integers: _int_quad(t, t) / (D t_d^2), w_d = 1
        num, den = s._int_quad(t, t), -s._int_quad(w, w) * t._den**2
        k = math.gcd(num, den)
        lo, _, d = _sqrt_bounds(num // k, den // k)
        # t + (lo / d) w = (d t_n +- lo t_d w) / (d t_d)
        rays = [_int_vector([d * x + sgn * lo * t._den * y for x, y in zip(t._nums, w._nums)], d * t._den) for sgn in (1, -1)]
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
    """Membership of a g-causal vector v in the dual cone
    F* = {v : <v, x>_g >= 0 for every x in F}.

    Polyhedral: <v, g_i> >= 0 over the generators (necessary and sufficient
    for conic hulls).  FutureCone with form S, and G = ``g.std``: by reverse
    Cauchy-Schwarz in S, F's Euclidean dual is S F, so F* = G^-1 S F and
    v in F* iff S^-1 G v in F.  That is one exact solve on the integers of
    S and of G v, positive multiples of both, which leave membership as it
    is.  With S = G it reduces to <v, t>_g >= 0 on a causal v.
    """
    _check_dim(c, v)
    s = g.std
    if s._int_quad(v, v) < 0:
        raise NotCausal("dual cone membership is only defined for causal vectors")
    if isinstance(c, Polyhedral):
        return all(s._int_quad(v, gen) >= 0 for gen in c.generators)
    if isinstance(c, FutureCone):
        return contains(c, Vector(exact_solve(c.form.std._int_rows(), s.apply(v)._nums)))
    raise UnsupportedFamily("dual_contains expects Polyhedral or FutureCone")


def _sampling_frame(c: Cone, g: GramForm) -> LorentzFrame:
    """g's frame on the first g-timelike vector of c, a future cone's t or a
    generator, scaled to a unit vector (``frame_from_unit_vector``)."""
    for x in (c.t,) if isinstance(c, FutureCone) else getattr(c, "generators", ()):
        if g.std._int_quad(x, x) > 0:
            return frame_from_unit_vector(g, x)
    raise NotLorentzian("no g-timelike t or generator available for causal sampling")


def _primitive(m: SymMatrix) -> tuple:
    """m's nonzero integer entries over their gcd: equal for positive multiples."""
    k = math.gcd(*(x for _, _, x in m._nz))
    return tuple((i, j, x // k) for i, j, x in m._nz)


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
    """Decide F = F* under g; a "no" carries the witness its samples find.

    A FutureCone of form S is decided by theorem: F = F* iff S is a
    positive multiple of G = ``g.std``.  By reverse Cauchy-Schwarz in S
    (O'Neill 1983, ch. 5), F* = G^-1 S F; if that is F, G^-1 S lies in
    Aut(F) = R_+ O+(S) (Loewy & Schneider 1975) and is S-self-adjoint, so
    it is a positive multiple of an involution, which keeps G Lorentzian
    only as the identity.  S and G are compared on their integers, ``==``
    first, then over their gcds.  A multiple draws no sample and reports
    ``samples_checked`` = len(range(samples)); any other form does not
    hold, and its witness is the first sample in exactly one of F and F*
    (``dual_not_subset_F`` or ``F_not_subset_dual``), or None.  When t is
    not g-timelike, or g(t, t) is not a rational square, there is no frame
    to sample in: the report is (False, None, 0).  A g that is not
    Lorentzian raises NotLorentzian, as the theorem needs one.
    Polyhedral: F subset F* is checked exactly on the generators, and a
    sample in F* runs the membership LP.  Samples are ``samples``
    g-future-causal vectors, one per trial, from ``sample_future_causal``
    at its default radius on g's frame of the cone's first g-timelike
    vector: its t, or a generator.
    """
    rng = random.Random(seed)  # first: a seed Random rejects raises before any other check
    n = len(range(samples))  # then a count that is no int
    s = g.std
    future = isinstance(c, FutureCone)
    if future and (c.form.std == s or _primitive(c.form.std) == _primitive(s)):
        return SelfDualityReport(True, None, n)
    try:
        frame = _sampling_frame(c, g)
    except NotLorentzian:
        # the theorem decides "no" only under a Lorentzian g
        if not future or classify(g).kind is not FormKind.LORENTZIAN:
            raise
        return SelfDualityReport(False, None, 0)
    # F subset F*: pairwise nonnegativity of the form on F
    if isinstance(c, Polyhedral):
        for a in c.generators:
            if s._int_quad(a, a) < 0:
                return SelfDualityReport(False, a, 0, "F_not_causal")
            for b in c.generators:
                if s._int_quad(a, b) < 0:
                    return SelfDualityReport(False, a, 0, "F_not_subset_dual")
    for checked in range(1, n + 1):
        v = sample_future_causal(frame, rng)
        in_dual = dual_contains(c, g, v)
        # F subset F* holds for a polyhedral cone here: only a sample in F* runs its LP
        if (in_dual or future) and in_dual != contains(c, v):
            return SelfDualityReport(False, v, checked, "dual_not_subset_F" if in_dual else "F_not_subset_dual")
    return SelfDualityReport(not future, None, n)
