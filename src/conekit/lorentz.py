"""Gram forms, signature classification, Lorentz decomposition, Wick rotation.

A ``GramForm`` stores a symmetric bilinear form through a basis of ambient
vectors and the Gram matrix of that basis.  On construction the form is
re-expressed in standard ambient coordinates, on integers, from one exact
elimination of the basis, so evaluating ``inner(u, v)`` on arbitrary
vectors costs one quadratic form.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    DependentBasis,
    DimensionMismatch,
    NotFutureCausal,
    NotLorentzian,
)
from .numerics import (
    SymMatrix,
    Vector,
    _eliminate,
    _exact_signature,
    _int_symmatrix,
    _int_vector,
    fraction_sqrt,
)


class FormKind(enum.Enum):
    POSITIVE_DEFINITE = "positive_definite"
    LORENTZIAN = "lorentzian"
    DEGENERATE = "degenerate"
    OTHER = "other"


@dataclass(frozen=True)
class Signature:
    kind: FormKind
    plus: int
    minus: int
    zero: int


def _gram(us: list, nz) -> list:
    """[u_i^T P u_j] for integer vectors us and the nonzero entries nz of a
    symmetric integer matrix P: P u_j once per vector, each pair once."""
    ps = []
    for u in us:
        pu = [0] * len(u)
        for i, j, m in nz:
            pu[i] += m * u[j]
        ps.append(pu)
    n = len(us)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = sum(map(operator.mul, us[i], ps[j]))
    return g


class GramForm:
    """Symmetric bilinear form given on a basis spanning the ambient space.

    ``std`` is the form in standard coordinates, S = B^-T G B^-1 with the
    basis as the columns of B, on integers: the basis's integer rows are
    Bn = diag(den) B^T, and one fraction-free elimination of [Bn | I] on the
    ``numerics`` kernel gives Bn^-1 = M / d.  With G = N / D,
    S = M diag(den) N diag(den) M^T / (d^2 D), one integer matrix over one
    denominator.
    """

    __slots__ = ("basis", "gram", "std")

    def __init__(self, basis: Sequence[Vector], gram: SymMatrix):
        basis = tuple(basis)
        n = len(basis)
        if n == 0 or any(b.dim != n for b in basis):
            raise DimensionMismatch("basis must consist of dim-many ambient vectors")
        if gram.dim != n:
            raise DimensionMismatch("gram matrix size must match basis size")
        bn_i = [list(b._nums) + [int(i == j) for j in range(n)] for i, b in enumerate(basis)]
        a, pivots, d, _ = _eliminate(bn_i, n)
        if len(pivots) < n:
            raise DependentBasis("basis vectors are linearly dependent")
        dens = [b._den for b in basis]
        s = _gram([row[n:] for row in a], [(i, j, m * dens[i] * dens[j]) for i, j, m in gram._nz])
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "std", _int_symmatrix(s, d * d * gram._den))

    def __setattr__(self, *a):
        raise AttributeError("GramForm is immutable")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def inner(self, u: Vector, v: Vector) -> Fraction:
        return self.std.quad(u, v)

    def in_standard_coordinates(self) -> SymMatrix:
        return self.std

    def __repr__(self):
        return f"GramForm(dim={self.dim})"


@functools.cache
def _minkowski_matrix(n: int) -> SymMatrix:
    """diag(1, -1, ..., -1) of size n, built once per size: it is immutable."""
    return _int_symmatrix([[int(i == j) * (1 if i == 0 else -1) for j in range(n)] for i in range(n)], 1)


def minkowski_form(spatial_dim: int) -> GramForm:
    """diag(1, -1, ..., -1) on the standard basis of R^{1+n}."""
    n = spatial_dim + 1
    return GramForm([Vector.unit(n, i) for i in range(n)], _minkowski_matrix(n))


def classify(g: GramForm | SymMatrix) -> Signature:
    """Classify a symmetric form by its signature.

    The signature is exact, by symmetric fraction-free pivots on the
    ``numerics`` kernel (Sylvester inertia is a congruence invariant).
    """
    m = g.gram if isinstance(g, GramForm) else g
    pos, neg, zero = _exact_signature(m)
    n = m.dim
    if zero > 0:
        kind = FormKind.DEGENERATE
    elif pos == n:
        kind = FormKind.POSITIVE_DEFINITE
    elif pos == 1 and neg == n - 1:
        kind = FormKind.LORENTZIAN
    else:
        kind = FormKind.OTHER
    return Signature(kind, pos, neg, zero)


class LorentzFrame:
    """A Lorentzian form, a unit timelike vector t and the Wick matrix
    ``wick`` = 2 (St)(St)^T - S of the frame, S being ``form.std``.

    W is built on integers: with St = a / e and S = N / D in lowest terms,
    W = (2 D a a^T - e^2 N) / (D e^2).  St is kept for ``spatial_basis``.
    The Wick-orthogonal basis is built on first use and kept, with its
    integers per coordinate over their lcm and their Wick norms on those
    integers (``_wick_kernel``), which the causal sampler sums on.
    """

    __slots__ = ("form", "t", "wick", "_st", "_wick_basis", "_wick_cols")

    def __init__(self, form: GramForm, t: Vector):
        sig = classify(form)
        if sig.kind is not FormKind.LORENTZIAN:
            raise NotLorentzian(f"form has signature {sig}")
        if form.inner(t, t) != 1:
            raise NotLorentzian("frame vector must satisfy <t,t> = 1 exactly")
        s = form.std
        st = s.apply(t)
        a, e, den = st._nums, st._den, s._den
        w = [[2 * den * x * y for y in a] for x in a]
        for i, j, m in s._nz:
            w[i][j] -= e * e * m
        wick = _int_symmatrix(w, den * e * e)
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "wick", wick)
        object.__setattr__(self, "_st", st)
        object.__setattr__(self, "_wick_basis", None)
        object.__setattr__(self, "_wick_cols", None)

    def __setattr__(self, *a):
        raise AttributeError("LorentzFrame is immutable")

    @property
    def dim(self) -> int:
        return self.form.dim

    def inner(self, u: Vector, v: Vector) -> Fraction:
        return self.form.inner(u, v)


def minkowski_frame(spatial_dim: int) -> LorentzFrame:
    form = minkowski_form(spatial_dim)
    return LorentzFrame(form, Vector.unit(spatial_dim + 1, 0))


@dataclass(frozen=True)
class Decomposition:
    alpha: Fraction
    w: Vector


def decompose(frame: LorentzFrame, v: Vector) -> Decomposition:
    """Split v = alpha*t + w with w orthogonal to t."""
    alpha = frame.inner(v, frame.t)
    w = v - frame.t.scale(alpha)
    return Decomposition(alpha, w)


def wick_inner(frame: LorentzFrame, u: Vector, v: Vector) -> Fraction:
    """Positive definite pairing alpha_u*alpha_v - <w_u, w_v> (exact): as
    <w_u, w_v> = <u,v> - alpha_u*alpha_v, it is u^T W v = 2<u,t><v,t> - <u,v>."""
    return frame.wick.quad(u, v)


def wick_norm(frame: LorentzFrame, v: Vector) -> float:
    q = wick_inner(frame, v, v)
    return math.sqrt(max(float(q), 0.0))


class CausalClass(enum.Enum):
    FUTURE_CAUSAL = "future_causal"
    PAST_CAUSAL = "past_causal"
    SPACELIKE = "spacelike"
    ZERO = "zero"


def causal_class(frame: LorentzFrame, v: Vector) -> CausalClass:
    if v.is_zero():
        return CausalClass.ZERO
    s = frame.form.std
    if s._int_quad(v, v) < 0:
        return CausalClass.SPACELIKE
    return CausalClass.FUTURE_CAUSAL if s._int_quad(v, frame.t) >= 0 else CausalClass.PAST_CAUSAL


def future_defect(frame: LorentzFrame, x: Vector) -> float:
    """alpha_x - n(w_x), nonnegative on the causal future."""
    if causal_class(frame, x) not in (CausalClass.FUTURE_CAUSAL, CausalClass.ZERO):
        raise NotFutureCausal(f"{x!r} is not future-causal")
    d = decompose(frame, x)
    return float(d.alpha) - wick_norm(frame, d.w)


def future_defect_exact(frame: LorentzFrame, x: Vector) -> Fraction:
    """Exact variant: alpha_x^2 - n(w_x)^2 = <x, x> (same sign as the defect)."""
    if causal_class(frame, x) not in (CausalClass.FUTURE_CAUSAL, CausalClass.ZERO):
        raise NotFutureCausal(f"{x!r} is not future-causal")
    return frame.inner(x, x)


def spatial_basis(frame: LorentzFrame) -> list[Vector]:
    """An exact basis of the orthogonal complement of t.

    The projections P(e_i) = e_i - <e_i, t> t of the standard basis span
    the complement, with the one relation sum_i t_i P(e_i) = 0: the first
    n - 1 independent ones are all but the last P(e_i) with t_i != 0.  With
    <e_i, t> = a_i / e and t = t_n / t_d on integers,
    P(e_i) = (e t_d delta_ij - a_i t_n,j) / (e t_d), one integer vector each.
    """
    t, st = frame.t, frame._st  # st_i = <e_i, t>
    tc, sc, et = t._nums, st._nums, st._den * t._den
    last = max(i for i, c in enumerate(tc) if c != 0)
    rows = [[et * (i == j) - a * c for j, c in enumerate(tc)] for i, a in enumerate(sc) if i != last]
    return [_int_vector(r, et) for r in rows]


def wick_orthogonal_basis(frame: LorentzFrame) -> list[Vector]:
    """Exact Gram-Schmidt of the spatial complement under the Wick pairing.

    Returned vectors are mutually Wick-orthogonal but not normalized
    (normalization generally needs square roots).  Computed once per frame
    and kept on it: frames are immutable and samplers call this in a tight
    loop.  Each b = b_n / b_d of ``spatial_basis`` becomes one integer
    vector: with u_j = u_n,j / u_d,j the vectors before it,
    q_j = u_n,j^T N u_n,j and p_j = b_n^T N u_n,j on the Wick matrix's
    numerators N, and Q the lcm of the q_j,
    w = (b_n Q - sum_j p_j (Q / q_j) u_n,j) / (b_d Q), the vector the
    Fraction loop w = b - sum_j <b, u_j>_W / <u_j, u_j>_W u_j returns.
    """
    if frame._wick_basis is None:
        out: list[Vector] = []
        nz = frame.wick._nz
        qs = []  # q_j with the numerators of u_j
        for b in spatial_basis(frame):
            bn = b._nums
            big_q = math.lcm(*(q for q, _ in qs))
            ws = [x * big_q for x in bn]
            for q, un in qs:
                k = sum(m * bn[i] * un[j] for i, j, m in nz) * (big_q // q)
                ws = [x - k * y for x, y in zip(ws, un)]
            w = _int_vector(ws, b._den * big_q)
            un = w._nums
            qs.append((sum(m * un[i] * un[j] for i, j, m in nz), un))
            out.append(w)
        # the basis's integers per coordinate over their lcm, and their
        # Wick numerators q_j scaled alike, for the sampler
        lcm = math.lcm(*(u._den for u in out))
        cols = tuple(zip(*(tuple(x * (lcm // u._den) for x in u._nums) for u in out)))
        scaled_qs = tuple(q * (lcm // u._den) ** 2 for (q, _), u in zip(qs, out))
        object.__setattr__(frame, "_wick_cols", (cols, scaled_qs, lcm))
        object.__setattr__(frame, "_wick_basis", tuple(out))
    return list(frame._wick_basis)


def _wick_kernel(frame: LorentzFrame) -> tuple[tuple, tuple, int]:
    """(cols, qs, L) of a frame: cols[i][k] / L is coordinate i of the
    k-th Wick-orthogonal basis vector b_k, L the lcm of their denominators,
    and qs[k] = b_k^T N b_k on those integers and the Wick matrix's
    numerators N."""
    if frame._wick_cols is None:
        wick_orthogonal_basis(frame)
    return frame._wick_cols


def gram_from_cone_basis(h, basis: Sequence[Vector]) -> GramForm:
    """Gram matrix of a cone basis under the polarization inner product.

    The norm family is checked once, then each basis vector's membership, in
    basis order.  On the quadratic families the pairing is the norm's
    bilinear form N / D (``hypnorm.polar_inner``).  With the basis as
    integers x_i over the lcm L of its denominators, entry (i, j) is
    x_i^T N x_j / (D L^2), each pair once.  A linearly dependent basis
    raises ``DependentBasis`` from ``GramForm``.
    """
    # deferred: hypnorm depends on cone on us
    from .hypnorm import _bilinear_form, _require_member, _require_quadratic

    _require_quadratic(h, "polarization")
    basis = list(basis)
    for b in basis:
        _require_member(h, b)
    form = _bilinear_form(h)
    lcm = math.lcm(*(b._den for b in basis))
    xs = [[x * (lcm // b._den) for x in b._nums] for b in basis]
    return GramForm(basis, _int_symmatrix(_gram(xs, form._nz), form._den * lcm * lcm))


def frame_from_unit_vector(form: GramForm, candidate: Vector) -> LorentzFrame:
    """Build a frame from any timelike vector whose norm is a rational square."""
    q = form.inner(candidate, candidate)
    if q <= 0:
        raise NotLorentzian("candidate frame vector is not exactly timelike")
    r = fraction_sqrt(q)
    if r is None:
        raise NotLorentzian("candidate <t,t> is not a perfect rational square")
    return LorentzFrame(form, candidate.scale(Fraction(1) / r))
