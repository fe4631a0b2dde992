"""Scalars, vectors and exact linear algebra.

Two scalar backends coexist: exact rationals (``fractions.Fraction``) and
IEEE doubles.  Ints and numeric strings are promoted to ``Fraction`` on
entry, so the exact backend is the default for hand-written data.  Backends
never mix inside one vector or matrix.

All exact linear algebra below runs on one dense Gauss-Jordan pivot step
over ``Fraction``, ``_pivot``: ``_eliminate`` builds rank, determinant,
solve, inverse, null space and independent rows on it, and the two-phase
simplex of ``lp_nonneg_solve`` pivots its tableau with it.  Phase 1 finds a
feasible basis; given an objective, phase 2 minimises it with the same
Bland's-rule loop on the same tableau.  Boundary decisions in this domain
(null vectors, cone facets) must not depend on float rounding.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import DimensionMismatch, ExactBackend, MixedBackend, PreconditionFailed

Scalar = Union[Fraction, float]


def as_scalar(x) -> Scalar:
    """Promote ints and strings like ``"3/4"`` to Fraction; pass floats through."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return x
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a scalar")


def is_exact(x: Scalar) -> bool:
    return isinstance(x, Fraction)


class Ordering(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


@dataclass(frozen=True)
class ToleranceContext:
    """Tolerances for the float backend; ignored by exact rationals."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9


DEFAULT_TOL = ToleranceContext()


def scalar_cmp(a: Scalar, b: Scalar) -> Ordering:
    """Total-order comparison. Exact for rationals, raw IEEE for floats."""
    a, b = as_scalar(a), as_scalar(b)
    if is_exact(a) != is_exact(b):
        raise MixedBackend(f"cannot compare {a!r} with {b!r}")
    if a < b:
        return Ordering.LESS
    if a > b:
        return Ordering.GREATER
    return Ordering.EQUAL


def approx_eq(a: Scalar, b: Scalar, ctx: ToleranceContext = DEFAULT_TOL) -> bool:
    """|a - b| <= abs_tol + rel_tol * max(|a|, |b|), float backend only."""
    a, b = as_scalar(a), as_scalar(b)
    if is_exact(a) or is_exact(b):
        raise ExactBackend("use scalar_cmp for exact rationals")
    return abs(a - b) <= ctx.abs_tol + ctx.rel_tol * max(abs(a), abs(b))


class Vector:
    """Immutable coordinate vector with a homogeneous scalar backend."""

    __slots__ = ("coords", "exact")

    def __init__(self, coords: Sequence):
        cs = tuple(as_scalar(c) for c in coords)
        if not cs:
            raise DimensionMismatch("vectors must have positive dimension")
        exact = is_exact(cs[0])
        if any(is_exact(c) != exact for c in cs):
            raise MixedBackend("mixed scalar backends in one vector")
        object.__setattr__(self, "coords", cs)
        object.__setattr__(self, "exact", exact)

    def __setattr__(self, *a):
        raise AttributeError("Vector is immutable")

    @property
    def dim(self) -> int:
        return len(self.coords)

    @staticmethod
    def zero(dim: int, exact: bool = True) -> "Vector":
        return Vector([Fraction(0)] * dim if exact else [0.0] * dim)

    @staticmethod
    def unit(dim: int, i: int) -> "Vector":
        return Vector([Fraction(int(j == i)) for j in range(dim)])

    def _check(self, other: "Vector"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"{self.dim} != {other.dim}")
        if self.exact != other.exact:
            raise MixedBackend("mixed scalar backends between vectors")

    def __add__(self, other: "Vector") -> "Vector":
        self._check(other)
        return Vector([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "Vector") -> "Vector":
        self._check(other)
        return Vector([a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "Vector":
        return Vector([-a for a in self.coords])

    def scale(self, lam) -> "Vector":
        lam = as_scalar(lam)
        if is_exact(lam) != self.exact:
            if self.exact and not is_exact(lam):
                raise MixedBackend("float scalar applied to exact vector")
            lam = float(lam)
        return Vector([lam * a for a in self.coords])

    def dot(self, other: "Vector") -> Scalar:
        self._check(other)
        return sum(a * b for a, b in zip(self.coords, other.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def as_floats(self) -> tuple:
        return tuple(float(c) for c in self.coords)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"Vector({list(self.coords)!r})"


class SymMatrix:
    """Immutable symmetric matrix; symmetry checked on construction."""

    __slots__ = ("rows", "exact", "_nz")

    def __init__(self, rows: Sequence[Sequence], ctx: ToleranceContext = DEFAULT_TOL):
        rs = tuple(tuple(as_scalar(x) for x in row) for row in rows)
        n = len(rs)
        if any(len(r) != n for r in rs):
            raise DimensionMismatch("matrix must be square")
        exact = n > 0 and is_exact(rs[0][0])
        for i in range(n):
            for j in range(n):
                if is_exact(rs[i][j]) != exact:
                    raise MixedBackend("mixed scalar backends in one matrix")
        for i in range(n):
            for j in range(i + 1, n):
                if exact:
                    if rs[i][j] != rs[j][i]:
                        raise DimensionMismatch("matrix is not symmetric")
                elif abs(rs[i][j] - rs[j][i]) > ctx.abs_tol:
                    raise DimensionMismatch("matrix is not symmetric within tolerance")
        object.__setattr__(self, "rows", rs)
        object.__setattr__(self, "exact", exact)
        # nonzero entries; forms are often diagonal, so quad skips the zeros
        nz = tuple(
            (i, j, rs[i][j]) for i in range(n) for j in range(n) if rs[i][j] != 0
        )
        object.__setattr__(self, "_nz", nz)

    def __setattr__(self, *a):
        raise AttributeError("SymMatrix is immutable")

    @property
    def dim(self) -> int:
        return len(self.rows)

    def apply(self, v: Vector) -> Vector:
        if v.dim != self.dim:
            raise DimensionMismatch(f"{v.dim} != {self.dim}")
        return Vector([sum(r[j] * v.coords[j] for j in range(self.dim)) for r in self.rows])

    def quad(self, u: Vector, v: Vector) -> Scalar:
        """u^T M v."""
        if u.dim != self.dim or v.dim != self.dim:
            raise DimensionMismatch(f"{u.dim}, {v.dim} != {self.dim}")
        if u.exact != v.exact or u.exact != self.exact:
            raise MixedBackend("mixed scalar backends between vectors")
        uc, vc = u.coords, v.coords
        return sum((m * uc[i] * vc[j] for i, j, m in self._nz), 0 if u.exact else 0.0)

    def __eq__(self, other) -> bool:
        return isinstance(other, SymMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"SymMatrix({[list(r) for r in self.rows]!r})"


# ---------------------------------------------------------------------------
# Exact dense linear algebra over Fraction.


def _to_frac_rows(rows) -> list:
    return [[Fraction(x) for x in row] for row in rows]


def _pivot(a: list, r: int, col: int) -> None:
    """Scale row r so that a[r][col] = 1 and clear column col from every other row."""
    p = a[r][col]
    if p != 1:
        a[r] = [x / p if x else x for x in a[r]]
    pr = a[r]
    for i, row in enumerate(a):
        if i != r and row[col] != 0:
            f = row[col]
            a[i] = [x - f * y if y else x for x, y in zip(row, pr)]


def _eliminate(rows: Sequence[Sequence], ncols: int | None = None) -> tuple[list, list, Fraction]:
    """Gauss-Jordan reduction: (reduced rows, pivot columns, det).

    Pivots are searched only in the first ``ncols`` columns (default: all),
    so an augmented block [A | B] is carried along.  Pivot rows come first,
    in order, each scaled to a leading 1.  det is that of A when A is square
    and of full rank, else 0.
    """
    a = _to_frac_rows(rows)
    m = len(a)
    if ncols is None:
        ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    vals: list[Fraction] = []
    sign = 1
    for col in range(ncols):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][col] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        vals.append(a[r][col])
        _pivot(a, r, col)
        pivots.append(col)
    det = Fraction(0)
    if m == ncols == len(pivots):
        det = Fraction(sign)
        for v in vals:
            det *= v
    return a, pivots, det


def exact_rank(rows: Sequence[Sequence]) -> int:
    return len(_eliminate(rows)[1])


def exact_det(rows: Sequence[Sequence]) -> Fraction:
    if any(len(r) != len(rows) for r in rows):
        raise DimensionMismatch("exact_det expects a square matrix")
    return _eliminate(rows)[2]


def exact_solve(rows: Sequence[Sequence], rhs: Sequence) -> list | None:
    """Solve the square system A x = b exactly; None if singular."""
    n = len(rows)
    if any(len(r) != n for r in rows) or len(rhs) != n:
        raise DimensionMismatch("exact_solve expects a square system")
    a, pivots, _ = _eliminate([list(r) + [bi] for r, bi in zip(rows, rhs)], n)
    if len(pivots) < n:
        return None
    return [row[n] for row in a]


def exact_inverse(rows: Sequence[Sequence]) -> list | None:
    n = len(rows)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    a, pivots, _ = _eliminate(aug, n)
    if len(pivots) < n:
        return None
    return [row[n:] for row in a]


def exact_null_space(rows: Sequence[Sequence], n: int) -> list:
    """Basis of the null space of a rational row matrix with n columns.

    One vector per free column j of the reduced form: 1 at j, minus the
    reduced column j at the pivot columns.
    """
    a, pivots, _ = _eliminate(rows, n)
    basis = []
    for j in range(n):
        if j in pivots:
            continue
        v = [Fraction(0)] * n
        v[j] = Fraction(1)
        for row, col in zip(a, pivots):
            v[col] = -row[j]
        basis.append(v)
    return basis


def independent_rows(rows: Sequence[Sequence]) -> list[int]:
    """Indices of the first maximal linearly independent subset of the rows.

    Row i is kept when it is independent of rows 0..i-1: the pivot columns
    of the transpose.
    """
    return _eliminate([list(c) for c in zip(*rows)])[1]


def _bland(tab: list, basis: list, n: int) -> bool:
    """Simplex loop on a tableau whose last row is the objective row.

    The objective row holds the reduced costs of the n real columns and the
    current objective value; a positive reduced cost improves.  Bland's rule
    (smallest entering column, ties in the ratio test broken on the smallest
    basis index) guarantees termination.  False when the objective is
    unbounded below.
    """
    m = len(tab) - 1
    while True:
        enter = next((j for j in range(n) if tab[m][j] > 0), None)
        if enter is None:
            return True
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][n] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return False
        _pivot(tab, leave, enter)
        basis[leave] = enter


def lp_nonneg_solve(A: Sequence[Sequence], b: Sequence, c: Sequence | None = None) -> list | None:
    """Find theta >= 0 with A theta = b, exactly, or None if infeasible.

    Two-phase simplex with Bland's rule over Fraction, sized for desk-scale
    systems (tens of rows/columns).  The tableau holds the rows [A_i | b_i],
    signed so that b_i >= 0, with the phase-1 objective row for min(sum of
    artificials) last.  Without c, any feasible theta is returned.  With c,
    phase 2 minimises c . theta from the phase-1 basis on the same tableau:
    artificials left basic at level zero are pivoted out on a nonzero real
    column of their row, or their row is dropped as a redundant equality,
    and the objective row is replaced by c's reduced costs.  c . theta must
    be bounded below on the feasible set (c >= 0 suffices).
    """
    m = len(A)
    n = len(A[0]) if m else 0
    tab = []
    for i in range(m):
        r = [Fraction(x) for x in A[i]] + [Fraction(b[i])]
        tab.append([-x for x in r] if r[n] < 0 else r)
    # price-out: the objective row is the sum of the constraint rows
    tab.append([sum((r[j] for r in tab), Fraction(0)) for j in range(n + 1)])
    basis = list(range(n, n + m))  # artificial variables
    # an unbounded phase-1 objective cannot happen (bounded below by 0)
    if not _bland(tab, basis, n) or tab[m][n] != 0:
        return None
    if c is not None:
        tab.pop()
        for i in reversed(range(m)):
            if basis[i] < n:
                continue
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is None:
                del tab[i], basis[i]
            else:
                _pivot(tab, i, col)
                basis[i] = col
        cost = [Fraction(x) for x in c]
        tab.append(
            [sum((cost[k] * r[j] for k, r in zip(basis, tab)), Fraction(0)) - cost[j] for j in range(n)]
            + [sum((cost[k] * r[n] for k, r in zip(basis, tab)), Fraction(0))]
        )
        if not _bland(tab, basis, n):
            raise PreconditionFailed("c . theta is unbounded below on the feasible set")
    theta = [Fraction(0)] * n
    for i, k in enumerate(basis):
        if k < n:
            theta[k] = tab[i][n]
    return theta


# ---------------------------------------------------------------------------
# Rational square roots.


def fraction_sqrt(s: Fraction) -> Fraction | None:
    """Exact square root when s is a perfect rational square, else None."""
    s = Fraction(s)
    if s < 0:
        return None
    pn = math.isqrt(s.numerator)
    pd = math.isqrt(s.denominator)
    if pn * pn == s.numerator and pd * pd == s.denominator:
        return Fraction(pn, pd)
    return None


def fraction_sqrt_bounds(s: Fraction, digits: int = 15) -> tuple[Fraction, Fraction]:
    """Rational (lower, upper) bounds on sqrt(s), within 10**-digits."""
    s = Fraction(s)
    if s < 0:
        raise ValueError("negative radicand")
    exact = fraction_sqrt(s)
    if exact is not None:
        return exact, exact
    scale = 10**digits
    r = math.isqrt(s.numerator * s.denominator * scale * scale)
    lo = Fraction(r, s.denominator * scale)
    hi = Fraction(r + 1, s.denominator * scale)
    return lo, hi
