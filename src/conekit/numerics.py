"""Scalars, vectors and exact linear algebra.

Every scalar is an exact rational, a ``fractions.Fraction``.  Ints, numeric
strings and finite floats are promoted to ``Fraction`` on entry, a float at
its exact binary value; a nan, an infinity and a string whose decimal
exponent exceeds Python's int-string cap are rejected.  Only norm
values that need a root (``hypnorm``) are floats, and ``approx_eq`` is
their one tolerance rule.

All exact linear algebra runs on Python ints, on one fraction-free
exchange pivot step, ``_pivot``: the tableau holds d times the rational
tableau, d being the previous pivot, each update divides by d without
remainder (Edmonds 1967; Bareiss 1968), and the pivot column is left
holding the column of the variable that left its row (a Tucker exchange),
so a tableau need not store its basic columns.  ``_reduce`` scales
each row to integers and runs the one elimination loop: ``exact_rank`` and
``exact_det`` on its forward-only form, in which each pivot updates only
the rows below it, and ``_eliminate``, the Gauss-Jordan form, behind the
null space and ``_solve``, the block solve of ``exact_solve`` and
``exact_inverse``; a general ``lorentz.GramForm`` reads the inverse of its
basis off one ``_eliminate``.  None of them reads a pivot column after its
pivot.  ``_exact_signature`` pivots symmetrically, on the same step,
updating only the block it has left to classify.  The two-phase simplex of
``lp_nonneg_solve`` scales A and b by one lcm each and runs on a condensed
tableau (the dictionary form): each row stores only the nonbasic real
columns and its right-hand side, and an exchange pivot swaps the entering
variable's slot for the leaving one's.  Pivot choices are those of the
rational tableau, so every answer equals the rational one.  Phase 1 starts
from a crash basis, each row's own positive singleton column where it has
one and an artificial elsewhere, applied as row scalings when the tableau
is built, and finds a feasible basis; given an objective, phase 2
minimises it with the same Bland's-rule loop on the same tableau.

A ``Vector`` is integer numerators over one positive denominator, in
lowest terms, and a ``SymMatrix`` keeps its nonzero entries the same way.
Vector sums, differences, negation and scaling, ``apply``, ``quad``,
equality and hashing run on those integers; a vector's ``coords`` and a
matrix's ``rows`` built on integers are made ``Fraction``s only when
read.  ``SymMatrix._int_quad`` is u^T M v times the positive product of
the three denominators, an integer with the sign of u^T M v: sign tests
(cone membership, causal class, reverse Cauchy-Schwarz) read it and build
no ``Fraction``, and ``quad`` is that integer over its denominator.
Boundary decisions in this domain (null vectors, cone facets) must not
depend on float rounding.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import islice
from typing import Sequence

from .errors import DimensionMismatch, ExactBackend, PreconditionFailed

def as_scalar(x) -> Fraction:
    """Promote ints, strings like ``"3/4"`` and finite floats (at their exact
    binary value) to Fraction; a nan or an infinity is PreconditionFailed.

    ``Fraction`` expands a decimal exponent in full (``"1e10000000"`` takes
    seconds), so an exponent beyond Python's cap on int strings,
    ``sys.get_int_max_str_digits()``, in magnitude is PreconditionFailed too;
    a cap of 0 switches that limit off, here as in ``int``.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, str):
        # int raises ValueError on what Fraction would reject after an "e"
        _, e, exp = x.lower().partition("e")
        cap = sys.get_int_max_str_digits()
        if e and cap and abs(int(exp)) > cap:
            raise PreconditionFailed(f"the decimal exponent of {x!r} is beyond the int-string cap")
        return Fraction(x)
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise PreconditionFailed(f"{x!r} is not a finite scalar")
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a scalar")


# the one tolerance rule, for norm values that need a root
ABS_TOL = REL_TOL = 1e-9


def approx_eq(a: float, b: float) -> bool:
    """|a - b| <= ABS_TOL + REL_TOL * max(|a|, |b|), on floats only."""
    if isinstance(a, Fraction) or isinstance(b, Fraction):
        raise ExactBackend("exact rationals compare exactly, without a tolerance")
    return abs(a - b) <= ABS_TOL + REL_TOL * max(abs(a), abs(b))


class Vector:
    """Immutable exact coordinate vector.

    A vector is the integers ``_nums`` over one denominator ``_den`` in
    lowest terms, ``_den > 0`` and gcd(_den, *_nums) == 1, so equal vectors
    have equal integers; its arithmetic runs on them.  ``coords`` holds the
    coordinates as ``Fraction``s.  A vector built from coordinates has them
    from the start and gets its integers on first use; one that arithmetic
    built gets its coords when they are first read.
    """

    __slots__ = ("coords", "dim", "_nums", "_den")

    def __init__(self, coords: Sequence):
        cs = tuple(map(as_scalar, coords))
        if not cs:
            raise DimensionMismatch("vectors must have positive dimension")
        _set_coords(self, cs)
        _set_dim(self, len(cs))

    def __getattr__(self, name):
        # called only for an unset slot: the form not built yet
        if name == "coords":
            d = self._den
            cs = tuple([Fraction(x, d) for x in self._nums])
            _set_coords(self, cs)
            return cs
        if name in ("_nums", "_den"):
            nums, den = _integers(self.coords)
            _set_nums(self, tuple(nums))
            _set_den(self, den)
            return getattr(self, name)
        raise AttributeError(name)

    def __setattr__(self, *a):
        raise AttributeError("Vector is immutable")

    @staticmethod
    def zero(dim: int) -> "Vector":
        return Vector.unit(dim, None)  # no coordinate is 1

    @staticmethod
    def unit(dim: int, i: int) -> "Vector":
        if dim < 1:
            raise DimensionMismatch("vectors must have positive dimension")
        return _int_vector([int(j == i) for j in range(dim)], 1)

    def __add__(self, other: "Vector") -> "Vector":
        return self._plus(other, 1)

    def __sub__(self, other: "Vector") -> "Vector":
        return self._plus(other, -1)

    def _plus(self, other: "Vector", sign: int) -> "Vector":
        """self + sign * other, on the integers over the lcm of both denominators."""
        if self.dim != other.dim:
            raise DimensionMismatch(f"{self.dim} != {other.dim}")
        da, db = self._den, other._den
        g = math.gcd(da, db)
        ka, kb = db // g, sign * (da // g)
        return _int_vector([a * ka + b * kb for a, b in zip(self._nums, other._nums)], da * ka)

    def __neg__(self) -> "Vector":
        return _int_vector([-a for a in self._nums], self._den)

    def scale(self, lam) -> "Vector":
        lam = as_scalar(lam)
        p = lam.numerator
        return _int_vector([p * a for a in self._nums], lam.denominator * self._den)

    def is_zero(self) -> bool:
        return not any(self._nums)

    def as_floats(self) -> tuple:
        # int / int rounds correctly, as float(Fraction) does
        d = self._den
        return tuple([a / d for a in self._nums])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vector):
            return False
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        # the integers __eq__ compares: no Fraction is built
        return hash((self._den, self._nums))

    def __repr__(self):
        return f"Vector({list(self.coords)!r})"


_new_vector = object.__new__
_set_coords = Vector.coords.__set__
_set_dim = Vector.dim.__set__
_set_nums = Vector._nums.__set__
_set_den = Vector._den.__set__


def _int_vector(nums: list, den: int) -> Vector:
    """The vector nums / den for den > 0, in lowest terms."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [a // g for a in nums]
            den //= g
    v = _new_vector(Vector)
    _set_nums(v, tuple(nums))
    _set_den(v, den)
    _set_dim(v, len(nums))
    return v


class SymMatrix:
    """Immutable exact symmetric matrix of positive dimension; shape and
    symmetry are checked on construction.  As in a ``Vector``, its nonzero
    entries ``_nz`` are integers over one denominator ``_den`` in lowest
    terms, and ``apply``, ``quad``, equality and hashing run on them.
    ``rows`` holds the entries as ``Fraction``s: a matrix built from rows
    has them from the start, one built on integers (``_int_symmatrix``)
    gets them when they are first read."""

    __slots__ = ("rows", "dim", "_nz", "_den")

    def __init__(self, rows: Sequence[Sequence]):
        rs = tuple(tuple(map(as_scalar, row)) for row in rows)
        k = math.lcm(*(x.denominator for r in rs for x in r))
        _set_ints(self, [[x.numerator * (k // x.denominator) for x in r] for r in rs], k)
        object.__setattr__(self, "rows", rs)

    def __getattr__(self, name):
        # called only for an unset slot: rows not built yet
        if name != "rows":
            raise AttributeError(name)
        d = self._den
        rs = tuple(tuple(Fraction(x, d) for x in r) for r in self._int_rows())
        object.__setattr__(self, "rows", rs)
        return rs

    def __setattr__(self, *a):
        raise AttributeError("SymMatrix is immutable")

    def _int_rows(self) -> list:
        """The entries as an n x n list of integers over ``_den``."""
        n = self.dim
        rows = [[0] * n for _ in range(n)]
        for i, j, m in self._nz:
            rows[i][j] = m
        return rows

    def as_floats(self) -> tuple:
        # int / int rounds correctly, as float(Fraction) does
        d = self._den
        return tuple(tuple([x / d for x in r]) for r in self._int_rows())

    def apply(self, v: Vector) -> Vector:
        if v.dim != self.dim:
            raise DimensionMismatch(f"{v.dim} != {self.dim}")
        vc = v._nums
        out = [0] * self.dim
        for i, j, m in self._nz:
            out[i] += m * vc[j]
        return _int_vector(out, self._den * v._den)

    def _int_quad(self, u: Vector, v: Vector) -> int:
        """sum m u_i v_j over the nonzero entries m / _den and the vectors'
        numerators: u^T M v times _den u._den v._den > 0, so it has the sign
        of u^T M v and decides it without a Fraction."""
        if u.dim != self.dim or v.dim != self.dim:
            raise DimensionMismatch(f"{u.dim}, {v.dim} != {self.dim}")
        uc, vc = u._nums, v._nums
        return sum(m * uc[i] * vc[j] for i, j, m in self._nz)

    def quad(self, u: Vector, v: Vector) -> Fraction:
        """u^T M v: ``_int_quad`` over its denominator, one Fraction."""
        return Fraction(self._int_quad(u, v), self._den * u._den * v._den)

    def __eq__(self, other) -> bool:
        # the integers are canonical: no Fraction is built
        return isinstance(other, SymMatrix) and (self.dim, self._den, self._nz) == (other.dim, other._den, other._nz)

    def __hash__(self):
        return hash((self.dim, self._den, self._nz))

    def __repr__(self):
        return f"SymMatrix({[list(r) for r in self.rows]!r})"


def _set_ints(m: SymMatrix, ints: list, den: int):
    """Check that ints is square and symmetric and set m to ints / den, den > 0,
    in lowest terms; nonzero entries only, as forms are often diagonal."""
    n = len(ints)
    if not n:
        raise DimensionMismatch("matrices must have positive dimension")
    if any(len(r) != n for r in ints):
        raise DimensionMismatch("matrix must be square")
    if any(ints[i][j] != ints[j][i] for i in range(n) for j in range(i + 1, n)):
        raise DimensionMismatch("matrix is not symmetric")
    g = math.gcd(den, *(x for r in ints for x in r))
    object.__setattr__(m, "dim", n)
    object.__setattr__(m, "_nz", tuple((i, j, x // g) for i, r in enumerate(ints) for j, x in enumerate(r) if x))
    object.__setattr__(m, "_den", den // g)


def _int_symmatrix(ints: list, den: int) -> SymMatrix:
    """The symmetric matrix ints / den for an n x n integer list and den > 0,
    checked as ``SymMatrix(rows)`` checks it; ``rows`` is built on first read."""
    m = object.__new__(SymMatrix)
    _set_ints(m, ints, den)
    return m


# ---------------------------------------------------------------------------
# Exact dense linear algebra, fraction-free on integers.


def _integers(xs) -> tuple[list, int]:
    """(k * x for x in xs, k) with k the lcm of the denominators of xs.

    Entries may be ints, Fractions or floats (taken at their binary value).
    All-int entries, a vector's ``_nums`` among them, are returned as they
    are with k = 1; a bool takes the general path.
    """
    if all(type(x) is int for x in xs):
        return list(xs), 1
    xs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in xs]
    k = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (k // x.denominator) for x in xs], k


def _pivot(a: list, r: int, col: int, d: int, start: int = 0) -> int:
    """One integer-preserving exchange pivot on a[r][col]; returns the new d.

    a holds d times a tableau T as integers, d being the previous pivot (1
    at the start).  Pivoting T on (r, col) keeps that form with
    d' = p = a[r][col]: row r is unchanged, and every other row becomes
    (p row_i - a[i][col] row_r) / d, a division without remainder (Edmonds
    1967; Bareiss 1968).  The pivot is an exchange (Tucker) step: column
    col then holds the column of the variable that left row r, d at row r
    and -a[i][col] in every other row, not the unit column of the one that
    entered, so a tableau need not store its basic columns.  Each row
    from ``start`` on is updated in place from column ``start`` on and in
    column col, and a[r][col] becomes d; every other entry is left as it
    is, for a caller that is done with those rows and columns.
    """
    p = a[r][col]
    pr = a[r][start:]
    for i in range(start, len(a)):
        if i == r:
            continue
        row = a[i]
        f = row[col]
        if f:
            row[start:] = [(p * x - f * y) // d for x, y in zip(row[start:], pr)]
            row[col] = -f
        elif p != d:
            row[start:] = [p * x // d for x in row[start:]]
    a[r][col] = d
    return p


def _reduce(rows: Sequence[Sequence], ncols: int | None, forward: bool) -> tuple[list, list, int, Fraction]:
    """The one fraction-free elimination loop behind ``_eliminate`` and
    ``exact_rank`` / ``exact_det``: (integer tableau, pivot columns, d, det).

    Each row is first scaled to integers by the lcm of its denominators,
    which changes neither the pivot columns nor the reduced pivot rows.
    Pivots are searched only in the first ``ncols`` columns (None: all);
    each column's pivot is its first nonzero entry at or below the current
    row.  With ``forward``, each pivot updates only the rows below it
    (``_pivot``'s ``start``), Bareiss's forward elimination: those rows are
    the Gauss-Jordan ones, so the pivots, d and det are too, for about a
    third of the work, and the tableau is left in echelon form only.  det
    is that of A when A is square and of full rank, else 0.
    """
    a, scales = [], 1
    for row in rows:
        ints, k = _integers(row)
        a.append(ints)
        scales *= k
    m = len(a)
    if ncols is None:
        ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    d = 1
    sign = 1
    for col in range(ncols):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        d = _pivot(a, r, col, d, r + 1 if forward else 0)
        pivots.append(col)
    # d is the determinant of the scaled matrix, up to the swaps' sign
    det = Fraction(sign * d, scales) if m == ncols == len(pivots) else Fraction(0)
    return a, pivots, d, det


def _eliminate(rows: Sequence[Sequence], ncols: int | None = None) -> tuple[list, list, int, Fraction]:
    """Gauss-Jordan reduction: (integer tableau, pivot columns, d, det).

    Columns after ``ncols`` are carried along, so an augmented block
    [A | B] is reduced with A.  Pivot rows come first, in order: outside
    the pivot columns, which ``_pivot`` leaves holding exchange columns,
    row r of the reduced form is a[r] / d.
    """
    return _reduce(rows, ncols, False)


def exact_rank(rows: Sequence[Sequence]) -> int:
    return len(_reduce(rows, None, True)[1])


def exact_det(rows: Sequence[Sequence]) -> Fraction:
    if any(len(r) != len(rows) for r in rows):
        raise DimensionMismatch("exact_det expects a square matrix")
    return _reduce(rows, None, True)[3]


def _solve(rows: Sequence[Sequence], rhs: Sequence[Sequence]) -> list | None:
    """X with A X = B for square A and an n x k block B, exactly; None if singular."""
    n = len(rows)
    if any(len(r) != n for r in rows) or len(rhs) != n:
        raise DimensionMismatch("expected a square system")
    a, pivots, d, _ = _eliminate([list(r) + list(b) for r, b in zip(rows, rhs)], n)
    if len(pivots) < n:
        return None
    return [[Fraction(x, d) for x in row[n:]] for row in a]


def exact_solve(rows: Sequence[Sequence], rhs: Sequence) -> list | None:
    """Solve the square system A x = b exactly; None if singular."""
    x = _solve(rows, [[b] for b in rhs])
    return None if x is None else [r[0] for r in x]


def exact_inverse(rows: Sequence[Sequence]) -> list | None:
    return _solve(rows, [[int(i == j) for j in range(len(rows))] for i in range(len(rows))])


def exact_null_space(rows: Sequence[Sequence], n: int) -> list:
    """Basis of the null space of a rational row matrix with n columns.

    One vector per free column j of the reduced form: 1 at j, minus the
    reduced column j at the pivot columns.
    """
    a, pivots, d, _ = _eliminate(rows, n)
    basis = []
    for j in range(n):
        if j in pivots:
            continue
        v = [Fraction(0)] * n
        v[j] = Fraction(1)
        for row, col in zip(a, pivots):
            v[col] = Fraction(-row[j], d)
        basis.append(v)
    return basis


def _exact_signature(m: SymMatrix) -> tuple[int, int, int]:
    """(plus, minus, zero) of an exact symmetric matrix by fraction-free congruence.

    It starts from the matrix's integer numerators, m times its positive
    common denominator, which has the same inertia.  After k steps the
    trailing block a[k:][k:] holds d times a Schur complement, d being the
    previous pivot.  Each step swaps a nonzero diagonal entry p of the
    block to (k, k), row and column alike, and pivots on it with
    ``_pivot``, which updates the block after row and column k in place;
    its congruence diagonal entry p / d has the sign of p d.  With no
    nonzero diagonal left, the congruence row_i += row_j, col_i += col_j
    makes a[i][i] = 2 a[i][j] != 0 and keeps every later division exact.
    """
    n = m.dim
    a = [[0] * n for _ in range(n)]
    for i, j, x in m._nz:
        a[i][j] = x
    pos, d, k = 0, 1, 0
    while k < n:
        if not a[k][k]:
            piv = next((i for i in range(k + 1, n) if a[i][i]), None)
            if piv is None:
                pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j]), None)
                if pair is None:
                    break
                i, j = pair
                a[i] = [x + y for x, y in zip(a[i], a[j])]
                for row in islice(a, k, None):
                    row[i] += row[j]
                continue
            a[k], a[piv] = a[piv], a[k]
            for row in islice(a, k, None):
                row[k], row[piv] = row[piv], row[k]
        if a[k][k] * d > 0:
            pos += 1
        d = _pivot(a, k, k, d, k + 1)
        k += 1
    # the block left is zero: its size is the nullity
    return pos, k - pos, n - k


def _exchange(tab: list, basis: list, var: list, r: int, s: int, d: int, n: int) -> int:
    """Pivot slot s into row r of a condensed tableau; returns the new d.

    ``_pivot`` leaves the column of the variable that left row r in slot s;
    an artificial (index >= n) never re-enters, so its slot is deleted.
    """
    d = _pivot(tab, r, s, d)
    left, basis[r] = basis[r], var[s]
    if left < n:
        var[s] = left
    else:
        del var[s]
        for row in tab:
            del row[s]
    return d


def _bland(tab: list, basis: list, var: list, n: int, d: int) -> int | None:
    """Simplex loop on a condensed integer tableau whose last row is the objective row.

    tab holds d > 0 times the tableau (see ``_pivot``), so every sign and
    every ratio is that of the tableau itself.  Its slots are the nonbasic
    real columns, slot s holding variable var[s], and the last entry of a
    row is its right-hand side.  The objective row holds the slots' reduced
    costs and the current objective value; a positive reduced cost
    improves.  Bland's rule (smallest entering variable, ties in the ratio
    test broken on the smallest basis index) guarantees termination; the
    basic columns, with reduced cost 0, are never candidates, so the
    choices are those of the full tableau.  Returns the final d, or None
    when the objective is unbounded below.
    """
    m = len(tab) - 1
    while True:
        up = [j for j, x in zip(var, tab[m]) if x > 0]
        if not up:
            return d
        enter = var.index(min(up))
        leave = None
        for i in range(m):
            row = tab[i]
            t = row[enter]
            if t > 0:
                if leave is None:
                    leave = i
                    continue
                # b_i / t < b_leave / t_leave, cross-multiplied (both t > 0)
                lhs, rhs = row[-1] * tab[leave][enter], tab[leave][-1] * t
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            return None
        d = _exchange(tab, basis, var, leave, enter, d, n)


def lp_nonneg_solve(A: Sequence[Sequence], b: Sequence, c: Sequence | None = None) -> list | None:
    """Find theta >= 0 with A theta = b, exactly, or None if infeasible.

    Two-phase simplex with Bland's rule, sized for desk-scale systems (tens
    of rows/columns).  It runs fraction-free on integers (``_pivot``): A is
    scaled by the lcm L_A of its denominators and b separately by the lcm
    L_b of its own, so the tableau solves for theta' = (L_b / L_A) theta.
    One positive scale per column block keeps every ratio test and reduced
    cost sign, hence every pivot, that of the rational tableau, while a
    float right-hand side's 2^52-sized denominators stay in one column.
    Fractions are built only for the returned theta.

    The tableau is condensed (the dictionary form; Chvatal 1983, ch. 2):
    each row stores only the nonbasic real columns, its slots, and its
    right-hand side, and ``var`` names the variable of each slot.  Basic
    columns are unit columns and are never stored, nor are the artificial
    columns: an artificial that leaves the basis never re-enters, so its
    slot is deleted.  The rows are [A_i | b_i], signed so that b_i >= 0.
    Phase 1 starts on a crash basis (Bixby 1992): walking the columns in
    order, a column whose only nonzero entry is positive, in a row still
    on its artificial, is basic in that row.  Pivoting on it only scales
    the other rows by a positive factor p / d, so the crash is applied at
    construction: with D the product of the crash entries, a crash row
    with entry e is scaled by D / e, every other row by D, and d = D, as
    the pivots would leave them, and the crash columns are left out.
    Positive column scaling keeps a column a positive singleton, so the
    crash, like every later pivot, is unchanged by it.  The phase-1
    objective row, for min(sum of the artificials left), is the sum of the
    rows still on artificials, last.  Without c, any feasible theta is
    returned.  With c, phase 2 minimises c . theta from the phase-1 basis
    on the same tableau: artificials left basic at level zero are pivoted
    out on the nonzero slot of their row with the smallest variable, or
    their row is dropped as a redundant equality, and the objective row is
    replaced by c's reduced costs on the slots.  c . theta must be bounded
    below on the feasible set (c >= 0 suffices).  Every pivot, d and theta
    are those of the full tableau.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    flat, la = _integers([x for row in A for x in row])
    rhs, lb = _integers(b)
    rows = []
    for i in range(m):
        r = flat[i * n : (i + 1) * n] + [rhs[i]]
        rows.append([-x for x in r] if r[n] < 0 else r)
    basis = list(range(n, n + m))  # artificial variables
    var = []
    # crash basis: a positive singleton column is basic in its row at
    # b_i / a_ij >= 0; its pivot only scales the other rows by p / d > 0,
    # which keeps the zeros and signs this walk reads, so the crash pivots,
    # applied at once, make d their product D and scale each row by D over
    # its own crash entry, or by D
    d = 1
    for j, col in enumerate(islice(zip(*rows), n)):
        if col.count(0) == m - 1:
            e = max(col)
            i = col.index(e)
            if e > 0 and basis[i] >= n:
                basis[i] = j
                d *= e
                continue
        var.append(j)
    tab = rows  # with no crash column, d = 1 and the rows are the tableau
    if len(var) < n:
        tab = []
        for row, k in zip(rows, basis):
            scale = d // row[k] if k < n else d
            tab.append([row[j] * scale for j in var] + [row[n] * scale])
    # price-out: the objective row is the sum of the rows still on artificials
    art = [r for r, k in zip(tab, basis) if k >= n]
    tab.append([sum(col) for col in zip(*art)] if art else [0] * (len(var) + 1))
    # an unbounded phase-1 objective cannot happen (bounded below by 0)
    d = _bland(tab, basis, var, n, d)
    if d is None or tab[-1][-1] != 0:
        return None
    if c is not None:
        tab.pop()
        for i in reversed(range(len(tab))):
            if basis[i] < n:
                continue
            row = tab[i]
            nonzero = [j for j, x in zip(var, row) if x]
            if not nonzero:
                del tab[i], basis[i]
                continue
            s = var.index(min(nonzero))
            if row[s] < 0:
                # the row's right-hand side is 0: negated, it states the same
                # equality, and the pivot, hence d, stays positive
                tab[i] = [-x for x in row]
            d = _exchange(tab, basis, var, i, s, d, n)
        cost, _ = _integers(c)
        # d times (reduced costs, objective value), times c's positive scale:
        # the basic rows weighted by their costs, less d times the slots' costs
        obj = [-d * cost[j] for j in var] + [0]
        for k, r in zip(basis, tab):
            if cost[k]:
                obj = [x + cost[k] * y for x, y in zip(obj, r)]
        tab.append(obj)
        d = _bland(tab, basis, var, n, d)
        if d is None:
            raise PreconditionFailed("c . theta is unbounded below on the feasible set")
    theta = [Fraction(0)] * n
    for row, k in zip(tab, basis):
        if k < n and row[-1]:
            theta[k] = Fraction(row[-1] * la, d * lb)
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


# decimal digits of fraction_sqrt_bounds: hi - lo <= 10**-SQRT_DIGITS
SQRT_DIGITS = 15


def fraction_sqrt_bounds(s: Fraction) -> tuple[Fraction, Fraction]:
    """Rational (lower, upper) bounds on sqrt(s), within 10**-SQRT_DIGITS."""
    s = Fraction(s)
    if s < 0:
        raise ValueError("negative radicand")
    lo, hi, den = _sqrt_bounds(s.numerator, s.denominator)
    return Fraction(lo, den), Fraction(hi, den)


def _sqrt_bounds(n: int, d: int) -> tuple[int, int, int]:
    """(lo, hi, den) with lo / den <= sqrt(n / d) <= hi / den, for n / d >= 0
    in lowest terms: the exact root pn / pd when n and d are perfect squares,
    else isqrt(n d 10**(2 SQRT_DIGITS)) and that plus 1 over d 10**SQRT_DIGITS.
    The bounds depend on n / d being in lowest terms."""
    pn, pd = math.isqrt(n), math.isqrt(d)
    if pn * pn == n and pd * pd == d:
        return pn, pn, pd
    scale = 10**SQRT_DIGITS
    r = math.isqrt(n * d * scale * scale)
    return r, r + 1, d * scale
