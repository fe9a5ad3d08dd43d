"""Exact dense linear algebra: 3×3 matrices over Q(√3, i) and
arbitrary-shape matrices over Q(√3).  RREF, rank, nullspace and the
determinant come from one Gauss–Jordan pass on integer numerators over one
denominator per row, which builds F3 values only for its output; the
signature of a symmetric matrix from diagonalization by congruence.

Pivoting picks the first nonzero entry in column order; arithmetic is
exact, so no magnitude considerations apply and results are
deterministic across platforms.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .field import C3, F3, Frozen, _raw_f3

Flavor = str  # "compact" | "split"

COMPACT = "compact"
SPLIT = "split"


def _check_flavor(flavor: Flavor) -> None:
    if flavor not in (COMPACT, SPLIT):
        raise ValueError(f"unknown flavor {flavor!r}")


class SparseTable(Frozen):
    """Structure constants: ``cells[a][b]`` holds the (k, c) with b_a·b_b =
    Σ c·b_k, c an int, Fraction or F3, and ``ints`` the same cells as (k, A, B)
    with c = (A + B√3)/``den``, one denominator for the whole table."""

    __slots__ = ("cells", "ints", "den")

    def __init__(self, cells):
        cells = tuple(tuple(tuple(cell) for cell in row) for row in cells)
        nums, den = _numerators([c for row in cells for cell in row for _, c in cell])
        nums = iter(nums)  # in the order the cells list their constants
        ints = tuple(
            tuple(tuple((k, *next(nums)) for k, _ in cell) for cell in row) for row in cells
        )
        for name, value in (("cells", cells), ("ints", ints), ("den", den)):
            object.__setattr__(self, name, value)


def _numerators(xs):
    """Integers (a, b) with x = (a + b√3)/d for each x of ``xs`` (F3s,
    Fractions or ints), and the one denominator d."""
    parts = [
        (x._an, x._bn, x._d) if isinstance(x, F3) else (x.numerator, 0, x.denominator)
        for x in xs
    ]
    d = math.lcm(*(e for _, _, e in parts))
    return [(a * (d // e), b * (d // e)) for a, b, e in parts], d


def bilinear(table: SparseTable, u, v, scalar):
    """Σ u[a]·v[b]·c·b_k over a sparse table, summed as integer numerators; each
    coordinate is built once, as an F3 or (rational table and inputs) a Fraction."""
    nu, du = _numerators(u)
    nv, dv = _numerators(v)
    nu = [(table.ints[a], ua, ub) for a, (ua, ub) in enumerate(nu) if ua or ub]
    nv = [(b, va, vb) for b, (va, vb) in enumerate(nv) if va or vb]
    out_a, out_b = [0] * len(table.ints), [0] * len(table.ints)
    for row, ua, ub in nu:
        for b, va, vb in nv:
            cell = row[b]
            if cell:
                # (ua + ub√3)(va + vb√3) = fa + fb√3
                fa, fb = ua * va + 3 * ub * vb, ua * vb + ub * va
                fb3 = 3 * fb
                for k, ca, cb in cell:
                    out_a[k] += fa * ca + fb3 * cb
                    out_b[k] += fa * cb + fb * ca
    d = du * dv * table.den
    if scalar is F3:
        return [_raw_f3(a, b, d) for a, b in zip(out_a, out_b)]
    return [Fraction(a, d) for a in out_a]


def bilinear_left(table: SparseTable, u):
    """Rows of the matrix of v ↦ ``bilinear(table, u, v, F3)``: entry [k][b]
    is Σ_a u[a]·c over the pairs (k, c) of cell [a][b]."""
    nu, du = _numerators(u)
    n = len(table.ints)
    out_a, out_b = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
    for row, (ua, ub) in zip(table.ints, nu):
        ub3 = 3 * ub
        for b, cell in enumerate(row):
            for k, ca, cb in cell:
                out_a[k][b] += ua * ca + ub3 * cb
                out_b[k][b] += ua * cb + ub * ca
    d = du * table.den
    return [[_raw_f3(a, b, d) for a, b in zip(ra, rb)] for ra, rb in zip(out_a, out_b)]


class Vector(Frozen):
    """Immutable vector of ``SIZE`` coordinates, each coerced by ``scalar``.

    The one implementation of equality, hashing, truth value, ``+``, ``-``,
    negation and ``scale`` for the coordinate types.  Results are built by
    ``_like`` from coordinates that are already scalars; a subclass with
    more state than ``coeffs`` overrides ``_like`` (copy that state),
    ``_key`` (what ``==`` and hashing compare) and ``_check`` (reject an
    operand that cannot be combined with this one).
    """

    __slots__ = ("coeffs",)

    SIZE = 0
    scalar = F3.coerce

    def __init__(self, coeffs):
        coeffs = tuple(map(self.scalar, coeffs))
        if len(coeffs) != self.SIZE:
            raise ValueError(f"{type(self).__name__} needs {self.SIZE} coefficients")
        object.__setattr__(self, "coeffs", coeffs)

    def _like(self, coeffs):
        out = object.__new__(type(self))
        object.__setattr__(out, "coeffs", tuple(coeffs))
        return out

    def _key(self):
        return self.coeffs

    def _check(self, other) -> None:
        pass

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __bool__(self):
        return any(self.coeffs)

    def __add__(self, other):
        self._check(other)
        return self._like([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return self._like([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return self._like([-a for a in self.coeffs])

    def scale(self, c):
        c = self.scalar(c)
        return self._like([c * a for a in self.coeffs])


class Mat3(Vector):
    """Dense 3×3 matrix over C3, its entries stored row by row in ``coeffs``."""

    __slots__ = ()

    SIZE = 9
    scalar = C3.coerce

    def __init__(self, rows):
        rows = [tuple(r) for r in rows]
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("Mat3 requires a 3x3 array")
        super().__init__([x for r in rows for x in r])

    @classmethod
    def zero(cls) -> Mat3:
        return cls([[0, 0, 0]] * 3)

    @classmethod
    def identity(cls) -> Mat3:
        return cls([[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    @classmethod
    def diag(cls, a, b, c) -> Mat3:
        return cls([[a, 0, 0], [0, b, 0], [0, 0, c]])

    @property
    def rows(self):
        c = self.coeffs
        return c[0:3], c[3:6], c[6:9]

    def __getitem__(self, ij):
        i, j = ij
        return self.coeffs[3 * i + j]

    def __repr__(self):
        return f"Mat3({[[str(x) for x in r] for r in self.rows]})"

    def __matmul__(self, other) -> Mat3:
        a, b = self.rows, other.rows
        return self._like(
            a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j]
            for i in range(3)
            for j in range(3)
        )

    def trace(self) -> C3:
        c = self.coeffs
        return c[0] + c[4] + c[8]

    def dagger(self) -> Mat3:
        """Conjugate transpose."""
        r = self.rows
        return self._like(r[j][i].conj() for i in range(3) for j in range(3))

    def det(self) -> C3:
        r = self.rows
        return (
            r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
        )

    def inverse(self) -> Mat3:
        d = self.det()
        if not d:
            raise ZeroDivisionError("singular Mat3")
        r = self.rows
        dinv = d.inverse()
        # the adjugate: entry (j, i) is the (i, j) cofactor
        return self._like(
            dinv * (r[(i + 1) % 3][(j + 1) % 3] * r[(i + 2) % 3][(j + 2) % 3]
                    - r[(i + 1) % 3][(j + 2) % 3] * r[(i + 2) % 3][(j + 1) % 3])
            for j in range(3)
            for i in range(3)
        )

    def to_json(self):
        return [[x.to_json() for x in r] for r in self.rows]


def eta_dagger(x: Mat3, flavor: Flavor) -> Mat3:
    """η x† η for η = Id (compact) or diag(-1,1,1) (split); an involution.

    Entry (i, j) is η_iη_j·conj(x_ji): the split flavor negates the four
    entries that pair index 0 with index 1 or 2.
    """
    _check_flavor(flavor)
    d = x.dagger()
    if flavor == COMPACT:
        return d
    c = d.coeffs
    return d._like((c[0], -c[1], -c[2], -c[3], c[4], c[5], -c[6], c[7], c[8]))


def is_eta_hermitian(x: Mat3, flavor: Flavor) -> bool:
    return eta_dagger(x, flavor) == x


class ExactMatrix(Frozen):
    """Dense matrix over F3 of arbitrary shape."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = tuple(tuple(F3.coerce(x) for x in r) for r in entries)
        cols = len(entries[0]) if entries else 0
        if any(len(r) != cols for r in entries):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"

    def mul_vec(self, v):
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return [
            sum((a * x for a, x in zip(r, v) if a), F3()) for r in self.entries
        ]


def _reduced(na, nb, d):
    """A row (na, nb, d) with the gcd of all its integers divided out."""
    g = math.gcd(d, *na, *nb)
    if g == 1:
        return na, nb, d
    return [x // g for x in na], [x // g for x in nb], d // g


def _gauss_jordan(m: ExactMatrix):
    """Gauss–Jordan elimination over Q(√3): the reduced rows, the pivot
    columns, the pivot values divided by, and (-1)^(number of row swaps).
    A row is integer lists (na, nb) over one d > 0, entry j being
    (na[j] + nb[j]√3)/d; a row operation is one integer pass and one gcd,
    and F3 values are built only for the divisors and the rows returned."""
    a = []
    for r in m.entries:
        d = math.lcm(*(x._d for x in r))
        a.append(([x._an * (d // x._d) for x in r], [x._bn * (d // x._d) for x in r], d))
    nrows, ncols = m.rows, m.cols
    pivots, divisors, sign, prow = [], [], 1, 0
    for col in range(ncols):
        sel = next((r for r in range(prow, nrows) if a[r][0][col] or a[r][1][col]), None)
        if sel is None:
            continue
        if sel != prow:
            a[prow], a[sel] = a[sel], a[prow]
            sign = -sign
        na, nb, d = a[prow]
        pa, pb = na[col], nb[col]
        divisors.append(_raw_f3(pa, pb, d))
        # x/p = (xa + xb√3)(pa - pb√3)/(pa² - 3pb²): the row's d cancels
        n = pa * pa - 3 * pb * pb
        if n < 0:
            pa, pb, n = -pa, -pb, -n
        # the pivot entry becomes n/n, and d/d = 1 after the gcd
        na, nb, d = a[prow] = _reduced([x * pa - 3 * y * pb for x, y in zip(na, nb)],
                                       [y * pa - x * pb for x, y in zip(na, nb)], n)
        support = [(j, na[j], nb[j]) for j in range(ncols) if na[j] or nb[j]]
        for r in range(nrows):
            ra, rb, rd = a[r]
            fa, fb = ra[col], rb[col]
            if r == prow or not (fa or fb):
                continue
            # r - f·prow = (s·r - (fa + fb√3)·prow)/(s·rd) with f = g(fa + fb√3)/rd
            # and d = g·s, so row r is rescaled only when s > 1
            g = math.gcd(fa, fb, d)
            s, fa, fb = d // g, fa // g, fb // g
            if s > 1:
                ra, rb = [s * x for x in ra], [s * x for x in rb]
            fb3 = 3 * fb
            for j, xa, xb in support:
                ra[j] -= fa * xa + fb3 * xb
                rb[j] -= fa * xb + fb * xa
            a[r] = _reduced(ra, rb, s * rd)
        pivots.append(col)
        prow += 1
    zero = F3()
    rows = [[_raw_f3(x, y, d) if x or y else zero for x, y in zip(na, nb)] for na, nb, d in a]
    return rows, pivots, divisors, sign


def rref(m: ExactMatrix):
    """Reduced row echelon form over Q(√3); returns (rref, pivot columns)."""
    rows, pivots, _, _ = _gauss_jordan(m)
    return ExactMatrix(rows), pivots


def rank(m: ExactMatrix) -> int:
    return len(rref(m)[1])


def nullspace(m: ExactMatrix):
    """Exact basis of {v : m·v = 0}; one vector per free column."""
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [F3()] * m.cols
        v[fc] = F3(1)
        for prow, pcol in enumerate(pivots):
            v[pcol] = -red.entries[prow][fc]
        basis.append(v)
    return basis


def determinant(m: ExactMatrix) -> F3:
    """Exact determinant over F3 from one Gauss–Jordan pass."""
    if m.rows != m.cols:
        raise ValueError("determinant of non-square matrix")
    _, pivots, divisors, sign = _gauss_jordan(m)
    return math.prod(divisors, start=F3(sign)) if len(pivots) == m.rows else F3()


def symmetric_signature(m: ExactMatrix):
    """Signature (pos, neg, zero) of a symmetric F3 matrix.

    Diagonalizes by exact congruence transformations; valid because the
    real embedding of Q(√3) orders the field.
    """
    if m.rows != m.cols:
        raise ValueError("signature of non-square matrix")
    n = m.rows
    a = [list(r) for r in m.entries]
    pos = neg = zero = 0
    for step in range(n):
        # find a nonzero diagonal entry
        sel = next((k for k in range(step, n) if a[k][k]), None)
        if sel is None:
            offd = next(
                (
                    (i, j)
                    for i in range(step, n)
                    for j in range(i + 1, n)
                    if a[i][j]
                ),
                None,
            )
            if offd is None:
                zero += n - step
                break
            i, j = offd
            # a[i][i] = a[j][j] = 0, a[i][j] ≠ 0: row/col addition makes
            # a new nonzero diagonal entry 2*a[i][j]
            for k in range(n):
                a[i][k] = a[i][k] + a[j][k]
            for k in range(n):
                a[k][i] = a[k][i] + a[k][j]
            sel = i
        if sel != step:
            a[step], a[sel] = a[sel], a[step]
            for k in range(n):
                a[k][step], a[k][sel] = a[k][sel], a[k][step]
        d = a[step][step]
        if d.is_positive():
            pos += 1
        else:
            neg += 1
        dinv = d.inverse()
        # the matching column operations would write only row `step`, which
        # no later step reads, so the trailing block is already congruent
        for r in range(step + 1, n):
            if a[r][step]:
                f = a[r][step] * dinv
                for k in range(n):
                    a[r][k] = a[r][k] - f * a[step][k]
    return pos, neg, zero
