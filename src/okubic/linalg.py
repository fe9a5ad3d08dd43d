"""Exact linear algebra: 3×3 matrices over Q(√3, i) and arbitrary-shape
matrices over Q(√3), and the one kernel ``bilinear`` that evaluates every
product and bilinear form given by a ``SparseTable`` on integer numerators.
Every ``Vector`` (the coordinate types and ``Mat3``) is stored as gcd-reduced
integer numerators over one denominator, the form ``bilinear`` takes and
returns, so products chain with no scalar built in between.  A 3×3 product,
and Tr(x²), are summed on those integers; a traceful product
(1/2+iθ)xy + (1/2-iθ)yx is one such product.  RREF, rank, nullspace and the
determinant come from one elimination by row insertion on sparse integer rows
(the nonzero entries only, as integer numerators over one denominator per row),
the one stored form of an ``ExactMatrix``; the signature of a symmetric
matrix comes from Schur complements on the same rows through the same row operations.

Each row, in input order, is cleared by the pivot rows found so far and, if nonzero,
pivots on its first entry; the reduced row echelon form is unique, so the result is
that of clearing column by column.  The pivot rows live in one list of runs: before
the first row that clears to zero a row is cleared run by run, at that row the runs
settle into one, fully reduced, and after it a new pivot column is cleared from that
run, whose span each row is first tested for on the run's transpose packed into one
integer per column, one integer multiply-add per entry of the row; a row in the span
skips its pass.  Arithmetic is exact, so no magnitude considerations apply and results
are deterministic across platforms.
"""

from __future__ import annotations

import bisect
import itertools
import math

from .field import C3, F3, Frozen, _raw_f3

Flavor = str  # "compact" | "split"

COMPACT = "compact"
SPLIT = "split"
_ZERO, _ONE = F3(), F3(1)


def _check_flavor(flavor: Flavor) -> None:
    if flavor not in (COMPACT, SPLIT):
        raise ValueError(f"unknown flavor {flavor!r}")


class SparseTable(Frozen):
    """Structure constants, stored only as integers: ``ints[a][b]`` holds the
    (k, A, B) with b_a·b_b = Σ c·b_k, c = (A + B√3)/``den`` (one denominator) a
    nonzero constant (zero constants are dropped, so no cell is made only of
    zeros), and ``nonzero[a]`` the (b, ints[a][b]) of the nonempty cells.  A cell
    object that the input lists twice is stored once.  There are ``size`` output
    coordinates k: as many as rows for a product, one for a form, whose value is
    ``bilinear(...)[0]``.  ``cells`` builds the (k, c) as F3s on each call.

    ``terms`` is the form ``bilinear`` reads, (symmetric, rows): ``symmetric`` when
    ints[a][b] == ints[b][a] for every a and b, and rows[a] the (b, rat, sq) of the
    nonempty cells, only b ≥ a when symmetric; ``rat`` holds the (k, A, B) of the cell
    with A ≠ 0 and ``sq`` those with B ≠ 0, the same triples (a constant with both
    parts nonzero is in both)."""

    __slots__ = ("ints", "nonzero", "terms", "den", "size")

    def __init__(self, cells, size=None):
        """``cells[a][b]`` lists the (k, c) of b_a·b_b, c an int, Fraction or F3."""
        cells = [list(row) for row in cells]
        # each cell object once, without its zero constants
        distinct = {id(cell): [(k, c) for k, c in cell if c] for row in cells for cell in row}
        nums, den = _numerators([c for cell in distinct.values() for _, c in cell])
        it = iter(nums)  # in the order the distinct cells list their constants
        by_id = {i: tuple((k, *next(it)) for k, _ in cell) for i, cell in distinct.items()}
        ints = tuple(tuple(by_id[id(cell)] for cell in row) for row in cells)
        nonzero = tuple(tuple((b, cell) for b, cell in enumerate(row) if cell) for row in ints)
        symmetric = ints == tuple(zip(*ints))
        terms = symmetric, tuple(
            tuple((b, tuple(t for t in cell if t[1]), tuple(t for t in cell if t[2]))
                  for b, cell in row if b >= a or not symmetric)
            for a, row in enumerate(nonzero))
        size = len(cells) if size is None else size
        for name, value in zip(SparseTable.__slots__, (ints, nonzero, terms, den, size)):
            object.__setattr__(self, name, value)

    @property
    def cells(self):
        return tuple(tuple(tuple((k, _raw_f3(a, b, self.den)) for k, a, b in cell) for cell in row)
                     for row in self.ints)


def _numerators(xs):
    """Integers (a, b) with x = (a + b√3)/d for each x of ``xs`` (F3s,
    Fractions or ints), and the one denominator d."""
    parts = [
        (x._an, x._bn, x._d) if isinstance(x, F3) else (x.numerator, 0, x.denominator)
        for x in xs
    ]
    d = math.lcm(*(e for _, _, e in parts))
    return [(a * (d // e), b * (d // e)) for a, b, e in parts], d


def _vector_ints(xs):
    """The stored form (na, nb, d) of F3s, Fractions or ints ``xs``: coordinate k is
    (na[k] + nb[k]√3)/d, over the lcm of their denominators, which leaves it gcd-reduced."""
    nums, d = _numerators(xs)
    return tuple(a for a, _ in nums), tuple(b for _, b in nums), d


def _canonical(parts, d):
    """(*parts, d) for integer sequences ``parts`` over d > 0, with the gcd of d and
    every integer divided out: the stored form of a ``Vector``."""
    g = math.gcd(d, *itertools.chain.from_iterable(parts))
    if g == 1:
        return (*map(tuple, parts), d)
    return (*(tuple(x // g for x in p) for p in parts), d // g)


def bilinear(table: SparseTable, u, v):
    """Σ u[a]·v[b]·c·b_k over each row's nonempty cells, for u and v in the stored
    form (na, nb, d) of a ``Vector``, summed as integer numerators over ``terms``; the
    result is in that form too, gcd-reduced by one gcd.  In a symmetric table the
    cell (a, b), b > a, stands for (b, a) too and takes u[a]·v[b] + u[b]·v[a]; a
    rational constant takes two integer products, and so does a √3 one.  When ``u is
    v`` on a symmetric table the pair product is 2·u[a]·u[b], four integer products,
    and u[a]² on the diagonal.  A row is skipped when u[a] is zero (and v[a], in a
    symmetric table), a term when v[b] is zero or, for a mirrored pair, when its pair
    product is."""
    una, unb, du = u
    vna, vnb, dv = v
    symmetric, rows = table.terms
    if len(una) != len(rows) or len(vna) != len(rows):
        raise ValueError(f"operands of {len(una)} and {len(vna)} for a table of {len(rows)} rows")
    square = symmetric and u is v
    out_a, out_b = [0] * table.size, [0] * table.size
    for a, (row, ua, ub, va, vb) in enumerate(zip(rows, una, unb, vna, vnb)):
        if not (ua or ub or symmetric and (va or vb)):
            continue
        ub3, vb3 = 3 * ub, 3 * vb
        for b, rat, sq in row:
            xa, xb = vna[b], vnb[b]
            # the pair product fa + fb√3: (ua + ub√3)(xa + xb√3), plus
            # (ya + yb√3)(va + vb√3) for the mirrored cell (b, a) of a symmetric table
            if square and b != a:  # u is v: twice (ua + ub√3)(xa + xb√3)
                if not (xa or xb):
                    continue
                fa, fb = 2 * (ua * xa + ub3 * xb), 2 * (ua * xb + ub * xa)
            elif symmetric and b != a:
                ya, yb = una[b], unb[b]
                fa = ua * xa + ub3 * xb + ya * va + yb * vb3
                fb = ua * xb + ub * xa + ya * vb + yb * va
                if not (fa or fb):
                    continue
            elif xa or xb:
                fa, fb = ua * xa + ub3 * xb, ua * xb + ub * xa
            else:
                continue
            for k, c, _ in rat:  # (fa + fb√3)·A
                out_a[k] += fa * c
                out_b[k] += fb * c
            if sq:  # (fa + fb√3)·B√3
                fb3 = 3 * fb
                for k, _, c in sq:
                    out_a[k] += fb3 * c
                    out_b[k] += fa * c
    return _canonical((out_a, out_b), du * dv * table.den)


def bilinear_left(table: SparseTable, u):
    """Rows of the matrix of v ↦ ``bilinear(table, u, v)``, for u in the stored form
    (na, nb, d) of a ``Vector``, as gcd-reduced sparse integer rows (na, nb, d): entry
    [k][b] is Σ_a u[a]·c over the pairs (k, c) of cell [a][b].  Zero coordinates of u
    are skipped; each row is summed densely and made sparse by one scan of its entries
    that also divides out its gcd."""
    una, unb, du = u
    n = len(table.ints)
    if len(una) != n:
        raise ValueError(f"an operand of {len(una)} for a table of {n} rows")
    out_a, out_b = [[0] * n for _ in range(table.size)], [[0] * n for _ in range(table.size)]
    for row, ua, ub in zip(table.nonzero, una, unb):
        if ua or ub:
            ub3 = 3 * ub
            for b, cell in row:
                for k, ca, cb in cell:
                    out_a[k][b] += ua * ca + ub3 * cb
                    out_b[k][b] += ua * cb + ub * ca
    d, rows = du * table.den, []
    for ra, rb in zip(out_a, out_b):
        g = math.gcd(d, *ra, *rb)  # zeros leave the gcd as it is
        na = {b: x // g for b, x in enumerate(ra) if x or rb[b]}
        rows.append((na, {b: rb[b] // g for b in na}, d // g))
    return rows


def _c3_dot(xs, ys):
    """Σ x·y for pairs of integer tuples (ra, rb, ia, ib), each (ra + rb√3 + (ia + ib√3)i):
    the four-term product over Q(√3, i), summed as integers into one such tuple."""
    ra = rb = ia = ib = 0
    for (xra, xrb, xia, xib), (yra, yrb, yia, yib) in zip(xs, ys):
        # (xr + xi·i)(yr + yi·i) = xr·yr - xi·yi + (xr·yi + xi·yr)i, each part in Q(√3)
        ra += xra * yra + 3 * xrb * yrb - xia * yia - 3 * xib * yib
        rb += xra * yrb + xrb * yra - xia * yib - xib * yia
        ia += xra * yia + 3 * xrb * yib + xia * yra + 3 * xib * yrb
        ib += xra * yib + xrb * yia + xia * yrb + xib * yra
    return ra, rb, ia, ib


class Vector(Frozen):
    """Immutable vector of ``SIZE`` coordinates, stored only as ``ints``: integer parts
    over one denominator d > 0, gcd-reduced (the gcd of d and every part is 1), so one
    vector has one stored form.  For F3 coordinates ``ints`` is (na, nb, d), coordinate
    k being (na[k] + nb[k]√3)/d; ``Mat3`` has four parts.  ``coeffs`` builds the
    coordinates as scalars (``scalar`` coerces input) on each call.

    The one implementation of truth value, ``+``, ``-``, negation and ``scale`` for the
    coordinate types, all on the stored integers; equality and hashing are ``Frozen``'s,
    on the key ``ints``.  Results are built by ``_like`` from stored forms; a subclass
    with more state than ``ints`` overrides ``_from_ints`` and ``_like`` (copy that
    state), ``_key`` (what ``==`` and hashing compare) and ``_check`` (reject an
    operand that cannot be combined with this one).
    """

    __slots__ = ("ints",)

    SIZE = 0
    scalar = F3.coerce
    _coord = staticmethod(_raw_f3)  # one coordinate from its parts and d
    _ints_of = staticmethod(_vector_ints)  # the stored form of coerced coordinates

    def __init__(self, coeffs):
        coeffs = [self.scalar(c) for c in coeffs]
        if len(coeffs) != self.SIZE:
            raise ValueError(f"{type(self).__name__} needs {self.SIZE} coefficients")
        object.__setattr__(self, "ints", self._ints_of(coeffs))

    @classmethod
    def _from_ints(cls, ints):
        """The vector of a stored form, kept as given."""
        out = object.__new__(cls)
        object.__setattr__(out, "ints", ints)
        return out

    def _like(self, ints):
        return self._from_ints(ints)

    @property
    def coeffs(self):
        *parts, d = self.ints
        return tuple(self._coord(*p, d) for p in zip(*parts))

    def _key(self):
        return self.ints

    def _check(self, other) -> None:
        pass

    @classmethod
    def _require_kind(cls, *xs) -> None:
        for x in xs:
            if not isinstance(x, cls):
                raise TypeError(f"expected {cls.__name__}, got {type(x).__name__}")

    def _permuted(self, order, signs=None):
        """The vector whose coordinate k is signs[k] times coordinate order[k] of this
        one, for a permutation ``order``: the stored form stays gcd-reduced."""
        *parts, d = self.ints
        signs = signs or (1,) * len(order)
        return self._like((*(tuple(s * p[j] for j, s in zip(order, signs)) for p in parts), d))

    def __bool__(self):
        return any(map(any, self.ints[:-1]))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        (*p, du), (*q, dv) = self.ints, other.ints
        d = math.lcm(du, dv)
        mu, mv = d // du, d // dv
        return self._like(_canonical([[mu * x + mv * y for x, y in zip(a, b)]
                                      for a, b in zip(p, q)], d))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        *parts, d = self.ints
        return self._like((*(tuple(-x for x in p) for p in parts), d))

    def scale(self, c):
        [(ca, cb)], cd = _numerators([self.scalar(c)])
        na, nb, d = self.ints
        cb3 = 3 * cb
        return self._like(_canonical(([ca * a + cb3 * b for a, b in zip(na, nb)],
                                      [ca * b + cb * a for a, b in zip(na, nb)]), d * cd))


class Mat3(Vector):
    """Dense 3×3 matrix over C3, stored as four parts (ra, rb, ia, ib, d): entry k, row
    by row, is (ra[k] + rb[k]√3 + (ia[k] + ib[k]√3)i)/d."""

    __slots__ = ()

    SIZE = 9
    scalar = C3.coerce

    @staticmethod
    def _coord(ra, rb, ia, ib, d) -> C3:
        return C3(_raw_f3(ra, rb, d), _raw_f3(ia, ib, d))

    @staticmethod
    def _ints_of(coeffs):
        # the real and imaginary parts, as F3s over one denominator
        nums, d = _numerators([p for z in coeffs for p in (z.re, z.im)])
        return (*zip(*nums[0::2]), *zip(*nums[1::2]), d)

    def __init__(self, rows):
        rows = [tuple(r) for r in rows]
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("Mat3 requires a 3x3 array")
        super().__init__([x for r in rows for x in r])

    @classmethod
    def zero(cls) -> Mat3:
        return cls._from_ints(((0,) * 9,) * 4 + (1,))

    @classmethod
    def identity(cls) -> Mat3:
        return cls._from_ints(((1, 0, 0, 0, 1, 0, 0, 0, 1),) + ((0,) * 9,) * 3 + (1,))

    @classmethod
    def diag(cls, a, b, c) -> Mat3:
        return cls([[a, 0, 0], [0, b, 0], [0, 0, c]])

    @property
    def rows(self):
        c = self.coeffs
        return c[0:3], c[3:6], c[6:9]

    def __getitem__(self, ij):
        i, j = ij
        *parts, d = self.ints
        return self._coord(*(p[3 * i + j] for p in parts), d)

    def __repr__(self):
        return f"Mat3({[[str(x) for x in r] for r in self.rows]})"

    def __matmul__(self, other) -> Mat3:
        (a, da), (b, db) = _mat3_nums(self), _mat3_nums(other)
        cols = [b[j::3] for j in range(3)]
        return _mat3([_c3_dot(a[i:i + 3], col) for i in (0, 3, 6) for col in cols], da * db)

    def scale(self, c) -> Mat3:
        (ca,), (cb,), (ci,), (cj,), cd = self._ints_of([self.scalar(c)])
        nums, d = _mat3_nums(self)
        return _mat3([_c3_dot(((ca, cb, ci, cj),), (z,)) for z in nums], d * cd)

    def trace(self) -> C3:
        *parts, d = self.ints
        return self._coord(*(p[0] + p[4] + p[8] for p in parts), d)

    def dagger(self) -> Mat3:
        """Conjugate transpose: the η-adjoint ``eta_dagger`` at η = Id."""
        return eta_dagger(self, COMPACT)

    def det(self) -> C3:
        return self._coord(*_adjugate(self)[1])

    def inverse(self) -> Mat3:
        """The adjugate over the determinant D, on integer parts: 1/D = conj(D)(p - q√3)/N for
        |D|² = p + q√3, where N = p² - 3q² > 0 as both real embeddings of Q(√3) make |D|² > 0."""
        adj, (*det, _), d = _adjugate(self)
        if not any(det):
            raise ZeroDivisionError("singular Mat3")
        conj = (det[0], det[1], -det[2], -det[3])
        p, q, _, _ = _c3_dot((det,), (conj,))
        w = _c3_dot((conj,), ((d * p, -d * q, 0, 0),))  # adj/d² over D/d³ is adj·d/D
        return _mat3([_c3_dot((x,), (w,)) for x in adj], p * p - 3 * q * q)

    def to_json(self):
        return [[x.to_json() for x in r] for r in self.rows]


def _mat3_nums(m: Mat3):
    """The entries of m, row by row, as integer tuples (ra, rb, ia, ib) over its one
    denominator d, and d."""
    *parts, d = m.ints
    return list(zip(*parts)), d


def _adjugate(m: Mat3):
    """The adjugate of m over d² (row j: column j's cofactors), (*det m, d³), and d."""
    nums, d = _mat3_nums(m)
    r = [nums[0:3], nums[3:6], nums[6:9]]
    nxt = ((1, 2), (2, 0), (0, 1))  # the other two indices, in cyclic order
    adj = [_c3_dot((r[i1][j1], r[i1][j2]), (r[i2][j2], tuple(-x for x in r[i2][j1])))
           for j1, j2 in nxt for i1, i2 in nxt]
    return adj, (*_c3_dot(nums[0:3], adj[0::3]), d ** 3), d


def _mat3(nums, d) -> Mat3:
    """The Mat3 whose entries, row by row, are the integer tuples (ra, rb, ia, ib) of
    ``nums`` over d > 0."""
    return Mat3._from_ints(_canonical(list(zip(*nums)), d))


_ETA_SIGNS = {COMPACT: (1,) * 9, SPLIT: (1, -1, -1, -1, 1, 1, -1, 1, 1)}


def _eta_dagger_numerators(nums, flavor: Flavor):
    """η x† η for η = Id (compact) or diag(-1,1,1) (split), an involution, on the
    entries of x from ``_mat3_nums``: entry (i, j) is η_iη_j·conj(x_ji), so the split
    flavor negates the four entries that pair index 0 with index 1 or 2."""
    _check_flavor(flavor)
    transposed = (nums[3 * j + i] for i in range(3) for j in range(3))
    return [(s * ra, s * rb, -s * ia, -s * ib)
            for s, (ra, rb, ia, ib) in zip(_ETA_SIGNS[flavor], transposed)]


def eta_dagger(x: Mat3, flavor: Flavor) -> Mat3:
    """η x† η from ``_eta_dagger_numerators``: a signed permutation of the stored
    integers, which keeps them gcd-reduced."""
    nums, d = _mat3_nums(x)
    return x._like((*zip(*_eta_dagger_numerators(nums, flavor)), d))


def is_eta_hermitian(x: Mat3, flavor: Flavor) -> bool:
    """η x† η = x, compared on the stored integers of x."""
    nums, _ = _mat3_nums(x)
    return _eta_dagger_numerators(nums, flavor) == nums


class ExactMatrix(Frozen):
    """Matrix over F3 of arbitrary shape, stored only as the gcd-reduced sparse integer
    rows (na, nb, d), d > 0, that ``_gauss_jordan`` takes; F3 entries are built on demand."""

    __slots__ = ("rows", "cols", "ints")

    def __init__(self, entries):
        # each row over the lcm of its denominators, which leaves it gcd-reduced
        rows = [_numerators([F3.coerce(x) for x in r]) for r in entries]
        cols = len(rows[0][0]) if rows else 0
        if any(len(nums) != cols for nums, _ in rows):
            raise ValueError("ragged matrix")
        rows = [({j: a for j, (a, b) in enumerate(nums) if a or b},
                 {j: b for j, (a, b) in enumerate(nums) if a or b}, d) for nums, d in rows]
        for name, value in zip(self.__slots__, (len(rows), cols, tuple(rows))):
            object.__setattr__(self, name, value)

    @classmethod
    def _from_ints(cls, rows, cols):
        """The matrix of gcd-reduced sparse integer rows, stored as given."""
        out = object.__new__(cls)
        for name, value in zip(cls.__slots__, (len(rows), cols, tuple(rows))):
            object.__setattr__(out, name, value)
        return out

    @property
    def entries(self):
        return tuple(tuple(self[i, j] for j in range(self.cols)) for i in range(self.rows))

    def __getitem__(self, ij):
        i, j = ij
        na, nb, d = self.ints[i]
        return _raw_f3(na[j], nb[j], d) if j in na else _ZERO

    def _key(self):
        return self.cols, tuple((frozenset(na.items()), frozenset(nb.items()), d) for na, nb, d in self.ints)

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"

    def mul_vec(self, v):
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        na, nb, d = _mat_vec(self.ints, _vector_ints(v))
        return [_raw_f3(a, b, d) for a, b in zip(na, nb)]


def _mat_vec(rows, v):
    """Sparse integer rows (na, nb, d) times a stored form (na, nb, d): that form, gcd-reduced."""
    vna, vnb, dv = v
    den = math.lcm(*(d for _, _, d in rows))
    out_a, out_b = [], []
    for na, nb, d in rows:
        sa = sb = 0
        for j, x in na.items():
            sa += x * vna[j] + 3 * nb[j] * vnb[j]
            sb += x * vnb[j] + nb[j] * vna[j]
        out_a.append(den // d * sa)
        out_b.append(den // d * sb)
    return _canonical((out_a, out_b), den * dv)


def _reduced(na, nb, d):
    """A row (na, nb, d) with the gcd of all its integers divided out."""
    g = math.gcd(d, *na.values(), *nb.values())
    if g == 1:
        return na, nb, d
    return {j: x // g for j, x in na.items()}, {j: x // g for j, x in nb.items()}, d // g


def _cleared(row, pivots):
    """The one row reduction on sparse integer rows (na, nb, d), dicts from the column j
    of each nonzero entry (na[j] + nb[j]√3)/d, d > 0: ``row`` minus its entry in each key
    c of ``pivots`` times the row pivots[c], which is 1 in column c and 0 in every other
    key, so one pass over those rows clears them all.  The terms are summed over d·L, L
    the lcm of the denominators they need (the row is rescaled when L grows), with one
    gcd at the end; ``row`` itself is returned when it holds no key."""
    na, nb, d = row
    ra, big = None, 1
    for c, fa in na.items():
        p = pivots.get(c)
        if p is None:
            continue
        pa, pb, pd = p
        fb = nb[c]
        if ra is None:
            ra, rb = dict(na), dict(nb)
        q = pd // math.gcd(fa, fb, pd)  # (fa + fb√3)/d times pivots[c] is over d·q
        if big % q:
            s = q // math.gcd(big, q)
            ra, rb = {j: s * x for j, x in ra.items()}, {j: s * y for j, y in rb.items()}
            big *= s
        fa, fb = big * fa // pd, big * fb // pd  # column c cancels to zero
        fb3 = 3 * fb
        for j, xa in pa.items():
            xb = pb[j]
            ya = ra.get(j, 0) - fa * xa - fb3 * xb
            yb = rb.get(j, 0) - fa * xb - fb * xa
            if ya or yb:
                ra[j], rb[j] = ya, yb
            else:
                del ra[j], rb[j]
    return row if ra is None else _reduced(ra, rb, d * big)


def _normalized(row, col):
    """Row (na, nb, d) divided by its nonzero entry in column ``col``, gcd-reduced, and
    that entry (pa, pb, d): x/p = x(pa - pb√3)/(pa² - 3pb²), where the row's d cancels."""
    na, nb, d = row
    pa, pb = na[col], nb[col]
    n = pa * pa - 3 * pb * pb
    sa, sb = (pa, pb) if n > 0 else (-pa, -pb)
    return _reduced({j: x * sa - 3 * nb[j] * sb for j, x in na.items()},
                    {j: y * sa - na[j] * sb for j, y in nb.items()}, abs(n)), (pa, pb, d)


def _rational_cleared(row, pivots):
    """``_cleared`` on rational sparse rows (na, d), entry j being na[j]/d, d > 0."""
    na, d = row
    ra, big = None, 1
    for c, f in na.items():
        p = pivots.get(c)
        if p is None:
            continue
        pa, pd = p
        if ra is None:
            ra = dict(na)
        q = pd // math.gcd(f, pd)
        if big % q:
            s = q // math.gcd(big, q)
            ra = {j: s * x for j, x in ra.items()}
            big *= s
        f = big * f // pd
        for j, x in pa.items():
            y = ra.get(j, 0) - f * x
            if y:
                ra[j] = y
            else:
                del ra[j]
    if ra is None:
        return row
    d *= big
    g = math.gcd(d, *ra.values())
    return ({j: x // g for j, x in ra.items()}, d // g) if g > 1 else (ra, d)


def _rational_normalized(row, col):
    """``_normalized`` on a rational sparse row (na, d): x/p = x/pa, and a gcd with
    pa's sign leaves the denominator positive."""
    na, d = row
    pa = na[col]
    g = math.gcd(*na.values()) if pa > 0 else -math.gcd(*na.values())
    return ({j: x // g for j, x in na.items()}, pa // g), (pa, d)


def _height(row):
    """The largest magnitude of a nonzero sparse integer row's numerators, either form."""
    h = max(map(abs, row[0].values()))
    return h if len(row) == 2 else max(h, *map(abs, row[1].values()))


def _weight(row):
    """Σ|na| + 3Σ|nb| of a sparse integer row, Σ|na| of a rational row (na, d): the most
    its entries multiply a packed entry by in ``_PackedSpan.holds``."""
    w = sum(map(abs, row[0].values()))
    return w if len(row) == 2 else w + 3 * sum(map(abs, row[1].values()))


_SLACK = 16  # spare bits of W, so that D, the pivot rows and the rows can grow before a repack


class _PackedSpan:
    """An exact test of whether a sparse integer row lies in the span of fully reduced
    pivot rows ``pivots`` {c: row} (1 at c, 0 at every other key), all of the row's form,
    that reduces no row: the rows' transpose packed into one integer per column
    (Kronecker substitution), read with one integer multiply-add per entry of the row.

    Each column that is no key and that a packed integer holds owns a slot f of W bits,
    at bit f·W; a slot is taken when such a column is first packed and handed on when
    its column becomes a key.  For a key c, G_c packs −(D/pd)·P_c off column c (pd the
    row's denominator) into the slots of its columns; for any other column j, G_j is D
    at the slot of j, made when first read; D is a multiple of every pd.  Over Q(√3)
    each G_j is a pair (Ga, Gb), Gb 0 off the keys.  Σ r_j·G_j is then Σ_f s_f·2^(fW),
    s_f D times entry j of r cleared by the rows at the column j of slot f, what
    ``_cleared`` leaves there; the keys, where the cleared row is zero, own no slot.  A
    nonzero sum has a nonzero s_f.  A zero sum has none when every |s_f| < 2^W, for the
    lowest nonzero s_f would be a multiple of 2^W: the sum of a row r is certain when
    ``_weight(r)``·T < 2^W, T ≥ D and every packed entry, for then each |s_f| < 2^W.
    Over Q(√3) the two sums are Σ(ra·Ga + 3rb·Gb) and Σ(ra·Gb + rb·Ga).

    ``pivots`` is read, not copied, and must not be empty: the caller adds to ``dirty``
    each key whose row it sets, and those rows are repacked before the next test; a row
    whose denominator does not divide D widens D in place, every G_j times the same
    factor.  A zero sum that is not certain repacks everything with a wider W."""

    __slots__ = ("pivots", "dirty", "den", "width", "height", "slots", "spare", "packed")

    def __init__(self, pivots, weight):
        self.pivots, self.dirty, self.den = pivots, set(), 1
        self._repack(weight)

    def _repack(self, weight):
        """Every row packed anew at W = bitlen(weight·T) + ``_SLACK``."""
        rows = self.pivots.values()
        self.den = math.lcm(self.den, *(row[-1] for row in rows))
        self.height = max(self.den // row[-1] * _height(row) for row in rows)
        self.width = (weight * self.height).bit_length() + _SLACK
        cols = dict.fromkeys(itertools.chain.from_iterable(row[0] for row in rows))
        for c in self.pivots:  # a key owns no slot
            cols.pop(c, None)
        self.slots, self.spare = dict(zip(cols, itertools.count())), []
        self.packed = tuple({} for _ in next(iter(rows))[:-1])
        self.dirty.clear()
        for c, row in self.pivots.items():
            self._pack(c, row)

    def _take(self, j):
        """A slot for column j, which has none: a spare one, else a new one."""
        f = self.slots[j] = self.spare.pop() if self.spare else len(self.slots) + len(self.spare)
        return f

    def _pack(self, c, row):
        """G_c from ``row``, D first widened to a multiple of its denominator."""
        pd = row[-1]
        if self.den % pd:
            m = pd // math.gcd(self.den, pd)
            for g in self.packed:
                for j in g:
                    g[j] *= m
            self.den *= m
            self.height *= m
        s = self.den // pd
        self.height = max(self.height, s * _height(row))
        if c in self.slots:  # a key owns no slot
            self.spare.append(self.slots.pop(c))
        slots, w = self.slots, self.width
        for part, g in zip(row[:-1], self.packed):
            packed = 0
            for j, x in part.items():
                if j != c:
                    f = slots.get(j)
                    packed -= x << (self._take(j) if f is None else f) * w
            g[c] = s * packed

    def _free(self, j):
        """Packs column j, no key: D at its slot, and no √3 part; returns G_j."""
        f = self.slots.get(j)
        g = self.packed[0][j] = self.den << (self._take(j) if f is None else f) * self.width
        if len(self.packed) == 2:
            self.packed[1][j] = 0
        return g

    def holds(self, row) -> bool:
        """``row`` lies in the span of the pivot rows."""
        if self.dirty:
            for c in self.dirty:
                self._pack(c, self.pivots[c])
            self.dirty.clear()
        if len(row) == 2:
            g, s = self.packed[0], 0
            for j, x in row[0].items():
                try:
                    s += x * g[j]
                except KeyError:
                    s += x * self._free(j)
            if s:
                return False
        else:
            (ga, gb), (na, nb, _) = self.packed, row
            sa = sb = 0
            for j, x in na.items():
                try:
                    a, b = ga[j], gb[j]
                except KeyError:
                    a, b = self._free(j), 0
                y = nb[j]
                sa += x * a + 3 * y * b
                sb += x * b + y * a
            if sa or sb:
                return False
        weight = _weight(row)
        if weight * self.height < 1 << self.width:
            return True
        self._repack(weight)
        return self.holds(row)


def _settle(runs, clear):
    """The pivot rows of ``runs`` fully reduced, {c: row} in insertion order.  Each run,
    newest first, is cleared in one pass by the settled rows of all later runs, which are
    0 at every other pivot column (this run's too), so the pass leaves each of its rows 0
    at every pivot column but its own."""
    settled = {}
    for run in reversed(runs):
        for c, row in run.items():
            if not settled.keys().isdisjoint(row[0]):
                run[c] = clear(row, settled)
        settled.update(run)
    return {c: row for run in runs for c, row in run.items()}


def _gauss_jordan(rows):
    """Gauss–Jordan elimination by row insertion on sparse integer rows, through the
    row operations of their form: ``_cleared`` and ``_normalized`` on rows (na, nb, d)
    over Q(√3), their rational twins on rows (na, d) over Q.  Each row, in input order,
    is cleared by the pivot rows found so far; a row left nonzero is divided by its
    first entry, its divisor, and becomes a pivot row.  An empty row is skipped.

    The pivot rows are kept only in runs: stretches, in insertion order, of pivot rows
    none of which holds another's column.  Until a row clears to zero, a new pivot row
    joins the last run when no row of that run holds its column, and opens a new run
    otherwise.  The invariant is that a pivot row is zero at the columns of every
    earlier run, so a row is cleared run by run, oldest first, in one pass per run it
    holds a column of, and a run adds fill only in the columns of later runs.  At the
    first row that clears to zero, when a row follows it, ``_settle`` makes the runs one
    run of fully reduced pivot rows (pivot entry 1, and 0 in every other pivot column),
    else they settle at the end.  After it each row is first asked ``_PackedSpan.holds``
    on that run, and a row in its span, which would clear to zero, takes no pass; a new
    pivot column is cleared from the run's rows that hold it.  A full-rank matrix
    settles once, at the end, and never packs.  The input rows are unchanged.

    Returns the reduced rows in the input's form (gcd-reduced), ordered by pivot column
    and followed by zero rows, the pivot columns, the divisors in insertion order and
    the sign of the insertion order of the pivot columns, which flips at each new pivot
    column with an odd number of earlier ones to its right.  RREF is unique, so the rows
    and pivots are those of clearing column by column; the cleared row of each insertion
    is unique too (zero at every pivot column, in the row plus the pivot rows' span), so
    the runs move no divisor and no sign.  For a square matrix of full rank the
    divisors' product times the sign is the determinant."""
    if rows and len(rows[0]) == 2:
        clear, normal, zero = _rational_cleared, _rational_normalized, ({}, 1)
    else:
        clear, normal, zero = _cleared, _normalized, ({}, {}, 1)
    runs, cols, divisors, sign, span = [{}], [], [], 1, None
    for i, row in enumerate(rows):
        if not row[0] or span is not None and span.holds(row):
            continue
        for run in runs:  # oldest first: a run's rows are zero at every earlier run's columns
            if not run.keys().isdisjoint(row[0]):
                row = clear(row, run)
        if not row[0]:
            if i + 1 < len(rows):
                runs = [_settle(runs, clear)]
                span = _PackedSpan(runs[0], _weight(rows[i]))
            continue
        col = min(row[0])
        row, divisor = normal(row, col)
        k = bisect.bisect(cols, col)
        if (len(cols) - k) % 2:  # an odd number of inversions of the pivot columns
            sign = -sign
        cols.insert(k, col)
        run = runs[-1]
        if span is not None:  # the one settled run: clear col from its rows that hold it
            for c, prow in run.items():
                if col in prow[0]:
                    run[c] = clear(prow, {col: row})
                    span.dirty.add(c)
            span.dirty.add(col)
        elif any(col in prow[0] for prow in run.values()):  # no row of a run holds another's column
            run = {}
            runs.append(run)
        run[col] = row
        divisors.append(divisor)
    pivots = _settle(runs, clear) if span is None else runs[0]
    return [pivots[c] for c in cols] + [zero] * (len(rows) - len(cols)), cols, divisors, sign


def rref(m: ExactMatrix):
    """Reduced row echelon form over Q(√3) by row insertion; returns (rref, pivot columns)."""
    rows, pivots, _, _ = _gauss_jordan(m.ints)
    return ExactMatrix._from_ints(rows, m.cols), pivots


def rank(m: ExactMatrix) -> int:
    return len(rref(m)[1])


def _kernel_columns(rows, pivots, ncols):
    """For each free column fc of reduced integer rows with these pivots, fc and the
    other nonzero entries of its kernel vector as {pivot column: entry} in the rows'
    form, (a, b, d) for (a + b√3)/d or (a, d) for a/d; entry fc is 1."""
    for fc in sorted(set(range(ncols)) - set(pivots)):
        yield fc, {pcol: (*(-x[fc] for x in row[:-1]), row[-1])
                   for row, pcol in zip(rows, pivots) if fc in row[0]}


def _kernel(rows, pivots, ncols):
    """Kernel basis of reduced integer rows with these pivots, one vector per free column."""
    basis = []
    for fc, entries in _kernel_columns(rows, pivots, ncols):
        v = [_ZERO] * ncols
        v[fc] = _ONE
        for pcol, x in entries.items():
            v[pcol] = _raw_f3(*x)
        basis.append(v)
    return basis


def nullspace(m: ExactMatrix):
    """Exact basis of {v : m·v = 0}; one vector per free column."""
    red, pivots = rref(m)
    return _kernel(red.ints, pivots, m.cols)


def determinant(m: ExactMatrix) -> F3:
    """Exact determinant over F3 from one elimination by row insertion: the product of
    the divisors times the sign of the rows' pivot columns, or 0 below full rank."""
    if m.rows != m.cols:
        raise ValueError("determinant of non-square matrix")
    _, pivots, divisors, sign = _gauss_jordan(m.ints)
    return math.prod((_raw_f3(*p) for p in divisors), start=F3(sign)) if len(pivots) == m.rows else F3()


def symmetric_signature(m: ExactMatrix):
    """Signature (pos, neg, zero) of a symmetric F3 matrix, by Schur complements on m's
    integer rows through the row operations of their form: ``_normalized`` and
    ``_cleared`` over Q(√3), or their rational twins on rows (na, d) when every √3
    part is 0.  Each step clears its columns from the rows in ``left``, which then hold
    only the columns in ``left`` (the complement, whose signature adds to the step's,
    Haynsworth).  A step is a nonzero diagonal entry, one square of its sign, or, with
    every diagonal entry left zero, a block [[0, b], [b, 0]], one positive and one
    negative square.  Valid because the real embedding of Q(√3) orders the field."""
    if m.rows != m.cols:
        raise ValueError("signature of non-square matrix")
    # a[i][j] = a[j][i] on the stored integers, cross-multiplied by the row denominators
    for i, (na, nb, d) in enumerate(m.ints):
        for j, x in na.items():
            ta, tb, dt = m.ints[j]
            if x * dt != ta.get(i, 0) * d or nb[j] * dt != tb.get(i, 0) * d:
                raise ValueError("signature of non-symmetric matrix")
    if any(any(nb.values()) for _, nb, _ in m.ints):
        a, clear, normal = list(m.ints), _cleared, _normalized
    else:
        a, clear, normal = [(na, d) for na, _, d in m.ints], _rational_cleared, _rational_normalized
    left, pos, neg = list(range(m.rows)), 0, 0
    while any(a[i][0] for i in left):
        k = next((k for k in left if k in a[k][0]), None)
        if k is not None:
            left.remove(k)
            row, p = normal(a[k], k)
            pivots = {k: row}
            # the pivot's sign: a rational (pa, d) has d > 0
            if (p[0] > 0 if len(p) == 2 else _raw_f3(*p).is_positive()):
                pos += 1
            else:
                neg += 1
        else:  # every diagonal entry left is zero: a block [[0, b], [b, 0]], b = a[i][j]
            i = next(i for i in left if a[i][0])
            j = min(a[i][0])
            left = [r for r in left if r not in (i, j)]
            # row i over b holds no i, and row j over b no j: one pass clears both
            pivots = {j: normal(a[i], j)[0], i: normal(a[j], i)[0]}
            pos, neg = pos + 1, neg + 1
        for r in left:
            a[r] = clear(a[r], pivots)
    return pos, neg, len(left)
