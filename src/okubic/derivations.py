"""Derivation Lie algebras of algebras given by structure constants,
computed exactly as the nullspace of the Leibniz system.

For an algebra with product b_i*b_j = Σ_k c[i][j][k] b_k, a matrix D is a
derivation iff for every basis pair

    Σ_m c[i][j][m] D[k][m] = Σ_r c[r][j][k] D[r][i] + Σ_r c[i][r][k] D[r][j]

for all k, solved over Q in a table's ``_q_form`` when it has one.  Both Okubo
flavors and the Petersson twist of the split octonions have an 8-dimensional
derivation algebra; the compact flavor has a negative-definite trace form.
"""

from __future__ import annotations

import math

from .field import F3, _raw_f3
from .hurwitz import petersson_structure_constants
from .linalg import (
    COMPACT,
    ExactMatrix,
    SparseTable,
    _cleared,
    _gauss_jordan,
    _kernel_columns,
    _reduced,
    _vector_ints,
    bilinear,
    rref,
    symmetric_signature,
)
from .okubo import (
    OkuboElement,
    _dense,
    fix_tau,
    structure_constants,
    structure_constants_dense,
)


class AlgebraPresentation(SparseTable):
    """A finite-dimensional algebra given by an n×n×n structure-constant tensor over
    F3, stored as the ``SparseTable`` of its nonzero constants and nothing else."""

    __slots__ = ()

    def __init__(self, constants):
        constants = [[[F3.coerce(x) for x in row] for row in plane] for plane in constants]
        n = len(constants)
        if any(
            len(plane) != n or any(len(row) != n for row in plane)
            for plane in constants
        ):
            raise ValueError("structure tensor must be n×n×n")
        super().__init__([[list(enumerate(row)) for row in plane] for plane in constants])

    @property
    def dimension(self) -> int:
        return len(self.ints)

    @property
    def constants(self):
        """The dense tensor of F3 values, built from the table on each call."""
        return _dense(self)

    def __repr__(self):
        return f"AlgebraPresentation(dim={self.dimension})"

    def mul_coords(self, u, v):
        """Bilinear product of coordinate vectors (F3s, Fractions or ints), as F3s."""
        na, nb, d = bilinear(self, _vector_ints(u), _vector_ints(v))
        return [_raw_f3(a, b, d) for a, b in zip(na, nb)]


def okubo_presentation(flavor: str = COMPACT) -> AlgebraPresentation:
    return AlgebraPresentation(structure_constants_dense(flavor))


def petersson_presentation() -> AlgebraPresentation:
    return AlgebraPresentation(petersson_structure_constants())


def _add_entry(na, nb, j, xa, xb):
    """Add (xa + xb√3)/d to entry j of a sparse row (na, nb, d), dropping it at zero."""
    na[j], nb[j] = na.get(j, 0) + xa, nb.get(j, 0) + xb
    if not (na[j] or nb[j]):
        del na[j], nb[j]


def _common_denominator(rows):
    """Sparse integer rows (na, nb, d) as pairs (na, nb) over the lcm of their d, and that lcm."""
    big = math.lcm(*(d for _, _, d in rows))
    return [({j: x * (big // d) for j, x in na.items()}, {j: y * (big // d) for j, y in nb.items()})
            for na, nb, d in rows], big


def _q_form(table: SparseTable):
    """The table over Q in the basis b'_i = √3^p_i·b_i, or None when it has none: (p, ints')
    for parities p_i in {0, 1} with p_i + p_j + p_k odd exactly when the constant of cell
    (i, j) at output k is a rational multiple of √3, and ints' shaped like ``table.ints``,
    each c·√3^(p_i + p_j - p_k) as (k, A', 0) over ``table.den``: A or B, times 3 when that
    power is positive.  A form's output (``size`` is not the row count) has p_k = 0.  p is
    solved over GF(2) on bit masks, free p_i set to 0; there is none when a constant has
    both parts nonzero or the parities contradict each other."""
    ints, eqs = table.ints, {}  # leading bit -> (mask, parity) of one reduced equation
    product = int(table.size == len(ints))  # the outputs are basis vectors
    for i, row in enumerate(ints):
        for j, cell in enumerate(row):
            for k, a, b in cell:
                if a and b:
                    return None
                mask, odd = 1 << i ^ 1 << j ^ product << k, int(bool(b))
                while mask and mask.bit_length() - 1 in eqs:
                    m, o = eqs[mask.bit_length() - 1]
                    mask, odd = mask ^ m, odd ^ o
                if mask:
                    eqs[mask.bit_length() - 1] = mask, odd
                elif odd:
                    return None
    p = 0
    for top in sorted(eqs):  # the lower bits of each equation are already set
        mask, odd = eqs[top]
        p |= (odd ^ (mask & p).bit_count() & 1) << top
    p = [p >> i & 1 for i in range(len(ints))]
    return p, [[[(k, (a or b) * (3 if p[i] + p[j] > product * p[k] else 1), 0) for k, a, b in cell]
                for j, cell in enumerate(row)] for i, row in enumerate(ints)]


def derivation_space(table: SparseTable):
    """(dimension, basis of n×n derivation matrices) of the algebra of any n×n
    structure-constant table (an ``AlgebraPresentation`` is one; a form raises ValueError).

    Unknown D[r][s] sits at flat index r*n + s; equation (i, j, k) is one sparse
    integer row read from the table's ``ints`` over its ``den``; the shortest go
    first.  When the table has a ``_q_form``, its rows are rational rows (na, d) read
    from ints', and D[r][s] is read back as √3^(p_r - p_s)·D'[r][s]; otherwise they are
    rows (na, nb, d) over Q(√3).  Each basis matrix is built from the reduced integer
    rows, with no F3 value.
    """
    if table.size != len(table.ints):
        raise ValueError("not a product table: its outputs are not its basis vectors")
    p, ints = _q_form(table) or (None, table.ints)
    n, den = len(ints), table.den
    rows = []
    for i in range(n):
        for j in range(n):
            # (equation k, unknown, A, B) for each term c = (A + B√3)/den
            terms = [(k, k * n + m, a, b) for k in range(n) for m, a, b in ints[i][j]]
            terms += [(k, r * n + i, -a, -b) for r in range(n) for k, a, b in ints[r][j]]
            terms += [(k, r * n + j, -a, -b) for r in range(n) for k, a, b in ints[i][r]]
            if p is None:
                eqs = [({}, {}, den) for _ in range(n)]
                for k, col, a, b in terms:
                    _add_entry(eqs[k][0], eqs[k][1], col, a, b)
            else:
                eqs = [({}, den) for _ in range(n)]
                for k, col, a, _ in terms:
                    na = eqs[k][0]
                    na[col] = na.get(col, 0) + a
                    if not na[col]:
                        del na[col]
            rows += eqs
    reduced, pivots, _, _ = _gauss_jordan(sorted(rows, key=lambda row: len(row[0])))
    basis, lift = [], p and [p[c // n] - p[c % n] for c in range(n * n)]
    for fc, entries in _kernel_columns(reduced, pivots, n * n):
        # the kernel vector, entry 1 at fc, over one denominator, cut into the n rows of D
        if p is None:
            entries[fc] = (1, 0, 1)
        else:
            # D[c] = √3^(lift c - lift fc)·D'[c], entry 1 at fc, is √3^t·D'[c] over 3 for
            # t = lift c - lift fc + 2 in 0..4: 3^(t//2)·D'[c], times √3 when t is odd
            entries[fc] = (1, 1)
            for c, (a, d) in entries.items():
                t = lift[c] - lift[fc] + 2
                x = a * 3 ** (t // 2)
                entries[c] = (0, x, 3 * d) if t % 2 else (x, 0, 3 * d)
        big, mrows = math.lcm(*(d for _, _, d in entries.values())), [({}, {}) for _ in range(n)]
        for c, (a, b, d) in sorted(entries.items()):
            na, nb = mrows[c // n]
            na[c % n], nb[c % n] = a * (big // d), b * (big // d)
        basis.append(ExactMatrix._from_ints([_reduced(na, nb, big) for na, nb in mrows], n))
    return len(basis), basis


def _bracket(a, b):
    """ab - ba as pairs (na, nb) over Da·Db, from a and b read as pairs over
    their one denominators Da and Db by ``_common_denominator``."""
    (ra, da), (rb, db) = a, b
    rows = [({}, {}) for _ in ra]
    for x, y, sign in ((ra, rb, 1), (rb, ra, -1)):
        for (na, nb), (xa, xb) in zip(rows, x):
            for k, u in xa.items():
                (ya, yb), u, v = y[k], sign * u, sign * xb[k]
                for j, s in ya.items():
                    _add_entry(na, nb, j, u * s + 3 * v * yb[j], u * yb[j] + v * s)
    return rows, da * db


def _flat(rows, d, cols):
    """Pairs (na, nb) over d, row by row, as one gcd-reduced sparse integer row."""
    flat = [(i * cols + j, x, nb[j]) for i, (na, nb) in enumerate(rows) for j, x in na.items()]
    return _reduced({c: x for c, x, _ in flat}, {c: y for c, _, y in flat}, d)


def _flatten(m: ExactMatrix):
    """m row by row as one gcd-reduced sparse integer row (na, nb, d)."""
    return _flat(*_common_denominator(m.ints), m.cols)


def check_lie_closure(basis) -> bool:
    """[D_i, D_j] lies in the span of the basis: the flattened basis is reduced by one
    ``rref``, and each commutator is cleared against its pivot rows by ``_cleared``,
    up to the first one left nonzero; each D_i is read over its one denominator once."""
    if not basis:
        return True
    cols = basis[0].cols
    common = [_common_denominator(m.ints) for m in basis]
    rows, ncols = [_flat(*x, cols) for x in common], basis[0].rows * cols
    reduced, pivots = rref(ExactMatrix._from_ints(rows, ncols))
    span = dict(zip(pivots, reduced.ints))
    return not any(_cleared(_flat(*_bracket(x, y), cols), span)[0]
                   for i, x in enumerate(common) for y in common[i + 1:])


def killing_matrix(basis) -> ExactMatrix:
    """Trace form K[i][j] = Tr(D_i D_j) = Σ D_i[r, k]·D_j[k, r] on the derivation
    basis, summed on the flattened integer rows over one denominator D, as K·D²;
    K is symmetric, so each K[i][j] with j ≥ i is summed once and mirrored."""
    n, (flat, big) = basis[0].cols, _common_denominator([_flatten(m) for m in basis])
    rows = [({}, {}) for _ in flat]
    for i, (xa, xb) in enumerate(flat):
        for j in range(i, len(flat)):
            (ya, yb), ka, kb = flat[j], 0, 0
            for c, u in xa.items():
                t = c % n * n + c // n  # entry r·n + k of D_i meets entry k·n + r of D_j
                if t in ya:
                    ka, kb = ka + u * ya[t] + 3 * xb[c] * yb[t], kb + u * yb[t] + xb[c] * ya[t]
            if ka or kb:
                rows[i][0][j], rows[i][1][j] = rows[j][0][i], rows[j][1][i] = ka, kb
    return ExactMatrix._from_ints([_reduced(na, nb, big * big) for na, nb in rows], len(basis))


def killing_signature(basis):
    """(pos, neg, zero) of the trace form; compact type ⟺ (0, dim, 0)."""
    if not basis:
        return (0, 0, 0)
    return symmetric_signature(killing_matrix(basis))


# indices of the trivolution-fixed part (e, i3, i6, i7) and its complement
G0_INDICES = (0, 3, 6, 7)
G1_INDICES = (1, 2, 4, 5)


def check_tau_grading(flavor: str = COMPACT) -> bool:
    """The trivolution splits the algebra into a Z₂-grading.

    g₀ (fixed part) and g₁ each have dimension 4, and products respect
    g₀*g₀ ⊆ g₀, g₀*g₁ ⊆ g₁, g₁*g₀ ⊆ g₁, g₁*g₁ ⊆ g₀ on all basis pairs: each output
    index of the structure-constant cell (i, j) lies in the grade of i + j.
    """
    basis = [OkuboElement.basis(i, flavor) for i in range(8)]
    for i in range(8):
        fixed, moving = fix_tau(basis[i])
        if i in G0_INDICES:
            if moving or fixed != basis[i]:
                return False
        else:
            if fixed or moving != basis[i]:
                return False
    grade = [int(i in G1_INDICES) for i in range(8)]
    return all(grade[k] == grade[i] ^ grade[j]
               for i, row in enumerate(structure_constants(flavor).ints)
               for j, cell in enumerate(row) for k, _, _ in cell)


def derivation_report(table: SparseTable) -> dict:
    """JSON-ready report: dimension, Lie closure, trace-form signature."""
    dim, basis = derivation_space(table)
    pos, neg, zero = killing_signature(basis)
    return {
        "dimension": dim,
        "lie_closed": check_lie_closure(basis),
        "killing_signature": {"pos": pos, "neg": neg, "zero": zero},
    }
