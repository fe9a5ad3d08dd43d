"""Derivation Lie algebras of algebras given by structure constants,
computed exactly as the nullspace of the Leibniz system.

For an algebra with product b_i*b_j = Σ_k c[i][j][k] b_k, a matrix D is a
derivation iff for every basis pair

    Σ_m c[i][j][m] D[k][m] = Σ_r c[r][j][k] D[r][i] + Σ_r c[i][r][k] D[r][j]

for all k, solved over Q in a table's ``_q_form`` when it has one.  The report's
Lie closure and trace form read that rational kernel D′ directly; only
``derivation_space`` reads the basis D back over Q(√3).  Both Okubo flavors and
the Petersson twist of the split octonions have an 8-dimensional derivation
algebra; the compact flavor has a negative-definite trace form.
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
    _rational_cleared,
    _reduced,
    _vector_ints,
    bilinear,
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


def _derivation_kernel(table: SparseTable):
    """The Leibniz system of any n×n structure-constant table (an ``AlgebraPresentation``
    is one; a form raises ValueError), written once and eliminated once: (p, n, kernel),
    p the table's ``_q_form`` parities or None, kernel the pivot span {fc: row}, fc free.

    Unknown D[r][s] sits at flat index r*n + s; equation (i, j, k) is one sparse
    integer row over the table's ``den``, summed in order from three reads of its
    ``ints`` built once per table: the cell (i, j), each (m, c) added at column
    k·n + m; the cells (r, j) of column j with output k, as (r·n, −c) added at
    r·n + i; and the cells (i, r) of row i with output k, as (r·n, −c) added at
    r·n + j, both in order of r.  An entry summed to 0 is dropped.  The rows are
    written in order (i, j, k) and handed to the elimination shortest first, in a
    stable sort.  When the table has a ``_q_form``, c is the integer A of ints' and
    the rows are rational rows (na, d); otherwise c is A + B√3, summed as an F3 over
    1 and read back into rows (na, nb, d) over Q(√3).  Each kernel row is a flat row
    of that form over one denominator, 1 at fc and 0 at the other free columns: a
    derivation D′ of the table in the Q-basis √3^p_i·b_i, or D itself when p is None.
    """
    if table.size != len(table.ints):
        raise ValueError("not a product table: its outputs are not its basis vectors")
    p, ints = _q_form(table) or (None, table.ints)
    n, den = len(ints), table.den
    cells = [[[(m, _raw_f3(a, b, 1) if p is None else a) for m, a, b in cell] for cell in row]
             for row in ints]
    cols = [[[] for _ in range(n)] for _ in range(n)]  # cols[j][k]: column j at output k
    lines = [[[] for _ in range(n)] for _ in range(n)]  # lines[i][k]: row i at output k
    for r, row in enumerate(cells):
        for j, cell in enumerate(row):
            for k, c in cell:
                cols[j][k].append((r * n, -c))
                lines[r][k].append((j * n, -c))
    rows = []
    for i, row in enumerate(cells):
        for j, cell in enumerate(row):
            for k in range(n):
                # the same sum for each read, written out: a loop over (read, offset)
                # pairs made the writer about a fifth slower
                na, kn = {}, k * n
                for t, x in cell:
                    t += kn
                    x += na.get(t, 0)
                    if x:
                        na[t] = x
                    else:
                        del na[t]
                for t, x in cols[j][k]:
                    t += i
                    x += na.get(t, 0)
                    if x:
                        na[t] = x
                    else:
                        del na[t]
                for t, x in lines[i][k]:
                    t += j
                    x += na.get(t, 0)
                    if x:
                        na[t] = x
                    else:
                        del na[t]
                rows.append((na, den))
    if p is None:
        rows = [({t: x._an for t, x in na.items()}, {t: x._bn for t, x in na.items()}, den)
                for na, _ in rows]
    reduced, pivots, _, _ = _gauss_jordan(sorted(rows, key=lambda row: len(row[0])))
    kernel, one = {}, (1, 0, 1) if p is None else (1, 1)
    for fc, entries in _kernel_columns(reduced, pivots, n * n):
        entries[fc] = one
        big, entries = math.lcm(*(x[-1] for x in entries.values())), sorted(entries.items())
        kernel[fc] = (*({c: x[part] * (big // x[-1]) for c, x in entries}
                        for part in range(len(one) - 1)), big)
    return p, n, kernel


def _rows_of(row, n):
    """A flat row of an n×n matrix, entry (r, s) at column r*n + s, as its n matrix rows
    over the row's one denominator d: (rows, d), row r one dict {s: numerator} per part of
    the flat row, (na,) over Q or (na, nb) over Q(√3)."""
    *parts, d = row
    rows = [tuple({} for _ in parts) for _ in range(n)]
    for part, xs in enumerate(parts):
        for c, x in xs.items():
            rows[c // n][part][c % n] = x
    return rows, d


def derivation_space(table: SparseTable):
    """(dimension, basis of n×n derivation matrices) of the algebra of any n×n
    structure-constant table, read back from ``_derivation_kernel``: over the Q-form,
    D[r][s] is √3^(p_r - p_s)·D'[r][s], scaled so that D is 1 at the free column too.
    Each basis matrix is built from the kernel's integer rows, with no F3 value."""
    p, n, kernel = _derivation_kernel(table)
    basis, lift = [], p and [p[c // n] - p[c % n] for c in range(n * n)]
    for fc, row in kernel.items():
        if p is not None:
            # D[c] = √3^(lift c - lift fc)·D'[c] is √3^t·D'[c] over 3 for
            # t = lift c - lift fc + 2 in 0..4: 3^(t//2)·D'[c], times √3 when t is odd
            (na, d), row = row, ({}, {}, 3 * row[1])
            for c, a in na.items():
                t = lift[c] - lift[fc] + 2
                x = a * 3 ** (t // 2)
                row[0][c], row[1][c] = (0, x) if t % 2 else (x, 0)
        mrows, d = _rows_of(row, n)
        basis.append(ExactMatrix._from_ints([_reduced(na, nb, d) for na, nb in mrows], n))
    return len(basis), basis


def _bracket(a, b):
    """ab - ba of n×n matrices over Q(√3), given as ``_rows_of`` rows (na, nb) over their
    one denominators Da and Db, as one flat row (na, nb, Da·Db), entry (r, s) at r*n + s."""
    (ra, da), (rb, db) = a, b
    n, na, nb = len(ra), {}, {}
    for x, y, sign in ((ra, rb, 1), (rb, ra, -1)):
        for r, (xa, xb) in enumerate(x):
            for k, u in xa.items():
                (ya, yb), u, v = y[k], sign * u, sign * xb[k]
                for j, s in ya.items():
                    _add_entry(na, nb, r * n + j, u * s + 3 * v * yb[j], u * yb[j] + v * s)
    return na, nb, da * db


def _rational_bracket(a, b):
    """``_bracket`` on matrices over Q, rows (na,) over one denominator: a flat row (na, Da·Db)."""
    (ra, da), (rb, db) = a, b
    n, na = len(ra), {}
    for x, y, sign in ((ra, rb, 1), (rb, ra, -1)):
        for r, (xa,) in enumerate(x):
            for k, u in xa.items():
                u *= sign
                for j, s in y[k][0].items():
                    c = r * n + j
                    na[c] = na.get(c, 0) + u * s
                    if not na[c]:
                        del na[c]
    return na, da * db


def _lie_closed(span, n):
    """[D_i, D_j] lies in the span of flat rows of n×n matrices, all of one form, given as
    a pivot span {c: row}, row 1 at c and 0 at every other key: each commutator, by
    ``_bracket`` over Q(√3) or ``_rational_bracket`` over Q, is cleared against the span by
    that form's ``_cleared``, up to the first one left nonzero; an empty span is closed."""
    if not span:
        return True
    mats = [_rows_of(row, n) for row in span.values()]
    rational = len(next(iter(span.values()))) == 2
    bracket, clear = (_rational_bracket, _rational_cleared) if rational else (_bracket, _cleared)
    return not any(clear(bracket(x, y), span)[0] for i, x in enumerate(mats) for y in mats[i + 1:])


def _trace_rows(rows, n):
    """Tr(D_i D_j) = Σ D_i[r, k]·D_j[k, r] on the numerators of flat rows of n×n matrices,
    all of one form, as sparse integer rows (na, nb): the trace form times d_i·d_j, with
    nb 0 on rows over Q.  Each K[i][j] with j ≥ i is summed once and mirrored."""
    # entry k·n + r of D_j, read at r·n + k: the transposes, once
    tr = [tuple({c % n * n + c // n: x for c, x in xs.items()} for xs in row[:-1]) for row in rows]
    out = [({}, {}) for _ in rows]
    for i, row in enumerate(rows):
        for j in range(i, len(rows)):
            if len(row) == 2:
                ya, = tr[j]
                ka, kb = sum(u * ya[c] for c, u in row[0].items() if c in ya), 0
            else:
                (xa, xb, _), (ya, yb), ka, kb = row, tr[j], 0, 0
                for c, u in xa.items():
                    if c in ya:
                        v = xb[c]
                        ka, kb = ka + u * ya[c] + 3 * v * yb[c], kb + u * yb[c] + v * ya[c]
            if ka or kb:
                out[i][0][j], out[i][1][j] = out[j][0][i], out[j][1][i] = ka, kb
    return out


def _flat(m: ExactMatrix):
    """A matrix as one gcd-reduced sparse integer row (na, nb, d), entry (r, s) at r*cols + s."""
    rows, d = _common_denominator(m.ints)
    flat = [(i * m.cols + j, x, nb[j]) for i, (na, nb) in enumerate(rows) for j, x in na.items()]
    return _reduced({c: x for c, x, _ in flat}, {c: y for c, _, y in flat}, d)


def check_lie_closure(basis) -> bool:
    """[D_i, D_j] lies in the span of the basis, by ``_lie_closed`` on its flattened pivot span."""
    reduced, pivots, _, _ = _gauss_jordan([_flat(m) for m in basis])
    return _lie_closed(dict(zip(pivots, reduced)), basis[0].cols if basis else 0)


def killing_matrix(basis) -> ExactMatrix:
    """Trace form K[i][j] = Tr(D_i D_j) on the derivation basis, by ``_trace_rows`` on the
    flattened basis over one denominator D, as K·D²."""
    flat, big = _common_denominator([_flat(m) for m in basis])
    rows = _trace_rows([(na, nb, big) for na, nb in flat], basis[0].cols if basis else 0)
    return ExactMatrix._from_ints([_reduced(na, nb, big * big) for na, nb in rows], len(basis))


def killing_signature(basis):
    """(pos, neg, zero) of the trace form; compact type ⟺ (0, dim, 0)."""
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
    """JSON-ready report: dimension, Lie closure and trace-form signature, read from the
    pivot span of ``_derivation_kernel``: one elimination and no basis matrix.  Over a Q-form
    each row is a D′_f with D_f = √3^c_f·S·D′_f·S⁻¹, S = diag(√3^p_i): the change of
    basis by S and the nonzero scalars keep the span and the brackets in it, so closure
    is the same, and the trace sums of ``_trace_rows`` are the trace form of the D_f
    congruent by the positive diag(d_f/√3^c_f), d_f the row's denominator, so its signature is."""
    _, n, kernel = _derivation_kernel(table)
    trace = [(na, nb, 1) for na, nb in _trace_rows(list(kernel.values()), n)]
    pos, neg, zero = symmetric_signature(ExactMatrix._from_ints(trace, len(kernel)))
    return {
        "dimension": len(kernel),
        "lie_closed": _lie_closed(kernel, n),
        "killing_signature": {"pos": pos, "neg": neg, "zero": zero},
    }
