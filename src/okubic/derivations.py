"""Derivation Lie algebras of 8-dimensional algebras given by structure
constants, computed exactly as the nullspace of the Leibniz system.

For an algebra with product b_i*b_j = Σ_k c[i][j][k] b_k, a matrix D is a
derivation iff for every basis pair

    Σ_m c[i][j][m] D[k][m] = Σ_r c[r][j][k] D[r][i] + Σ_r c[i][r][k] D[r][j]

for all k.  Both Okubo flavors and the Petersson twist of the split
octonions have an 8-dimensional derivation algebra; the compact flavor is
distinguished by a negative-definite trace form.
"""

from __future__ import annotations

from .field import F3, Frozen
from .hurwitz import petersson_structure_constants
from .linalg import (
    COMPACT,
    ExactMatrix,
    SparseTable,
    bilinear,
    nullspace,
    rank,
    symmetric_signature,
)
from .okubo import (
    OkuboElement,
    fix_tau,
    okubo_mul,
    structure_constants_dense,
)


class AlgebraPresentation(Frozen):
    """A finite-dimensional algebra as a structure-constant tensor over F3."""

    __slots__ = ("dimension", "constants", "_table")

    def __init__(self, constants):
        constants = tuple(
            tuple(tuple(F3.coerce(x) for x in row) for row in plane)
            for plane in constants
        )
        n = len(constants)
        if any(
            len(plane) != n or any(len(row) != n for row in plane)
            for plane in constants
        ):
            raise ValueError("structure tensor must be n×n×n")
        object.__setattr__(self, "dimension", n)
        object.__setattr__(self, "constants", constants)
        # sparse integer view of the constants for linalg.bilinear
        table = [[[(k, c) for k, c in enumerate(row) if c] for row in plane] for plane in constants]
        object.__setattr__(self, "_table", SparseTable(table))

    def __repr__(self):
        return f"AlgebraPresentation(dim={self.dimension})"

    def mul_coords(self, u, v):
        """Bilinear product of coordinate vectors."""
        return bilinear(self._table, u, v, F3)


def okubo_presentation(flavor: str = COMPACT) -> AlgebraPresentation:
    return AlgebraPresentation(structure_constants_dense(flavor))


def petersson_presentation() -> AlgebraPresentation:
    return AlgebraPresentation(petersson_structure_constants())


def derivation_space(algebra: AlgebraPresentation):
    """(dimension, basis of n×n derivation matrices), solved exactly.

    Unknown D[r][s] sits at flat index r*n + s; one equation per basis
    triple (i, j, k).
    """
    n = algebra.dimension
    c = algebra.constants
    zero = F3()
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = [zero] * (n * n)
                for m in range(n):
                    if c[i][j][m]:
                        row[k * n + m] = row[k * n + m] + c[i][j][m]
                for r in range(n):
                    if c[r][j][k]:
                        row[r * n + i] = row[r * n + i] - c[r][j][k]
                    if c[i][r][k]:
                        row[r * n + j] = row[r * n + j] - c[i][r][k]
                rows.append(row)
    basis = []
    for vec in nullspace(ExactMatrix(rows)):
        basis.append(
            ExactMatrix([[vec[r * n + s] for s in range(n)] for r in range(n)])
        )
    return len(basis), basis


def _nonzero(m: ExactMatrix):
    """(i, j, m[i, j]) for the nonzero entries of m."""
    return [(i, j, x) for i, row in enumerate(m.entries) for j, x in enumerate(row) if x]


def _commutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """ab - ba, summed over the nonzero products only."""
    out = [[F3()] * a.cols for _ in range(a.rows)]
    for x, y, negate in ((a, b, False), (b, a, True)):
        y_rows = [[(j, v) for j, v in enumerate(row) if v] for row in y.entries]
        for i, k, u in _nonzero(x):
            u = -u if negate else u
            for j, v in y_rows[k]:
                out[i][j] = out[i][j] + u * v
    return ExactMatrix(out)


def _flatten(m: ExactMatrix):
    return [m[i, j] for i in range(m.rows) for j in range(m.cols)]


def check_lie_closure(basis) -> bool:
    """[D_i, D_j] lies in the span of the basis, by an exact rank test."""
    if not basis:
        return True
    span_rows = [_flatten(d) for d in basis]
    base_rank = rank(ExactMatrix(span_rows))
    rows = list(span_rows)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            rows.append(_flatten(_commutator(basis[i], basis[j])))
    return rank(ExactMatrix(rows)) == base_rank


def killing_matrix(basis) -> ExactMatrix:
    """Trace form K[i][j] = Tr(D_i D_j) on the derivation basis."""
    n = len(basis)

    def tr(a, b):
        return sum((u * b[k, i] for i, k, u in _nonzero(a) if b[k, i]), F3())

    return ExactMatrix([[tr(basis[i], basis[j]) for j in range(n)] for i in range(n)])


def killing_signature(basis):
    """(pos, neg, zero) of the trace form; compact type ⟺ (0, dim, 0)."""
    if not basis:
        return (0, 0, 0)
    return symmetric_signature(killing_matrix(basis))


# indices of the trivolution-fixed part (e, i3, i6, i7) and its complement
G0_INDICES = (0, 3, 6, 7)
G1_INDICES = (1, 2, 4, 5)


def _supported_in(x: OkuboElement, indices) -> bool:
    allowed = set(indices)
    return all(not c or i in allowed for i, c in enumerate(x.coeffs))


def check_tau_grading(flavor: str = COMPACT) -> bool:
    """The trivolution splits the algebra into a Z₂-grading.

    g₀ (fixed part) and g₁ each have dimension 4, and products respect
    g₀*g₀ ⊆ g₀, g₀*g₁ ⊆ g₁, g₁*g₀ ⊆ g₁, g₁*g₁ ⊆ g₀ on all basis pairs.
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
    for i in range(8):
        for j in range(8):
            prod = okubo_mul(basis[i], basis[j])
            even = (i in G0_INDICES) == (j in G0_INDICES)
            target = G0_INDICES if even else G1_INDICES
            if not _supported_in(prod, target):
                return False
    return True


def derivation_report(algebra: AlgebraPresentation) -> dict:
    """JSON-ready report: dimension, Lie closure, trace-form signature."""
    dim, basis = derivation_space(algebra)
    pos, neg, zero = killing_signature(basis)
    return {
        "dimension": dim,
        "lie_closed": check_lie_closure(basis),
        "killing_signature": {"pos": pos, "neg": neg, "zero": zero},
    }
