"""The deformed Okubic Albert algebra on 𝒪³⊕Q(√3)³.

The commutative product carries a deformation parameter q and is unital
and flexible for every q.  The Jordan identity holds exactly at q = ±1/2
and fails at q ∈ {0, ±1, 2}.  At q = 1/2 the rank-1 idempotents are
exactly the trace-1 Veronese vectors, i.e. the points of the Okubic
projective plane.  Acceptance criterion 10 expects the opposite Jordan
locus (q = ±1 Jordan, q = 1/2 not); ROADMAP.md item 3 records that gap
with the paper.

``AlbertAlgebra.mul`` and ``left_mult_operator`` read the integer form of
the sparse 27×27 structure-constant table of 𝔸_q (``_table``), built per q
on first use.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from .field import F3, Frozen, sample_f3
from .linalg import COMPACT, ExactMatrix, SparseTable, bilinear, bilinear_left
from .okubo import (
    gram_matrix,
    idempotent,
    okubo_mul,
    okubo_norm,
    polar,
    sample_okubo,
    structure_constants,
)
from .geometry import ProjPoint, VeroneseVector, vnorm

HALF = F3(Fraction(1, 2))


# 𝔸_q lives on V, so an Albert element is a Veronese vector: one class.
AlbertElement = VeroneseVector


@functools.cache
def _table(q: F3):
    """𝔸_q as a ``bilinear`` table on the flat coordinates: for each cyclic
    (i, j, k), (x; λ)∘(y; μ) has slot i (λ_j + λ_k)y_i/2 + (μ_j + μ_k)x_i/2
    + q(x_j*y_k + y_j*x_k) and scalar i λ_iμ_i + (polar(x_j,y_j) + polar(x_k,y_k))/2."""
    sc = structure_constants(COMPACT).cells
    g = gram_matrix(COMPACT).entries
    table = [[()] * 27 for _ in range(27)]

    def put(a, b, cell):
        # the product is commutative: one cell for both orders
        table[a][b] = table[b][a] = tuple(cell)

    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        put(24 + i, 24 + i, [(24 + i, F3(1))])
        for s in range(8):
            a = 8 * i + s
            put(24 + j, a, [(a, HALF)])
            put(24 + k, a, [(a, HALF)])
            for t in range(8):
                if g[s][t]:
                    put(a, 8 * i + t, [(24 + l, g[s][t] * HALF) for l in (j, k)])
                put(a, 8 * j + t, [(8 * k + m, q * c) for m, c in sc[s][t]])
    return SparseTable(table)


class AlbertAlgebra(Frozen):
    """𝔸_q(𝒪) for a fixed deformation parameter q."""

    __slots__ = ("q",)

    def __init__(self, q):
        object.__setattr__(self, "q", F3.coerce(q))

    def __repr__(self):
        return f"AlbertAlgebra(q={self.q})"

    def mul(self, a: AlbertElement, b: AlbertElement) -> AlbertElement:
        return a._like(bilinear(_table(self.q), a.coeffs, b.coeffs, F3))


def trace(a: AlbertElement) -> F3:
    l0, l1, l2 = a.lam
    return l0 + l1 + l2


# ‖a‖ on 𝔸_q is the norm β(a, a) of V; its polarization is 2·geometry.beta
quad_norm = vnorm


def cubic_norm(a: AlbertElement) -> F3:
    """N = λ0λ1λ2 - Σ λ_ν n(x_ν) + polar((x0*e)*(x1*x2), e) with the pinned e."""
    x0, x1, x2 = a.x
    l0, l1, l2 = a.lam
    e = idempotent(COMPACT)
    return (
        l0 * l1 * l2
        - (l0 * okubo_norm(x0) + l1 * okubo_norm(x1) + l2 * okubo_norm(x2))
        + polar(okubo_mul(okubo_mul(x0, e), okubo_mul(x1, x2)), e)
    )


def is_idempotent(algebra: AlbertAlgebra, a: AlbertElement) -> bool:
    return algebra.mul(a, a) == a


def _rank1_failure(algebra: AlbertAlgebra, a: AlbertElement) -> str | None:
    """The first rank-1 condition a fails, cheapest first, or None: trace 1,
    idempotency in ``algebra``, zero cubic norm."""
    t = trace(a)
    if t != F3(1):
        return f"trace={t}, not rank-1"
    if not is_idempotent(algebra, a):
        return f"not idempotent in the q={algebra.q} algebra"
    n = cubic_norm(a)
    if n:
        return f"cubic norm {n} != 0, not rank-1"
    return None


def is_rank1(algebra: AlbertAlgebra, a: AlbertElement) -> bool:
    return _rank1_failure(algebra, a) is None


ALBERT_HALF = AlbertAlgebra(Fraction(1, 2))


def idempotent_from_point(q: ProjPoint) -> AlbertElement:
    """Trace-1 representative of the ray; a rank-1 idempotent of 𝔸_{1/2}."""
    a = q.rep
    t = trace(a)
    if not t:
        # impossible for nonzero compact Veronese vectors: n ≥ 0 termwise
        # and Ver-2 force a nonzero scalar coordinate
        raise ValueError("Veronese representative has zero trace")
    return a.scale(t.inverse())


def point_from_idempotent(a: AlbertElement) -> ProjPoint:
    """The plane point of a rank-1 idempotent of 𝔸_{1/2}; each failed
    condition raises its own ValueError (``ProjPoint`` checks Veronese)."""
    failure = _rank1_failure(ALBERT_HALF, a)
    if failure:
        raise ValueError(failure)
    return ProjPoint(a)


def jordan_defect(algebra: AlbertAlgebra, a: AlbertElement, b: AlbertElement) -> AlbertElement:
    """(a∘b)∘(a∘a) - a∘(b∘(a∘a))."""
    sq = algebra.mul(a, a)
    return algebra.mul(algebra.mul(a, b), sq) - algebra.mul(a, algebra.mul(b, sq))


def left_mult_operator(algebra: AlbertAlgebra, a: AlbertElement) -> ExactMatrix:
    """27×27 matrix of b ↦ a∘b in flat coordinates, read off the integer
    form of ``_table`` as ``mul`` reads it."""
    return ExactMatrix(bilinear_left(_table(algebra.q), a.coeffs))


def cyclic_shift(a: AlbertElement) -> AlbertElement:
    """τ(x0,x1,x2;λ0,λ1,λ2) = (x2,x0,x1;λ2,λ0,λ1); an automorphism of 𝔸_q."""
    x, lam = a.x, a.lam
    return AlbertElement(x[2], x[0], x[1], lam[2], lam[0], lam[1])


def transposition_defect(algebra: AlbertAlgebra, a: AlbertElement, b: AlbertElement) -> AlbertElement:
    """σ(a∘b) - σ(a)∘σ(b) for the 0↔1 coordinate swap σ."""

    def swap(c: AlbertElement) -> AlbertElement:
        x, lam = c.x, c.lam
        return AlbertElement(x[1], x[0], x[2], lam[1], lam[0], lam[2])

    return swap(algebra.mul(a, b)) - algebra.mul(swap(a), swap(b))


def lift_okubo_automorphism(phi):
    """Lift φ ∈ Aut(𝒪) slotwise: Φ(x_ν;λ_ν) = (φ(x_ν); λ_ν)."""

    def lifted(a: AlbertElement) -> AlbertElement:
        return AlbertElement(*(phi(xi) for xi in a.x), *a.lam)

    return lifted


def is_graded_triple(phi0, phi1, phi2, rng: random.Random, samples: int = 50) -> bool:
    """Check φ_i(x)*φ_{i+1}(y) = φ_{i+2}(x*y) cyclically on sampled pairs."""
    phis = (phi0, phi1, phi2)
    for _ in range(samples):
        x = sample_okubo(rng)
        y = sample_okubo(rng)
        for i in range(3):
            lhs = okubo_mul(phis[i](x), phis[(i + 1) % 3](y))
            if lhs != phis[(i + 2) % 3](okubo_mul(x, y)):
                return False
    return True


def sample_albert(rng: random.Random) -> AlbertElement:
    return AlbertElement(
        *(sample_okubo(rng) for _ in range(3)), *(sample_f3(rng) for _ in range(3))
    )
