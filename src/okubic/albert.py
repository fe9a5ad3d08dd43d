"""The deformed Okubic Albert algebra on 𝒪³⊕Q(√3)³.

The commutative product carries a deformation parameter q and is unital and flexible
for every q.  The Jordan identity holds exactly at q = ±1/2 and fails at q ∈ {0, ±1, 2}.
At q = 1/2 the rank-1 idempotents are exactly the trace-1 zeros of the adjoint
``geometry.sharp`` (one pass over ``geometry.adjoint_table``), i.e. the points of the
Okubic projective plane; the cubic norm N reads no idempotent of 𝒪.
Acceptance criterion 10 expects the opposite Jordan locus (q = ±1 Jordan,
q = 1/2 not); ROADMAP.md item 3 records that gap with the paper.

``AlbertAlgebra.mul`` and ``left_mult_operator`` read the integer form of
the sparse 27×27 structure-constant table of 𝔸_q (``_table``), built per q
on first use as q·X + Z/2 by ``geometry._frame_table``, the one writer of the
tables on V, which writes the adjoint (X − Y)/2 too: the deformation moves
only the cross term X.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from .field import F3, Frozen, _drawn
from .linalg import ExactMatrix, bilinear, bilinear_left
from .okubo import okubo_mul, okubo_norm, polar, sample_okubo
from .geometry import ProjPoint, VeroneseVector, _concat, _frame_table, trace, vnorm

HALF = F3(Fraction(1, 2))


# 𝔸_q lives on V, so an Albert element is a Veronese vector: one class.
AlbertElement = VeroneseVector


@functools.cache
def _table(q: F3):
    """𝔸_q = q·X + Z/2 of ``geometry._frame_table`` on the flat coordinates: for each
    cyclic (i, j, k), (x; λ)∘(y; μ) has slot i (λ_j + λ_k)y_i/2 + (μ_j + μ_k)x_i/2
    + q(x_j*y_k + y_j*x_k) and scalar i λ_iμ_i + (polar(x_j,y_j) + polar(x_k,y_k))/2."""
    return _frame_table(q, 0, HALF)


class AlbertAlgebra(Frozen):
    """𝔸_q(𝒪) for a fixed deformation parameter q."""

    __slots__ = ("q",)

    def __init__(self, q):
        object.__setattr__(self, "q", F3.coerce(q))

    def __repr__(self):
        return f"AlbertAlgebra(q={self.q})"

    def mul(self, a: AlbertElement, b: AlbertElement) -> AlbertElement:
        return a._like(bilinear(_table(self.q), a.ints, b.ints))


# ‖a‖ on 𝔸_q is the norm β(a, a) of V; its polarization is 2·geometry.beta
quad_norm = vnorm


def cubic_norm(a: AlbertElement) -> F3:
    """N = λ0λ1λ2 - Σ λ_ν n(x_ν) + ⟨x0, x1*x2⟩, which reads no idempotent; it equals
    β(a^♯, a)/3 for the adjoint ``geometry.sharp``."""
    (x0, x1, x2), (l0, l1, l2) = a.x, a.lam
    return (l0 * l1 * l2 - (l0 * okubo_norm(x0) + l1 * okubo_norm(x1) + l2 * okubo_norm(x2))
            + polar(x0, okubo_mul(x1, x2)))


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
    return q.normal()


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
    form of ``_table`` as ``mul`` reads it, as sparse integer rows."""
    return ExactMatrix._from_ints(bilinear_left(_table(algebra.q), a.ints), 27)


def cyclic_shift(a: AlbertElement) -> AlbertElement:
    """τ(x0,x1,x2;λ0,λ1,λ2) = (x2,x0,x1;λ2,λ0,λ1); an automorphism of 𝔸_q."""
    return a._permuted((*range(16, 24), *range(16), 26, 24, 25))


def transposition_defect(algebra: AlbertAlgebra, a: AlbertElement, b: AlbertElement) -> AlbertElement:
    """σ(a∘b) - σ(a)∘σ(b) for the 0↔1 coordinate swap σ."""

    def swap(c: AlbertElement) -> AlbertElement:
        return c._permuted((*range(8, 16), *range(8), *range(16, 24), 25, 24, 26))

    return swap(algebra.mul(a, b)) - algebra.mul(swap(a), swap(b))


def lift_okubo_automorphism(phi):
    """Lift φ ∈ Aut(𝒪) slotwise: Φ(x_ν;λ_ν) = (φ(x_ν); λ_ν), written from φ's stored
    outputs and the λ of a's stored integers."""

    def lifted(a: AlbertElement) -> AlbertElement:
        na, nb, d = a.ints
        return a._like(_concat([phi(xi).ints for xi in a.x] + [(na[24:], nb[24:], d)]))

    return lifted


def is_graded_triple(phi0, phi1, phi2, rng: random.Random, samples: int = 50) -> bool:
    """Check φ_i(x)*φ_{i+1}(y) = φ_{i+2}(x*y) cyclically on sampled pairs.  Equal
    rotations are one identity, so each distinct rotation is checked once per sample,
    in the order i = 0, 1, 2: a diagonal triple makes two products per sample."""
    phis = (phi0, phi1, phi2)
    rotations = dict.fromkeys(phis[i:] + phis[:i] for i in range(3))
    for _ in range(samples):
        x = sample_okubo(rng)
        y = sample_okubo(rng)
        xy = okubo_mul(x, y)
        for a, b, c in rotations:
            if okubo_mul(a(x), b(y)) != c(xy):
                return False
    return True


def sample_albert(rng: random.Random) -> AlbertElement:
    """Three Okubo slots as ``sample_okubo`` draws them, then λ0, λ1, λ2 as ``sample_f3``
    does: the 27 flat coordinates in order (108 draws), in the stored form."""
    return AlbertElement._from_ints(_drawn(rng, 27))
