"""Split octonions over Q: multiplication table, norm, conjugation,
the para-Hurwitz product, the order-3 triality map, and the Petersson
twist x*y = τ(x̄)·τ²(ȳ).

Basis order is (e1, e2, u1, u2, u3, v1, v2, v3).
"""

from __future__ import annotations

import random
from fractions import Fraction

from .field import Rational, _drawn, parse_rational, render_rational
from .linalg import SparseTable, Vector, bilinear

BASIS_LABELS = ("e1", "e2", "u1", "u2", "u3", "v1", "v2", "v3")

E1, E2, U1, U2, U3, V1, V2, V3 = range(8)

# table[i][j] = list of (basis index, integer coefficient) for b_i · b_j
_TABLE_SPEC = {
    (E1, E1): [(E1, 1)],
    (E2, E2): [(E2, 1)],
    (E1, U1): [(U1, 1)],
    (E1, U2): [(U2, 1)],
    (E1, U3): [(U3, 1)],
    (E2, V1): [(V1, 1)],
    (E2, V2): [(V2, 1)],
    (E2, V3): [(V3, 1)],
    (U1, E2): [(U1, 1)],
    (U2, E2): [(U2, 1)],
    (U3, E2): [(U3, 1)],
    (V1, E1): [(V1, 1)],
    (V2, E1): [(V2, 1)],
    (V3, E1): [(V3, 1)],
    (U1, U2): [(V3, 1)],
    (U2, U1): [(V3, -1)],
    (U2, U3): [(V1, 1)],
    (U3, U2): [(V1, -1)],
    (U3, U1): [(V2, 1)],
    (U1, U3): [(V2, -1)],
    (V1, V2): [(U3, 1)],
    (V2, V1): [(U3, -1)],
    (V2, V3): [(U1, 1)],
    (V3, V2): [(U1, -1)],
    (V3, V1): [(U2, 1)],
    (V1, V3): [(U2, -1)],
    (U1, V1): [(E1, -1)],
    (U2, V2): [(E1, -1)],
    (U3, V3): [(E1, -1)],
    (V1, U1): [(E2, -1)],
    (V2, U2): [(E2, -1)],
    (V3, U3): [(E2, -1)],
}

MUL_TABLE = SparseTable(
    [[_TABLE_SPEC.get((i, j), ()) for j in range(8)] for i in range(8)]
)


def _rational(a: int, b: int, d: int) -> Fraction:
    """The coordinate a/d of a split octonion, whose √3 part b is always 0."""
    return Fraction(a, d)


class SplitOctonion(Vector):
    """Free 8-dimensional rational vector with Table-style multiplication."""

    __slots__ = ()

    SIZE = 8
    scalar = Fraction
    _coord = staticmethod(_rational)

    @classmethod
    def basis(cls, i: int) -> SplitOctonion:
        c = [0] * 8
        c[i] = 1
        return cls._from_ints((tuple(c), (0,) * 8, 1))

    @classmethod
    def zero(cls) -> SplitOctonion:
        return cls._from_ints(((0,) * 8, (0,) * 8, 1))

    @classmethod
    def unit(cls) -> SplitOctonion:
        return cls._from_ints(((1, 1, 0, 0, 0, 0, 0, 0), (0,) * 8, 1))

    def __repr__(self):
        terms = [
            f"{render_rational(c)}*{lbl}"
            for c, lbl in zip(self.coeffs, BASIS_LABELS)
            if c
        ]
        return "SplitOctonion(" + (" + ".join(terms) if terms else "0") + ")"

    def to_json(self):
        return [render_rational(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, obj) -> SplitOctonion:
        return cls([parse_rational(s) for s in obj])


def oct_mul(x: SplitOctonion, y: SplitOctonion) -> SplitOctonion:
    SplitOctonion._require_kind(x, y)
    return x._like(bilinear(MUL_TABLE, x.ints, y.ints))


def oct_norm(x: SplitOctonion) -> Rational:
    """n(α e1 + β e2 + Σ aᵢuᵢ + Σ bᵢvᵢ) = αβ + Σ aᵢbᵢ; multiplicative."""
    c, _, d = x.ints
    return Fraction(c[0] * c[1] + c[2] * c[5] + c[3] * c[6] + c[4] * c[7], d * d)


def oct_polar(x: SplitOctonion, y: SplitOctonion) -> Rational:
    return oct_norm(x + y) - oct_norm(x) - oct_norm(y)


def oct_conj(x: SplitOctonion) -> SplitOctonion:
    """x̄ = ⟨x, 1⟩1 - x = (β, α, -u₁, -u₂, -u₃, -v₁, -v₂, -v₃), since ⟨x, 1⟩ = α + β."""
    return x._permuted((1, 0, 2, 3, 4, 5, 6, 7), (1, 1, -1, -1, -1, -1, -1, -1))


def para_mul(x: SplitOctonion, y: SplitOctonion) -> SplitOctonion:
    """Para-Hurwitz product x∘y = x̄·ȳ."""
    return oct_mul(oct_conj(x), oct_conj(y))


def tau_triality(x: SplitOctonion) -> SplitOctonion:
    """Order-3 algebra automorphism: fixes e's, shifts u and v triples."""
    return x._permuted((0, 1, 4, 2, 3, 7, 5, 6))


def petersson_mul(x: SplitOctonion, y: SplitOctonion) -> SplitOctonion:
    """x*y = τ(x̄)·τ²(ȳ); a non-unital symmetric composition product."""
    return para_mul(tau_triality(x), tau_triality(tau_triality(y)))


def _signed_index(x: SplitOctonion):
    """(k, s) for a signed basis vector x = s·b_k, whose stored denominator is 1."""
    na = x.ints[0]
    k = next(k for k, a in enumerate(na) if a)
    return k, na[k]


def petersson_structure_constants():
    """8×8×8 rational tensor of the Petersson product in the canonical basis.  The
    maps b_i ↦ conj(τ(b_i)) = s_i·b_π(i) and b_j ↦ conj(τ²(b_j)) = t_j·b_ρ(j) are signed
    basis permutations, so cell (i, j) is s_i·t_j times ``MUL_TABLE`` cell (π(i), ρ(j))."""
    basis = [SplitOctonion.basis(i) for i in range(8)]
    left = [_signed_index(oct_conj(tau_triality(b))) for b in basis]
    right = [_signed_index(oct_conj(tau_triality(tau_triality(b)))) for b in basis]
    out = [[[Fraction(0)] * 8 for _ in range(8)] for _ in range(8)]
    for i, (pi, s) in enumerate(left):
        for j, (rho, t) in enumerate(right):
            for k, a, _ in MUL_TABLE.ints[pi][rho]:
                out[i][j][k] += Fraction(s * t * a, MUL_TABLE.den)
    return tuple(tuple(map(tuple, plane)) for plane in out)


def sample_split_octonion(rng: random.Random) -> SplitOctonion:
    """The 8 coefficients in basis order, each a rational as ``_drawn`` draws one (16
    draws), in the stored form."""
    return SplitOctonion._from_ints(_drawn(rng, 8, sqrt3=False))
