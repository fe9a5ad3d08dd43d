"""The Okubo algebra (compact, γ=+1) and split-Okubo algebra (γ=-1).

Elements live in two views kept in exact bijection: an 8-coefficient
vector over Q(√3) in the canonical basis (e, i1..i7), and a traceless
η-Hermitian 3×3 matrix over Q(√3, i).  The product is

    x*y = μ·xy + μ̄·yx - (1/3)Tr(xy)·Id,   μ = (3 + i√3)/6,

computed in bulk through a cached structure-constant tensor in integer
form (``linalg.SparseTable``).  The matrix path is the Michel–Radicati
product ``michel_radicati_mul`` at θ = √3/6: it is the source of that
table and the cross-validation oracle for it.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from .field import C3, F3, sample_f3
from .linalg import (
    COMPACT,
    SPLIT,
    ExactMatrix,
    Mat3,
    SparseTable,
    Vector,
    _check_flavor,
    bilinear,
    is_eta_hermitian,
    symmetric_signature,
)

BASIS_LABELS = ("e", "i1", "i2", "i3", "i4", "i5", "i6", "i7")

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
SIXTH = Fraction(1, 6)

# θ value at which the deformed Michel-Radicati product is composition:
# 1/(2√3) = √3/6
THETA_OKUBO = F3(0, SIXTH)


class FlavorMismatchError(ValueError):
    pass


def _gamma(flavor: str) -> int:
    _check_flavor(flavor)
    return 1 if flavor == COMPACT else -1


def basis_matrices(flavor: str):
    """Canonical basis (e, i1..i7) as Mat3 values for the given flavor."""
    return tuple(OkuboElement.basis(k, flavor).to_matrix() for k in range(8))


class OkuboElement(Vector):
    """8-vector over Q(√3) in the canonical basis, tagged with a flavor."""

    __slots__ = ("flavor",)

    SIZE = 8

    def __init__(self, coeffs, flavor: str = COMPACT):
        _gamma(flavor)
        super().__init__(coeffs)
        object.__setattr__(self, "flavor", flavor)

    def _like(self, coeffs) -> OkuboElement:
        out = super()._like(coeffs)
        object.__setattr__(out, "flavor", self.flavor)
        return out

    def _key(self):
        return self.flavor, self.coeffs

    def _check(self, other: OkuboElement) -> None:
        if self.flavor != other.flavor:
            raise FlavorMismatchError(
                f"cannot mix {self.flavor} and {other.flavor} elements"
            )

    @classmethod
    def zero(cls, flavor: str = COMPACT) -> OkuboElement:
        return cls([0] * 8, flavor)

    @classmethod
    def basis(cls, k: int, flavor: str = COMPACT) -> OkuboElement:
        c = [F3()] * 8
        c[k] = F3(1)
        return cls(c, flavor)

    def __repr__(self):
        terms = [
            f"({c})*{lbl}" for c, lbl in zip(self.coeffs, BASIS_LABELS) if c
        ]
        body = " + ".join(terms) if terms else "0"
        return f"OkuboElement[{self.flavor}]({body})"

    def to_matrix(self) -> Mat3:
        """Σ c_k·b_k in closed form; ``from_matrix`` reads the same entries back."""
        g = _gamma(self.flavor)
        c0, c1, c2, c3, c4, c5, c6, c7 = self.coeffs
        return Mat3([
            [2 * c0 + c3, C3(c1, -g * c2), C3(c4, -g * c5)],
            [C3(g * c1, c2), -c0 - c3, C3(c6, -c7)],
            [C3(g * c4, c5), C3(c6, c7), -c0],
        ])

    @classmethod
    def from_matrix(cls, m: Mat3, flavor: str = COMPACT) -> OkuboElement:
        """Invert the coefficient map; rejects matrices outside the algebra."""
        g = _gamma(flavor)
        xi1, xi2 = m[0, 0].re, m[1, 1].re
        # diag(ξ1, ξ2, -ξ1-ξ2) = c0·diag(2,-1,-1) + c3·diag(1,-1,0)
        c0 = xi1 + xi2
        c3 = -xi1 - 2 * xi2
        c1, c2 = m[0, 1].re, -g * m[0, 1].im
        c4, c5 = m[0, 2].re, -g * m[0, 2].im
        c6, c7 = m[1, 2].re, -m[1, 2].im
        x = cls([c0, c1, c2, c3, c4, c5, c6, c7], flavor)
        if x.to_matrix() != m:
            raise ValueError("matrix is not traceless η-Hermitian for this flavor")
        return x

    def to_json(self):
        return {"flavor": self.flavor, "coeffs": [c.to_json() for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj) -> OkuboElement:
        return cls([F3.from_json(c) for c in obj["coeffs"]], obj["flavor"])


def idempotent(flavor: str = COMPACT) -> OkuboElement:
    return OkuboElement.basis(0, flavor)


def okubo_mul_matrix(x: OkuboElement, y: OkuboElement) -> OkuboElement:
    """Product through the 3×3 matrix representation: the Michel–Radicati
    product at θ = √3/6, where μ = 1/2 + iθ (oracle path)."""
    x._check(y)
    m = michel_radicati_mul(x.to_matrix(), y.to_matrix(), THETA_OKUBO, x.flavor)
    return OkuboElement.from_matrix(m, x.flavor)


@functools.cache
def structure_constants(flavor: str) -> SparseTable:
    """Sparse tensor and its integer form: cells[a][b] holds (k, c) with b_a*b_b = Σ c·b_k."""
    sc = []
    for a in range(8):
        row = []
        ba = OkuboElement.basis(a, flavor)
        for b in range(8):
            prod = okubo_mul_matrix(ba, OkuboElement.basis(b, flavor))
            row.append([(k, c) for k, c in enumerate(prod.coeffs) if c])
        sc.append(row)
    return SparseTable(sc)


def structure_constants_dense(flavor: str):
    """Dense 8×8×8 tensor of F3 values."""
    return tuple(
        tuple(tuple(dict(cell).get(k, F3()) for k in range(8)) for cell in row)
        for row in structure_constants(flavor).cells
    )


def okubo_mul(x: OkuboElement, y: OkuboElement) -> OkuboElement:
    x._check(y)
    return x._like(bilinear(structure_constants(x.flavor), x.coeffs, y.coeffs, F3))


def okubo_norm(x: OkuboElement) -> F3:
    """n(x) = (1/6)Tr(x²), in coordinate closed form."""
    g = _gamma(x.flavor)
    c = x.coeffs
    diag = c[0] * c[0] + c[0] * c[3] + c[3] * c[3] * F3(THIRD)
    offd = (
        g * (c[1] * c[1] + c[2] * c[2] + c[4] * c[4] + c[5] * c[5])
        + c[6] * c[6]
        + c[7] * c[7]
    )
    return diag + offd * F3(THIRD)


def polar(x: OkuboElement, y: OkuboElement) -> F3:
    """⟨x, y⟩ = n(x+y) - n(x) - n(y) = (1/3)Tr(xy)."""
    x._check(y)
    return okubo_norm(x + y) - okubo_norm(x) - okubo_norm(y)


@functools.cache
def gram_matrix(flavor: str) -> ExactMatrix:
    basis = [OkuboElement.basis(k, flavor) for k in range(8)]
    return ExactMatrix(
        [[polar(bi, bj) for bj in basis] for bi in basis]
    )


def is_positive_definite(flavor: str) -> bool:
    """Positive definiteness of the polar form: signature (8, 0, 0)."""
    return symmetric_signature(gram_matrix(flavor)) == (8, 0, 0)


def split_zero_divisor() -> OkuboElement:
    """Canonical norm-zero witness d = i1 + i6 in the split algebra."""
    return OkuboElement.basis(1, SPLIT) + OkuboElement.basis(6, SPLIT)


def zero_divisor_check(d: OkuboElement, rng: random.Random | None = None,
                       samples: int = 20) -> bool:
    """True iff d divides zero, i.e. n(d) = 0.

    When true, also certifies (d*x)*d = 0 on sampled x.
    """
    if not d:
        raise ValueError("zero element is excluded")
    if okubo_norm(d):
        return False
    rng = rng or random.Random(0)
    for _ in range(samples):
        x = sample_okubo(rng, d.flavor)
        if okubo_mul(okubo_mul(d, x), d):
            raise AssertionError("n(d) = 0 but (d*x)*d != 0: algebra broken")
    return True


def trivolution(x: OkuboElement) -> OkuboElement:
    """τ(x) = e*(e*x), the order-3 automorphism attached to e."""
    e = idempotent(x.flavor)
    return okubo_mul(e, okubo_mul(e, x))


def trivolution_polar_form(x: OkuboElement) -> OkuboElement:
    """Equivalent defining formula τ(x) = ⟨x, e⟩e - x*e."""
    e = idempotent(x.flavor)
    return e.scale(polar(x, e)) - okubo_mul(x, e)


def fix_tau(x: OkuboElement):
    """Split x into (fixed, moving) parts of the trivolution grading."""
    t = trivolution(x)
    tt = trivolution(t)
    fixed = (x + t + tt).scale(F3(THIRD))
    return fixed, x - fixed


def recovered_oct_mul(x: OkuboElement, y: OkuboElement) -> OkuboElement:
    """Unital octonion product x·y = (e*x)*(y*e); compact flavor only."""
    if x.flavor != COMPACT or y.flavor != COMPACT:
        raise FlavorMismatchError("octonion recovery is defined for the compact flavor")
    e = idempotent(COMPACT)
    return okubo_mul(okubo_mul(e, x), okubo_mul(y, e))


def recovered_conj(x: OkuboElement) -> OkuboElement:
    """Octonionic conjugation x̄ = e*τ(x) of the recovered product."""
    if x.flavor != COMPACT:
        raise FlavorMismatchError("octonion recovery is defined for the compact flavor")
    return okubo_mul(idempotent(COMPACT), trivolution(x))


def bracket(x: OkuboElement, y: OkuboElement) -> OkuboElement:
    """Lie bracket [x, y] = x*y - y*x."""
    return okubo_mul(x, y) - okubo_mul(y, x)


def left_divide(b: OkuboElement, a: OkuboElement) -> OkuboElement:
    """Solve s*a = b for a ≠ 0 (compact): s = (a*b)/n(a).

    Valid by the symmetric composition identity (a*b)*a = n(a)b.
    """
    if a.flavor != COMPACT:
        raise FlavorMismatchError("division requires the compact flavor")
    na = okubo_norm(a)
    if not na:
        raise ZeroDivisionError("division by a norm-zero element")
    return okubo_mul(a, b).scale(na.inverse())


class HermiticityError(ValueError):
    pass


def michel_radicati_mul(x: Mat3, y: Mat3, theta: F3, flavor: str = COMPACT) -> Mat3:
    """x⋆_θ y = (1/2+iθ)xy + (1/2-iθ)yx - (1/3)Tr(xy)Id on traceless
    η-Hermitian matrices; composition only at θ = ±√3/6."""
    if x.trace() or y.trace():
        raise HermiticityError("input must be traceless")
    p = traceful_mul(x, y, theta, flavor)
    # Tr(p) = (1/2+iθ)Tr(xy) + (1/2-iθ)Tr(yx) = Tr(xy); entries 0, 4, 8 are the diagonal
    t = p.trace() * C3(F3(THIRD))
    return p._like(x - t if i % 4 == 0 else x for i, x in enumerate(p.coeffs))


def traceful_mul(x: Mat3, y: Mat3, theta: F3, flavor: str = COMPACT) -> Mat3:
    """x∘_θ y = (1/2+iθ)xy + (1/2-iθ)yx on η-Hermitian matrices; a
    non-commutative Jordan product for every θ."""
    theta = F3.coerce(theta)
    if not (is_eta_hermitian(x, flavor) and is_eta_hermitian(y, flavor)):
        raise HermiticityError("input is not η-Hermitian for this flavor")
    cp = C3(F3(HALF), theta)
    return (x @ y).scale(cp) + (y @ x).scale(cp.conj())


def mat_norm(m: Mat3) -> F3:
    """n(x) = (1/6)Tr(x²) directly on the matrix view: Tr(x²) = Σ m_ij·m_ji."""
    t = sum(m[i, j] * m[j, i] for i in range(3) for j in range(3))
    if t.im:
        raise ValueError("trace of x² must be real")
    return t.re * F3(SIXTH)


class SkewHermiticityError(ValueError):
    pass


def cayley_unitary(s: Mat3) -> Mat3:
    """u = (I - s)(I + s)⁻¹ for skew-Hermitian s; exactly unitary."""
    if s.dagger() != -s:
        raise SkewHermiticityError("Cayley transform needs a skew-Hermitian input")
    ident = Mat3.identity()
    return (ident - s) @ (ident + s).inverse()


def conjugation_automorphism(s: Mat3):
    """Okubo automorphism x ↦ u x u† from the Cayley transform of s."""
    u = cayley_unitary(s)
    udag = u.dagger()

    def phi(x: OkuboElement) -> OkuboElement:
        if x.flavor != COMPACT:
            raise FlavorMismatchError("conjugation automorphisms act on the compact flavor")
        return OkuboElement.from_matrix(u @ x.to_matrix() @ udag, COMPACT)

    return phi


def sample_okubo(rng: random.Random, flavor: str = COMPACT) -> OkuboElement:
    return OkuboElement([sample_f3(rng) for _ in range(8)], flavor)
