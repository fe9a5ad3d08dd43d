"""The Okubo algebra (compact, γ=+1) and split-Okubo algebra (γ=-1).

Elements live in two views kept in exact bijection: an 8-coefficient
vector over Q(√3) in the canonical basis (e, i1..i7), and a traceless
η-Hermitian 3×3 matrix over Q(√3, i).  The product is

    x*y = μ·xy + μ̄·yx - (1/3)Tr(xy)·Id,   μ = (3 + i√3)/6,

computed in bulk through a cached structure-constant tensor in integer
form (``linalg.SparseTable``).  The matrix path is the Michel–Radicati
product ``michel_radicati_mul`` at θ = √3/6, summed on integer numerators
around its one 3×3 product.  The compact table's 36 upper cells are stored integers
read off it, the split ones are their twist by conjugation with diag(1, -i, -i), and
b_t*b_s is the √3-conjugate of b_s*b_t (``structure_constants``); the matrix path is
the test oracle that pins them, and the cross-validation oracle for all of it.
The polar form ⟨x, y⟩ is a one-coordinate table in closed form
(``gram_table``), n(x) = ⟨x, x⟩/2, and ``mat_norm`` = (1/6)Tr(x²) on the
matrix view is their oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

from .field import F3, _drawn, _raw_f3
from .linalg import (
    COMPACT,
    SPLIT,
    ExactMatrix,
    Mat3,
    SparseTable,
    Vector,
    _c3_dot,
    _canonical,
    _check_flavor,
    _eta_dagger_numerators,
    _mat3,
    _mat3_nums,
    _mat_vec,
    _reduced,
    bilinear,
    is_eta_hermitian,
    symmetric_signature,
)

BASIS_LABELS = ("e", "i1", "i2", "i3", "i4", "i5", "i6", "i7")

THIRD = Fraction(1, 3)
SIXTH = Fraction(1, 6)

# θ value at which the deformed Michel-Radicati product is composition:
# 1/(2√3) = √3/6
THETA_OKUBO = F3(0, SIXTH)


class FlavorMismatchError(ValueError):
    pass


class NotCompactError(FlavorMismatchError):
    pass


def _require_compact(*xs: OkuboElement) -> None:
    OkuboElement._require_kind(*xs)
    for x in xs:
        if x.flavor != COMPACT:
            raise NotCompactError("input must be of the compact (division) flavor")


def _gamma(flavor: str) -> int:
    _check_flavor(flavor)
    return 1 if flavor == COMPACT else -1


def _entries(c, g):
    """Σ c_k·b_k at γ = g as 9 entries (re, im), row by row, for c over any ring."""
    c0, c1, c2, c3, c4, c5, c6, c7 = c
    return ((2 * c0 + c3, 0), (c1, -g * c2), (c4, -g * c5),
            (g * c1, c2), (-c0 - c3, 0), (c6, -c7),
            (g * c4, c5), (c6, c7), (-c0, 0))


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

    @classmethod
    def _from_ints(cls, ints, flavor: str = COMPACT) -> OkuboElement:
        out = super()._from_ints(ints)
        object.__setattr__(out, "flavor", flavor)
        return out

    def _like(self, ints) -> OkuboElement:
        return self._from_ints(ints, self.flavor)

    def _key(self):
        return self.flavor, self.ints

    def _check(self, other: OkuboElement) -> None:
        if self.flavor != other.flavor:
            raise FlavorMismatchError(
                f"cannot mix {self.flavor} and {other.flavor} elements"
            )

    @classmethod
    def zero(cls, flavor: str = COMPACT) -> OkuboElement:
        _gamma(flavor)
        return cls._from_ints(((0,) * 8, (0,) * 8, 1), flavor)

    @classmethod
    def basis(cls, k: int, flavor: str = COMPACT) -> OkuboElement:
        _gamma(flavor)
        c = [0] * 8
        c[k] = 1
        return cls._from_ints((tuple(c), (0,) * 8, 1), flavor)

    def __repr__(self):
        terms = [
            f"({c})*{lbl}" for c, lbl in zip(self.coeffs, BASIS_LABELS) if c
        ]
        body = " + ".join(terms) if terms else "0"
        return f"OkuboElement[{self.flavor}]({body})"

    def to_matrix(self) -> Mat3:
        """Σ c_k·b_k in the closed form ``_entries``, one part of Q(√3) at a time, on
        the stored integers; ``from_matrix`` reads it back.  The entries stay
        gcd-reduced because ``from_matrix`` recovers the parts from them by integer
        sums."""
        g = _gamma(self.flavor)
        na, nb, d = self.ints
        (ra, ia), (rb, ib) = (zip(*_entries(p, g)) for p in (na, nb))
        return Mat3._from_ints((ra, rb, ia, ib, d))

    @classmethod
    def from_matrix(cls, m: Mat3, flavor: str = COMPACT) -> OkuboElement:
        """Invert the coefficient map on the stored integers of m, one part of Q(√3)
        at a time; rejects m unless ``_entries`` gives it back exactly."""
        g = _gamma(flavor)
        ra, rb, ia, ib, d = m.ints
        parts = []
        for re, im in ((ra, ia), (rb, ib)):  # the rational parts, then the √3 parts
            # diag(ξ1, ξ2, -ξ1-ξ2) = c0·diag(2,-1,-1) + c3·diag(1,-1,0)
            c = [re[0] + re[4], re[1], -g * im[1], -re[0] - 2 * re[4], re[2], -g * im[2],
                 re[5], -im[5]]
            if _entries(c, g) != tuple(zip(re, im)):
                raise ValueError("matrix is not traceless η-Hermitian for this flavor")
            parts.append(c)
        return cls._from_ints(_canonical(parts, d), flavor)

    def to_json(self):
        return {"flavor": self.flavor, "coeffs": [c.to_json() for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj) -> OkuboElement:
        """The one parser of an Okubo element: its ``to_json`` object
        {"flavor", "coeffs"}, a list of 8 coefficients over (e, i1, …, i7)
        (compact), or a bare rational c meaning c·e (compact).  Each
        coefficient is read by ``F3.from_json``."""
        if isinstance(obj, dict):
            return cls([F3.from_json(c) for c in obj["coeffs"]], obj["flavor"])
        if isinstance(obj, list):
            return cls([F3.from_json(c) for c in obj])
        return cls.basis(0).scale(F3.from_json(obj))


def idempotent(flavor: str = COMPACT) -> OkuboElement:
    return OkuboElement.basis(0, flavor)


def okubo_mul_matrix(x: OkuboElement, y: OkuboElement) -> OkuboElement:
    """Product through the 3×3 matrix representation: the Michel–Radicati
    product at θ = √3/6, where μ = 1/2 + iθ (oracle path)."""
    x._check(y)
    m = michel_radicati_mul(x.to_matrix(), y.to_matrix(), THETA_OKUBO, x.flavor)
    return OkuboElement.from_matrix(m, x.flavor)


# The 36 upper cells (s, t), s ≤ t, of the compact table, row by row: (0, 0), (0, 1), …, (0, 7),
# (1, 1), …, (7, 7).  A cell lists the (k, A, B) of b_s*b_t = Σ (A + B√3)/6·b_k.  The weights
# w_j of the twist give D·b_j·D⁻¹ = i^(w_j)·b_j, D = diag(1, -i, -i), from the split b_j to
# the compact one.
_UPPER_CELLS = (
    ((0, 6, 0),), ((1, 3, 0), (2, 0, -3)), ((1, 0, 3), (2, 3, 0)), ((0, 6, 0), (3, -6, 0)),
    ((4, 3, 0), (5, 0, -3)), ((4, 0, 3), (5, 3, 0)), ((6, -6, 0),), ((7, -6, 0),),
    ((0, 4, 0), (3, -6, 0)), ((3, 0, -2),), ((2, 0, 2),), ((6, 3, 0), (7, 0, -1)),
    ((6, 0, 1), (7, 3, 0)), ((4, 3, 0), (5, 0, -1)), ((4, 0, 1), (5, 3, 0)),
    ((0, 4, 0), (3, -6, 0)), ((1, 0, -2),), ((6, 0, -1), (7, -3, 0)),
    ((6, 3, 0), (7, 0, -1)), ((4, 0, 1), (5, 3, 0)), ((4, -3, 0), (5, 0, 1)),
    ((0, 4, 0), (3, -6, 0)), ((4, 3, 0), (5, 0, -1)), ((4, 0, 1), (5, 3, 0)),
    ((6, -3, 0), (7, 0, 1)), ((6, 0, -1), (7, -3, 0)), ((0, -2, 0), (3, 6, 0)),
    ((0, 0, -2), (3, 0, 2)), ((1, 3, 0), (2, 0, -1)), ((1, 0, -1), (2, -3, 0)),
    ((0, -2, 0), (3, 6, 0)), ((1, 0, 1), (2, 3, 0)), ((1, 3, 0), (2, 0, -1)), ((0, -2, 0),),
    ((0, 0, -2), (3, 0, 4)), ((0, -2, 0),),
)
_TWIST_WEIGHTS = (0, 1, -1, 0, 1, -1, 0, 0)


@functools.cache
def structure_constants(flavor: str) -> SparseTable:
    """Sparse tensor and its integer form: cells[a][b] holds (k, c) with b_a*b_b = Σ c·b_k.

    The 36 compact cells s ≤ t are ``_UPPER_CELLS``, the upper cells of ``ints`` of the
    oracle ``_structure_constants_by_all_products(COMPACT)`` in tests/test_okubo.py.  A split
    cell is the compact one with each (k, A, B) times i^(w_s + w_t - w_k) = ±1, w being
    ``_TWIST_WEIGHTS``: conjugation by D respects the matrix product, the trace and Id, so it
    carries the split Michel–Radicati product onto the compact one, and the factor is real
    as both flavors' constants are.  Cell (t, s) is the √3-conjugate (k, A, -B): σ: √3 ↦ -√3
    fixes the basis matrices, whose entries lie in Q(i), swaps μ = 1/2 + i√3/6 with μ̄ and
    commutes with the product, the trace and the Q-linear read-back, so σ(b_s*b_t) = b_t*b_s;
    σ fixes the twist's rational factor, whose exponent is symmetric in s and t.
    ``test_stored_cells_are_the_all_products_oracle`` pins both flavors' upper cells to the
    oracle, and the two tests after it pin the twist on the basis matrices and both tables."""
    g, w = _gamma(flavor), _TWIST_WEIGHTS
    cells = [[()] * 8 for _ in range(8)]
    for (s, t), cell in zip(itertools.combinations_with_replacement(range(8), 2), _UPPER_CELLS):
        cell = [(k, a, b) if (w[s] + w[t] - w[k]) % 4 == 0 else (k, g * a, g * b)
                for k, a, b in cell]  # γ = 1 leaves the compact cells as stored
        cells[t][s] = [(k, _raw_f3(a, -b, 6)) for k, a, b in cell]
        # written last, so cell (s, s) holds the product itself
        cells[s][t] = [(k, _raw_f3(a, b, 6)) for k, a, b in cell]
    return SparseTable(cells)


def _dense(table: SparseTable):
    """The dense tensor [a][b][k] of a table's constants as F3s, 0 where a cell has none."""
    zero = F3()
    return tuple(tuple(tuple(dict(cell).get(k, zero) for k in range(table.size)) for cell in row)
                 for row in table.cells)


def structure_constants_dense(flavor: str):
    """Dense 8×8×8 tensor of F3 values."""
    return _dense(structure_constants(flavor))


def okubo_mul(x: OkuboElement, y: OkuboElement) -> OkuboElement:
    OkuboElement._require_kind(x, y)
    x._check(y)
    return x._like(bilinear(structure_constants(x.flavor), x.ints, y.ints))


@functools.cache
def gram_table(flavor: str) -> SparseTable:
    """The polar form ⟨x, y⟩ = n(x+y) - n(x) - n(y) = (1/3)Tr(xy) as a
    one-coordinate ``bilinear`` table, in closed form from
    n(x) = c0² + c0c3 + c3²/3 + (γ(c1² + c2² + c4² + c5²) + c6² + c7²)/3."""
    g, t = F3(Fraction(2 * _gamma(flavor), 3)), F3(2 * THIRD)
    diag = (F3(2), g, g, t, g, g, t, t)
    cells = [[((0, diag[a]),) if a == b else () for b in range(8)] for a in range(8)]
    cells[0][3] = cells[3][0] = ((0, F3(1)),)
    return SparseTable(cells, 1)


def polar(x: OkuboElement, y: OkuboElement) -> F3:
    """⟨x, y⟩ = n(x+y) - n(x) - n(y) = (1/3)Tr(xy), one pass over ``gram_table``."""
    OkuboElement._require_kind(x, y)
    x._check(y)
    (a,), (b,), d = bilinear(gram_table(x.flavor), x.ints, y.ints)
    return _raw_f3(a, b, d)


def okubo_norm(x: OkuboElement) -> F3:
    """n(x) = (1/6)Tr(x²) = ⟨x, x⟩/2, one pass over ``gram_table`` halved on its integers."""
    OkuboElement._require_kind(x)
    (a,), (b,), d = bilinear(gram_table(x.flavor), x.ints, x.ints)
    return _raw_f3(a, b, 2 * d)


def gram_matrix(flavor: str) -> ExactMatrix:
    """The dense view of ``gram_table``: entry (a, b) is ⟨b_a, b_b⟩."""
    return ExactMatrix(
        [[cell[0][1] if cell else 0 for cell in row] for row in gram_table(flavor).cells]
    )


def is_positive_definite(flavor: str) -> bool:
    """Positive definiteness of the polar form: signature (8, 0, 0)."""
    return symmetric_signature(gram_matrix(flavor)) == (8, 0, 0)


def split_zero_divisor() -> OkuboElement:
    """Canonical norm-zero witness d = i1 + i6 in the split algebra."""
    return OkuboElement.basis(1, SPLIT) + OkuboElement.basis(6, SPLIT)


def zero_divisor_check(d: OkuboElement, rng: random.Random | None = None,
                       samples: int = 20) -> bool:
    """True iff d divides zero, i.e. n(d) = 0, certified by (d*x)*d = 0 on sampled x.

    False also when n(d) = 0 but a sample has (d*x)*d ≠ 0: the product is broken.
    """
    if not d:
        raise ValueError("zero element is excluded")
    if okubo_norm(d):
        return False
    rng = rng or random.Random(0)
    for _ in range(samples):
        x = sample_okubo(rng, d.flavor)
        if okubo_mul(okubo_mul(d, x), d):
            return False
    return True


def _rows_from_images(images):
    """The 8×8 gcd-reduced sparse integer rows of the Q(√3)-linear map whose column a is
    the stored form images[a], written over the lcm of the images' denominators: the
    rows an ``ExactMatrix`` of the images would hold, for ``_mat_vec``."""
    den = math.lcm(*(d for _, _, d in images))
    cols = [(a, na, nb, den // d) for a, (na, nb, d) in enumerate(images)]
    return [_reduced({a: m * na[k] for a, na, nb, m in cols if na[k] or nb[k]},
                     {a: m * nb[k] for a, na, nb, m in cols if na[k] or nb[k]}, den)
            for k in range(8)]


@functools.cache
def _idempotent_maps(flavor: str):
    """The maps of the idempotent e = b₀, built once per flavor from products on the
    basis: the rows of τ(x) = e*(e*x) and, for the compact flavor, the rows of
    x̄ = e*τ(x) and the table of x·y = (e*x)*(y*e), cell (a, b) being
    (e*b_a)*(b_b*e) (None for the split flavor).  Both paths are exact and end in the
    canonical stored form, so each map gives what its products give."""
    e = idempotent(flavor)
    basis = [OkuboElement.basis(k, flavor) for k in range(8)]
    left = [okubo_mul(e, b) for b in basis]
    taus = [okubo_mul(e, x) for x in left]
    tau = _rows_from_images([t.ints for t in taus])
    if flavor == SPLIT:
        return tau, None, None
    conj = _rows_from_images([okubo_mul(e, t).ints for t in taus])
    right = [okubo_mul(b, e) for b in basis]
    cells = [[[(k, _raw_f3(a, b, d)) for k, (a, b) in enumerate(zip(na, nb)) if a or b]
              for na, nb, d in (okubo_mul(x, y).ints for y in right)] for x in left]
    return tau, conj, SparseTable(cells)


def trivolution(x: OkuboElement) -> OkuboElement:
    """τ(x) = e*(e*x), the order-3 automorphism attached to e: one pass over its rows."""
    OkuboElement._require_kind(x)
    return x._like(_mat_vec(_idempotent_maps(x.flavor)[0], x.ints))


def trivolution_polar_form(x: OkuboElement) -> OkuboElement:
    """Equivalent defining formula τ(x) = ⟨x, e⟩e - x*e, through the product, not τ's rows."""
    OkuboElement._require_kind(x)
    e = idempotent(x.flavor)
    return e.scale(polar(x, e)) - okubo_mul(x, e)


def fix_tau(x: OkuboElement):
    """Split x into (fixed, moving) parts of the trivolution grading."""
    t = trivolution(x)
    tt = trivolution(t)
    fixed = (x + t + tt).scale(F3(THIRD))
    return fixed, x - fixed


def recovered_oct_mul(x: OkuboElement, y: OkuboElement) -> OkuboElement:
    """Unital octonion product x·y = (e*x)*(y*e), one pass over its table; compact only."""
    _require_compact(x, y)
    return x._like(bilinear(_idempotent_maps(COMPACT)[2], x.ints, y.ints))


def recovered_conj(x: OkuboElement) -> OkuboElement:
    """Conjugation x̄ = e*τ(x) of the recovered product, one pass over its rows."""
    _require_compact(x)
    return x._like(_mat_vec(_idempotent_maps(COMPACT)[1], x.ints))


def bracket(x: OkuboElement, y: OkuboElement) -> OkuboElement:
    """Lie bracket [x, y] = x*y - y*x."""
    return okubo_mul(x, y) - okubo_mul(y, x)


def left_divide(b: OkuboElement, a: OkuboElement) -> OkuboElement:
    """Solve s*a = b for a ≠ 0 (compact): s = (a*b)/n(a).

    Valid by the symmetric composition identity (a*b)*a = n(a)b.
    """
    _require_compact(a)
    na = okubo_norm(a)
    if not na:
        raise ZeroDivisionError("division by a norm-zero element")
    return okubo_mul(a, b).scale(na.inverse())


class HermiticityError(ValueError):
    pass


def _trace(nums):
    """Numerators of the trace from those of a matrix: entries 0, 4, 8 are the diagonal."""
    return [a + b + c for a, b, c in zip(nums[0], nums[4], nums[8])]


def michel_radicati_mul(x: Mat3, y: Mat3, theta: F3, flavor: str = COMPACT) -> Mat3:
    """x⋆_θ y = (1/2+iθ)xy + (1/2-iθ)yx - (1/3)Tr(xy)Id on traceless
    η-Hermitian matrices; composition only at θ = ±√3/6."""
    if any(_trace(_mat3_nums(x)[0])) or any(_trace(_mat3_nums(y)[0])):
        raise HermiticityError("input must be traceless")
    nums, d = _traceful(x, y, theta, flavor)
    # Tr(p) = (1/2+iθ)Tr(xy) + (1/2-iθ)Tr(yx) = Tr(xy), taken off the diagonal over 3d
    t = _trace(nums)
    return _mat3([tuple(3 * z - (k % 4 == 0) * s for z, s in zip(n, t))
                  for k, n in enumerate(nums)], 3 * d)


def traceful_mul(x: Mat3, y: Mat3, theta: F3, flavor: str = COMPACT) -> Mat3:
    """x∘_θ y = (1/2+iθ)xy + (1/2-iθ)yx on η-Hermitian matrices; a
    non-commutative Jordan product for every θ."""
    return _mat3(*_traceful(x, y, theta, flavor))


def _traceful(x: Mat3, y: Mat3, theta, flavor: str):
    """x∘_θ y as integer tuples (ra, rb, ia, ib) over one denominator, x and y η-Hermitian."""
    theta = F3.coerce(theta)
    if not (is_eta_hermitian(x, flavor) and is_eta_hermitian(y, flavor)):
        raise HermiticityError("input is not η-Hermitian for this flavor")
    # yx = η(xy)†η for η-Hermitian x and y, so one 3×3 product gives both
    nums, d = _mat3_nums(x @ y)
    # 1/2 ± iθ = (t ± 2i(a + b√3))/(2t) for θ = (a + b√3)/t
    a, b, t = theta._an, theta._bn, theta._d
    mus = (t, 0, 2 * a, 2 * b), (t, 0, -2 * a, -2 * b)
    return [_c3_dot(mus, zs) for zs in zip(nums, _eta_dagger_numerators(nums, flavor))], 2 * t * d


def mat_norm(m: Mat3) -> F3:
    """n(x) = (1/6)Tr(x²) directly on the matrix view: Tr(x²) = Σ m_ij·m_ji,
    summed as integer numerators."""
    nums, d = _mat3_nums(m)
    ra, rb, ia, ib = _c3_dot(nums, (nums[3 * j + i] for i in range(3) for j in range(3)))
    if ia or ib:
        raise ValueError("trace of x² must be real")
    return _raw_f3(ra, rb, 6 * d * d)


class SkewHermiticityError(ValueError):
    pass


def cayley_unitary(s: Mat3) -> Mat3:
    """u = (I - s)(I + s)⁻¹ for skew-Hermitian s; exactly unitary."""
    if s.dagger() != -s:
        raise SkewHermiticityError("Cayley transform needs a skew-Hermitian input")
    ident = Mat3.identity()
    return (ident - s) @ (ident + s).inverse()


def conjugation_automorphism(s: Mat3):
    """Okubo automorphism x ↦ u x u† from the Cayley transform of s.

    φ is Q(√3)-linear: 8×8 gcd-reduced sparse integer rows built once by
    ``_rows_from_images``, whose column a is φ(b_a) read back (and checked) by
    ``from_matrix``; φ(x) is one ``_mat_vec`` pass over x.ints."""
    u = cayley_unitary(s)
    udag = u.dagger()
    rows = _rows_from_images([OkuboElement.from_matrix(u @ b @ udag, COMPACT).ints
                              for b in basis_matrices(COMPACT)])

    def phi(x: OkuboElement) -> OkuboElement:
        _require_compact(x)
        return x._like(_mat_vec(rows, x.ints))

    return phi


def sample_okubo(rng: random.Random, flavor: str = COMPACT) -> OkuboElement:
    """The 8 coefficients in basis order, each as ``sample_f3`` draws one (32 draws), in
    the stored form; an unknown flavor raises ValueError after the draws."""
    ints = _drawn(rng, 8)
    _gamma(flavor)
    return OkuboElement._from_ints(ints, flavor)
