"""Okubic projective line, affine plane, and projective plane.

The projective line is the quadric {ℝ(x, ξ1, ξ2) : n(x) = ξ1ξ2}; the
projective plane consists of rays of Veronese vectors in 𝒪³×Q(√3)³
with incidence given by the bilinear form β.  Everything here is for
the compact (division) flavor only.
"""

from __future__ import annotations

import random
from .field import F3, Frozen
from .linalg import COMPACT, Vector
from .okubo import (
    OkuboElement,
    gram_matrix,
    okubo_mul,
    okubo_norm,
    left_divide,
    sample_okubo,
)


class Infinity:
    """The point at infinity of the projective line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = Infinity()


class NotCompactError(ValueError):
    pass


def _require_compact(*xs: OkuboElement) -> None:
    for x in xs:
        if x.flavor != COMPACT:
            raise NotCompactError("the Okubic geometry is defined over the compact flavor")


class ProjLinePoint(Frozen):
    """Ray ℝ(x, ξ1, ξ2) on the quadric n(x) - ξ1ξ2 = 0."""

    __slots__ = ("x", "xi1", "xi2")

    def __init__(self, x: OkuboElement, xi1, xi2):
        _require_compact(x)
        xi1, xi2 = F3.coerce(xi1), F3.coerce(xi2)
        if not (x or xi1 or xi2):
            raise ValueError("zero vector does not represent a point")
        if okubo_norm(x) != xi1 * xi2:
            raise ValueError("vector is not on the quadric n(x) = ξ1ξ2")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "xi1", xi1)
        object.__setattr__(self, "xi2", xi2)

    def __repr__(self):
        return f"ProjLinePoint({self.x!r}, {self.xi1}, {self.xi2})"

    def coords(self):
        return (*self.x.coeffs, self.xi1, self.xi2)

    def __eq__(self, other):
        if not isinstance(other, ProjLinePoint):
            return NotImplemented
        return _proportional(self.coords(), other.coords())


def _proportional(a, b) -> bool:
    """True iff the nonzero tuples a and b are F3-proportional."""
    pivot = next((i for i, x in enumerate(a) if x), None)
    if pivot is None or not b[pivot]:
        return False
    r = b[pivot] / a[pivot]
    return all(r * x == y for x, y in zip(a, b))


def line_embed(p) -> ProjLinePoint:
    """x ↦ ℝ(x, n(x), 1); ∞ ↦ ℝ(0, 1, 0)."""
    if p is INFINITY:
        return ProjLinePoint(OkuboElement.zero(), F3(1), F3(0))
    _require_compact(p)
    return ProjLinePoint(p, okubo_norm(p), F3(1))


def line_chart(q: ProjLinePoint):
    """Inverse of line_embed: x/ξ2 when ξ2 ≠ 0, else ∞ (forcing x = 0)."""
    if q.xi2:
        return q.x.scale(q.xi2.inverse())
    if q.x:
        raise ValueError("quadric member with ξ2 = 0 and x != 0 cannot exist")
    return INFINITY


class AffinePoint(Frozen):
    __slots__ = ("x", "y")

    def __init__(self, x: OkuboElement, y: OkuboElement):
        _require_compact(x, y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __eq__(self, other):
        if not isinstance(other, AffinePoint):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __repr__(self):
        return f"AffinePoint({self.x!r}, {self.y!r})"

    def to_json(self):
        return {"x": self.x.to_json(), "y": self.y.to_json()}


class AffineLine(Frozen):
    """[s, t] = {(x, s*x+t)}, vertical [c] = {c}×𝒪, or the line at infinity."""

    __slots__ = ("kind", "s", "t", "c")

    def __init__(self, kind, s=None, t=None, c=None):
        if kind not in ("sloped", "vertical", "infinity"):
            raise ValueError(f"unknown line kind {kind!r}")
        if kind == "sloped":
            _require_compact(s, t)
        elif kind == "vertical":
            _require_compact(c)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "c", c)

    @classmethod
    def sloped(cls, s, t) -> AffineLine:
        return cls("sloped", s=s, t=t)

    @classmethod
    def vertical(cls, c) -> AffineLine:
        return cls("vertical", c=c)

    @classmethod
    def at_infinity(cls) -> AffineLine:
        return cls("infinity")

    def __eq__(self, other):
        if not isinstance(other, AffineLine):
            return NotImplemented
        return (self.kind, self.s, self.t, self.c) == (
            other.kind,
            other.s,
            other.t,
            other.c,
        )

    def __repr__(self):
        if self.kind == "sloped":
            return f"AffineLine[{self.s!r}, {self.t!r}]"
        if self.kind == "vertical":
            return f"AffineLine[{self.c!r}]"
        return "AffineLine[infinity]"


def affine_incident(p: AffinePoint, line: AffineLine) -> bool:
    if line.kind == "sloped":
        return p.y == okubo_mul(line.s, p.x) + line.t
    if line.kind == "vertical":
        return p.x == line.c
    raise ValueError("affine incidence is not defined on the line at infinity")


def affine_join(p1: AffinePoint, p2: AffinePoint) -> AffineLine:
    """The unique affine line through two distinct points."""
    if p1 == p2:
        raise ValueError("join of equal points is undefined")
    if p1.x == p2.x:
        return AffineLine.vertical(p1.x)
    s = left_divide(p1.y - p2.y, p1.x - p2.x)
    t = p1.y - okubo_mul(s, p1.x)
    return AffineLine.sloped(s, t)


class SlopePoint(Frozen):
    """Point at infinity (s) of all lines with slope s."""

    __slots__ = ("s",)

    def __init__(self, s: OkuboElement):
        _require_compact(s)
        object.__setattr__(self, "s", s)

    def __eq__(self, other):
        if not isinstance(other, SlopePoint):
            return NotImplemented
        return self.s == other.s

    def __repr__(self):
        return f"SlopePoint({self.s!r})"


class VeroneseVector(Vector):
    """Element (x0, x1, x2; λ0, λ1, λ2) of V ≅ 𝒪³×Q(√3)³.

    V carries both the Okubic projective plane and the Albert algebra 𝔸_q,
    so this one class is also ``albert.AlbertElement``: the rank-1
    idempotents of 𝔸_{1/2} are the trace-1 Veronese vectors themselves.
    The 27 flat coordinates are the three Okubo slots, then the three λ.
    """

    __slots__ = ()

    SIZE = 27

    def __init__(self, x0, x1, x2, l0, l1, l2):
        _require_compact(x0, x1, x2)
        super().__init__((*x0.coeffs, *x1.coeffs, *x2.coeffs, l0, l1, l2))

    @classmethod
    def from_coords(cls, coords) -> VeroneseVector:
        out = object.__new__(cls)
        Vector.__init__(out, coords)
        return out

    @classmethod
    def unit(cls) -> VeroneseVector:
        return cls.from_coords([0] * 24 + [1, 1, 1])

    @classmethod
    def scalar_idempotent(cls, i: int) -> VeroneseVector:
        """e_i = ω_i(1), the i-th primitive real idempotent."""
        c = [0] * 27
        c[24 + i] = 1
        return cls.from_coords(c)

    @classmethod
    def okubo_slot(cls, i: int, x: OkuboElement) -> VeroneseVector:
        """w_i(x): x placed in Okubo slot i."""
        _require_compact(x)
        c = [0] * 27
        c[8 * i : 8 * i + 8] = x.coeffs
        return cls.from_coords(c)

    @property
    def x(self):
        """The Okubo slots (x0, x1, x2)."""
        c = self.coeffs
        return tuple(OkuboElement(c[k : k + 8]) for k in (0, 8, 16))

    @property
    def lam(self):
        """The scalars (λ0, λ1, λ2)."""
        return self.coeffs[24:]

    def __repr__(self):
        return f"VeroneseVector({self.x!r}; {self.lam!r})"

    def coords(self):
        """Flat 27-tuple over F3: three Okubo slots then three scalars."""
        return self.coeffs

    def proportional(self, other: VeroneseVector) -> bool:
        return _proportional(self.coeffs, other.coeffs)

    def to_json(self):
        return {
            "x": [xi.to_json() for xi in self.x],
            "lambda": [l.to_json() for l in self.lam],
        }

    @classmethod
    def from_json(cls, obj) -> VeroneseVector:
        xs = [OkuboElement.from_json(x) for x in obj["x"]]
        lams = [F3.from_json(l) for l in obj["lambda"]]
        return cls(*xs, *lams)


def veronese_check(v: VeroneseVector) -> bool:
    """The six Okubo-Veronese conditions, exactly."""
    x0, x1, x2 = v.x
    l0, l1, l2 = v.lam
    return (
        x0.scale(l0) == okubo_mul(x1, x2)
        and x1.scale(l1) == okubo_mul(x2, x0)
        and x2.scale(l2) == okubo_mul(x0, x1)
        and okubo_norm(x0) == l1 * l2
        and okubo_norm(x1) == l2 * l0
        and okubo_norm(x2) == l0 * l1
    )


class ProjPoint(Frozen):
    """Ray of a nonzero Veronese vector."""

    __slots__ = ("rep",)

    def __init__(self, rep: VeroneseVector):
        if not rep:
            raise ValueError("zero vector does not represent a point")
        if not veronese_check(rep):
            raise ValueError("representative fails the Veronese conditions")
        object.__setattr__(self, "rep", rep)

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.rep.proportional(other.rep)

    def __repr__(self):
        return f"ProjPoint({self.rep!r})"


class ProjLine(Frozen):
    """ℓ_w = w^⊥ for a nonzero Veronese vector w."""

    __slots__ = ("w",)

    def __init__(self, w: VeroneseVector):
        if not w:
            raise ValueError("zero vector does not define a line")
        if not veronese_check(w):
            raise ValueError("representative fails the Veronese conditions")
        object.__setattr__(self, "w", w)


def plane_embed(p) -> ProjPoint:
    """Affine-to-projective correspondence:
    (x,y) ↦ ℝ(x, y, x*y; n(y), n(x), 1), (s) ↦ ℝ(0,0,s; n(s),1,0),
    (∞) ↦ ℝ(0,0,0; 1,0,0)."""
    z = OkuboElement.zero()
    if p is INFINITY:
        return ProjPoint(VeroneseVector(z, z, z, 1, 0, 0))
    if isinstance(p, SlopePoint):
        return ProjPoint(VeroneseVector(z, z, p.s, okubo_norm(p.s), 1, 0))
    if isinstance(p, AffinePoint):
        return ProjPoint(
            VeroneseVector(
                p.x,
                p.y,
                okubo_mul(p.x, p.y),
                okubo_norm(p.y),
                okubo_norm(p.x),
                F3(1),
            )
        )
    raise TypeError(f"cannot embed {p!r}")


def plane_decode(q: ProjPoint):
    """Inverse chart: patch order λ2, then λ1, then λ0."""
    v = q.rep
    l0, l1, l2 = v.lam
    if l2:
        inv = l2.inverse()
        return AffinePoint(v.x[0].scale(inv), v.x[1].scale(inv))
    if l1:
        return SlopePoint(v.x[2].scale(l1.inverse()))
    if l0:
        return INFINITY
    raise ValueError("Veronese vector with all λ zero cannot be a point")


def beta(v: VeroneseVector, w: VeroneseVector) -> F3:
    """β(v,w) = Σ(⟨x_ν, y_ν⟩ + λ_ν η_ν), the extension of the Okubo polar form;
    the functional ``beta_gram_row(v)`` applied to w."""
    return sum((a * b for a, b in zip(beta_gram_row(v), w.coeffs) if a), F3())


def vnorm(v: VeroneseVector) -> F3:
    """‖v‖ = β(v,v) = 2n(x0)+2n(x1)+2n(x2)+λ0²+λ1²+λ2²."""
    total = F3()
    for xi in v.x:
        total = total + F3(2) * okubo_norm(xi)
    for l in v.lam:
        total = total + l * l
    return total


def incident(q: ProjPoint, line: ProjLine) -> bool:
    return not beta(q.rep, line.w)


def beta_gram_row(v: VeroneseVector):
    """The 27 coefficients of the functional β(v, ·) in flat coordinates."""
    g = gram_matrix(COMPACT)
    row = []
    for xi in v.x:
        row.extend(g.mul_vec(list(xi.coeffs)))
    row.extend(v.lam)
    return row


def sample_affine_point(rng: random.Random) -> AffinePoint:
    return AffinePoint(sample_okubo(rng), sample_okubo(rng))
