"""Okubic projective line, affine plane, and projective plane.

The projective plane consists of rays on the Veronese cone v^♯ = 0 (``sharp``) in
𝒪³×Q(√3)³, with incidence given by the bilinear form β; each is one pass over a
closed-form ``bilinear`` table built from the Okubo tables (``adjoint_table``,
``beta_table``).  The projective line, the quadric n(x) = ξ1ξ2, is the plane's line at
infinity ℓ∞ = e2^⊥.  Everything here is for the compact (division) flavor only.
"""

from __future__ import annotations

import functools
import math
import random
from .field import F3, Frozen, _raw_f3
from .linalg import COMPACT, SparseTable, Vector, _canonical, bilinear
from .okubo import (
    OkuboElement,
    gram_table,
    okubo_mul,
    okubo_norm,
    left_divide,
    sample_okubo,
    structure_constants,
)


class Infinity(Frozen):
    """The point at infinity of the projective line."""

    __slots__ = ()

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


class AffinePoint(Frozen):
    __slots__ = ("x", "y")

    def __init__(self, x: OkuboElement, y: OkuboElement):
        _require_compact(x, y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def _key(self):
        return self.x, self.y

    def __repr__(self):
        return f"AffinePoint({self.x!r}, {self.y!r})"

    def to_json(self):
        return {"x": self.x.to_json(), "y": self.y.to_json()}


class AffineLine(Frozen):
    """[s, t] = {(x, s*x+t)}, vertical [c] = {c}×𝒪, or the line at infinity."""

    __slots__ = ("kind", "s", "t", "c")

    # the fields each kind takes; the others stay None, so _key is a normal form
    _FIELDS = {"sloped": ("s", "t"), "vertical": ("c",), "infinity": ()}

    def __init__(self, kind, s=None, t=None, c=None):
        fields = {"s": s, "t": t, "c": c}
        given = tuple(name for name, value in fields.items() if value is not None)
        if given != self._FIELDS.get(kind):
            raise ValueError(f"no AffineLine of kind {kind!r} has the fields {given}")
        _require_compact(*(fields[name] for name in given))
        object.__setattr__(self, "kind", kind)
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @classmethod
    def sloped(cls, s, t) -> AffineLine:
        return cls("sloped", s=s, t=t)

    @classmethod
    def vertical(cls, c) -> AffineLine:
        return cls("vertical", c=c)

    @classmethod
    def at_infinity(cls) -> AffineLine:
        return cls("infinity")

    def _key(self):
        return self.kind, self.s, self.t, self.c

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

    def _key(self):
        return self.s

    def __repr__(self):
        return f"SlopePoint({self.s!r})"


def _concat(pieces):
    """The stored form of the vector whose coordinates are those of the forms (na, nb, d)
    of ``pieces`` in turn, over the lcm of their denominators, with one gcd divided out."""
    d = math.lcm(*(e for _, _, e in pieces))
    scaled = [(d // e, na, nb) for na, nb, e in pieces]
    return _canonical(([m * x for m, na, _ in scaled for x in na],
                       [m * x for m, _, nb in scaled for x in nb]), d)


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
        lam = self._ints_of([self.scalar(l) for l in (l0, l1, l2)])
        object.__setattr__(self, "ints", _concat((x0.ints, x1.ints, x2.ints, lam)))

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
        na, nb, d = x.ints
        before, after = (0,) * (8 * i), (0,) * (19 - 8 * i)
        return cls._from_ints((before + na + after, before + nb + after, d))

    def slot(self, i: int) -> OkuboElement:
        """The Okubo slot x_i, read from the stored integers."""
        (na, nb, d), k = self.ints, 8 * i
        return OkuboElement._from_ints(_canonical((na[k:k + 8], nb[k:k + 8]), d))

    @property
    def x(self):
        """The Okubo slots (x0, x1, x2)."""
        return tuple(map(self.slot, range(3)))

    @property
    def lam(self):
        """The scalars (λ0, λ1, λ2)."""
        na, nb, d = self.ints
        return tuple(_raw_f3(na[k], nb[k], d) for k in (24, 25, 26))

    def __repr__(self):
        return f"VeroneseVector({self.x!r}; {self.lam!r})"

    def coords(self):
        """Flat 27-tuple over F3: three Okubo slots then three scalars."""
        return self.coeffs

    def to_json(self):
        return {
            "x": [xi.to_json() for xi in self.x],
            "lambda": [l.to_json() for l in self.lam],
        }

    @classmethod
    def from_json(cls, obj) -> VeroneseVector:
        """The one parser of a Veronese vector (Albert element):
        {"x": [x0, x1, x2], "lambda": [λ0, λ1, λ2]}, each slot read by
        ``OkuboElement.from_json`` and each λ by ``F3.from_json``; any other
        count of slots or of λ raises ValueError."""
        x0, x1, x2 = (OkuboElement.from_json(x) for x in obj["x"])
        l0, l1, l2 = (F3.from_json(l) for l in obj["lambda"])
        return cls(x0, x1, x2, l0, l1, l2)


def _put(cells, a, b, cell):
    """Set cell (a, b) of a symmetric table, which is cell (b, a) too."""
    cells[a][b] = cells[b][a] = tuple(cell)


@functools.cache
def adjoint_table() -> SparseTable:
    """The symmetric table B with B(v, v) = v^♯ and 2B(v, w) = v×w, the cross product, from
    the compact Okubo structure constants and Gram table: for each cyclic (i, j, k),
    B((x; λ), (y; μ)) has slot i (x_j*y_k + y_j*x_k - λ_i y_i - μ_i x_i)/2 and scalar i
    (λ_jμ_k + μ_jλ_k - ⟨x_i, y_i⟩)/2."""
    sc, g = structure_constants(COMPACT).cells, gram_table(COMPACT).cells
    half = F3(1) / 2
    cells = [[()] * 27 for _ in range(27)]
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        _put(cells, 24 + j, 24 + k, [(24 + i, half)])
        for s in range(8):
            _put(cells, 24 + i, 8 * i + s, [(8 * i + s, -half)])
            for t in range(8):
                _put(cells, 8 * j + s, 8 * k + t, [(8 * i + m, c * half) for m, c in sc[s][t]])
                _put(cells, 8 * i + s, 8 * i + t, [(24 + i, -c * half) for _, c in g[s][t]])
    return SparseTable(cells)


def sharp(v: VeroneseVector) -> VeroneseVector:
    """The adjoint v^♯ = (x_j*x_k - λ_i x_i ; λ_jλ_k - n(x_i)) over the cyclic (i, j, k),
    one ``bilinear`` pass over ``adjoint_table``: the Veronese cone is its zero set, and
    N(v) = β(v^♯, v)/3."""
    return v._like(bilinear(adjoint_table(), v.ints, v.ints))


def veronese_check(v: VeroneseVector) -> bool:
    """The six Okubo-Veronese conditions, exactly: v^♯ = 0."""
    return not sharp(v)


def trace(v: VeroneseVector) -> F3:
    """λ0 + λ1 + λ2, summed on the stored integers."""
    na, nb, d = v.ints
    return _raw_f3(sum(na[24:]), sum(nb[24:]), d)


class _ConeRay(Frozen):
    """Ray of a nonzero vector ``rep`` on the Veronese cone, compared by ``normal()``."""

    __slots__ = ("rep",)
    _ZERO = "zero vector does not represent a point"

    def __init__(self, rep: VeroneseVector):
        if not rep:
            raise ValueError(self._ZERO)
        if not veronese_check(rep):
            raise ValueError("representative fails the Veronese conditions")
        object.__setattr__(self, "rep", rep)

    def normal(self) -> VeroneseVector:
        """The trace-1 representative, the ray's rank-1 idempotent of 𝔸_{1/2}: on the
        cone λ_jλ_k = n(x_i) ≥ 0, so the λ share one sign, and trace 0 forces v = 0."""
        return self.rep.scale(trace(self.rep).inverse())

    def _key(self):
        return self.normal().ints

    def __repr__(self):
        return f"{type(self).__name__}({self.rep!r})"


class ProjPoint(_ConeRay):
    """Ray of a nonzero Veronese vector."""

    __slots__ = ()


class ProjLine(_ConeRay):
    """ℓ_w = w^⊥ for a nonzero Veronese vector w, stored as ``rep``."""

    __slots__ = ()
    _ZERO = "zero vector does not define a line"

    @property
    def w(self) -> VeroneseVector:
        return self.rep


class ProjLinePoint(_ConeRay):
    """Ray ℝ(x, ξ1, ξ2) on the quadric n(x) = ξ1ξ2, stored as the point ``rep`` =
    (0, 0, x; ξ1, ξ2, 0) of ℓ∞, where v^♯ = 0 is n(x) = ξ1ξ2 and the trace is ξ1 + ξ2."""

    __slots__ = ()

    def __init__(self, x: OkuboElement, xi1, xi2):
        z = OkuboElement.zero()
        super().__init__(VeroneseVector(z, z, x, xi1, xi2, 0))

    @property
    def x(self) -> OkuboElement:
        return self.rep.slot(2)

    @property
    def xi1(self) -> F3:
        return self.rep.lam[0]

    @property
    def xi2(self) -> F3:
        return self.rep.lam[1]


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
        return AffinePoint(v.slot(0).scale(inv), v.slot(1).scale(inv))
    if l1:
        return SlopePoint(v.slot(2).scale(l1.inverse()))
    if l0:
        return INFINITY
    raise ValueError("Veronese vector with all λ zero cannot be a point")


def line_embed(p) -> ProjLinePoint:
    """x ↦ ℝ(x, n(x), 1); ∞ ↦ ℝ(0, 1, 0): the vectors ``plane_embed`` gives (x) and (∞)."""
    if p is INFINITY:
        return ProjLinePoint(OkuboElement.zero(), 1, 0)
    return ProjLinePoint(p, okubo_norm(p), 1)


def line_chart(q: ProjLinePoint):
    """Inverse of ``line_embed``, ``plane_decode`` on ℓ∞: (s) gives s, and (∞) gives ∞."""
    p = plane_decode(q)
    return p if p is INFINITY else p.s


@functools.cache
def beta_table() -> SparseTable:
    """β as a one-coordinate ``bilinear`` table on the flat coordinates: the
    compact Okubo Gram table on each slot and 1 on each λ."""
    g = gram_table(COMPACT).cells
    cells = [[()] * 27 for _ in range(27)]
    for i in (0, 8, 16):
        for s in range(8):
            cells[i + s][i:i + 8] = g[s]
    for l in range(24, 27):
        cells[l][l] = ((0, 1),)
    return SparseTable(cells, 1)


def beta(v: VeroneseVector, w: VeroneseVector) -> F3:
    """β(v,w) = Σ(⟨x_ν, y_ν⟩ + λ_ν η_ν), the extension of the Okubo polar form:
    one ``bilinear`` pass over ``beta_table``."""
    (a,), (b,), d = bilinear(beta_table(), v.ints, w.ints)
    return _raw_f3(a, b, d)


def vnorm(v: VeroneseVector) -> F3:
    """‖v‖ = β(v,v) = 2n(x0)+2n(x1)+2n(x2)+λ0²+λ1²+λ2²."""
    return beta(v, v)


def incident(q: ProjPoint, line: ProjLine) -> bool:
    return not beta(q.rep, line.w)


def sample_affine_point(rng: random.Random) -> AffinePoint:
    return AffinePoint(sample_okubo(rng), sample_okubo(rng))
