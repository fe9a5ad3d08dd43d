"""Okubic projective line, affine plane, Veronese vectors, and the
projective plane with β-incidence."""

import random
from fractions import Fraction

import pytest

from okubic.field import F3
from okubic.geometry import (
    INFINITY,
    AffineLine,
    AffinePoint,
    NotCompactError,
    ProjLine,
    ProjLinePoint,
    ProjPoint,
    SlopePoint,
    VeroneseVector,
    affine_incident,
    affine_join,
    beta,
    beta_gram_row,
    incident,
    line_chart,
    line_embed,
    plane_decode,
    plane_embed,
    sample_affine_point,
    veronese_check,
    vnorm,
)
from okubic.linalg import COMPACT, SPLIT, ExactMatrix, nullspace
from okubic.okubo import OkuboElement, idempotent, okubo_mul, okubo_norm, sample_okubo

B = OkuboElement.basis
E = idempotent(COMPACT)
Z = OkuboElement.zero()


def _beta_complement(points):
    """Exact basis of the β-orthogonal complement of the given vectors in V."""
    if not points:
        return [[F3(int(i == j)) for j in range(27)] for i in range(27)]
    m = ExactMatrix([beta_gram_row(v) for v in points])
    return nullspace(m)


def test_line_embed_pinned_values():
    assert line_embed(Z) == ProjLinePoint(Z, F3(), F3(1))
    assert line_embed(E) == ProjLinePoint(E, F3(1), F3(1))
    assert line_embed(INFINITY) == ProjLinePoint(Z, F3(1), F3())


def test_line_chart_pinned_values():
    assert line_chart(ProjLinePoint(Z, F3(1), F3())) is INFINITY
    two_e = E.scale(F3(2))
    assert line_chart(ProjLinePoint(two_e, F3(4), F3(1))) == two_e
    # ray invariance: scale the representative by -3
    assert line_chart(ProjLinePoint(E.scale(F3(-3)), F3(-3), F3(-3))) == E


def test_line_roundtrip_on_samples():
    rng = random.Random(501)
    for _ in range(200):
        x = sample_okubo(rng)
        ray = line_embed(x)
        assert okubo_norm(ray.x) == ray.xi1 * ray.xi2  # quadric membership
        assert line_chart(ray) == x
    assert line_chart(line_embed(INFINITY)) is INFINITY


def test_quadric_rejects_non_members():
    with pytest.raises(ValueError):
        ProjLinePoint(B(1), F3(1), F3())  # n(i1) = 1/3 ≠ 0
    with pytest.raises(ValueError):
        ProjLinePoint(Z, F3(), F3())  # zero vector is not a ray


def test_ray_equality_is_proportionality():
    p = line_embed(E)
    q = ProjLinePoint(E.scale(F3(-3)), F3(-3), F3(-3))
    assert p == q
    assert p != line_embed(Z)


def test_split_inputs_are_rejected():
    with pytest.raises(NotCompactError):
        line_embed(B(1, SPLIT))
    with pytest.raises(NotCompactError):
        AffinePoint(B(1, SPLIT), B(1, SPLIT))


def test_affine_incidence_pinned_values():
    t = B(4)
    assert affine_incident(AffinePoint(Z, t), AffineLine.sloped(B(2), t))
    assert affine_incident(AffinePoint(E, E + t), AffineLine.sloped(E, t))
    assert affine_incident(AffinePoint(B(5), B(2)), AffineLine.vertical(B(5)))
    with pytest.raises(ValueError):
        affine_incident(AffinePoint(Z, Z), AffineLine.at_infinity())


def test_affine_join_pinned_values():
    assert affine_join(AffinePoint(Z, Z), AffinePoint(Z, E)) == AffineLine.vertical(Z)
    assert affine_join(AffinePoint(E, Z), AffinePoint(Z, Z)) == AffineLine.sloped(Z, Z)
    assert affine_join(AffinePoint(E, E), AffinePoint(Z, Z)) == AffineLine.sloped(E, Z)
    with pytest.raises(ValueError):
        affine_join(AffinePoint(E, E), AffinePoint(E, E))


def test_affine_join_is_incident_with_both_points():
    rng = random.Random(502)
    for _ in range(100):
        p1 = sample_affine_point(rng)
        p2 = sample_affine_point(rng)
        if p1 == p2:
            continue
        line = affine_join(p1, p2)
        assert affine_incident(p1, line)
        assert affine_incident(p2, line)


def test_parallel_lines_share_no_point():
    rng = random.Random(503)
    for _ in range(50):
        s = sample_okubo(rng)
        t1 = sample_okubo(rng)
        t2 = sample_okubo(rng)
        if t1 == t2:
            continue
        x = sample_okubo(rng)
        p = AffinePoint(x, okubo_mul(s, x) + t1)
        assert affine_incident(p, AffineLine.sloped(s, t1))
        assert not affine_incident(p, AffineLine.sloped(s, t2))


def test_veronese_check_pinned_values():
    one = F3(1)
    assert veronese_check(VeroneseVector(Z, Z, Z, one, F3(), F3()))
    assert veronese_check(VeroneseVector(E, E, E, one, one, one))
    assert not veronese_check(VeroneseVector(E, Z, Z, one, one, one))


def test_plane_embed_pinned_values():
    zero, one = F3(), F3(1)
    assert plane_embed(AffinePoint(Z, Z)) == ProjPoint(
        VeroneseVector(Z, Z, Z, zero, zero, one)
    )
    assert plane_embed(SlopePoint(E)) == ProjPoint(
        VeroneseVector(Z, Z, E, one, one, zero)
    )
    assert plane_embed(AffinePoint(E, E)) == ProjPoint(
        VeroneseVector(E, E, E, one, one, one)
    )
    assert plane_embed(INFINITY) == ProjPoint(
        VeroneseVector(Z, Z, Z, one, zero, zero)
    )


def test_plane_decode_pinned_values():
    one = F3(1)
    assert plane_decode(ProjPoint(VeroneseVector(Z, Z, Z, one, F3(), F3()))) is INFINITY
    assert plane_decode(
        ProjPoint(VeroneseVector(E, E, E, one, one, one))
    ) == AffinePoint(E, E)
    three = F3(3)
    assert plane_decode(
        ProjPoint(VeroneseVector(Z, Z, E.scale(three), three, three, F3()))
    ) == SlopePoint(E)


def test_plane_roundtrip_on_samples():
    rng = random.Random(504)
    for _ in range(100):
        p = sample_affine_point(rng)
        emb = plane_embed(p)
        assert veronese_check(emb.rep)
        assert plane_decode(emb) == p
        s = SlopePoint(sample_okubo(rng))
        emb2 = plane_embed(s)
        assert veronese_check(emb2.rep)
        assert plane_decode(emb2) == s
    assert plane_decode(plane_embed(INFINITY)) is INFINITY


def test_beta_pinned_values():
    one = F3(1)
    v_inf = VeroneseVector(Z, Z, Z, one, F3(), F3())
    assert beta(v_inf, v_inf) == one
    assert vnorm(VeroneseVector(E, E, E, one, one, one)) == F3(9)
    origin = plane_embed(AffinePoint(Z, Z)).rep
    assert beta(v_inf, origin) == F3()


def test_beta_symmetry_and_norm():
    rng = random.Random(505)
    for _ in range(50):
        v = plane_embed(sample_affine_point(rng)).rep
        w = plane_embed(sample_affine_point(rng)).rep
        assert beta(v, w) == beta(w, v)
        assert beta(v, v) == vnorm(v)
        assert vnorm(v).is_positive()  # compact flavor: β is definite


def test_incidence_is_representative_independent():
    rng = random.Random(506)
    v_inf = VeroneseVector(Z, Z, Z, F3(1), F3(), F3())
    line = ProjLine(v_inf)
    q = plane_embed(AffinePoint(Z, Z))
    assert incident(q, line)
    assert not incident(ProjPoint(v_inf), line)
    for _ in range(20):
        p = plane_embed(sample_affine_point(rng))
        scaled = ProjPoint(p.rep.scale(F3(Fraction(-5, 3))))
        assert incident(p, line) == incident(scaled, line)


def test_proj_line_needs_a_veronese_vector():
    # the unit is not Veronese: its β-complement is a hyperplane, not a line
    with pytest.raises(ValueError, match="fails the Veronese conditions"):
        ProjLine(VeroneseVector.unit())
    with pytest.raises(ValueError, match="zero vector"):
        ProjLine(VeroneseVector.from_coords([0] * 27))


def test_beta_complement_dimensions():
    assert len(_beta_complement([])) == 27
    v_inf = VeroneseVector(Z, Z, Z, F3(1), F3(), F3())
    assert len(_beta_complement([v_inf])) == 26


def test_beta_complement_of_an_affine_line():
    rng = random.Random(507)
    s, t = sample_okubo(rng), sample_okubo(rng)

    def point_on_line(x):
        return plane_embed(AffinePoint(x, okubo_mul(s, x) + t)).rep

    points = [point_on_line(sample_okubo(rng)) for _ in range(12)]
    basis = _beta_complement(points)
    assert 0 < len(basis) < 27
    fresh = [point_on_line(sample_okubo(rng)) for _ in range(20)]
    for vec in basis:
        w = VeroneseVector.from_coords(vec)
        for p in fresh:
            assert beta(p, w) == F3()
