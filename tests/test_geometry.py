"""Okubic projective line, affine plane, Veronese vectors, and the
projective plane with β-incidence."""

import itertools
import random
from fractions import Fraction

import pytest

from okubic.field import F3, sample_f3
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
    _frame_table,
    _put,
    adjoint_table,
    affine_incident,
    affine_join,
    beta,
    incident,
    line_chart,
    line_embed,
    plane_decode,
    plane_embed,
    sample_affine_point,
    sharp,
    veronese_check,
    vnorm,
)
from okubic.cli import _fixed_skew_matrices
from okubic.albert import (
    _table as albert_table,
    idempotent_from_point,
    point_from_idempotent,
    sample_albert,
)
from okubic.derivations import _q_form
from okubic.linalg import COMPACT, SPLIT, ExactMatrix, SparseTable, bilinear, nullspace
from okubic.okubo import (
    FlavorMismatchError,
    OkuboElement,
    conjugation_automorphism,
    gram_matrix,
    gram_table,
    idempotent,
    left_divide,
    mat_norm,
    okubo_mul,
    okubo_norm,
    recovered_conj,
    recovered_oct_mul,
    sample_okubo,
    structure_constants,
)

B = OkuboElement.basis
E = idempotent(COMPACT)
Z = OkuboElement.zero()


def _beta_gram_row(v):
    """The 27 coefficients of the functional β(v, ·) in flat coordinates:
    the Gram matrix applied to each Okubo slot, then the λ."""
    g = gram_matrix(COMPACT)
    row = []
    for xi in v.x:
        row.extend(g.mul_vec(list(xi.coeffs)))
    row.extend(v.lam)
    return row


def _beta_by_gram_row(v, w):
    """β(v, w) as ``_beta_gram_row(v)`` applied to w, one F3 product and sum
    per term: the oracle for ``beta``."""
    return sum((a * b for a, b in zip(_beta_gram_row(v), w.coeffs) if a), F3())


def _vnorm_by_norms(v):
    """‖v‖ = 2n(x0)+2n(x1)+2n(x2)+λ0²+λ1²+λ2², each n(x) as (1/6)Tr(x²) on
    the matrix view: the oracle for ``vnorm``."""
    total = F3()
    for xi in v.x:
        total = total + F3(2) * mat_norm(xi.to_matrix())
    for l in v.lam:
        total = total + l * l
    return total


def _veronese_by_conditions(v):
    """The six Okubo-Veronese conditions compared one by one, stopping at the first
    that fails: the oracle for ``veronese_check``, which reads them as v^♯ = 0."""
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


def _sharp_by_slots(v):
    """v^♯ = (x_j*x_k - λ_i x_i ; λ_jλ_k - n(x_i)) over the cyclic (i, j, k), slot by slot
    through Okubo products, scales and norms: the oracle for ``sharp``."""
    x, lam, cyc = v.x, v.lam, ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    return VeroneseVector(*(okubo_mul(x[j], x[k]) - x[i].scale(lam[i]) for i, j, k in cyc),
                          *(lam[j] * lam[k] - okubo_norm(x[i]) for i, j, k in cyc))


def _cone_samples(seed):
    """Seeded Veronese vectors of plane points of all three kinds, the same vectors
    each with one flat coordinate moved by a nonzero seeded scalar, and seeded Albert
    elements, as three lists."""
    rng = random.Random(seed)
    points = [plane_embed(INFINITY).rep]
    points += [plane_embed(SlopePoint(sample_okubo(rng))).rep for _ in range(15)]
    points += [plane_embed(sample_affine_point(rng)).rep for _ in range(15)]
    perturbed = []
    for v in points:
        coords, k = list(v.coeffs), rng.randrange(27)
        coords[k] = coords[k] + F3(rng.randint(1, 9), rng.randint(-3, 3))
        perturbed.append(VeroneseVector.from_coords(coords))
    return points, perturbed, [sample_albert(rng) for _ in range(30)]


def _beta_complement(points):
    """Exact basis of the β-orthogonal complement of the given vectors in V."""
    if not points:
        return [[F3(int(i == j)) for j in range(27)] for i in range(27)]
    m = ExactMatrix([_beta_gram_row(v) for v in points])
    return nullspace(m)


def _bits(x):
    return type(x), x._an, x._bn, x._d


def test_beta_and_vnorm_match_the_oracles_bit_for_bit():
    rng = random.Random(508)
    vs = [plane_embed(INFINITY).rep]
    vs += [plane_embed(SlopePoint(sample_okubo(rng))).rep for _ in range(5)]
    vs += [plane_embed(sample_affine_point(rng)).rep for _ in range(5)]
    # ~33-bit coordinates: the trace-1 idempotent of an affine point
    vs += [v.scale(sum(v.lam, F3()).inverse()) for v in vs[6:8]]
    vs += [sample_albert(rng) for _ in range(5)]
    # denominators 1, 2, 3 and 7, and random 33-bit coordinates
    mixed = lambda: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))
    big = lambda: Fraction(rng.randint(-(2**33), 2**33), rng.randint(1, 2**33))
    vs += [VeroneseVector.from_coords([F3(part(), part()) for _ in range(27)])
           for part in (mixed, big) for _ in range(2)]
    vs += [VeroneseVector.from_coords([0] * 27)]
    for v in vs:
        got, want = vnorm(v), _vnorm_by_norms(v)
        assert got == want and hash(got) == hash(want) and _bits(got) == _bits(want)
        for w in vs:
            got, want = beta(v, w), _beta_by_gram_row(v, w)
            assert got == want and hash(got) == hash(want) and _bits(got) == _bits(want)


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


def _scaled_line_point(ray, c):
    return ProjLinePoint(ray.x.scale(c), ray.xi1 * c, ray.xi2 * c)


def _plane_points(rng):
    return [INFINITY, SlopePoint(sample_okubo(rng)), sample_affine_point(rng)]


# Rays of each kind, and the ray through the representative scaled by c.
RAYS = {
    "ProjLinePoint": (
        lambda rng: [line_embed(INFINITY), line_embed(sample_okubo(rng))],
        _scaled_line_point,
    ),
    "ProjPoint": (
        lambda rng: [plane_embed(p) for p in _plane_points(rng)],
        lambda ray, c: ProjPoint(ray.rep.scale(c)),
    ),
    "ProjLine": (
        lambda rng: [ProjLine(plane_embed(p).rep) for p in _plane_points(rng)],
        lambda ray, c: ProjLine(ray.w.scale(c)),
    ),
}


@pytest.mark.parametrize("sample, rescale", RAYS.values(), ids=RAYS)
def test_rays_compare_and_hash_by_their_normalised_representative(sample, rescale):
    rng = random.Random(508)
    for _ in range(3):
        for ray in sample(rng):
            scaled = [rescale(ray, F3(c)) for c in (Fraction(-5, 3), 2)]
            for other in scaled:
                assert other == ray and hash(other) == hash(ray)
            assert len({ray, *scaled}) == 1


def test_a_line_point_keys_on_its_representative_with_xi_sum_one():
    # the representative (0, 0, x; ξ1, ξ2, 0) over its trace ξ1 + ξ2
    rng = random.Random(509)
    for ray in [line_embed(INFINITY), *(line_embed(sample_okubo(rng)) for _ in range(5))]:
        for c in (Fraction(-5, 3), 2):
            scaled = _scaled_line_point(ray, F3(c))
            normal = scaled.normal()
            inv = (scaled.xi1 + scaled.xi2).inverse()  # never 0: n(x) = ξ1ξ2 ≥ 0
            assert scaled._key() == normal.ints
            l0, l1, l2 = normal.lam
            assert l0 + l1 == 1 and (l0, l1) == (scaled.xi1 * inv, scaled.xi2 * inv)
            assert normal.slot(2) == scaled.x.scale(inv)
            assert normal.x[:2] == (Z, Z) and not l2


def _key_with_xi_sum_one(ray):
    """The projective line's own normal form: (x, ξ1, ξ2) over ξ1 + ξ2, as F3 values."""
    inv = (ray.xi1 + ray.xi2).inverse()
    return ray.x.scale(inv), ray.xi1 * inv, ray.xi2 * inv


def test_line_points_group_as_their_xi_sum_one_forms():
    rng = random.Random(511)
    rays = [line_embed(INFINITY), line_embed(Z), line_embed(E)]
    rays += [line_embed(sample_okubo(rng)) for _ in range(200)]
    rays += [_scaled_line_point(ray, F3(c)) for ray in rays for c in (Fraction(-5, 3), 2)]
    # one set member per oracle class, and as many members as classes
    groups = {}
    for ray in rays:
        groups.setdefault(_key_with_xi_sum_one(ray), set()).add(ray)
    assert all(len(g) == 1 for g in groups.values()) and len(set(rays)) == len(groups)


def test_the_projective_line_is_the_plane_line_at_infinity():
    # ℓ∞ = e2^⊥: x and ∞ go to the plane points (x) and (∞), as rays of one vector
    l_inf = ProjLine(VeroneseVector.scalar_idempotent(2))
    rng = random.Random(512)
    for p in [INFINITY, *(sample_okubo(rng) for _ in range(50))]:
        point = plane_embed(p if p is INFINITY else SlopePoint(p))
        ray = line_embed(p)
        assert ray.normal() == point.normal()
        assert incident(ray, l_inf) and point_from_idempotent(ray.normal()) == point


def _on_quadric(x, xi1, xi2):
    """The projective line's own membership test: n(x) = ξ1ξ2 and (x, ξ1, ξ2) ≠ 0."""
    return okubo_norm(x) == xi1 * xi2 and bool(x or xi1 or xi2)


def _constructs(x, xi1, xi2):
    try:
        ProjLinePoint(x, xi1, xi2)
    except ValueError:
        return False
    return True


def test_a_line_point_is_constructed_exactly_on_the_quadric():
    rng = random.Random(513)
    triples = [(Z, F3(), F3()), (Z, F3(1), F3()), (Z, F3(), F3(1)), (B(1), F3(1), F3())]
    for _ in range(200):
        x, xi2 = sample_okubo(rng), sample_f3(rng) or F3(1)
        triples.append((x, okubo_norm(x) * xi2.inverse(), xi2))
    triples += [(x.scale(c), xi1 * c, xi2 * c)
                for x, xi1, xi2 in triples for c in (F3(Fraction(-5, 3)), F3(2))]
    triples += [(x, xi1 + sample_f3(rng), xi2) for x, xi1, xi2 in triples]
    assert sum(_on_quadric(*t) for t in triples) > len(triples) // 3
    for t in triples:
        assert _constructs(*t) == _on_quadric(*t), t


def test_a_plane_ray_keys_on_its_trace_one_representative():
    # ℓ∞ = e2^⊥ holds the points (0, 0, x; ξ1, ξ2, 0); e2 is its own trace-1 representative
    e2 = VeroneseVector.scalar_idempotent(2)
    rng = random.Random(510)
    for c in (Fraction(-5, 3), 2):
        line = ProjLine(e2.scale(F3(c)))
        assert line.normal() == e2 and line._key() == e2.ints
        assert not isinstance(line, ProjPoint) and line.w == line.rep
        for p in _plane_points(rng):
            point = ProjPoint(plane_embed(p).rep.scale(F3(c)))
            assert point.normal() == idempotent_from_point(plane_embed(p))
            assert point._key() == point.normal().ints


def test_proj_lines_through_different_veronese_vectors_differ():
    points = [INFINITY, SlopePoint(E), AffinePoint(Z, Z), AffinePoint(E, Z)]
    lines = [ProjLine(plane_embed(p).rep) for p in points]
    for a, b in itertools.combinations(lines, 2):
        assert a != b and not a == b
    assert len(set(lines)) == len(lines)
    # a point and a line given by one vector are values of different types
    assert plane_embed(INFINITY) != lines[0]


def test_proj_line_repr_names_its_vector():
    w = plane_embed(SlopePoint(E)).rep
    assert repr(ProjLine(w)) == f"ProjLine({w!r})"


def test_split_inputs_are_rejected():
    with pytest.raises(NotCompactError):
        line_embed(B(1, SPLIT))
    with pytest.raises(NotCompactError):
        AffinePoint(B(1, SPLIT), B(1, SPLIT))


S = B(1, SPLIT)
COMPACT_ONLY = {
    "recovered_oct_mul": lambda: recovered_oct_mul(S, S),
    "recovered_conj": lambda: recovered_conj(S),
    "left_divide": lambda: left_divide(S, S),
    "cayley-phi": lambda: conjugation_automorphism(_fixed_skew_matrices()[0])(S),
    "AffinePoint": lambda: AffinePoint(E, S),
    "SlopePoint": lambda: SlopePoint(S),
    "AffineLine": lambda: AffineLine.sloped(E, S),
    "VeroneseVector": lambda: VeroneseVector(Z, S, Z, 0, 0, 1),
    "okubo_slot": lambda: VeroneseVector.okubo_slot(2, S),
}


@pytest.mark.parametrize("call", COMPACT_ONLY.values(), ids=COMPACT_ONLY)
def test_compact_only_entry_points_raise_one_error(call):
    # one guard, okubo._require_compact, and one error, a flavor mismatch
    with pytest.raises(NotCompactError) as info:
        call()
    assert isinstance(info.value, FlavorMismatchError) and isinstance(info.value, ValueError)


def test_beta_rejects_an_okubo_element():
    # a shorter operand is rejected, not read against the first rows of the table only
    v = VeroneseVector.unit()
    for call in (lambda: beta(v, B(1)), lambda: beta(B(1), v), lambda: vnorm(B(1))):
        with pytest.raises(ValueError):
            call()


def test_affine_incidence_pinned_values():
    t = B(4)
    assert affine_incident(AffinePoint(Z, t), AffineLine.sloped(B(2), t))
    assert affine_incident(AffinePoint(E, E + t), AffineLine.sloped(E, t))
    assert affine_incident(AffinePoint(B(5), B(2)), AffineLine.vertical(B(5)))
    with pytest.raises(ValueError):
        affine_incident(AffinePoint(Z, Z), AffineLine.at_infinity())


def test_affine_line_takes_exactly_the_fields_of_its_kind():
    # so its key is a normal form: one line, one key
    assert AffineLine("sloped", s=E, t=Z) == AffineLine.sloped(E, Z)
    assert AffineLine("vertical", c=E) == AffineLine.vertical(E)
    assert AffineLine("infinity") == AffineLine.at_infinity()
    for kind, fields in (
        ("sloped", {"s": E, "t": Z, "c": E}),
        ("sloped", {"s": E}),
        ("sloped", {"t": Z, "c": E}),
        ("vertical", {}),
        ("vertical", {"s": E, "c": E}),
        ("infinity", {"s": E}),
        ("parallel", {"s": E, "t": Z}),
    ):
        with pytest.raises(ValueError):
            AffineLine(kind, **fields)


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


def test_veronese_check_matches_the_six_conditions():
    points, perturbed, elements = _cone_samples(509)
    for v in points + perturbed + elements:
        assert veronese_check(v) is _veronese_by_conditions(v)
    assert all(map(veronese_check, points)) and not any(map(veronese_check, elements))
    # the seed moves λ0 of ∞'s vector (0; 1, 0, 0), which stays on the cone; every
    # other move leaves it
    assert [i for i, v in enumerate(perturbed) if veronese_check(v)] == [0]


def _adjoint_samples(seed):
    """The 27 basis vectors, the 351 sums of two of them, 40 seeded Albert elements and
    the plane points of ``_cone_samples``, of all three kinds."""
    basis = [VeroneseVector.from_coords([int(k == a) for k in range(27)]) for a in range(27)]
    sums = [u + w for u, w in itertools.combinations(basis, 2)]
    rng = random.Random(seed)
    return basis + sums + [sample_albert(rng) for _ in range(40)] + _cone_samples(seed)[0]


def test_sharp_is_the_slotwise_adjoint_bit_for_bit():
    vs = _adjoint_samples(510)
    assert len(vs) == 27 + 351 + 40 + 31
    for v in vs:
        got, want = sharp(v), _sharp_by_slots(v)
        assert (type(got), got.ints) == (type(want), want.ints), v


def _adjoint_table_by_loop():
    """B written cell by cell from ``adjoint_table``'s docstring, one loop over the
    cyclic frame: the oracle for the table that ``_frame_table`` writes as (X − Y)/2."""
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


def test_adjoint_table_is_the_loop_oracle():
    got, want = adjoint_table(), _adjoint_table_by_loop()
    assert (got.ints, got.den, got.terms, got.nonzero, got.size) == (
        want.ints, want.den, want.terms, want.nonzero, want.size)


def test_albert_and_adjoint_tables_are_one_three_term_family():
    # X, Y and Z of _frame_table at unit coefficients: 𝔸_q = q·X + Z/2, so the
    # deformation moves only the cross term X, and B = (X − Y)/2
    x, y, z = (_frame_table(*unit) for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    rng = random.Random(512)
    pairs = [(sample_albert(rng), sample_albert(rng)) for _ in range(12)]
    basis = [VeroneseVector.from_coords([int(k == a) for k in range(27)]) for a in range(27)]
    pairs += list(zip(basis, basis[1:] + basis[:1]))

    def product(table, v, w):
        return v._like(bilinear(table, v.ints, w.ints))

    for v, w in pairs:
        xs, ys, zs = (product(t, v, w) for t in (x, y, z))
        assert product(adjoint_table(), v, w) == (xs - ys).scale(Fraction(1, 2))
        for q in (F3(0), F3(Fraction(1, 2)), F3(-1), F3(2), F3(Fraction(-1, 3)), F3(0, 1)):
            deformed = product(albert_table(q), v, w)
            assert deformed == xs.scale(q) + zs.scale(Fraction(1, 2))
            assert deformed - product(albert_table(F3(0)), v, w) == xs.scale(q)


def test_adjoint_table_is_symmetric_with_a_q_form():
    table = adjoint_table()
    assert table is adjoint_table()
    symmetric, rows = table.terms
    assert symmetric and table.ints == tuple(zip(*table.ints))
    # 468 nonempty cells and 774 constants, of which one pass reads 246 and 399
    assert sum(map(len, table.nonzero)) == 468
    assert sum(len(cell) for row in table.nonzero for _, cell in row) == 774
    assert sum(map(len, rows)) == 246
    assert sum(len({*rat, *sq}) for row in rows for _, rat, sq in row) == 399
    assert _q_form(table) is not None


def test_adjoint_table_polarizes_sharp():
    # B(v, w) = ((v + w)^♯ - v^♯ - w^♯)/2, half the cross product v×w
    vs = _adjoint_samples(511)[::7]
    for v, w in zip(vs, vs[1:] + vs[:1]):
        b = v._like(bilinear(adjoint_table(), v.ints, w.ints))
        assert b == (sharp(v + w) - sharp(v) - sharp(w)).scale(Fraction(1, 2))
        assert b == w._like(bilinear(adjoint_table(), w.ints, v.ints))


def test_sharp_pinned_values():
    one, zero = F3(1), F3()
    # the unit is its own adjoint, a point's vector has adjoint 0
    unit = VeroneseVector(Z, Z, Z, one, one, one)
    assert sharp(unit) == unit
    assert not sharp(VeroneseVector(E, E, E, one, one, one))
    # (e, 0, 0; 1, 1, 1): slot 0 is -e and λ0 has 1 - n(e) = 0
    assert sharp(VeroneseVector(E, Z, Z, one, one, one)) == VeroneseVector(
        E.scale(-one), Z, Z, zero, one, one)
    # (x0, x1, x2; 0, 0, 0) ↦ (x1*x2, x2*x0, x0*x1; -n(x0), -n(x1), -n(x2))
    x = (B(1), B(2), B(4))
    assert sharp(VeroneseVector(*x, zero, zero, zero)) == VeroneseVector(
        okubo_mul(x[1], x[2]), okubo_mul(x[2], x[0]), okubo_mul(x[0], x[1]),
        *(-okubo_norm(xi) for xi in x))


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
        back = plane_decode(emb)
        assert back == p and hash(back) == hash(p)
        s = SlopePoint(sample_okubo(rng))
        emb2 = plane_embed(s)
        assert veronese_check(emb2.rep)
        back = plane_decode(emb2)
        assert back == s and hash(back) == hash(s)
        assert p != s and p != INFINITY and s != INFINITY
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
