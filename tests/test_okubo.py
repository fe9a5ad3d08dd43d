"""Okubo algebras (compact and split): product, norm, trivolution,
octonion recovery, Michel–Radicati deformations, exact automorphisms."""

import random
from fractions import Fraction

import pytest

from okubic import field, okubo
from okubic.cli import _fixed_skew_matrices
from okubic.field import C3, F3, SQRT3, sample_f3, sample_rational
from okubic.linalg import (
    COMPACT,
    SPLIT,
    ExactMatrix,
    Mat3,
    SparseTable,
    determinant,
    eta_dagger,
    is_eta_hermitian,
    symmetric_signature,
)
from okubic.albert import sample_albert
from okubic.derivations import derivation_report
from okubic.geometry import (
    AffinePoint,
    SlopePoint,
    VeroneseVector,
    beta,
    plane_embed,
    sample_affine_point,
    vnorm,
)
from okubic.hurwitz import SplitOctonion
from okubic.okubo import (
    FlavorMismatchError,
    HermiticityError,
    OkuboElement,
    SkewHermiticityError,
    THETA_OKUBO,
    basis_matrices,
    bracket,
    cayley_unitary,
    conjugation_automorphism,
    fix_tau,
    gram_matrix,
    idempotent,
    is_positive_definite,
    left_divide,
    mat_norm,
    michel_radicati_mul,
    okubo_mul,
    okubo_mul_matrix,
    okubo_norm,
    polar,
    recovered_conj,
    recovered_oct_mul,
    sample_okubo,
    split_zero_divisor,
    structure_constants,
    structure_constants_dense,
    traceful_mul,
    trivolution,
    trivolution_polar_form,
    zero_divisor_check,
)

# both Okubo tables with cell (1, 2) doubled where the product reads them
from test_cli import broken_okubo_constant  # noqa: F401

B = OkuboElement.basis
THIRD = F3(Fraction(1, 3))


def test_basis_matrices_are_traceless_eta_hermitian():
    for flavor in (COMPACT, SPLIT):
        for m in basis_matrices(flavor):
            assert m.trace() == C3()
            assert is_eta_hermitian(m, flavor)


@pytest.mark.parametrize("flavor", [COMPACT, SPLIT])
def test_closed_form_to_matrix_gives_the_canonical_basis(flavor):
    g = 1 if flavor == COMPACT else -1
    i = C3(0, 1)
    assert basis_matrices(flavor) == (
        Mat3.diag(2, -1, -1),
        Mat3([[0, 1, 0], [g, 0, 0], [0, 0, 0]]),
        Mat3([[0, -g * i, 0], [i, 0, 0], [0, 0, 0]]),
        Mat3.diag(1, -1, 0),
        Mat3([[0, 0, 1], [0, 0, 0], [g, 0, 0]]),
        Mat3([[0, 0, -g * i], [0, 0, 0], [i, 0, 0]]),
        Mat3([[0, 0, 0], [0, 0, 1], [0, 1, 0]]),
        Mat3([[0, 0, 0], [0, 0, -i], [0, i, 0]]),
    )


def test_matrix_coefficient_bijection():
    rng = random.Random(401)
    for flavor in (COMPACT, SPLIT):
        for _ in range(50):
            x = sample_okubo(rng, flavor)
            assert OkuboElement.from_matrix(x.to_matrix(), flavor) == x


@pytest.mark.parametrize("flavor", [COMPACT, SPLIT])
def test_from_matrix_rejects_every_one_entry_perturbation(flavor):
    # off the diagonal a perturbed entry breaks η-Hermiticity; on it, a real one
    # breaks the trace and an imaginary one Hermiticity
    rng = random.Random(426)
    mats = basis_matrices(flavor) + tuple(sample_okubo(rng, flavor).to_matrix() for _ in range(5))
    deltas = (C3(1), C3(0, 1), C3(SQRT3 / 2), C3(0, -SQRT3 / 3))
    for m in mats:
        assert is_eta_hermitian(m, flavor) and eta_dagger(m, flavor) == m
        for k in range(9):
            for delta in deltas:
                bad = m + Mat3([[delta if 3 * i + j == k else 0 for j in range(3)] for i in range(3)])
                with pytest.raises(ValueError) as err:
                    OkuboElement.from_matrix(bad, flavor)
                assert type(err.value) is ValueError
                assert str(err.value) == "matrix is not traceless η-Hermitian for this flavor"
                assert is_eta_hermitian(bad, flavor) == (eta_dagger(bad, flavor) == bad)


def test_pinned_products():
    e = B(0)
    assert okubo_mul(e, e) == e
    assert okubo_mul(e, B(3)) == e - B(3)
    assert okubo_mul(B(1), B(2)) == B(3).scale(-SQRT3 * THIRD)


def test_pinned_norms():
    assert okubo_norm(B(0)) == F3(1)
    for k in range(1, 8):
        assert okubo_norm(B(k, COMPACT)) == THIRD
    # split flavor: γ = -1 flips the sign on i1, i2, i4, i5
    for k in (1, 2, 4, 5):
        assert okubo_norm(B(k, SPLIT)) == -THIRD
    for k in (3, 6, 7):
        assert okubo_norm(B(k, SPLIT)) == THIRD


def test_norm_closed_form_matches_trace_oracle():
    rng = random.Random(402)
    for flavor in (COMPACT, SPLIT):
        for k in range(8):
            b = B(k, flavor)
            assert okubo_norm(b) == mat_norm(b.to_matrix())
            assert _norm_closed_form(b) == mat_norm(b.to_matrix())
        for _ in range(100):
            x = sample_okubo(rng, flavor)
            assert okubo_norm(x) == mat_norm(x.to_matrix())
            assert _norm_closed_form(x) == mat_norm(x.to_matrix())


def _norm_closed_form(x):
    """n(x) = (1/6)Tr(x²) in coordinate closed form, 13 F3 products and 9
    additions: the oracle for ``okubo_norm``, which reads the Gram table."""
    g = 1 if x.flavor == COMPACT else -1
    c = x.coeffs
    diag = c[0] * c[0] + c[0] * c[3] + c[3] * c[3] * THIRD
    offd = (
        g * (c[1] * c[1] + c[2] * c[2] + c[4] * c[4] + c[5] * c[5])
        + c[6] * c[6]
        + c[7] * c[7]
    )
    return diag + offd * THIRD


def _polar_by_norms(x, y):
    """⟨x, y⟩ = n(x+y) - n(x) - n(y) through three closed-form norms: the
    oracle for ``polar``."""
    return _norm_closed_form(x + y) - _norm_closed_form(x) - _norm_closed_form(y)


@pytest.mark.parametrize("flavor", [COMPACT, SPLIT])
def test_forms_match_the_closed_form_oracles_bit_for_bit(flavor):
    rng = random.Random(424)
    basis = [B(k, flavor) for k in range(8)]
    xs = _oracle_elements(rng, flavor)
    pairs = [(x, y) for x in basis for y in basis]
    pairs += [(sample_okubo(rng, flavor), sample_okubo(rng, flavor)) for _ in range(20)]
    pairs += [(x, y) for x in xs for y in xs[8:]]
    for x, y in pairs:
        for got, want in ((polar(x, y), _polar_by_norms(x, y)),
                          (okubo_norm(x), _norm_closed_form(x))):
            assert got == want and hash(got) == hash(want)
            assert _scalar_bits([got]) == _scalar_bits([want])
    # the dense view is the polarization on basis pairs
    g = gram_matrix(flavor)
    assert g == ExactMatrix([[_polar_by_norms(x, y) for y in basis] for x in basis])


def _mu_product(x, y):
    """x*y = μxy + μ̄yx - (1/3)Tr(xy)Id with μ = 1/2 + (√3/6)i, written out
    on the matrix view: the oracle for ``okubo_mul`` and ``okubo_mul_matrix``."""
    mu = C3(F3(Fraction(1, 2)), F3(0, Fraction(1, 6)))
    a, b = x.to_matrix(), y.to_matrix()
    ab, ba = a @ b, b @ a
    m = ab.scale(mu) + ba.scale(mu.conj()) - Mat3.identity().scale(ab.trace() * C3(THIRD))
    return OkuboElement.from_matrix(m, x.flavor)


@pytest.mark.parametrize("flavor", [COMPACT, SPLIT])
def test_products_match_the_mu_product_oracle(flavor):
    # pins the structure table, whose stored cells are read off the matrix path
    rng = random.Random(417)
    pairs = [(B(i, flavor), B(j, flavor)) for i in range(8) for j in range(8)]
    pairs += [(sample_okubo(rng, flavor), sample_okubo(rng, flavor)) for _ in range(20)]
    for x, y in pairs:
        want = _mu_product(x, y)
        assert okubo_mul(x, y) == want
        assert okubo_mul_matrix(x, y) == want


def _structure_constants_by_all_products(flavor):
    """The table from one Michel–Radicati product per ordered pair of basis matrices."""
    mats = basis_matrices(flavor)
    prods = ((michel_radicati_mul(x, y, THETA_OKUBO, flavor) for y in mats) for x in mats)
    return SparseTable(
        [[(k, c) for k, c in enumerate(OkuboElement.from_matrix(m, flavor).coeffs) if c]
         for m in row] for row in prods
    )


@pytest.mark.parametrize("flavor", [COMPACT, SPLIT])
def test_upper_triangle_build_equals_the_all_products_oracle(flavor):
    # the build mirrors cell (s, t) into (t, s) by √3 ↦ -√3, which rests on the basis
    # matrices having no √3 parts and θ having no rational part
    for m in basis_matrices(flavor):
        _, rb, _, ib, _ = m.ints
        assert not any(rb) and not any(ib)
    assert THETA_OKUBO.a == 0
    want = _structure_constants_by_all_products(flavor)
    got = structure_constants(flavor)
    assert (got.ints, got.den) == (want.ints, want.den)


@pytest.mark.parametrize("flavor", [COMPACT, SPLIT])
def test_stored_cells_are_the_all_products_oracle(flavor):
    # the stored upper cells are the oracle's cells s ≤ t as they are stored, over
    # its one denominator 6, and the table written from them reads as the oracle's
    want = _structure_constants_by_all_products(flavor)
    assert want.den == 6
    assert okubo._UPPER_CELLS[flavor] == tuple(
        want.ints[s][t] for s in range(8) for t in range(s, 8))
    assert structure_constants(flavor).terms == want.terms


def _sigma(x):
    """The √3-conjugate √3 ↦ -√3 of an Okubo element, on its stored integers."""
    na, nb, d = x.ints
    return OkuboElement._from_ints((na, tuple(-b for b in nb), d), x.flavor)


@pytest.mark.parametrize("mul", [okubo_mul, okubo_mul_matrix])
@pytest.mark.parametrize("flavor", [COMPACT, SPLIT])
def test_reversed_product_is_the_sqrt3_conjugate(mul, flavor):
    # y*x = σ(σx * σy); on the 64 basis pairs this proves it by bilinearity, and the
    # matrix path checks it without reading the structure table
    rng = random.Random(419)
    pairs = [(B(i, flavor), B(j, flavor)) for i in range(8) for j in range(8)]
    pairs += [(sample_okubo(rng, flavor), sample_okubo(rng, flavor)) for _ in range(300)]
    for x, y in pairs:
        assert mul(y, x) == _sigma(mul(_sigma(x), _sigma(y)))


def test_structure_constant_path_equals_matrix_path():
    rng = random.Random(403)
    for flavor in (COMPACT, SPLIT):
        for i in range(8):
            for j in range(8):
                x, y = B(i, flavor), B(j, flavor)
                assert okubo_mul(x, y) == okubo_mul_matrix(x, y)
        for _ in range(100):
            x, y = sample_okubo(rng, flavor), sample_okubo(rng, flavor)
            assert okubo_mul(x, y) == okubo_mul_matrix(x, y)


def test_composition_and_symmetric_composition():
    rng = random.Random(404)
    for flavor in (COMPACT, SPLIT):
        for _ in range(200):
            x, y = sample_okubo(rng, flavor), sample_okubo(rng, flavor)
            assert okubo_norm(okubo_mul(x, y)) == okubo_norm(x) * okubo_norm(y)
            nx = y.scale(okubo_norm(x))
            assert okubo_mul(x, okubo_mul(y, x)) == nx
            assert okubo_mul(okubo_mul(x, y), x) == nx


def test_non_unitality():
    rng = random.Random(405)
    e = idempotent(COMPACT)
    probes = [sample_okubo(rng) for _ in range(5)]
    assert any(okubo_mul(e, x) != x for x in probes)
    for _ in range(200):
        u = sample_okubo(rng)
        assert any(okubo_mul(u, x) != x for x in probes)


def test_flavor_mismatch_is_rejected():
    for op in (okubo_mul, polar, lambda x, y: x + y, lambda x, y: x - y):
        with pytest.raises(FlavorMismatchError):
            op(B(1, COMPACT), B(1, SPLIT))
    # the Cayley automorphisms act on the compact flavor only
    phi = conjugation_automorphism(_fixed_skew_matrices()[0])
    with pytest.raises(FlavorMismatchError):
        phi(B(1, SPLIT))


def test_division_dichotomy():
    assert is_positive_definite(COMPACT)
    assert not is_positive_definite(SPLIT)
    d = split_zero_divisor()
    assert d.flavor == SPLIT
    assert okubo_norm(d) == F3()
    assert zero_divisor_check(d, random.Random(406), 50)


def test_zero_divisor_check_is_false_on_a_broken_product(broken_okubo_constant):
    # the norm reads the Gram table, so n(d) = 0 still holds, but (d*x)*d ≠ 0: a broken
    # product is a False result, not an error
    d = split_zero_divisor()
    assert okubo_norm(d) == F3()
    rng = random.Random(406)
    assert any(okubo_mul(okubo_mul(d, sample_okubo(rng, SPLIT)), d) for _ in range(50))
    assert zero_divisor_check(d, random.Random(406), 50) is False


def test_left_division_solves_exactly():
    rng = random.Random(407)
    for _ in range(100):
        a, b = sample_okubo(rng), sample_okubo(rng)
        if not a:
            continue
        s = left_divide(b, a)
        assert okubo_mul(s, a) == b
    with pytest.raises(ZeroDivisionError):
        left_divide(B(0), OkuboElement.zero())


def test_trivolution_defining_formulas_agree_on_basis():
    for flavor in (COMPACT, SPLIT):
        for k in range(8):
            b = B(k, flavor)
            assert trivolution(b) == trivolution_polar_form(b)


def test_trivolution_is_an_order_three_automorphism():
    rng = random.Random(408)
    for flavor in (COMPACT, SPLIT):
        for _ in range(100):
            x, y = sample_okubo(rng, flavor), sample_okubo(rng, flavor)
            assert trivolution(trivolution(trivolution(x))) == x
            assert trivolution(okubo_mul(x, y)) == okubo_mul(
                trivolution(x), trivolution(y)
            )


def test_fix_tau_splits_in_four_plus_four():
    fixed_basis = {0, 3, 6, 7}
    for k in range(8):
        fixed, moving = fix_tau(B(k))
        assert fixed + moving == B(k)
        if k in fixed_basis:
            assert fixed == B(k) and not moving
        else:
            assert moving == B(k) and not fixed
    rng = random.Random(409)
    for _ in range(50):
        x = sample_okubo(rng)
        fixed, moving = fix_tau(x)
        assert fixed + moving == x
        assert trivolution(fixed) == fixed


def test_octonion_recovery():
    rng = random.Random(410)
    e = idempotent(COMPACT)
    for _ in range(200):
        x, y = sample_okubo(rng), sample_okubo(rng)
        assert recovered_oct_mul(e, x) == x
        assert recovered_oct_mul(x, e) == x
        assert okubo_norm(recovered_oct_mul(x, y)) == okubo_norm(x) * okubo_norm(y)
        assert recovered_oct_mul(x, recovered_oct_mul(x, y)) == recovered_oct_mul(
            recovered_oct_mul(x, x), y
        )
        assert recovered_oct_mul(recovered_oct_mul(y, x), x) == recovered_oct_mul(
            y, recovered_oct_mul(x, x)
        )
        assert recovered_oct_mul(x, recovered_conj(x)) == e.scale(okubo_norm(x))


def _trivolution_by_products(x):
    """τ(x) = e*(e*x), two Okubo products: the oracle for ``trivolution``."""
    e = idempotent(x.flavor)
    return okubo_mul(e, okubo_mul(e, x))


def _recovered_oct_mul_by_products(x, y):
    """x·y = (e*x)*(y*e), three Okubo products: the oracle for ``recovered_oct_mul``."""
    e = idempotent(COMPACT)
    return okubo_mul(okubo_mul(e, x), okubo_mul(y, e))


def _recovered_conj_by_products(x):
    """x̄ = e*τ(x), three Okubo products: the oracle for ``recovered_conj``."""
    return okubo_mul(idempotent(COMPACT), _trivolution_by_products(x))


def _stored(x):
    return x.flavor, x.ints


@pytest.mark.parametrize("flavor", [COMPACT, SPLIT])
def test_trivolution_map_matches_the_product_oracle(flavor):
    # the same stored form on the basis, zero, mixed and ≈33-bit coefficients and
    # 300 samples: both paths are exact and end in the canonical form
    rng = random.Random(430)
    xs = _oracle_elements(rng, flavor) + [sample_okubo(rng, flavor) for _ in range(300)]
    for x in xs:
        assert _stored(trivolution(x)) == _stored(_trivolution_by_products(x))


def test_recovered_maps_match_the_product_oracles():
    rng = random.Random(431)
    basis = [B(k) for k in range(8)]
    xs = _oracle_elements(rng, COMPACT) + [sample_okubo(rng) for _ in range(300)]
    pairs = [(x, y) for x in basis for y in basis]
    pairs += [(x, y) for x, y in zip(xs, xs[1:] + xs[:1])]
    pairs += [(x, x) for x in xs[8:]]
    for x in xs:
        assert _stored(recovered_conj(x)) == _stored(_recovered_conj_by_products(x))
    for x, y in pairs:
        assert _stored(recovered_oct_mul(x, y)) == _stored(_recovered_oct_mul_by_products(x, y))


def test_recovered_table_is_unital_with_compact_g2_derivations():
    # row 0 and column 0 are the identity, which on the 64 basis pairs proves
    # e·x = x = x·e by bilinearity; Der of the octonions is compact g₂
    table = okubo._idempotent_maps(COMPACT)[2]
    one = F3(1)
    assert [table.cells[0][b] for b in range(8)] == [((b, one),) for b in range(8)]
    assert [table.cells[a][0] for a in range(8)] == [((a, one),) for a in range(8)]
    assert sum(len(cell) for row in table.ints for cell in row) == 83
    assert derivation_report(table) == {
        "dimension": 14, "lie_closed": True, "killing_signature": {"pos": 0, "neg": 14, "zero": 0}}


COMPACT_ONLY = {
    "recovered_oct_mul-left": lambda z: recovered_oct_mul(z, B(1)),
    "recovered_oct_mul-right": lambda z: recovered_oct_mul(B(1), z),
    "recovered_conj": lambda z: recovered_conj(z),
    "left_divide-divisor": lambda z: left_divide(B(1), z),
    "left_divide-dividend": lambda z: left_divide(z, B(1)),
    "cayley-phi": lambda z: conjugation_automorphism(_fixed_skew_matrices()[0])(z),
    "affine-point": lambda z: AffinePoint(z, B(1)),
    "slope-point": lambda z: SlopePoint(z),
    "veronese-vector": lambda z: VeroneseVector(B(1), z, B(1), 1, 1, 1),
    "okubo-slot": lambda z: VeroneseVector.okubo_slot(0, z),
}
EITHER_FLAVOR = {
    "trivolution": trivolution,
    "trivolution_polar_form": trivolution_polar_form,
    "fix_tau": fix_tau,
}


@pytest.mark.parametrize("call", [*COMPACT_ONLY.values(), *EITHER_FLAVOR.values()],
                         ids=[*COMPACT_ONLY, *EITHER_FLAVOR])
def test_an_operand_of_another_kind_is_a_type_error_before_its_flavor(call):
    # the kind is checked before the flavor is read
    with pytest.raises(TypeError, match="expected OkuboElement, got SplitOctonion"):
        call(SplitOctonion.basis(1))


@pytest.mark.parametrize("call", COMPACT_ONLY.values(), ids=COMPACT_ONLY)
def test_a_split_operand_of_a_compact_only_entry_point_is_a_flavor_error(call):
    with pytest.raises(FlavorMismatchError):
        call(B(1, SPLIT))


def test_bracket_satisfies_jacobi_and_grading():
    rng = random.Random(411)
    for _ in range(100):
        x, y, z = (sample_okubo(rng) for _ in range(3))
        jac = (
            bracket(bracket(x, y), z)
            + bracket(bracket(y, z), x)
            + bracket(bracket(z, x), y)
        )
        assert not jac
        assert bracket(x, y) == -bracket(y, x)
    g0 = {0, 3, 6, 7}
    for i in range(8):
        for j in range(8):
            br = bracket(B(i), B(j))
            even = (i in g0) == (j in g0)
            allowed = g0 if even else {1, 2, 4, 5}
            assert all(not c or k in allowed for k, c in enumerate(br.coeffs))


def test_michel_radicati_composition_iff_okubo_theta():
    rng = random.Random(412)
    for _ in range(100):
        x = sample_okubo(rng).to_matrix()
        y = sample_okubo(rng).to_matrix()
        for theta in (THETA_OKUBO, -THETA_OKUBO):
            assert mat_norm(michel_radicati_mul(x, y, theta)) == mat_norm(
                x
            ) * mat_norm(y)
    # θ = 0 witness: the matrices of i1 and i2
    bm = basis_matrices(COMPACT)
    wx, wy = bm[1], bm[2]
    assert mat_norm(michel_radicati_mul(wx, wy, F3())) != mat_norm(wx) * mat_norm(wy)


def test_michel_radicati_at_okubo_theta_is_the_split_product():
    rng = random.Random(418)
    for _ in range(20):
        x, y = sample_okubo(rng, SPLIT), sample_okubo(rng, SPLIT)
        prod = michel_radicati_mul(x.to_matrix(), y.to_matrix(), THETA_OKUBO, SPLIT)
        assert prod == okubo_mul(x, y).to_matrix()


def test_michel_radicati_rejects_bad_input():
    i1 = basis_matrices(COMPACT)[1]
    for x, y in ((Mat3.identity(), Mat3.identity()), (i1, Mat3.identity())):
        with pytest.raises(HermiticityError, match="input must be traceless"):
            michel_radicati_mul(x, y, F3())
    skew = Mat3([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    for x, y in ((skew, skew), (i1, skew)):
        with pytest.raises(HermiticityError, match="input is not η-Hermitian for this flavor"):
            michel_radicati_mul(x, y, F3())
    # i1 of the compact algebra: traceless and Hermitian, but η x† η ≠ x
    # for η = diag(-1, 1, 1)
    with pytest.raises(HermiticityError, match="input is not η-Hermitian for this flavor"):
        michel_radicati_mul(i1, i1, THETA_OKUBO, flavor=SPLIT)


@pytest.mark.parametrize("flavor", [COMPACT, SPLIT])
def test_matrix_view_product_counts(flavor, monkeypatch):
    # Hermiticity and Tr(x²) are read off the entries; each product of two
    # matrices is the one 3×3 product xy, and yx is η(xy)†η
    rng = random.Random(419)
    x, y = sample_okubo(rng, flavor).to_matrix(), sample_okubo(rng, flavor).to_matrix()
    calls = []
    matmul = Mat3.__matmul__
    monkeypatch.setattr(Mat3, "__matmul__", lambda a, b: calls.append(1) or matmul(a, b))

    def products(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    assert products(is_eta_hermitian, x, flavor) == 0
    assert products(mat_norm, x) == 0
    assert products(traceful_mul, x, y, THETA_OKUBO, flavor) == 1
    assert products(michel_radicati_mul, x, y, THETA_OKUBO, flavor) == 1


@pytest.mark.parametrize("flavor", [COMPACT, SPLIT])
def test_forms_make_no_scalar_products_or_sums(flavor, monkeypatch):
    # each form is one integer pass over a Gram table that builds its one
    # value at the end: no F3 product or sum on the way
    rng = random.Random(425)
    x, y = sample_okubo(rng, flavor), sample_okubo(rng, flavor)
    v = plane_embed(sample_affine_point(rng)).rep
    w = sample_albert(rng)
    # the signature is Schur complements on integer rows through linalg._cleared;
    # the hyperbolic plane is one [[0, 1], [1, 0]] block
    forms = [(okubo_norm, x), (polar, x, y), (symmetric_signature, gram_matrix(flavor)),
             (symmetric_signature, ExactMatrix([[0, 1], [1, 0]]))]
    if flavor == COMPACT:
        forms += [(beta, v, w), (vnorm, w)]
    for fn, *args in forms:
        fn(*args)  # the tables are built on first use
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__", "inverse"):
        op = getattr(F3, name)
        monkeypatch.setattr(F3, name, lambda *a, op=op: calls.append(1) or op(*a))
    for fn, *args in forms:
        fn(*args)
        assert calls == [], fn.__name__


def _traceful_by_two_products(x, y, theta, flavor):
    """(1/2+iθ)xy + (1/2-iθ)yx as the two 3×3 products xy and yx: the oracle
    for ``traceful_mul``, which makes one and combines integer numerators."""
    cp = C3(F3(Fraction(1, 2)), F3.coerce(theta))
    return (x @ y).scale(cp) + (y @ x).scale(cp.conj())


def _mat_norm_by_scalars(m):
    """(1/6)Σ m_ij·m_ji as C3 products: the oracle for ``mat_norm``."""
    t = sum(m[i, j] * m[j, i] for i in range(3) for j in range(3))
    if t.im:
        raise ValueError("trace of x² must be real")
    return t.re * F3(Fraction(1, 6))


def _scalar_bits(values):
    return [(type(x), x._an, x._bn, x._d) for x in values]


def _mat3_bits(m):
    return type(m), [(type(z), *_scalar_bits((z.re, z.im))) for z in m.coeffs]


def _oracle_elements(rng, flavor):
    """The basis, zero, seeded samples, coefficients with denominators 1, 2,
    3 and 7, and coefficients with ≈33-bit numerators and denominators."""
    dens = (1, 2, 3, 7)
    mixed = lambda: Fraction(rng.randint(-9, 9), rng.choice(dens))
    big = lambda: Fraction(rng.randint(-(2**33), 2**33), rng.randint(1, 2**33))
    xs = [B(k, flavor) for k in range(8)] + [OkuboElement.zero(flavor)]
    xs += [sample_okubo(rng, flavor) for _ in range(8)]
    xs += [OkuboElement([F3(part(), part()) for _ in range(8)], flavor)
           for part in (mixed, big) for _ in range(4)]
    return xs


@pytest.mark.parametrize("flavor", [COMPACT, SPLIT])
def test_traceful_mul_matches_two_products_bit_for_bit(flavor):
    rng = random.Random(422)
    # traceful η-Hermitian inputs: an Okubo matrix plus a rational multiple of Id
    mats = [x.to_matrix() + Mat3.identity().scale(sample_rational(rng))
            for x in _oracle_elements(rng, flavor)]
    thetas = (F3(), F3(1), THETA_OKUBO, -THETA_OKUBO, sample_f3(rng))
    for x, y in zip(mats, mats[1:] + mats[:1]):
        for a, b in ((x, y), (x, x), (y, x)):
            for theta in thetas:
                got = traceful_mul(a, b, theta, flavor)
                want = _traceful_by_two_products(a, b, theta, flavor)
                assert got == want
                assert hash(got) == hash(want)
                assert _mat3_bits(got) == _mat3_bits(want)


def test_mat_norm_matches_the_scalar_oracle_bit_for_bit():
    rng = random.Random(423)
    mats = [x.to_matrix() for flavor in (COMPACT, SPLIT) for x in _oracle_elements(rng, flavor)]
    mats += [traceful_mul(x, y, sample_f3(rng)) for x, y in zip(mats[:17], mats[1:18])]
    for m in mats:
        got, want = mat_norm(m), _mat_norm_by_scalars(m)
        assert got == want and hash(got) == hash(want)
        assert _scalar_bits([got]) == _scalar_bits([want])
    # Tr(x²) = 2i for x = diag(1 + i, 0, 0)
    for m in (Mat3.diag(C3(1, 1), 0, 0), Mat3([[0, 1, 0], [C3(0, 1), 0, 0], [0, 0, 0]])):
        with pytest.raises(ValueError, match="trace of x² must be real"):
            _mat_norm_by_scalars(m)
        with pytest.raises(ValueError, match="trace of x² must be real"):
            mat_norm(m)


def test_cayley_phi_makes_no_matrix_products(monkeypatch):
    # the 3×3 products u·b·u† are made once per s, when φ is built
    phis = [conjugation_automorphism(s) for s in _fixed_skew_matrices()]
    calls = []
    matmul = Mat3.__matmul__
    monkeypatch.setattr(Mat3, "__matmul__", lambda a, b: calls.append(1) or matmul(a, b))
    x = sample_okubo(random.Random(420))
    for phi in phis:
        phi(x)
    assert calls == []


def test_cayley_phi_build_keeps_the_images_as_integers(monkeypatch):
    # φ's rows are written from the stored integers of the 8 basis images, and
    # cayley_unitary reads the stored Mat3.identity(): a build makes no F3 value
    for s in _fixed_skew_matrices():
        built = []
        init = field._init_f3
        monkeypatch.setattr(field, "_init_f3", lambda *a: built.append(1) or init(*a))
        conjugation_automorphism(s)
        monkeypatch.undo()
        assert len(built) == 0


def test_okubo_norm_halves_the_polar_form_with_one_f3(monkeypatch):
    # n(x) = ⟨x, x⟩/2 on the elements of the norm tests: the same value, hash and stored
    # parts as polar(x, x) / 2, with the one F3 of the result built per call
    rng = random.Random(402)
    xs = [x for flavor in (COMPACT, SPLIT) for x in _oracle_elements(rng, flavor)]
    xs += [sample_okubo(rng, flavor) for flavor in (COMPACT, SPLIT) for _ in range(100)]
    init = field._init_f3
    for x in xs:
        want = polar(x, x) / 2
        built = []
        monkeypatch.setattr(field, "_init_f3", lambda *a: built.append(1) or init(*a))
        got = okubo_norm(x)
        monkeypatch.undo()
        assert len(built) == 1
        assert got == want and hash(got) == hash(want)
        assert (got._an, got._bn, got._d) == (want._an, want._bn, want._d)


def test_traceful_product_satisfies_jordan_identity_for_every_theta():
    rng = random.Random(413)
    for _ in range(50):
        x = sample_okubo(rng).to_matrix() + Mat3.identity().scale(
            sample_rational(rng)
        )
        y = sample_okubo(rng).to_matrix() + Mat3.identity().scale(
            sample_rational(rng)
        )
        for theta in (F3(), F3(1), THETA_OKUBO, SQRT3):
            xx = traceful_mul(x, x, theta)
            lhs = traceful_mul(traceful_mul(x, y, theta), xx, theta)
            rhs = traceful_mul(x, traceful_mul(y, xx, theta), theta)
            assert lhs == rhs


def test_cayley_automorphisms():
    rng = random.Random(414)
    for s in _fixed_skew_matrices():
        u = cayley_unitary(s)
        assert u @ u.dagger() == Mat3.identity()
        phi = conjugation_automorphism(s)
        for _ in range(30):
            x, y = sample_okubo(rng), sample_okubo(rng)
            assert phi(okubo_mul(x, y)) == okubo_mul(phi(x), phi(y))
            assert okubo_norm(phi(x)) == okubo_norm(x)
    with pytest.raises(SkewHermiticityError):
        cayley_unitary(Mat3.identity())


def _phi_by_conjugation(s):
    """Cayley automorphism x ↦ u x u† through the 3×3 matrix view (oracle)."""
    u = cayley_unitary(s)
    udag = u.dagger()
    return lambda x: OkuboElement.from_matrix(u @ x.to_matrix() @ udag, COMPACT)


def _bits(x):
    return x.flavor, [(type(c), c._an, c._bn, c._d) for c in x.coeffs]


def test_cayley_phi_matches_conjugation_bit_for_bit():
    rng = random.Random(421)
    inputs = [B(k) for k in range(8)] + [OkuboElement.zero()]
    inputs += [sample_okubo(rng) for _ in range(200)]
    # mixed denominators 1, 2, 3 and 7 in both parts of the coefficients
    dens = (1, 2, 3, 7)
    inputs += [
        OkuboElement([
            F3(Fraction(rng.randint(-9, 9), rng.choice(dens)),
               Fraction(rng.randint(-9, 9), rng.choice(dens)))
            for _ in range(8)
        ])
        for _ in range(20)
    ]
    # about 33-bit numerators and denominators
    big = lambda: Fraction(rng.randint(-(2**33), 2**33), rng.randint(1, 2**33))
    inputs += [OkuboElement([F3(big(), big()) for _ in range(8)]) for _ in range(20)]
    for s in _fixed_skew_matrices():
        fast, slow = conjugation_automorphism(s), _phi_by_conjugation(s)
        for x in inputs:
            want, got = slow(x), fast(x)
            assert got == want
            assert hash(got) == hash(want)
            assert _bits(got) == _bits(want)


def test_gram_signatures_are_pinned():
    assert symmetric_signature(gram_matrix(COMPACT)) == (8, 0, 0)
    assert symmetric_signature(gram_matrix(SPLIT)) == (4, 4, 0)


def test_compact_gram_leading_minors_are_positive():
    # Sylvester's criterion, an oracle for is_positive_definite that does
    # not go through symmetric_signature
    g = gram_matrix(COMPACT).entries
    for k in range(1, 9):
        assert determinant(ExactMatrix([r[:k] for r in g[:k]])).is_positive()


def test_gram_matrix_and_structure_tensor_shapes():
    g = gram_matrix(COMPACT)
    assert g.rows == g.cols == 8
    assert g[0, 0] == F3(2)  # ⟨e, e⟩ = 2n(e)
    dense = structure_constants_dense(COMPACT)
    assert len(dense) == 8 and len(dense[0]) == 8 and len(dense[0][0]) == 8


def test_polar_is_the_norm_linearization():
    rng = random.Random(415)
    for flavor in (COMPACT, SPLIT):
        for _ in range(50):
            x, y = sample_okubo(rng, flavor), sample_okubo(rng, flavor)
            assert polar(x, y) == okubo_norm(x + y) - okubo_norm(x) - okubo_norm(y)
            assert polar(x, x) == F3(2) * okubo_norm(x)


def test_json_roundtrip():
    rng = random.Random(416)
    for flavor in (COMPACT, SPLIT):
        for _ in range(20):
            x = sample_okubo(rng, flavor)
            assert OkuboElement.from_json(x.to_json()) == x
    # a list of 8 coefficients and a bare rational c (meaning c·e) are compact
    assert OkuboElement.from_json([0, "1/2", 0, 0, 0, 0, 0, {"a": 0, "b": 1}]) == (
        OkuboElement.basis(1).scale(F3(Fraction(1, 2))) + OkuboElement.basis(7).scale(SQRT3)
    )
    assert OkuboElement.from_json("-2") == OkuboElement.basis(0).scale(F3(-2))
    assert OkuboElement.from_json({"flavor": SPLIT, "coeffs": [1, 0, 0, 0, 0, 0, 0, 0]}) == (
        OkuboElement.basis(0, SPLIT)
    )
    with pytest.raises(ValueError):
        OkuboElement.from_json([1, 2])
