"""Okubo algebras (compact and split): product, norm, trivolution,
octonion recovery, Michel–Radicati deformations, exact automorphisms."""

import random
from fractions import Fraction

import pytest

from okubic.field import C3, F3, SQRT3, sample_rational
from okubic.linalg import (
    COMPACT,
    SPLIT,
    ExactMatrix,
    Mat3,
    determinant,
    is_eta_hermitian,
    symmetric_signature,
)
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
    structure_constants_dense,
    traceful_mul,
    trivolution,
    trivolution_polar_form,
    zero_divisor_check,
)

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
        for _ in range(100):
            x = sample_okubo(rng, flavor)
            assert okubo_norm(x) == mat_norm(x.to_matrix())


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
    # pins the structure table, which is built through okubo_mul_matrix
    rng = random.Random(417)
    pairs = [(B(i, flavor), B(j, flavor)) for i in range(8) for j in range(8)]
    pairs += [(sample_okubo(rng, flavor), sample_okubo(rng, flavor)) for _ in range(20)]
    for x, y in pairs:
        want = _mu_product(x, y)
        assert okubo_mul(x, y) == want
        assert okubo_mul_matrix(x, y) == want


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
    for op in (okubo_mul, lambda x, y: x + y, lambda x, y: x - y):
        with pytest.raises(FlavorMismatchError):
            op(B(1, COMPACT), B(1, SPLIT))


def test_division_dichotomy():
    assert is_positive_definite(COMPACT)
    assert not is_positive_definite(SPLIT)
    d = split_zero_divisor()
    assert d.flavor == SPLIT
    assert okubo_norm(d) == F3()
    assert zero_divisor_check(d, random.Random(406), 50)


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
    # matrices is the two 3×3 products xy and yx
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
    assert products(traceful_mul, x, y, THETA_OKUBO, flavor) == 2
    assert products(michel_radicati_mul, x, y, THETA_OKUBO, flavor) == 2


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
    skews = (
        Mat3([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
        Mat3([[0, 0, Fraction(1, 2)], [0, 0, 1], [Fraction(-1, 2), -1, 0]]),
        Mat3(
            [
                [C3(0, 1), C3(0, Fraction(1, 3)), 0],
                [C3(0, Fraction(1, 3)), C3(0, -1), 1],
                [0, -1, 0],
            ]
        ),
    )
    for s in skews:
        u = cayley_unitary(s)
        assert u @ u.dagger() == Mat3.identity()
        phi = conjugation_automorphism(s)
        for _ in range(30):
            x, y = sample_okubo(rng), sample_okubo(rng)
            assert phi(okubo_mul(x, y)) == okubo_mul(phi(x), phi(y))
            assert okubo_norm(phi(x)) == okubo_norm(x)
    with pytest.raises(SkewHermiticityError):
        cayley_unitary(Mat3.identity())


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
