"""Derivation Lie algebras computed from the Leibniz nullspace."""

import random

import pytest

from okubic.derivations import (
    AlgebraPresentation,
    _commutator,
    check_lie_closure,
    check_tau_grading,
    derivation_report,
    derivation_space,
    killing_matrix,
    killing_signature,
    okubo_presentation,
    petersson_presentation,
)
from okubic.field import F3, sample_f3
from okubic.hurwitz import petersson_mul, sample_split_octonion
from okubic.linalg import COMPACT, SPLIT, ExactMatrix
from okubic.okubo import OkuboElement, polar, sample_okubo


def _is_derivation(algebra, d, u, v):
    """Leibniz rule on one coordinate pair: D(u*v) = D(u)*v + u*D(v)."""
    lhs = d.mul_vec(algebra.mul_coords(u, v))
    rhs_a = algebra.mul_coords(d.mul_vec(u), v)
    rhs_b = algebra.mul_coords(u, d.mul_vec(v))
    return lhs == [a + b for a, b in zip(rhs_a, rhs_b)]


COMPACT_PRES = okubo_presentation(COMPACT)
COMPACT_DIM, COMPACT_BASIS = derivation_space(COMPACT_PRES)


def test_compact_okubo_derivations_have_dimension_eight():
    assert COMPACT_DIM == 8


def test_split_okubo_and_petersson_derivations():
    split_dim, split_basis = derivation_space(okubo_presentation(SPLIT))
    assert split_dim == 8
    assert check_lie_closure(split_basis)
    pet_dim, pet_basis = derivation_space(petersson_presentation())
    assert pet_dim == 8
    assert check_lie_closure(pet_basis)


def test_compact_basis_is_lie_closed_with_negative_definite_trace_form():
    assert check_lie_closure(COMPACT_BASIS)
    assert killing_signature(COMPACT_BASIS) == (0, 8, 0)


def test_split_trace_form_has_mixed_signs():
    report = derivation_report(okubo_presentation(SPLIT))
    sig = report["killing_signature"]
    assert report["dimension"] == 8
    assert report["lie_closed"]
    assert sig["pos"] > 0 and sig["neg"] > 0


def test_leibniz_rule_on_random_pairs():
    rng = random.Random(701)
    for d in COMPACT_BASIS:
        for _ in range(100 // len(COMPACT_BASIS) + 1):
            u = [sample_f3(rng) for _ in range(8)]
            v = [sample_f3(rng) for _ in range(8)]
            assert _is_derivation(COMPACT_PRES, d, u, v)


def test_derivations_annihilate_the_polar_form():
    rng = random.Random(702)
    for d in COMPACT_BASIS:
        for _ in range(10):
            x = sample_okubo(rng, COMPACT)
            y = sample_okubo(rng, COMPACT)
            dx = OkuboElement(d.mul_vec(list(x.coeffs)), COMPACT)
            dy = OkuboElement(d.mul_vec(list(y.coeffs)), COMPACT)
            assert polar(dx, y) + polar(x, dy) == F3()


def test_trivial_algebra_derivations():
    dim, basis = derivation_space(AlgebraPresentation([[[0] * 2] * 2] * 2))
    assert dim == 4  # every matrix derives the zero product
    assert check_lie_closure(basis)
    dim8, _ = derivation_space(AlgebraPresentation([[[0] * 8] * 8] * 8))
    assert dim8 == 64


def test_idempotent_line_has_no_derivations():
    # the 1-dimensional algebra b*b = b
    dim, basis = derivation_space(AlgebraPresentation([[[1]]]))
    assert dim == 0
    assert check_lie_closure(basis)
    assert killing_signature(basis) == (0, 0, 0)


def test_tau_grading_holds_for_both_flavors():
    assert check_tau_grading(COMPACT)
    assert check_tau_grading(SPLIT)


def test_presentation_validates_shape():
    with pytest.raises(ValueError):
        AlgebraPresentation([[[F3(1)], [F3()]]])


def test_presentation_product_matches_okubo_product():
    rng = random.Random(703)
    from okubic.okubo import OkuboElement, okubo_mul

    for _ in range(20):
        x = sample_okubo(rng, COMPACT)
        y = sample_okubo(rng, COMPACT)
        via_tensor = COMPACT_PRES.mul_coords(list(x.coeffs), list(y.coeffs))
        assert OkuboElement(via_tensor, COMPACT) == okubo_mul(x, y)
    petersson = petersson_presentation()
    for _ in range(20):
        x = sample_split_octonion(rng)
        y = sample_split_octonion(rng)
        via_tensor = petersson.mul_coords(x.coeffs, y.coeffs)
        assert via_tensor == [F3(c) for c in petersson_mul(x, y).coeffs]


def _dense_commutator(a, b):
    n = a.rows
    return [
        [
            sum((a[i, k] * b[k, j] for k in range(n)), F3())
            - sum((b[i, k] * a[k, j] for k in range(n)), F3())
            for j in range(n)
        ]
        for i in range(n)
    ]


def _dense_trace_form(basis):
    n = basis[0].rows
    return [
        [sum((a[i, k] * b[k, i] for i in range(n) for k in range(n)), F3()) for b in basis]
        for a in basis
    ]


def _random_sparse_matrices():
    # nonzero diagonals, which the derivation bases below do not have
    rng = random.Random(611)
    return [
        ExactMatrix([[sample_f3(rng) if rng.randrange(3) == 0 else F3() for _ in range(8)]
                     for _ in range(8)])
        for _ in range(4)
    ]


@pytest.mark.parametrize(
    "make",
    [lambda: COMPACT_BASIS, lambda: derivation_space(okubo_presentation(SPLIT))[1],
     lambda: derivation_space(petersson_presentation())[1], _random_sparse_matrices],
    ids=["okubo", "split-okubo", "petersson", "random-sparse"],
)
def test_sparse_commutators_and_trace_form_match_the_dense_formulas(make):
    basis = make()
    for a in basis:
        for b in basis:
            got = _commutator(a, b)
            assert got == ExactMatrix(_dense_commutator(a, b))
            assert all(type(x) is F3 for row in got.entries for x in row)
    assert killing_matrix(basis) == ExactMatrix(_dense_trace_form(basis))
