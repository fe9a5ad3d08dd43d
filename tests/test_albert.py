"""The deformed Okubic Albert algebra 𝔸_q(𝒪).

The product with the ⟨x, x⟩ = n(x) scalar-row convention is commutative,
flexible, and unital for every q; its Jordan locus is q = ±1/2, and its
trace-1 rank-1 idempotents at q = 1/2 are exactly the Veronese plane
points.  Left multiplication by any such idempotent has a 10-dimensional
kernel.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import okubic
from okubic import albert as albert_module
from okubic.albert import (
    ALBERT_HALF,
    AlbertAlgebra,
    AlbertElement,
    cubic_norm,
    cyclic_shift,
    idempotent_from_point,
    is_graded_triple,
    is_idempotent,
    is_rank1,
    jordan_defect,
    left_mult_operator,
    lift_okubo_automorphism,
    point_from_idempotent,
    quad_norm,
    sample_albert,
    trace,
    transposition_defect,
)
from okubic.field import F3
from okubic.geometry import (
    INFINITY,
    SlopePoint,
    VeroneseVector,
    beta,
    plane_embed,
    sample_affine_point,
)
from okubic.linalg import ExactMatrix, Mat3, nullspace, rank
from okubic.okubo import OkuboElement, conjugation_automorphism, okubo_mul, polar

B = OkuboElement.basis
W = AlbertElement.okubo_slot
HALF = Fraction(1, 2)
Q_VALUES = (Fraction(-1), HALF, Fraction(1), Fraction(2))


def _witness_pair():
    return W(0, B(0)) + W(1, B(0)), W(0, B(1))


def _slotwise_mul(algebra, a, b):
    """The product stated in ``albert._table``'s docstring, slot by slot: the
    oracle for the structure-constant table behind ``AlbertAlgebra.mul``."""
    half = F3(HALF)
    q = algebra.q
    x, lam = a.x, a.lam
    y, mu = b.x, b.lam
    xs, lams = [], []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        xs.append(
            y[i].scale((lam[j] + lam[k]) * half)
            + x[i].scale((mu[j] + mu[k]) * half)
            + (okubo_mul(x[j], y[k]) + okubo_mul(y[j], x[k])).scale(q)
        )
        lams.append(
            lam[i] * mu[i] + polar(x[j], y[j]) * half + polar(x[k], y[k]) * half
        )
    return AlbertElement(*xs, *lams)


def _left_mult_by_products(algebra, a):
    """Column j is a∘e_j for the flat basis vector e_j: the oracle for
    ``left_mult_operator``, which reads the same table cell by cell."""
    cols = []
    for j in range(27):
        basis_coords = [F3()] * 27
        basis_coords[j] = F3(1)
        out = algebra.mul(a, AlbertElement.from_coords(basis_coords))
        cols.append(out.coords())
    return ExactMatrix([[cols[j][i] for j in range(27)] for i in range(27)])


def _graded_triple_map(phis, shift: int = 1):
    """Φ(w_i(x)) = w_{i+shift}(φ_i(x)), Φ(ω_i(λ)) = ω_{i+shift}(λ)."""
    if len(phis) != 3:
        raise ValueError("need three Okubo automorphisms")

    def mapped(a: AlbertElement) -> AlbertElement:
        xs = [None, None, None]
        lams = [None, None, None]
        for i in range(3):
            xs[(i + shift) % 3] = phis[i](a.x[i])
            lams[(i + shift) % 3] = a.lam[i]
        return AlbertElement(*xs, *lams)

    return mapped


@pytest.mark.parametrize("q", (-1, -HALF, 0, HALF, 1, 2), ids=str)
def test_mul_matches_the_slotwise_oracle(q):
    algebra = AlbertAlgebra(q)
    basis = [
        AlbertElement.from_coords([int(i == j) for i in range(27)]) for j in range(27)
    ]
    for a in basis:
        assert left_mult_operator(algebra, a) == _left_mult_by_products(algebra, a)
        for b in basis:
            assert algebra.mul(a, b) == _slotwise_mul(algebra, a, b)
    rng = random.Random(613)
    for _ in range(20):
        a, b = sample_albert(rng), sample_albert(rng)
        assert algebra.mul(a, b) == _slotwise_mul(algebra, a, b)
    for _ in range(3):
        a = sample_albert(rng)
        assert left_mult_operator(algebra, a) == _left_mult_by_products(algebra, a)


def test_table_cache_hits_for_an_equal_q():
    # _table is cached on the F3 q, so every spelling of one q shares a table
    table = albert_module._table(F3(1) / 2)
    assert albert_module._table(AlbertAlgebra(HALF).q) is table
    assert albert_module._table(ALBERT_HALF.q) is table


def _fresh_python(code):
    """The words ``code`` prints in a new interpreter that imports this okubic."""
    src = os.path.dirname(os.path.dirname(okubic.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.split()


def test_import_builds_no_table():
    # both tables, and so their integer forms, are built on first use, so
    # importing the package stays cheap; the only integer table that exists
    # after import is the split-octonion one of 32 constants
    code = (
        "import gc\n"
        "import okubic\n"
        "from okubic import albert, hurwitz, linalg, okubo\n"
        "print(okubo.structure_constants.cache_info().currsize,"
        " albert._table.cache_info().currsize,"
        " [t is hurwitz.MUL_TABLE for t in gc.get_objects()"
        " if isinstance(t, linalg.SparseTable)])"
    )
    assert _fresh_python(code) == ["0", "0", "[True]"]


def test_import_loads_no_dataclasses_or_inspect():
    # dataclasses, with the inspect module it imports, adds about a MiB to
    # the peak resident size of a run
    code = (
        "import sys\n"
        "import okubic, okubic.cli\n"
        "print('dataclasses' in sys.modules, 'inspect' in sys.modules)"
    )
    assert _fresh_python(code) == ["False", "False"]


def test_unit_and_scalar_idempotents():
    unit = AlbertElement.unit()
    rng = random.Random(601)
    for q in Q_VALUES:
        algebra = AlbertAlgebra(q)
        assert is_idempotent(algebra, unit)
        for _ in range(20):
            a = sample_albert(rng)
            assert algebra.mul(unit, a) == a
            assert algebra.mul(a, unit) == a
        for i in range(3):
            ei = AlbertElement.scalar_idempotent(i)
            assert is_idempotent(algebra, ei)
            for j in range(3):
                if i != j:
                    ej = AlbertElement.scalar_idempotent(j)
                    assert not algebra.mul(ei, ej)


def test_commutativity_and_flexibility():
    rng = random.Random(602)
    for q in Q_VALUES:
        algebra = AlbertAlgebra(q)
        for _ in range(30):
            a, b = sample_albert(rng), sample_albert(rng)
            ab = algebra.mul(a, b)
            assert ab == algebra.mul(b, a)
            assert algebra.mul(ab, a) == algebra.mul(a, algebra.mul(b, a))


def test_jordan_identity_holds_exactly_at_half():
    rng = random.Random(603)
    for q in (HALF, -HALF):
        algebra = AlbertAlgebra(q)
        for _ in range(30):
            a, b = sample_albert(rng), sample_albert(rng)
            assert not jordan_defect(algebra, a, b)


def test_jordan_witness_fails_away_from_half():
    a, b = _witness_pair()
    for q in (Fraction(1), Fraction(-1), Fraction(2)):
        assert jordan_defect(AlbertAlgebra(q), a, b)
    assert not jordan_defect(ALBERT_HALF, a, b)
    assert not jordan_defect(AlbertAlgebra(-HALF), a, b)


def test_idempotents_satisfy_jordan_for_every_q():
    rng = random.Random(604)
    for q in Q_VALUES:
        algebra = AlbertAlgebra(q)
        for i in range(3):
            a = AlbertElement.scalar_idempotent(i)
            b = sample_albert(rng)
            assert not jordan_defect(algebra, a, b)


def test_trace_norm_pinned_values():
    unit = AlbertElement.unit()
    assert trace(unit) == F3(3)
    assert quad_norm(unit) == F3(3)
    assert cubic_norm(unit) == F3(1)
    e2 = AlbertElement.scalar_idempotent(2)
    assert trace(e2) == F3(1)
    assert quad_norm(e2) == F3(1)
    assert cubic_norm(e2) == F3()


def test_inner_is_the_polarized_quadratic_norm():
    """The inner product beta polarizes the quadratic norm."""
    rng = random.Random(605)
    for _ in range(30):
        a, b = sample_albert(rng), sample_albert(rng)
        assert quad_norm(a + b) - quad_norm(a) - quad_norm(b) == F3(2) * beta(a, b)
        assert beta(a, a) == quad_norm(a)


def test_rank1_idempotents_are_the_plane_points():
    rng = random.Random(606)
    for _ in range(50):
        p = sample_affine_point(rng)
        proj = plane_embed(p)
        eps = idempotent_from_point(proj)
        assert trace(eps) == F3(1)
        assert is_rank1(ALBERT_HALF, eps)
        assert quad_norm(eps) == F3(1)
        assert cubic_norm(eps) == F3()
        assert point_from_idempotent(eps) == proj
    for p in (SlopePoint(B(3)), INFINITY):
        eps = idempotent_from_point(plane_embed(p))
        assert is_rank1(ALBERT_HALF, eps)


def test_point_from_idempotent_rejects_non_rank1():
    # each failed condition is named
    with pytest.raises(ValueError, match="trace=3"):
        point_from_idempotent(AlbertElement.unit())
    with pytest.raises(ValueError, match="not idempotent"):
        point_from_idempotent(AlbertElement.scalar_idempotent(0) + W(0, B(1)))


def test_left_mult_kernel_dimensions():
    e0 = AlbertElement.scalar_idempotent(0)
    assert len(nullspace(left_mult_operator(ALBERT_HALF, e0))) == 10
    assert rank(left_mult_operator(ALBERT_HALF, AlbertElement.unit())) == 27
    # every rank-1 idempotent at q = 1/2 has a 10-dimensional kernel,
    # generic affine points included
    rng = random.Random(607)
    eps = idempotent_from_point(plane_embed(sample_affine_point(rng)))
    assert len(nullspace(left_mult_operator(ALBERT_HALF, eps))) == 10


def test_cyclic_shift_is_an_automorphism():
    rng = random.Random(608)
    for q in (HALF, Fraction(1)):
        algebra = AlbertAlgebra(q)
        for _ in range(20):
            a, b = sample_albert(rng), sample_albert(rng)
            assert cyclic_shift(algebra.mul(a, b)) == algebra.mul(
                cyclic_shift(a), cyclic_shift(b)
            )
    a = sample_albert(rng)
    assert cyclic_shift(cyclic_shift(cyclic_shift(a))) == a


def test_transposition_is_not_an_automorphism():
    a = W(0, B(1))
    b = W(1, B(2))
    assert transposition_defect(ALBERT_HALF, a, b)


def test_lifted_okubo_automorphism():
    rng = random.Random(609)
    s = Mat3([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    phi = conjugation_automorphism(s)
    lifted = lift_okubo_automorphism(phi)
    for _ in range(20):
        a, b = sample_albert(rng), sample_albert(rng)
        assert lifted(ALBERT_HALF.mul(a, b)) == ALBERT_HALF.mul(lifted(a), lifted(b))


def test_graded_triples():
    rng = random.Random(610)
    s = Mat3([[0, 0, Fraction(1, 2)], [0, 0, 1], [Fraction(-1, 2), -1, 0]])
    phi = conjugation_automorphism(s)
    assert is_graded_triple(phi, phi, phi, rng, 20)
    identity = lambda x: x
    assert not is_graded_triple(phi, identity, identity, rng, 20)
    # a multiplicative triple shifted one slot preserves the product
    mapped = _graded_triple_map((phi, phi, phi), shift=1)
    for _ in range(20):
        a, b = sample_albert(rng), sample_albert(rng)
        assert mapped(ALBERT_HALF.mul(a, b)) == ALBERT_HALF.mul(mapped(a), mapped(b))


def test_coords_and_json_roundtrip():
    rng = random.Random(611)
    for _ in range(20):
        a = sample_albert(rng)
        assert AlbertElement.from_coords(a.coords()) == a
        assert AlbertElement.from_json(a.to_json()) == a


def test_veronese_conversion_roundtrip():
    assert AlbertElement is VeroneseVector
    rng = random.Random(612)
    proj = plane_embed(sample_affine_point(rng))
    assert point_from_idempotent(idempotent_from_point(proj)) == proj
