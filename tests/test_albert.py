"""The deformed Okubic Albert algebra 𝔸_q(𝒪).

The product with the ⟨x, x⟩ = n(x) scalar-row convention is commutative,
flexible, and unital for every q; its Jordan locus is q = ±1/2, and its
trace-1 rank-1 idempotents at q = 1/2 are exactly the Veronese plane
points.  Left multiplication by any such idempotent has a 10-dimensional
kernel.
"""

import functools
import itertools
import math
import os
import random
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import okubic
from okubic import albert as albert_module
from okubic import field, linalg
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
    sharp,
)
from okubic.linalg import ExactMatrix, Mat3, determinant, nullspace, rank
from okubic.linalg import COMPACT
from okubic.okubo import (
    OkuboElement,
    conjugation_automorphism,
    idempotent,
    okubo_mul,
    okubo_norm,
    polar,
    sample_okubo,
)
from okubic.cli import _cayley_maps

# the seeded points, perturbed points and Albert elements of the cone tests
from test_geometry import _cone_samples

# the left-multiplication, elimination and kernel oracles and the q values
from test_linalg import (
    ALBERT_QS,
    _bits,
    _gauss_jordan_by_scalars,
    _kernel_by_scalars,
    _left_mult_by_scalars,
)

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
    # the product and Gram tables, and so their integer forms, are built on
    # first use, so importing the package stays cheap; the only integer table
    # that exists after import is the split-octonion one of 32 constants
    code = (
        "import gc\n"
        "import okubic\n"
        "from okubic import albert, geometry, hurwitz, linalg, okubo\n"
        "print(okubo.structure_constants.cache_info().currsize,"
        " albert._table.cache_info().currsize,"
        " okubo.gram_table.cache_info().currsize,"
        " geometry.beta_table.cache_info().currsize,"
        " [t is hurwitz.MUL_TABLE for t in gc.get_objects()"
        " if isinstance(t, linalg.SparseTable)])"
    )
    assert _fresh_python(code) == ["0", "0", "0", "0", "[True]"]


@pytest.mark.parametrize("flavor", [linalg.COMPACT, linalg.SPLIT])
def test_cold_okubo_table_reads_each_basis_matrix_once(flavor):
    # the first structure_constants(flavor) writes the table from its stored upper
    # cells and their √3-conjugates: it reads no basis matrix, makes no 3×3 or
    # Michel–Radicati product and builds no C3
    code = (
        "from okubic import field, linalg, okubo\n"
        "calls = []\n"
        "for cls, name in ((okubo.OkuboElement, 'to_matrix'), (linalg.Mat3, '__matmul__'),\n"
        "                  (field.C3, '__init__'), (okubo, 'michel_radicati_mul')):\n"
        "    f = getattr(cls, name)\n"
        "    setattr(cls, name, lambda *a, f=f, name=name: calls.append(name) or f(*a))\n"
        f"okubo.structure_constants({flavor!r})\n"
        "print(*map(calls.count, ('to_matrix', '__matmul__', '__init__', 'michel_radicati_mul')))"
    )
    to_matrix, matmul, c3, michel_radicati = map(int, _fresh_python(code))
    assert to_matrix == 0
    assert matmul == 0
    assert c3 == 0
    assert michel_radicati == 0


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


def _cubic_norm_by_e(a):
    """N = λ0λ1λ2 - Σ λ_ν n(x_ν) + ⟨(x0*e)*(x1*x2), e⟩ through the pinned idempotent
    e of the compact Okubo algebra: the oracle for ``cubic_norm``, which reads no e
    (⟨(x0*e)*y, e⟩ = ⟨x0*e, y*e⟩ = n(e)⟨x0, y⟩ and n(e) = 1)."""
    x0, x1, x2 = a.x
    l0, l1, l2 = a.lam
    e = idempotent(COMPACT)
    return (
        l0 * l1 * l2
        - (l0 * okubo_norm(x0) + l1 * okubo_norm(x1) + l2 * okubo_norm(x2))
        + polar(okubo_mul(okubo_mul(x0, e), okubo_mul(x1, x2)), e)
    )


def test_cubic_norm_matches_the_pinned_idempotent_oracle_bit_for_bit():
    points, perturbed, elements = _cone_samples(607)
    for a in points + perturbed + elements:
        got, want = cubic_norm(a), _cubic_norm_by_e(a)
        assert got == want and hash(got) == hash(want) and _bits([got]) == _bits([want])
        # N(a) = β(a^♯, a)/3
        assert beta(sharp(a), a) == F3(3) * got
    assert not any(map(cubic_norm, points)) and all(map(cubic_norm, elements))


def test_cubic_norm_makes_one_okubo_product_and_reads_no_idempotent(monkeypatch):
    calls = []
    monkeypatch.setattr(albert_module, "okubo_mul",
                        lambda x, y: calls.append(1) or okubo_mul(x, y))
    assert not hasattr(albert_module, "idempotent")
    cubic_norm(sample_albert(random.Random(608)))
    assert len(calls) == 1


def _basis_multisets(f, degree):
    """f polarized on the multisets m = (a ≤ b ≤ …) of `degree` flat basis vectors of 𝔸_q
    (378 pairs, 3654 triples): {m: Σ_T ±f(Σ_{i∈T} b_{m_i})} over the nonempty sets T of
    positions, with sign (-1)^(degree - |T|). On a form f of that degree this is the
    coefficient of t_a t_b … in f(Σ t_i b_i) times the product of the factorials of the
    multiplicities in m: f(b_a + b_b) - f(b_a) - f(b_b), or 2f(b_a) when a = b."""
    @functools.cache
    def value(key):
        return f(AlbertElement._from_ints((tuple(map(key.count, range(27))), (0,) * 27, 1)))

    def polarized(m):
        plus, minus = [], []
        for size in range(1, degree + 1):
            for t in itertools.combinations(m, size):
                (plus if (degree - size) % 2 == 0 else minus).append(value(t))
        return sum(plus[1:], plus[0]) - sum(minus[1:], minus[0])

    return {m: polarized(m) for m in itertools.combinations_with_replacement(range(27), degree)}


def _adjoint_defect(algebra):
    """x ↦ x∘x - T(x)x + T(x^♯)·1 - x^♯, which vanishes on a cubic Jordan algebra with
    adjoint ♯ (McCrimmon, Part II ch. 4)."""
    unit = AlbertElement.unit()

    def defect(x):
        s = sharp(x)
        return algebra.mul(x, x) - x.scale(trace(x)) + unit.scale(trace(s)) - s

    return defect


@pytest.mark.parametrize("q, failing", [(HALF, 0), (-HALF, 192), (Fraction(0), 192),
                                        (Fraction(1), 192)], ids=str)
def test_quadratic_adjoint_certificate(q, failing):
    # x∘x = T(x)x - T(x^♯)·1 + x^♯ holds on all of 𝔸_{1/2} exactly; elsewhere it fails
    # on the 3·64 pairs of basis vectors in two different Okubo slots
    defects = _basis_multisets(_adjoint_defect(AlbertAlgebra(q)), 2)
    assert len(defects) == 378
    assert sum(1 for d in defects.values() if d) == failing


def test_cubic_adjoint_certificate():
    # x^♯∘x = N(x)·1 holds on all of 𝔸_{1/2} exactly, polarized on every basis triple;
    # x^♯ and N(x) read no q, so both q share them
    adjoint_and_norm = functools.cache(lambda x: (sharp(x), cubic_norm(x)))
    unit = AlbertElement.unit()
    for q, failing in ((HALF, 0), (Fraction(1), 816)):
        algebra = AlbertAlgebra(q)

        def defect(x):
            s, n = adjoint_and_norm(x)
            return algebra.mul(s, x) - unit.scale(n)

        defects = _basis_multisets(defect, 3)
        assert len(defects) == 3654
        assert sum(1 for d in defects.values() if d) == failing, q


@pytest.mark.parametrize("q", [Fraction(-1), Fraction(3, 7)], ids=str)
def test_quadratic_adjoint_defect_closed_form(q):
    # the defect is (2q - 1)·(x1*x2, x2*x0, x0*x1; 0, 0, 0), affine in q
    def closed(x):
        x0, x1, x2 = x.x
        return AlbertElement(okubo_mul(x1, x2), okubo_mul(x2, x0), okubo_mul(x0, x1),
                             0, 0, 0).scale(F3(2 * q - 1))

    assert _basis_multisets(_adjoint_defect(AlbertAlgebra(q)), 2) == _basis_multisets(closed, 2)


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


def _minus_identity(m, lam):
    return ExactMatrix([[x - lam if i == j else x for j, x in enumerate(row)]
                        for i, row in enumerate(m.entries)])


def test_peirce_decomposition_of_affine_idempotents():
    # L_ε of a rank-1 idempotent at q = 1/2 splits V into its 0, 1/2 and 1
    # eigenspaces, of dimensions 10, 16 and 1
    rng = random.Random(613)
    for _ in range(3):
        eps = idempotent_from_point(plane_embed(sample_affine_point(rng)))
        op = left_mult_operator(ALBERT_HALF, eps)
        dims = [len(nullspace(_minus_identity(op, lam))) for lam in (0, HALF, 1)]
        assert dims == [10, 16, 1]


def _negate_slots(a):
    """σ(x; λ) = (−x; λ)."""
    return AlbertElement.from_coords([-c for c in a.coeffs[:24]] + list(a.coeffs[24:]))


@pytest.mark.parametrize("q", [HALF, Fraction(1)], ids=str)
def test_slot_negation_maps_a_q_onto_a_minus_q(q):
    # σ(a ∘_q b) = σa ∘_{−q} σb, so 𝔸_q ≅ 𝔸_{−q} and the Jordan locus {±1/2}
    # is symmetric; the identity map is not such an isomorphism
    plus, minus = AlbertAlgebra(q), AlbertAlgebra(-q)
    basis = [AlbertElement.from_coords([int(i == k) for i in range(27)]) for k in range(27)]
    pairs = [(a, b) for a in basis for b in basis]
    assert all(_negate_slots(plus.mul(a, b)) == minus.mul(_negate_slots(a), _negate_slots(b))
               for a, b in pairs)
    assert any(plus.mul(a, b) != minus.mul(a, b) for a, b in pairs)


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


def _graded_triple_by_rotations(phi0, phi1, phi2, rng, samples=50):
    """The oracle for ``is_graded_triple``: all three cyclic rotations per sample,
    equal ones included."""
    phis = (phi0, phi1, phi2)
    for _ in range(samples):
        x = sample_okubo(rng)
        y = sample_okubo(rng)
        xy = okubo_mul(x, y)
        for i in range(3):
            lhs = okubo_mul(phis[i](x), phis[(i + 1) % 3](y))
            if lhs != phis[(i + 2) % 3](xy):
                return False
    return True


def _graded_triple_cases():
    identity = lambda x: x
    double, triple, sextuple = (lambda x, c=c: x.scale(c) for c in (2, 3, 6))
    p0, p1, p2 = _cayley_maps()
    return {
        "phi0-diagonal": (p0, p0, p0),
        "phi1-diagonal": (p1, p1, p1),
        "phi2-diagonal": (p2, p2, p2),
        "phi-id-id": (p0, identity, identity),
        "phi0-phi1-phi2": (p0, p1, p2),
        "identity-diagonal": (identity, identity, identity),
        "id-phi1-id": (identity, p1, identity),
        "doubling-diagonal": (double, double, double),
        # scalings λ, μ, ν with λμ = ν: rotation 0 holds, a later one fails
        "2-1-2": (double, identity, double),
        "2-3-6": (double, triple, sextuple),
    }


@pytest.mark.parametrize("name", list(_graded_triple_cases()))
def test_graded_triple_matches_the_rotation_oracle(name):
    triple = _graded_triple_cases()[name]
    for seed, samples in itertools.product((0, 612, 613), (1, 3, 20)):
        fast, slow = random.Random(seed), random.Random(seed)
        assert is_graded_triple(*triple, fast, samples) == _graded_triple_by_rotations(
            *triple, slow, samples)
        assert fast.getstate() == slow.getstate()


def test_graded_triple_verdicts():
    cases = _graded_triple_cases()
    rng = random.Random(614)
    passing = {name for name, triple in cases.items() if is_graded_triple(*triple, rng, 5)}
    assert passing == {"phi0-diagonal", "phi1-diagonal", "phi2-diagonal", "identity-diagonal"}


def test_diagonal_triple_makes_two_products_per_sample(monkeypatch):
    calls = []
    monkeypatch.setattr(albert_module, "okubo_mul",
                        lambda x, y: calls.append(1) or okubo_mul(x, y))
    phi = _cayley_maps()[0]
    for samples in (1, 7, 20):
        calls.clear()
        assert is_graded_triple(phi, phi, phi, random.Random(615), samples)
        assert len(calls) == 2 * samples


def test_coords_and_json_roundtrip():
    rng = random.Random(611)
    for _ in range(20):
        a = sample_albert(rng)
        assert AlbertElement.from_coords(a.coords()) == a
        assert AlbertElement.from_json(a.to_json()) == a
    # exactly three Okubo slots and three λ, or ValueError
    zero, one = OkuboElement.zero().to_json(), F3(1).to_json()
    for slots, lams in ((2, 3), (4, 3), (3, 2), (3, 4), (2, 4)):
        with pytest.raises(ValueError):
            AlbertElement.from_json({"x": [zero] * slots, "lambda": [one] * lams})


def test_veronese_conversion_roundtrip():
    assert AlbertElement is VeroneseVector
    rng = random.Random(612)
    proj = plane_embed(sample_affine_point(rng))
    assert point_from_idempotent(idempotent_from_point(proj)) == proj


def _left_mult_inputs(q):
    """A seeded affine ε, the three scalar idempotents, the unit and a sampled element."""
    rng = random.Random(f"one-matrix:{q}")
    eps = idempotent_from_point(plane_embed(sample_affine_point(rng)))
    return [eps, *(AlbertElement.scalar_idempotent(i) for i in range(3)), AlbertElement.unit(),
            sample_albert(rng)]


@pytest.mark.parametrize("q", ALBERT_QS, ids=str)
def test_left_mult_operator_matches_the_f3_round_trip(q):
    # the operator as integer rows against the F3 operator read back as integer
    # rows, and everything read from it against the per-scalar elimination
    algebra = AlbertAlgebra(q)
    rng = random.Random(f"one-matrix-vectors:{q}")
    vectors = [sample_albert(rng).coeffs for _ in range(3)]
    for a in _left_mult_inputs(q):
        entries, ints = _left_mult_by_scalars(albert_module._table(algebra.q), a.coeffs)
        op = left_mult_operator(algebra, a)
        assert (op.rows, op.cols) == (27, 27)
        assert list(op.ints) == ints
        assert [_bits(r) for r in op.entries] == [_bits(r) for r in entries]
        for v in vectors:
            want = [sum((x * y for x, y in zip(r, v) if x), F3()) for r in entries]
            assert _bits(op.mul_vec(v)) == _bits(want)
        red, pivots, divisors, sign = _gauss_jordan_by_scalars(
            types.SimpleNamespace(entries=entries, rows=27, cols=27))
        assert rank(op) == len(pivots)
        kernel = nullspace(op)
        assert [_bits(v) for v in kernel] == [_bits(v) for v in _kernel_by_scalars(red, pivots, 27)]
        want_det = math.prod(divisors, start=F3(sign)) if len(pivots) == 27 else F3()
        assert _bits([determinant(op)]) == _bits([want_det])


def _f3_builds_and_ops(monkeypatch):
    """Record every F3 built (``_raw_f3`` in field and linalg, ``F3.__init__``)
    and every F3 sum, product and inverse."""
    built, ops = [], []
    for module in (field, linalg):
        raw = module._raw_f3
        monkeypatch.setattr(module, "_raw_f3", lambda *a, raw=raw: built.append(1) or raw(*a))
    init = F3.__init__
    monkeypatch.setattr(F3, "__init__", lambda self, *a: built.append(1) or init(self, *a))
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__",
                 "__neg__", "__truediv__", "inverse"):
        op = getattr(F3, name)
        monkeypatch.setattr(F3, name, lambda *a, op=op: ops.append(1) or op(*a))
    return built, ops


def test_left_mult_rank_and_kernel_build_almost_no_scalars(monkeypatch):
    # L_ε goes from the table to its rank as integer rows; its kernel builds
    # only the nonzero entries of its 10 vectors in the 17 pivot columns
    rng = random.Random(617)
    eps = idempotent_from_point(plane_embed(sample_affine_point(rng)))
    left_mult_operator(ALBERT_HALF, eps)  # the table is built on first use
    built, ops = _f3_builds_and_ops(monkeypatch)
    assert rank(left_mult_operator(ALBERT_HALF, eps)) == 17
    assert (built, ops) == ([], [])
    kernel = nullspace(left_mult_operator(ALBERT_HALF, eps))
    assert len(kernel) == 10 and 0 < len(built) <= 17 * 10 and ops == []


def test_left_mult_rows_reach_the_elimination_unconverted(monkeypatch):
    assert not hasattr(linalg, "_int_rows")
    assert "_int_rows" not in Path(linalg.__file__).read_text(encoding="utf-8")
    made, seen = [], []
    left, eliminate = albert_module.bilinear_left, linalg._gauss_jordan
    monkeypatch.setattr(albert_module, "bilinear_left",
                        lambda *a: made.append(left(*a)) or made[-1])
    monkeypatch.setattr(linalg, "_gauss_jordan",
                        lambda rows: seen.append(rows) or eliminate(rows))
    rng = random.Random(619)
    eps = idempotent_from_point(plane_embed(sample_affine_point(rng)))
    assert len(nullspace(left_mult_operator(ALBERT_HALF, eps))) == 10
    (rows,), (ints,) = made, seen
    assert len(rows) == len(ints) == 27 and all(r is s for r, s in zip(rows, ints))
