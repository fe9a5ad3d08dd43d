"""Exact dense linear algebra over Q(√3) and Q(√3, i)."""

import itertools
import random
from fractions import Fraction

import pytest

from okubic import albert, derivations, geometry, hurwitz, okubo
from okubic.albert import sample_albert, trace
from okubic.field import C3, F3, Frozen, sample_f3
from okubic.geometry import VeroneseVector
from okubic.hurwitz import sample_split_octonion
from okubic.linalg import (
    COMPACT,
    SPLIT,
    ExactMatrix,
    Mat3,
    SparseTable,
    Vector,
    _gauss_jordan,
    bilinear,
    bilinear_left,
    determinant,
    eta_dagger,
    is_eta_hermitian,
    nullspace,
    rank,
    rref,
    symmetric_signature,
)
from okubic.okubo import okubo_mul_matrix, okubo_norm, sample_okubo, structure_constants


def _random_mat3(rng):
    return Mat3([[C3(sample_f3(rng), sample_f3(rng)) for _ in range(3)] for _ in range(3)])


def test_mat3_inverse_and_det():
    rng = random.Random(201)
    for _ in range(30):
        m = _random_mat3(rng)
        if not m.det():
            continue
        assert m @ m.inverse() == Mat3.identity()
        assert m.inverse() @ m == Mat3.identity()
    with pytest.raises(ZeroDivisionError):
        Mat3.zero().inverse()


def test_det_is_multiplicative():
    rng = random.Random(202)
    for _ in range(30):
        a, b = _random_mat3(rng), _random_mat3(rng)
        assert (a @ b).det() == a.det() * b.det()


def test_eta_dagger_is_an_involution():
    rng = random.Random(203)
    for flavor in (COMPACT, SPLIT):
        for _ in range(20):
            m = _random_mat3(rng)
            assert eta_dagger(eta_dagger(m, flavor), flavor) == m


def _eta_dagger_by_products(m, flavor):
    """η m† η as two 3×3 products: the oracle for the closed form of
    ``eta_dagger``."""
    eta = Mat3.identity() if flavor == COMPACT else Mat3.diag(-1, 1, 1)
    return eta @ m.dagger() @ eta


def test_eta_dagger_matches_the_product_oracle():
    rng = random.Random(207)
    for flavor in (COMPACT, SPLIT):
        for _ in range(20):
            m = _random_mat3(rng)
            assert eta_dagger(m, flavor) == _eta_dagger_by_products(m, flavor)
    with pytest.raises(ValueError, match="unknown flavor"):
        eta_dagger(Mat3.identity(), "bogus")


def test_eta_hermitian_examples():
    i = C3(0, 1)
    h = Mat3([[1, i, 0], [-i, 0, 2], [0, 2, -1]])
    assert is_eta_hermitian(h, COMPACT)
    assert not is_eta_hermitian(h, SPLIT)
    # first row/column imaginary parts flip sign under η = diag(-1,1,1)
    hs = Mat3([[1, i, i], [i, 0, 2], [i, 2, -1]])
    assert is_eta_hermitian(hs, SPLIT)
    assert not is_eta_hermitian(hs, COMPACT)


def test_rref_pinned_example():
    m = ExactMatrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    red, pivots = rref(m)
    assert pivots == [0, 2]
    assert red.entries[0] == (F3(1), F3(2), F3())
    assert red.entries[1] == (F3(), F3(), F3(1))
    assert rank(m) == 2


def test_nullspace_exactness():
    rng = random.Random(204)
    for _ in range(30):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = ExactMatrix(
            [[sample_f3(rng) for _ in range(cols)] for _ in range(rows)]
        )
        basis = nullspace(m)
        assert len(basis) == cols - rank(m)
        zero = [F3()] * rows
        for v in basis:
            assert m.mul_vec(v) == zero


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(205)
    for _ in range(30):
        entries = [[sample_f3(rng) for _ in range(3)] for _ in range(3)]
        m = ExactMatrix(entries)
        c = Mat3([[C3(x) for x in row] for row in entries])
        assert C3(determinant(m)) == c.det()


def test_determinant_sign_singular_and_shape():
    assert determinant(ExactMatrix([[0, 1], [1, 0]])) == F3(-1)
    assert determinant(ExactMatrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]])) == F3()
    with pytest.raises(ValueError, match="non-square"):
        determinant(ExactMatrix([[1, 2, 3], [4, 5, 6]]))


def _permutation_sign(perm):
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def _leibniz_determinant(entries):
    n = len(entries)
    total = F3()
    for perm in itertools.permutations(range(n)):
        term = F3(_permutation_sign(perm))
        for i in range(n):
            term = term * entries[i][perm[i]]
        total = total + term
    return total


def _sparse_f3(rng):
    # a third of the entries are zero, so pivots need row swaps
    return F3() if rng.randrange(3) == 0 else sample_f3(rng)


@pytest.mark.parametrize("n", [4, 5])
def test_determinant_matches_leibniz_formula(n):
    rng = random.Random(211 + n)
    for _ in range(6):
        entries = [[_sparse_f3(rng) for _ in range(n)] for _ in range(n)]
        assert determinant(ExactMatrix(entries)) == _leibniz_determinant(entries)


def test_signature_of_diagonal_matrices():
    m = ExactMatrix(
        [
            [F3(2), F3(), F3()],
            [F3(), F3(-1, 0), F3()],
            [F3(), F3(), F3()],
        ]
    )
    assert symmetric_signature(m) == (1, 1, 1)
    # entry involving √3: -2 + √3 < 0
    m2 = ExactMatrix([[F3(-2, 1)]])
    assert symmetric_signature(m2) == (0, 1, 0)


def test_signature_needs_off_diagonal_rescue():
    # hyperbolic plane: zero diagonal, signature (1, 1)
    m = ExactMatrix([[F3(), F3(1)], [F3(1), F3()]])
    assert symmetric_signature(m) == (1, 1, 0)


def test_signature_is_congruence_invariant_on_samples():
    rng = random.Random(206)
    for _ in range(20):
        n = 3
        a = [[sample_f3(rng) for _ in range(n)] for _ in range(n)]
        sym = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
        m = ExactMatrix(sym)
        pos, neg, zero = symmetric_signature(m)
        assert pos + neg + zero == n
        assert pos + neg == rank(m)


def test_signature_is_invariant_under_congruence_with_zero_diagonal():
    # a zero diagonal sends the first step, and often later ones, through
    # the off-diagonal rescue
    rng = random.Random(212)
    n = 5
    for _ in range(10):
        a = [[F3()] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a[i][j] = a[j][i] = _sparse_f3(rng)
        p = [[_sparse_f3(rng) for _ in range(n)] for _ in range(n)]
        if not determinant(ExactMatrix(p)):
            continue
        pap = [
            [
                sum(
                    (p[k][i] * a[k][l] * p[l][j] for k in range(n) for l in range(n)),
                    F3(),
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert symmetric_signature(ExactMatrix(pap)) == symmetric_signature(
            ExactMatrix(a)
        )


# The coordinate types share Vector's immutability, equality, hashing and
# linear operations; each case builds two samples of one type.
VECTOR_SAMPLERS = pytest.mark.parametrize(
    "sample", [sample_okubo, sample_split_octonion, sample_albert, _random_mat3],
    ids=["okubo", "split-octonion", "albert", "mat3"],
)


def _vector_pair(sample, seed):
    rng = random.Random(seed)
    return sample(rng), sample(rng)


@VECTOR_SAMPLERS
def test_vectors_are_immutable(sample):
    x, _ = _vector_pair(sample, 207)
    assert isinstance(x, Vector)
    for attr in ("coeffs", "flavor", "x"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(x, attr, None)


# One value of each class that takes its immutability from field.Frozen.
_E, _Z = okubo.idempotent(), okubo.OkuboElement.zero()
FROZEN_VALUES = [
    F3(1, 2),
    C3(1, 2),
    SparseTable([[[(0, 1)]]]),
    Vector(()),
    ExactMatrix([[1, 2]]),
    derivations.AlgebraPresentation([[[1]]]),
    albert.AlbertAlgebra(Fraction(1, 2)),
    geometry.line_embed(_E),
    geometry.AffinePoint(_E, _Z),
    geometry.AffineLine.vertical(_E),
    geometry.SlopePoint(_E),
    geometry.plane_embed(geometry.INFINITY),
    geometry.ProjLine(geometry.plane_embed(geometry.INFINITY).rep),
]


@pytest.mark.parametrize("value", FROZEN_VALUES, ids=lambda v: type(v).__name__)
def test_frozen_values_are_immutable_and_have_no_dict(value):
    name = type(value).__name__
    assert isinstance(value, Frozen)
    slots = [a for cls in type(value).__mro__ for a in getattr(cls, "__slots__", ())]
    for attr in (*slots, "undeclared"):
        with pytest.raises(AttributeError, match=f"^{name} values are immutable$"):
            setattr(value, attr, None)
    assert not hasattr(value, "__dict__")


@VECTOR_SAMPLERS
def test_vector_addition_and_negation(sample):
    x, y = _vector_pair(sample, 208)
    assert x + y - y == x
    assert x + y == y + x
    assert not x + (-x)
    assert x


@VECTOR_SAMPLERS
def test_vector_scale_is_coordinatewise(sample):
    x, _ = _vector_pair(sample, 209)
    c = Fraction(-3, 2)
    assert x.scale(c).coeffs == tuple(type(x).scalar(c) * a for a in x.coeffs)
    assert type(x.scale(c)) is type(x)


@VECTOR_SAMPLERS
def test_equal_vectors_hash_equal(sample):
    x, y = _vector_pair(sample, 210)
    same = -(-x)
    assert same is not x and same == x and hash(same) == hash(x)
    assert len({x, same, y}) == 2


def _bilinear_by_scalars(table, u, v, zero):
    """The per-scalar product loop on the table's own cells: the oracle for
    ``bilinear``, which sums integer numerators over one denominator."""
    out = [zero] * len(table.cells)
    for a, ca in enumerate(u):
        if not ca:
            continue
        row = table.cells[a]
        for b, cb in enumerate(v):
            cell = row[b]
            if not cb or not cell:
                continue
            f = ca * cb
            for k, c in cell:
                out[k] = out[k] + f * c
    return out


# Every table the library builds, with the scalar type of its coordinates.
LIBRARY_TABLES = {
    "okubo": (lambda: structure_constants(COMPACT), F3),
    "split-okubo": (lambda: structure_constants(SPLIT), F3),
    "octonion": (lambda: hurwitz.MUL_TABLE, Fraction),
    "okubo-presentation": (lambda: derivations.okubo_presentation()._table, F3),
    "petersson-presentation": (lambda: derivations.petersson_presentation()._table, F3),
    **{
        f"albert-q={q}": (lambda q=q: albert._table(F3(q)), F3)
        for q in (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2),
                  Fraction(1), Fraction(2))
    },
}


def _kernel_inputs(n, rng):
    """Coordinate vectors of length n over F3: every basis vector, zero,
    seeded samples, coordinates with denominators 1, 2, 3 and 7, and the
    ~33-bit coordinates of the idempotent of a random affine point."""
    basis = [[F3(int(i == j)) for i in range(n)] for j in range(n)]
    samples = [[sample_f3(rng) for _ in range(n)] for _ in range(6)]
    mixed = [
        [F3(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))),
            Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))))
         for _ in range(n)]
        for _ in range(4)
    ]
    # ε = (x, y, x*y; n(y), n(x), 1)/trace, with x*y from the matrix path so
    # that no input depends on the kernel under test
    x, y = sample_okubo(rng), sample_okubo(rng)
    eps = VeroneseVector(x, y, okubo_mul_matrix(x, y), okubo_norm(y), okubo_norm(x), 1)
    eps = eps.scale(trace(eps).inverse()).coeffs
    tall = [list(eps[:n]), list(eps[-n:])]
    return basis, [[F3()] * n] + samples + mixed + tall


@pytest.mark.parametrize("name", LIBRARY_TABLES)
def test_bilinear_matches_the_scalar_oracle(name):
    make, scalar = LIBRARY_TABLES[name]
    table = make()
    n = len(table.cells)
    basis, others = _kernel_inputs(n, random.Random(f"kernel:{name}"))
    if scalar is Fraction:
        basis, others = ([[c.a for c in u] for u in vs] for vs in (basis, others))
    pairs = list(itertools.product(basis, repeat=2)) + list(itertools.product(others, repeat=2))
    for u, v in pairs:
        got = bilinear(table, u, v, scalar)
        want = _bilinear_by_scalars(table, u, v, scalar(0))
        assert got == want
        assert [type(x) for x in got] == [scalar] * n
        assert hash(tuple(got)) == hash(tuple(want))
    if scalar is F3:
        # column b of the left multiplication by u is u times basis vector b
        for u in others:
            cols = [_bilinear_by_scalars(table, u, e, F3()) for e in basis]
            assert bilinear_left(table, u) == [list(row) for row in zip(*cols)]


def _gauss_jordan_by_scalars(m):
    """The per-scalar Gauss–Jordan loop over F3 entries: the oracle for
    ``_gauss_jordan``, which eliminates on integer numerators per row."""
    a = [list(r) for r in m.entries]
    nrows, ncols = m.rows, m.cols
    pivots = []
    divisors = []
    sign = 1
    prow = 0
    for col in range(ncols):
        if prow >= nrows:
            break
        sel = next((r for r in range(prow, nrows) if a[r][col]), None)
        if sel is None:
            continue
        if sel != prow:
            a[prow], a[sel] = a[sel], a[prow]
            sign = -sign
        p = a[prow][col]
        divisors.append(p)
        inv = p.inverse()
        a[prow] = [inv * x for x in a[prow]]
        for r in range(nrows):
            if r != prow and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[prow])]
        pivots.append(col)
        prow += 1
    return a, pivots, divisors, sign


def _bits(values):
    """The stored integer triple and the type of every scalar."""
    return [(type(x), x._an, x._bn, x._d) for x in values]


def _assert_same_elimination(m):
    rows, pivots, divisors, sign = _gauss_jordan(m)
    want_rows, want_pivots, want_divisors, want_sign = _gauss_jordan_by_scalars(m)
    assert [_bits(r) for r in rows] == [_bits(r) for r in want_rows]
    assert (pivots, sign) == (want_pivots, want_sign)
    assert _bits(divisors) == _bits(want_divisors)
    assert len(rows) == m.rows and all(len(r) == m.cols for r in rows)


def _permute_tensor(c, perm, signs):
    """Structure constants in the basis b'_i = s_i b_{π(i)}:
    c'[i][j][k] = s_i s_j s_k c[π i][π j][π k]."""
    n = len(perm)
    return [
        [
            [c[perm[i]][perm[j]][perm[k]] * (signs[i] * signs[j] * signs[k]) for k in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]


def _leibniz_matrix(constants, monkeypatch):
    """The 512×64 system that ``derivation_space`` hands to ``nullspace``."""
    seen = []
    with monkeypatch.context() as patch:
        patch.setattr(derivations, "nullspace", lambda m: seen.append(m) or [])
        derivations.derivation_space(derivations.AlgebraPresentation(constants))
    return seen[0]


DERIVATION_TENSORS = {
    "okubo": lambda: okubo.structure_constants_dense(COMPACT),
    "split-okubo": lambda: okubo.structure_constants_dense(SPLIT),
    "petersson": hurwitz.petersson_structure_constants,
}


@pytest.mark.parametrize("permuted", [False, True], ids=["plain", "signed-permuted"])
@pytest.mark.parametrize("name", DERIVATION_TENSORS)
def test_gauss_jordan_matches_the_scalar_oracle_on_leibniz_systems(name, permuted, monkeypatch):
    constants = DERIVATION_TENSORS[name]()
    if permuted:
        rng = random.Random(f"leibniz:{name}")
        perm = list(range(8))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(8)]
        constants = _permute_tensor(constants, perm, signs)
    m = _leibniz_matrix(constants, monkeypatch)
    assert (m.rows, m.cols) == (512, 64)
    _assert_same_elimination(m)


ALBERT_QS = [Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]


@pytest.mark.parametrize("q", ALBERT_QS, ids=str)
def test_gauss_jordan_matches_the_scalar_oracle_on_left_multiplication(q):
    rng = random.Random(f"left-mult:{q}")
    eps = albert.idempotent_from_point(geometry.plane_embed(geometry.sample_affine_point(rng)))
    algebra = albert.AlbertAlgebra(q)
    for a in (eps, sample_albert(rng)):
        _assert_same_elimination(albert.left_mult_operator(algebra, a))


def _edge_matrices():
    rng = random.Random(213)
    r3 = F3(0, 1)
    # rows: zero, 6 samples, 4 with denominators 1, 2, 3 and 7, and 2 slices
    # of an affine point's idempotent (about 32 bits)
    _, vectors = _kernel_inputs(7, rng)
    big = [
        [F3(Fraction(rng.getrandbits(33) - 2**32, rng.getrandbits(33) | 1),
            Fraction(rng.getrandbits(33) - 2**32, rng.getrandbits(33) | 1))
         for _ in range(7)]
        for _ in range(5)
    ]
    deficient = [[1, 2, 3, 4], [2, 4, 6, 8], [0, 0, 1, 1], [1, 2, 4, 5], [0, 0, 0, 0]]
    return {
        "empty": [],
        "all-zero": [[0] * 4 for _ in range(3)],
        "rank-deficient": deficient,
        "zero-column-first": [[0, 1, 2], [0, 3, 4], [0, 5, 6]],
        "kernel-inputs": vectors,
        "mixed-denominators": vectors[7:11],
        "negative-norm-pivots": [[r3, 1, 2, r3], [1 + r3, r3, 0, 1], [2, 1 + r3, r3, 3]],
        "affine-idempotent": vectors[11:] + vectors[1:4],
        "33-bit": big,
        "sparse-square": [[_sparse_f3(rng) for _ in range(6)] for _ in range(6)],
        "sparse-wide": [[_sparse_f3(rng) for _ in range(9)] for _ in range(4)],
        "sparse-tall": [[_sparse_f3(rng) for _ in range(4)] for _ in range(9)],
    }


@pytest.mark.parametrize("name", list(_edge_matrices()))
def test_gauss_jordan_matches_the_scalar_oracle_on_edge_cases(name):
    m = ExactMatrix(_edge_matrices()[name])
    _assert_same_elimination(m)


def test_gauss_jordan_edge_case_values():
    r3 = F3(0, 1)
    assert _gauss_jordan(ExactMatrix([])) == ([], [], [], 1)
    assert _gauss_jordan(ExactMatrix([[0, 0], [0, 0]]))[1:] == ([], [], 1)
    # pivots √3 and 1 + √3 have norms -3 and -2
    rows, pivots, divisors, sign = _gauss_jordan(ExactMatrix([[0, 1 + r3], [r3, 1]]))
    assert (pivots, divisors, sign) == ([0, 1], [r3, 1 + r3], -1)
    assert rows == [[F3(1), F3()], [F3(), F3(1)]]
    assert determinant(ExactMatrix([[0, 1 + r3], [r3, 1]])) == -r3 * (1 + r3)
