"""Exact linear algebra over Q(√3) and Q(√3, i)."""

import ast
import collections
import copy
import importlib.util
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from okubic import albert, derivations, field, geometry, hurwitz, linalg, okubo
from okubic.albert import sample_albert, trace
from okubic.cli import _fixed_skew_matrices
from okubic.field import C3, F3, Frozen, _raw_f3, sample_f3, sample_rational
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
    _numerators,
    _vector_ints,
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
from okubic.okubo import mat_norm, okubo_mul_matrix, sample_okubo, structure_constants


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
    for singular in (Mat3.zero(), Mat3.diag(1, 1, 0)):
        with pytest.raises(ZeroDivisionError):
            singular.inverse()


def _inverse_by_scalars(m):
    """The determinant and the inverse by C3 cofactors: the oracle for ``Mat3.det``
    and ``Mat3.inverse``, which run on integer parts."""
    r = m.rows
    det = (
        r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
        - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
        + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
    )
    if not det:
        return det, None
    dinv = det.inverse()
    # the adjugate: entry (j, i) is the (i, j) cofactor
    return det, Mat3([
        [dinv * (r[(i + 1) % 3][(j + 1) % 3] * r[(i + 2) % 3][(j + 2) % 3]
                 - r[(i + 1) % 3][(j + 2) % 3] * r[(i + 2) % 3][(j + 1) % 3])
         for i in range(3)]
        for j in range(3)
    ])


def test_integer_inverse_matches_the_scalar_oracle_bit_for_bit():
    rng = random.Random(216)
    groups = _oracle_mat3s()
    inputs = [_random_mat3(rng) for _ in range(300)]
    inputs += groups["denominators-1-2-3-7"] + groups["33-bit"]
    inputs += [Mat3.identity() + s for s in _fixed_skew_matrices()]
    inverted = 0
    for m in inputs:
        det, inv = _inverse_by_scalars(m)
        assert _bits((m.det().re, m.det().im)) == _bits((det.re, det.im))
        if inv is None:
            with pytest.raises(ZeroDivisionError):
                m.inverse()
            continue
        inverted += 1
        assert m.inverse().ints == inv.ints
    assert inverted > 300


def test_det_is_multiplicative():
    rng = random.Random(202)
    for _ in range(30):
        a, b = _random_mat3(rng), _random_mat3(rng)
        assert (a @ b).det() == a.det() * b.det()


def _matmul_by_scalars(a, b):
    """The 3×3 product as 27 C3 products: the oracle for ``Mat3.__matmul__``,
    which sums integer numerators over one denominator per matrix."""
    a, b = a.rows, b.rows
    return Mat3([
        [a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j] for j in range(3)]
        for i in range(3)
    ])


def _mat3_bits(m):
    """The type of every entry and part, and the stored integer triple of every part."""
    return type(m), [(type(z), *_bits((z.re, z.im))) for z in m.coeffs]


def _oracle_mat3s():
    """Zero, the identity, seeded samples, entries with denominators 1, 2, 3
    and 7, and entries with ≈33-bit numerators and denominators."""
    rng = random.Random(215)
    dens = (1, 2, 3, 7)
    mixed = lambda: Fraction(rng.randint(-9, 9), rng.choice(dens))
    big = lambda: Fraction(rng.randint(-(2**33), 2**33), rng.randint(1, 2**33))

    def of(part):
        return Mat3([[C3(F3(part(), part()), F3(part(), part())) for _ in range(3)]
                     for _ in range(3)])

    return {
        "zero": [Mat3.zero()],
        "identity": [Mat3.identity()],
        "random": [_random_mat3(rng) for _ in range(12)],
        "denominators-1-2-3-7": [of(mixed) for _ in range(8)],
        "33-bit": [of(big) for _ in range(4)],
    }


@pytest.mark.parametrize("name", list(_oracle_mat3s()))
def test_matmul_matches_the_scalar_oracle_bit_for_bit(name):
    groups = _oracle_mat3s()
    pool = [m for ms in groups.values() for m in ms]
    for a in groups[name]:
        for b in pool:
            for x, y in ((a, b), (b, a)):
                got, want = x @ y, _matmul_by_scalars(x, y)
                assert got == want
                assert hash(got) == hash(want)
                assert _mat3_bits(got) == _mat3_bits(want)


def test_eta_dagger_is_an_involution():
    rng = random.Random(203)
    for flavor in (COMPACT, SPLIT):
        for _ in range(20):
            m = _random_mat3(rng)
            assert eta_dagger(eta_dagger(m, flavor), flavor) == m


def _eta_dagger_by_products(m, flavor):
    """η m† η as two 3×3 products, m† built from the conjugated entries: the oracle for
    the closed form of ``eta_dagger``."""
    eta = Mat3.identity() if flavor == COMPACT else Mat3.diag(-1, 1, 1)
    dagger = Mat3([[m[j, i].conj() for j in range(3)] for i in range(3)])
    return eta @ dagger @ eta


def test_eta_dagger_matches_the_product_oracle():
    rng = random.Random(207)
    for flavor in (COMPACT, SPLIT):
        for _ in range(20):
            m = _random_mat3(rng)
            assert eta_dagger(m, flavor) == _eta_dagger_by_products(m, flavor)
    with pytest.raises(ValueError, match="unknown flavor"):
        eta_dagger(Mat3.identity(), "bogus")


def _dagger_by_transposed_parts(m):
    """The transposed parts of m, the imaginary ones negated: the oracle for
    ``Mat3.dagger``, which is ``eta_dagger`` at η = Id."""
    ra, rb, ia, ib, d = m.ints
    t = (0, 3, 6, 1, 4, 7, 2, 5, 8)
    return Mat3._from_ints((*(tuple(p[k] for k in t) for p in (ra, rb)),
                            *(tuple(-p[k] for k in t) for p in (ia, ib)), d))


def test_dagger_is_the_eta_adjoint_at_the_identity():
    rng = random.Random(212)
    mats = [Mat3.zero(), Mat3.identity()] + [_random_mat3(rng) for _ in range(300)]
    for m in mats:
        got, want = m.dagger(), _dagger_by_transposed_parts(m)
        assert got.ints == want.ints and _mat3_bits(got) == _mat3_bits(want)
        assert [type(p) for p in got.ints] == [tuple] * 4 + [int]


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
        with pytest.raises(ValueError, match="shape mismatch"):
            m.mul_vec([F3()] * (cols + 1))


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


def _mixed_f3(rng):
    # a third zero; otherwise a + b√3 with denominators 1, 2, 3 and 7
    if rng.randrange(3) == 0:
        return F3()
    return F3(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))),
              Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))))


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


def _congruence_samples():
    rng = random.Random(206)
    samples = []
    for _ in range(20):
        a = [[sample_f3(rng) for _ in range(3)] for _ in range(3)]
        samples.append([[a[i][j] + a[j][i] for j in range(3)] for i in range(3)])
    return samples


def test_signature_is_congruence_invariant_on_samples():
    for sym in _congruence_samples():
        m = ExactMatrix(sym)
        pos, neg, zero = symmetric_signature(m)
        assert pos + neg + zero == 3
        assert pos + neg == rank(m)


def _zero_diagonal_pairs():
    """Pairs (A, PᵀAP) for a zero-diagonal A and an invertible P."""
    rng = random.Random(212)
    n = 5
    pairs = []
    for _ in range(10):
        a = [[F3()] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a[i][j] = a[j][i] = _sparse_f3(rng)
        p = [[_sparse_f3(rng) for _ in range(n)] for _ in range(n)]
        if determinant(ExactMatrix(p)):
            pairs.append((a, _congruent(p, a)))
    return pairs


def test_signature_is_invariant_under_congruence_with_zero_diagonal():
    # a zero diagonal sends the first step, and often later ones, through
    # the off-diagonal rescue
    for a, pap in _zero_diagonal_pairs():
        assert symmetric_signature(ExactMatrix(pap)) == symmetric_signature(ExactMatrix(a))


def _congruent(p, a):
    """Pᵀ A P over F3."""
    n, k = len(a), len(p[0])
    return [[sum((p[r][i] * a[r][s] * p[s][j] for r in range(n) for s in range(n)), F3())
             for j in range(k)] for i in range(k)]


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
    # a presentation is a plain SparseTable, under its own id
    pytest.param(derivations.AlgebraPresentation([[[1]]]), id="AlgebraPresentation"),
    albert.AlbertAlgebra(Fraction(1, 2)),
    geometry.line_embed(_E),
    geometry.AffinePoint(_E, _Z),
    geometry.AffineLine.vertical(_E),
    geometry.SlopePoint(_E),
    geometry.plane_embed(geometry.INFINITY),
    geometry.ProjLine(geometry.plane_embed(geometry.INFINITY).rep),
    geometry.INFINITY,
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


def _slope_point(k):
    return geometry.SlopePoint(okubo.OkuboElement.basis(k))


def _affine_point(k):
    return geometry.AffinePoint(okubo.idempotent(), okubo.OkuboElement.basis(k))


def _proj_line(p):
    return geometry.ProjLine(geometry.plane_embed(p).rep)


# Each class with a value key: a builder called twice for twins, and a value
# of the same class with another key.
KEYED = {
    "Vector": (lambda: Vector(()), None),
    "OkuboElement": (lambda: okubo.OkuboElement.basis(3), okubo.OkuboElement.basis(4)),
    "VeroneseVector": (VeroneseVector.unit, VeroneseVector.scalar_idempotent(0)),
    "Mat3": (Mat3.identity, Mat3.zero()),
    "ExactMatrix": (lambda: ExactMatrix([[1, Fraction(1, 3)]]), ExactMatrix([[1, 0]])),
    "AffinePoint": (lambda: _affine_point(1), _affine_point(2)),
    "AffineLine-sloped": (lambda: geometry.AffineLine.sloped(okubo.idempotent(), _Z),
                          geometry.AffineLine.sloped(_E, okubo.OkuboElement.basis(1))),
    "AffineLine-vertical": (lambda: geometry.AffineLine.vertical(okubo.idempotent()),
                            geometry.AffineLine.vertical(_Z)),
    "AffineLine-infinity": (geometry.AffineLine.at_infinity,
                            geometry.AffineLine.vertical(_Z)),
    "SlopePoint": (lambda: _slope_point(1), _slope_point(2)),
    "ProjLinePoint": (lambda: geometry.line_embed(okubo.idempotent()),
                      geometry.line_embed(geometry.INFINITY)),
    "ProjPoint": (lambda: geometry.plane_embed(_slope_point(1)),
                  geometry.plane_embed(_slope_point(2))),
    "ProjLine": (lambda: _proj_line(geometry.INFINITY), _proj_line(_slope_point(1))),
}


@pytest.mark.parametrize("build, other", KEYED.values(), ids=KEYED)
def test_keyed_twins_compare_and_hash_equal(build, other):
    x, twin = build(), build()
    assert twin is not x and twin == x and not twin != x
    assert hash(twin) == hash(x) and len({x, twin}) == 1
    if other is not None:
        assert type(other) is type(x) and other != x and not other == x


# The tables and algebras keep the default key, their identity.
IDENTITY_KEYED = {
    "SparseTable": lambda: SparseTable([[[(0, 1)]]]),
    "AlgebraPresentation": lambda: derivations.AlgebraPresentation([[[1]]]),
    "AlbertAlgebra": lambda: albert.AlbertAlgebra(Fraction(1, 2)),
}


@pytest.mark.parametrize("build", IDENTITY_KEYED.values(), ids=IDENTITY_KEYED)
def test_tables_and_algebras_equal_only_themselves(build):
    x, twin = build(), build()
    assert x == x and hash(x) == hash(x)
    assert x != twin and not x == twin and len({x, twin}) == 2


def _classes_defining(method):
    """Names of the classes in the okubic sources whose body defines or
    assigns ``method``."""
    names = set()
    for path in Path(geometry.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    defined = [item.name]
                elif isinstance(item, ast.Assign):
                    defined = [t.id for t in item.targets if isinstance(t, ast.Name)]
                else:
                    continue
                if method in defined:
                    names.add(node.name)
    return sorted(names)


@pytest.mark.parametrize("path", sorted(Path(linalg.__file__).parent.glob("*.py")),
                         ids=lambda path: path.stem)
def test_module_calls_every_private_function_it_defines(path):
    # a private helper that only other modules, or only tests, call belongs with its callers
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
            rest = (n for other in tree.body if other is not node for n in ast.walk(other))
            assert any(isinstance(n, ast.Name) and n.id == node.name for n in rest), node.name


def _raised_assertion_errors(tree):
    """The lines of the ``raise AssertionError`` statements in a parsed module."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and node.exc is not None
            and "AssertionError" in {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}]


def test_no_module_raises_assertion_error():
    # a broken identity is a result (False, a check's failure entry), and `okubic check`
    # reports only the arithmetic errors of its samples: an AssertionError is a bug
    assert _raised_assertion_errors(ast.parse("raise AssertionError\nraise AssertionError('x')")) == [1, 2]
    for path in Path(linalg.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert _raised_assertion_errors(tree) == [], path.name


@pytest.mark.parametrize("build, rows", [
    (Mat3.identity, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    (Mat3.zero, [[0, 0, 0]] * 3),
], ids=["identity", "zero"])
def test_mat3_constants_are_stored_integers(monkeypatch, build, rows):
    # the stored form the coercing constructor writes, bit for bit, with no F3 built
    built = []
    init = field._init_f3
    monkeypatch.setattr(field, "_init_f3", lambda *a: built.append(1) or init(*a))
    got = build()
    monkeypatch.undo()
    assert built == []
    assert got.ints == Mat3(rows).ints
    assert [type(p) for p in got.ints] == [tuple] * 4 + [int]


def test_one_immutable_base_and_one_equality():
    # F3 and C3 keep numeric equality: they compare and hash like ints and
    # Fractions of the same value.
    assert _classes_defining("__setattr__") == ["Frozen"]
    # The scalars' equality is _Scalar's: coerce, then compare keys.
    assert _classes_defining("__eq__") == ["Frozen", "_Scalar"]
    assert _classes_defining("__hash__") == ["C3", "F3", "Frozen"]
    # every ray (ProjPoint, ProjLine, ProjLinePoint) keys on its trace-1 representative
    assert _classes_defining("_key") == ["AffineLine", "AffinePoint", "C3", "ExactMatrix", "F3",
                                         "Frozen", "OkuboElement", "SlopePoint", "Vector",
                                         "_ConeRay"]


def _function_defs():
    """Every function of the okubic sources by (module, name), a method named
    Class.method and a nested function outer.inner."""
    defs = {}

    def visit(stem, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if isinstance(child, ast.FunctionDef):
                    defs[stem, prefix + child.name] = child
                visit(stem, child, f"{prefix}{child.name}.")
            else:
                visit(stem, child, prefix)

    for path in Path(linalg.__file__).parent.glob("*.py"):
        visit(path.stem, ast.parse(path.read_text(encoding="utf-8")), "")
    return defs


def _body(node):
    """A function's statements after its docstring."""
    first = node.body[0]
    docstring = isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
    return node.body[1:] if docstring else node.body


def _calls(node):
    """The names of the plain functions that a parsed node calls."""
    return {n.func.id for n in ast.walk(node)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}


def test_each_rule_is_written_once():
    defs = _function_defs()
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in Path(linalg.__file__).parent.glob("*.py")}
    # the compact-only guard: one test of the flavor, in okubo._require_compact
    not_compact = [(stem, name) for (stem, name), node in defs.items()
                   for n in ast.walk(node) if isinstance(n, ast.Compare)
                   and ast.unparse(n).endswith(".flavor != COMPACT")]
    assert not_compact == [("okubo", "_require_compact")]
    assert sum(text.count(".flavor != COMPACT") for text in sources.values()) == 1
    assert geometry._require_compact is okubo._require_compact
    assert geometry.NotCompactError is okubo.NotCompactError
    assert [node.name for node in ast.walk(ast.parse(sources["geometry"]))
            if isinstance(node, ast.ClassDef) and node.name.endswith("Error")] == []
    assert not [obj for obj in vars(geometry).values() if isinstance(obj, type)
                and issubclass(obj, BaseException) and obj.__module__ == geometry.__name__]
    # the conjugate transpose is the η-adjoint at η = Id
    (dagger,) = _body(defs["linalg", "Mat3.dagger"])
    assert ast.unparse(dagger) == "return eta_dagger(self, COMPACT)"
    # the η-Hermitian test: _traceful takes no numerators and calls is_eta_hermitian
    traceful = defs["okubo", "_traceful"]
    assert [a.arg for a in traceful.args.args] == ["x", "y", "theta", "flavor"]
    assert "is_eta_hermitian" in _calls(traceful)
    assert [key for key, node in defs.items() for n in ast.walk(node)
            if isinstance(n, ast.Compare) and "_eta_dagger_numerators" in _calls(n)] == [
        ("linalg", "is_eta_hermitian")]
    (one_line,) = _body(defs["okubo", "traceful_mul"])
    assert isinstance(one_line, ast.Return)
    # division has one path, and F3 and C3 derive −, / and == from one base
    (division,) = _body(defs["field", "_Scalar.__truediv__"])
    assert isinstance(division, ast.Return)
    for cls in ("F3", "C3"):
        for name in ("__sub__", "__rsub__", "__truediv__", "__rtruediv__", "__eq__"):
            assert ("field", f"{cls}.{name}") not in defs
    # one --out, the Petersson twist through the para-Hurwitz product, and a table
    # command that renders the tables and builds no product
    assert sources["cli"].count('"--out"') == 1
    petersson = _calls(defs["hurwitz", "petersson_mul"])
    assert "para_mul" in petersson and "oct_conj" not in petersson
    products = {name.split(".")[-1] for _, name in defs if name.endswith("_mul")}
    assert products & _calls(defs["cli", "cmd_table"]) == set()
    assert not [n for n in ast.walk(defs["cli", "cmd_table"]) if isinstance(n, ast.Attribute)
                and n.attr in ("mul", "basis")]
    # one basis flattening, and one random draw
    assert not [name for _, name in defs if name.split(".")[-1] == "_flatten"]
    assert "_flat" in _calls(defs["derivations", "killing_matrix"])
    assert sum(text.count("getrandbits") for text in sources.values()) == 1
    assert "getrandbits" in ast.unparse(defs["field", "_drawn"])
    # the fixed Cayley maps of the automorphism suite: built in one cached helper
    assert sources["cli"].count("conjugation_automorphism(") == 1
    assert [name for (stem, name), node in defs.items() if stem == "cli"
            and "conjugation_automorphism" in _calls(node)] == ["_cayley_maps"]
    assert [ast.unparse(d) for d in defs["cli", "_cayley_maps"].decorator_list] == [
        "functools.cache"]
    # one writer of a linear map's rows from its basis images, shared by the Cayley φ
    # and the maps of the idempotent, which are built once per flavor
    writers = [key for key, node in defs.items() for n in ast.walk(node)
               if isinstance(n, ast.ListComp) and isinstance(n.elt, ast.Call)
               and "_reduced" in _calls(n.elt) and isinstance(n.elt.args[0], ast.DictComp)]
    assert writers == [("okubo", "_rows_from_images")]
    assert sorted(key for key, node in defs.items() if "_rows_from_images" in _calls(node)) == [
        ("okubo", "_idempotent_maps"), ("okubo", "conjugation_automorphism")]
    assert [ast.unparse(d) for d in defs["okubo", "_idempotent_maps"].decorator_list] == [
        "functools.cache"]
    # one home for the pivot rows: the span test is the elimination's alone, and the
    # derivation report's Lie closure clears each bracket in one pass
    assert [key for key, node in defs.items() if "_PackedSpan" in _calls(node)] == [
        ("linalg", "_gauss_jordan")]
    assert "_PackedSpan" not in sources["derivations"]
    # one table type: a dense tensor is read by one function into a plain SparseTable,
    # and every table has one dense view, SparseTable.constants
    trees = {stem: ast.parse(text) for stem, text in sources.items()}
    assert [(stem, node.name) for stem, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and "SparseTable" in {ast.unparse(base) for base in node.bases}] == []
    assert [key for key in defs if key[1].split(".")[-1] == "_dense"] == []
    presentations = [(stem, type(node).__name__) for stem, tree in trees.items()
                     for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                     and node.name == "AlgebraPresentation"]
    assert presentations == [("derivations", "FunctionDef")]
    # one writer of the tables on V: 𝔸_q and the adjoint B are each one _frame_table
    # call, and albert reads no Okubo or Gram table and writes no cell itself
    assert [key for key in defs if key[1].split(".")[-1] == "_frame_table"] == [
        ("geometry", "_frame_table")]
    assert sorted(key for key, node in defs.items() if "_frame_table" in _calls(node)) == [
        ("albert", "_table"), ("geometry", "adjoint_table")]
    assert "structure_constants(" not in sources["albert"]
    assert "gram_table(" not in sources["albert"]
    assert "_put" not in {alias.name for node in ast.walk(trees["albert"])
                          if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {stem for (stem, _), node in defs.items() if "_put" in _calls(node)} == {"geometry"}


@VECTOR_SAMPLERS
def test_vector_addition_and_negation(sample):
    x, y = _vector_pair(sample, 208)
    assert x + y - y == x
    assert x + y == y + x
    assert not x + (-x)
    assert x


MIXED_SUMS = {
    "veronese+okubo": (VeroneseVector.unit(), okubo.OkuboElement.basis(1)),
    "mat3+okubo": (Mat3.identity(), okubo.OkuboElement.basis(1)),
    "split-octonion+okubo": (hurwitz.SplitOctonion.basis(0), okubo.OkuboElement.basis(1)),
    "veronese+mat3": (VeroneseVector.unit(), Mat3.identity()),
    "veronese+split-octonion": (VeroneseVector.unit(), hurwitz.SplitOctonion.basis(0)),
    "mat3+split-octonion": (Mat3.identity(), hurwitz.SplitOctonion.basis(0)),
}


@pytest.mark.parametrize("x, y", MIXED_SUMS.values(), ids=MIXED_SUMS)
def test_vectors_of_another_kind_are_rejected(x, y):
    # an Okubo element of the other flavor is a FlavorMismatchError (tests/test_okubo.py)
    for a, b in ((x, y), (y, x)):
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b


SHORT_OPERANDS = {
    "sharp": lambda: geometry.sharp(okubo.OkuboElement.basis(1)),
    "veronese_check": lambda: geometry.veronese_check(okubo.OkuboElement.basis(1)),
    "albert-mul": lambda: albert.ALBERT_HALF.mul(okubo.OkuboElement.basis(1),
                                                 okubo.OkuboElement.basis(1)),
    "beta": lambda: geometry.beta(okubo.OkuboElement.basis(1), VeroneseVector.unit()),
    "beta-reversed": lambda: geometry.beta(VeroneseVector.unit(), okubo.OkuboElement.basis(1)),
    "vnorm": lambda: geometry.vnorm(okubo.OkuboElement.basis(1)),
}


@pytest.mark.parametrize("call", SHORT_OPERANDS.values(), ids=SHORT_OPERANDS)
def test_an_operand_of_another_length_raises_value_error(call):
    # the length rule of bilinear and bilinear_left, checked before a row is read
    with pytest.raises(ValueError, match="for a table of 27 rows"):
        call()


def test_bilinear_left_rejects_an_operand_of_another_length():
    with pytest.raises(ValueError, match="for a table of 8 rows"):
        bilinear_left(okubo.structure_constants(COMPACT), VeroneseVector.unit().ints)


_OKUBO, _OCTONION = okubo.OkuboElement.basis(1), hurwitz.SplitOctonion.basis(2)
WRONG_KINDS = {
    "oct_mul": (hurwitz.oct_mul, _OCTONION, _OKUBO),
    "okubo_mul": (okubo.okubo_mul, _OKUBO, _OCTONION),
    "polar": (okubo.polar, _OKUBO, _OCTONION),
}


@pytest.mark.parametrize("mul, right, wrong", WRONG_KINDS.values(), ids=WRONG_KINDS)
def test_an_operand_of_another_kind_raises_type_error(mul, right, wrong):
    for x, y in ((wrong, wrong), (right, wrong), (wrong, right)):
        with pytest.raises(TypeError, match="expected"):
            mul(x, y)
    assert mul(right, right) is not None


def test_okubo_norm_rejects_a_split_octonion():
    with pytest.raises(TypeError, match="expected OkuboElement, got SplitOctonion"):
        okubo.okubo_norm(hurwitz.SplitOctonion.basis(2))


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


def _key_by_scalars(x):
    """The key of a vector that stores one scalar per coordinate, its type, flavor and
    coordinates: the oracle for ``==`` and ``hash``, which compare the stored integers."""
    return type(x), getattr(x, "flavor", None), x.coeffs


def _scalar_bits(x):
    """A scalar as its type and its stored integers, so equal bits mean one representation."""
    if isinstance(x, C3):
        return C3, _scalar_bits(x.re), _scalar_bits(x.im)
    if isinstance(x, F3):
        return F3, x._an, x._bn, x._d
    return type(x), x.numerator, x.denominator


def _assert_canonical(x):
    """The stored form of x: integer parts of its coordinates over one d > 0, the gcd
    of d and every part 1; a split octonion has √3 parts 0."""
    *parts, d = x.ints
    assert len(parts) == (4 if isinstance(x, Mat3) else 2)
    assert all(type(p) is tuple and len(p) == x.SIZE for p in parts)
    assert all(type(a) is int for p in parts for a in p)
    assert type(d) is int and d > 0 and math.gcd(d, *itertools.chain(*parts)) == 1
    if isinstance(x, hurwitz.SplitOctonion):
        assert not any(parts[1])


def _mat3_of(cs):
    return Mat3([cs[0:3], cs[3:6], cs[6:9]])


def _mat3_product_by_scalars(x, y):
    return tuple(sum((x[i, k] * y[k, j] for k in range(3)), C3()) for i in range(3) for j in range(3))


def _table_product_by_scalars(table, scalar):
    """The product summed on scalars over the table's cells, read once here."""
    cells = _scalar_cells(table, scalar)
    return lambda x, y: tuple(_bilinear_by_scalars(cells, table.size, x.coeffs, y.coeffs,
                                                   scalar(0)))


def _okubo_kind(flavor):
    return (8, sample_f3, lambda cs: okubo.OkuboElement(cs, flavor), okubo.okubo_mul,
            lambda: _table_product_by_scalars(structure_constants(flavor), F3), (F3,))


def _c3_sample(rng):
    return C3(sample_f3(rng), sample_f3(rng))


# Each vector type: its size, a scalar sampler, a constructor from scalars, a product,
# a maker of the product summed on scalars, and the scalar types a rational coordinate
# may be given as.
VECTOR_KINDS = {
    "okubo": _okubo_kind(COMPACT),
    "split-okubo": _okubo_kind(SPLIT),
    "split-octonion": (8, sample_rational, hurwitz.SplitOctonion, hurwitz.oct_mul,
                       lambda: _table_product_by_scalars(hurwitz.MUL_TABLE, Fraction), ()),
    "albert": (27, sample_f3, VeroneseVector.from_coords, albert.ALBERT_HALF.mul,
               lambda: _table_product_by_scalars(albert._table(F3(Fraction(1, 2))), F3), (F3,)),
    "mat3": (9, _c3_sample, _mat3_of, Mat3.__matmul__, lambda: _mat3_product_by_scalars, (F3, C3)),
}


@pytest.mark.parametrize("kind", VECTOR_KINDS)
def test_stored_integers_compare_hash_and_read_as_the_scalars(kind):
    # one vector reached by several routes has one stored form: == and hash agree
    # with the coordinate-wise key, and coeffs with the same route taken on scalars
    n, sample, build, product, make_product_by_scalars, lifts = VECTOR_KINDS[kind]
    product_by_scalars = make_product_by_scalars()
    rng = random.Random(f"stored-integers:{kind}")
    scalar = type(build([0] * n)).scalar
    made = []  # (vector, its coordinates as the same route gives them on scalars)
    for _ in range(3):
        cs, ds = [sample(rng) for _ in range(n)], [sample(rng) for _ in range(n)]
        rs = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for _ in range(n)]
        c = sample(rng)
        while not c:
            c = sample(rng)
        x, y = build(cs), build(ds)
        xs, ys = tuple(map(scalar, cs)), tuple(map(scalar, ds))
        made += [(x, xs), (y, ys), (build(rs), tuple(map(scalar, rs)))]
        made += [(build([lift(r) for r in rs]), tuple(map(scalar, rs))) for lift in lifts]
        made += [
            (x + y, tuple(a + b for a, b in zip(xs, ys))),
            (x - y, tuple(a - b for a, b in zip(xs, ys))),
            ((x + y) - y, xs),
            (x - x, tuple(a - a for a in xs)),
            (-x, tuple(-a for a in xs)),
            (x.scale(c), tuple(scalar(c) * a for a in xs)),
            (x.scale(c).scale(1 / c), xs),
            (product(x, y), product_by_scalars(x, y)),
        ]
        if kind == "albert":
            made += [(VeroneseVector(*x.x, *x.lam), xs)]
            made += [(slot, xs[k:k + 8]) for slot, k in zip(x.x, (0, 8, 16))]
            assert x.lam == xs[24:]
    for x, want in made:
        _assert_canonical(x)
        assert [_scalar_bits(a) for a in x.coeffs] == [_scalar_bits(a) for a in want]
    for (x, _), (y, _) in itertools.product(made, repeat=2):
        same = _key_by_scalars(x) == _key_by_scalars(y)
        assert (x == y) is same and (x != y) is not same
        if same:
            assert hash(x) == hash(y)
    assert sum(x == y for (x, _), (y, _) in itertools.combinations(made, 2)) >= 3 * 3


def _scalar_cells(table, scalar):
    """The table's cells, read once, with each constant as a ``scalar``: an F3, or a
    Fraction for a rational table, whose constants then have no √3 part."""
    cells = table.cells
    if scalar is F3:
        return cells
    assert all(c.b == 0 for row in cells for cell in row for _, c in cell)
    return tuple(tuple(tuple((k, c.a) for k, c in cell) for cell in row) for row in cells)


def _bilinear_by_scalars(cells, size, u, v, zero):
    """The per-scalar product loop on a table's ``cells`` with ``size`` outputs: the
    oracle for ``bilinear``, which sums integer numerators over one denominator."""
    out = [zero] * size
    for a, ca in enumerate(u):
        if not ca:
            continue
        row = cells[a]
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
    "recovered-octonion": (lambda: okubo._idempotent_maps(COMPACT)[2], F3),
    "okubo-presentation": (derivations.okubo_presentation, F3),
    "petersson-presentation": (derivations.petersson_presentation, F3),
    **{
        f"albert-q={q}": (lambda q=q: albert._table(F3(q)), F3)
        for q in (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2),
                  Fraction(1), Fraction(2))
    },
    # the bilinear forms, each a table with one output coordinate
    "okubo-gram": (lambda: okubo.gram_table(COMPACT), F3),
    "split-okubo-gram": (lambda: okubo.gram_table(SPLIT), F3),
    "beta": (geometry.beta_table, F3),
    "adjoint": (geometry.adjoint_table, F3),
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
    # ε = (x, y, x*y; n(y), n(x), 1)/trace, with x*y and n from the matrix
    # path so that no input depends on the kernel under test
    x, y = sample_okubo(rng), sample_okubo(rng)
    nx, ny = mat_norm(x.to_matrix()), mat_norm(y.to_matrix())
    eps = VeroneseVector(x, y, okubo_mul_matrix(x, y), ny, nx, 1)
    eps = eps.scale(trace(eps).inverse()).coeffs
    tall = [list(eps[:n]), list(eps[-n:])]
    return basis, [[F3()] * n] + samples + mixed + tall


# The library tables that SparseTable finds symmetric in (a, b): 𝔸_q is
# commutative, and a Gram table is a symmetric form.
SYMMETRIC_TABLES = {name for name in LIBRARY_TABLES if name.startswith("albert-")} | {
    "okubo-gram", "split-okubo-gram", "beta", "adjoint"}


def _assert_terms(table):
    """``terms`` lists each nonempty cell of row a, only b ≥ a when the table is
    symmetric, as (b, rat, sq): the cell's own (k, A, B) triples with A ≠ 0 and
    with B ≠ 0, so each listed term has at least one."""
    symmetric, rows = table.terms
    cells = table.cells
    n = len(cells)
    assert symmetric is all(cells[a][b] == cells[b][a] for a in range(n) for b in range(n))
    assert len(rows) == n
    for a, (row, nonzero) in enumerate(zip(rows, table.nonzero)):
        assert [b for b, _, _ in row] == [b for b, _ in nonzero if b >= a or not symmetric]
        for b, rat, sq in row:
            cell = table.ints[a][b]
            assert rat or sq
            assert [id(t) for t in rat] == [id(t) for t in cell if t[1]]
            assert [id(t) for t in sq] == [id(t) for t in cell if t[2]]


def _built_afresh(name, monkeypatch):
    """LIBRARY_TABLES[name] built anew, and the cells its builder passed to
    ``SparseTable.__init__``, recorded by wrapping it: the library's table caches are
    emptied first, and the module of the octonion table is run again."""
    seen, init = [], SparseTable.__init__

    def record(self, cells, size=None):
        cells = [list(row) for row in cells]
        seen.append((self, cells))
        init(self, cells, size)

    monkeypatch.setattr(SparseTable, "__init__", record)
    for cached in (structure_constants, okubo.gram_table, okubo._idempotent_maps, albert._table,
                   geometry.beta_table, geometry.adjoint_table):
        cached.cache_clear()
    if name == "octonion":
        spec = importlib.util.find_spec(hurwitz.__name__)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        table = module.MUL_TABLE
    else:
        table = LIBRARY_TABLES[name][0]()
    return table, next(cells for t, cells in seen if t is table)


@pytest.mark.parametrize("name", LIBRARY_TABLES)
def test_tables_store_no_zero_constant(name, monkeypatch):
    table, given = _built_afresh(name, monkeypatch)
    # cells reads back the builder's input without its zero constants, as F3s
    assert table.cells == tuple(tuple(tuple((k, F3.coerce(c)) for k, c in cell if c)
                                      for cell in row) for row in given)
    assert all(a or b for row in table.ints for cell in row for _, a, b in cell)
    assert all(cell for row in table.nonzero for _, cell in row)
    # a cell object that the input lists twice maps to one integer cell; the
    # symmetric tables list one cell object for both orders, the others none twice
    stored, listed = {}, 0
    for row, ints_row in zip(given, table.ints):
        for cell, ints in zip(row, ints_row):
            listed += bool(cell) and id(cell) in stored
            assert stored.setdefault(id(cell), ints) is ints
    assert bool(listed) is (name in SYMMETRIC_TABLES)
    # the form bilinear reads holds each entry of a listed cell exactly once
    _assert_terms(table)
    for a, row in enumerate(table.terms[1]):
        for b, rat, sq in row:
            assert sorted(map(id, rat + sq)) == sorted(map(id, table.ints[a][b]))


@pytest.mark.parametrize("name", LIBRARY_TABLES)
def test_sparse_table_detects_the_symmetric_library_tables(name):
    assert LIBRARY_TABLES[name][0]().terms[0] is (name in SYMMETRIC_TABLES)


def _parity(i):
    """The Z/2 grading of the flat coordinates: 1 on indices 2, 5 and 7 of each
    Okubo slot, 0 on the others, on the λ and on a form's one output."""
    return int(i < 24 and i % 8 in (2, 5, 7))


@pytest.mark.parametrize("name", LIBRARY_TABLES)
def test_library_constants_are_rational_or_rational_times_sqrt3_by_parity(name):
    # each constant c of (a, b → k) is A/den or B√3/den, never both: rational exactly
    # when p_a + p_b + p_k is even, so rescaling the odd basis vectors by √3 makes
    # every table rational; the octonion and Petersson tables are rational already
    table = LIBRARY_TABLES[name][0]()
    entries = [(a, b, k, ca, cb) for a, row in enumerate(table.ints)
               for b, cell in enumerate(row) for k, ca, cb in cell]
    assert entries and not any(ca and cb for *_, ca, cb in entries)
    if name in ("octonion", "petersson-presentation"):
        assert not any(cb for *_, cb in entries)
    else:
        for a, b, k, _, cb in entries:
            assert bool(cb) is bool((_parity(a) + _parity(b) + _parity(k)) % 2), (a, b, k)
    if name in ("okubo", "split-okubo", "recovered-octonion", "okubo-presentation",
                "albert-q=1/2"):
        assert any(cb for *_, cb in entries)


def test_tables_store_only_integers_and_tuples():
    # no scalar copy of the constants: every slot of every table, a presentation's
    # too, holds integers in tuples, and a presentation is a plain SparseTable
    assert SparseTable.__slots__ == ("ints", "nonzero", "terms", "den", "size")
    presentation = derivations.AlgebraPresentation(
        [[[F3(1, 2), Fraction(1, 3)], [0, 1]], [[0, F3(0, 1)], [2, Fraction(-5, 7)]]])
    assert type(presentation) is SparseTable
    tables = [make() for make, _ in LIBRARY_TABLES.values()]
    tables.append(presentation)
    for table in tables:
        assert not hasattr(table, "__dict__")
        slots = [a for cls in type(table).__mro__ for a in getattr(cls, "__slots__", ())]
        stack = [getattr(table, a) for a in slots]
        while stack:
            x = stack.pop()
            assert isinstance(x, (int, tuple)), (type(table).__name__, type(x).__name__)
            if isinstance(x, tuple):
                stack.extend(x)


def _dense_by_cells(table):
    """The dense tensor [a][b][k] of a table's constants: zeros, with each (k, c)
    of ``cells`` written in."""
    cells = table.cells
    out = [[[F3()] * table.size for _ in row] for row in cells]
    for a, row in enumerate(cells):
        for b, cell in enumerate(row):
            for k, c in cell:
                out[a][b][k] = c
    return out


@pytest.mark.parametrize("name", LIBRARY_TABLES)
def test_dense_view_and_mul_coords_match_the_oracles(name):
    table = LIBRARY_TABLES[name][0]()
    dense = table.constants
    assert dense == tuple(tuple(map(tuple, row)) for row in _dense_by_cells(table))
    assert {type(c) for row in dense for cell in row for c in cell} == {F3}
    # mul_coords is bilinear on the stored form of its coordinate lists, read back as F3s
    rng, n = random.Random(f"mul-coords:{name}"), len(table.ints)
    vectors = [[F3(int(i == j)) for i in range(n)] for j in (0, n - 1)]
    vectors += [[sample_f3(rng) for _ in range(n)] for _ in range(3)]
    vectors.append([Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n)])
    for u, v in itertools.product(vectors, repeat=2):
        got = table.mul_coords(u, v)
        assert [type(c) for c in got] == [F3] * table.size
        assert _vector_ints(got) == bilinear(table, _vector_ints(u), _vector_ints(v))


def test_sparse_table_drops_zero_constants():
    table = SparseTable([[[(0, F3()), (1, F3(2))], [(0, 0)]], [[], [(1, Fraction(0))]]])
    assert table.cells == (((((1, F3(2)),), ()), ((), ())))
    assert table.nonzero == (((0, ((1, 2, 0),)),), ())
    assert table.terms == (True, (((0, ((1, 2, 0),), ()),), ()))


def _assert_bilinear_matches_the_oracle(table, scalar, seed):
    cells = _scalar_cells(table, scalar)
    n = len(cells)
    basis, others = _kernel_inputs(n, random.Random(seed))
    if scalar is Fraction:
        basis, others = ([[c.a for c in u] for u in vs] for vs in (basis, others))
    pairs = list(itertools.product(basis, repeat=2)) + list(itertools.product(others, repeat=2))
    for u, v in pairs:
        ints = bilinear(table, _vector_ints(u), _vector_ints(v))
        want = _bilinear_by_scalars(cells, table.size, u, v, scalar(0))
        # the stored form: the oracle's coordinates over their least common denominator
        assert ints == _vector_ints(want)
        na, nb, d = ints
        if scalar is F3:
            got = [_raw_f3(a, b, d) for a, b in zip(na, nb)]
        else:
            assert not any(nb)
            got = [Fraction(a, d) for a in na]
        assert got == want
        assert [type(x) for x in got] == [scalar] * table.size
        assert hash(tuple(got)) == hash(tuple(want))
    # a square: both operands are one stored tuple, which a symmetric table reads
    # through the pair products 2·u[a]·u[b] and the diagonal u[a]²
    for u in basis + others:
        x = _vector_ints(u)
        assert bilinear(table, x, x) == _vector_ints(_bilinear_by_scalars(cells, table.size, u, u, scalar(0)))
    if scalar is F3:
        # column b of the left multiplication by u is u times basis vector b
        for u in others:
            cols = [_bilinear_by_scalars(cells, table.size, u, e, F3()) for e in basis]
            rows = bilinear_left(table, _vector_ints(u))
            _assert_sparse(rows)
            _assert_reduced(rows)
            assert _f3_rows(rows, n) == [list(row) for row in zip(*cols)]


@pytest.mark.parametrize("name", LIBRARY_TABLES)
def test_bilinear_matches_the_scalar_oracle(name):
    make, scalar = LIBRARY_TABLES[name]
    _assert_bilinear_matches_the_oracle(make(), scalar, f"kernel:{name}")


def _edge_tables():
    """Hand-made 6×6 tables over F3, each with its symmetry: one symmetric but for
    one pair of cells, one symmetric with the mixed constant (1 + √3)/2 on and off
    the diagonal, and a symmetric one-output form whose two orders of a cell are
    equal but distinct objects."""
    rng = random.Random(2028)
    n = 6

    def const():
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3, 7)))
        return F3(c) if rng.random() < 0.5 else F3(0, c)

    def symmetric(size, distinct):
        cells = [[()] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                ks = sorted(rng.sample(range(size), min(size, rng.randint(0, 2))))
                cells[a][b] = tuple((k, const()) for k in ks)
                cells[b][a] = list(cells[a][b]) if distinct else cells[a][b]
        return cells

    broken = symmetric(n, False)
    broken[1][4], broken[4][1] = ((2, F3(5)), (3, F3(0, Fraction(1, 3)))), ((2, F3(5)),)
    mixed = symmetric(n, False)
    half = F3(Fraction(1, 2), Fraction(1, 2))
    mixed[2][2] = ((1, half), (3, F3(2)))
    mixed[0][4] = mixed[4][0] = ((2, half),)
    return {
        "symmetric-but-one-pair": (SparseTable(broken), False),
        "mixed-constant": (SparseTable(mixed), True),
        "one-output-form": (SparseTable(symmetric(1, True), 1), True),
    }


@pytest.mark.parametrize("name", ["symmetric-but-one-pair", "mixed-constant", "one-output-form"])
def test_bilinear_matches_the_scalar_oracle_on_edge_tables(name):
    table, symmetric = _edge_tables()[name]
    assert table.terms[0] is symmetric
    _assert_terms(table)
    if name == "mixed-constant":  # the mixed constant is read from both lists
        (_, rat, sq), = [t for t in table.terms[1][0] if t[0] == 4]
        assert rat == sq and rat[0][1] and rat[0][2]
    _assert_bilinear_matches_the_oracle(table, F3, f"kernel:{name}")


def _kernel_calls(tree):
    """The calls to ``bilinear``, ``bilinear_left`` or ``_mat_vec`` in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("bilinear", "bilinear_left", "_mat_vec"):
                yield node


def test_no_module_passes_coeffs_to_the_kernel():
    # the kernel takes and returns the stored integers: a caller that hands it
    # scalars converts every coordinate on the way in
    calls = 0
    for path in Path(linalg.__file__).parent.glob("*.py"):
        for call in _kernel_calls(ast.parse(path.read_text(encoding="utf-8"))):
            calls += 1
            args = [*call.args, *(k.value for k in call.keywords)]
            assert not any(isinstance(n, ast.Attribute) and n.attr == "coeffs"
                           for a in args for n in ast.walk(a)), (path.name, call.lineno)
    assert calls >= 8


def _left_mult_by_scalars(table, u):
    """The F3 rows of v ↦ ``bilinear(table, u, v)`` for F3 coordinates u, and the
    same rows as sparse integer rows (nonzero entries only, over the lcm of their
    denominators) read back from those F3 values: the oracle for
    ``bilinear_left``, which sums integers and builds no F3."""
    nu, du = _numerators(u)
    n = len(table.ints)
    out_a, out_b = [[0] * n for _ in range(table.size)], [[0] * n for _ in range(table.size)]
    for row, (ua, ub) in zip(table.nonzero, nu):
        for b, cell in row:
            for k, ca, cb in cell:
                out_a[k][b] += ua * ca + 3 * ub * cb
                out_b[k][b] += ua * cb + ub * ca
    d, zero = du * table.den, F3()
    entries = [[_raw_f3(a, b, d) if a or b else zero for a, b in zip(ra, rb)]
               for ra, rb in zip(out_a, out_b)]
    ints = []
    for nz in ([(j, x) for j, x in enumerate(row) if x._an or x._bn] for row in entries):
        e = math.lcm(*[x._d for _, x in nz])
        ints.append(({j: x._an * (e // x._d) for j, x in nz},
                     {j: x._bn * (e // x._d) for j, x in nz}, e))
    return entries, ints


def _kernel_by_scalars(rows, pivots, ncols):
    """The free-column kernel loop on reduced F3 rows: the oracle for
    ``_kernel``, which reads reduced integer rows."""
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [F3()] * ncols
        v[fc] = F3(1)
        for prow, pcol in enumerate(pivots):
            v[pcol] = -rows[prow][fc]
        basis.append(v)
    return basis


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


def _gauss_jordan_by_insertion(m):
    """The per-scalar insertion loop over F3 entries: the oracle for the divisors and
    the sign of ``_gauss_jordan``.  Each row, in input order, loses its entry in each
    pivot column times that pivot row; a row left nonzero is divided by its first
    entry (its divisor), its column is cleared from the earlier pivot rows, and the
    sign is that of the pivot columns in insertion order."""
    pivots, divisors = {}, []
    for row in m.entries:
        row = list(row)
        for c, p in pivots.items():
            f = row[c]
            if f:
                row = [x - f * y for x, y in zip(row, p)]
        col = next((j for j, x in enumerate(row) if x), None)
        if col is None:
            continue
        divisors.append(row[col])
        inv = row[col].inverse()
        row = [inv * x for x in row]
        for c, p in pivots.items():
            f = p[col]
            if f:
                pivots[c] = [x - f * y for x, y in zip(p, row)]
        pivots[col] = row
    return divisors, _permutation_sign(list(pivots))  # the columns in insertion order


def _bits(values):
    """The stored integer triple and the type of every scalar."""
    return [(type(x), x._an, x._bn, x._d) for x in values]


def _q3_row(row):
    """A sparse integer row over Q(√3), (na, nb, d), or over Q, (na, d), as (na, nb, d);
    a rational row's √3 parts are zero."""
    return row if len(row) == 3 else (row[0], dict.fromkeys(row[0], 0), row[1])


def _f3_rows(rows, ncols):
    """Sparse integer rows (na, nb, d) or rational rows (na, d) read as dense F3
    rows of ``ncols`` entries through the public constructor; a column a row does
    not store is zero."""
    return [[F3(Fraction(na.get(j, 0), d), Fraction(nb.get(j, 0), d)) for j in range(ncols)]
            for na, nb, d in map(_q3_row, rows)]


def _f3_divisors(divisors):
    """Pivots (pa, pb, d) or (pa, d) from ``_gauss_jordan`` read as F3 through the
    public constructor."""
    return [F3(Fraction(p[0], p[-1]), Fraction(p[1] if len(p) == 3 else 0, p[-1]))
            for p in divisors]


def _assert_reduced(rows):
    """Each row is in lowest terms, as ``ExactMatrix`` keys it."""
    assert all(math.gcd(d, *na.values(), *nb.values()) == 1 for na, nb, d in map(_q3_row, rows))


def _assert_sparse(rows):
    """Each row stores no zero entry and a positive denominator, and a row over
    Q(√3) stores the same columns in na and nb."""
    for row in rows:
        assert len(row) in (2, 3) and all(type(part) is dict for part in row[:-1])
        assert type(row[-1]) is int and row[-1] > 0
        na, nb, _ = _q3_row(row)
        assert na.keys() == nb.keys()
        assert all(na[j] or nb[j] for j in na)


def _assert_same_elimination(rows, ncols):
    """``_gauss_jordan`` on integer rows, (na, nb, d) or rational (na, d), against
    the scalar oracles on the same rows read as F3, value by value: the reduced rows
    and the pivots against the column-order loop, the divisors and the sign against
    the insertion loop.  At full row rank both products Π divisors · sign are the
    determinant of the pivot columns.  The reduced rows and the pivots keep the
    input's form, and the input rows are left unchanged."""
    before = copy.deepcopy(rows)
    got, pivots, divisors, sign = _gauss_jordan(rows)
    assert rows == before
    width = len(rows[0]) if rows else 3
    assert all(len(row) == width for row in got) and all(len(p) == width for p in divisors)
    m = ExactMatrix(_f3_rows(rows, ncols))
    want_rows, want_pivots, column_divisors, column_sign = _gauss_jordan_by_scalars(m)
    assert [_bits(r) for r in _f3_rows(got, ncols)] == [_bits(r) for r in want_rows]
    assert pivots == want_pivots
    want_divisors, want_sign = _gauss_jordan_by_insertion(m)
    assert sign == want_sign
    assert _bits(_f3_divisors(divisors)) == _bits(want_divisors)
    if len(pivots) == len(rows):
        assert _bits([math.prod(_f3_divisors(divisors), start=F3(sign))]) == _bits(
            [math.prod(column_divisors, start=F3(column_sign))])
    assert len(got) == len(rows) and all(0 <= j < ncols for row in got for j in row[0])
    _assert_sparse(got)
    if all(math.gcd(d, *na.values(), *nb.values()) == 1 for na, nb, d in map(_q3_row, rows)):
        _assert_reduced(got)


def _assert_same_elimination_of(m):
    """The same check on the integer rows ``rref`` and ``determinant`` read
    from m, which must be m's entries exactly."""
    rows = m.ints
    assert ExactMatrix(_f3_rows(rows, m.cols)) == m
    _assert_same_elimination(rows, m.cols)


def _left_mult_at_half():
    """The F3 entries of L_ε at q = 1/2 for a seeded affine ε, from the oracle."""
    rng = random.Random("int-rows")
    eps = albert.idempotent_from_point(geometry.plane_embed(geometry.sample_affine_point(rng)))
    return _left_mult_by_scalars(albert._table(F3(Fraction(1, 2))), eps.coeffs)[0]


@pytest.mark.parametrize("make", [lambda: okubo.gram_matrix(COMPACT).entries, _left_mult_at_half],
                         ids=["gram-compact", "left-mult-27"])
def test_int_rows_store_exactly_the_nonzero_entries(make):
    entries = make()
    m = ExactMatrix(entries)
    rows = m.ints
    _assert_sparse(rows)
    assert [sorted(na) for na, _, _ in rows] == [
        [j for j, x in enumerate(row) if x] for row in entries]
    # one denominator per row: the lcm of its nonzero entries' denominators
    assert [d for _, _, d in rows] == [math.lcm(*(x._d for x in row if x)) for row in entries]
    assert ExactMatrix(_f3_rows(rows, m.cols)) == m
    assert [_bits(r) for r in m.entries] == [_bits(r) for r in entries]


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


def _leibniz_rows(algebra, monkeypatch):
    """The integer rows that ``derivation_space`` hands to ``_gauss_jordan``, and their
    column count n²."""
    seen = []
    with monkeypatch.context() as patch:
        patch.setattr(derivations, "_gauss_jordan",
                      lambda rows: seen.append(rows) or _gauss_jordan(rows))
        derivations.derivation_space(algebra)
    return seen[0], len(algebra.ints) ** 2


DERIVATION_TENSORS = {
    "okubo": lambda: okubo.structure_constants_dense(COMPACT),
    "split-okubo": lambda: okubo.structure_constants_dense(SPLIT),
    "petersson": hurwitz.petersson_structure_constants,
}


def _signed_permuted(name):
    """The tensor ``name`` in a seeded signed permutation of its basis."""
    rng = random.Random(f"leibniz:{name}")
    perm = list(range(8))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(8)]
    return _permute_tensor(DERIVATION_TENSORS[name](), perm, signs)


@pytest.mark.parametrize("permuted", [False, True], ids=["plain", "signed-permuted"])
@pytest.mark.parametrize("name", DERIVATION_TENSORS)
def test_gauss_jordan_matches_the_scalar_oracle_on_leibniz_systems(name, permuted, monkeypatch):
    constants = _signed_permuted(name) if permuted else DERIVATION_TENSORS[name]()
    rows, ncols = _leibniz_rows(derivations.AlgebraPresentation(constants), monkeypatch)
    assert (len(rows), ncols) == (512, 64)
    _assert_same_elimination(rows, ncols)


ALBERT_QS = [Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]


@pytest.mark.parametrize("q", ALBERT_QS, ids=str)
def test_gauss_jordan_matches_the_scalar_oracle_on_left_multiplication(q):
    rng = random.Random(f"left-mult:{q}")
    eps = albert.idempotent_from_point(geometry.plane_embed(geometry.sample_affine_point(rng)))
    algebra = albert.AlbertAlgebra(q)
    for a in (eps, sample_albert(rng)):
        _assert_same_elimination_of(albert.left_mult_operator(algebra, a))


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
        # row 1 loses column 1 to row 0, and column 1 then pivots on row 2
        "cancels-off-pivot": [[r3, 1, 2, 0], [2 * r3, 2, 5, 1], [0, 3, 0, r3]],
        "zero-row-between": [[1, 2, 0, 0], [0, 0, 0, 0], [0, 3, 1, 0], [0, 0, 0, 0], [2, 0, 0, 1]],
        "last-column-only": [[0, 0, 0, 5], [1, 2, 3, 4], [0, 0, 0, 1 + r3], [0, 1, 0, 0]],
        "tall-sparse-fill-in": _tall_sparse(rng, 40, 12),
        # orders that clearing column by column reaches through row swaps:
        # column 0 swaps row 0 (first column 2) down to position 2
        "swap-moves-a-nonzero-row": [[0, 0, 1, 2], [0, 3, 0, 1], [1, 2, 0, 0], [0, 1, 1 + r3, 0]],
        # clearing column 0 from row 1 leaves its first nonzero entry in column 5
        "first-column-jumps": [[1, 2, 3, 0, 0, 1], [2, 4, 6, 0, 0, 7 + r3],
                               [0, 0, 0, 1, 1, 0], [0, 0, 0, 0, 2, 1]],
        # column 0 swaps row 0 down to position 2, where column 1 clears it to zero
        "swapped-row-becomes-zero": [[0, 2, 2 * r3], [0, 1, r3], [1, 0, 0]],
        "tall-sparse-300x24": _tall_sparse(rng, 300, 24),
        # pivot rows 3 and 0 make one run; column 1, which row 1 holds, opens a second run
        # left of column 3; row 3 is the sum of rows 0-2, so the runs settle there, row
        # 4's column 2 is cleared from the settled rows at once, and row 5 is in the span
        "runs-settle-mid-loop": [[0, 0, 0, 1], [1, 1, 0, 0], [0, 1, 1 + r3, 0],
                                 [1, 2, 1 + r3, 1], [0, 0, 2, 1 + r3], [0, 0, 2, 2 + r3]],
    }


def _tall_sparse(rng, nrows, ncols):
    """Rows with two or three nonzero entries of mixed denominators, so that
    elimination fills in columns that no input row of a pivot stores."""
    rows = []
    for _ in range(nrows):
        row = [F3()] * ncols
        for j in rng.sample(range(ncols), rng.choice((2, 3))):
            row[j] = _mixed_f3(rng) or F3(1)
        rows.append(row)
    return rows


@pytest.mark.parametrize("name", list(_edge_matrices()))
def test_gauss_jordan_matches_the_scalar_oracle_on_edge_cases(name):
    _assert_same_elimination_of(ExactMatrix(_edge_matrices()[name]))


@pytest.mark.parametrize("name", [name for name in _edge_matrices() if name != "empty"])
def test_gauss_jordan_matches_the_scalar_oracle_on_rational_rows(name):
    # the rational parts of each edge case as rows (na, d), which take the rational
    # pivot step: some rows are not in lowest terms, and some are zero
    m = ExactMatrix(_edge_matrices()[name])
    rows = [({j: x for j, x in na.items() if x}, d) for na, _, d in m.ints]
    _assert_same_elimination(rows, m.cols)


def test_gauss_jordan_edge_case_values():
    r3 = F3(0, 1)
    assert _gauss_jordan([]) == ([], [], [], 1)
    assert _gauss_jordan([({}, {}, 1)] * 2)[1:] == ([], [], 1)
    # rows [0, 1 + √3] and [√3, 1]: divisors 1 + √3 and √3 in insertion order, norms
    # -2 and -3, for pivot columns 1 then 0
    rows, pivots, divisors, sign = _gauss_jordan(
        [({1: 1}, {1: 1}, 1), ({0: 0, 1: 1}, {0: 1, 1: 0}, 1)])
    assert (pivots, _f3_divisors(divisors), sign) == ([0, 1], [1 + r3, r3], -1)
    assert _f3_rows(rows, 2) == [[F3(1), F3()], [F3(), F3(1)]]
    assert determinant(ExactMatrix([[0, 1 + r3], [r3, 1]])) == -r3 * (1 + r3)
    # a row that is not in lowest terms: [2, 2√3]/4 = [1/2, √3/2]
    rows, pivots, divisors, sign = _gauss_jordan([({0: 2, 1: 0}, {0: 0, 1: 2}, 4)])
    assert (pivots, _bits(_f3_divisors(divisors)), sign) == ([0], [(F3, 1, 0, 2)], 1)
    assert _bits(_f3_rows(rows, 2)[0]) == [(F3, 1, 0, 1), (F3, 0, 1, 1)]
    # rational rows: a negative pivot -2/6 in a row not in lowest terms, then zero rows
    assert _gauss_jordan([({0: -2, 1: 4}, 6), ({0: 1, 1: -2}, 3), ({}, 1)]) == (
        [({0: 1, 1: -2}, 1), ({}, 1), ({}, 1)], [0], [(-2, 6)], 1)
    assert _gauss_jordan([({}, 1)] * 2) == ([({}, 1)] * 2, [], [], 1)


def test_tall_sparse_case_fills_in(monkeypatch):
    # the one-pass reduction writes an entry into a column its row did not store
    filled, clear = [], linalg._cleared

    def watched(row, pivots):
        out = clear(row, pivots)
        filled.append(set(out[0]) - set(row[0]))
        return out

    monkeypatch.setattr(linalg, "_cleared", watched)
    m = ExactMatrix(_edge_matrices()["tall-sparse-fill-in"])
    _gauss_jordan(m.ints)
    assert (m.rows, m.cols) == (40, 12) and any(filled)


def _watched_elimination(rows, monkeypatch):
    """``_gauss_jordan`` on rows with its reduction passes, runs and span tests recorded:
    the output; each span test as (row, answer, whether the form's reduction pass against
    the pivot rows of that moment clears the row to zero); each reduction pass as (row,
    the pivot columns it was given, in their order, the row it returned); the runs that
    ``_settle`` was handed, each as its pivot rows {c: row} before settling; and the
    span's events, "packed" for each packing afresh and "widened" for each pivot row
    packed over a D widened in place."""
    clear = linalg._rational_cleared if rows and len(rows[0]) == 2 else linalg._cleared
    tests, passes, runs, events = [], [], [], []
    holds, repack, pack = linalg._PackedSpan.holds, linalg._PackedSpan._repack, linalg._PackedSpan._pack
    settle = linalg._settle

    def watched_holds(span, row):
        answer = holds(span, row)
        tests.append((row, answer, not clear(row, dict(span.pivots))[0]))
        return answer

    def watched_pack(span, c, row):
        den = span.den
        pack(span, c, row)
        if span.den != den:
            events.append("widened")

    def watched_clear(row, pivots):
        out = clear(row, pivots)
        passes.append((row, list(pivots), out))
        return out

    def watched_settle(given, cleared):
        runs.extend(dict(run) for run in given)
        return settle(given, cleared)

    with monkeypatch.context() as patch:
        patch.setattr(linalg._PackedSpan, "holds", watched_holds)
        patch.setattr(linalg._PackedSpan, "_repack",
                      lambda span, weight: events.append("packed") or repack(span, weight))
        patch.setattr(linalg._PackedSpan, "_pack", watched_pack)
        patch.setattr(linalg, clear.__name__, watched_clear)
        patch.setattr(linalg, "_settle", watched_settle)
        out = _gauss_jordan(rows)
    return out, tests, passes, runs, collections.Counter(events)


def _assert_one_pass_per_run(rows, passes, runs):
    """The runs and the passes of an elimination up to its first row that clears to
    zero, as ``_watched_elimination`` records them.  Within a run no pivot row holds
    another's column; each run after the first opens on a column that a row of the run
    before it holds; every pivot row is 0 at the columns of all earlier runs.  The
    nonempty input rows up to the first zero row, in order, take the first passes: one
    per run that the row holds a column of at that moment, oldest run first, after which
    the row is 0 at every pivot column so far and pivots on the next column, or is zero.
    Returns the number of those passes."""
    order = [c for run in runs for c in run]  # the pivot columns in insertion order
    for j, run in enumerate(runs):
        earlier = {c for r in runs[:j] for c in r}
        for c, row in run.items():
            assert min(row[0]) == c and not (earlier | set(run) - {c}) & set(row[0])
        if j:
            assert any(next(iter(run)) in row[0] for row in runs[j - 1].values())
    k = 0
    for n, row in enumerate([row for row in rows if row[0]][:len(order) + 1]):
        done = set(order[:n])
        for run in runs:
            cols = [c for c in run if c in done]
            if not set(cols).isdisjoint(row[0]):
                arg, given, out = passes[k]
                assert arg is row and given == cols
                row, k = out, k + 1
        assert not done & set(row[0])
        assert min(row[0]) == order[n] if n < len(order) else not row[0]
    return k


def test_each_leibniz_row_takes_one_reduction_pass(monkeypatch):
    # on the 512×64 Okubo system each nonempty row up to the first one that clears to
    # zero takes one pass per run of pivot rows it holds a column of; every later
    # nonempty row takes at most one call of the one-pass reduction, also the rows that
    # hold several pivot columns: one exactly when the span test finds it outside the
    # span of the pivot rows of that moment, where the pass would not clear it to zero,
    # and it holds one of their columns, and none otherwise; the other calls settle the
    # runs or clear a new pivot column from earlier pivot rows
    algebra = derivations.AlgebraPresentation(DERIVATION_TENSORS["okubo"]())
    rows, ncols = _leibniz_rows(algebra, monkeypatch)
    assert all(len(row) == 2 for row in rows)  # the graded table's rational rows
    holds, keyed = linalg._PackedSpan.holds, {}

    def watched_holds(span, row):  # whether the row holds a pivot column when tested
        keyed[id(row)] = not span.pivots.keys().isdisjoint(row[0])
        return holds(span, row)

    monkeypatch.setattr(linalg._PackedSpan, "holds", watched_holds)
    _, tests, passes, runs, _ = _watched_elimination(rows, monkeypatch)
    early = _assert_one_pass_per_run(rows, passes, runs)
    assert all(answer is zero for _, answer, zero in tests)
    late = [row for row in rows if row[0]][sum(map(len, runs)) + 1:]
    per_row = collections.Counter(id(row) for row, _, _ in passes)
    in_span = {id(row) for row, answer, _ in tests if answer}
    assert all(per_row[id(row)] == (id(row) not in in_span and keyed[id(row)]) for row in late)
    assert max(len(set(cols) & set(row[0])) for row, cols, _ in passes
               if any(row is r for r in late)) > 1
    # the work: of the 508 nonempty rows, 452 are dependent, and all but the first
    # zero row skip their pass; the 56 pivot rows take theirs, but for the 4 late ones
    # that hold no pivot column and pivot with no pass
    assert len(in_span) > 440
    assert sum(id(row) not in in_span and not keyed[id(row)] for row in late) == 4
    assert early + sum(per_row[id(row)] for row in late) < 70


def _left_mult_full_rank():
    """A 27×27 L_a of full rank at q = 1/2, a a seeded Albert sample."""
    m = albert.left_mult_operator(albert.ALBERT_HALF, sample_albert(random.Random("full-rank")))
    assert rank(m) == 27
    return m


@pytest.mark.parametrize("run", [lambda m: _gauss_jordan(m.ints), determinant, rref],
                         ids=["gauss-jordan", "determinant", "rref"])
def test_a_full_rank_matrix_packs_nothing(run, monkeypatch):
    # no row of a nonsingular matrix clears to zero, so its elimination never packs
    packed = []
    monkeypatch.setattr(linalg, "_PackedSpan", lambda *a: packed.append(a))
    m = _left_mult_full_rank()
    run(m)
    assert packed == []


@pytest.mark.parametrize(("make", "count"), [(lambda: ExactMatrix(_left_mult_at_half()), 29),
                                             (_left_mult_full_rank, 110)],
                         ids=["left-mult-27", "full-rank"])
def test_pivot_rows_settle_once(make, count, monkeypatch):
    # the seeded L_ε at q = 1/2 (rank 17) keeps its pivot rows in runs up to its first
    # zero row, the full-rank L_a up to its end; each row takes one pass per run it
    # holds a column of, and settling one pass per pivot row that holds a later run's
    # column.  Clearing each new pivot column from the earlier pivot rows as it came
    # took 98 and 322 passes
    m = make()
    _, _, passes, runs, _ = _watched_elimination(m.ints, monkeypatch)
    _assert_one_pass_per_run(m.ints, passes, runs)
    assert len(passes) == count


@pytest.mark.parametrize("rational", [False, True], ids=["sqrt3-rows", "rational-rows"])
def test_runs_settle_at_the_first_zero_row(rational, monkeypatch):
    # the second run's column 1 lies left of the first run's column 3; row 3 clears to
    # zero, the runs settle there, and the eager loop and the span test take over: row
    # 4 is not in the span and back-clears column 2, row 5 is
    m = ExactMatrix(_edge_matrices()["runs-settle-mid-loop"])
    rows = [(na, d) for na, _, d in m.ints] if rational else m.ints
    _, tests, passes, runs, events = _watched_elimination(rows, monkeypatch)
    assert [list(run) for run in runs] == [[3, 0], [1]]
    early = _assert_one_pass_per_run(rows, passes, runs)
    assert [(row, answer) for row, answer, _ in tests] == [(rows[4], False), (rows[5], True)]
    assert events["packed"] == 1
    # after the early passes: one settling pass (row 1 holds column 1), row 4's pass,
    # and column 2 cleared from the two pivot rows that hold it
    assert [(arg is rows[4], cols) for arg, cols, _ in passes[early:]] == [
        (False, [1]), (True, [3, 0, 1]), (False, [2]), (False, [2])]


def _random_sparse_rows(rng, rational):
    """Up to 8 seeded sparse integer rows of up to 8 columns, (na, d) if ``rational``
    and (na, nb, d) if not: fresh rows, zero rows, duplicates of earlier rows (the
    same object or a copy), and multiples and sums of earlier rows, some of them not
    in lowest terms, so that the rows are often rank-deficient."""
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
    rows = []
    for _ in range(nrows):
        kind = rng.randrange(6) if rows else 0
        if kind == 1:
            rows.append(({}, rng.randint(1, 4)) if rational else ({}, {}, rng.randint(1, 4)))
        elif kind == 2:
            rows.append(rng.choice(rows) if rng.randrange(2) else copy.deepcopy(rng.choice(rows)))
        elif kind == 3:  # k·row over k·d: the same values, not in lowest terms
            k, (*parts, d) = rng.randint(2, 6), rng.choice(rows)
            rows.append((*({j: k * x for j, x in p.items()} for p in parts), k * d))
        elif kind == 4:  # the sum of two earlier rows, over the product of their denominators
            (*p, dp), (*q, dq) = rng.choice(rows), rng.choice(rows)
            sums = [{j: dq * x.get(j, 0) + dp * y.get(j, 0) for j in x.keys() | y.keys()}
                    for x, y in zip(p, q)]
            keep = [j for j in sums[0] if any(s[j] for s in sums)]
            rows.append((*({j: s[j] for j in keep} for s in sums), dp * dq))
        else:
            cols = [j for j in range(ncols) if rng.randrange(3)]
            na = {j: rng.randint(-9, 9) or 1 for j in cols}
            nb = {j: rng.randint(-4, 4) for j in cols}
            rows.append((na, rng.randint(1, 9)) if rational else (na, nb, rng.randint(1, 9)))
    return rows, ncols


@pytest.mark.parametrize("rational", [False, True], ids=["sqrt3-rows", "rational-rows"])
def test_insertion_matches_both_oracles_on_random_sparse_rows(rational):
    rng = random.Random(f"insertion:{rational}")
    for _ in range(150):
        rows, ncols = _random_sparse_rows(rng, rational)
        _assert_same_elimination(rows, ncols)
        m = ExactMatrix(_f3_rows(rows, ncols))
        _, pivots, divisors, sign = _gauss_jordan_by_scalars(m)
        if m.rows == m.cols:
            want = math.prod(divisors, start=F3(sign)) if len(pivots) == m.rows else F3()
            assert _bits([determinant(m)]) == _bits([want])


def _sparse_row(entries, d, rational):
    """Integer pairs {j: (a, b)} over d as a sparse row (na, d) or (na, nb, d), without
    its zero entries (a rational row keeps only the a)."""
    if rational:
        return {j: a for j, (a, _) in entries.items() if a}, d
    keep = [j for j, (a, b) in entries.items() if a or b]
    return {j: entries[j][0] for j in keep}, {j: entries[j][1] for j in keep}, d


def _growing_rows(rng, rational, ncols=13):
    """Rows whose elimination packs and then outgrows its packing: three independent rows
    over 1 in the first ncols − 3 columns and their sum, the first zero row; a row
    p·e_c + e_(c+1), c = ncols − 3, for a prime p, whose pivot row is over p, so D grows
    in place; rows with entries of 2^100, 2^200 and 2^300, whose pivot rows outgrow W;
    and after each, combinations of the rows so far (in the span, not in lowest terms)
    and a combination with an entry in the last column, which no pivot row holds until
    such a row pivots on it."""
    def fresh(bits):
        return {j: (rng.randint(-2**bits, 2**bits) or 1, rng.randint(-2**bits, 2**bits) // 3)
                for j in rng.sample(range(ncols - 3), 3)}

    def combination(rows, extra=False):
        (p, dp), (q, dq) = rng.sample(rows, 2)
        k, m = rng.randint(-3, 3) or 1, rng.randint(1, 4)
        out = {j: tuple(k * dq * x + m * dp * y for x, y in zip(p.get(j, (0, 0)), q.get(j, (0, 0))))
               for j in p.keys() | q.keys()}
        if extra:
            out[ncols - 1] = (rng.randint(1, 9), rng.randint(0, 3))
        return out, dp * dq * m

    rows = [(fresh(3), 1) for _ in range(3)]
    rows.append(({j: tuple(map(sum, zip(*(r.get(j, (0, 0)) for r, _ in rows))))
                  for j in range(ncols - 3)}, 1))
    rows.append(({ncols - 3: (rng.choice((29, 31, 37)), 0), ncols - 2: (1, 0)}, 1))
    for bits in (100, 200, 300):
        rows.append((fresh(bits), rng.randint(1, 9)))
        rows.extend(combination(rows) for _ in range(3))
        rows.append(combination(rows, extra=True))
    return [_sparse_row(entries, d, rational) for entries, d in rows], ncols


SPAN_CASES = {
    "random-sparse": lambda rng, rational: [_random_sparse_rows(rng, rational) for _ in range(150)],
    "growing": lambda rng, rational: [_growing_rows(rng, rational) for _ in range(12)],
}


@pytest.mark.parametrize("rational", [False, True], ids=["sqrt3-rows", "rational-rows"])
@pytest.mark.parametrize("case", SPAN_CASES)
def test_span_test_answers_as_the_reduction_pass(case, rational, monkeypatch):
    # each span test answers "in the span" exactly when the form's reduction pass
    # against the pivot rows of that moment leaves zero, and the elimination that skips
    # those rows is the oracles' elimination
    rng = random.Random(f"span:{case}:{rational}")
    answers = collections.Counter()
    for rows, ncols in SPAN_CASES[case](rng, rational):
        _, tests, _, _, events = _watched_elimination(rows, monkeypatch)
        assert all(answer is zero for _, answer, zero in tests)
        answers.update(answer for _, answer, _ in tests)
        if case == "growing":  # the prime widens D in place, the entries of 2^100 and more W
            assert events["widened"] >= 1 and events["packed"] >= 3
        _assert_same_elimination(rows, ncols)
    assert answers[True] > 40 and answers[False] > 40


def test_span_test_sees_a_carry_that_one_bit_less_would_cancel():
    # pivot rows e0 + e2 and e3 + e2 over 1, packed for rows of weight 3 at W = bitlen(3)
    # + slack.  Rows e0 + t·e2 and e3 + t·e2 leave e1 + e0 + e3 at -2t in the slot of
    # column 2 and 1 in the slot of column 1 above it.  At t = 2^(W-2) the sum is
    # -2^(W-1) + 2^W, which slots of W - 1 bits would carry away to 0; at t = 2^(W-1) it
    # is 0, but weight 3 times T = t reaches 2^W, so the zero is not certain and
    # everything repacks with a wider W, where the sum is not 0
    pivots = {0: ({0: 1, 2: 1}, 1), 3: ({3: 1, 2: 1}, 1)}
    span = linalg._PackedSpan(pivots, 3)
    w = span.width
    assert w == 2 + linalg._SLACK
    row = ({0: 1, 3: 1, 1: 1}, 1)
    for t, repacked in ((2 ** (w - 2), False), (2 ** (w - 1), True)):
        pivots.update({0: ({0: 1, 2: t}, 1), 3: ({3: 1, 2: t}, 1)})
        span.dirty |= {0, 3}
        assert span.holds(row) is False
        assert linalg._rational_cleared(row, pivots) == ({1: 1, 2: -2 * t}, 1)
        assert (span.width > w) is repacked
        assert span.holds(({0: 1, 3: -1}, 1)) is True
        # the same over Q(√3), with √3 parts 0 and an entry (1 + √3)/1 in the span
        q3 = {c: (pa, dict.fromkeys(pa, 0), pd) for c, (pa, pd) in pivots.items()}
        q3_span = linalg._PackedSpan(q3, 3)
        assert q3_span.holds(({0: 1, 3: 1, 1: 1}, {0: 0, 3: 0, 1: 0}, 1)) is False
        assert q3_span.holds(({0: 1, 3: -1}, {0: 1, 3: -1}, 1)) is True


def _signature_by_scalars(m):
    """Diagonalization by congruence on F3 entries: the oracle for
    ``symmetric_signature``, which runs on integer rows through ``_normalized`` and
    ``_cleared``."""
    n = m.rows
    a = [list(r) for r in m.entries]
    pos = neg = zero = 0
    for step in range(n):
        # find a nonzero diagonal entry
        sel = next((k for k in range(step, n) if a[k][k]), None)
        if sel is None:
            offd = next(((i, j) for i in range(step, n) for j in range(i + 1, n) if a[i][j]),
                        None)
            if offd is None:
                zero += n - step
                break
            i, j = offd
            # a[i][i] = a[j][j] = 0, a[i][j] ≠ 0: row/col addition makes
            # a new nonzero diagonal entry 2*a[i][j]
            for k in range(n):
                a[i][k] = a[i][k] + a[j][k]
            for k in range(n):
                a[k][i] = a[k][i] + a[k][j]
            sel = i
        if sel != step:
            a[step], a[sel] = a[sel], a[step]
            for k in range(n):
                a[k][step], a[k][sel] = a[k][sel], a[k][step]
        d = a[step][step]
        if d.is_positive():
            pos += 1
        else:
            neg += 1
        dinv = d.inverse()
        for r in range(step + 1, n):
            if a[r][step]:
                f = a[r][step] * dinv
                for k in range(n):
                    a[r][k] = a[r][k] - f * a[step][k]
    return pos, neg, zero


def _symmetric(rng, n, diagonal=True, entry=_mixed_f3):
    a = [[F3()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i if diagonal else i + 1, n):
            a[i][j] = a[j][i] = entry(rng)
    return a


def _rational_f3(rng):
    # _mixed_f3 with no √3 part
    return F3(_mixed_f3(rng).a)


def _trace_form(name):
    """The trace form of the derivation algebra of a tensor of
    ``DERIVATION_TENSORS``, as ``killing_signature`` reads it."""
    algebra = derivations.AlgebraPresentation(DERIVATION_TENSORS[name]())
    return derivations.killing_matrix(derivations.derivation_space(algebra)[1])


def _seeded(make):
    """A zero-argument case builder that draws from its own seeded stream."""
    return lambda: make(random.Random(f"signature:{make.__name__}"))


def _samples(rng):
    # 25 matrices of each size 1-9
    return [_symmetric(rng, n) for n in range(1, 10) for _ in range(25)]


def _zero_diagonal(rng):
    return [_symmetric(rng, n, diagonal=False) for n in range(2, 8) for _ in range(8)]


def _rational_samples(rng):
    # sizes 1-9 over Q, with and without a diagonal: the rational Schur steps
    return [_symmetric(rng, n, diagonal, _rational_f3)
            for n in range(1, 10) for diagonal in (True, False) for _ in range(12)]


def _congruences(rng):
    # Pᵀ A P for a zero-diagonal A, P square or of fewer columns
    return [
        _congruent([[_mixed_f3(rng) for _ in range(k)] for _ in range(n)], _symmetric(rng, n, False))
        for n, k in [(3, 3), (4, 4), (5, 5), (5, 3), (6, 6), (6, 4), (7, 7)] for _ in range(4)
    ]


def _rank_deficient(rng):
    # Bᵀ D B for B of k < n rows and D diagonal in {-1, 0, 2}
    return [
        _congruent([[_mixed_f3(rng) for _ in range(n)] for _ in range(k)],
                   [[F3(rng.choice((-1, 0, 2))) if i == j else F3() for j in range(k)]
                    for i in range(k)])
        for n, k in [(4, 2), (6, 3), (7, 5), (9, 4)] for _ in range(3)
    ]


def _negative_definite(rng):
    # -PᵀP for a 12×12 integer P
    p = [[F3(rng.randint(-9, 9)) for _ in range(12)] for _ in range(12)]
    return [[[-sum((p[k][i] * p[k][j] for k in range(12)), F3()) for j in range(12)]
             for i in range(12)]]


R3 = F3(0, 1)

# Named builders of lists of symmetric matrices for the signature oracle;
# the "hyperbolic", "blocks", "zero-diagonal" and "zero-diagonal-congruences"
# cases take [[0, b], [b, 0]] blocks
SIGNATURE_INPUTS = {
    "diagonal": lambda: [[[2, 0, 0], [0, -1, 0], [0, 0, 0]], [[-2 + R3]], [[R3, 0], [0, 1 - R3]]],
    "hyperbolic": lambda: [[[0, 1], [1, 0]], [[0, R3 / 7], [R3 / 7, 0]],
                           [[0, 0, F3(1) / 3], [0, 0, 0], [F3(1) / 3, 0, F3(1) / 2]]],
    "zero": lambda: [[[0] * n for _ in range(n)] for n in (1, 2, 5)],
    # a block reached only after a 1×1 step, two blocks in a row, and a block
    # followed by a zero remainder
    "blocks": lambda: [[[1, 1, 0], [1, 1, 1], [0, 1, 0]],
                       [[0, R3, 1, 0], [R3, 0, 0, 1], [1, 0, 0, 2 * R3], [0, 1, 2 * R3, 0]],
                       [[0, 0, 3, 0], [0, 0, 0, 0], [3, 0, 0, 0], [0, 0, 0, 0]]],
    # the fixed cases of the congruence tests above
    "congruence-samples": _congruence_samples,
    "zero-diagonal-congruences": lambda: [m for pair in _zero_diagonal_pairs() for m in pair],
    "seeded": _seeded(_samples),
    "rational": _seeded(_rational_samples),
    "zero-diagonal": _seeded(_zero_diagonal),
    "congruences": _seeded(_congruences),
    "rank-deficient": _seeded(_rank_deficient),
    "negative-definite": _seeded(_negative_definite),
    "gram-compact": lambda: [okubo.gram_matrix(COMPACT).entries],
    "gram-split": lambda: [okubo.gram_matrix(SPLIT).entries],
    **{f"trace-form-{name}": lambda name=name: [_trace_form(name).entries]
       for name in DERIVATION_TENSORS},
}


@pytest.mark.parametrize("name", SIGNATURE_INPUTS)
def test_signature_matches_the_scalar_oracle(name):
    for entries in SIGNATURE_INPUTS[name]():
        m = ExactMatrix(entries)
        got = symmetric_signature(m)
        assert type(got) is tuple and [type(x) for x in got] == [int] * 3
        assert got == _signature_by_scalars(m)
        assert sum(got) == m.rows and got[0] + got[1] == rank(m)


@pytest.mark.parametrize("entries, steps", [
    ([[0, 1, 2], [1, 0, 1], [2, 1, 0]], {"_rational_normalized", "_rational_cleared"}),
    ([[0, 1, R3], [1, 0, 1], [R3, 1, 0]], {"_normalized", "_cleared"}),
], ids=["rational", "q-sqrt3"])
def test_signature_steps_in_the_form_of_the_rows(entries, steps, monkeypatch):
    # a matrix with no √3 part takes the rational steps: a block [[0, 1], [1, 0]],
    # then the nonzero 1×1 complement
    calls = []
    for fn in ("_normalized", "_cleared", "_rational_normalized", "_rational_cleared"):
        real = getattr(linalg, fn)
        monkeypatch.setattr(linalg, fn, lambda *a, fn=fn, real=real: calls.append(fn) or real(*a))
    m = ExactMatrix(entries)
    assert symmetric_signature(m) == _signature_by_scalars(m)
    assert set(calls) == steps


def test_signature_needs_a_square_matrix():
    with pytest.raises(ValueError, match="signature of non-square matrix"):
        symmetric_signature(ExactMatrix([[1, 0]]))


@pytest.mark.parametrize("entries", [
    [[0, 1], [2, 0]],
    [[1, 1], [0, 1]],
    [[0, 1 + R3], [1, 0]],
    [[0, F3(1) / 3, 0], [F3(1) / 2, 0, 0], [0, 0, 1]],
], ids=["rational", "one-sided", "sqrt3-part", "denominators"])
def test_signature_needs_a_symmetric_matrix(entries):
    with pytest.raises(ValueError, match="signature of non-symmetric matrix"):
        symmetric_signature(ExactMatrix(entries))
