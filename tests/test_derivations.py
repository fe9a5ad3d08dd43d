"""Derivation Lie algebras computed from the Leibniz nullspace."""

import functools
import random
from fractions import Fraction

import pytest

from okubic import albert, derivations, linalg
from okubic.derivations import (
    AlgebraPresentation,
    _bracket,
    _common_denominator,
    _flat,
    _lie_closed,
    _rational_bracket,
    _rows_of,
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
from okubic.linalg import (
    COMPACT,
    SPLIT,
    ExactMatrix,
    SparseTable,
    _cleared,
    _gauss_jordan,
    _rational_cleared,
    _reduced,
    _vector_ints,
    bilinear,
    rank,
)
from okubic.okubo import OkuboElement, polar, sample_okubo, structure_constants

# the tensors, the seam on derivation_space and the row reading of the
# elimination oracle in test_linalg
from test_linalg import (
    DERIVATION_TENSORS,
    LIBRARY_TABLES,
    _assert_same_elimination,
    _assert_sparse,
    _bits,
    _f3_rows,
    _leibniz_rows,
    _signed_permuted,
)


def _commutator(a, b):
    """ab - ba through ``_bracket``, the integer sum that the Lie closure check makes."""
    rows, d = _rows_of(_bracket(_common_denominator(a.ints), _common_denominator(b.ints)), a.cols)
    return ExactMatrix._from_ints([_reduced(na, nb, d) for na, nb in rows], a.cols)


def _is_derivation(mul, d, u, v):
    """Leibniz rule on one coordinate pair: D(u*v) = D(u)*v + u*D(v), for the
    product ``mul`` of coordinate lists."""
    lhs = d.mul_vec(mul(u, v))
    rhs_a = mul(d.mul_vec(u), v)
    rhs_b = mul(u, d.mul_vec(v))
    return lhs == [a + b for a, b in zip(rhs_a, rhs_b)]


def _table_mul(table):
    """The product of F3 coordinate lists given by any table, through ``bilinear``."""
    def mul(u, v):
        na, nb, d = bilinear(table, _vector_ints(u), _vector_ints(v))
        return [F3(Fraction(a, d), Fraction(b, d)) for a, b in zip(na, nb)]
    return mul


COMPACT_PRES = okubo_presentation(COMPACT)
COMPACT_DIM, COMPACT_BASIS = derivation_space(COMPACT_PRES)


def test_compact_okubo_derivations_have_dimension_eight():
    assert COMPACT_DIM == 8


def _record_matrices(monkeypatch):
    """The list that every ExactMatrix built from now on is appended to."""
    built = []
    init, from_ints = ExactMatrix.__init__, ExactMatrix._from_ints.__func__

    def record(cls, rows, cols):
        built.append(from_ints(cls, rows, cols))
        return built[-1]

    monkeypatch.setattr(ExactMatrix, "__init__",
                        lambda self, entries: init(self, entries) or built.append(self))
    monkeypatch.setattr(ExactMatrix, "_from_ints", classmethod(record))
    return built


def test_derivation_space_builds_one_matrix_per_basis_element(monkeypatch):
    # the Leibniz system is never an ExactMatrix: only the 8 n×n results are,
    # each built straight from integer rows
    built = _record_matrices(monkeypatch)
    dim, basis = derivation_space(okubo_presentation(COMPACT))
    assert dim == 8 and len(built) == 8 and all(m is b for m, b in zip(built, basis))
    assert all((m.rows, m.cols) == (8, 8) for m in built)
    assert not any((m.rows, m.cols) == (512, 64) for m in built)


def test_derivation_space_reads_only_the_table():
    # any table will do: the cached one of okubo_mul gives the presentation's basis
    assert derivation_space(structure_constants(COMPACT)) == (COMPACT_DIM, COMPACT_BASIS)


@pytest.mark.parametrize("flavor", [COMPACT, SPLIT])
def test_okubo_table_and_presentation_give_one_report(flavor):
    # the report of okubic derivations reads the cached table, and the presentation
    # is that table; the same constants brought in as a dense tensor give one report too
    table = structure_constants(flavor)
    assert okubo_presentation(flavor) is table
    pres = AlgebraPresentation(table.constants)
    assert (table.ints, table.den) == (pres.ints, pres.den)
    assert derivation_report(table) == derivation_report(pres)


@functools.lru_cache(maxsize=None)
def _albert_derivations(q):
    """Der(𝔸_q) from ``derivation_space``, computed once per q for the tests below."""
    return derivation_space(albert._table(F3(q)))


@pytest.mark.parametrize("q, dim", [(Fraction(1, 2), 52), (Fraction(0), 84)], ids=str)
def test_albert_derivation_dimensions(q, dim):
    # dim f4 = 52 at q = 1/2; at q = 0 the slots do not multiply each other
    # and 84 = 3·28 = dim so(O, n)³.  All 19 683 Leibniz rows are eliminated.
    got, basis = _albert_derivations(q)
    assert got == len(basis) == dim
    assert all((m.rows, m.cols) == (27, 27) for m in basis)
    # a Lie algebra with a negative-definite trace form: compact f4 and so(8)³
    assert check_lie_closure(basis)
    assert killing_signature(basis) == (0, dim, 0)


def _leibniz_rows_by_scalars(c):
    """The dense F3 Leibniz rows from a structure tensor c: the oracle for the
    integer rows ``derivation_space`` writes from the table's integer form."""
    n = len(c)
    zero = F3()
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = [zero] * (n * n)
                for m in range(n):
                    if c[i][j][m]:
                        row[k * n + m] = row[k * n + m] + c[i][j][m]
                for r in range(n):
                    if c[r][j][k]:
                        row[r * n + i] = row[r * n + i] - c[r][j][k]
                    if c[i][r][k]:
                        row[r * n + j] = row[r * n + j] - c[i][r][k]
                rows.append(row)
    return rows


def _rescaled_by_scalars(c, p):
    """c[i][j][k]·√3^(p_i + p_j - p_k) as F3: the tensor c in the basis √3^p_i·b_i."""
    n, r3 = len(c), F3(0, 1)
    power = {-1: r3.inverse(), 0: F3(1), 1: r3, 2: r3 * r3}
    return [[[F3.coerce(c[i][j][k]) * power[p[i] + p[j] - p[k]] for k in range(n)]
             for j in range(n)] for i in range(n)]


# b0·b0 = (1 + √3)/2·b0: a constant with both parts nonzero and no other obstacle to
# a grading (its √3 part alone is graded by p = [1, 0]); D(b1) = b1 spans the derivations
UNGRADED = [[[F3(Fraction(1, 2), Fraction(1, 2)), 0], [0, 0]], [[0, 0], [0, 0]]]

LEIBNIZ_TENSORS = {
    **DERIVATION_TENSORS,
    **{f"{name}-signed-permuted": lambda name=name: _signed_permuted(name)
       for name in DERIVATION_TENSORS},
    "idempotent-line": lambda: [[[1]]],
    "zero-n2": lambda: [[[0] * 2] * 2] * 2,
    "ungraded": lambda: UNGRADED,
}


@pytest.mark.parametrize("name", LEIBNIZ_TENSORS)
def test_leibniz_rows_match_the_scalar_oracle(name, monkeypatch):
    algebra = AlgebraPresentation(LEIBNIZ_TENSORS[name]())
    n = len(algebra.ints)
    rows, ncols = _leibniz_rows(algebra, monkeypatch)
    assert (len(rows), ncols) == (n ** 3, n * n)
    # a graded table's rows are rational rows (na, d) of its tensor in the basis
    # √3^p_i·b_i, for the grading p the code found; an ungraded table's are over Q(√3)
    p = (derivations._q_form(algebra) or (None,))[0]
    assert (p is None) is (name == "ungraded")
    assert {len(row) for row in rows} == {3 if p is None else 2}
    c = LEIBNIZ_TENSORS[name]()
    # derivation_space hands the rows over shortest first, in a stable sort
    want = sorted(_leibniz_rows_by_scalars(c if p is None else _rescaled_by_scalars(c, p)),
                  key=lambda row: sum(1 for x in row if x))
    assert [_bits(r) for r in _f3_rows(rows, ncols)] == [_bits(r) for r in want]


def test_ungraded_leibniz_rows_eliminate_over_q_sqrt3(monkeypatch):
    rows, ncols = _leibniz_rows(AlgebraPresentation(UNGRADED), monkeypatch)
    _assert_same_elimination(rows, ncols)
    dim, basis = derivation_space(AlgebraPresentation(UNGRADED))
    assert dim == len(basis) == 1


# UNGRADED with one more basis vector b2 that multiplies to 0: D kills b0 and maps
# span{b1, b2} into itself, so Der is gl2 (dim 4) and its brackets are not all zero
UNGRADED_GL2 = [[[F3(Fraction(1, 2), Fraction(1, 2)), 0, 0], [0] * 3, [0] * 3],
                [[0] * 3] * 3, [[0] * 3] * 3]


def _leibniz_rows_by_terms(table):
    """The Leibniz rows of ``_derivation_kernel`` from three term lists per cell (i, j),
    (equation k, unknown, A, B) for the cell, column j and row i, summed in that order
    into one row per k and sorted shortest first: the oracle for its writer."""
    p, ints = derivations._q_form(table) or (None, table.ints)
    n, den = len(ints), table.den
    rows = []
    for i in range(n):
        for j in range(n):
            terms = [(k, k * n + m, a, b) for k in range(n) for m, a, b in ints[i][j]]
            terms += [(k, r * n + i, -a, -b) for r in range(n) for k, a, b in ints[r][j]]
            terms += [(k, r * n + j, -a, -b) for r in range(n) for k, a, b in ints[i][r]]
            if p is None:
                eqs = [({}, {}, den) for _ in range(n)]
                for k, col, a, b in terms:
                    derivations._add_entry(eqs[k][0], eqs[k][1], col, a, b)
            else:
                eqs = [({}, den) for _ in range(n)]
                for k, col, a, _ in terms:
                    na = eqs[k][0]
                    na[col] = na.get(col, 0) + a
                    if not na[col]:
                        del na[col]
            rows += eqs
    return sorted(rows, key=lambda row: len(row[0]))


class _Written(Exception):
    """Carries the rows that ``_derivation_kernel`` hands to the elimination."""


def _written_rows(table, monkeypatch):
    """The rows ``_derivation_kernel`` hands to ``_gauss_jordan``, taken before it runs."""
    def stop(rows):
        raise _Written(rows)

    with monkeypatch.context() as patch:
        patch.setattr(derivations, "_gauss_jordan", stop)
        with pytest.raises(_Written) as written:
            derivations._derivation_kernel(table)
    return written.value.args[0]


WRITER_TABLES = {
    **{name: lambda name=name: AlgebraPresentation(LEIBNIZ_TENSORS[name]())
       for name in LEIBNIZ_TENSORS},
    "ungraded-gl2": lambda: AlgebraPresentation(UNGRADED_GL2),
    "okubo-table": lambda: structure_constants(COMPACT),
    "split-okubo-table": lambda: structure_constants(SPLIT),
    # cells that list an output twice, one pair cancelling: rows built by adding in order
    "repeated-outputs": lambda: SparseTable([[[(0, 1), (1, 2), (0, -1)], [(1, 1), (1, 1)]],
                                             [[(0, 1), (0, 3)], [(1, -2), (0, 1)]]]),
    **{f"albert-q={q}": lambda q=q: albert._table(F3(q))
       for q in (Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1))},
}


@pytest.mark.parametrize("name", WRITER_TABLES)
def test_leibniz_writer_matches_the_term_lists(name, monkeypatch):
    # the same rows in the same order, each dict with the same keys in the same order
    table = WRITER_TABLES[name]()
    got, want = _written_rows(table, monkeypatch), _leibniz_rows_by_terms(table)
    assert got == want
    assert [[list(part) for part in row[:-1]] for row in got] == [
        [list(part) for part in row[:-1]] for row in want]
    graded = derivations._q_form(table) is not None
    assert {len(row) for row in got} == {2 if graded else 3}
    assert graded is not name.startswith("ungraded")


# each table with the basis of its Q(√3) chain: Der(𝔸_q) from the cache above
REPORT_TABLES = {
    "okubo": (lambda: structure_constants(COMPACT), None),
    "split-okubo": (lambda: structure_constants(SPLIT), None),
    "petersson": (petersson_presentation, None),
    **{f"{name}-signed-permuted": (lambda name=name: AlgebraPresentation(_signed_permuted(name)),
                                   None) for name in DERIVATION_TENSORS},
    "ungraded": (lambda: AlgebraPresentation(UNGRADED), None),
    "ungraded-gl2": (lambda: AlgebraPresentation(UNGRADED_GL2), None),
    "zero-n2": (lambda: AlgebraPresentation([[[0] * 2] * 2] * 2), None),
    "idempotent-line": (lambda: AlgebraPresentation([[[1]]]), None),
    **{f"albert-q={q}": (lambda q=q: albert._table(F3(q)), lambda q=q: _albert_derivations(q))
       for q in (Fraction(0), Fraction(1, 2), Fraction(1))},
}


@pytest.mark.parametrize("name", REPORT_TABLES)
def test_report_matches_the_q_sqrt3_chain(name):
    # the report reads the rational kernel D′; the oracle reads the basis D back over
    # Q(√3) and runs check_lie_closure and killing_signature on it
    make, cached = REPORT_TABLES[name]
    table = make()
    dim, basis = cached() if cached else derivation_space(table)
    pos, neg, zero = killing_signature(basis)
    assert derivation_report(table) == {
        "dimension": dim,
        "lie_closed": check_lie_closure(basis),
        "killing_signature": {"pos": pos, "neg": neg, "zero": zero},
    }


@pytest.mark.parametrize("name", ["okubo", "split-okubo", "petersson", "ungraded-gl2"])
def test_report_reads_the_kernel_in_its_own_form(name, monkeypatch):
    # over a Q-form the report brackets, clears and sums on rational rows and builds
    # no basis matrix: its one ExactMatrix is the trace form handed to the signature.
    # With no Q-form it takes the Q(√3) bracket and clearing; UNGRADED itself has a
    # 1-dimensional Der and so no bracket, and its widening to gl2 has some
    table = REPORT_TABLES[name][0]()
    graded = derivations._q_form(table) is not None
    assert graded is (name != "ungraded-gl2")
    calls, signed = [], []
    for fn in ("_bracket", "_cleared", "_rational_bracket", "_rational_cleared"):
        real = getattr(derivations, fn)
        monkeypatch.setattr(derivations, fn,
                            lambda *a, fn=fn, real=real: calls.append(fn) or real(*a))
    signature = derivations.symmetric_signature
    monkeypatch.setattr(derivations, "symmetric_signature",
                        lambda m: signed.append(m) or signature(m))
    built = _record_matrices(monkeypatch)
    report = derivation_report(table)
    assert report["lie_closed"] and report["dimension"] == (8 if graded else 4)
    assert len(built) == len(signed) == 1 and built[0] is signed[0]
    q_sqrt3, rational = {"_bracket", "_cleared"}, {"_rational_bracket", "_rational_cleared"}
    assert set(calls) == (rational if graded else q_sqrt3)


def _assert_graded(table, p):
    """p grades the table: each constant (k, A, B) of cell (i, j) has B = 0 when
    p_i + p_j + p_k is even and A = 0 when it is odd; a form's one output is a
    scalar, so its p_k is 0."""
    assert len(p) == len(table.ints) and set(p) <= {0, 1}
    form = table.size != len(table.ints)
    for i, row in enumerate(table.ints):
        for j, cell in enumerate(row):
            for k, a, b in cell:
                pk = 0 if form else p[k]
                assert not (b if (p[i] + p[j] + pk) % 2 == 0 else a), (i, j, k)


@pytest.mark.parametrize("name", [*LIBRARY_TABLES, *(f"{name}-signed-permuted"
                                                     for name in DERIVATION_TENSORS)])
def test_grading_solves_every_library_table(name):
    # solutions need not be unique: check the constraint, not a fixed parity
    if name in LIBRARY_TABLES:
        table = LIBRARY_TABLES[name][0]()
    else:
        table = AlgebraPresentation(LEIBNIZ_TENSORS[name]())
    _assert_graded(table, derivations._q_form(table)[0])


def _q_form_dense(table, ints):
    """The dense tensor of the Q-form constants ``ints`` over the table's den, as F3s."""
    n, d = len(ints), table.den
    out = [[[F3()] * table.size for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(ints):
        for j, cell in enumerate(row):
            for k, a, b in cell:
                assert b == 0
                out[i][j][k] = F3(Fraction(a, d))
    return out


# the library tables with one output coordinate
FORMS = ("okubo-gram", "split-okubo-gram", "beta")


@pytest.mark.parametrize("name", [*LEIBNIZ_TENSORS,
                                  *(f"table-{name}" for name in LIBRARY_TABLES if name not in FORMS)])
def test_q_form_constants_match_the_rescaled_tensor(name):
    # each Q-form constant is c·√3^(p_i + p_j - p_k), rational, for the p it returns
    if name in LEIBNIZ_TENSORS:
        c = LEIBNIZ_TENSORS[name]()
        table = AlgebraPresentation(c)
    else:
        table = LIBRARY_TABLES[name.removeprefix("table-")][0]()
        c = table.constants
    assert table.size == len(table.ints)
    view = derivations._q_form(table)
    assert (view is None) is (name == "ungraded")
    if view is not None:
        p, ints = view
        assert _q_form_dense(table, ints) == _rescaled_by_scalars(c, p)


def test_grading_is_none_for_a_mixed_or_inconsistent_table():
    assert derivations._q_form(AlgebraPresentation(UNGRADED)) is None
    # b0·b0 = b0 + √3·b1 forces p1 = 1, and b1·b1 = b1 forces p1 = 0
    r3 = F3(0, 1)
    inconsistent = AlgebraPresentation([[[1, r3], [0, 0]], [[0, 0], [0, 1]]])
    assert derivations._q_form(inconsistent) is None
    # either constraint alone is met
    assert derivations._q_form(AlgebraPresentation([[[1, r3], [0, 0]], [[0, 0], [0, 0]]]))[0] == [0, 1]
    assert derivations._q_form(AlgebraPresentation([[[1, 0], [0, 0]], [[0, 0], [0, 1]]]))[0] == [0, 0]


def test_q_form_reads_a_form_output_as_a_scalar():
    # a form's value has parity 0, so cell (i, j) needs p_i + p_j odd exactly for a √3
    # constant: √3·(x0y0 + x1y1) has none, since 3^p·√3 is never rational
    r3 = F3(0, 1)
    assert derivations._q_form(SparseTable([[((0, r3),), ()], [(), ((0, r3),)]], 1)) is None
    # ⟨b0, b1⟩ = √3 and ⟨b1, b1⟩ = 1: ⟨b0, √3·b1⟩ = ⟨√3·b1, √3·b1⟩ = 3
    graded = SparseTable([[(), ((0, r3),)], [(), ((0, 1),)]], 1)
    p, ints = derivations._q_form(graded)
    assert p == [0, 1] and graded.den == 1
    assert [t for row in ints for cell in row for t in cell] == [(0, 3, 0), (0, 3, 0)]
    _assert_graded(graded, p)


@pytest.mark.parametrize("name", FORMS)
def test_derivation_space_rejects_a_form(name):
    # a form's one output is a scalar, not basis vector b0, so it has no Leibniz system
    table = LIBRARY_TABLES[name][0]()
    assert table.size == 1 != len(table.ints)
    with pytest.raises(ValueError, match="not a product table"):
        derivation_space(table)


@pytest.mark.parametrize("name", [*DERIVATION_TENSORS, *(f"{name}-signed-permuted"
                                                         for name in DERIVATION_TENSORS),
                                  "albert-q=0"])
def test_q_form_is_only_a_change_of_basis(name, monkeypatch):
    # with no Q-form the rows stay over Q(√3); RREF is unique, so the bases read back
    # from the Q-basis are that path's
    if name in LEIBNIZ_TENSORS:
        table = AlgebraPresentation(LEIBNIZ_TENSORS[name]())
    else:
        table = LIBRARY_TABLES[name][0]()
    assert derivations._q_form(table) is not None
    over_q = derivation_space(table)
    monkeypatch.setattr(derivations, "_q_form", lambda table: None)
    assert derivation_space(table) == over_q


@pytest.mark.parametrize("make", [
    lambda: (albert._table(F3(Fraction(1, 2))), _albert_derivations(Fraction(1, 2))[1]),
    lambda: (albert._table(F3(0)), _albert_derivations(Fraction(0))[1]),
    lambda: (structure_constants(SPLIT), derivation_space(structure_constants(SPLIT))[1]),
    lambda: (AlgebraPresentation(_signed_permuted("okubo")),
             derivation_space(AlgebraPresentation(_signed_permuted("okubo")))[1]),
    lambda: (AlgebraPresentation(UNGRADED), derivation_space(AlgebraPresentation(UNGRADED))[1]),
], ids=["albert-q=1/2", "albert-q=0", "split-okubo", "okubo-signed-permuted", "ungraded"])
def test_every_basis_matrix_is_a_derivation(make):
    # each D read back from the Q-basis (or over Q(√3)) satisfies the Leibniz
    # rule on seeded pairs, with both products by bilinear on the table
    table, basis = make()
    n, rng = len(table.ints), random.Random(f"leibniz-rule:{len(basis)}")
    for d in basis:
        for _ in range(2):
            u = [sample_f3(rng) for _ in range(n)]
            v = [sample_f3(rng) for _ in range(n)]
            assert _is_derivation(_table_mul(table), d, u, v)


@pytest.mark.parametrize("name", LEIBNIZ_TENSORS)
def test_leibniz_rows_store_no_zero_entry(name, monkeypatch):
    rows, _ = _leibniz_rows(AlgebraPresentation(LEIBNIZ_TENSORS[name]()), monkeypatch)
    _assert_sparse(rows)


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
            assert _is_derivation(COMPACT_PRES.mul_coords, d, u, v)


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
    # the trace form of an empty basis is the 0×0 matrix, whose signature is empty
    assert killing_matrix(basis) == ExactMatrix([])
    assert (killing_matrix(basis).rows, killing_matrix(basis).cols) == (0, 0)
    assert killing_signature(basis) == (0, 0, 0)


def test_tau_grading_holds_for_both_flavors():
    assert check_tau_grading(COMPACT)
    assert check_tau_grading(SPLIT)


def test_tau_grading_fails_on_a_constant_in_the_wrong_grade(monkeypatch):
    # b1*b2 lies in g₀, on b3: the same table with that constant moved to b1 ∈ g₁
    cells = [list(row) for row in structure_constants(COMPACT).cells]
    (k, c), = cells[1][2]
    assert k == 3
    kept = SparseTable(cells)
    cells[1][2] = ((1, c),)
    moved = SparseTable(cells)
    for table, graded in ((kept, True), (moved, False)):
        monkeypatch.setattr(derivations, "structure_constants", lambda flavor: table)
        assert check_tau_grading(COMPACT) is graded


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


def _nonzero_by_scalars(m):
    """(i, j, m[i, j]) for the nonzero F3 entries of m."""
    return [(i, j, x) for i, row in enumerate(m.entries) for j, x in enumerate(row) if x]


def _commutator_by_scalars(a, b):
    """ab - ba summed over the nonzero F3 products: the oracle for
    ``_commutator``, which sums integer rows over one denominator."""
    out = [[F3()] * a.cols for _ in range(a.rows)]
    for x, y, negate in ((a, b, False), (b, a, True)):
        y_rows = [[(j, v) for j, v in enumerate(row) if v] for row in y.entries]
        for i, k, u in _nonzero_by_scalars(x):
            u = -u if negate else u
            for j, v in y_rows[k]:
                out[i][j] = out[i][j] + u * v
    return out


def _trace_form_by_scalars(basis):
    """Tr(D_i D_j) summed over the nonzero F3 products: the oracle for
    ``killing_matrix``."""
    def tr(a, b):
        return sum((u * b[k, i] for i, k, u in _nonzero_by_scalars(a) if b[k, i]), F3())

    return [[tr(a, b) for b in basis] for a in basis]


def _lie_closure_by_scalars(basis):
    """The rank test of ``check_lie_closure`` on F3 rows."""
    span_rows = [[x for row in d.entries for x in row] for d in basis]
    rows = span_rows + [[x for row in _commutator_by_scalars(a, b) for x in row]
                        for i, a in enumerate(basis) for b in basis[i + 1:]]
    return rank(ExactMatrix(rows)) == rank(ExactMatrix(span_rows))


@pytest.mark.parametrize("permuted", [False, True], ids=["plain", "signed-permuted"])
@pytest.mark.parametrize("name", DERIVATION_TENSORS)
def test_integer_commutators_and_trace_form_match_the_f3_loops(name, permuted):
    constants = _signed_permuted(name) if permuted else DERIVATION_TENSORS[name]()
    dim, basis = derivation_space(AlgebraPresentation(constants))
    assert dim == 8
    for a in basis:
        flat = _flat(a)
        _assert_sparse([flat])
        assert _bits(_f3_rows([flat], 64)[0]) == _bits([x for row in a.entries for x in row])
        for b in basis:
            got = _commutator(a, b)
            want = _commutator_by_scalars(a, b)
            assert got == ExactMatrix(want)
            assert [_bits(r) for r in got.entries] == [_bits(r) for r in want]
    got = killing_matrix(basis)
    want = _trace_form_by_scalars(basis)
    assert got == ExactMatrix(want)
    assert [_bits(r) for r in got.entries] == [_bits(r) for r in want]
    assert check_lie_closure(basis) is _lie_closure_by_scalars(basis) is True


def _unit(i, j):
    """The 2×2 matrix unit E_ij."""
    return ExactMatrix([[F3(int((r, s) == (i, j))) for s in range(2)] for r in range(2)])


def test_lie_closure_fails_off_the_span():
    # [E01, E10] = E00 - E11 = H, outside span{E01, E10}; with H it is sl2
    e, f = _unit(0, 1), _unit(1, 0)
    h = ExactMatrix([[1, 0], [0, -1]])
    assert _commutator(e, f) == h
    assert check_lie_closure([e, f]) is _lie_closure_by_scalars([e, f]) is False
    assert check_lie_closure([e, f, h]) is _lie_closure_by_scalars([e, f, h]) is True
    # the same three as flat rational rows (na, d), the form of a Q-form kernel, in a
    # pivot span: each row 1 at its key and 0 at the other keys
    e, f, h = ({1: 1}, 1), ({2: 2}, 2), ({0: 3, 3: -3}, 3)
    assert _lie_closed({1: e, 2: f}, 2) is False
    assert _lie_closed({1: e, 2: f, 0: h}, 2) is True


def test_lie_closure_matches_the_rank_test_on_random_sparse_matrices():
    basis = _random_sparse_matrices()
    for k in range(1, len(basis) + 1):
        assert check_lie_closure(basis[:k]) is _lie_closure_by_scalars(basis[:k])
    assert not _lie_closure_by_scalars(basis)


def _lie_closed_by_elimination(rows, n):
    """The closure test on a list of flat rows that reduces them by its own
    ``_gauss_jordan``: the oracle for ``_lie_closed``, which clears against the pivot
    span it is given."""
    if not rows:
        return True
    if len(rows[0]) == 2:
        bracket, clear = _rational_bracket, _rational_cleared
    else:
        bracket, clear = _bracket, _cleared
    reduced, pivots, _, _ = _gauss_jordan(rows)
    span, mats = dict(zip(pivots, reduced)), [_rows_of(row, n) for row in rows]
    return not any(clear(bracket(x, y), span)[0] for i, x in enumerate(mats) for y in mats[i + 1:])


@pytest.mark.parametrize("name", REPORT_TABLES)
def test_span_closure_matches_the_elimination_oracle_on_the_kernel(name):
    _, n, kernel = derivations._derivation_kernel(REPORT_TABLES[name][0]())
    assert _lie_closed(kernel, n) is _lie_closed_by_elimination(list(kernel.values()), n)


def test_span_closure_matches_the_elimination_oracle_on_random_sparse_matrices():
    # the span of check_lie_closure: the pivot rows of the flattened basis
    basis, closed = _random_sparse_matrices(), []
    for k in range(len(basis) + 1):
        flat = [_flat(m) for m in basis[:k]]
        closed.append(check_lie_closure(basis[:k]))
        assert closed[-1] is _lie_closed_by_elimination(flat, 8)
    assert closed[0] and not closed[-1]


@pytest.mark.parametrize("name", REPORT_TABLES)
def test_kernel_is_a_pivot_span_in_both_row_forms(name, monkeypatch):
    # each row is 1 at its own key and 0 at every other key, over Q and, with the
    # Q-form turned off, over Q(√3); the free columns are the same in both
    table, spans = REPORT_TABLES[name][0](), []
    graded = derivations._q_form(table) is not None
    for q_form in (derivations._q_form, lambda table: None):
        monkeypatch.setattr(derivations, "_q_form", q_form)
        _, _, kernel = derivations._derivation_kernel(table)
        for key, row in kernel.items():
            *parts, d = row
            assert [[part.get(c, 0) for part in parts] for c in kernel] == [
                [d if c == key else 0] + [0] * (len(parts) - 1) for c in kernel]
        spans.append(kernel)
    rational, q_sqrt3 = spans
    assert list(rational) == list(q_sqrt3) == sorted(rational)
    assert {len(row) for row in q_sqrt3.values()} <= {3}
    assert {len(row) for row in rational.values()} <= {2 if graded else 3}


@pytest.mark.parametrize("name", ["okubo", "split-okubo", "petersson", "ungraded-gl2"])
def test_one_elimination_per_report_and_per_closure_check(name, monkeypatch):
    # the report's one elimination is the Leibniz system's; _lie_closed makes none
    table, calls = REPORT_TABLES[name][0](), []
    _, basis = derivation_space(table)
    _, n, kernel = derivations._derivation_kernel(table)
    for module in (derivations, linalg):
        monkeypatch.setattr(module, "_gauss_jordan",
                            lambda rows: calls.append(len(rows)) or _gauss_jordan(rows))
    assert _lie_closed(kernel, n) and calls == []
    assert derivation_report(table)["lie_closed"] and len(calls) == 1
    calls.clear()
    assert check_lie_closure(basis) and calls == [len(basis)]
