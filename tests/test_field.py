"""Exact scalar tower Q ⊂ Q(√3) ⊂ Q(√3, i)."""

import random
from fractions import Fraction

import pytest

from okubic.field import (
    C3,
    F3,
    SQRT3,
    parse_rational,
    render_rational,
    sample_f3,
    sample_rational,
)


def test_rational_render_parse_roundtrip():
    rng = random.Random(101)
    for _ in range(200):
        q = sample_rational(rng)
        assert parse_rational(render_rational(q)) == q
    assert render_rational(Fraction(-3, 6)) == "-1/2"
    assert render_rational(Fraction(4, 2)) == "2"


def test_json_numbers_parse_as_decimals():
    # a JSON number is read from its text, not from its binary float value
    assert parse_rational(0.1) == Fraction(1, 10)
    assert parse_rational(-2.5e-3) == Fraction(-1, 400)
    for bad in (True, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_f3_inverse_pinned_values():
    assert F3(1).inverse() == F3(1)
    assert F3(1, 1).inverse() == F3(Fraction(-1, 2), Fraction(1, 2))
    assert SQRT3.inverse() == F3(0, Fraction(1, 3))


def test_c3_inverse_pinned_values():
    i = C3(0, 1)
    assert i.inverse() == C3(0, -1)
    assert C3(1, 1).inverse() == C3(F3(Fraction(1, 2)), F3(Fraction(-1, 2)))
    assert C3(F3(), SQRT3).inverse() == C3(F3(), F3(0, Fraction(-1, 3)))


def test_is_positive_pinned_values():
    assert F3(1, Fraction(-1, 2)).is_positive()
    assert not F3(-2, 1).is_positive()
    assert not F3().is_positive()


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        F3().inverse()
    with pytest.raises(ZeroDivisionError):
        C3().inverse()


def test_f3_field_axioms_on_samples():
    rng = random.Random(102)
    for _ in range(200):
        x, y, z = (sample_f3(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x and x * y == y * x
        if x:
            assert x * x.inverse() == F3(1)


def test_c3_field_axioms_on_samples():
    rng = random.Random(103)
    for _ in range(100):
        x, y, z = (C3(sample_f3(rng), sample_f3(rng)) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x.conj().conj() == x
        assert (x * y).conj() == x.conj() * y.conj()
        if x:
            assert x * x.inverse() == C3(1)


def test_i_squares_to_minus_one():
    i = C3(0, 1)
    assert i * i == C3(-1)
    assert SQRT3 * SQRT3 == F3(3)


def test_positivity_defines_a_total_order():
    rng = random.Random(104)
    for _ in range(200):
        x, y = sample_f3(rng), sample_f3(rng)
        # trichotomy
        assert sum((x.is_positive(), (-x).is_positive(), not x)) == 1
        # compatibility with multiplication by positives
        if x.is_positive() and y.is_positive():
            assert (x * y).is_positive()
            assert (x + y).is_positive()


def test_json_roundtrip():
    rng = random.Random(105)
    for _ in range(100):
        x = sample_f3(rng)
        assert F3.from_json(x.to_json()) == x
        z = C3(sample_f3(rng), sample_f3(rng))
        assert C3.from_json(z.to_json()) == z


def test_equality_against_plain_scalars():
    assert F3(2) == 2
    assert F3(Fraction(1, 2)) == Fraction(1, 2)
    assert C3(F3(0, 1)) == SQRT3
    assert F3(0, 1) != 0


def test_equal_scalars_hash_equal():
    # int, Fraction, F3 and C3 values that compare equal hash equal, so a
    # set or dict key holds one of them
    rng = random.Random(106)
    values = [0, 1, -3, Fraction(1, 2), Fraction(-7, 3)]
    values += [sample_rational(rng) for _ in range(20)]
    for q in values:
        forms = [F3(q), C3(F3(q)), C3(q), Fraction(q)]
        if Fraction(q).denominator == 1:
            forms.append(int(q))
        for x in forms:
            assert x == q and hash(x) == hash(q)
        assert len({q, *forms}) == 1
    for _ in range(20):
        x = sample_f3(rng)
        assert hash(C3(x)) == hash(x) and len({x, C3(x)}) == 1
        z = C3(sample_f3(rng), sample_f3(rng))
        assert hash(C3(z.re, z.im)) == hash(z)
    assert len({F3(1), 1}) == 1
