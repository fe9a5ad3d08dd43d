"""Exact scalar tower Q ⊂ Q(√3) ⊂ Q(√3, i)."""

import math
import random
from fractions import Fraction

import pytest

from okubic import field
from okubic.albert import AlbertElement, sample_albert
from okubic.field import (
    C3,
    F3,
    SQRT3,
    _raw_f3,
    parse_rational,
    render_rational,
    sample_f3,
    sample_rational,
)
from okubic.geometry import AffinePoint, sample_affine_point
from okubic.hurwitz import SplitOctonion, sample_split_octonion
from okubic.linalg import COMPACT, SPLIT
from okubic.okubo import OkuboElement, sample_okubo


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
    # a bare rational is the other form of a scalar
    assert F3.from_json("-1/3") == F3(Fraction(-1, 3))
    assert F3.from_json(0.1) == F3.from_json({"a": "1/10", "b": 0}) == F3(Fraction(1, 10))


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


def test_sample_f3_is_two_sample_rationals():
    # sample_f3 builds its integer triple from the draws sample_rational
    # makes, in the same order: the same value, hash and stream state
    for seed in range(20):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(50):
            got, want = sample_f3(rng), F3(sample_rational(ref), sample_rational(ref))
            assert (type(got), got._an, got._bn, got._d) == (F3, want._an, want._bn, want._d)
            assert hash(got) == hash(want)
            assert rng.getstate() == ref.getstate()


def _sample_rational_by_scalars(rng):
    """A numerator in [-9, 9], then a denominator in {1, 2, 3}, as two draws of their
    own: the oracle for ``sample_rational``, which reads them through ``field._drawn``."""
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))


def test_sample_rational_is_one_draw():
    for seed in range(300):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(5):
            got, want = sample_rational(rng), _sample_rational_by_scalars(ref)
            assert type(got) is Fraction and got == want
            assert rng.getstate() == ref.getstate()


def _drawn_by_randint(rng, count, sqrt3=True):
    """Each rational as ``randint(-9, 9)`` then ``choice((1, 2, 3))``: the oracle for
    ``field._drawn``, which reads the same words through ``getrandbits``."""
    draws = [(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range((1 + sqrt3) * count)]
    pairs = zip(draws[0::2], draws[1::2]) if sqrt3 else ((a, (0, 1)) for a in draws)
    nums = [(an * bd, bn * ad, ad * bd) for (an, ad), (bn, bd) in pairs]
    d = math.lcm(*(e for _, _, e in nums))
    na, nb = [a * (d // e) for a, _, e in nums], [b * (d // e) for _, b, e in nums]
    g = math.gcd(d, *na, *nb)
    return tuple(a // g for a in na), tuple(b // g for b in nb), d // g


@pytest.mark.parametrize("sqrt3", [True, False], ids=["q-sqrt3", "rational"])
@pytest.mark.parametrize("count", [1, 8, 27])
def test_drawn_reads_the_words_of_randint_and_choice(count, sqrt3):
    for seed in range(300):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(2):
            assert field._drawn(rng, count, sqrt3) == _drawn_by_randint(ref, count, sqrt3)
            assert rng.getstate() == ref.getstate()


def test_division_by_an_int_scales_the_denominator():
    # (a + b√3)/(d·n) over the stored triple, normalised with d > 0
    rng = random.Random(108)
    for _ in range(100):
        x = sample_f3(rng)
        for n in (*range(1, 8), *range(-7, 0)):
            got, want = x / n, _raw_f3(x._an, x._bn, x._d * n)
            assert (type(got), got._an, got._bn, got._d) == (F3, want._an, want._bn, want._d)
    with pytest.raises(ZeroDivisionError):
        F3(1) / 0


def _sample_okubo_by_scalars(rng, flavor=COMPACT):
    """Eight coefficients drawn as two sample_rationals each and coerced by the constructor:
    the oracle for ``sample_okubo``."""
    return OkuboElement([F3(sample_rational(rng), sample_rational(rng)) for _ in range(8)],
                        flavor)


def _sample_albert_by_scalars(rng):
    """Three Okubo slots, then three λ, through the coercing constructor: the oracle for
    ``sample_albert``."""
    return AlbertElement(*(_sample_okubo_by_scalars(rng) for _ in range(3)),
                         *(F3(sample_rational(rng), sample_rational(rng)) for _ in range(3)))


def _sample_split_octonion_by_scalars(rng):
    """Eight sample_rationals through the coercing constructor: the oracle for
    ``sample_split_octonion``."""
    return SplitOctonion([sample_rational(rng) for _ in range(8)])


def _sample_affine_point_by_scalars(rng):
    """Two Okubo elements as ``_sample_okubo_by_scalars`` draws them: the oracle for
    ``sample_affine_point``."""
    return AffinePoint(_sample_okubo_by_scalars(rng), _sample_okubo_by_scalars(rng))


def _stored(value):
    """The stored integers of a sampled value (both coordinates of an affine point)."""
    if isinstance(value, AffinePoint):
        return _stored(value.x), _stored(value.y)
    return type(value), getattr(value, "flavor", None), value.ints


SAMPLERS = {
    "okubo-compact": (sample_okubo, _sample_okubo_by_scalars),
    "okubo-split": (lambda rng: sample_okubo(rng, SPLIT),
                    lambda rng: _sample_okubo_by_scalars(rng, SPLIT)),
    "albert": (sample_albert, _sample_albert_by_scalars),
    "split-octonion": (sample_split_octonion, _sample_split_octonion_by_scalars),
    "affine-point": (sample_affine_point, _sample_affine_point_by_scalars),
}


@pytest.mark.parametrize("sampler, oracle", SAMPLERS.values(), ids=SAMPLERS)
def test_samplers_write_the_stored_form_of_their_draws(monkeypatch, sampler, oracle):
    # the same stored integers and the same stream left behind as the coercing
    # constructors on scalar draws, with no F3 built in between
    built = []
    init_f3 = field._init_f3
    monkeypatch.setattr(field, "_init_f3", lambda *args: built.append(1) or init_f3(*args))
    for seed in range(300):
        rng, ref = random.Random(seed), random.Random(seed)
        got = sampler(rng)
        assert not built, seed
        assert _stored(got) == _stored(oracle(ref))
        assert rng.getstate() == ref.getstate()
        built.clear()


def test_sample_okubo_rejects_an_unknown_flavor_after_its_draws():
    rng, ref = random.Random(7), random.Random(7)
    with pytest.raises(ValueError):
        sample_okubo(rng, "bogus")
    with pytest.raises(ValueError):
        _sample_okubo_by_scalars(ref, "bogus")
    assert rng.getstate() == ref.getstate()
