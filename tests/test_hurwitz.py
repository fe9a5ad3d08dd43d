"""Split octonions: multiplication table, norm, conjugation, para-Hurwitz
product, triality, and the Petersson twist."""

import random
from fractions import Fraction

from okubic.hurwitz import (
    E1,
    E2,
    U1,
    U2,
    V1,
    V2,
    V3,
    SplitOctonion,
    oct_conj,
    oct_mul,
    oct_norm,
    oct_polar,
    para_mul,
    petersson_mul,
    petersson_structure_constants,
    sample_split_octonion,
    tau_triality,
)

B = SplitOctonion.basis


def test_table_spot_values():
    assert oct_mul(B(U1), B(U2)) == B(V3)
    assert oct_mul(B(U2), B(U1)) == -B(V3)
    assert oct_mul(B(U1), B(V1)) == -B(E1)
    assert oct_mul(B(V1), B(U1)) == -B(E2)
    assert oct_mul(B(E1), B(U1)) == B(U1)
    assert oct_mul(B(U1), B(E2)) == B(U1)
    assert oct_mul(B(E1), B(V1)) == SplitOctonion.zero()
    assert oct_mul(B(V2), B(V3)) == B(U1)
    assert oct_mul(B(E1), B(E1)) == B(E1)
    assert oct_mul(B(E1), B(E2)) == SplitOctonion.zero()


def test_unit_is_two_sided():
    rng = random.Random(301)
    one = SplitOctonion.unit()
    for _ in range(100):
        x = sample_split_octonion(rng)
        assert oct_mul(one, x) == x
        assert oct_mul(x, one) == x


def test_constants_are_the_stored_form_of_their_coordinates():
    # basis, unit and zero write their stored integers; the coercing constructor
    # reaches the same form from Fractions
    cases = [(B(i), [Fraction(int(k == i)) for k in range(8)]) for i in range(8)]
    cases += [(SplitOctonion.unit(), [1, 1, 0, 0, 0, 0, 0, 0]), (SplitOctonion.zero(), [0] * 8)]
    for stored, coords in cases:
        coerced = SplitOctonion(coords)
        assert type(stored) is type(coerced) is SplitOctonion
        assert stored == coerced and stored.ints == coerced.ints
        assert list(map(type, stored.ints)) == list(map(type, coerced.ints)) == [tuple, tuple, int]
        assert stored.coeffs == coerced.coeffs


def test_norm_composition_on_basis_and_samples():
    for i in range(8):
        for j in range(8):
            x, y = B(i), B(j)
            assert oct_norm(oct_mul(x, y)) == oct_norm(x) * oct_norm(y)
    rng = random.Random(302)
    for _ in range(200):
        x, y = sample_split_octonion(rng), sample_split_octonion(rng)
        assert oct_norm(oct_mul(x, y)) == oct_norm(x) * oct_norm(y)


def test_norm_is_isotropic():
    # the split form admits nonzero vectors of norm zero
    assert oct_norm(B(U1)) == 0
    assert oct_norm(SplitOctonion.unit()) == 1


def test_conjugation():
    rng = random.Random(303)
    one = SplitOctonion.unit()
    for _ in range(100):
        x = sample_split_octonion(rng)
        y = sample_split_octonion(rng)
        assert oct_conj(oct_conj(x)) == x
        assert oct_mul(x, oct_conj(x)) == one.scale(oct_norm(x))
        assert oct_conj(oct_mul(x, y)) == oct_mul(oct_conj(y), oct_conj(x))
    assert oct_conj(B(E1)) == B(E2)
    assert oct_conj(B(U1)) == -B(U1)


def _conj_by_polar(x):
    """x̄ = ⟨x, 1⟩1 - x through the polar form: the oracle of ``oct_conj``."""
    t = oct_polar(x, SplitOctonion.unit())
    return SplitOctonion.unit().scale(t) - x


def test_conjugation_matches_the_polar_oracle():
    rng = random.Random(310)
    for x in [B(i) for i in range(8)] + [sample_split_octonion(rng) for _ in range(200)]:
        got, want = oct_conj(x).coeffs, _conj_by_polar(x).coeffs
        # bit for bit: the same Fraction values, numerator and denominator
        assert [(type(c), c.numerator, c.denominator) for c in got] == [
            (type(c), c.numerator, c.denominator) for c in want
        ]


def test_para_hurwitz_is_symmetric_composition():
    rng = random.Random(304)
    for _ in range(100):
        x = sample_split_octonion(rng)
        y = sample_split_octonion(rng)
        assert oct_norm(para_mul(x, y)) == oct_norm(x) * oct_norm(y)
        assert para_mul(x, para_mul(y, x)) == y.scale(oct_norm(x))
        assert para_mul(para_mul(x, y), x) == y.scale(oct_norm(x))
    # the unit is a paraunit, not a unit: 1∘x = x̄
    one = SplitOctonion.unit()
    u = B(U2)
    assert para_mul(one, u) == oct_conj(u)


def test_triality_is_an_order_three_automorphism():
    rng = random.Random(305)
    for _ in range(100):
        x = sample_split_octonion(rng)
        y = sample_split_octonion(rng)
        assert tau_triality(tau_triality(tau_triality(x))) == x
        assert tau_triality(oct_mul(x, y)) == oct_mul(
            tau_triality(x), tau_triality(y)
        )
        assert oct_norm(tau_triality(x)) == oct_norm(x)
    assert tau_triality(B(U1)) == B(U2)
    assert tau_triality(B(E1)) == B(E1)


def test_petersson_twist_is_symmetric_composition():
    rng = random.Random(306)
    for _ in range(100):
        x = sample_split_octonion(rng)
        y = sample_split_octonion(rng)
        assert oct_norm(petersson_mul(x, y)) == oct_norm(x) * oct_norm(y)
        assert petersson_mul(x, petersson_mul(y, x)) == y.scale(oct_norm(x))
        assert petersson_mul(petersson_mul(x, y), x) == y.scale(oct_norm(x))


def _petersson_by_conjugates(x, y):
    """τ(x̄)·τ²(ȳ) written out with its own conjugations."""
    return oct_mul(tau_triality(oct_conj(x)), tau_triality(tau_triality(oct_conj(y))))


def test_petersson_twist_is_the_para_hurwitz_product_of_the_triality_images():
    # τ commutes with conjugation, so τ(x)∘τ²(y) = τ(x̄)·τ²(ȳ)
    for i in range(8):
        for j in range(8):
            assert petersson_mul(B(i), B(j)) == _petersson_by_conjugates(B(i), B(j))
    rng = random.Random(310)
    for _ in range(300):
        x, y = sample_split_octonion(rng), sample_split_octonion(rng)
        assert petersson_mul(x, y) == _petersson_by_conjugates(x, y)


def _petersson_constants_by_products():
    """The Petersson tensor from its 64 basis products: the oracle for
    ``petersson_structure_constants``, which reads ``MUL_TABLE`` cells."""
    return tuple(tuple(petersson_mul(B(i), B(j)).coeffs for j in range(8)) for i in range(8))


def test_petersson_constants_match_the_basis_products():
    got, want = petersson_structure_constants(), _petersson_constants_by_products()
    assert got == want
    assert [type(x) for plane in got for row in plane for x in row] == [Fraction] * 512
    assert [type(row) for plane in got for row in plane] == [tuple] * 64
    assert type(got) is tuple and {type(plane) for plane in got} == {tuple}


def test_petersson_twist_is_not_unital():
    one = SplitOctonion.unit()
    rng = random.Random(307)
    sightings = 0
    for _ in range(50):
        x = sample_split_octonion(rng)
        if petersson_mul(one, x) == x:
            sightings += 1
    assert sightings < 50


def test_polar_form_bilinearity():
    rng = random.Random(308)
    for _ in range(50):
        x, y, z = (sample_split_octonion(rng) for _ in range(3))
        assert oct_polar(x + y, z) == oct_polar(x, z) + oct_polar(y, z)
        assert oct_polar(x, y) == oct_polar(y, x)


def test_json_roundtrip():
    rng = random.Random(309)
    for _ in range(20):
        x = sample_split_octonion(rng)
        assert SplitOctonion.from_json(x.to_json()) == x
