from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redchar.cyclotomic import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    euler_phi,
    power_matrix,
    zeta,
)

from reference import conjugate, galois


def poly_reduction_oracle(coeffs, e):
    """Independent oracle: reduce sum(coeffs[k] x^k) mod Phi_e by long division.

    Works with Fraction arithmetic and textbook polynomial division, sharing
    no code with the power-basis reduction inside CyclotomicNumber.
    """
    phi = cyclotomic_polynomial(e)
    num = [Fraction(c) for c in coeffs]
    den = [Fraction(c) for c in phi]
    while len(num) >= len(den):
        lead = num[-1] / den[-1]
        shift = len(num) - len(den)
        for i, d in enumerate(den):
            num[shift + i] -= lead * d
        num.pop()
    num += [Fraction(0)] * (len(den) - 1 - len(num))
    return num


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def _divide_exact(num, den):
    """Long division of integer polynomials by a monic one, lowest degree first."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = out[k] = num[k + len(den) - 1]
        for i, d in enumerate(den):
            num[k + i] -= c * d
    assert not any(num[: len(den) - 1])
    return out


def _cyclotomic_by_division(e, known):
    """Reference Phi_e: x^e - 1 divided by Phi_d for every proper divisor d."""
    if e not in known:
        poly = [-1] + [0] * (e - 1) + [1]
        for d in range(1, e):
            if e % d == 0:
                poly = _divide_exact(poly, _cyclotomic_by_division(d, known))
        known[e] = tuple(poly)
    return known[e]


def test_cyclotomic_polynomial_matches_long_division():
    known = {}
    for e in list(range(1, 301)) + [3720]:
        assert cyclotomic_polynomial(e) == _cyclotomic_by_division(e, known), e


def test_power_matrix_rows_are_reduced_powers():
    for e in (1, 2, 12, 30, 105):
        rows = power_matrix(e)
        phi = euler_phi(e)
        assert rows.shape == (max(e, 2 * phi - 1), phi)
        for k in range(len(rows)):
            oracle = poly_reduction_oracle([0] * k + [1], e)
            assert rows[k].tolist() == [int(f) for f in oracle], (e, k)
    # the python-int recurrence (the int64 overflow fallback) gives the same rows
    assert np.array_equal(power_matrix(105, object), power_matrix(105))
    # streaming only some exponents keeps exactly those rows
    assert np.array_equal(power_matrix(105, ks=range(3, 105, 7)), power_matrix(105)[3::7])


def test_i_squared_is_minus_one():
    assert zeta(4) * zeta(4) == -1


def test_primitive_cube_roots_sum():
    assert zeta(3) + zeta(3, 2) == -1


def test_product_one_plus_zeta5():
    # (1 + z5)(1 + z5^4), expected value frozen from the long-division oracle.
    lhs = (1 + zeta(5)) * (1 + zeta(5, 4))
    oracle = poly_reduction_oracle([2, 1, 0, 0, 1], 5)  # 2 + x + x^4 unreduced
    expected = CyclotomicNumber(5, [f.numerator for f in oracle])
    assert all(f.denominator == 1 for f in oracle)
    assert lhs == expected
    # the frozen literal, for the record: 1 - z5^2 - z5^3
    assert lhs == CyclotomicNumber(5, [1, 0, -1, -1])


def test_conjugation_examples():
    assert conjugate(zeta(3)) == zeta(3, 2)
    assert zeta(3, 2) == -1 - zeta(3)
    half5 = CyclotomicNumber.from_rational(Fraction(5, 2))
    assert conjugate(half5) == half5


def test_equality_across_conductors():
    assert zeta(2) == CyclotomicNumber.from_rational(-1)
    assert zeta(6, 3) == -1
    assert zeta(4, 2) == zeta(2)
    assert zeta(12, 4) == zeta(3)
    assert zeta(3) != zeta(4)


def test_rational_interop():
    x = zeta(5) + Fraction(1, 2)
    assert x - zeta(5) == Fraction(1, 2)
    assert (x * 2 - 1) == 2 * zeta(5)


def test_galois_refuses_a_non_unit():
    with pytest.raises(ValueError):
        galois(zeta(6), 2)


small_values = st.integers(min_value=-30, max_value=30)


@st.composite
def cyclotomics(draw, conductors=(1, 2, 3, 4, 5, 6, 8, 12)):
    e = draw(st.sampled_from(conductors))
    phi = euler_phi(e)
    num = [draw(small_values) for _ in range(phi)]
    den = draw(st.integers(min_value=1, max_value=12))
    return CyclotomicNumber(e, num, den)


@settings(max_examples=150, deadline=None)
@given(cyclotomics(), cyclotomics(), cyclotomics())
def test_ring_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@settings(max_examples=150, deadline=None)
@given(cyclotomics(), cyclotomics())
def test_conjugation_is_ring_automorphism(x, y):
    assert conjugate(x + y) == conjugate(x) + conjugate(y)
    assert conjugate(x * y) == conjugate(x) * conjugate(y)
    assert conjugate(conjugate(x)) == x


@settings(max_examples=100, deadline=None)
@given(cyclotomics())
def test_lift_preserves_value(x):
    for m in (2, 3, 4):
        assert x.lift(x.conductor * m) == x


@settings(max_examples=80, deadline=None)
@given(cyclotomics(conductors=(3, 4, 5, 8, 12)))
def test_multiplication_matches_reduction_oracle(x):
    y = zeta(x.conductor)
    prod = x * y
    conv = [Fraction(0)] * (len(x.num) + 1)
    for i, c in enumerate(x.num):
        conv[i + 1] += Fraction(c, x.den)
    oracle = poly_reduction_oracle(conv, x.conductor)
    assert [Fraction(a, prod.den) for a in prod.num] == oracle


@settings(max_examples=80, deadline=None)
@given(cyclotomics(conductors=(5, 8, 12)), cyclotomics(conductors=(5, 8, 12)), st.integers(1, 30))
def test_galois_maps_are_ring_automorphisms(x, y, k):
    from math import gcd

    e = x.conductor * y.conductor // gcd(x.conductor, y.conductor)
    if gcd(k, e) != 1:
        k = 1
    assert galois(x * y, k) == galois(x, k) * galois(y, k)
    assert galois(x + y, k) == galois(x, k) + galois(y, k)
