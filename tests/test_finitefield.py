import itertools

import pytest
from hypothesis import given, settings, strategies as st

from redchar.chartable import find_table_prime
from redchar.finitefield import _poly_divmod, field_embedding, finite_field, poly_gcd, poly_powmod, poly_roots


def brute_force_log_oracle(p, base):
    """Exhaustive powering oracle for discrete logs in F_p."""
    table, x, n = {}, 1, 0
    while x not in table:
        table[x] = n
        x = x * base % p
        n += 1
    return table


def test_f7_log_table_against_powering_oracle():
    f7 = finite_field(7, 1)
    oracle = brute_force_log_oracle(7, f7.generator_code)
    assert len(oracle) == 6
    for code in range(1, 7):
        assert f7.log[code] == oracle[code]
        assert f7.exp[oracle[code]] == code


def test_log_basics():
    f9 = finite_field(3, 2)
    assert f9.log[1] == 0
    assert f9.log[f9.generator_code] == 1
    assert f9.log[0] == -1  # zero has no log
    assert f9.order_of(f9.exp[2]) == 4  # squares do not generate
    with pytest.raises(ZeroDivisionError):
        f9.order_of(0)


def test_field_axioms_exhaustive_small():
    for p, k in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (2, 3)]:
        fld = finite_field(p, k)
        add, mul = fld.add_codes, fld.mul_codes
        codes = range(fld.q)
        for a, b in itertools.product(codes, repeat=2):
            assert fld.sub_codes(add(a, b), b) == a
            assert mul(a, b) == mul(b, a)
        for a, b, c in itertools.product(codes, repeat=3):
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        for a in codes[1:]:
            assert mul(a, fld.inv_code(a)) == 1
        # generator order
        assert fld.order_of(fld.generator_code) == fld.q - 1


def test_defining_polynomials_are_deterministic():
    # frozen: re-deriving must give the same polynomial every run
    assert finite_field(2, 1).poly == (1, 1)
    assert finite_field(3, 1).poly == (1, 1)  # x + 1, root 2 generates
    f4 = finite_field(2, 2)
    assert f4.poly == (1, 1, 1)  # x^2 + x + 1
    f9 = finite_field(3, 2)
    # x^2 + a0 + a1 x: smallest primitive: root must have order 8
    coeffs = f9.poly
    assert len(coeffs) == 3 and coeffs[2] == 1
    assert f9.order_of(f9.generator_code) == 8


def test_embeddings_are_field_homomorphisms():
    for (p, j, k) in [(2, 1, 2), (2, 1, 3), (2, 2, 4), (2, 2, 6), (3, 1, 2), (5, 1, 2)]:
        small, big = finite_field(p, j), finite_field(p, k)
        emb = field_embedding(small, big)
        for a in range(small.q):
            for b in range(small.q):
                assert emb(small.add_codes(a, b)) == big.add_codes(emb(a), emb(b))
                assert emb(small.mul_codes(a, b)) == big.mul_codes(emb(a), emb(b))
        assert emb(1) == 1


# -- the F_p polynomial toolkit, against schoolbook oracles ---------------------

# table primes ell = 1 (mod e), ell > 2|G|, of GL2(2), SL2(3), GL2(3), GL2(5),
# GL3(3) and GL2(13)
TABLE_PRIMES = [
    find_table_prime(e, order)
    for e, order in [(6, 6), (12, 24), (24, 48), (120, 480), (312, 11232), (2184, 26208)]
]


def _trimmed(a, p):
    a = [c % p for c in a]
    while a and not a[-1]:
        a.pop()
    return a


def _times(a, b, p):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trimmed(out, p)


def _plus(a, b, p):
    n = max(len(a), len(b))
    return _trimmed([x + y for x, y in zip(a + [0] * n, b + [0] * n)], p)


coefficients = st.lists(st.integers(-(10**6), 10**6), max_size=10)


def nonzero(p, max_size=6):
    return st.lists(st.integers(0, p - 1), min_size=1, max_size=max_size).filter(
        lambda a: a[-1] % p
    )


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(TABLE_PRIMES).flatmap(
        lambda p: st.tuples(st.just(p), coefficients, nonzero(p))
    )
)
def test_poly_divmod_is_division_with_remainder(case):
    p, a, b = case
    quotient, remainder = _poly_divmod(a, b, p)
    assert _plus(_times(quotient, b, p), remainder, p) == _trimmed(a, p)
    assert len(remainder) < len(b)
    assert quotient == _trimmed(quotient, p) and remainder == _trimmed(remainder, p)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(TABLE_PRIMES).flatmap(
        lambda p: st.tuples(st.just(p), coefficients, nonzero(p, 8), st.integers(0, 40))
    )
)
def test_poly_powmod_matches_repeated_multiplication(case):
    # the reference reduces after every one of the n products
    p, base, f, n = case
    expected = [1]
    for _ in range(n):
        expected = _poly_divmod(_times(expected, base, p), f, p)[1]
    assert poly_powmod(base, n, f, p) == expected


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(TABLE_PRIMES).flatmap(
        lambda p: st.tuples(st.just(p), nonzero(p, 4), coefficients, coefficients)
    )
)
def test_poly_gcd_is_monic_common_divisor_and_greatest(case):
    p, common, u, v = case
    a, b = _times(common, u, p), _times(common, v, p)
    g = poly_gcd(a, b, p)
    if not (a or b):
        assert g == []
        return
    assert g[-1] == 1
    assert _poly_divmod(a, g, p)[1] == [] and _poly_divmod(b, g, p)[1] == []
    assert _poly_divmod(g, common, p)[1] == []


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(TABLE_PRIMES).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.dictionaries(st.integers(0, p - 1), st.integers(1, 3), min_size=1, max_size=6),
            st.integers(1, p - 1),
        )
    )
)
def test_poly_roots_of_split_products(case):
    p, multiplicities, lead = case
    f = [lead]
    for root, m in multiplicities.items():
        for _ in range(m):
            f = _times(f, [-root, 1], p)
    assert poly_roots(f, p) == sorted(multiplicities)


def test_poly_roots_repeated_roots_and_zero():
    p = 13
    f = [1]
    for root in (0, 0, 0, 5, 5, 12):
        f = _times(f, [-root, 1], p)
    assert poly_roots(f, p) == [0, 5, 12]
    assert poly_roots([3], p) == []
    assert poly_roots([0, 0, 4], p) == [0]


def test_poly_roots_refuses_a_factor_without_roots():
    # -1 is not a square mod 7, so x^2 + 1 is irreducible over F_7
    with pytest.raises(ValueError, match="does not split"):
        poly_roots(_times([1, 0, 1], [-2, 1], 7), 7)
