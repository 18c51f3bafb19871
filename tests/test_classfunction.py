"""The integer-array state of ClassFunction against a CyclotomicNumber oracle.

Every operation is compared with the same operation done value by value on
plain lists of CyclotomicNumbers, the representation the arrays replaced.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redchar import cyclotomic
from redchar.chartable import (
    CharacterTable,
    ClassFunction,
    _packed_context,
    class_fusion,
    dual_character,
    restrict_between_groups,
    root_sum_function,
    table_of,
    twist_by_automorphism,
)
from redchar.cyclotomic import CyclotomicNumber, euler_phi, zeta
from redchar.groups import (
    adjoint_action_representatives,
    cached_group,
    duality_involution,
    transpose_inverse,
)

GROUPS = ["GL2(3)", "GL2(4)", "SL2(5)", "GL3(2)"]
# the SL subgroup each group restricts to
SUBGROUPS = {"GL2(3)": "SL2(3)", "GL2(4)": "SL2(4)", "SL2(5)": "SL2(5)", "GL3(2)": "SL3(2)"}


def _automorphisms(g):
    return [duality_involution(g), transpose_inverse(g), *adjoint_action_representatives(g)]


@st.composite
def class_value_lists(draw, group):
    """One value per class: a short sum of roots of unity of the group
    exponent with small integer coefficients, over a small denominator."""
    e = _packed_context(group).e
    values = []
    for _ in range(group.conjugacy().n_classes):
        terms = draw(st.lists(st.tuples(st.integers(0, e - 1), st.integers(-3, 3)), max_size=3))
        den = draw(st.integers(1, 4))
        acc = CyclotomicNumber.zero()
        for k, c in terms:
            acc = acc + zeta(e, k) * c
        values.append(acc * Fraction(1, den))
    return values


def _agrees(f: ClassFunction, oracle: list) -> bool:
    """f holds exactly the oracle's values, read back and packed anew."""
    return all(a == b for a, b in zip(f.values, oracle, strict=True)) and f == ClassFunction(
        f.group, oracle
    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pointwise_algebra_matches_the_value_lists(data):
    g = cached_group(data.draw(st.sampled_from(GROUPS)))
    a = data.draw(class_value_lists(g))
    b = data.draw(class_value_lists(g))
    s = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=6))
    f, h = ClassFunction(g, a), ClassFunction(g, b)
    assert _agrees(f + h, [x + y for x, y in zip(a, b)])
    assert _agrees(f - h, [x - y for x, y in zip(a, b)])
    assert _agrees(f * s, [x * s for x in a])
    assert _agrees(s * f, [x * s for x in a])
    assert _agrees(f * h, [x * y for x, y in zip(a, b)])
    assert _agrees(f.conjugate(), [x.conjugate() for x in a])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_gathers_match_the_value_lists(data):
    name = data.draw(st.sampled_from(GROUPS))
    g = cached_group(name)
    a = data.draw(class_value_lists(g))
    f = ClassFunction(g, a)
    inv = g.conjugacy().inverse_class
    assert _agrees(dual_character(f), [a[int(inv[k])] for k in range(len(a))])
    for sigma in _automorphisms(g):
        cp_inv = sigma.inverse().class_permutation()
        assert _agrees(twist_by_automorphism(f, sigma), [a[int(k)] for k in cp_inv])
    sub = cached_group(SUBGROUPS[name])
    fusion = class_fusion(sub, g)
    # a restricted value must lie in the subgroup's cyclotomic field, so
    # restrict a character (the test values above need not)
    chi = table_of(g).irreducibles[data.draw(st.integers(0, len(table_of(g)) - 1))]
    assert _agrees(restrict_between_groups(chi, sub), [chi.values[int(k)] for k in fusion])


def test_twist_gathers_through_the_inverse_class_permutation():
    # the automorphisms above are involutions on classes; on SL3(4) the
    # adjoint representatives permute classes with order 3
    g = cached_group("SL3(4)")

    def involutive(sigma):
        cp = sigma.class_permutation()
        return np.array_equal(cp[cp], np.arange(cp.size))

    sigma = next(a for a in adjoint_action_representatives(g) if not involutive(a))
    cp_inv = sigma.inverse().class_permutation()
    for chi in table_of(g).irreducibles:
        assert _agrees(twist_by_automorphism(chi, sigma), [chi.values[int(k)] for k in cp_inv])


def test_restriction_refuses_a_value_outside_the_subgroup_field():
    # SL2(3) has exponent 12 inside GL2(3)'s 24: zeta_24 is no value there
    g, sub = cached_group("GL2(3)"), cached_group("SL2(3)")
    assert (_packed_context(g).e, _packed_context(sub).e) == (24, 12)
    f = ClassFunction(g, [zeta(24)] * g.conjugacy().n_classes)
    with pytest.raises(ValueError, match="does not lie in"):
        restrict_between_groups(f, sub)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_equality_matches_the_value_lists(data):
    g = cached_group(data.draw(st.sampled_from(GROUPS)))
    a = data.draw(class_value_lists(g))
    b = list(a)
    k = data.draw(st.integers(0, len(a) - 1))
    b[k] = b[k] + data.draw(st.sampled_from([Fraction(1, 2), 1, -1]))
    f = ClassFunction(g, a)
    assert f == ClassFunction(g, list(a)) and f != ClassFunction(g, b)
    assert f.degree == a[_packed_context(g).identity_class]
    # equal matrices over different denominators
    r = len(a)
    assert ClassFunction(g, [1] * r) != ClassFunction(g, [Fraction(1, 2)] * r)


@pytest.mark.parametrize("name", GROUPS)
def test_index_of_matches_a_search_of_the_value_lists(name):
    g = cached_group(name)
    table = table_of(g)
    for sigma in _automorphisms(g):
        for chi in table.irreducibles:
            for image in (twist_by_automorphism(chi, sigma), dual_character(chi)):
                expected = [
                    j for j, other in enumerate(table.irreducibles) if other.values == image.values
                ]
                assert [table.index_of(image)] == expected
    chi = table.irreducibles[-1]
    half = chi * Fraction(1, 2)
    assert half.den == 2 and np.array_equal(half.mat, chi.mat)
    huge = chi * (1 << 62)
    assert huge.mat.dtype == object
    for f in (chi * 2, half, huge):
        with pytest.raises(KeyError):
            table.index_of(f)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_descent_inverts_the_lift_to_the_exponent(data):
    g = cached_group(data.draw(st.sampled_from(GROUPS + ["GL2(5)", "SL3(3)"])))
    ctx = _packed_context(g)
    c = data.draw(st.sampled_from([d for d in range(1, ctx.e + 1) if ctx.e % d == 0]))
    num = data.draw(st.lists(st.integers(-9, 9), min_size=euler_phi(c), max_size=euler_phi(c)))
    lifted = CyclotomicNumber(c, num).lift(ctx.e)
    assert (np.array([lifted.num]) @ ctx.descent(c)).tolist() == [num]


def test_root_sum_function_reduces():
    # on GL2(3), e = 24: 1 + z3 + z3^2 = 0 and 2 z8 + 2 z8^5 = 0, while
    # z8 + z8^5 + z4 = z4 is not
    g = cached_group("GL2(3)")
    assert _packed_context(g).e == 24
    r = g.conjugacy().n_classes
    f = root_sum_function(g, [0, 0, 0, 1, 1, 2, 2, 2], [0, 8, 16, 3, 15, 3, 15, 6], [1, 1, 1, 2, 2, 1, 1, 1])
    assert _agrees(f, [0, 0, zeta(4)] + [0] * (r - 3))


def test_index_of_tells_apart_rows_that_share_a_fingerprint():
    # psi moves one coefficient of chi at a non-identity class from zeta^0 to
    # zeta^1: every per-class coefficient sum, so the fingerprint, is unchanged
    g = cached_group("GL2(3)")
    full = table_of(g)
    chi = full.irreducibles[-1]
    k = (_packed_context(g).identity_class + 1) % g.conjugacy().n_classes
    moved = chi.mat.copy()
    moved[k, :2] += [-1, 1]
    psi = ClassFunction.from_mat(g, moved)
    stray = chi.mat.copy()
    stray[k, :3] += [-1, 0, 1]
    table = CharacterTable(g, [chi, psi], full.modular)
    assert table._fingerprint(psi) == table._fingerprint(chi) and len(table._row_index) == 1
    assert table.index_of(chi) == 0 and table.index_of(psi) == 1
    with pytest.raises(KeyError):
        table.index_of(ClassFunction.from_mat(g, stray))


def test_root_sum_function_weights_past_int64_match_cyclotomic_sums():
    # int64 weights whose sum wraps, and weights that fit no int64 at all
    g = cached_group("GL2(3)")
    e = _packed_context(g).e
    r = g.conjugacy().n_classes
    cases = [
        ([1, 1, 1, 2], [0, 0, 0, 3], [1 << 62, 1 << 62, 1 << 62, 5]),
        ([0, 1, 1, 1, 2], [1, 0, 0, 5, 3], [3, (1 << 63) + 1, -(1 << 62), 1 << 62, -(1 << 64)]),
    ]
    for classes, exponents, weights in cases:
        f = root_sum_function(g, classes, exponents, weights)
        oracle = [CyclotomicNumber.zero() for _ in range(r)]
        for k, x, w in zip(classes, exponents, weights):
            oracle[k] = oracle[k] + zeta(e, x) * w
        assert f.mat.dtype == object and _agrees(f, oracle)


def test_index_of_twists_and_duals_builds_no_cyclotomic_number(monkeypatch):
    g = cached_group("GL2(5)")
    table = table_of(g)
    sigma = duality_involution(g)
    table.index_of(table.irreducibles[0])  # the row index is built outside the count
    built = []
    original = cyclotomic.CyclotomicNumber.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(cyclotomic.CyclotomicNumber, "__init__", counting_init)
    for chi in table.irreducibles:
        table.index_of(twist_by_automorphism(chi, sigma))
        table.index_of(dual_character(chi))
    assert built == []


def test_pointwise_product_past_int64_falls_back_to_python_ints():
    g = cached_group("GL2(3)")
    e = _packed_context(g).e
    big = [zeta(e, 1) * (1 << 31) + (1 << 40)] * g.conjugacy().n_classes
    f = ClassFunction(g, big)
    assert f.mat.dtype == np.int64
    product = f * f
    assert product.mat.dtype == object
    assert _agrees(product, [x * x for x in big])
    assert (f * f * f).values[0] == big[0] * big[0] * big[0]
