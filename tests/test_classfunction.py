"""The integer-array state of ClassFunction against a CyclotomicNumber oracle.

Every operation is compared with the same operation done value by value on
plain lists of CyclotomicNumbers, the representation the arrays replaced.
"""

from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redchar import cyclotomic
from redchar.automorphisms import adjoint_action_representatives, duality_involution, transpose_inverse
from redchar.chartable import (
    ClassFunction,
    _packed_context,
    character_table,
    class_fusion,
    dual_character,
    root_sum_function,
    table_of,
    twist_by_automorphism,
    twist_classes,
)
from redchar.cyclotomic import CyclotomicNumber, euler_phi, zeta
from redchar.groups import GroupRealization, GroupSpec, cached_group

from reference import class_function, conjugate, descent, galois, restrict_between_groups, values

GROUPS = ["GL2(3)", "GL2(4)", "SL2(5)", "GL3(2)"]
# the SL subgroup each group restricts to
SUBGROUPS = {"GL2(3)": "SL2(3)", "GL2(4)": "SL2(4)", "SL2(5)": "SL2(5)", "GL3(2)": "SL3(2)"}


def _automorphisms(g):
    return [duality_involution(g), transpose_inverse(g), *adjoint_action_representatives(g)]


@st.composite
def class_value_lists(draw, group):
    """One value per class: a short sum of roots of unity zeta_e^t with small
    integer coefficients, over a small denominator, where (e / m) | t for the
    class order m, so that the value lies in Q(zeta_m)."""
    e = _packed_context(group).e
    out = []
    for m in group.conjugacy().orders:
        terms = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(-3, 3)), max_size=3))
        den = draw(st.integers(1, 4))
        acc = CyclotomicNumber.zero()
        for k, c in terms:
            acc = acc + zeta(e, k * (e // m)) * c
        out.append(acc * Fraction(1, den))
    return out


def _agrees(f: ClassFunction, oracle: list) -> bool:
    """f holds exactly the oracle's values, read back and packed anew."""
    return all(a == b for a, b in zip(values(f), oracle, strict=True)) and f == class_function(f.group, oracle)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pointwise_algebra_matches_the_value_lists(data):
    g = cached_group(data.draw(st.sampled_from(GROUPS)))
    a = data.draw(class_value_lists(g))
    b = data.draw(class_value_lists(g))
    s = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=6))
    f, h = class_function(g, a), class_function(g, b)
    assert _agrees(f + h, [x + y for x, y in zip(a, b)])
    assert _agrees(f - h, [x - y for x, y in zip(a, b)])
    assert _agrees(f * s, [x * s for x in a])
    assert _agrees(s * f, [x * s for x in a])
    assert _agrees(f * h, [x * y for x, y in zip(a, b)])
    assert _agrees(f.conjugate(), [conjugate(x) for x in a])
    e = _packed_context(g).e
    u = data.draw(st.sampled_from([u for u in range(e) if gcd(u, e) == 1]))
    assert _agrees(f.galois(u), [galois(x, u) for x in a])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_gathers_match_the_value_lists(data):
    name = data.draw(st.sampled_from(GROUPS))
    g = cached_group(name)
    a = data.draw(class_value_lists(g))
    f = class_function(g, a)
    inv = g.conjugacy().inverse_class
    assert _agrees(dual_character(f), [a[int(inv[k])] for k in range(len(a))])
    for sigma in _automorphisms(g):
        cp_inv = sigma.inverse().class_permutation()
        assert _agrees(twist_by_automorphism(f, sigma), [a[int(k)] for k in cp_inv])
    sub = cached_group(SUBGROUPS[name])
    fusion = class_fusion(sub, g)
    assert _agrees(restrict_between_groups(f, sub), [a[int(k)] for k in fusion])


def test_gathers_build_one_index_per_class_map():
    g = GroupRealization(GroupSpec.parse("GL2(5)"))
    ctx = _packed_context(g)
    chis = table_of(g).irreducibles
    inv = g.conjugacy().inverse_class
    duals = [dual_character(chi) for chi in chis]
    (key, index), = ctx.gathers.items()
    assert key[0] is ctx and key[1] == inv.tobytes()
    # on GL_n the duality involution sends each class to its inverse class,
    # so its twist reads the same index
    twisted = twist_by_automorphism(chis[1], duality_involution(g))
    assert list(ctx.gathers.values()) == [index] and ctx.gathers[key] is index
    assert twisted == duals[1]
    for chi, dual in zip(chis, duals):
        assert _agrees(dual, [values(chi)[int(k)] for k in inv])
    sub = cached_group("SL2(5)")
    restricted = [restrict_between_groups(chi, sub) for chi in chis[:3]]
    assert len([k for k in _packed_context(sub).gathers if k[0] is ctx]) == 1
    fusion = class_fusion(sub, g)
    for chi, res in zip(chis, restricted):
        assert _agrees(res, [values(chi)[int(k)] for k in fusion])


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
        assert _agrees(twist_by_automorphism(chi, sigma), [values(chi)[int(k)] for k in cp_inv])


def test_a_value_outside_the_field_of_its_class_order_is_refused():
    # GL2(3) has exponent 24, but a value at its identity class lies in Q
    g = cached_group("GL2(3)")
    data = g.conjugacy()
    assert _packed_context(g).e == 24
    ident = int(data.cls[g.identity_idx])
    given = [0] * data.n_classes
    given[ident] = zeta(24)
    with pytest.raises(ValueError, match="does not lie in"):
        class_function(g, given)
    # a rational value stored at conductor 24 descends to the identity class
    given[ident] = zeta(24) * 0 + 2
    assert class_function(g, given) == root_sum_function(g, [ident], weights=2)
    # zeta_3 is no term at a class of order 2
    with pytest.raises(ValueError, match="order does not divide"):
        root_sum_function(g, [data.orders.index(2)], [8])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_equality_matches_the_value_lists(data):
    g = cached_group(data.draw(st.sampled_from(GROUPS)))
    a = data.draw(class_value_lists(g))
    b = list(a)
    k = data.draw(st.integers(0, len(a) - 1))
    b[k] = b[k] + data.draw(st.sampled_from([Fraction(1, 2), 1, -1]))
    f = class_function(g, a)
    assert f == class_function(g, list(a)) and f != class_function(g, b)
    assert f.degree == a[int(g.conjugacy().cls[g.identity_idx])]
    # equal matrices over different denominators
    r = len(a)
    assert class_function(g, [1] * r) != class_function(g, [Fraction(1, 2)] * r)


@pytest.mark.parametrize("name", GROUPS)
def test_index_of_matches_a_search_of_the_value_lists(name):
    # a lookup is a decomposition: each image of an irreducible under the
    # dual or a twist is found where a search of the value lists finds it
    g = cached_group(name)
    table = table_of(g)
    irr = [values(chi) for chi in table.irreducibles]
    maps = [g.conjugacy().inverse_class] + [twist_classes(sigma) for sigma in _automorphisms(g)]
    for source in maps:
        expected = [irr.index([v[int(k)] for k in source]) for v in irr]
        assert table.permutation(source) == expected
    images = [twist_by_automorphism(chi, duality_involution(g)) for chi in table.irreducibles]
    assert table.identify(np.stack([f.flat for f in images])) == table.permutation(maps[1])
    chi, psi = table.irreducibles[-1], table.irreducibles[-2]
    huge = chi * (1 << 62)
    assert huge.flat.dtype == object
    for f in (chi * 2, chi + psi, chi - psi, chi * -1, huge):
        with pytest.raises(AssertionError):
            table.identify(np.stack([chi.flat, f.flat]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_descent_inverts_the_lift_to_the_exponent(data):
    g = cached_group(data.draw(st.sampled_from(GROUPS + ["GL2(5)", "SL3(3)"])))
    ctx = _packed_context(g)
    c = data.draw(st.sampled_from([d for d in range(1, ctx.e + 1) if ctx.e % d == 0]))
    num = data.draw(st.lists(st.integers(-9, 9), min_size=euler_phi(c), max_size=euler_phi(c)))
    lifted = CyclotomicNumber(c, num).lift(ctx.e)
    assert (np.array([lifted.num]) @ descent(ctx.e, c)).tolist() == [num]


def test_root_sum_function_reduces():
    # on GL2(3), e = 24: 1 + z3 + z3^2 = 0 at class 5 (order 3) and
    # 2 z8 + 2 z8^5 = 0 at class 1 (order 8), while z8 + z8^5 + z4 = z4 at
    # class 2 (order 8) is not
    g = cached_group("GL2(3)")
    assert _packed_context(g).e == 24
    assert [g.conjugacy().orders[k] for k in (5, 1, 2)] == [3, 8, 8]
    r = g.conjugacy().n_classes
    f = root_sum_function(g, [5, 5, 5, 1, 1, 2, 2, 2], [0, 8, 16, 3, 15, 3, 15, 6], [1, 1, 1, 2, 2, 1, 1, 1])
    assert _agrees(f, [0, 0, zeta(4)] + [0] * (r - 3))


def test_root_sum_function_weights_past_int64_match_cyclotomic_sums():
    # int64 weights whose sum wraps, and weights that fit no int64 at all
    g = cached_group("GL2(3)")
    e = _packed_context(g).e
    r = g.conjugacy().n_classes
    cases = [
        ([1, 1, 1, 2], [0, 0, 0, 3], [1 << 62, 1 << 62, 1 << 62, 5]),
        ([0, 1, 1, 1, 2], [12, 0, 0, 15, 3], [3, (1 << 63) + 1, -(1 << 62), 1 << 62, -(1 << 64)]),
    ]
    for classes, exponents, weights in cases:
        f = root_sum_function(g, classes, exponents, weights)
        oracle = [CyclotomicNumber.zero() for _ in range(r)]
        for k, x, w in zip(classes, exponents, weights):
            oracle[k] = oracle[k] + zeta(e, x) * w
        assert f.flat.dtype == object and _agrees(f, oracle)


def test_index_of_twists_and_duals_builds_no_cyclotomic_number(monkeypatch):
    g = GroupRealization(GroupSpec.parse("GL2(5)"))
    table = character_table(g)
    sigma = duality_involution(g)
    built = []
    original = cyclotomic.CyclotomicNumber.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(cyclotomic.CyclotomicNumber, "__init__", counting_init)
    table.permutation(g.conjugacy().inverse_class)
    table.permutation(twist_classes(sigma))
    table.identify(np.stack([twist_by_automorphism(chi, sigma).flat for chi in table.irreducibles]))
    assert built == []


def test_pointwise_product_past_int64_falls_back_to_python_ints():
    g = cached_group("GL2(3)")
    big = [zeta(m) * (1 << 31) + (1 << 40) for m in g.conjugacy().orders]
    f = class_function(g, big)
    assert f.flat.dtype == np.int64
    product = f * f
    assert product.flat.dtype == object
    assert _agrees(product, [x * x for x in big])
    assert values(f * f * f)[0] == big[0] * big[0] * big[0]
