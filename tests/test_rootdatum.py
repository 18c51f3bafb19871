from math import gcd, prod

from redchar.intlinalg import FiniteAbelianGroup
from redchar.rootdatum import center_component_group, h1_frobenius, named_datum


def mu_n_coinvariants_oracle(n, q, p):
    """Independent enumeration of mu_n(Fbar)-coinvariants under x -> x^q.

    mu_n(Fbar_p) is cyclic of order n' (the prime-to-p part of n), written
    additively as Z/n'; Frobenius acts by multiplication by q, and the
    coinvariants are Z/n' modulo the subgroup {q*y - y}.
    """
    n_prime = n
    while n_prime % p == 0:
        n_prime //= p
    image = sorted({(q * y - y) % n_prime for y in range(n_prime)})
    # image is a subgroup of the cyclic group Z/n'
    generator = min((x for x in image if x), default=0)
    size = n_prime // generator if generator else 1
    return n_prime // size


def test_center_component_groups():
    for n, name in [(1, "GL1"), (2, "GL2"), (3, "GL3")]:
        z = center_component_group(named_datum(name), 3)
        assert z == FiniteAbelianGroup([])
    z2 = center_component_group(named_datum("SL2"), 3)
    assert z2 == FiniteAbelianGroup([2])
    z3 = center_component_group(named_datum("SL3"), 4)
    assert z3 == FiniteAbelianGroup([3])
    # char 2 kills the mu_2 component group of SL2
    z2e = center_component_group(named_datum("SL2"), 4)
    assert z2e == FiniteAbelianGroup([])


def test_h1_against_independent_enumeration():
    cases = []
    for q, p in [(2, 2), (3, 3), (4, 2), (5, 5), (7, 7), (8, 2), (9, 3)]:
        cases.append(("SL2", 2, q, p))
        cases.append(("SL3", 3, q, p))
    for name, n, q, p in cases:
        z = center_component_group(named_datum(name), q)
        group, _ = h1_frobenius(z, q)
        assert prod(group.divisors) == mu_n_coinvariants_oracle(n, q, p)
        assert prod(group.divisors) == gcd(n, q - 1)


def test_two_h1_predicate():
    assert h1_frobenius(center_component_group(named_datum("GL2"), 3), 3)[1]
    assert h1_frobenius(center_component_group(named_datum("GL3"), 4), 4)[1]
    assert h1_frobenius(center_component_group(named_datum("SL2"), 3), 3)[1]
    assert h1_frobenius(center_component_group(named_datum("SL2"), 5), 5)[1]
    group, ok = h1_frobenius(center_component_group(named_datum("SL3"), 4), 4)
    assert group == FiniteAbelianGroup([3]) and not ok
    assert h1_frobenius(center_component_group(named_datum("SL3"), 2), 2)[1]
