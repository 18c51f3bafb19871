"""Based root data of the split groups GL_n and SL_n (n <= 3), and the
center component group Z(G)/Z(G)_0 with its Frobenius coinvariants.

Lattices are presented in dual bases: X = Z^r and X^dual = Z^r with the
standard dot product as the perfect pairing.  Roots live in X, coroots in
X^dual, and the root <-> coroot bijection is positional.  Every group is
split, so the Frobenius F acts on X as multiplication by q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import prime_factors
from .intlinalg import (
    FiniteAbelianGroup,
    IntegerMatrix,
    cokernel_invariants,
    quotient_by_endomorphism,
)


def _dot(x, y) -> int:
    return sum(a * b for a, b in zip(x, y))


@dataclass(frozen=True)
class BasedRootDatum:
    """(X, Phi, Delta, X^dual, Phi^dual, Delta^dual) with positional bijection."""

    name: str
    rank: int
    roots: tuple  # tuples in X coordinates
    coroots: tuple  # tuples in X^dual coordinates, coroots[i] <-> roots[i]
    simples: tuple  # indices into roots

    def __post_init__(self):
        for i in self.simples:
            if _dot(self.roots[i], self.coroots[i]) != 2:
                raise ValueError("pairing <alpha, alpha^vee> must be 2")


# ---------------------------------------------------------------------------
# named data
# ---------------------------------------------------------------------------


def _gl_datum(n: int) -> BasedRootDatum:
    roots = []
    for i in range(n):
        for j in range(n):
            if i != j:
                v = [0] * n
                v[i], v[j] = 1, -1
                roots.append(tuple(v))
    simples = [roots.index(tuple([0] * i + [1, -1] + [0] * (n - 2 - i))) for i in range(n - 1)]
    return BasedRootDatum(
        name=f"GL{n}",
        rank=n,
        roots=tuple(roots),
        coroots=tuple(roots),
        simples=tuple(simples),
    )


def _sl2_datum() -> BasedRootDatum:
    return BasedRootDatum("SL2", 1, ((2,), (-2,)), ((1,), (-1,)), (0,))


def _sl3_datum() -> BasedRootDatum:
    # X = Z^3/(1,1,1) with basis (e1bar, e2bar); X^dual = sum-zero lattice
    roots = ((1, -1), (1, 2), (2, 1), (-1, 1), (-1, -2), (-2, -1))
    coroots = ((1, -1), (0, 1), (1, 0), (-1, 1), (0, -1), (-1, 0))
    return BasedRootDatum("SL3", 2, roots, coroots, (0, 1))


_NAMED = {
    "GL1": lambda: _gl_datum(1),
    "GL2": lambda: _gl_datum(2),
    "GL3": lambda: _gl_datum(3),
    "SL1": lambda: BasedRootDatum("SL1", 0, (), (), ()),
    "SL2": _sl2_datum,
    "SL3": _sl3_datum,
}


@lru_cache(maxsize=None)
def named_datum(name: str) -> BasedRootDatum:
    try:
        return _NAMED[name]()
    except KeyError:
        raise ValueError(f"unknown datum {name!r}; known: {sorted(_NAMED)}") from None


# ---------------------------------------------------------------------------
# the center component group and H^1(F, Z(G))
# ---------------------------------------------------------------------------


def _prime_to_p_part(d: int, p: int) -> int:
    while d % p == 0:
        d //= p
    return d


def center_component_group(datum: BasedRootDatum, q: int) -> FiniteAbelianGroup:
    """Z(G)/Z(G)_0: the torsion of X / Z.Phi, prime-to-p part only.

    In characteristic p the p-part of the center is infinitesimal and
    contributes no rational points, and multiplication by q is an
    automorphism precisely of the prime-to-p part.
    """
    p = prime_factors(q)[0]
    root_cols = IntegerMatrix([[root[i] for root in datum.roots] for i in range(datum.rank)])
    # the zero invariant factors are the free part of X / Z.Phi
    return FiniteAbelianGroup(
        _prime_to_p_part(d, p) for d in cokernel_invariants(root_cols) if d
    )


def h1_frobenius(group: FiniteAbelianGroup, q: int):
    """F-coinvariants of the component group and the 2H^1 = 0 predicate.

    F acts on X as q times the identity, and so on every invariant-factor
    coordinate of the component group.  Returns (coinvariants,
    two_h1_vanishes); the predicate is true iff every element of the
    coinvariant group has order at most 2.
    """
    k = len(group.divisors)
    action = [[q if i == j else 0 for j in range(k)] for i in range(k)]
    coinvariants = quotient_by_endomorphism(group, action)
    return coinvariants, coinvariants.exponent <= 2


def spec_datum(spec) -> BasedRootDatum:
    """The based root datum of the spec's family and rank."""
    return named_datum(f"{spec.family}{spec.n}")


def two_h1_predicate(spec) -> bool:
    """`h1_frobenius`'s 2H^1 = 0 predicate for the spec's center component group."""
    return h1_frobenius(center_component_group(spec_datum(spec), spec.q), spec.q)[1]
