"""Based root data, Weyl groups, duals, pinned automorphisms, and the
center component group with its Frobenius coinvariants.

Lattices are presented in dual bases: X = Z^r and X^dual = Z^r with the
standard dot product as the perfect pairing.  Roots live in X, coroots in
X^dual, and the root <-> coroot bijection is positional.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cyclotomic import prime_factors
from .groups import UnsupportedSpec
from .intlinalg import (
    FiniteAbelianGroup,
    IntegerMatrix,
    quotient_by_endomorphism,
    smith_normal_form,
)


def _dot(x, y) -> int:
    return sum(a * b for a, b in zip(x, y))


def _mat_vec(rows, v):
    return tuple(sum(r[j] * v[j] for j in range(len(v))) for r in rows)


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def _mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_transpose(a):
    return tuple(zip(*a))


def _mat_inverse_unimodular(a):
    m = IntegerMatrix([list(r) for r in a])
    d = m.det()
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    n = m.nrows
    # adjugate via cofactors; fine at rank <= 3
    cof = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = IntegerMatrix(
                [[m[r, c] for c in range(n) if c != j] for r in range(n) if r != i]
            )
            cof[i][j] = (-1) ** (i + j) * (sub.det() if n > 1 else 1)
    # inverse = adjugate / det = cofactor-transpose * det (det is +-1)
    return tuple(tuple(cof[j][i] * d for j in range(n)) for i in range(n))


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

    @property
    def simple_roots(self):
        return [self.roots[i] for i in self.simples]

    @property
    def simple_coroots(self):
        return [self.coroots[i] for i in self.simples]

    def reflection_matrix(self, i: int):
        """s_alpha as a matrix on X for the i-th root."""
        alpha, cov = self.roots[i], self.coroots[i]
        n = self.rank
        return tuple(
            tuple((1 if r == c else 0) - alpha[r] * cov[c] for c in range(n)) for r in range(n)
        )

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "rank": self.rank,
            "roots": [list(r) for r in self.roots],
            "coroots": [list(c) for c in self.coroots],
            "simples": list(self.simples),
        }


@dataclass(frozen=True)
class PinnedAutomorphism:
    """A lattice automorphism of X preserving the based datum."""

    datum: BasedRootDatum
    matrix: tuple  # action on X

    def __post_init__(self):
        d, m = self.datum, self.matrix
        root_set = set(d.roots)
        simple_set = {d.roots[i] for i in d.simples}
        for i in d.simples:
            img = _mat_vec(m, d.roots[i])
            if img not in simple_set:
                raise ValueError("automorphism must permute the simple roots")
        minv_t = _mat_transpose(_mat_inverse_unimodular(m))
        for i, r in enumerate(d.roots):
            img = _mat_vec(m, r)
            if img not in root_set:
                raise ValueError("automorphism must preserve the roots")
            # coroot compatibility: coroot(m . alpha) == (m^-T) . coroot(alpha)
            j = d.roots.index(img)
            if _mat_vec(minv_t, d.coroots[i]) != d.coroots[j]:
                raise ValueError("automorphism must be compatible with coroots")

    def simple_permutation(self) -> dict[int, int]:
        d = self.datum
        out = {}
        for pos, i in enumerate(d.simples):
            img = _mat_vec(self.matrix, d.roots[i])
            out[pos] = [d.roots[j] for j in d.simples].index(img)
        return out

    def is_identity(self) -> bool:
        return self.matrix == _mat_identity(self.datum.rank)

    def compose(self, other: "PinnedAutomorphism") -> "PinnedAutomorphism":
        return PinnedAutomorphism(self.datum, _mat_mul(self.matrix, other.matrix))


@dataclass(frozen=True)
class FrobeniusDatum:
    """Split Frobenius data: q and a (trivial, for split groups) pinned part."""

    q: int
    automorphism: PinnedAutomorphism | None = None

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("q must be at least 2")


@dataclass
class CenterComponentGroup:
    """Z(G)/Z(G)_0 as a finite abelian group with its Frobenius action.

    Only the prime-to-p part of the lattice torsion is kept: in
    characteristic p the p-part of the center is infinitesimal and
    contributes no rational points, and the q-multiplication action is an
    automorphism precisely of the prime-to-p part.
    """

    group: FiniteAbelianGroup
    action: list  # square matrix on the generators

    def is_trivial(self) -> bool:
        return self.group.is_trivial()


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


def _pgl2_datum() -> BasedRootDatum:
    return BasedRootDatum("PGL2", 1, ((1,), (-1,)), ((2,), (-2,)), (0,))


def _sl3_datum() -> BasedRootDatum:
    # X = Z^3/(1,1,1) with basis (e1bar, e2bar); X^dual = sum-zero lattice
    roots = ((1, -1), (1, 2), (2, 1), (-1, 1), (-1, -2), (-2, -1))
    coroots = ((1, -1), (0, 1), (1, 0), (-1, 1), (0, -1), (-1, 0))
    return BasedRootDatum("SL3", 2, roots, coroots, (0, 1))


def _pgl3_datum() -> BasedRootDatum:
    sl3 = _sl3_datum()
    return BasedRootDatum("PGL3", 2, sl3.coroots, sl3.roots, sl3.simples)


_NAMED = {
    "GL1": lambda: _gl_datum(1),
    "GL2": lambda: _gl_datum(2),
    "GL3": lambda: _gl_datum(3),
    "SL2": _sl2_datum,
    "SL3": _sl3_datum,
    "PGL2": _pgl2_datum,
    "PGL3": _pgl3_datum,
}


@lru_cache(maxsize=None)
def named_datum(name: str) -> BasedRootDatum:
    try:
        return _NAMED[name]()
    except KeyError:
        raise ValueError(f"unknown datum {name!r}; known: {sorted(_NAMED)}") from None


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


_DUAL_NAMES = {
    "GL1": "GL1",
    "GL2": "GL2",
    "GL3": "GL3",
    "SL2": "PGL2",
    "PGL2": "SL2",
    "SL3": "PGL3",
    "PGL3": "SL3",
}


def dual_datum(datum: BasedRootDatum) -> BasedRootDatum:
    """Swap X <-> X^dual, roots <-> coroots, Delta <-> Delta^dual."""
    return BasedRootDatum(
        name=_DUAL_NAMES.get(datum.name, f"{datum.name}^dual"),
        rank=datum.rank,
        roots=datum.coroots,
        coroots=datum.roots,
        simples=datum.simples,
    )


def weyl_group(datum: BasedRootDatum):
    """All Weyl elements as matrices on X, plus the longest element.

    The longest element is the unique one sending every simple root to a
    negative root.
    """
    gens = [datum.reflection_matrix(i) for i in datum.simples]
    ident = _mat_identity(datum.rank)
    elements = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for w in frontier:
            for g in gens:
                wg = _mat_mul(w, g)
                if wg not in elements:
                    elements.add(wg)
                    new.append(wg)
        frontier = new
    longest = None
    for w in elements:
        images = [_mat_vec(w, datum.roots[i]) for i in datum.simples]
        if all(not _is_positive(datum, img) for img in images):
            longest = w
            break
    if longest is None:
        raise RuntimeError("no longest element found")
    return sorted(elements), longest


def _is_positive(datum: BasedRootDatum, root) -> bool:
    """Roots are positive iff they are non-negative combinations of Delta."""
    # at rank <= 3 with our data, positivity is determined by the expansion
    # in simple roots; solve the small linear system exactly
    simples = datum.simple_roots
    k = len(simples)
    # solve sum c_i simples[i] = root over Q via pairing with simple coroots
    # using integer Cramer on the Gram matrix
    gram = IntegerMatrix([[_dot(s, cv) for s in simples] for cv in datum.simple_coroots])
    rhs = [_dot(root, cv) for cv in datum.simple_coroots]
    det = gram.det()
    coeffs = []
    for i in range(k):
        cols = [
            [rhs[r] if c == i else gram[r, c] for c in range(k)] for r in range(k)
        ]
        coeffs.append(Fraction(IntegerMatrix(cols).det(), det))
    return all(c >= 0 for c in coeffs)


def chevalley_datum_involution(datum: BasedRootDatum) -> PinnedAutomorphism:
    """The map -w0 on X; permutes Delta and squares to the identity."""
    _, w0 = weyl_group(datum)
    neg = tuple(tuple(-a for a in row) for row in w0)
    return PinnedAutomorphism(datum, neg)


def dual_automorphism(auto: PinnedAutomorphism) -> PinnedAutomorphism:
    """The dual pinned automorphism on the dual datum (inverse transpose)."""
    mat = _mat_transpose(_mat_inverse_unimodular(auto.matrix))
    return PinnedAutomorphism(dual_datum(auto.datum), mat)


def _prime_to_p_part(d: int, p: int) -> int:
    while d % p == 0:
        d //= p
    return d


def center_component_group(
    datum: BasedRootDatum, frob: FrobeniusDatum, p: int | None = None
) -> CenterComponentGroup:
    """Torsion of X/Z.Phi with the F-action (multiplication by q composed
    with the datum automorphism), prime-to-p part only."""
    if p is None:
        p = prime_factors(frob.q)[0]
    r = datum.rank
    if not datum.roots:
        return CenterComponentGroup(FiniteAbelianGroup([]), [])
    root_cols = IntegerMatrix([[root[i] for root in datum.roots] for i in range(r)])
    diag, u, _ = smith_normal_form(root_cols)
    diag = list(diag) + [0] * (r - len(diag))
    torsion_idx = [i for i in range(r) if diag[i] not in (0, 1)]
    divisors = [_prime_to_p_part(diag[i], p) for i in torsion_idx]
    keep = [i for i, d in zip(torsion_idx, divisors) if d > 1]
    divisors = [d for d in divisors if d > 1]
    if not keep:
        return CenterComponentGroup(FiniteAbelianGroup([]), [])
    # action on X: q * sigma; transported to quotient coordinates by U
    sigma = (
        frob.automorphism.matrix if frob.automorphism is not None else _mat_identity(r)
    )
    q_sigma = tuple(tuple(frob.q * x for x in row) for row in sigma)
    uinv = _mat_inverse_unimodular(tuple(tuple(row) for row in u.rows))
    act = _mat_mul(_mat_mul(tuple(tuple(row) for row in u.rows), q_sigma), uinv)
    # entry (a, b) only matters modulo the order of the target generator a
    block = [
        [act[i][j] % divisors[a] for j in keep]
        for a, i in enumerate(keep)
    ]
    group = FiniteAbelianGroup(divisors)
    return CenterComponentGroup(group, block)


def h1_frobenius(center: CenterComponentGroup):
    """F-coinvariants of the component group and the 2H^1 = 0 predicate.

    Returns (group, two_h1_vanishes); the predicate is true iff every
    element of the coinvariant group has order at most 2.
    """
    group = quotient_by_endomorphism(center.group, center.action)
    return group, group.exponent <= 2


def spec_datum(spec) -> BasedRootDatum:
    """The based root datum of the spec's family and rank (none for SL1)."""
    try:
        return named_datum(f"{spec.family}{spec.n}")
    except ValueError as exc:
        raise UnsupportedSpec(str(exc)) from None


def two_h1_predicate(spec) -> bool:
    """`h1_frobenius`'s 2H^1 = 0 predicate for the spec's center component group."""
    center = center_component_group(spec_datum(spec), FrobeniusDatum(spec.q))
    return h1_frobenius(center)[1]
