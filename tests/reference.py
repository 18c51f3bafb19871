"""Reference forms of what the package computes with tables and arrays,
worked out one value or one element at a time, for the tests to compare
against.  No check of `verify` runs them, so they live with the tests.
"""

from fractions import Fraction
from math import gcd

import numpy as np

from redchar.cyclotomic import CyclotomicNumber, zeta
from redchar.dl import SemisimpleClassLabel, lusztig_series


def galois(x: CyclotomicNumber, k: int) -> CyclotomicNumber:
    """x under zeta_e -> zeta_e^k, term by term, for k coprime to the conductor e."""
    e = x.conductor
    if gcd(k, e) != 1:
        raise ValueError(f"exponent {k} is not coprime to conductor {e}")
    terms = (c * zeta(e, i * k) for i, c in enumerate(x.num) if c)
    return sum(terms, CyclotomicNumber.zero()) * Fraction(1, x.den)


def conjugate(x: CyclotomicNumber) -> CyclotomicNumber:
    """The complex conjugate: zeta_e -> zeta_e^-1."""
    return galois(x, -1)


def bmm(tab, a, b):
    """Batched matrix multiply of code arrays with shapes (..., n, n), entry
    by entry through the field's multiplication and addition tables."""
    n = a.shape[-1]
    acc = None
    for j in range(n):
        term = tab.mul[a[..., :, j][..., :, None], b[..., j, :][..., None, :]]
        acc = term if acc is None else tab.add[acc, term]
    return acc


def mul_idx(group, i: int, j: int) -> int:
    """The index of the product of elements i and j, from their matrices."""
    prod = bmm(group.tables, group.matrices(i)[None], group.matrices(j)[None])
    return int(group.lookup(prod)[0])


def element_order(group, i: int) -> int:
    """The order of element i, by repeated multiplication."""
    out, m = i, 1
    while out != group.identity_idx:
        out = mul_idx(group, out, i)
        m += 1
    return m


def borel_indices(group) -> np.ndarray:
    """The indices of the upper triangular elements, read off their matrices."""
    below = np.tril(np.ones((group.n, group.n), dtype=bool), -1)
    return np.flatnonzero(~group.matrices(np.arange(group.order))[:, below].any(axis=1))


def is_central(label: SemisimpleClassLabel) -> bool:
    """Whether the label is one eigenvalue in F_q^x, a central class."""
    return len(label.orbits) == 1 and label.orbits[0][0][0] == 1


def unipotent_series(ctx):
    """The Lusztig series of the identity: eigenvalue 1 with multiplicity n."""
    ident = SemisimpleClassLabel(ctx.q, ((ctx.tower.orbit_key(1, 0), ctx.n),))
    return next(s for s in lusztig_series(ctx) if s.label == ident)
