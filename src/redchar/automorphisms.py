"""Automorphisms of a realized G^F as permutations of its element indices.

They are built from the group's row-code kernel (`conjugation_perm`, the
transpose and inverse maps).  The Chevalley involution is checked to fix
the standard pinning and to square to the identity, the duality involution
to square to the identity, and before either is returned
`GroupAutomorphism.verify_homomorphism` proves it a homomorphism from the
generators (proven by the class sizes, `GroupRealization.generators`); both
are built and proved once per group.  The character table never needs an
automorphism, so a `table` job does not import this module.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np

from .groups import GroupRealization


class GroupAutomorphism:
    """A total automorphism of G^F given by its permutation of element indices."""

    def __init__(self, group: GroupRealization, perm: np.ndarray, name: str):
        self.group = group
        self.perm = perm
        self.name = name
        ident = group.identity_idx
        if perm[ident] != ident:
            raise ValueError("automorphism must fix the identity")

    def apply(self, idx: int) -> int:
        return int(self.perm[idx])

    def compose(self, other: "GroupAutomorphism") -> "GroupAutomorphism":
        """self after other: x -> self(other(x))."""
        return GroupAutomorphism(
            self.group, self.perm[other.perm], f"{self.name}*{other.name}"
        )

    def inverse(self) -> "GroupAutomorphism":
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(len(self.perm))
        return GroupAutomorphism(self.group, inv, f"{self.name}^-1")

    def is_identity(self) -> bool:
        return bool(np.all(self.perm == np.arange(len(self.perm))))

    def is_involution(self) -> bool:
        return bool(np.all(self.perm[self.perm] == np.arange(len(self.perm))))

    def verify_homomorphism(self) -> None:
        """perm(x g) = perm(x) perm(g) for every generator g and every x.

        By induction on word length in the generators this gives
        perm(x w) = perm(x) perm(w) for all x, w: a proof, not a sample.
        """
        g = self.group
        perm = self.perm
        for gen in g.generators():
            lhs = perm[g.right_mul(g.matrices(gen))]
            rhs = g.right_mul(g.matrices(perm[gen]))[perm]
            if not np.array_equal(lhs, rhs):
                raise AssertionError(f"{self.name} is not a homomorphism")

    def class_permutation(self) -> np.ndarray:
        data = self.group.conjugacy()
        return data.cls[self.perm[data.reps]]

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupAutomorphism) and np.array_equal(self.perm, other.perm)

    def __repr__(self) -> str:
        return f"GroupAutomorphism({self.group.spec}, {self.name})"


def identity_automorphism(group: GroupRealization) -> GroupAutomorphism:
    return GroupAutomorphism(group, np.arange(group.order), "id")


def ad_by_matrix(group: GroupRealization, mat: np.ndarray, name: str) -> GroupAutomorphism:
    """Conjugation x -> m x m^-1 by an invertible matrix over F_q.

    The matrix need not lie in the group itself (adjoint-group action); it
    must normalize it, which holds for any GL_n(q) matrix acting on SL_n(q).
    """
    return GroupAutomorphism(group, group.conjugation_perm(mat.astype(np.uint8)), name)


def transpose_inverse(group: GroupRealization) -> GroupAutomorphism:
    perm = group.inv_perm[group.transpose_perm]
    return GroupAutomorphism(group, perm, "transpose-inverse")


def _alternating_antidiagonal(group: GroupRealization) -> np.ndarray:
    """The standard longest-Weyl lift: antidiagonal with alternating signs."""
    n = group.n
    fld = group.field
    mat = np.zeros((n, n), dtype=np.uint8)
    c = 1
    for i in range(n):
        mat[i, n - 1 - i] = c
        c = fld.neg_code(c)
    return mat


def _fixes_pinning(group: GroupRealization, auto: GroupAutomorphism) -> bool:
    """Check that the automorphism maps x_{alpha_i}(1) to x_{alpha_{n-1-i}}(1)."""
    pin = group.pinning()
    n = group.n
    for i, x in enumerate(pin):
        if auto.apply(x) != pin[n - 2 - i]:
            return False
    return True


@lru_cache(maxsize=None)
def chevalley_involution(group: GroupRealization) -> GroupAutomorphism:
    """The pinned Chevalley involution: fixes the standard pinning, acts as
    t -> w0(t)^-1 on the diagonal torus, squares to the identity.

    It is x -> w x^-T w^-1, w the alternating antidiagonal: I + E_(i,i+1)
    goes to I + E_(n-2-i,n-1-i) with the sign (-1)^((i+1)+i) (-1) = +1, so
    this lift fixes the pinning as it is, and the check only guards that."""
    candidate = ad_by_matrix(group, _alternating_antidiagonal(group), "w0-lift").compose(transpose_inverse(group))
    if not _fixes_pinning(group, candidate):
        raise RuntimeError("the alternating antidiagonal lift does not fix the pinning")
    candidate.name = "chevalley"
    if not candidate.is_involution():
        raise RuntimeError("Chevalley involution candidate is not involutive")
    candidate.verify_homomorphism()
    return candidate


def minus_one_torus_matrix(group: GroupRealization) -> np.ndarray:
    """A lift of the adjoint torus element t with alpha(t) = -1 for all
    simple alpha: diag(1, -1, 1, ...).  In characteristic 2 this is the
    identity."""
    n = group.n
    fld = group.field
    mat = np.zeros((n, n), dtype=np.uint8)
    c = 1
    for i in range(n):
        mat[i, i] = c
        c = fld.neg_code(c)
    return mat


@lru_cache(maxsize=None)
def duality_involution(group: GroupRealization) -> GroupAutomorphism:
    """iota_{G,P} = ad(t_minus) o chevalley for the standard pinning."""
    c = chevalley_involution(group)
    t_minus = minus_one_torus_matrix(group)
    iota = ad_by_matrix(group, t_minus, "ad(t-)").compose(c)
    iota.name = "duality-involution"
    if not iota.is_involution():
        raise RuntimeError("duality involution is not involutive")
    iota.verify_homomorphism()
    return iota


def conjugated_duality_involution(
    group: GroupRealization, conjugator: np.ndarray, name: str = "duality-involution'"
) -> GroupAutomorphism:
    """ad(g) o iota o ad(g)^-1 for a pinning moved by ad(g)."""
    iota = duality_involution(group)
    adg = ad_by_matrix(group, conjugator, "ad(g)")
    out = adg.compose(iota).compose(adg.inverse())
    out.name = name
    return out


def adjoint_action_representatives(group: GroupRealization) -> list[GroupAutomorphism]:
    """Coset representatives for G_ad^F / pi(G^F) acting on G^F.

    For GL_n the center is connected and the list is [identity]; for SL_n
    the quotient is cyclic of order gcd(n, q-1), generated by conjugation
    with diag(nu, 1, ..., 1) for a generator nu of F_q^x.
    """
    if group.spec.family == "GL":
        return [identity_automorphism(group)]
    k = gcd(group.n, group.q - 1)
    out = [identity_automorphism(group)]
    fld = group.field
    for j in range(1, k):
        mat = np.eye(group.n, dtype=np.uint8)
        mat[0, 0] = fld.pow_code(fld.generator_code, j)
        out.append(ad_by_matrix(group, mat, f"ad(diag(g^{j},1..))"))
    return out

