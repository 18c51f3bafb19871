import random

from hypothesis import given, settings, strategies as st

from redchar.intlinalg import (
    FiniteAbelianGroup,
    IntegerMatrix,
    cokernel_invariants,
    quotient_by_endomorphism,
    smith_normal_form,
)


def identity(n: int) -> IntegerMatrix:
    return IntegerMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def det(mat: IntegerMatrix) -> int:
    """Determinant by fraction-free Gaussian elimination (Bareiss)."""
    n = mat.nrows
    m = [row[:] for row in mat.rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def elementary_reduction_oracle(rows):
    """Independent SNF-diagonal oracle via gcd of k x k minors.

    d_1 * ... * d_k equals the gcd of all k x k minors; this derivation is
    disjoint from the row/column reduction used by the implementation.
    """
    from itertools import combinations
    from math import gcd

    m = IntegerMatrix(rows)
    n, c = m.nrows, m.ncols
    prev = 1
    out = []
    for k in range(1, min(n, c) + 1):
        g = 0
        for rsel in combinations(range(n), k):
            for csel in combinations(range(c), k):
                sub = IntegerMatrix([[m[i, j] for j in csel] for i in rsel])
                g = gcd(g, det(sub))
        if g == 0:
            out.extend([0] * (min(n, c) - len(out)))
            break
        out.append(g // prev)
        prev = g
    return out


def check_snf(rows):
    m = IntegerMatrix(rows)
    diag, u, v = smith_normal_form(m)
    # exact factorization U M V = D
    product = u @ m @ v
    for i in range(m.nrows):
        for j in range(m.ncols):
            expected = diag[i] if i == j and i < len(diag) else 0
            assert product[i, j] == expected
    # unimodularity
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    # divisibility chain, non-negative
    nonzero = [d for d in diag if d]
    assert all(d >= 0 for d in diag)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert diag == elementary_reduction_oracle(rows)
    return diag


def test_snf_examples():
    assert check_snf([[2, 0], [0, 3]]) == [1, 6]
    assert check_snf([[0, 0], [0, 0]]) == [0, 0]
    # frozen from the elementary-operation oracle: diag(2, 4)
    assert check_snf([[2, 4], [6, 8]]) == [2, 4]


def test_snf_rectangular_and_degenerate():
    check_snf([[1, 2, 3], [4, 5, 6]])
    check_snf([[6], [10], [15]])
    check_snf([[12]])
    check_snf([[0, 7], [0, 0], [0, 0]])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=10**6),
)
def test_snf_random_matrices(n, m, seed):
    rng = random.Random(seed)
    rows = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
    check_snf(rows)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_elementary_divisors_invariant_under_unimodular(seed):
    rng = random.Random(seed)
    rows = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)]
    diag, _, _ = smith_normal_form(IntegerMatrix(rows))
    # random unimodular pre/post multiplication: products of elementary mats
    left = identity(3)
    right = identity(3)
    for _ in range(6):
        i, j = rng.sample(range(3), 2)
        c = rng.randint(-3, 3)
        e = identity(3)
        e.rows[i][j] = c
        if rng.random() < 0.5:
            left = e @ left
        else:
            right = right @ e
    twisted = left @ IntegerMatrix(rows) @ right
    diag2, _, _ = smith_normal_form(twisted)
    assert diag == diag2


def test_cokernel_invariants():
    # Z^2 / <(2,0),(0,3)> = Z/2 x Z/3 = Z/6
    assert cokernel_invariants(IntegerMatrix([[2, 0], [0, 3]])) == [6]
    # full lattice: trivial quotient
    assert cokernel_invariants(IntegerMatrix([[1, 0], [0, 1]])) == []
    # rank deficient: free part shows up as 0
    assert cokernel_invariants(IntegerMatrix([[2, 0], [0, 0]])) == [2, 0]


def test_abelian_group_and_coinvariants():
    g = FiniteAbelianGroup([3])
    assert g.divisors == (3,) and g.exponent == 3
    # multiplication by q=4 acts as identity on Z/3: coinvariants Z/3
    assert quotient_by_endomorphism(g, [[4]]) == FiniteAbelianGroup([3])
    # multiplication by q=2 on Z/3: 2x - x = x, image is everything: trivial
    assert quotient_by_endomorphism(g, [[2]]) == FiniteAbelianGroup([])
    trivial = FiniteAbelianGroup([])
    assert quotient_by_endomorphism(trivial, []) == trivial
    z2 = FiniteAbelianGroup([2])
    assert quotient_by_endomorphism(z2, [[3]]) == z2
