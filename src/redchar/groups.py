"""Explicit realizations of GL_n(q) and SL_n(q), n <= 3, by full enumeration.

Elements are n x n matrices of field codes (see finitefield) held in one
numpy uint8 array; all bulk arithmetic goes through small multiplication
and addition lookup tables, so everything stays exact integer arithmetic.

A row (a_0, ..., a_{n-1}) has the code sum_j a_j q^(n-1-j) in [0, q^n), and a
matrix has the key whose base-q^n digits are its row codes; keys order the
elements as they are enumerated.  A dense int32 map over all q^(n^2) keys
gives each element's index (-1 off the group).  Multiplying many elements by
one fixed matrix h is the group's bulk primitive: the row table
T_h[c] = code(row c * h) has q^n entries, so x h for every x is n gathers
into T_h, a key sum and one gather from the dense map.  Left multiplication
goes through transposes (g x = (x^T g^T)^T) and conjugation composes both;
only products of two element arrays still multiply matrices entry by entry.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .finitefield import FiniteField, finite_field
from .intlinalg import IntegerMatrix, cokernel_invariants

DEFAULT_BUDGET = 10**6

_SPEC_RE = re.compile(r"^(GL|SL)([123])\((\d+)\)$")


class BudgetExceeded(Exception):
    def __init__(self, spec, order, budget):
        super().__init__(
            f"{spec} has order {order}, above the enumeration budget {budget}; "
            f"pass budget >= {order} to build it anyway"
        )
        self.required = order


@dataclass(frozen=True)
class GroupSpec:
    family: str  # "GL" or "SL"
    n: int
    q: int

    def __post_init__(self):
        if self.family not in ("GL", "SL"):
            raise ValueError("family must be GL or SL")
        if self.n not in (1, 2, 3):
            raise ValueError("rank must be 1, 2 or 3")
        _prime_power(self.q)  # raises ValueError for any other q

    @staticmethod
    def parse(text: str) -> "GroupSpec":
        m = _SPEC_RE.match(text.strip())
        if not m:
            raise ValueError(f"cannot parse group spec {text!r}; expected like 'GL2(3)'")
        return GroupSpec(m.group(1), int(m.group(2)), int(m.group(3)))

    @property
    def order(self) -> int:
        q, n = self.q, self.n
        out = 1
        for i in range(n):
            out *= q**n - q**i
        if self.family == "SL":
            out //= q - 1
        return out

    def __str__(self) -> str:
        return f"{self.family}{self.n}({self.q})"


def _prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        p = q
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, k


class _Tables:
    """Numpy lookup tables for one base field."""

    def __init__(self, fld: FiniteField):
        q = fld.q
        self.q = q
        self.mul = np.zeros((q, q), dtype=np.uint8)
        self.add = np.zeros((q, q), dtype=np.uint8)
        for a in range(q):
            for b in range(q):
                self.mul[a, b] = fld.mul_codes(a, b)
                self.add[a, b] = fld.add_codes(a, b)
        self.neg = np.array([fld.neg_code(a) for a in range(q)], dtype=np.uint8)
        self.inv = np.array([0] + [fld.inv_code(a) for a in range(1, q)], dtype=np.uint8)

    def sub(self, a, b):
        return self.add[a, self.neg[b]]


def _bmm(tab: _Tables, a, b):
    """Batched matrix multiply of code arrays with shapes (..., n, n)."""
    n = a.shape[-1]
    acc = None
    for j in range(n):
        term = tab.mul[a[..., :, j][..., :, None], b[..., j, :][..., None, :]]
        acc = term if acc is None else tab.add[acc, term]
    return acc


def _horner(digits: np.ndarray, base: int) -> np.ndarray:
    """The integers whose base-`base` digits, most significant first, run
    along the last axis: row codes from field codes, keys from row codes."""
    out = digits[..., 0].astype(np.int64)
    for j in range(1, digits.shape[-1]):
        out *= base
        out += digits[..., j]
    return out


def _bdet(tab: _Tables, a):
    n = a.shape[-1]
    if n == 1:
        return a[..., 0, 0]
    if n == 2:
        return tab.sub(
            tab.mul[a[..., 0, 0], a[..., 1, 1]], tab.mul[a[..., 0, 1], a[..., 1, 0]]
        )
    m = tab.mul
    pos = m[a[..., 0, 0], tab.sub(m[a[..., 1, 1], a[..., 2, 2]], m[a[..., 1, 2], a[..., 2, 1]])]
    mid = m[a[..., 0, 1], tab.sub(m[a[..., 1, 0], a[..., 2, 2]], m[a[..., 1, 2], a[..., 2, 0]])]
    neg = m[a[..., 0, 2], tab.sub(m[a[..., 1, 0], a[..., 2, 1]], m[a[..., 1, 1], a[..., 2, 0]])]
    return tab.add[tab.sub(pos, mid), neg]


def _binv(tab: _Tables, a):
    n = a.shape[-1]
    det_inv = tab.inv[_bdet(tab, a)]
    if n == 1:
        return det_inv[..., None, None]
    m = tab.mul
    if n == 2:
        out = np.empty_like(a)
        out[..., 0, 0] = a[..., 1, 1]
        out[..., 0, 1] = tab.neg[a[..., 0, 1]]
        out[..., 1, 0] = tab.neg[a[..., 1, 0]]
        out[..., 1, 1] = a[..., 0, 0]
        return m[det_inv[..., None, None], out]
    # n == 3: adjugate via 2x2 cofactors
    out = np.empty_like(a)
    idx = [(0, 1, 2), (1, 0, 2), (2, 0, 1)]
    for i in range(3):
        for j in range(3):
            r = idx[j][1], idx[j][2]  # rows skipping j
            c = idx[i][1], idx[i][2]  # cols skipping i
            minor = tab.sub(
                m[a[..., r[0], c[0]], a[..., r[1], c[1]]],
                m[a[..., r[0], c[1]], a[..., r[1], c[0]]],
            )
            out[..., i, j] = tab.neg[minor] if (i + j) % 2 else minor
    return m[det_inv[..., None, None], out]


@dataclass
class ConjugacyData:
    """Complete conjugacy partition of a realized group."""

    n_classes: int
    cls: np.ndarray  # element index -> class index
    reps: np.ndarray  # class index -> element index of the minimal member
    sizes: np.ndarray
    orders: list  # order of each class representative
    inverse_class: np.ndarray  # class of g^-1
    exponent: int

    def members(self, i: int) -> np.ndarray:
        return np.nonzero(self.cls == i)[0]


@dataclass
class TorusClass:
    """An F-stable maximal torus type T_w, labelled by a cycle type of W."""

    partition: tuple  # cycle type of w, parts descending
    order: int
    cyclic_orders: tuple  # invariant factors of the abelian model
    f_rank: int  # dimension of the w-fixed space on the cocharacter lattice
    split_member_indices: np.ndarray | None = None  # explicit when T_w <= T_0


class GroupRealization:
    """G^F = GL_n(q) or SL_n(q), fully enumerated."""

    def __init__(self, spec: GroupSpec, budget: int = DEFAULT_BUDGET):
        order = spec.order
        if order > budget:
            raise BudgetExceeded(spec, order, budget)
        self.spec = spec
        self.n = spec.n
        self.q = spec.q
        p, k = _prime_power(spec.q)
        self.p = p
        self.field = finite_field(p, k)
        self.tables = _Tables(self.field)
        self._enumerate()
        self._find_subgroups()
        self._conjugacy: ConjugacyData | None = None

    # -- enumeration -----------------------------------------------------

    def _enumerate(self) -> None:
        n, q = self.n, self.q
        total = q ** (n * n)
        cand = np.arange(total, dtype=np.int64)
        digits = np.empty((total, n * n), dtype=np.uint8)
        for t in range(n * n):
            digits[:, t] = (cand // q ** (n * n - 1 - t)) % q
        mats = digits.reshape(total, n, n)
        dets = _bdet(self.tables, mats)
        if self.spec.family == "GL":
            keep = dets != 0
        else:
            keep = dets == 1
        self.elements = np.ascontiguousarray(mats[keep])
        self.order = len(self.elements)
        assert self.order == self.spec.order
        # a candidate's key is its number, so the kept numbers are the keys
        self._index = np.full(total, -1, dtype=np.int32)
        self._index[keep] = np.arange(self.order, dtype=np.int32)
        self._rows = _horner(self.elements, q).astype(np.int32)  # row codes of every element
        # candidate c < q^n has c's digits in its last row: row code -> field codes
        self._row_vectors = mats[: q**n, n - 1].copy()
        ident = np.eye(n, dtype=np.uint8)
        self.identity_idx = int(self.lookup(ident[None])[0])
        self.inv_perm = self.lookup(_binv(self.tables, self.elements))
        self.transpose_perm = self.lookup(np.swapaxes(self.elements, 1, 2))

    def _find(self, rows: np.ndarray) -> np.ndarray:
        """Indices of the matrices with these row codes (shape (..., n))."""
        idx = self._index[_horner(rows, self.q**self.n)]
        if (idx < 0).any():
            raise KeyError("matrix not in the group")
        return idx.astype(np.int64)

    def lookup(self, mats: np.ndarray) -> np.ndarray:
        """Indices of the given code matrices (shape (..., n, n)) in the group."""
        return self._find(_horner(mats, self.q))

    def _row_table(self, h: np.ndarray) -> np.ndarray:
        """T[..., c] = code of (row c) h for every row code c, for code
        matrices h of shape (..., n, n), in the group or not."""
        vectors = self._row_vectors[:, None, :]
        return _horner(_bmm(self.tables, vectors, h[..., None, :, :])[..., 0, :], self.q)

    def right_mul(self, h: np.ndarray, idx: np.ndarray | None = None) -> np.ndarray:
        """Indices of x h for the elements x at `idx` (default: all).

        h is one code matrix, or a stack of shape (..., n, n) giving a result
        of shape (..., len(idx)).
        """
        rows = self._rows if idx is None else np.take(self._rows, idx, axis=0)
        return self._find(self._row_table(h)[..., rows])

    def mul_idx(self, i: int, j: int) -> int:
        prod = _bmm(self.tables, self.elements[i][None], self.elements[j][None])
        return int(self.lookup(prod)[0])

    def element_order(self, i: int) -> int:
        out, m = i, 1
        while out != self.identity_idx:
            out = self.mul_idx(out, i)
            m += 1
        return m

    # -- distinguished subgroups ------------------------------------------

    def _find_subgroups(self) -> None:
        e = self.elements
        n = self.n
        lower = np.ones(self.order, dtype=bool)
        strict_upper_zero = np.ones(self.order, dtype=bool)
        for i in range(n):
            for j in range(n):
                if i > j:
                    lower &= e[:, i, j] == 0
                elif i < j:
                    strict_upper_zero &= e[:, i, j] == 0
        diag_one = np.ones(self.order, dtype=bool)
        for i in range(n):
            diag_one &= e[:, i, i] == 1
        self.borel_indices = np.nonzero(lower)[0]
        self.torus_indices = np.nonzero(lower & strict_upper_zero)[0]
        self.unipotent_indices = np.nonzero(lower & diag_one)[0]
        assert len(self.borel_indices) == len(self.torus_indices) * len(self.unipotent_indices)

    def root_subgroup_element(self, i: int, c: int) -> int:
        """Index of x_{alpha_i}(c) = I + c E_{i,i+1} (simple root subgroups)."""
        mat = np.eye(self.n, dtype=np.uint8)
        mat[i, i + 1] = c
        return int(self.lookup(mat[None])[0])

    def pinning(self) -> list[int]:
        """The standard pinning record: X_alpha = x_alpha(1) per simple root."""
        return [self.root_subgroup_element(i, 1) for i in range(self.n - 1)]

    def diagonal_idx(self, entries) -> int:
        mat = np.zeros((self.n, self.n), dtype=np.uint8)
        for i, c in enumerate(entries):
            mat[i, i] = c
        return int(self.lookup(mat[None])[0])

    def generators(self) -> list[int]:
        """A small verified generating set."""
        gens: list[int] = []
        n, q = self.n, self.q
        basis_codes = [self.field.p**i for i in range(self.field.k)]
        for i in range(n - 1):
            for c in basis_codes:
                gens.append(self.root_subgroup_element(i, c))
                mat = np.eye(n, dtype=np.uint8)
                mat[i + 1, i] = c
                gens.append(int(self.lookup(mat[None])[0]))
        if self.spec.family == "GL" and q > 2:
            g = self.field.generator_code
            gens.append(self.diagonal_idx([g] + [1] * (n - 1)))
        seen = set()
        uniq = [x for x in gens if not (x in seen or seen.add(x))]
        if not uniq:
            uniq = [self.identity_idx]
        self._assert_generates(uniq)
        return uniq

    def _assert_generates(self, gens: list[int]) -> None:
        reached = np.full(self.order, -1, dtype=np.int64)
        _label_orbit([self._left_mul_perm(g) for g in gens], reached, self.identity_idx, 0)
        if (reached < 0).any():
            raise RuntimeError("generating set failed to generate the group")

    def _left_mul_perm(self, g: int) -> np.ndarray:
        """The permutation x -> g x: (g x)^T = x^T g^T, and transposes stay in the group."""
        tp = self.transpose_perm
        return tp[self.right_mul(self.elements[g].T, tp)]

    def conj_perm(self, g: int) -> np.ndarray:
        """The permutation x -> g x g^-1 as an index array."""
        return self.conjugation_perm(self.elements[g])

    def conjugation_perm(self, m: np.ndarray) -> np.ndarray:
        """The permutation x -> m x m^-1 for an invertible code matrix m.

        m need not lie in the group, only normalize it (a GL_n(q) matrix acting
        on SL_n(q)), so m x is formed on row codes, which exist off the group:
        the rows of x^T m^T = (m x)^T are transposed digit-wise into those of m x.
        """
        mx_t = self._row_table(m.T)[self._rows[self.transpose_perm]]
        mx = _horner(np.swapaxes(self._row_vectors[mx_t], 1, 2), self.q)
        m_inv = _binv(self.tables, m[None])[0]
        return self._find(self._row_table(m_inv)[mx])

    # -- conjugacy ---------------------------------------------------------

    def conjugacy(self) -> ConjugacyData:
        if self._conjugacy is None:
            self._conjugacy = self._compute_conjugacy()
        return self._conjugacy

    def _compute_conjugacy(self) -> ConjugacyData:
        gens = self.generators()
        perms = [self.conj_perm(g) for g in gens]
        cls = np.full(self.order, -1, dtype=np.int64)
        reps = []
        for start in range(self.order):
            if cls[start] >= 0:
                continue
            _label_orbit(perms, cls, start, len(reps))
            reps.append(start)
        reps_arr = np.array(reps, dtype=np.int64)
        sizes = np.bincount(cls, minlength=len(reps))
        orders = [self.element_order(int(r)) for r in reps_arr]
        inverse_class = cls[self.inv_perm[reps_arr]]
        exponent = 1
        for o in orders:
            exponent = exponent * o // gcd(exponent, o)
        return ConjugacyData(
            n_classes=len(reps),
            cls=cls,
            reps=reps_arr,
            sizes=sizes,
            orders=orders,
            inverse_class=inverse_class,
            exponent=exponent,
        )

    def __repr__(self) -> str:
        return f"GroupRealization({self.spec}, order={self.order})"


def _label_orbit(perms: list[np.ndarray], labels: np.ndarray, start: int, label: int) -> None:
    """Set labels[x] = label on the orbit of `start` under the permutations,
    breadth first; -1 marks an unlabelled element.  Permutations are
    injective, so each frontier holds distinct elements without a sort."""
    labels[start] = label
    frontier = np.array([start], dtype=np.int64)
    while len(frontier):
        new = []
        for perm in perms:
            img = perm[frontier]
            fresh = img[labels[img] < 0]
            labels[fresh] = label
            new.append(fresh)
        frontier = np.concatenate(new)


def build_group(spec: GroupSpec | str, budget: int = DEFAULT_BUDGET) -> GroupRealization:
    if isinstance(spec, str):
        spec = GroupSpec.parse(spec)
    return GroupRealization(spec, budget)


@lru_cache(maxsize=None)
def cached_group(text: str, budget: int = DEFAULT_BUDGET) -> GroupRealization:
    return build_group(GroupSpec.parse(text), budget)


# ---------------------------------------------------------------------------
# maximal tori
# ---------------------------------------------------------------------------


def _partitions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or first >= rest[0]:
                yield (first,) + rest


def _sl_torus_invariants(parts, q: int) -> list:
    """Invariant factors of the determinant-one subgroup of prod F_{q^d}^x."""
    mods = [q**d - 1 for d in parts]
    # kernel of (x_i) -> sum x_i mod (q-1); present by generators and relations
    r = len(mods)
    # lattice L = {x in Z^r : sum x_i = 0 mod (q-1)} has basis rows:
    basis = []
    for i in range(r - 1):
        row = [0] * r
        row[i], row[i + 1] = 1, -1
        basis.append(row)
    row = [0] * r
    row[r - 1] = q - 1
    basis.append(row)
    # subgroup K = L / (N_i e_i): relations matrix in basis coordinates:
    # solve N_i e_i in terms of the basis; the basis matrix B (rows) is
    # square and unimodular on the sublattice, so use exact solving
    b = IntegerMatrix([list(r_) for r_ in basis]).transpose()  # columns are basis vectors
    rel_cols = []
    for i in range(r):
        target = [mods[i] if j == i else 0 for j in range(r)]
        rel_cols.append(_solve_integer(b, target))
    rel = IntegerMatrix([[col[i] for col in rel_cols] for i in range(r)])
    inv = cokernel_invariants(rel)
    assert 0 not in inv
    return sorted(inv)


def _solve_integer(mat: IntegerMatrix, target) -> list[int]:
    """Solve mat @ x = target exactly over Z (mat square, invertible over Q)."""
    n = mat.nrows
    det = mat.det()
    out = []
    for i in range(n):
        cols = [[target[r] if c == i else mat[r, c] for c in range(n)] for r in range(n)]
        num = IntegerMatrix(cols).det()
        if num % det:
            raise ArithmeticError("no integral solution")
        out.append(num // det)
    return out


def maximal_tori(group: GroupRealization) -> list[TorusClass]:
    """One torus class per cycle type of W = S_n (split groups)."""
    out = []
    n, q = group.n, group.q
    for parts in _partitions(n):
        order_gl = 1
        for d in parts:
            order_gl *= q**d - 1
        if group.spec.family == "GL":
            order = order_gl
            cyclic = tuple(sorted(_gl_torus_invariants(parts, q)))
            f_rank = len(parts)
        else:
            order = order_gl // (q - 1)
            cyclic = tuple(_sl_torus_invariants(parts, q))
            f_rank = len(parts) - 1
        member_idx = None
        if len(parts) == n:  # split torus: subgroup of the diagonal
            member_idx = group.torus_indices
            assert len(member_idx) == order
        total = 1
        for d in cyclic:
            total *= d
        assert total == order
        out.append(
            TorusClass(
                partition=tuple(parts),
                order=order,
                cyclic_orders=cyclic,
                f_rank=f_rank,
                split_member_indices=member_idx,
            )
        )
    return out


def _gl_torus_invariants(parts, q: int) -> list:
    mods = sorted(q**d - 1 for d in parts if q**d - 1 > 1)
    # invariant factors of prod Z/m_i via repeated gcd/lcm folding
    factors: list[int] = []
    for m in mods:
        new = []
        carry = m
        for f in factors:
            g = gcd(f, carry)
            new.append(g)
            carry = f * carry // g if g else 0
        if carry > 1:
            new.append(carry)
        factors = sorted(x for x in new if x > 1)
    return factors


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------


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
        """perm(g x) = perm(g) perm(x) for every generator g and every x.

        By induction on word length in the generators this gives
        perm(w x) = perm(w) perm(x) for all w, x: a proof, not a sample.
        """
        g = self.group
        perm = self.perm
        for gen in g.generators():
            lhs = perm[g._left_mul_perm(gen)]
            rhs = g._left_mul_perm(int(perm[gen]))[perm]
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


def ad_by_index(group: GroupRealization, idx: int) -> GroupAutomorphism:
    return ad_by_matrix(group, group.elements[idx], f"ad[{idx}]")


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


def chevalley_involution(group: GroupRealization) -> GroupAutomorphism:
    """The pinned Chevalley involution: fixes the standard pinning, acts as
    t -> w0(t)^-1 on the diagonal torus, squares to the identity."""
    ti = transpose_inverse(group)
    base = _alternating_antidiagonal(group)
    candidate = ad_by_matrix(group, base, "w0-lift").compose(ti)
    if not _fixes_pinning(group, candidate):
        # correct the lift by a torus element (any two pinning-fixing lifts
        # differ by one); search deterministically over T_0^F
        import itertools as _it

        found = None
        for diag in _it.product(range(1, group.q), repeat=group.n):
            t = np.zeros((group.n, group.n), dtype=np.uint8)
            for i, c in enumerate(diag):
                t[i, i] = c
            m = _bmm(group.tables, t[None], base[None])[0]
            cand = ad_by_matrix(group, m, "w0-lift").compose(ti)
            if _fixes_pinning(group, cand):
                found = cand
                break
        if found is None:
            raise RuntimeError("no pinning-fixing Chevalley lift found")
        candidate = found
    candidate.name = "chevalley"
    if not candidate.is_involution():
        raise RuntimeError("Chevalley involution candidate is not involutive")
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


def duality_involution(group: GroupRealization) -> GroupAutomorphism:
    """iota_{G,P} = ad(t_minus) o chevalley for the standard pinning."""
    c = chevalley_involution(group)
    t_minus = minus_one_torus_matrix(group)
    iota = ad_by_matrix(group, t_minus, "ad(t-)").compose(c)
    iota.name = "duality-involution"
    if not iota.is_involution():
        raise RuntimeError("duality involution is not involutive")
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


def conjugacy_classes(group: GroupRealization) -> ConjugacyData:
    """The complete class partition with power and inverse maps."""
    return group.conjugacy()
