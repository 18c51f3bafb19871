"""Explicit realizations of GL_n(q) and SL_n(q), n <= 3, built from row codes.

Elements are n x n matrices of field codes (see finitefield) held in one
numpy uint8 array; all bulk arithmetic goes through small multiplication
and addition lookup tables, so everything stays exact integer arithmetic.

A row (a_0, ..., a_{n-1}) has the code sum_j a_j q^(n-1-j) in [0, q^n), and a
matrix has the key whose base-q^n digits are its row codes; keys order the
elements.  The group is built from tables over the q^n row codes, never by
expanding the q^(n^2) candidate matrices: with V[c] the field codes of row c,
the dot table D[a, b] = V[a].V[b] and the cofactor table C over n - 1 rows
(the cross product for n = 3, (-a_1, a_0) for n = 2, the constant row (1) for
n = 1) give det(r_1, ..., r_n) = D[C[r_1, ..., r_{n-1}], r_n].  One uint8
gather D[C] is therefore the determinant of every key in key order, and its
kept positions are the group's keys.  Row j of (x^-1)^T is the cofactor row
of the other rows times +-det(x)^-1, read through a scale table, and the row
codes of x^T are sums of n per-position tables, so inverses and transposes
are table gathers over the group's row codes.

A dense int32 map over all q^(n^2) keys gives each element's index (-1 off
the group).  Multiplying many elements by one fixed matrix h is the group's
bulk primitive: the row table T_h[c] = code(row c * h) has q^n entries, so
x h for every x is n gathers into T_h, a key sum and one gather from the
dense map.  Left multiplication goes through transposes (g x = (x^T g^T)^T)
and conjugation composes both; only products of two element arrays still
multiply matrices entry by entry.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd

import numpy as np

from .cyclotomic import prime_factors
from .finitefield import FiniteField, finite_field

DEFAULT_BUDGET = 10**6

_SPEC_RE = re.compile(r"^(GL|SL)([123])\((\d+)\)$")


class BudgetExceeded(Exception):
    def __init__(self, spec: GroupSpec, budget: int):
        super().__init__(
            f"{spec} has order {spec.order}, above the enumeration budget {budget}; "
            f"pass budget >= {spec.order} to build it anyway"
        )
        self.required = spec.order


class InvalidSpec(ValueError):
    """A group spec that names no group (bad syntax, family, rank or q)."""


class UnsupportedSpec(ValueError):
    """A valid spec outside the scope of a check or of the verifier."""


@dataclass(frozen=True)
class GroupSpec:
    family: str  # "GL" or "SL"
    n: int
    q: int

    def __post_init__(self):
        if self.family not in ("GL", "SL"):
            raise InvalidSpec("family must be GL or SL")
        if self.n not in (1, 2, 3):
            raise InvalidSpec("rank must be 1, 2 or 3")
        _prime_power(self.q)  # raises InvalidSpec for any other q

    @staticmethod
    def parse(text: str) -> "GroupSpec":
        m = _SPEC_RE.match(text.strip())
        if not m:
            raise InvalidSpec(f"cannot parse group spec {text!r}; expected like 'GL2(3)'")
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
    """(p, k) with q = p^k; InvalidSpec for any q that is not a prime power."""
    primes = prime_factors(q)
    if len(primes) != 1:
        raise InvalidSpec(f"{q} is not a prime power")
    p, k = primes[0], 1
    while p**k < q:
        k += 1
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


def _digits(values: np.ndarray, base: int, width: int) -> np.ndarray:
    """The inverse of `_horner`: the `width` base-`base` digits of each value,
    most significant first, along a new last axis."""
    return np.stack([values // base ** (width - 1 - j) % base for j in range(width)], axis=-1)


def _dot_table(tab: _Tables, vectors: np.ndarray) -> np.ndarray:
    """D[a, b] = vectors[a] . vectors[b] over the field, as uint8 codes."""
    terms = tab.mul[vectors[:, None, :], vectors[None, :, :]]
    acc = terms[..., 0]
    for k in range(1, vectors.shape[1]):
        acc = tab.add[acc, terms[..., k]]
    return acc


def _cofactor_table(tab: _Tables, vectors: np.ndarray) -> np.ndarray:
    """C[r_1, ..., r_{n-1}] = the row code of the vector c with
    c . y = det(r_1, ..., r_{n-1}, y) for every row y (n - 1 row-code axes)."""
    n = vectors.shape[1]
    if n == 1:
        return np.array(1, dtype=np.int32)  # det(y) = y = (1) . y
    if n == 2:
        cof = np.stack([tab.neg[vectors[:, 1]], vectors[:, 0]], axis=-1)
    else:  # the cross product a x b
        a, b = vectors[:, None, :], vectors[None, :, :]
        cof = np.stack(
            [
                tab.sub(tab.mul[a[..., i], b[..., j]], tab.mul[a[..., j], b[..., i]])
                for i, j in ((1, 2), (2, 0), (0, 1))
            ],
            axis=-1,
        )
    return _horner(cof, tab.q).astype(np.int32)


@dataclass
class ConjugacyData:
    """Complete conjugacy partition of a realized group."""

    n_classes: int
    cls: np.ndarray  # element index -> class index
    reps: np.ndarray  # class index -> element index of the minimal member
    sizes: np.ndarray
    orders: list  # order of each class representative
    power_classes: np.ndarray  # [i, t] = class of reps[i]^t for t < max(orders)
    inverse_class: np.ndarray  # class of g^-1
    exponent: int

    def members(self, i: int) -> np.ndarray:
        """The element indices of class i, ascending."""
        by_class, bounds = self._by_class
        return by_class[bounds[i] : bounds[i + 1]]

    @cached_property
    def _by_class(self) -> tuple[np.ndarray, np.ndarray]:
        """The element indices stably sorted by class, and where each class
        starts: one sort on first use, after the conjugacy phase has freed
        its temporaries, makes each class's members one ascending slice."""
        return np.argsort(self.cls, kind="stable"), np.concatenate(([0], np.cumsum(self.sizes)))


@dataclass
class TorusClass:
    """An F-stable maximal torus type T_w, labelled by a cycle type of W."""

    partition: tuple  # cycle type of w, parts descending
    order: int
    cyclic_orders: tuple  # invariant factors of the abelian model
    f_rank: int  # dimension of the w-fixed space on the cocharacter lattice
    split_member_indices: np.ndarray | None = None  # explicit when T_w <= T_0


class GroupRealization:
    """G^F = GL_n(q) or SL_n(q), every element explicit.

    The elements are found from the row-code tables of the module docstring
    (the determinant of every key at once), not by testing candidate
    matrices; `elements`, `_rows` and the index map are in key order.
    """

    def __init__(self, spec: GroupSpec):
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
        # memos filled by chartable: the character table and its packed context
        self._table = None
        self._packed_ctx = None

    # -- enumeration -----------------------------------------------------

    def _enumerate(self) -> None:
        n, q, tab = self.n, self.q, self.tables
        size = q**n  # number of row codes
        vectors = _digits(np.arange(size), q, n).astype(np.uint8)
        self._row_vectors = vectors  # row code -> field codes
        self._dot = _dot_table(tab, vectors)
        self._cofactor = _cofactor_table(tab, vectors)
        # _scale[s, c] = code of s * row c
        self._scale = _horner(tab.mul[np.arange(q)[:, None, None], vectors], q).astype(np.int32)
        # _spread[j, c] = the field codes of row c times q^(n-1-j): summed over
        # the rows j of x they are the row codes of x^T
        weights = q ** np.arange(n - 1, -1, -1, dtype=np.int32)
        self._spread = vectors.astype(np.int32)[None] * weights[:, None, None]
        det = self._dot[self._cofactor].ravel()  # det of every key, in key order
        keys = np.flatnonzero(det != 0 if self.spec.family == "GL" else det == 1)
        self.order = len(keys)
        if self.order != self.spec.order:
            raise RuntimeError(f"{self.spec}: found {self.order} elements, expected {self.spec.order}")
        self._index = np.full(det.size, -1, dtype=np.int32)
        self._index[keys] = np.arange(self.order, dtype=np.int32)
        self._rows = _digits(keys, size, n).astype(np.int32)  # row codes of every element
        self.elements = vectors.take(self._rows, axis=0)
        ident = np.eye(n, dtype=np.uint8)
        self.identity_idx = int(self.lookup(ident[None])[0])
        self._rows_t = self._transposed_rows(self._rows)  # row codes of every x^T
        self.transpose_perm = self._find(self._rows_t)
        self.inv_perm = self.transpose_perm[self._find(self._inverse_transposed_rows(self._rows))]

    def _det(self, rows: np.ndarray) -> np.ndarray:
        """Field codes of det x for the matrices x with these row codes (shape (..., n))."""
        n = self.n
        return self._dot[self._cofactor[tuple(rows[..., j] for j in range(n - 1))], rows[..., n - 1]]

    def _transposed_rows(self, rows: np.ndarray) -> np.ndarray:
        """Row codes of x^T for the matrices x with these row codes."""
        out = self._spread[0].take(rows[..., 0], axis=0)
        for j in range(1, self.n):
            out += self._spread[j].take(rows[..., j], axis=0)
        return out

    def _inverse_transposed_rows(self, rows: np.ndarray) -> np.ndarray:
        """Row codes of (x^-1)^T for the invertible matrices x with these row
        codes: row j is the cofactor row of the other rows, which
        (-1)^(n-1-j) det(x)^-1 scales."""
        tab, n = self.tables, self.n
        det_inv = tab.inv[self._det(rows)]
        out = np.empty(rows.shape, dtype=np.int32)
        for j in range(n):
            cof = self._cofactor[tuple(rows[..., i] for i in range(n) if i != j)]
            scale = det_inv if (n - 1 - j) % 2 == 0 else tab.neg[det_inv]
            out[..., j] = self._scale[scale, cof]
        return out

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
        prod = _bmm(self.tables, vectors, h[..., None, :, :])[..., 0, :]
        return _horner(prod, self.q).astype(np.int32)

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
        if len(self.borel_indices) != len(self.torus_indices) * len(self.unipotent_indices):
            raise RuntimeError(f"{self.spec}: the Borel subgroup is not T U")

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
        return self._generating_set()[0]

    def _generating_set(self) -> tuple[list[int], list[np.ndarray]]:
        """The generators and their left-multiplication permutations L_g,
        which prove that they generate: the orbits of the L_g are the cosets
        H x of the subgroup H they generate, so one orbit means H = G."""
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
        lefts = [self._left_mul_perm(g) for g in uniq]
        if (_orbit_minima(lefts, self.order) != 0).any():
            raise RuntimeError("generating set failed to generate the group")
        return uniq, lefts

    def _left_mul_perm(self, g: int) -> np.ndarray:
        """The permutation x -> g x: (g x)^T = x^T g^T, and transposes stay in the group."""
        return self.transpose_perm[self._find(self._row_table(self.elements[g].T)[self._rows_t])]

    def conjugation_perm(self, m: np.ndarray) -> np.ndarray:
        """The permutation x -> m x m^-1 for an invertible code matrix m.

        m need not lie in the group, only normalize it (a GL_n(q) matrix acting
        on SL_n(q)), so m x is formed on row codes, which exist off the group:
        the rows of x^T m^T = (m x)^T are transposed into those of m x through
        the per-position tables, and m^-1 comes from the cofactor table.
        """
        mx_t = self._row_table(m.T)[self._rows_t]
        m_inv = self._row_vectors[self._inverse_transposed_rows(_horner(m, self.q))].T
        return self._find(self._row_table(m_inv)[self._transposed_rows(mx_t)])

    # -- conjugacy ---------------------------------------------------------

    def conjugacy(self) -> ConjugacyData:
        if self._conjugacy is None:
            self._conjugacy = self._compute_conjugacy()
        return self._conjugacy

    def _compute_conjugacy(self) -> ConjugacyData:
        """Classes are the orbits of conjugation by the generators.

        Conjugation by g is L_g after right multiplication by g^-1: each
        left-multiplication permutation L_g that proved generation becomes
        x -> g x g^-1 through one row-table product, replacing L_g in its
        list, and the list is dropped once the orbits are known.

        The orbits come from min-label propagation (`_orbit_minima`): with
        labels = arange, set labels = min(labels, labels[pi]) for every
        conjugation pi and jump labels = labels[labels] until nothing
        changes.  Each step keeps labels[x] <= x and inside the class of x.
        At the fixed point labels[x] <= labels[pi(x)] for every pi, and going
        once round a cycle of pi returns to x, so labels are constant on
        each class; its least member m has labels[m] <= m, so the label is
        m.  The representatives are these least members, and a class's index
        is the rank of its representative, so classes are ordered by their
        least elements.
        """
        gens, perms = self._generating_set()
        for t, g in enumerate(gens):
            perms[t] = perms[t][self.right_mul(self.elements[self.inv_perm[g]])]
        minima = _orbit_minima(perms, self.order)
        del perms
        is_rep = minima == np.arange(self.order)
        reps = np.flatnonzero(is_rep)
        cls = (np.cumsum(is_rep) - 1)[minima]
        sizes = np.bincount(cls, minlength=len(reps))
        orders, power_classes = self._powers(reps, cls)
        inverse_class = cls[self.inv_perm[reps]]
        exponent = 1
        for o in orders:
            exponent = exponent * o // gcd(exponent, o)
        return ConjugacyData(
            n_classes=len(reps),
            cls=cls,
            reps=reps,
            sizes=sizes,
            orders=orders,
            power_classes=power_classes,
            inverse_class=inverse_class,
            exponent=exponent,
        )

    def _powers(self, reps: np.ndarray, cls: np.ndarray) -> tuple[list, np.ndarray]:
        """The order of each element at `reps` and the classes of its powers,
        [i, t] = cls(reps[i]^t) for t < max order: one batched power loop."""
        base = self.elements[reps]
        orders = np.zeros(len(reps), dtype=np.int64)
        columns = [np.full(len(reps), cls[self.identity_idx])]
        power, t = base, 1
        while not orders.all():
            idx = self.lookup(power)
            orders[(orders == 0) & (idx == self.identity_idx)] = t
            columns.append(cls[idx])
            power, t = _bmm(self.tables, power, base), t + 1
        return orders.tolist(), np.stack(columns[:-1], axis=1)

    def __repr__(self) -> str:
        return f"GroupRealization({self.spec}, order={self.order})"


def _orbit_minima(perms: list[np.ndarray], size: int) -> np.ndarray:
    """labels[x] = the least point of the orbit of x under the permutations,
    by min-label propagation with pointer jumping (the argument is in
    `GroupRealization._compute_conjugacy`).  Labels only decrease, so an
    unchanged sum (below size^2, no overflow) means an unchanged array."""
    labels = np.arange(size)
    settled = labels.sum()
    while True:
        for perm in perms:
            np.minimum(labels, labels[perm], out=labels)
        moved = labels.sum()
        while True:
            labels = labels[labels]
            jumped = labels.sum()
            if jumped == moved:
                break
            moved = jumped
        if moved == settled:
            return labels
        settled = moved


def cached_group(spec: GroupSpec | str, budget: int = DEFAULT_BUDGET) -> GroupRealization:
    """The one realization of `spec` in this process.

    The budget gates the build and is not part of the key: a spec whose order
    exceeds it raises BudgetExceeded before anything is enumerated, and every
    budget that admits the spec returns the same object.
    """
    if isinstance(spec, str):
        spec = GroupSpec.parse(spec)
    if spec.order > budget:
        raise BudgetExceeded(spec, budget)
    return _realization(spec)


@lru_cache(maxsize=None)
def _realization(spec: GroupSpec) -> GroupRealization:
    """The ungated memo behind `cached_group`, for groups that fit inside one
    already admitted (the centralizers GL_m(q^d) of a GL_n(q))."""
    return GroupRealization(spec)


# ---------------------------------------------------------------------------
# maximal tori
# ---------------------------------------------------------------------------


def partitions_of(n: int):
    """The partitions of n, parts descending, in reverse lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in partitions_of(n - first):
            if not rest or first >= rest[0]:
                yield (first,) + rest


def _sl_torus_invariants(parts, q: int) -> list:
    """Invariant factors of the determinant-one subgroup of prod F_{q^d}^x.

    With N_i = q^(d_i) - 1 it is L / (N_i e_i) for the lattice
    L = {x in Z^r : sum x_i = 0 mod (q-1)}.  L has the basis e_k - e_(k+1)
    (k < r-1), (q-1) e_(r-1), in which N_i e_i has coordinate N_i at each
    k = i, ..., r-2 and N_i / (q-1) last: column i of the relation matrix.
    """
    from .intlinalg import IntegerMatrix, cokernel_invariants

    mods = [q**d - 1 for d in parts]
    r = len(mods)
    rel = [[mods[i] if i <= k else 0 for i in range(r)] for k in range(r - 1)]
    rel.append([m // (q - 1) for m in mods])
    inv = cokernel_invariants(IntegerMatrix(rel))
    if 0 in inv:
        raise RuntimeError("the determinant-one torus came out infinite")
    return sorted(inv)


def maximal_tori(group: GroupRealization) -> list[TorusClass]:
    """One torus class per cycle type of W = S_n (split groups)."""
    out = []
    n, q = group.n, group.q
    for parts in partitions_of(n):
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
            if len(member_idx) != order:
                raise RuntimeError(f"{group.spec}: split torus has {len(member_idx)} elements, expected {order}")
        total = 1
        for d in cyclic:
            total *= d
        if total != order:
            raise RuntimeError(f"torus {parts}: invariant factors {cyclic} do not multiply to {order}")
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

