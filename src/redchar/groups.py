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
n = 1) give det(r_1, ..., r_n) = D[C[r_1, ..., r_{n-1}], r_n].

The first n - 1 rows of a matrix are its prefix p, coded in base q^n.  The
prefix is independent exactly when its cofactor row c = C[p] is nonzero, and
then its completions, the last rows y with D[c, y] != 0 on GL (q^n - q^(n-1)
of them) or D[c, y] = 1 on SL (q^(n-1)), are as many for every c.  So the
elements are the independent prefixes in order, each followed by the
completions of its cofactor row in order: the row codes of the whole group
are written in key order, _CHUNK elements at a time, from one completion
table with q^n rows.  An element's index is _start[p] + _rank[c q^n + y],
with _start[p] the index of the prefix's first element and _rank the rank
of y among the completions of c (-|G| off them, so the sum is negative off
the group).  These tables have q^(n(n-1)) and q^(2n) entries, and nothing
has q^(n^2).  The n x n matrices of the elements are made from their row
codes when read (`matrices`), only for the few elements asked for.

Multiplying many elements by one fixed matrix h is the group's bulk
primitive: the row table T_h[c] = code(row c * h) has q^n entries, and entry
k of row c * h is D[c, code of column k of h], so T_h is one gather into D
and x h for every x is n gathers into T_h and one index lookup.  Row i of
m y is sum_j m_ij (row j of y), read through a scale table and a row-sum
table, so conjugation x -> m x m^-1 is T_{m^-1} and then row operations for
m; the classes are its orbits, certified by their sizes.  Products of two
element arrays read D as well: entry (i, k) of x y is D[row i of x, column k
of y], so `products` takes the column codes of the right factors and n^2
lookups into D per product.  Every whole-group map runs _CHUNK elements (or
pairs) at a time into int32 indices, so its temporaries do not grow with
|G|.  Row codes are held in np.min_scalar_type(q^n - 1) and class labels in
np.min_scalar_type(r - 1), one byte each up to q^n = 256 and r = 256, and
positions computed from codes are formed in int32, where they cannot wrap.

Row j of (x^-1)^T is the cofactor row of the other rows times +-det(x)^-1,
so inverses are found for the elements asked for (generators, class
representatives).  The transpose map and the whole inverse map are built on
first read: the character table reads the inverse of a class from its
representative, and {x^-1 : x in C} is the inverse class itself, so a
`table` job builds neither.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, lcm

import numpy as np

from .cyclotomic import prime_factors
from .finitefield import FiniteField, finite_field

DEFAULT_BUDGET = 10**6
_CHUNK = 1 << 16  # elements per chunk of a whole-group map (`GroupRealization._images`, `products`)

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

    @property
    def scalars(self) -> int:
        """m, the number of scalar matrices in the group."""
        return self.q - 1 if self.family == "GL" else gcd(self.n, self.q - 1)

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


def _horner(digits: np.ndarray, base: int, dtype=np.int64) -> np.ndarray:
    """The integers whose base-`base` digits, most significant first, run
    along the last axis: row codes from field codes, prefix codes from row
    codes.  The sum is formed in int32 or wider, where no step wraps, and
    stored in `dtype`, which may be the one-byte type of row codes.  No
    digits (the empty prefix of n = 1) give zeros."""
    if digits.shape[-1] == 0:
        return np.zeros(digits.shape[:-1], dtype=dtype)
    out = digits[..., 0].astype(np.promote_types(dtype, np.int32))
    for j in range(1, digits.shape[-1]):
        out *= base
        out += digits[..., j]
    return out.astype(dtype, copy=False)


def _digits(values: np.ndarray, base: int, width: int) -> np.ndarray:
    """The inverse of `_horner`: the `width` base-`base` digits of each value,
    most significant first, along a new last axis (empty for width 0)."""
    return values[..., None] // base ** np.arange(width - 1, -1, -1) % base


def _dot_table(tab: _Tables, vectors: np.ndarray) -> np.ndarray:
    """D[a, b] = vectors[a] . vectors[b] over the field, as uint8 codes."""
    terms = tab.mul[vectors[:, None, :], vectors[None, :, :]]
    acc = terms[..., 0]
    for k in range(1, vectors.shape[1]):
        acc = tab.add[acc, terms[..., k]]
    return acc


def _cofactor_table(tab: _Tables, vectors: np.ndarray, dtype) -> np.ndarray:
    """C[r_1, ..., r_{n-1}] = the row code of the vector c with
    c . y = det(r_1, ..., r_{n-1}, y) for every row y (n - 1 row-code axes)."""
    n = vectors.shape[1]
    if n == 1:
        return np.array(1, dtype=dtype)  # det(y) = y = (1) . y
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
    return _horner(cof, tab.q, dtype)


@dataclass
class ConjugacyData:
    """Complete conjugacy partition of a realized group."""

    n_classes: int
    cls: np.ndarray  # element index -> class index, in np.min_scalar_type(n_classes - 1)
    reps: np.ndarray  # class index -> element index of the minimal member
    sizes: np.ndarray
    orders: list  # order of each class representative
    power_classes: np.ndarray  # [i, t] = class of reps[i]^t for t < max(orders)
    inverse_class: np.ndarray  # class of g^-1
    exponent: int

    def members(self, i: int) -> np.ndarray:
        """The element indices (int32) of class i, ascending.

        They are one slice of a stable sort of the element indices by class,
        made on first use.  The keys are `cls` itself, whose unsigned type
        (uint8 up to 256 classes) numpy's stable sort orders by a radix sort:
        a few passes over the group instead of a comparison sort.
        """
        by_class, bounds = self._by_class
        return by_class[bounds[i] : bounds[i + 1]]

    @cached_property
    def _by_class(self) -> tuple[np.ndarray, np.ndarray]:
        """The element indices stably sorted by class, kept as int32, and
        where each class starts; sorted after the conjugacy phase has freed
        its temporaries."""
        order = np.argsort(self.cls, kind="stable").astype(np.int32)
        return order, np.concatenate(([0], np.cumsum(self.sizes)))


def _orbit_minima(perms: list[np.ndarray], size: int) -> np.ndarray:
    """labels[x] = the least point of the orbit of x under the permutations,
    by min-label propagation with pointer jumping (the argument is in
    `GroupRealization._compute_conjugacy`).  Labels only decrease, so an
    unchanged sum (below size^2, summed in int64) means an unchanged array.

    The int32 labels are lowered in place, _CHUNK points at a time: a later
    chunk reads labels that earlier ones lowered, which keeps every step of
    the argument.  As labels[y] <= y, the jump labels[labels] is a lowering."""
    labels = np.arange(size, dtype=np.int32)
    buf = np.empty(min(size, _CHUNK), dtype=np.int32)
    settled = labels.sum(dtype=np.int64)
    while True:
        for perm in perms:
            _lower(labels, perm, buf)
        moved = labels.sum(dtype=np.int64)
        while True:
            _lower(labels, labels, buf)
            jumped = labels.sum(dtype=np.int64)
            if jumped == moved:
                break
            moved = jumped
        if moved == settled:
            return labels
        settled = moved


def _lower(labels: np.ndarray, idx: np.ndarray, buf: np.ndarray) -> None:
    """labels = min(labels, labels[idx]) in place, len(buf) points at a time."""
    for start in range(0, len(labels), len(buf)):
        part, low = buf[: len(labels) - start], labels[start : start + len(buf)]
        np.take(labels, idx[start : start + len(buf)], out=part, mode="clip")  # "raise" buffers `out`
        np.minimum(low, part, out=low)


class GroupRealization:
    """G^F = GL_n(q) or SL_n(q), every element explicit.

    The elements are written prefix by prefix from the completion table of
    the module docstring, not found by testing candidate matrices; `_rows`
    is in key order, and `_find` maps row codes to indices through the
    prefix and rank tables.
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
        self._conjugacy: ConjugacyData | None = None
        # memos filled by chartable: the character table and its packed context
        self._table = None
        self._packed_ctx = None

    # -- enumeration -----------------------------------------------------

    def _enumerate(self) -> None:
        n, q, tab = self.n, self.q, self.tables
        size = q**n  # number of row codes
        self._codes = codes = np.min_scalar_type(size - 1)  # the dtype of every row code
        vectors = _digits(np.arange(size), q, n).astype(np.uint8)
        self._row_vectors = vectors  # row code -> field codes
        self._dot = _dot_table(tab, vectors)
        self._cofactor = _cofactor_table(tab, vectors, codes)
        # _scale[s, c] = code of s * row c
        self._scale = _horner(tab.mul[np.arange(q)[:, None, None], vectors], q, codes)
        # c q^n + y for the cofactor rows c and last rows y with det = D[c, y]
        # in the group, ascending; the zero row c = 0 has none
        completed = np.flatnonzero(self._dot != 0 if self.spec.family == "GL" else self._dot == 1)
        width = q**n - q ** (n - 1) if self.spec.family == "GL" else q ** (n - 1)
        if (np.bincount(completed // size, minlength=size) != [0] + [width] * (size - 1)).any():
            raise RuntimeError(f"{self.spec}: a cofactor row has other than {width} completions")
        completions = np.zeros((size, width), dtype=codes)  # ascending; row 0 unused
        completions[1:] = (completed % size).reshape(size - 1, width)
        prefix_cofactor = self._cofactor.reshape(-1)  # C[p] for every prefix code p
        independent = np.flatnonzero(prefix_cofactor)
        self.order = len(independent) * width
        if self.order != self.spec.order:
            raise RuntimeError(f"{self.spec}: found {self.order} elements, expected {self.spec.order}")
        self._start = np.zeros(len(prefix_cofactor), dtype=np.int32)
        self._start[independent] = np.arange(0, self.order, width, dtype=np.int32)
        self._cofactor_base = prefix_cofactor.astype(np.int32) * size  # where C[p]'s ranks start in _rank
        self._rank = np.full(size * size, -self.order, dtype=np.int32)  # start + rank < 0 off the group
        self._rank[completed] = np.arange(len(completed), dtype=np.int32) % width
        prefix_rows = _digits(independent, size, n - 1).astype(codes)  # of each independent prefix
        cofactors = prefix_cofactor.take(independent)
        self._rows = np.empty((self.order, n), dtype=codes)  # row codes of every element
        for start in range(0, self.order, _CHUNK):  # no whole-group temporaries
            rows = self._rows[start : start + _CHUNK]
            which, k = np.divmod(np.arange(start, start + len(rows), dtype=np.int32), width)
            rows[:, : n - 1] = prefix_rows.take(which, axis=0)
            rows[:, n - 1] = completions[cofactors.take(which), k]
        ident = np.eye(n, dtype=np.uint8)
        self.identity_idx = int(self.lookup(ident[None])[0])

    def matrices(self, idx) -> np.ndarray:
        """The code matrices of the elements at `idx` (an index or an index
        array), shape idx.shape + (n, n), from their row codes."""
        return self._row_vectors.take(self._rows[idx], axis=0)

    @cached_property
    def transpose_perm(self) -> np.ndarray:
        """The permutation x -> x^T, built on first use (automorphisms and tests)."""
        return self._images(self._transposed_rows)

    @cached_property
    def inv_perm(self) -> np.ndarray:
        """The permutation x -> x^-1, built on first use: the table reads
        inverse classes, and only automorphisms and tests read this map."""
        return self.inverses()

    def inverses(self, idx: np.ndarray | None = None) -> np.ndarray:
        """Indices of x^-1 for the elements x at `idx` (default: all): the
        row codes of (x^-1)^T from the cofactor table, transposed back."""
        return self._images(lambda rows: self._transposed_rows(self._inverse_transposed_rows(rows)), idx)

    def _det(self, rows: np.ndarray) -> np.ndarray:
        """Field codes of det x for the matrices x with these row codes (shape (..., n))."""
        n = self.n
        return self._dot[self._cofactor[tuple(rows[..., j] for j in range(n - 1))], rows[..., n - 1]]

    def _transposed_rows(self, rows: np.ndarray) -> np.ndarray:
        """Row codes of x^T for the matrices x with these row codes."""
        return _horner(self._row_vectors[rows].swapaxes(-1, -2), self.q, self._codes)

    def _inverse_transposed_rows(self, rows: np.ndarray) -> np.ndarray:
        """Row codes of (x^-1)^T for the invertible matrices x with these row
        codes: row j is the cofactor row of the other rows, which
        (-1)^(n-1-j) det(x)^-1 scales."""
        tab, n = self.tables, self.n
        det_inv = tab.inv[self._det(rows)]
        out = np.empty(rows.shape, dtype=self._codes)
        for j in range(n):
            cof = self._cofactor[tuple(rows[..., i] for i in range(n) if i != j)]
            scale = det_inv if (n - 1 - j) % 2 == 0 else tab.neg[det_inv]
            out[..., j] = self._scale[scale, cof]
        return out

    @cached_property
    def _row_sum(self) -> np.ndarray:
        """S[a q^n + b] = code of row a + row b, built on first use; its
        q^(2n) entries take int32 positions, like the rank table."""
        vectors = self._row_vectors
        return _horner(self.tables.add[vectors[:, None, :], vectors[None, :, :]], self.q, self._codes).ravel()

    def _left_rows(self, m: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Row codes of m y for a code matrix m and the matrices y with these
        row codes: row i of m y is sum_j m_ij (row j of y), one scale and one
        row-sum gather per nonzero m_ij, so no transpose is formed.  The
        position a q^n + b is formed in int32: in the code dtype it wraps."""
        out = np.empty(rows.shape, dtype=self._codes)
        size = self.q**self.n
        for i in range(self.n):
            acc = None
            for j, c in enumerate(m[i].tolist()):
                if c == 0:
                    continue
                term = rows[..., j] if c == 1 else self._scale[c].take(rows[..., j])
                acc = term if acc is None else self._row_sum.take(acc.astype(np.int32) * size + term)
            out[..., i] = acc
        return out

    def _find(self, rows: np.ndarray) -> np.ndarray:
        """Indices (int32) of the matrices with these row codes (shape (..., n))."""
        idx = self._locate(rows)
        if (idx < 0).any():
            raise KeyError("matrix not in the group")
        return idx

    def _locate(self, rows: np.ndarray) -> np.ndarray:
        """_start[p] + _rank[C[p] q^n + y] for the prefixes p and last rows y
        of these row codes: the index of each matrix, negative off the group.
        The prefix and the position are int32, whatever the code dtype."""
        prefix = _horner(rows[..., :-1], self.q**self.n, np.int32)
        at = self._cofactor_base.take(prefix)
        at += rows[..., -1]
        idx = self._rank.take(at)
        idx += self._start.take(prefix)
        return idx

    def _images(self, image_rows, idx: np.ndarray | None = None) -> np.ndarray:
        """Indices (int32, shape (..., len(idx))) of the matrices whose row
        codes `image_rows` gives from those of the elements at `idx` (default:
        all), _CHUNK elements at a time."""
        rows = self._rows if idx is None else np.take(self._rows, idx, axis=0)
        starts = range(0, max(len(rows), 1), _CHUNK)  # one chunk when empty
        parts = [self._find(image_rows(rows[start : start + _CHUNK])) for start in starts]
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)

    def lookup(self, mats: np.ndarray) -> np.ndarray:
        """Indices of the given code matrices (shape (..., n, n)) in the group."""
        return self._find(_horner(mats, self.q, np.int32))

    def _row_table(self, h: np.ndarray) -> np.ndarray:
        """T[..., c] = code of (row c) h for every row code c, for code
        matrices h of shape (..., n, n), in the group or not: entry k of
        (row c) h is D[c, code of column k of h], one dot-table gather."""
        columns = _horner(np.swapaxes(h, -1, -2), self.q, np.int32)
        return _horner(np.moveaxis(self._dot.take(columns, axis=1), 0, -2), self.q, self._codes)

    def products(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Indices (int32) of x y for the elements x at `a` and y at `b`,
        index arrays of equal length, _CHUNK pairs at a time: entry (i, k)
        of x y is D[row i of x, column k of y], so each product is n^2
        dot-table lookups on the row codes of x and the column codes of y."""
        parts = []
        for start in range(0, max(len(a), 1), _CHUNK):  # one chunk when empty
            rows = self._rows.take(a[start : start + _CHUNK], axis=0)
            columns = self._transposed_rows(self._rows.take(b[start : start + _CHUNK], axis=0))
            parts.append(self.lookup(self._dot[rows[:, :, None], columns[:, None, :]]))
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def right_mul(self, h: np.ndarray, idx: np.ndarray | None = None) -> np.ndarray:
        """Indices of x h for the elements x at `idx` (default: all).

        h is one code matrix, or a stack of shape (..., n, n) giving a result
        of shape (..., len(idx)).
        """
        table = self._row_table(h)
        return self._images(lambda rows: table.take(rows, axis=-1), idx)

    # -- distinguished subgroups ------------------------------------------

    @cached_property
    def _subgroups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The standard Borel B (upper triangular), its diagonal torus T and
        unipotent radical U, found from the row codes on first read with the
        check B = T U.  Row i has code sum_j x_ij q^(n-1-j), so with
        s = q^(n-1-i) it is zero left of the diagonal iff the code is below
        q s, zero right of it iff s divides the code, and then its diagonal
        entry is the code // s."""
        borel, diagonal, unitriangular = np.ones((3, self.order), dtype=bool)
        for i in range(self.n):
            row, s = self._rows[:, i], self.q ** (self.n - 1 - i)
            borel &= row < self.q * s
            diagonal &= row % s == 0
            unitriangular &= row // s == 1
        borel = np.flatnonzero(borel)
        torus = borel[diagonal[borel]]
        unipotent = borel[unitriangular[borel]]
        if len(borel) != len(torus) * len(unipotent):
            raise RuntimeError(f"{self.spec}: the Borel subgroup is not T U")
        return borel, torus, unipotent

    @property
    def torus_indices(self) -> np.ndarray:
        return self._subgroups[1]

    @property
    def unipotent_indices(self) -> np.ndarray:
        return self._subgroups[2]

    def root_subgroup_element(self, i: int, c: int) -> int:
        """Index of x_{alpha_i}(c) = I + c E_{i,i+1} (simple root subgroups)."""
        mat = np.eye(self.n, dtype=np.uint8)
        mat[i, i + 1] = c
        return int(self.lookup(mat[None])[0])

    def pinning(self) -> list[int]:
        """The standard pinning record: X_alpha = x_alpha(1) per simple root."""
        return [self.root_subgroup_element(i, 1) for i in range(self.n - 1)]

    def generators(self) -> list[int]:
        """A small generating set, proven by the class sizes (`conjugacy`)."""
        self.conjugacy()
        return list(self._generators)

    @cached_property
    def _generators(self) -> tuple[int, ...]:
        """S: x_{+-alpha_i}(c), c in an F_p-basis of F_q, and diag(nu, 1, ...) on
        GL; then z I, z = nu^((q-1)/m), if m = `GroupSpec.scalars` > 1 (in G, as
        `lookup` finds it)."""
        n, fld, m = self.n, self.field, self.spec.scalars
        entries = [(pos, fld.p**k) for i in range(n - 1) for k in range(fld.k)
                   for pos in ((i, i + 1), (i + 1, i))]
        if self.spec.family == "GL" and self.q > 2:
            entries.append(((0, 0), fld.generator_code))
        # with no entries (GL1(2), SL1(q)) the identity alone generates
        mats = np.repeat(np.eye(n, dtype=np.uint8)[None], max(len(entries), 1) + (m > 1), axis=0)
        for mat, (pos, c) in zip(mats, entries):
            mat[pos] = c
        if m > 1:
            np.fill_diagonal(mats[-1], fld.pow_code(fld.generator_code, (self.q - 1) // m))
        return tuple(self.lookup(mats).tolist())

    def conjugation_perm(self, m: np.ndarray) -> np.ndarray:
        """The permutation x -> m x m^-1 for an invertible code matrix m.

        m need not lie in the group, only normalize it (a GL_n(q) matrix acting
        on SL_n(q)), so the steps are taken on row codes, which exist off the
        group: x m^-1 through the row table of m^-1 (which comes from the
        cofactor table), then m (x m^-1) by row operations.
        """
        m_inv = self._row_vectors[self._inverse_transposed_rows(_horner(m, self.q))].T
        table = self._row_table(m_inv)
        return self._images(lambda rows: self._left_rows(m, table.take(rows)))

    # -- conjugacy ---------------------------------------------------------

    def conjugacy(self) -> ConjugacyData:
        if self._conjugacy is None:
            self._conjugacy = self._compute_conjugacy()
        return self._conjugacy

    def _compute_conjugacy(self) -> ConjugacyData:
        """Classes are the orbits of conjugation by S (`_generators`).

        Conjugation by g in S is `conjugation_perm`: the row table of g^-1,
        then row operations for g, on the row codes of each chunk of
        elements (z I is central).  The int32 permutations are dropped once
        the orbits are known.

        The orbits come from min-label propagation (`_orbit_minima`): with
        labels = arange, set labels = min(labels, labels[pi]) for every
        conjugation pi and jump labels = labels[labels] until nothing
        changes.  Each step keeps labels[x] <= x and inside the class of x.
        At the fixed point labels[x] <= labels[pi(x)] for every pi, and going
        once round a cycle of pi returns to x, so labels are constant on
        each class; its least member y has labels[y] <= y, so the label is
        y.  The representatives are these least members, and a class's index
        is the rank of its representative, so classes are ordered by their
        least elements.

        With Z' = <z I> (m scalars), each orbit size divides |<S>Z(G)/Z(G)|
        <= |G/Z(G)| <= |G/Z'| = |G|/m, so lcm(sizes) = |G|/m, else a
        RuntimeError, proves <S>Z(G) = G and Z(G) = Z': the orbits are the
        classes and S, z I generate G.  On GL_n(q) and SL_n(q) it holds, as
        regular unipotent centralizers have order m q^(n-1) and Singer-cycle
        ones order prime to p.
        """
        gens, m = self._generators, self.spec.scalars
        perms = [self.conjugation_perm(self.matrices(g)) for g in gens[: len(gens) - (m > 1)]]
        minima = _orbit_minima(perms, self.order)
        del perms
        is_rep = minima == np.arange(self.order, dtype=np.int32)
        reps = np.flatnonzero(is_rep)
        rank = np.cumsum(is_rep, dtype=np.int32)
        rank -= 1
        cls = rank.take(minima).astype(np.min_scalar_type(len(reps) - 1))
        del minima, rank
        sizes = np.bincount(cls, minlength=len(reps))
        if lcm(*sizes.tolist()) != self.order // m:
            raise RuntimeError(f"{self.spec}: the class sizes do not certify the classes")
        orders, power_classes = self._powers(reps, cls)
        inverse_class = cls[self.inverses(reps)].astype(np.int64)
        return ConjugacyData(
            n_classes=len(reps),
            cls=cls,
            reps=reps,
            sizes=sizes,
            orders=orders,
            power_classes=power_classes,
            inverse_class=inverse_class,
            exponent=lcm(*orders),
        )

    def _powers(self, reps: np.ndarray, cls: np.ndarray) -> tuple[list, np.ndarray]:
        """The order of each element at `reps` and the classes of its powers,
        [i, t] = cls(reps[i]^t) for t < max order, as int64: one batched
        power loop on indices."""
        orders = np.zeros(len(reps), dtype=np.int64)
        columns = [np.full(len(reps), cls[self.identity_idx])]
        power, t = reps, 1
        while not orders.all():
            orders[(orders == 0) & (power == self.identity_idx)] = t
            columns.append(cls[power])
            power, t = self.products(power, reps), t + 1
        return orders.tolist(), np.stack(columns[:-1], axis=1).astype(np.int64)

    def __repr__(self) -> str:
        return f"GroupRealization({self.spec}, order={self.order})"


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
