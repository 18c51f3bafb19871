"""Exact character tables via the class-matrix method over F_ell.

The table algorithm splits common eigenspaces of class matrices modulo a
prime ell = 1 (mod e) with ell > 2|G| (e the group exponent), then lifts
eigenvalue data to exact cyclotomic numbers.  For a class of order m the
values chi(g^t), t < m, give the multiplicity c_j of zeta_m^j among the
eigenvalues of rho(g) by the discrete Fourier sum
c_j = (1/m) sum_t chi(g^t) zeta_m^(-jt); the lift evaluates it for every row
at once as one m x m Vandermonde matmul mod ell per class.  Multiplicities
lie in [0, deg chi] and ell > 2|G| > 2 deg chi, so each residue names one
integer, and the lifted values are exact.

The split keeps each common eigenspace in echelon form: a column basis V
and pivot rows P with V[P] = I.  A class matrix M maps the space to itself,
M V = V A, and reading that on the rows P gives A = M[P] V with no solve.
A is diagonalizable (ell prime to |G|, ell = 1 mod e); a scalar A keeps the
space whole.  Else central characters, 1 at the identity class, span the
space, so V's identity row y meets each eigenspace: the first dependency
of y, y A, y A^2, ... is A's minimal polynomial.  A root's piece is V K,
K = ker(A - root I), with pivot rows P at free(K).

So a class matrix M_i is read only on the pivot rows P of the spaces still
to split, and only those rows are computed.  Counting the triples x y = z
in C_i x C_j x C_k by z and by y gives s_k M_i[j, k] = s_j M_i'[k, j], C_i'
the class of the inverses of C_i: row j of M_i is column j of M_i' scaled
by s_j / s_k, and a column costs |C_i| row-table products, so M_i[P] costs
|C_i| |P| products instead of |C_i| r (Schneider 1990).

A class function holds one integer block per class order m, of shape
(classes of order m) x phi(m): row k holds the value at class k over the
power basis of Z[zeta_m], and one denominator serves every block.  A
virtual character's value at g is a sum of eigenvalues of g, so it lies in
Z[zeta_m] for m the order of g, and phi(m) coordinates hold it where the
power basis of Z[zeta_e] would need phi(e).  Automorphisms, inversion and
the inclusion of a subgroup keep element orders, so a twist, the dual and a
restriction send each class to a class of the same order: they are row
gathers inside a block, and a restricted value lies in the subgroup's field
by construction, with no membership test.  The blocks lie side by side in
one flat integer array, so sums, scalings, comparisons and gathers are single
array operations; a pointwise product convolves the rows of each block and
reduces them through the powers of zeta_m.  The lift writes
sum_j c_j zeta_m^j into the row of a class of order m.

Orthogonality is certified exactly from those blocks.  For u prime to e,
sigma_u sends zeta_e to zeta_e^u and pi_u sends class k to the class of
g_k^u (`power_classes[k, u mod m_k]`).  A virtual character X has
sigma_u(X(g_k)) = X(g_pi_u(k)); this is checked exactly for generators u
of (Z/e)^x (block m times the rows i u mod m of power_matrix(m), against a
row gather), and pi_u pi_v = pi_uv extends it to every unit, with
conj X(g) = X(g^-1) at u = -1.  If each pi_u keeps class sizes, a Gram
entry D = sum_k s_k X_i(g_k) X_j(g_k^-1) is fixed by the Galois group, so
it is a rational integer, and one embedding zeta_e -> w mod a prime
p = 1 (mod e), block m at zeta_m -> w^(e/m), reduces it mod p.  As
|D| <= B = sum_k s_k |x_ik|_1 |x_jk|_1 (|x|_1 the l1 norm of a value's
coordinates), D equals an integer T once they agree modulo primes whose
product exceeds B + |T|.  `gram_certificate` runs this for the table's rows
against |G| I and for the Deligne-Lusztig characters against |G| times
their exclusion-theorem counts.  A square table needs no column Gram:
X S X* = |G| I makes X invertible, with X* X = |G| S^-1.  The one float64
kernel, a tier of `_exact_matmul`, runs only while every partial sum is an
integer below 2^53, which float64 holds exactly.

A table is one read-only integer matrix `rows`, row i the flat array of
chi_i.  Irr is linearly independent (Isaacs, ch. 2), so integer class
functions F, one per row, have one integer C with C rows = F: one product
mod ell finds C, and C rows = F is checked exactly on C's nonzero entries.
A lookup is a decomposition: F's row is chi_j iff its row of C is e_j.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import groupby
from math import gcd, isqrt, lcm, prod
from typing import TYPE_CHECKING

import numpy as np

from .cyclotomic import (
    _INT64_GUARD,
    CyclotomicNumber,
    _absmax,
    euler_phi,
    is_prime,
    power_matrix,
    prime_factors,
)
from .finitefield import poly_roots
from .groups import GroupRealization

if TYPE_CHECKING:  # the automorphisms module stays off the `table` path
    from .automorphisms import GroupAutomorphism

_CLASS_MATRIX_PAIRS = 1 << 18  # products per block of a class matrix (~13 MB of temporaries)
_FLOAT_MATMUL_MIN = 1 << 20  # multiply-adds from which an exact matmul runs in float64
_STACK_ENTRIES = 1 << 17  # flat entries a stacked computation reads at a time (~1 MB)


def _exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integer matmul that never overflows: float64 (BLAS) while every
    partial sum is an integer below 2^53, which float64 holds exactly in any
    order; int64 below 2^62; python ints beyond.  Below _FLOAT_MATMUL_MIN
    multiply-adds the int64 loop takes at most ~1.5 ms, less than the two
    float64 conversions, and staying off BLAS keeps its code pages out of
    small jobs."""
    if a.dtype != object and b.dtype != object:
        k = max(a.shape[-1], 1)
        bound = _absmax(a) * _absmax(b) * k
        if bound < 1 << 53 and a.size * b.size >= _FLOAT_MATMUL_MIN * k:
            return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
        if bound < _INT64_GUARD:
            return a @ b
    return a.astype(object) @ b.astype(object)


def _exact_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise integer product that never overflows."""
    if _absmax(a) * _absmax(b) < _INT64_GUARD and a.dtype != object and b.dtype != object:
        return a * b
    return a.astype(object) * b.astype(object)


def _root_powers(root: int, count: int, p: int) -> np.ndarray:
    """root^0, ..., root^(count-1) mod p: one column of a Vandermonde matrix."""
    return np.array([pow(root, c, p) for c in range(count)], dtype=np.int64)


class _PackedContext:
    """Per-group layout of class functions: the classes grouped by order.

    A function's integers lie in one flat array: block b (the classes of
    order orders[b], in index order) is flat[bounds[b]:bounds[b + 1]], read as
    (classes, phi(m)).  Block 0 is the identity class, the only class of
    order 1, so flat[0] is the degree.
    """

    def __init__(self, group: GroupRealization):
        data = group.conjugacy()
        self.e = data.exponent
        self.phi = euler_phi(self.e)
        self.sizes = data.sizes.astype(np.int64)
        self.n_classes = data.n_classes
        self.class_orders = np.array(data.orders, dtype=np.int64)
        self.orders = sorted(set(data.orders))
        self.block_classes = [np.flatnonzero(self.class_orders == m) for m in self.orders]
        self.pows = [power_matrix(m) for m in self.orders]
        phis = [pw.shape[1] for pw in self.pows]
        self.bounds = np.cumsum([0] + [len(c) * phi for c, phi in zip(self.block_classes, phis)]).tolist()
        self.size = self.bounds[-1]
        self.chunk = max(1, _STACK_ENTRIES // max(self.size, 1))  # stacked functions read at a time
        # the rows in flat order: their classes, lengths and starts
        self.flat_classes = np.concatenate(self.block_classes)
        self.flat_lens = np.repeat(phis, [len(c) for c in self.block_classes])
        self.flat_starts = np.cumsum(self.flat_lens) - self.flat_lens
        self.flat_row, self.flat_offset = _segments(self.flat_lens)  # per flat entry
        self.unblock = np.argsort(self.flat_classes)  # class -> row in flat order
        self.row_start = self.flat_starts[self.unblock]  # per class
        self.row_len = self.flat_lens[self.unblock]
        # every power matrix in one flat array, and where the one of each
        # class's order starts
        self.pow_flat = np.concatenate([pw.ravel() for pw in self.pows])
        pow_bounds = np.cumsum([0] + [pw.size for pw in self.pows])
        self.pow_start = pow_bounds[np.searchsorted(self.orders, self.class_orders)]
        # (source context, class map bytes) -> flat gather index (`_gather`)
        self.gathers: dict[tuple, np.ndarray] = {}

    def blocks(self, flat: np.ndarray) -> list[np.ndarray]:
        """The blocks of flat arrays (..., size) as views (..., classes, phi(m))."""
        return [
            flat[..., a:b].reshape(*flat.shape[:-1], len(c), -1)
            for a, b, c in zip(self.bounds, self.bounds[1:], self.block_classes)
        ]

    def galois(self, flat: np.ndarray, u: int) -> np.ndarray:
        """sigma_u, zeta_m -> zeta_m^u, on flat arrays (..., size): per block a
        matmul with the rows i u mod m of power_matrix(m)."""
        lead = flat.shape[:-1]
        return np.concatenate([
            _exact_matmul(b.reshape(-1, b.shape[-1]), pw[np.arange(b.shape[-1]) * u % m]).reshape(*lead, -1)
            for m, pw, b in zip(self.orders, self.pows, self.blocks(flat))
        ], axis=-1)

    def gather_index(self, src: _PackedContext, source: np.ndarray) -> np.ndarray:
        """The flat index that reads, at each class k, src's row of class
        source[k], of the same order; built once per (src, source)."""
        source = np.asarray(source, dtype=np.int64)
        key = (src, source.tobytes())
        index = self.gathers.get(key)
        if index is None:
            if not np.array_equal(src.class_orders[source], self.class_orders):
                raise ValueError("a gather must send each class to a class of the same order")
            index = src.row_start[source[self.flat_classes]][self.flat_row] + self.flat_offset
            self.gathers[key] = index
        return index


def _packed_context(group: GroupRealization) -> _PackedContext:
    if group._packed_ctx is None:
        group._packed_ctx = _PackedContext(group)
    return group._packed_ctx


class ClassFunction:
    """An exact class function in the per-order layout of the module
    docstring: block b holds, at the row of a class of order m = orders[b],
    the numerator of its value over the power basis of Z[zeta_m], and `den`
    divides every value (`_PackedContext` lays the blocks out in `flat`).

    (flat, den) is reduced, gcd(den, flat) = 1, and `flat` is int64 while its
    entries are below 2^62 (object beyond), so (den, flat.tobytes()) names
    the function.  Gathers, sums and products act on the integers;
    CyclotomicNumbers appear only in `degree`.
    """

    def __init__(self, group: GroupRealization, flat: np.ndarray, den: int = 1):
        """Keeps `flat` (a view stays a view) unless it is reduced or recast."""
        if den != 1:
            g = gcd(den, *flat.tolist())
            flat, den = flat // g, den // g
        if (flat.dtype == object) != (_absmax(flat) >= _INT64_GUARD):
            flat = flat.astype(np.int64 if flat.dtype == object else object)
        flat.flags.writeable = False
        self.group, self.flat, self.den = group, flat, den

    @property
    def degree(self) -> CyclotomicNumber:
        return CyclotomicNumber.from_rational(Fraction(int(self.flat[0]), self.den))

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        if other.group is not self.group:
            raise ValueError("class functions on different groups")
        den = lcm(self.den, other.den)
        # each term is below 2^62, so the int64 sum cannot wrap
        terms = [_exact_mul(f.flat, np.asarray(den // f.den)) for f in (self, other)]
        return ClassFunction(self.group, terms[0] + terms[1], den)

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        return self + other * -1

    def __mul__(self, other) -> "ClassFunction":
        """Pointwise product with a class function, or product with a rational."""
        if isinstance(other, ClassFunction):
            return self._pointwise(other)
        s = Fraction(other)
        flat = _exact_mul(self.flat, np.asarray(s.numerator))
        return ClassFunction(self.group, flat, self.den * s.denominator)

    __rmul__ = __mul__

    def _pointwise(self, other: "ClassFunction") -> "ClassFunction":
        """Per class, the convolution of the rows, reduced through zeta_m^t."""
        if other.group is not self.group:
            raise ValueError("class functions on different groups")
        products, ctx = [], _packed_context(self.group)
        for a, b, pw in zip(ctx.blocks(self.flat), ctx.blocks(other.flat), ctx.pows):
            phi = a.shape[1]
            if _absmax(a) * _absmax(b) * phi >= _INT64_GUARD or object in (a.dtype, b.dtype):
                a, b = a.astype(object), b.astype(object)
            conv = np.zeros((len(a), 2 * phi - 1), dtype=a.dtype)
            for i in range(phi):
                conv[:, i : i + phi] += a[:, i : i + 1] * b
            products.append(_exact_matmul(conv, pw[: 2 * phi - 1]).ravel())
        return ClassFunction(self.group, np.concatenate(products), self.den * other.den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ClassFunction)
            and other.group is self.group
            and other.den == self.den
            and np.array_equal(other.flat, self.flat)
        )

    def galois(self, u: int) -> "ClassFunction":
        """Image under zeta_e -> zeta_e^u, u prime to e, value by value."""
        return ClassFunction(self.group, _packed_context(self.group).galois(self.flat, u), self.den)

    def conjugate(self) -> "ClassFunction":
        return self.galois(-1)

    def __repr__(self) -> str:
        return f"ClassFunction({self.group.spec}, deg={self.degree})"


def _segments(lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For consecutive segments of these lengths: each position's segment and
    its offset inside it."""
    seg = np.repeat(np.arange(len(lens)), lens)
    return seg, np.arange(len(seg)) - (np.cumsum(lens) - lens)[seg]


def root_sum_function(group: GroupRealization, classes, exponents=0, weights=1, den=1):
    """The class function whose value at class k is the sum of
    weights[i] zeta_e^exponents[i] / den over the i with classes[i] == k.

    Each term must be a root of unity whose order divides the order m of its
    class, zeta_m^(exponents[i] m / e); a ValueError otherwise.  The weights
    are summed per distinct (class, power), and each sum adds that multiple
    of the power-matrix row of order m to its class's row.
    """
    ctx = _packed_context(group)
    e = ctx.e
    classes = np.asarray(classes, dtype=np.int64)
    exponents = np.broadcast_to(np.asarray(exponents, dtype=np.int64) % e, classes.shape)
    if (exponents % (e // ctx.class_orders[classes])).any():
        raise ValueError("a root of unity whose order does not divide its class's order")
    keys = classes * e + exponents
    order = np.argsort(keys, kind="stable")  # np.unique would import numpy.ma (~40 ms)
    weights = np.broadcast_to(np.asarray(weights), keys.shape)[order]
    # every partial sum of reduceat is bounded by the absolute sum
    weights = weights.astype(np.int64 if _absmax(weights) * len(weights) < _INT64_GUARD else object)
    distinct = np.flatnonzero(np.diff(keys[order], prepend=-1))
    totals = np.add.reduceat(weights, distinct)
    cls, powers = np.divmod(keys[order][distinct], e)
    lens = ctx.row_len[cls]
    term, offset = _segments(lens)
    rows = ctx.pow_start[cls] + powers * ctx.class_orders[cls] // e * lens  # power-matrix row starts
    terms = _exact_mul(totals[term], ctx.pow_flat[rows[term] + offset])
    if _absmax(terms) * len(terms) >= _INT64_GUARD:
        terms = terms.astype(object)
    flat = np.zeros(ctx.size, dtype=terms.dtype)
    np.add.at(flat, ctx.row_start[cls][term] + offset, terms)
    return ClassFunction(group, flat, den)


def trivial_character(group: GroupRealization) -> ClassFunction:
    return root_sum_function(group, np.arange(group.conjugacy().n_classes))


def _order_sum(parts, den: int) -> CyclotomicNumber:
    """The sum of the elements (m, coordinates over zeta_m), over den: the
    rational ones add as integers, the others at the lcm of their orders."""
    rational, total = 0, CyclotomicNumber.zero()
    for m, num in parts:
        if any(num[1:]):
            total = total + CyclotomicNumber(m, num, den)
        else:
            rational += int(num[0])
    return total + Fraction(rational, den)


def _weighted_sums(group: GroupRealization, flat: np.ndarray, weights: np.ndarray) -> list[list]:
    """Per row of flat (functions, size), the parts (m, sum over the classes
    k of order m of weights[k] times the value at k, over zeta_m) for
    `_order_sum`.  A block whose sums stay inside int64 is contracted in
    int64 where it lies, so no float64 copy of it is made."""
    ctx = _packed_context(group)
    per_block = []
    for classes, stacked in zip(ctx.block_classes, ctx.blocks(flat)):
        w = weights[classes][None, None, :]
        exact = stacked.dtype != object and _absmax(w) * _absmax(stacked) * len(classes) < _INT64_GUARD
        per_block.append((w @ stacked if exact else _exact_matmul(w, stacked))[:, 0].tolist())
    return [list(zip(ctx.orders, sums)) for sums in zip(*per_block)]


def inner_product(f: ClassFunction, g: ClassFunction) -> CyclotomicNumber:
    """<f, g> = (1/|G|) sum over classes of size * f * conj(g), exactly: the
    pointwise product, summed per block against the class sizes."""
    if f.group is not g.group:
        raise ValueError("class functions on different groups")
    product = f * g.conjugate()
    parts = _weighted_sums(f.group, product.flat[None], _packed_context(f.group).sizes)[0]
    return _order_sum(parts, product.den * f.group.order)


def _gather(f: ClassFunction, group: GroupRealization, source) -> ClassFunction:
    """The class function on `group` whose value at class k is f's value at
    class source[k]; the two classes have one order, so each row of a block
    is read from f's block of that order (`_PackedContext.gather_index`)."""
    index = _packed_context(group).gather_index(_packed_context(f.group), source)
    return ClassFunction(group, f.flat[index], f.den)


def twist_classes(sigma: GroupAutomorphism) -> np.ndarray:
    """The class map of f -> f o sigma^(-1): sigma's inverse class permutation."""
    return np.argsort(sigma.class_permutation())


def restriction_gather(subgroup: GroupRealization, group: GroupRealization) -> np.ndarray:
    """The flat index that restricts class functions of `group` to `subgroup`
    (same field): a gather through the class fusion, which keeps orders."""
    return _packed_context(subgroup).gather_index(_packed_context(group), class_fusion(subgroup, group))


def dual_character(f: ClassFunction) -> ClassFunction:
    """chi^vee: value at the class of g is the value at the class of g^-1."""
    return _gather(f, f.group, f.group.conjugacy().inverse_class)


def twist_by_automorphism(f: ClassFunction, sigma: GroupAutomorphism) -> ClassFunction:
    """f o sigma^(-1), a gather through sigma's inverse class permutation."""
    if sigma.group is not f.group:
        raise ValueError("automorphism of a different group")
    return _gather(f, f.group, twist_classes(sigma))


def induce_from_subgroup(group: GroupRealization, member_indices, exponents=0) -> ClassFunction:
    """Induction of psi(x_i) = zeta_e^exponents[i] (default 1) from the
    subgroup with element indices x_i: Ind psi (g_k) is
    |C_G(g_k)| / |H| times the sum of psi over the x_i in the class of g_k."""
    data = group.conjugacy()
    classes = data.cls[np.asarray(member_indices)]
    centralizers = group.order // data.sizes.astype(np.int64)
    return root_sum_function(group, classes, exponents, centralizers[classes], len(classes))


def class_fusion(small: GroupRealization, big: GroupRealization) -> np.ndarray:
    """Map each class of `small` to the class of `big` containing it."""
    if small.q != big.q or small.n != big.n:
        raise ValueError("groups are not compatible for fusion")
    reps = small.conjugacy().reps
    mats = small.matrices(reps)
    return big.conjugacy().cls[big.lookup(mats)]


def twisted_fs_indicator(f: ClassFunction, iota: GroupAutomorphism) -> CyclotomicNumber:
    """(1/|G|) sum over g of f(g * iota(g)): the twisted Frobenius-Schur sign.

    Zero iff f o iota is not the dual of f; otherwise +-1 for irreducible f.
    """
    if f.group is not iota.group:
        raise ValueError("automorphism of a different group")
    return twisted_fs_indicators(f.flat[None], f.den, iota)[0]


def twisted_fs_indicators(flat: np.ndarray, den: int, iota: GroupAutomorphism) -> list[CyclotomicNumber]:
    """`twisted_fs_indicator` of the class functions on iota's group whose
    flats are the rows of `flat`, all over `den` (a table's `rows` and 1).

    The classes of g * iota(g) depend only on iota, so they are counted in
    one pass of `GroupRealization.products` over the group (dot-table
    lookups, one chunk of pairs at a time) and each row is summed against
    the counts.
    """
    if not iota.is_involution():
        raise ValueError("twisted indicator needs an involutive automorphism")
    g = iota.group
    data = g.conjugacy()
    counts = np.bincount(data.cls[g.products(np.arange(g.order), iota.perm)], minlength=data.n_classes)
    sums = _weighted_sums(g, flat, counts)
    return [_order_sum(parts, den * g.order) for parts in sums]


# ---------------------------------------------------------------------------
# modular arithmetic helpers for the table algorithm
# ---------------------------------------------------------------------------


class NoTablePrime(Exception):
    pass


def find_table_prime(exponent: int, order: int, bound: int = 10**9) -> int:
    """Smallest prime ell = 1 (mod exponent) with ell > 2 |G|, below `bound`."""
    k = max(1, (2 * order) // exponent)
    while True:
        ell = exponent * k + 1
        if ell > bound:
            raise NoTablePrime(
                f"no prime = 1 mod {exponent} above {2 * order} was found "
                f"below the bound {bound}"
            )
        if ell > 2 * order and is_prime(ell):
            return ell
        k += 1


def _certificate_primes(exponent: int, bound: int) -> list[int]:
    """The primes p = 1 (mod exponent) above 2^24, in order, until their
    product exceeds `bound`.  Residues near 2^24 keep the Gram products of
    a few thousand classes inside int64; the guarded matmul covers more."""
    primes = [find_table_prime(exponent, 1 << 23)]
    while prod(primes) <= bound:
        primes.append(find_table_prime(exponent, (primes[-1] + 1) // 2))
    return primes


def _generator(n: int, order: int) -> int:
    """The smallest generator of (Z/n)^x, a cyclic group of this order."""
    factors = prime_factors(order)
    return next(g for g in range(2, n) if gcd(g, n) == 1 and all(pow(g, order // r, n) != 1 for r in factors))


def _primitive_root_of_unity(ell: int, e: int) -> int:
    """A fixed element of order e in F_ell^x (smallest generator's power)."""
    return pow(_generator(ell, ell - 1), (ell - 1) // e, ell)


@lru_cache(maxsize=None)
def _unit_generators(e: int) -> tuple[int, ...]:
    """Generators of (Z/e)^x, one per cyclic factor of the Chinese remainder
    decomposition: the smallest generator mod each odd prime power q || e,
    and -1 (with 5 from 2^3 on) mod the power of 2, each lifted to 1 modulo
    e / q."""
    out = []
    for p in prime_factors(e):
        q = gcd(e, p ** e.bit_length())
        local = [-1, 5][: q.bit_length() - 2] if p == 2 else [_generator(q, q // p * (p - 1))]
        rest = e // q
        out += [(1 + (a - 1) * rest * pow(rest, -1, q)) % e for a in local]
    return tuple(out)


class ModularContext:
    """The mod-ell shadow of a character table (used for fast searches)."""

    def __init__(self, group: GroupRealization, ell: int, zeta_mod: int):
        self.group = group
        self.ell = ell
        self.zeta_mod = zeta_mod  # fixed primitive e-th root of unity mod ell
        self.e = group.conjugacy().exponent
        # block m is evaluated at zeta_m -> zeta_mod^(e/m): the powers of that
        # root at each entry of a flat array
        ctx = _packed_context(group)
        self._powers = np.concatenate([
            np.tile(_root_powers(pow(zeta_mod, self.e // m, ell), euler_phi(m), ell), len(classes))
            for m, classes in zip(ctx.orders, ctx.block_classes)
        ])

    def reduce(self, flat: np.ndarray) -> np.ndarray:
        """The values mod ell, zeta_e -> zeta_mod, of the integer class
        functions in the rows of flat (functions, size), a chunk at a time."""
        ctx = _packed_context(self.group)
        out = np.empty((len(flat), ctx.n_classes), dtype=np.int64)
        for start in range(0, len(flat), ctx.chunk):
            part = flat[start : start + ctx.chunk]
            if _absmax(part) >= _INT64_GUARD // self.ell:
                part = part % self.ell  # so that the products below stay in int64
            residues = part * self._powers
            residues %= self.ell  # in place: one chunk-sized temporary
            out[start : start + ctx.chunk] = np.add.reduceat(residues, ctx.flat_starts, axis=1)[:, ctx.unblock]
            del part, residues  # before the next chunk's
        return out % self.ell

    def rows(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`reduce(flat)`, rows f_i(g_k) mod ell, and the right factor
        s_k f_i(g_k^-1) mod ell of their Gram (ell < 2^30: int64)."""
        data = self.group.conjugacy()
        x = self.reduce(flat)
        return x, x[:, data.inverse_class] * (data.sizes.astype(np.int64) % self.ell) % self.ell


def _galois_equivariant(group: GroupRealization, flat: np.ndarray) -> np.ndarray:
    """Per row X of flat (functions, size): whether sigma_u(X(g_k)) =
    X(g_pi_u(k)) for every class k and u in `_unit_generators(e)`; an
    AssertionError when a pi_u does not permute the classes keeping sizes."""
    data, ctx = group.conjugacy(), _packed_context(group)
    ok = np.ones(len(flat), dtype=bool)
    for u in _unit_generators(ctx.e):
        image = data.power_classes[np.arange(ctx.n_classes), u % ctx.class_orders]
        kept = (data.sizes[image] == data.sizes) & (ctx.class_orders[image] == ctx.class_orders)
        if not (kept.all() and np.array_equal(np.sort(image), np.arange(ctx.n_classes))):
            raise AssertionError(f"g -> g^{u} does not permute the classes keeping their sizes")
        ok &= (ctx.galois(flat, u) == flat[:, ctx.gather_index(ctx, image)]).all(axis=1)
    return ok


def gram_certificate(group: GroupRealization, flat: np.ndarray, target):
    """Verdicts of sum_k s_k X_i(g_k) conj(X_j(g_k)) = target[i, j] for the
    integer class functions X_i in the rows of flat (functions, size), by the
    module docstring's argument: (i, j) is True iff X_i and X_j are
    Galois-equivariant and the Gram X S X(g^-1)^T equals `target` at (i, j)
    and (j, i) modulo primes p = 1 (mod e), one embedding each, whose
    product exceeds B + max|target|.  The rows are read a chunk at a time.
    Returns (verdict, primes).
    """
    ctx = _packed_context(group)
    equivariant, norms = [], []
    for start in range(0, len(flat), ctx.chunk):
        part = flat[start : start + ctx.chunk]
        equivariant.append(_galois_equivariant(group, part))
        if _absmax(part) * int(ctx.flat_lens.max()) >= _INT64_GUARD:
            part = part.astype(object)  # so that no l1 norm of a value wraps
        norms.append(np.add.reduceat(np.abs(part), ctx.flat_starts, axis=1)[:, ctx.unblock])
    equivariant = np.concatenate(equivariant)
    norm = np.concatenate(norms)  # |X_i(g_k)|_1
    bound = _absmax(_exact_matmul(_exact_mul(norm, ctx.sizes), norm.T))
    primes = _certificate_primes(ctx.e, bound + _absmax(target))
    verdict = equivariant[:, None] & equivariant[None, :]
    for p in primes:
        modular = ModularContext(group, p, _primitive_root_of_unity(p, ctx.e))
        x, dual = modular.rows(flat)
        gram = _exact_matmul(x, dual.T) % p
        residue = np.asarray(target % p, dtype=np.int64)
        verdict &= (gram == residue) & (gram.T == residue.T)
    return verdict, primes


# ---------------------------------------------------------------------------
# the table algorithm
# ---------------------------------------------------------------------------


class CharacterTable:
    """Irr(G) as one read-only matrix `rows`, whose rows `irreducibles` view."""

    def __init__(self, group: GroupRealization, rows: np.ndarray, modular: ModularContext):
        rows.flags.writeable = False
        self.group, self.rows, self.modular = group, rows, modular
        self.irreducibles = [ClassFunction(group, row) for row in rows]
        self.degrees = rows[:, 0].tolist()
        self._permutations: dict[bytes, list[int]] = {}  # `permutation`'s memo

    def __len__(self) -> int:
        return len(self.rows)

    def verify_degree_sum(self) -> None:
        if sum(d * d for d in self.degrees) != self.group.order:
            raise AssertionError("sum of squared degrees differs from |G|")

    def verify_orthogonality(self) -> list[int]:
        """Exact row and column orthogonality for the whole table.

        The rows' Gram identity sum_k s_k X_ik conj(X_jk) = |G| delta_ij is
        certified by `gram_certificate` (the module docstring says why that
        is a proof), and for a square table it implies the columns'.
        Returns the primes used.
        """
        if len(self.rows) != self.group.conjugacy().n_classes:
            raise AssertionError("the table is not square")
        target = self.group.order * np.eye(len(self.rows), dtype=np.int64)
        ok, primes = gram_certificate(self.group, self.rows, target)
        bad = np.argwhere(~ok)
        if len(bad):
            i, j = (int(x) for x in bad[0])
            raise AssertionError(f"row orthogonality fails at ({i}, {j})")
        return primes

    def verify_modular_orthogonality(self) -> None:
        """Orthogonality of the mod-ell shadow (fast sanity for big tables)."""
        x, dual = self.modular.rows(self.rows)
        expected = (self.group.order % self.modular.ell) * np.eye(len(self.rows), dtype=np.int64)
        if not np.array_equal(_exact_matmul(x, dual.T) % self.modular.ell, expected):
            raise AssertionError("modular orthogonality failed")

    @cached_property
    def _dual_rows_mod(self) -> np.ndarray:
        """Row i holds s_k * chi_i(g_k^-1) mod ell, the right factor of the Gram."""
        return self.modular.rows(self.rows)[1]

    def decompose_integers(self, flat: np.ndarray) -> np.ndarray:
        """The integer matrix C with C rows = flat: the multiplicities over
        Irr of the integer class functions in the rows of flat, from one
        product with `_dual_rows_mod` mod ell, read in (-ell/2, ell/2), and
        certified row by row on their nonzero entries (an AssertionError if
        a function is not an integer combination of Irr)."""
        ell, chunk = self.modular.ell, _packed_context(self.group).chunk
        gram = _exact_matmul(self.modular.reduce(flat), self._dual_rows_mod.T) % ell
        coeffs = (gram * pow(self.group.order % ell, -1, ell) % ell).astype(np.int64)
        coeffs[coeffs > ell // 2] -= ell
        for c, f in zip(coeffs, flat):
            support = np.flatnonzero(c)
            parts = np.split(support, range(chunk, len(support), chunk))
            if not np.array_equal(sum((_exact_matmul(c[p], self.rows[p]) for p in parts), np.zeros_like(f)), f):
                raise AssertionError("modular decomposition failed exact verification")
        return coeffs

    def identify(self, flat: np.ndarray) -> list[int]:
        """The index of the irreducible in each row of flat (functions, size):
        a row is chi_j exactly when its decomposition is the unit vector e_j,
        and an AssertionError says that some row is not an irreducible."""
        coeffs = self.decompose_integers(flat)
        if not ((coeffs == 1).sum(axis=1) == 1).all() or np.count_nonzero(coeffs) != len(coeffs):
            raise AssertionError("a class function is not an irreducible of this table")
        return coeffs.argmax(axis=1).tolist()

    def permutation(self, source) -> list[int]:
        """The map chi_i -> chi_j, chi_j(g_k) = chi_i(g_source[k]), of a class
        map that sends Irr to Irr (the inverse classes, `twist_classes`): the
        gathered table looked up a chunk at a time, memoized per class map."""
        key = np.asarray(source).tobytes()
        if key not in self._permutations:
            ctx = _packed_context(self.group)
            index = ctx.gather_index(ctx, source)
            blocks = (self.rows[start : start + ctx.chunk] for start in range(0, len(self), ctx.chunk))
            self._permutations[key] = [j for block in blocks for j in self.identify(block[:, index])]
        return self._permutations[key]


def table_of(group: GroupRealization) -> CharacterTable:
    """The group's character table, computed once and cached on the group."""
    if group._table is None:
        group._table = character_table(group)
    return group._table


def character_table(group: GroupRealization) -> CharacterTable:
    data = group.conjugacy()
    r = data.n_classes
    e = data.exponent
    ell = find_table_prime(e, group.order)
    zeta_mod = _primitive_root_of_unity(ell, e)
    modular = ModularContext(group, ell, zeta_mod)
    if r == 1:
        table = CharacterTable(group, trivial_character(group).flat[None], modular)
        table.verify_degree_sum()
        return table

    omegas = _central_characters_mod(group, ell)
    chi_mod, degrees = _character_values_mod(group, omegas, ell)
    table = CharacterTable(group, _sort_characters(group, _lift_table(group, chi_mod, degrees, ell, zeta_mod)), modular)
    table.verify_degree_sum()
    table.verify_modular_orthogonality()
    return table


def _sort_characters(group: GroupRealization, flat: np.ndarray) -> np.ndarray:
    """flat (characters, size) with its rows put in table order, in place: by
    degree, then by the coefficients of their values over the power basis of
    Z[zeta_e], class by class in index order.

    Stable sorts refine the runs of rows that still tie, one class at a time,
    and only the tied rows' values at that class are written over zeta_e,
    through the rows x^(i e/m) mod Phi_e for the class order m.  The rows
    move a permutation cycle at a time through one spare row."""
    ctx = _packed_context(group)
    degree = flat[:, 0].tolist()
    runs = [list(run) for _, run in groupby(sorted(range(len(flat)), key=degree.__getitem__), key=degree.__getitem__)]
    lifts = {}
    for k in range(ctx.n_classes):
        if all(len(run) == 1 for run in runs):
            break
        start, stop = int(ctx.row_start[k]), int(ctx.row_start[k] + ctx.row_len[k])
        step = ctx.e // int(ctx.class_orders[k])
        if step not in lifts:
            lifts[step] = power_matrix(ctx.e, ks=range(0, (stop - start) * step, step))
        refined = []
        for run in runs:
            if len(run) == 1:
                refined.append(run)
                continue
            coords = _exact_matmul(flat[run, start:stop], lifts[step]).tolist()
            order = sorted(range(len(run)), key=coords.__getitem__)
            refined += [[run[i] for i in tie] for _, tie in groupby(order, key=coords.__getitem__)]
        runs = refined
    source = [i for run in runs for i in run]  # row i of the result is row source[i]
    for start in range(len(source)):
        if source[start] == start:
            continue
        spare, i = flat[start].copy(), start
        while source[i] != start:
            flat[i], source[i], i = flat[source[i]], i, source[i]
        flat[i], source[i] = spare, i
    return flat


# -- modular linear algebra --------------------------------------------------


def _mod_rref(mat: np.ndarray, ell: int):
    """Row-reduce mod ell; returns (rref, pivot column list).

    Each pivot column is cleared by one outer-product update of the rows
    that are nonzero there, on the columns from the pivot on (the earlier
    ones are zero in the pivot row).  Entries stay in [0, ell) with
    ell < 10^9 (`find_table_prime`), so the products are below
    ell^2 < 2^63 and the int64 update is exact.
    """
    m = mat % ell
    rows, cols = m.shape
    pivots = []
    for c in range(cols):
        rank = len(pivots)
        nonzero = np.flatnonzero(m[rank:, c])
        if not len(nonzero):
            continue
        pivot = rank + int(nonzero[0])
        if pivot != rank:
            m[[rank, pivot]] = m[[pivot, rank]]
        m[rank, c:] = m[rank, c:] * pow(int(m[rank, c]), -1, ell) % ell
        rest = np.flatnonzero(m[:, c])
        rest = rest[rest != rank]  # the rows to clear
        m[rest, c:] = (m[rest, c:] - np.outer(m[rest, c], m[rank, c:])) % ell
        pivots.append(c)
        if len(pivots) == rows:
            break
    return m, pivots


def _mod_nullspace(a: np.ndarray, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns K spanning the kernel of a mod ell, and the free columns of
    a's echelon form: K restricted to the rows `free` is the identity, and
    its rows at the pivots are minus the echelon form's free columns."""
    cols = a.shape[1]
    red, pivots = _mod_rref(a, ell)
    is_free = np.ones(cols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    basis[free, np.arange(len(free))] = 1
    basis[pivots] = -red[: len(pivots), free] % ell
    return basis, free


def _eigenspaces_mod(a: np.ndarray, y: np.ndarray, ell: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """(root, K, free) per root of the minimal polynomial of the row y under
    a (residues mod ell), K and free from `_mod_nullspace(a - root I)`.

    The rows y a^t, stacked as columns and row-reduced, are independent up
    to the first t = d with y a^d in the span of the earlier ones; the
    reduced column d holds its coefficients.  A RuntimeError when the
    kernels fall short of a's size: then a is not diagonalizable, or y is
    zero on one of its eigenspaces."""
    n = len(a)
    krylov = np.empty((n + 1, n), dtype=np.int64)
    krylov[0] = y
    for t in range(n):  # in place: per-step temporaries kept up to ~0.25 MB more heap in `table SL3(5)`
        np.matmul(krylov[t], a, out=krylov[t + 1])
        krylov[t + 1] %= ell
    red, pivots = _mod_rref(np.ascontiguousarray(krylov.T), ell)
    d = len(pivots)
    minimal = [-c for c in red[:d, d].tolist()] + [1]
    eye = np.eye(n, dtype=np.int64)
    out = [(root, *_mod_nullspace(a - root * eye, ell)) for root in poly_roots(minimal, ell)]
    if sum(len(free) for _, _, free in out) != n:
        raise RuntimeError("the eigenspaces of a class matrix do not span its space")
    return out


# -- Dixon-Schneider splitting ------------------------------------------------


def _class_matrix(group: GroupRealization, i: int, cols) -> np.ndarray:
    """M_i[j, k] = #{(x, y) in C_i x C_j : x y = g_k}, for the columns k in
    `cols`.

    Equivalently, column k counts the classes of x^-1 g_k over x in C_i: a
    row-table product by the fixed representative g_k
    (`GroupRealization.right_mul`), with no per-pair matrix products.  The
    inverses x^-1 run over C_i', the class of the inverses, so its members
    are read as they are: a count does not depend on their order.  A column
    costs |C_i| products, and the representatives go in blocks of at most
    _CLASS_MATRIX_PAIRS products.  The rows M_i[P] are the columns P of
    M_i' rescaled, by s_k M_i[j, k] = s_j M_i'[k, j] (`_class_matrix_rows`),
    so they cost |C_i| |P| products, not the |C_i| r of the whole matrix.
    """
    data = group.conjugacy()
    r = data.n_classes
    x_inv = data.members(int(data.inverse_class[i]))
    mat = np.zeros((r, len(cols)), dtype=np.int64)
    step = max(1, _CLASS_MATRIX_PAIRS // len(x_inv))
    for start in range(0, len(cols), step):
        reps = data.reps[cols[start : start + step]]
        classes = data.cls[group.right_mul(group.matrices(reps), x_inv)]
        # one bincount for the block: representative b counts into [b r, (b + 1) r),
        # an int64 sum, as the offsets widen the narrow class labels
        offsets = r * np.arange(len(reps))[:, None]
        counts = np.bincount((classes + offsets).ravel(), minlength=r * len(reps))
        mat[:, start : start + len(reps)] = counts.reshape(len(reps), r).T
    return mat


def _class_matrix_rows(group: GroupRealization, i: int, rows) -> np.ndarray:
    """The rows M_i[rows] of a class matrix, from |C_i| |rows| products: row
    j is column j of M_i' scaled by s_j / s_k (the module docstring).  The
    division is exact, and a remainder raises; s_j M_i'[k, j] <= |G|^2 fits
    in int64."""
    data = group.conjugacy()
    scaled = _class_matrix(group, int(data.inverse_class[i]), rows).T * data.sizes[rows, None]
    out, rem = np.divmod(scaled, data.sizes)
    if rem.any():
        raise RuntimeError(f"class matrix {i}: s_j M_i'[k, j] is not divisible by s_k")
    return out


def _central_characters_mod(group: GroupRealization, ell: int) -> np.ndarray:
    """All central character vectors (omega(K_k))_k as rows, mod ell.

    Each common eigenspace is a column basis V with pivot rows P, V[P] = I
    (the echelon invariant of the module docstring).  Only the rows of M_i
    at the pivots of the spaces still to split are computed.
    """
    data = group.conjugacy()
    r = data.n_classes
    ident = int(data.cls[group.identity_idx])
    spaces = [(np.eye(r, dtype=np.int64), np.arange(r))]
    class_order = sorted(range(r), key=lambda i: int(data.sizes[i]))
    for i in class_order:
        open_pivots = [pivots for v, pivots in spaces if v.shape[1] > 1]
        if not open_pivots:
            break
        if i == ident:
            continue
        need = np.zeros(r, dtype=bool)  # a mask: np.unique imports numpy.ma (+1 MB)
        need[np.concatenate(open_pivots)] = True
        need = np.flatnonzero(need)
        m = np.zeros((r, r), dtype=np.int64)
        m[need] = _class_matrix_rows(group, i, need) % ell
        new_spaces = []
        for v, pivots in spaces:
            if v.shape[1] == 1:
                new_spaces.append((v, pivots))
                continue
            a = m[pivots] @ v % ell  # M V = V A, read on the rows where V is I
            if np.array_equal(a, a[0, 0] * np.eye(len(a), dtype=np.int64)):  # one eigenvalue
                new_spaces.append((v, pivots))
                continue
            for _, kern, free in _eigenspaces_mod(a, v[ident], ell):
                new_spaces.append((v @ kern % ell, pivots[free]))
        spaces = new_spaces
    if not all(v.shape[1] == 1 for v, _ in spaces):
        raise RuntimeError("class matrices failed to split the eigenspaces")
    out = []
    for v, _ in spaces:
        w = v[:, 0]
        if w[ident] == 0:
            raise RuntimeError("eigenvector with zero identity coordinate")
        out.append(w * pow(int(w[ident]), -1, ell) % ell)
    return np.array(sorted(out, key=lambda v: v.tolist()), dtype=np.int64)


def _character_values_mod(group: GroupRealization, omegas: np.ndarray, ell: int):
    """chi(g_k) mod ell and exact integer degrees from central characters.

    With chi(g_k) = omega(K_k) deg / s_k, sum_k chi(g_k) chi(g_k^-1) s_k = |G|
    gives deg^2 = |G| / sum_k omega(K_k) omega(K_k^-1) / s_k mod ell, and
    ell > 2|G| >= 2 deg^2 makes that residue deg^2 itself.  Residues are
    below ell < 10^9 (`find_table_prime`), so products fit in int64.
    """
    data = group.conjugacy()
    size_inv = np.array([pow(int(s), -1, ell) for s in data.sizes], dtype=np.int64)
    scaled = omegas * size_inv % ell
    norms = (scaled * omegas[:, data.inverse_class] % ell).sum(axis=1) % ell
    degrees = []
    for norm in norms.tolist():
        d_sq = group.order * pow(norm, -1, ell) % ell
        d = isqrt(d_sq)
        if d * d != d_sq:
            raise RuntimeError("no integral degree matches the eigenvector")
        degrees.append(d)
    return scaled * np.array(degrees, dtype=np.int64)[:, None] % ell, degrees


def _lift_table(group, chi_mod, degrees, ell, zeta_mod):
    """Lift mod-ell character values to exact cyclotomics via DFT sums: the
    int64 matrix (characters, size) of their flat arrays.

    The Fourier sums of the module docstring are one Vandermonde matmul mod
    ell per class, for all rows at once; the multiplicities of a class of
    order m, times the powers of zeta_m, fill that class's row of every
    function.
    """
    data = group.conjugacy()
    e = data.exponent
    ctx = _packed_context(group)
    n_rows = len(chi_mod)
    flat = np.zeros((n_rows, ctx.size), dtype=np.int64)
    dft_of_order = {}
    for i, m in enumerate(data.orders):
        pcs = data.power_classes[i, :m]
        if m not in dft_of_order:
            # dft[t, j] = zeta_m^(-jt) / m mod ell
            inv_root = pow(pow(zeta_mod, e // m, ell), -1, ell)
            powers = _root_powers(inv_root, m, ell)
            exps = np.outer(np.arange(m), np.arange(m)) % m
            dft_of_order[m] = powers[exps] * pow(m, -1, ell) % ell  # below ell^2 < 2^60
        mults = _exact_matmul(chi_mod[:, pcs], dft_of_order[m]) % ell  # (rows, m)
        if (mults > ell // 2).any():
            raise RuntimeError("root-of-unity multiplicity fails to lift")
        # sum_j c_j zeta_m^j over the power basis of Q(zeta_m)
        values = _exact_matmul(mults, ctx.pows[ctx.orders.index(m)][:m])
        flat[:, ctx.row_start[i] : ctx.row_start[i] + values.shape[1]] = values
    if not np.array_equal(flat[:, 0], degrees):
        raise RuntimeError("lifted degree mismatch")
    return flat
