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
Class matrices are diagonalizable over F_ell (ell prime to |G|, ell = 1
mod e), so A has one eigenvalue exactly when it is a scalar matrix: the
space then stays whole, with no characteristic polynomial.  Otherwise the
piece for a root is V K, K the kernel basis of A - root I, whose pivot rows
are P at K's free columns, where K is the identity.

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
sum_j c_j zeta_m^j into the row of a class of order m and records the
conductor m / gcd(m, support of c) at which the JSON form writes each value.

Orthogonality is certified exactly from those blocks.  At a prime
p = 1 (mod e) the cyclotomic polynomial Phi_e splits into distinct linear
factors mod p, and the embeddings zeta_e -> w^u mod p (w of order e mod p,
u a unit mod e) are the reductions of Z[zeta_e] modulo the phi(e) primes
above p; block m is evaluated at zeta_m -> w^(u e/m).  A Gram entry D whose
reductions all equal those of an integer target T at the primes p_1, ...,
p_s therefore has D - T in P Z[zeta_e], P the product of the p_i.  Each
power of a root of unity has absolute value 1, so every complex conjugate
of D is at most B = sum_k s_k |x_ik|_1 |x_jk|_1 in absolute value, |x|_1 the
l1 norm of a value's coordinates.  With P > B + |T| every conjugate of the
algebraic integer (D - T) / P lies inside the unit disc, so its norm, a
rational integer, is 0, and D = T.  One routine (`gram_certificate`) runs
this for the table's row and column Grams (targets |G| I and
diag(|G| / s_k)) and for the Gram of any list of integer-valued class
functions, such as the Deligne-Lusztig characters against |G| times their
exclusion-theorem counts.  Nothing is sampled, and the one float64 kernel
(`_matmul_mod`, the lift's Fourier sums) holds only integers below 2^53,
which float64 represents exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import groupby
from math import gcd, isqrt, lcm, prod

import numpy as np

from .cyclotomic import (
    _INT64_GUARD,
    CyclotomicNumber,
    _absmax,
    _normalize,
    cyclotomic_json,
    euler_phi,
    is_prime,
    power_matrix,
    prime_factors,
)
from .finitefield import poly_roots
from .groups import GroupAutomorphism, GroupRealization, _bmm

_EMBEDDING_CHUNK = 8  # conjugate pairs of embeddings evaluated per matmul
_CLASS_MATRIX_PAIRS = 1 << 18  # products per block of a class matrix (~13 MB of temporaries)


def _exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integer matmul that never overflows: falls back to python ints."""
    bound = _absmax(a) * _absmax(b) * max(a.shape[-1], 1)
    if bound < _INT64_GUARD and a.dtype != object and b.dtype != object:
        return a @ b
    return a.astype(object) @ b.astype(object)


def _exact_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise integer product that never overflows."""
    if _absmax(a) * _absmax(b) < _INT64_GUARD and a.dtype != object and b.dtype != object:
        return a * b
    return a.astype(object) * b.astype(object)


def _root_powers(root: int, count: int, p: int) -> np.ndarray:
    """root^0, ..., root^(count-1) mod p: one column of a Vandermonde matrix."""
    out = np.empty(count, dtype=np.int64)
    acc = 1
    for c in range(count):
        out[c] = acc
        acc = acc * root % p
    return out


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for residues in [0, p).  While (p - 1)^2 times the inner
    dimension is below 2^53, every partial sum is an integer that float64
    holds exactly, in any order of summation, so the product runs as a
    float64 (BLAS) matmul; beyond that, as the guarded integer matmul."""
    if (p - 1) ** 2 * a.shape[-1] < 1 << 53:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % p
    return _exact_matmul(a, b) % p


def _evaluate_mod(mat: np.ndarray, powers: np.ndarray, p: int) -> np.ndarray:
    """Packed values (..., phi) at the root of unity with these powers, mod p."""
    return (_exact_matmul(mat, powers) % p).astype(np.int64)


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
        # conjugation zeta_m^i -> zeta_m^(m-i) as a matrix on coordinate vectors
        self.conjs = [pw[(m - np.arange(pw.shape[1])) % m] for m, pw in zip(self.orders, self.pows)]
        phis = [pw.shape[1] for pw in self.pows]
        self.bounds = np.cumsum([0] + [len(c) * phi for c, phi in zip(self.block_classes, phis)]).tolist()
        self.size = self.bounds[-1]
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


def _packed_context(group: GroupRealization) -> _PackedContext:
    if group._packed_ctx is None:
        group._packed_ctx = _PackedContext(group)
    return group._packed_ctx


@lru_cache(maxsize=None)
def _descent(e: int, c: int) -> np.ndarray:
    """The (phi(e), phi(c)) matrix taking coordinates over zeta_e of an
    element of Q(zeta_c), c | e, to its coordinates over zeta_c.

    With e = e0 t, t the part of e prime to c, and u t + v e0 = 1:
    zeta_e^k = zeta_e0^(k u) zeta_t^(k v), the products zeta_e0^a zeta_t^b
    are a basis in which Q(zeta_e0) has only b = 0 terms, and zeta_c^i
    is zeta_e0^(i e0 / c) in the power basis of zeta_e0 (same primes).
    """
    e0 = gcd(e, c ** e.bit_length())
    t = e // e0
    u = pow(t, -1, e0)
    k = np.arange(euler_phi(e))
    low = power_matrix(e0)[k * u % e0][:, :: e0 // c]
    high = power_matrix(t)[k * ((1 - u * t) // e0) % t, 0]
    out = low * high[:, None]
    out.flags.writeable = False
    return out


def _coordinates(v: CyclotomicNumber, m: int) -> list[int]:
    """v's numerator over the power basis of zeta_m; a ValueError when v does
    not lie in Q(zeta_m)."""
    if m % v.conductor == 0:
        return list(v.lift(m).num)
    big = lcm(m, v.conductor)
    num = (np.array([v.lift(big).num], dtype=object) @ _descent(big, m))[0].tolist()
    if CyclotomicNumber(m, num, v.den) != v:
        raise ValueError(f"the value {v} does not lie in Q(zeta_{m})")
    return num


class ClassFunction:
    """An exact class function in the per-order layout of the module
    docstring: block b holds, at the row of a class of order m = orders[b],
    the numerator of its value over the power basis of Z[zeta_m], and `den`
    divides every value (`_PackedContext` lays the blocks out in `flat`).

    (flat, den) is reduced, gcd(den, flat) = 1, and `flat` is int64 while its
    entries are below 2^62 (object beyond), so (den, flat.tobytes()) names
    the function.  Gathers, sums and products act on the integers;
    CyclotomicNumbers appear only in the values constructor, `values`,
    `degree` and the JSON form, at `conductors` per class when recorded and
    at the class order otherwise.
    """

    def __init__(self, group: GroupRealization, values):
        """From values (CyclotomicNumbers or rationals), one per class; the
        value at a class of order m must lie in Q(zeta_m) (ValueError)."""
        ctx = _packed_context(group)
        if len(values) != ctx.n_classes:
            raise ValueError("one value per conjugacy class required")
        values = [v if isinstance(v, CyclotomicNumber) else CyclotomicNumber.from_rational(v) for v in values]
        den = lcm(*(v.den for v in values))
        orders = ctx.class_orders.tolist()
        flat = [
            c * (den // values[k].den)
            for k in ctx.flat_classes.tolist()
            for c in _coordinates(values[k], orders[k])
        ]
        conductors = [v.conductor if m % v.conductor == 0 else m for v, m in zip(values, orders)]
        self._assign(group, np.array(flat, dtype=object), den, np.array(conductors))

    @classmethod
    def from_flat(cls, group, flat: np.ndarray, den: int = 1, conductors=None) -> "ClassFunction":
        out = cls.__new__(cls)
        out._assign(group, flat, den, conductors)
        return out

    def _assign(self, group, flat, den, conductors) -> None:
        if den != 1:
            g = gcd(den, *flat.tolist())
            flat, den = flat // g, den // g
        if (flat.dtype == object) != (_absmax(flat) >= _INT64_GUARD):
            flat = flat.astype(np.int64 if flat.dtype == object else object)
        flat.flags.writeable = False
        self.group, self.flat, self.den, self.conductors = group, flat, den, conductors

    @cached_property
    def blocks(self) -> list[np.ndarray]:
        return _packed_context(self.group).blocks(self.flat)

    @property
    def degree(self) -> CyclotomicNumber:
        return CyclotomicNumber.from_rational(Fraction(int(self.flat[0]), self.den))

    @cached_property
    def values(self) -> list[CyclotomicNumber]:
        return [CyclotomicNumber(c, num, self.den) for c, num in _descended([self])[0]]

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        if other.group is not self.group:
            raise ValueError("class functions on different groups")
        den = lcm(self.den, other.den)
        # each term is below 2^62, so the int64 sum cannot wrap
        terms = [_exact_mul(f.flat, np.asarray(den // f.den)) for f in (self, other)]
        return ClassFunction.from_flat(self.group, terms[0] + terms[1], den)

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        return self + other * -1

    def __mul__(self, other) -> "ClassFunction":
        """Pointwise product with a class function, or product with a rational."""
        if isinstance(other, ClassFunction):
            return self._pointwise(other)
        s = Fraction(other)
        flat = _exact_mul(self.flat, np.asarray(s.numerator))
        return ClassFunction.from_flat(self.group, flat, self.den * s.denominator)

    __rmul__ = __mul__

    def _pointwise(self, other: "ClassFunction") -> "ClassFunction":
        """Per class, the convolution of the rows, reduced through zeta_m^t."""
        if other.group is not self.group:
            raise ValueError("class functions on different groups")
        products = []
        for a, b, pw in zip(self.blocks, other.blocks, _packed_context(self.group).pows):
            phi = a.shape[1]
            if _absmax(a) * _absmax(b) * phi >= _INT64_GUARD or object in (a.dtype, b.dtype):
                a, b = a.astype(object), b.astype(object)
            conv = np.zeros((len(a), 2 * phi - 1), dtype=a.dtype)
            for i in range(phi):
                conv[:, i : i + phi] += a[:, i : i + 1] * b
            products.append(_exact_matmul(conv, pw[: 2 * phi - 1]).ravel())
        return ClassFunction.from_flat(self.group, np.concatenate(products), self.den * other.den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ClassFunction)
            and other.group is self.group
            and other.den == self.den
            and np.array_equal(other.flat, self.flat)
        )

    def conjugate(self) -> "ClassFunction":
        conjs = _packed_context(self.group).conjs
        flat = np.concatenate([_exact_matmul(b, conj).ravel() for b, conj in zip(self.blocks, conjs)])
        return ClassFunction.from_flat(self.group, flat, self.den)

    def __repr__(self) -> str:
        return f"ClassFunction({self.group.spec}, deg={self.degree})"


def _stacked_blocks(fs: list[ClassFunction]) -> list[np.ndarray]:
    """Per block, the functions' blocks stacked: (functions, classes, phi(m))."""
    return _packed_context(fs[0].group).blocks(np.stack([f.flat for f in fs]))


def _descended(fs: list[ClassFunction]) -> list[list[tuple[int, list[int]]]]:
    """Per function of `fs` (one group) and class, the conductor c and the
    coordinates over zeta_c of den times the value: a matmul per class order
    m and conductor c | m."""
    ctx = _packed_context(fs[0].group)
    out = [[None] * ctx.n_classes for _ in fs]
    for m, classes, stacked in zip(ctx.orders, ctx.block_classes, _stacked_blocks(fs)):
        default = np.full(len(classes), m)
        conductors = np.stack([default if f.conductors is None else f.conductors[classes] for f in fs])
        classes = classes.tolist()
        for c in sorted(set(conductors.ravel().tolist())):
            where = np.nonzero(conductors == c)
            rows = stacked[where]
            nums = rows if c == m else _exact_matmul(rows, _descent(m, c))
            for i, j, num in zip(*(w.tolist() for w in where), nums.tolist()):
                out[i][classes[j]] = (c, num)
    return out


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
    return ClassFunction.from_flat(group, flat, den)


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


def _weighted_sums(fs: list[ClassFunction], weights: np.ndarray) -> list[list]:
    """Per function, the parts (m, sum over the classes k of order m of
    weights[k] times the value at k, over zeta_m) for `_order_sum`."""
    ctx = _packed_context(fs[0].group)
    per_block = [
        _exact_matmul(weights[classes][None, None, :], stacked)[:, 0].tolist()
        for classes, stacked in zip(ctx.block_classes, _stacked_blocks(fs))
    ]
    return [list(zip(ctx.orders, sums)) for sums in zip(*per_block)]


def inner_product(f: ClassFunction, g: ClassFunction) -> CyclotomicNumber:
    """<f, g> = (1/|G|) sum over classes of size * f * conj(g), exactly: the
    pointwise product, summed per block against the class sizes."""
    if f.group is not g.group:
        raise ValueError("class functions on different groups")
    product = f * g.conjugate()
    parts = _weighted_sums([product], _packed_context(f.group).sizes)[0]
    return _order_sum(parts, product.den * f.group.order)


def _gather(f: ClassFunction, group: GroupRealization, source) -> ClassFunction:
    """The class function on `group` whose value at class k is f's value at
    class source[k]; the two classes have one order, so each row of a block
    is read from f's block of that order.  The flat index of each (source
    group, class map) is built once and kept on `group`'s context."""
    src, dst = _packed_context(f.group), _packed_context(group)
    source = np.asarray(source, dtype=np.int64)
    key = (src, source.tobytes())
    index = dst.gathers.get(key)
    if index is None:
        if not np.array_equal(src.class_orders[source], dst.class_orders):
            raise ValueError("a gather must send each class to a class of the same order")
        index = src.row_start[source[dst.flat_classes]][dst.flat_row] + dst.flat_offset
        dst.gathers[key] = index
    return ClassFunction.from_flat(group, f.flat[index], f.den)


def dual_character(f: ClassFunction) -> ClassFunction:
    """chi^vee: value at the class of g is the value at the class of g^-1."""
    return _gather(f, f.group, f.group.conjugacy().inverse_class)


def twist_by_automorphism(f: ClassFunction, sigma: GroupAutomorphism) -> ClassFunction:
    """f o sigma^(-1), a gather through sigma's inverse class permutation."""
    if sigma.group is not f.group:
        raise ValueError("automorphism of a different group")
    return _gather(f, f.group, np.argsort(sigma.class_permutation()))


def induce_from_subgroup(group: GroupRealization, member_indices, exponents=0) -> ClassFunction:
    """Induction of psi(x_i) = zeta_e^exponents[i] (default 1) from the
    subgroup with element indices x_i: Ind psi (g_k) is
    |C_G(g_k)| / |H| times the sum of psi over the x_i in the class of g_k."""
    data = group.conjugacy()
    classes = data.cls[np.asarray(member_indices)]
    centralizers = group.order // data.sizes.astype(np.int64)
    return root_sum_function(group, classes, exponents, centralizers[classes], len(classes))


def restrict_between_groups(
    f: ClassFunction, subgroup: GroupRealization
) -> ClassFunction:
    """Restriction along an inclusion of realized matrix groups (same field):
    a gather through the class fusion, which keeps element orders."""
    return _gather(f, subgroup, class_fusion(subgroup, f.group))


def class_fusion(small: GroupRealization, big: GroupRealization) -> np.ndarray:
    """Map each class of `small` to the class of `big` containing it."""
    if small.q != big.q or small.n != big.n:
        raise ValueError("groups are not compatible for fusion")
    reps = small.conjugacy().reps
    mats = small.elements[reps]
    return big.conjugacy().cls[big.lookup(mats)]


def twisted_fs_indicator(f: ClassFunction, iota: GroupAutomorphism) -> CyclotomicNumber:
    """(1/|G|) sum over g of f(g * iota(g)): the twisted Frobenius-Schur sign.

    Zero iff f o iota is not the dual of f; otherwise +-1 for irreducible f.
    """
    return twisted_fs_indicators([f], iota)[0]


def twisted_fs_indicators(fs, iota: GroupAutomorphism) -> list[CyclotomicNumber]:
    """`twisted_fs_indicator` of every class function in `fs`.

    The classes of g * iota(g) depend only on iota, so they are counted in
    one product pass over the group and each f is summed against the counts.
    """
    if not iota.is_involution():
        raise ValueError("twisted indicator needs an involutive automorphism")
    g = iota.group
    if any(f.group is not g for f in fs):
        raise ValueError("automorphism of a different group")
    data = g.conjugacy()
    prods = _bmm(g.tables, g.elements, g.elements[iota.perm])
    counts = np.bincount(data.cls[g.lookup(prods)], minlength=data.n_classes)
    return [_order_sum(parts, f.den * g.order) for f, parts in zip(fs, _weighted_sums(fs, counts))]


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


def _primitive_root_of_unity(ell: int, e: int) -> int:
    """A fixed element of order e in F_ell^x (smallest generator's power)."""
    factors = prime_factors(ell - 1)
    g = 2
    while True:
        if all(pow(g, (ell - 1) // p, ell) != 1 for p in factors):
            break
        g += 1
    return pow(g, (ell - 1) // e, ell)


def gram_certificate(group: GroupRealization, functions, row_target, col_target=None):
    """Pairwise verdicts of exact Gram identities over Z[zeta_e].

    `functions` lists integer-valued class functions X_i.  The row Gram
    sum_k s_k X_i(g_k) conj(X_j(g_k)) is compared with the integer matrix
    `row_target` and, when given, the column Gram sum_i X_i(g_k) conj(X_i(g_m))
    with `col_target`, at every embedding zeta_e -> w^u mod primes p = 1
    (mod e) whose product exceeds B + max|target|, B the l1 bound of the
    module docstring on the Grams' complex absolute values.  Block m is
    evaluated at zeta_m -> w^(u e/m).  Entry (i, j) of a verdict is True iff
    entries (i, j) and (j, i) of the Gram equal the target there at every
    embedding, which is a proof that both identities hold exactly.  Returns
    (row verdict, column verdict or None, primes).
    """
    if any(f.den != 1 for f in functions):
        raise ValueError("the Gram certificate needs integer-valued class functions")
    ctx = _packed_context(group)
    e = ctx.e
    targets = [t for t in (row_target, col_target) if t is not None]
    flat = np.stack([f.flat for f in functions])
    if _absmax(flat) * int(ctx.flat_lens.max()) >= _INT64_GUARD:
        flat = flat.astype(object)  # so that no l1 norm of a value wraps
    stacked = ctx.blocks(flat)
    norm = np.add.reduceat(np.abs(flat), ctx.flat_starts, axis=1)[:, ctx.unblock]  # |X_i(g_k)|_1
    bound = _absmax(_exact_matmul(_exact_mul(norm, ctx.sizes), norm.T))
    if col_target is not None:
        bound = max(bound, _absmax(_exact_matmul(norm.T, norm)))
    primes = _certificate_primes(e, bound + max(_absmax(t) for t in targets))
    verdicts = [np.ones(np.shape(t), dtype=bool) for t in targets]
    # the embedding at -u is the conjugate of the one at u and its Grams
    # are the transposes, so half of the units suffice
    units = [u for u in range(e) if gcd(u, e) == 1 and u <= -u % e]
    for p in primes:
        w = _primitive_root_of_unity(p, e)
        sizes = ctx.sizes % p
        residues = [np.asarray(t % p, dtype=np.int64) for t in targets]
        for start in range(0, len(units), _EMBEDDING_CHUNK):
            chunk = units[start : start + _EMBEDDING_CHUNK]
            exps = chunk + [-u % e for u in chunk]
            blocks = []
            for m, s in zip(ctx.orders, stacked):
                roots = [pow(w, v * (e // m), p) for v in exps]
                vander = np.stack([_root_powers(root, s.shape[2], p) for root in roots], axis=1)
                blocks.append(_evaluate_mod(s, vander, p))  # (functions, classes, embeddings)
            values = np.concatenate(blocks, axis=1)[:, ctx.unblock].transpose(2, 0, 1)
            for x, x_bar in zip(values[: len(chunk)], values[len(chunk) :]):
                grams = [_exact_matmul(_exact_mul(x, sizes) % p, x_bar.T) % p]
                if col_target is not None:
                    grams.append(_exact_matmul(x.T, x_bar) % p)
                for ok, gram, target in zip(verdicts, grams, residues):
                    ok &= (gram == target) & (gram.T == target)
    row_ok = verdicts[0] & verdicts[0].T
    col_ok = None if col_target is None else verdicts[1] & verdicts[1].T
    return row_ok, col_ok, primes


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

    def reduce_class_function(self, f: ClassFunction) -> np.ndarray:
        """f's values mod ell, with zeta_e mapped to zeta_mod: products of
        residues below ell < 2^30, summed per row."""
        ctx = _packed_context(f.group)
        residues = (f.flat % self.ell).astype(np.int64) * self._powers % self.ell
        values = np.add.reduceat(residues, ctx.flat_starts)[ctx.unblock] % self.ell
        if f.den == 1:
            return values
        inverse = np.array(pow(f.den, -1, self.ell), dtype=np.int64)
        return (_exact_mul(values, inverse) % self.ell).astype(np.int64)


# ---------------------------------------------------------------------------
# the table algorithm
# ---------------------------------------------------------------------------


class CharacterTable:
    def __init__(self, group: GroupRealization, irreducibles, modular: ModularContext):
        self.group = group
        self.irreducibles: list[ClassFunction] = irreducibles
        self.exponent = group.conjugacy().exponent
        self.modular = modular
        self.degrees = [chi.degree.as_int() for chi in irreducibles]

    def __len__(self) -> int:
        return len(self.irreducibles)

    @staticmethod
    def _fingerprint(f: ClassFunction) -> tuple:
        """(denominator, per-class coefficient sums): cheap to hash, but not
        injective, so `index_of` confirms a match on the whole function."""
        return f.den, np.add.reduceat(f.flat, _packed_context(f.group).flat_starts).tobytes()

    @cached_property
    def _row_index(self) -> dict:
        """Fingerprint -> indices of the irreducibles that have it."""
        index: dict[tuple, list[int]] = {}
        for i, chi in enumerate(self.irreducibles):
            index.setdefault(self._fingerprint(chi), []).append(i)
        return index

    def index_of(self, f: ClassFunction) -> int:
        """Index of the irreducible equal to f: a dict lookup on its
        fingerprint, confirmed by comparing the blocks."""
        if f.flat.dtype != object:
            for i in self._row_index.get(self._fingerprint(f), ()):
                if self.irreducibles[i] == f:
                    return i
        raise KeyError("class function is not an irreducible of this table")

    def verify_degree_sum(self) -> None:
        if sum(d * d for d in self.degrees) != self.group.order:
            raise AssertionError("sum of squared degrees differs from |G|")

    def verify_orthogonality(self) -> list[int]:
        """Exact row and column orthogonality for the whole table.

        Both Gram identities, sum_k s_k X_ik conj(X_jk) = |G| delta_ij and
        sum_i X_ik conj(X_im) = (|G| / s_k) delta_km, are certified by
        `gram_certificate`; the module docstring says why that is a proof.
        Returns the primes used.
        """
        if any(chi.den != 1 for chi in self.irreducibles):
            raise AssertionError("a table value is not a cyclotomic integer")
        order = self.group.order
        row_target = order * np.eye(len(self.irreducibles), dtype=np.int64)
        col_target = np.diag(order // self.group.conjugacy().sizes.astype(np.int64))
        row_ok, col_ok, primes = gram_certificate(self.group, self.irreducibles, row_target, col_target)
        for ok, kind in ((row_ok, "row"), (col_ok, "column")):
            bad = np.argwhere(~ok)
            if len(bad):
                i, j = (int(x) for x in bad[0])
                raise AssertionError(f"{kind} orthogonality fails at ({i}, {j})")
        return primes

    def verify_modular_orthogonality(self) -> None:
        """Orthogonality of the mod-ell shadow (fast sanity for big tables)."""
        ell = self.modular.ell
        gram = _exact_matmul(self._rows_mod(), self._dual_rows_mod.T) % ell
        expected = (self.group.order % ell) * np.eye(len(self.irreducibles), dtype=np.int64)
        if not np.array_equal(gram, expected):
            raise AssertionError("modular orthogonality failed")

    def _rows_mod(self) -> np.ndarray:
        return np.array(
            [self.modular.reduce_class_function(chi) for chi in self.irreducibles],
            dtype=np.int64,
        )

    @cached_property
    def _dual_rows_mod(self) -> np.ndarray:
        """Row i holds s_k * chi_i(g_k^-1) mod ell, the right factor of the Gram."""
        ell = self.modular.ell
        data = self.group.conjugacy()
        sizes = (data.sizes % ell).astype(np.int64)
        dual = _exact_mul(self._rows_mod()[:, data.inverse_class], sizes) % ell
        return dual.astype(np.int64)

    def decompose_integers(self, f: ClassFunction) -> list[int]:
        """Multiplicities of f over Irr, found mod ell and verified exactly.

        The candidate vector is computed by modular inner products, then the
        identity f = sum(a_i chi_i) is checked with exact integer arithmetic;
        together with linear independence of irreducible characters this
        proves the a_i are exactly the multiplicities.
        """
        ell = self.modular.ell
        fv = self.modular.reduce_class_function(f)
        inv_order = pow(self.group.order % ell, -1, ell)
        out = []
        for x in _exact_matmul(self._dual_rows_mod, fv) % ell:
            a = int(x) * inv_order % ell
            out.append(a - ell if a > ell // 2 else a)
        self._verify_integer_combination(f, out)
        return out

    def _verify_integer_combination(self, f: ClassFunction, coeffs: list[int]) -> None:
        if f.den != 1:
            raise AssertionError("virtual characters must have integral values")
        if any(chi.den != 1 for chi in self.irreducibles):
            raise AssertionError("an irreducible's values have a denominator")
        acc = sum((a * chi.flat for a, chi in zip(coeffs, self.irreducibles) if a), np.zeros_like(f.flat))
        if not np.array_equal(acc, f.flat):
            raise AssertionError("modular decomposition failed exact verification")

    def to_json(self) -> dict:
        data = self.group.conjugacy()
        return {
            "group": str(self.group.spec),
            "exponent": self.exponent,
            "ell": self.modular.ell,
            "zeta_mod": self.modular.zeta_mod,
            "class_sizes": [int(s) for s in data.sizes],
            "class_orders": list(data.orders),
            "degrees": self.degrees,
            "rows": [
                {"values": [cyclotomic_json(c, *_normalize(num, chi.den)) for c, num in coords]}
                for chi, coords in zip(self.irreducibles, _descended(self.irreducibles))
            ],
        }

    @staticmethod
    def from_json(group: GroupRealization, data: dict) -> "CharacterTable":
        """Rebuild a table from its serialized form and re-verify it."""
        if data["group"] != str(group.spec):
            raise ValueError("table serialized for a different group")
        conj = group.conjugacy()
        if data["exponent"] != conj.exponent or data["class_sizes"] != [
            int(s) for s in conj.sizes
        ]:
            raise ValueError("serialized table does not match the class data")
        irreducibles = [
            ClassFunction(group, [CyclotomicNumber.from_json(v) for v in row["values"]])
            for row in data["rows"]
        ]
        modular = ModularContext(group, data["ell"], data["zeta_mod"])
        table = CharacterTable(group, irreducibles, modular)
        if table.degrees != data["degrees"]:
            raise ValueError("serialized degrees disagree with the values")
        table.verify_degree_sum()
        table.verify_modular_orthogonality()
        return table


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
        table = CharacterTable(group, [trivial_character(group)], modular)
        table.verify_degree_sum()
        return table

    omegas = _central_characters_mod(group, ell)
    chi_mod, degrees = _character_values_mod(group, omegas, ell)
    irreducibles = _sort_characters(_lift_table(group, chi_mod, degrees, ell, zeta_mod))
    table = CharacterTable(group, irreducibles, modular)
    table.verify_degree_sum()
    table.verify_modular_orthogonality()
    return table


def _degree(chi: ClassFunction) -> int:
    return chi.degree.as_int()


def _sort_characters(rows: list[ClassFunction]) -> list[ClassFunction]:
    """The rows in table order: by degree, then by the coefficients of their
    values over the power basis of Z[zeta_e], class by class in index order.

    Stable sorts refine the runs of rows that still tie, one class at a time,
    and only the tied rows' values at that class are written over zeta_e,
    through the rows x^(i e/m) mod Phi_e for the class order m."""
    ctx = _packed_context(rows[0].group)
    runs = [list(run) for _, run in groupby(sorted(rows, key=_degree), key=_degree)]
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
            coords = _exact_matmul(np.stack([chi.flat[start:stop] for chi in run]), lifts[step]).tolist()
            order = sorted(range(len(run)), key=coords.__getitem__)
            refined += [[run[i] for i in tie] for _, tie in groupby(order, key=coords.__getitem__)]
        runs = refined
    return [chi for run in runs for chi in run]


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


def _char_poly_mod(a: np.ndarray, ell: int) -> list[int]:
    """Characteristic polynomial mod ell by Newton identity / trace powers."""
    n = a.shape[0]
    traces = []
    power = np.eye(n, dtype=np.int64)
    for _ in range(n):
        power = power @ a % ell
        traces.append(int(power.trace()) % ell)
    # Newton: e_k = (1/k) sum_{i=1..k} (-1)^{i-1} e_{k-i} p_i
    es = [1]
    for k in range(1, n + 1):
        acc = 0
        for i in range(1, k + 1):
            term = es[k - i] * traces[i - 1] % ell
            acc = (acc + (term if i % 2 == 1 else -term)) % ell
        es.append(acc * pow(k, -1, ell) % ell)
    # char poly x^n - e1 x^(n-1) + e2 x^(n-2) - ...
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    for k in range(1, n + 1):
        coeffs[n - k] = (es[k] if k % 2 == 0 else -es[k]) % ell
    return coeffs


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
        classes = data.cls[group.right_mul(group.elements[reps], x_inv)]
        # one bincount for the block: representative b counts into [b r, (b + 1) r)
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
            eye = np.eye(len(a), dtype=np.int64)
            if np.array_equal(a, a[0, 0] * eye):  # one eigenvalue
                new_spaces.append((v, pivots))
                continue
            for root in poly_roots(_char_poly_mod(a, ell), ell):
                kern, free = _mod_nullspace(a - root * eye, ell)
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
    """Lift mod-ell character values to exact cyclotomics via DFT sums.

    The Fourier sums of the module docstring are one Vandermonde matmul mod
    ell per class, for all rows at once; the multiplicities of a class of
    order m, times the powers of zeta_m, fill that class's row of every
    function and give each value's conductor.
    """
    data = group.conjugacy()
    e = data.exponent
    ctx = _packed_context(group)
    n_rows = len(chi_mod)
    flat = np.zeros((n_rows, ctx.size), dtype=np.int64)
    conductors = np.empty((n_rows, data.n_classes), dtype=np.int64)
    dft_of_order = {}
    for i, m in enumerate(data.orders):
        pcs = data.power_classes[i, :m]
        if m not in dft_of_order:
            # dft[t, j] = zeta_m^(-jt) / m mod ell
            inv_root = pow(pow(zeta_mod, e // m, ell), -1, ell)
            powers = _root_powers(inv_root, m, ell)
            exps = np.outer(np.arange(m), np.arange(m)) % m
            scale = np.array(pow(m, -1, ell), dtype=np.int64)
            dft_of_order[m] = (_exact_mul(powers[exps], scale) % ell).astype(np.int64)
        mults = _matmul_mod(chi_mod[:, pcs], dft_of_order[m], ell)  # (rows, m)
        if (mults > ell // 2).any():
            raise RuntimeError("root-of-unity multiplicity fails to lift")
        # sum_j c_j zeta_m^j over the power basis of Q(zeta_m)
        values = _exact_matmul(mults, ctx.pows[ctx.orders.index(m)][:m])
        if values.dtype == object:
            flat = flat.astype(object)
        flat[:, ctx.row_start[i] : ctx.row_start[i] + values.shape[1]] = values
        support = np.gcd.reduce(np.where(mults != 0, np.arange(m), 0), axis=1)
        conductors[:, i] = m // np.gcd(support, m)
    if not np.array_equal(flat[:, 0], degrees):
        raise RuntimeError("lifted degree mismatch")
    return [ClassFunction.from_flat(group, flat[r], 1, conductors[r]) for r in range(n_rows)]
