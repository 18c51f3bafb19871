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

A class function is an integer matrix over the power basis of Z[zeta_e]
(one row per class) and a denominator; the lift writes sum_j c_j
zeta_e^(j e/m) into it directly and records the conductor
m / gcd(m, support of c) at which the JSON form writes each value.

Orthogonality is certified exactly from those integer arrays: at a prime
p = 1 (mod e) the cyclotomic polynomial splits into distinct linear factors
mod p, so evaluating at all phi(e) embeddings zeta_e -> w^u mod p is
injective on Z[zeta_e]/p.  Agreement of a Gram matrix with an integer
target at every embedding therefore puts each difference in p Z[zeta_e]; an
explicit bound B on the power-basis coefficients of the Gram, with enough
primes that their product exceeds 2(B + max|target|), forces the difference
to be zero.  One routine (`gram_certificate`) runs this for the table's row
and column Grams (targets |G| I and diag(|G| / s_k)) and for the Gram of
any list of integer-valued class functions, such as the Deligne-Lusztig
characters against |G| times their exclusion-theorem counts.  Nothing is
sampled and nothing is floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
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


def _evaluate_mod(mat: np.ndarray, powers: np.ndarray, p: int) -> np.ndarray:
    """Packed values (..., phi) at the root of unity with these powers, mod p."""
    return (_exact_matmul(mat, powers) % p).astype(np.int64)


class _PackedContext:
    """Per-group data for class functions over the power basis of Z[zeta_e]."""

    def __init__(self, group: GroupRealization):
        data = group.conjugacy()
        self.e = data.exponent
        self.pow_np = power_matrix(self.e)
        self.phi = self.pow_np.shape[1]
        # conjugation zeta^i -> zeta^(e-i) as a matrix on coefficient vectors
        self.conj_np = self.pow_np[(self.e - np.arange(self.phi)) % self.e]
        self.sizes = data.sizes.astype(np.int64)
        self.n_classes = data.n_classes
        self.identity_class = int(data.cls[group.identity_idx])
        self._descents: dict[int, np.ndarray] = {}

    def descent(self, c: int) -> np.ndarray:
        """The (phi(e), phi(c)) matrix taking coordinates over zeta_e of an
        element of Q(zeta_c), c | e, to its coordinates over zeta_c.

        With e = e0 t, t the part of e prime to c, and u t + v e0 = 1:
        zeta_e^k = zeta_e0^(k u) zeta_t^(k v), the products zeta_e0^a zeta_t^b
        are a basis in which Q(zeta_e0) has only b = 0 terms, and zeta_c^i
        is zeta_e0^(i e0 / c) in the power basis of zeta_e0 (same primes).
        """
        if c not in self._descents:
            e0 = gcd(self.e, c ** self.e.bit_length())
            t = self.e // e0
            u = pow(t, -1, e0)
            k = np.arange(self.phi)
            low = power_matrix(e0)[k * u % e0][:, :: e0 // c]
            high = power_matrix(t)[k * ((1 - u * t) // e0) % t, 0]
            self._descents[c] = low * high[:, None]
        return self._descents[c]


def _packed_context(group: GroupRealization) -> _PackedContext:
    if group._packed_ctx is None:
        group._packed_ctx = _PackedContext(group)
    return group._packed_ctx


class ClassFunction:
    """An exact class function: the value at class k is
    sum_i mat[k, i] zeta_e^i / den, e the group exponent.

    (mat, den) is reduced, gcd(den, mat) = 1, and `mat` is int64 while its
    entries are below 2^62 (object beyond), so (den, mat.tobytes()) names
    the function.  Gathers, sums and products act on `mat`; CyclotomicNumbers
    appear only in the values constructor, `values`, `degree` and the JSON
    form, at `conductors` per class when recorded and at e otherwise.
    """

    def __init__(self, group: GroupRealization, values):
        """From values (CyclotomicNumbers or rationals), one per class."""
        if len(values) != group.conjugacy().n_classes:
            raise ValueError("one value per conjugacy class required")
        values = [v if isinstance(v, CyclotomicNumber) else CyclotomicNumber.from_rational(v) for v in values]
        lifted = [v.lift(_packed_context(group).e) for v in values]
        den = lcm(*(v.den for v in lifted))
        mat = np.array([[c * (den // v.den) for c in v.num] for v in lifted], dtype=object)
        self._assign(group, mat, den, np.array([v.conductor for v in values]))

    @classmethod
    def from_mat(cls, group, mat: np.ndarray, den: int = 1, conductors=None) -> "ClassFunction":
        out = cls.__new__(cls)
        out._assign(group, mat, den, conductors)
        return out

    def _assign(self, group, mat, den, conductors) -> None:
        if den != 1:
            g = gcd(den, *mat.ravel().tolist())
            mat, den = mat // g, den // g
        if (mat.dtype == object) != (_absmax(mat) >= _INT64_GUARD):
            mat = mat.astype(np.int64 if mat.dtype == object else object)
        mat.flags.writeable = False
        self.group, self.mat, self.den, self.conductors = group, mat, den, conductors

    @property
    def degree(self) -> CyclotomicNumber:
        ctx = _packed_context(self.group)
        row = self.mat[ctx.identity_class]
        if row[1:].any():
            return CyclotomicNumber(ctx.e, row.tolist(), self.den)
        return CyclotomicNumber.from_rational(Fraction(int(row[0]), self.den))

    @cached_property
    def values(self) -> list[CyclotomicNumber]:
        return [CyclotomicNumber(c, num, self.den) for c, num in _descended([self])[0]]

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        if other.group is not self.group:
            raise ValueError("class functions on different groups")
        den = lcm(self.den, other.den)
        # each term is below 2^62, so the int64 sum cannot wrap
        terms = [_exact_mul(f.mat, np.asarray(den // f.den)) for f in (self, other)]
        return ClassFunction.from_mat(self.group, terms[0] + terms[1], den)

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        return self + other * -1

    def __mul__(self, other) -> "ClassFunction":
        """Pointwise product with a class function, or product with a rational."""
        if isinstance(other, ClassFunction):
            return self._pointwise(other)
        s = Fraction(other)
        mat = _exact_mul(self.mat, np.asarray(s.numerator))
        return ClassFunction.from_mat(self.group, mat, self.den * s.denominator)

    __rmul__ = __mul__

    def _pointwise(self, other: "ClassFunction") -> "ClassFunction":
        """Per class, the convolution of the rows, reduced through zeta_e^t."""
        if other.group is not self.group:
            raise ValueError("class functions on different groups")
        ctx = _packed_context(self.group)
        phi = ctx.phi
        a, b = self.mat, other.mat
        if _absmax(a) * _absmax(b) * phi >= _INT64_GUARD or object in (a.dtype, b.dtype):
            a, b = a.astype(object), b.astype(object)
        conv = np.zeros((len(a), 2 * phi - 1), dtype=a.dtype)
        for i in range(phi):
            conv[:, i : i + phi] += a[:, i : i + 1] * b
        product = _exact_matmul(conv, ctx.pow_np[: 2 * phi - 1])
        return ClassFunction.from_mat(self.group, product, self.den * other.den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ClassFunction)
            and other.group is self.group
            and other.den == self.den
            and np.array_equal(other.mat, self.mat)
        )

    def conjugate(self) -> "ClassFunction":
        ctx = _packed_context(self.group)
        return ClassFunction.from_mat(self.group, _exact_matmul(self.mat, ctx.conj_np), self.den)

    def __repr__(self) -> str:
        return f"ClassFunction({self.group.spec}, deg={self.degree})"


def _descended(fs: list[ClassFunction]) -> list[list[tuple[int, list[int]]]]:
    """Per function of `fs` (one group) and class, the conductor c and the
    coordinates over zeta_c of den times the value: a matmul per conductor."""
    ctx = _packed_context(fs[0].group)
    default = np.full(ctx.n_classes, ctx.e)
    conductors = np.stack([default if f.conductors is None else f.conductors for f in fs])
    out = [[None] * ctx.n_classes for _ in fs]
    for c in sorted(set(conductors.ravel().tolist())):
        positions = list(zip(*(w.tolist() for w in np.nonzero(conductors == c))))
        block = np.stack([fs[i].mat[k] for i, k in positions])
        for (i, k), num in zip(positions, _exact_matmul(block, ctx.descent(c)).tolist()):
            out[i][k] = (c, num)
    return out


def root_sum_function(group: GroupRealization, classes, exponents=0, weights=1, den=1):
    """The class function whose value at class k is the sum of
    weights[i] zeta_e^exponents[i] / den over the i with classes[i] == k:
    a power-matrix row per distinct (class, power), added per class."""
    ctx = _packed_context(group)
    keys = np.asarray(classes, dtype=np.int64) * ctx.e + np.asarray(exponents, dtype=np.int64) % ctx.e
    order = np.argsort(keys, kind="stable")  # np.unique would import numpy.ma (~40 ms)
    weights = np.broadcast_to(np.asarray(weights), keys.shape)[order]
    # every partial sum of reduceat is bounded by the absolute sum
    weights = weights.astype(np.int64 if _absmax(weights) * len(weights) < _INT64_GUARD else object)
    distinct = np.flatnonzero(np.diff(keys[order], prepend=-1))
    totals = np.add.reduceat(weights, distinct)
    cls, powers = np.divmod(keys[order][distinct], ctx.e)
    terms = _exact_mul(totals[:, None], ctx.pow_np[powers])
    if _absmax(terms) * len(terms) >= _INT64_GUARD:
        terms = terms.astype(object)
    mat = np.zeros((ctx.n_classes, ctx.phi), dtype=terms.dtype)
    starts = np.flatnonzero(np.diff(cls, prepend=-1))  # keys are sorted by class
    mat[cls[starts]] = np.add.reduceat(terms, starts, axis=0)
    return ClassFunction.from_mat(group, mat, den)


def trivial_character(group: GroupRealization) -> ClassFunction:
    return root_sum_function(group, np.arange(group.conjugacy().n_classes))


def inner_product(f: ClassFunction, g: ClassFunction) -> CyclotomicNumber:
    """<f, g> = (1/|G|) sum over classes of size * f * conj(g), exactly."""
    if f.group is not g.group:
        raise ValueError("class functions on different groups")
    ctx = _packed_context(f.group)
    phi = ctx.phi
    weighted = _exact_mul(_exact_matmul(g.mat, ctx.conj_np), ctx.sizes[:, None])
    surface = _exact_matmul(f.mat.T, weighted)  # (phi, phi)
    # collapse the product surface along antidiagonals, conv[t] = sum_{a+b=t}:
    # with skew[a, a + b] = surface[a, b], conv is the column sum of skew
    skew = np.zeros((phi, 2 * phi - 1), dtype=surface.dtype)
    rows = np.arange(phi)[:, None]
    skew[rows, rows + np.arange(phi)] = surface
    conv = _exact_matmul(np.ones((1, phi), dtype=np.int64), skew)
    vec = _exact_matmul(conv, ctx.pow_np[: 2 * phi - 1])[0]
    den = f.den * g.den * f.group.order
    return CyclotomicNumber(ctx.e, [int(x) for x in vec], den)


def dual_character(f: ClassFunction) -> ClassFunction:
    """chi^vee: value at the class of g is the value at the class of g^-1."""
    inv = f.group.conjugacy().inverse_class
    return ClassFunction.from_mat(f.group, f.mat[inv], f.den)


def twist_by_automorphism(f: ClassFunction, sigma: GroupAutomorphism) -> ClassFunction:
    """f o sigma^(-1), a gather through sigma's inverse class permutation."""
    if sigma.group is not f.group:
        raise ValueError("automorphism of a different group")
    cp_inv = np.argsort(sigma.class_permutation())
    return ClassFunction.from_mat(f.group, f.mat[cp_inv], f.den)


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
    """Restriction along an inclusion of realized matrix groups (same field),
    rewritten over the subgroup's zeta_e'; a value outside Q(zeta_e') is refused."""
    ctx, sub_ctx = _packed_context(f.group), _packed_context(subgroup)
    gathered = f.mat[class_fusion(subgroup, f.group)]
    if sub_ctx.e == ctx.e:
        return ClassFunction.from_mat(subgroup, gathered, f.den)
    mat = _exact_matmul(gathered, ctx.descent(sub_ctx.e))
    lift = ctx.pow_np[np.arange(sub_ctx.phi) * (ctx.e // sub_ctx.e)]
    if not np.array_equal(_exact_matmul(mat, lift), gathered):
        raise ValueError(f"a restricted value does not lie in Q(zeta_{sub_ctx.e})")
    return ClassFunction.from_mat(subgroup, mat, f.den)


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
    data = g.conjugacy()
    prods = _bmm(g.tables, g.elements, g.elements[iota.perm])
    counts = np.bincount(data.cls[g.lookup(prods)], minlength=data.n_classes)
    out = []
    for f in fs:
        if f.group is not g:
            raise ValueError("automorphism of a different group")
        total = _exact_matmul(counts[None, :], f.mat)[0].tolist()
        out.append(CyclotomicNumber(_packed_context(g).e, total, f.den * g.order))
    return out


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


def gram_certificate(group: GroupRealization, packed, row_target, col_target=None):
    """Pairwise verdicts of exact Gram identities over Z[zeta_e].

    `packed` lists power-basis matrices X_i (classes x phi(e)) of integer
    valued class functions.  The row Gram sum_k s_k X_i(g_k) conj(X_j(g_k))
    is compared with the integer matrix `row_target` and, when given, the
    column Gram sum_i X_i(g_k) conj(X_i(g_m)) with `col_target`, at every
    embedding zeta_e -> w^u mod primes p = 1 (mod e) whose product exceeds
    2(B + max|target|), B a bound on the Grams' power-basis coefficients.
    Entry (i, j) of a verdict is True iff entries (i, j) and (j, i) of the
    Gram equal the target there at every embedding, which is a proof that
    both identities hold exactly.  Returns (row verdict, column verdict or
    None, primes).
    """
    ctx = _packed_context(group)
    e, phi = ctx.e, ctx.phi
    targets = [t for t in (row_target, col_target) if t is not None]
    # a coefficient of x * conj(y) is at most |x|_1 |conj y|_1 max|power_rows|
    conj_l1 = np.abs(ctx.conj_np).sum(axis=1)
    weights = np.stack([np.ones_like(conj_l1), conj_l1], axis=1)
    l1 = np.stack([_exact_matmul(np.abs(mat), weights) for mat in packed])
    norm, conj_norm = np.moveaxis(l1, -1, 0)
    bound = _absmax(_exact_matmul(_exact_mul(norm, ctx.sizes), conj_norm.T))
    if col_target is not None:
        bound = max(bound, _absmax(_exact_matmul(norm.T, conj_norm)))
    bound *= _absmax(ctx.pow_np[: 2 * phi - 1])
    primes = _certificate_primes(e, 2 * (bound + max(_absmax(t) for t in targets)))
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
            vander = np.stack([_root_powers(pow(w, v, p), phi, p) for v in exps], axis=1)
            # one chunk of embeddings at a time: the packed rows are never stacked
            values = np.stack([_evaluate_mod(mat, vander, p).T for mat in packed], axis=1)
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
        self._powers = _root_powers(zeta_mod, euler_phi(self.e), ell)

    def reduce_class_function(self, f: ClassFunction) -> np.ndarray:
        """f's values mod ell, with zeta_e mapped to zeta_mod."""
        values = _evaluate_mod(f.mat, self._powers, self.ell)
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
        injective, so `index_of` confirms a match on the whole matrix."""
        return f.den, f.mat.sum(axis=1).tobytes()

    @cached_property
    def _row_index(self) -> dict:
        """Fingerprint -> indices of the irreducibles that have it."""
        index: dict[tuple, list[int]] = {}
        for i, chi in enumerate(self.irreducibles):
            index.setdefault(self._fingerprint(chi), []).append(i)
        return index

    def index_of(self, f: ClassFunction) -> int:
        """Index of the irreducible equal to f: a dict lookup on its
        fingerprint, confirmed by comparing the matrices."""
        if f.mat.dtype != object:
            for i in self._row_index.get(self._fingerprint(f), ()):
                if np.array_equal(self.irreducibles[i].mat, f.mat):
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
        packed = [chi.mat for chi in self.irreducibles]
        order = self.group.order
        row_target = order * np.eye(len(packed), dtype=np.int64)
        col_target = np.diag(order // self.group.conjugacy().sizes.astype(np.int64))
        row_ok, col_ok, primes = gram_certificate(self.group, packed, row_target, col_target)
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
        acc = sum((a * chi.mat for a, chi in zip(coeffs, self.irreducibles) if a), np.zeros_like(f.mat))
        if not np.array_equal(acc, f.mat):
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
    irreducibles = _lift_table(group, chi_mod, degrees, ell, zeta_mod)
    irreducibles.sort(key=_character_sort_key)
    table = CharacterTable(group, irreducibles, modular)
    table.verify_degree_sum()
    table.verify_modular_orthogonality()
    return table


def _character_sort_key(chi: ClassFunction):
    """(degree, entries of mat in row-major order).  An int64 matrix is
    compared row by row as bytes: flipping the sign bit maps signed order to
    unsigned order, and big-endian words compare as bytes the way they do as
    numbers.  One bytes object per row keeps the allocations small (one per
    matrix raised the peak RSS of the SL3(5) table by 1.6 MB)."""
    if chi.mat.dtype == object:
        return chi.degree.as_int(), chi.mat.tolist()
    flipped = (chi.mat.view(np.uint64) ^ np.uint64(1 << 63)).astype(">u8")
    return chi.degree.as_int(), tuple(row.tobytes() for row in flipped)


# -- modular linear algebra --------------------------------------------------


def _mod_rref(mat: np.ndarray, ell: int):
    """Row-reduce mod ell; returns (rref, pivot column list)."""
    m = mat % ell
    rows, cols = m.shape
    pivots = []
    rank = 0
    for c in range(cols):
        pivot = None
        for i in range(rank, rows):
            if m[i, c] % ell:
                pivot = i
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        m[rank] = m[rank] * pow(int(m[rank, c]), -1, ell) % ell
        for i in range(rows):
            if i != rank and m[i, c]:
                m[i] = (m[i] - m[i, c] * m[rank]) % ell
        pivots.append(c)
        rank += 1
        if rank == rows:
            break
    return m, pivots


def _mod_nullspace(a: np.ndarray, ell: int) -> tuple[np.ndarray, list[int]]:
    """Columns K spanning the kernel of a mod ell, and the free columns of
    a's echelon form: K restricted to the rows `free` is the identity."""
    rows, cols = a.shape
    red, pivots = _mod_rref(a.copy(), ell)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for j, fc in enumerate(free):
        basis[fc, j] = 1
        for i, pc in enumerate(pivots):
            basis[pc, j] = (-red[i, fc]) % ell
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
    (`GroupRealization.right_mul`), with no per-pair matrix products.  A
    column costs |C_i| products, and the representatives go in blocks of at
    most _CLASS_MATRIX_PAIRS products.  The rows M_i[P] are the columns P of
    M_i' rescaled, by s_k M_i[j, k] = s_j M_i'[k, j] (`_class_matrix_rows`),
    so they cost |C_i| |P| products, not the |C_i| r of the whole matrix.
    """
    data = group.conjugacy()
    r = data.n_classes
    x_inv = group.inv_perm[data.members(i)]
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
    ell per class, for all rows at once; the multiplicities fill the rows'
    matrices and give each value's conductor.
    """
    data = group.conjugacy()
    e = data.exponent
    ctx = _packed_context(group)
    n_rows = len(chi_mod)
    packed = np.zeros((n_rows, data.n_classes, ctx.phi), dtype=np.int64)
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
        mults = _exact_matmul(chi_mod[:, pcs], dft_of_order[m]) % ell  # (rows, m)
        if (mults > ell // 2).any():
            raise RuntimeError("root-of-unity multiplicity fails to lift")
        # sum_j c_j zeta_e^(j e/m) over the power basis of Q(zeta_e)
        block = _exact_matmul(mults, ctx.pow_np[np.arange(m) * (e // m)])
        if block.dtype == object:
            packed = packed.astype(object)
        packed[:, i, :] = block
        support = np.gcd.reduce(np.where(mults != 0, np.arange(m), 0), axis=1)
        conductors[:, i] = m // np.gcd(support, m)
    degree_rows = np.zeros((n_rows, ctx.phi), dtype=np.int64)
    degree_rows[:, 0] = degrees
    if not np.array_equal(packed[:, ctx.identity_class], degree_rows):
        raise RuntimeError("lifted degree mismatch")
    return [ClassFunction.from_mat(group, packed[r], 1, conductors[r]) for r in range(n_rows)]
