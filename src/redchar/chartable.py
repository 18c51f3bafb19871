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

Every table value is stored over the power basis of Z[zeta_e] ("packed").
Orthogonality is certified exactly from those integer arrays: at a prime
p = 1 (mod e) the cyclotomic polynomial splits into distinct linear factors
mod p, so evaluating at all phi(e) embeddings zeta_e -> w^u mod p is
injective on Z[zeta_e]/p.  Agreement of the row and column Gram matrices
with their targets at every embedding therefore puts each difference in
p Z[zeta_e]; an explicit bound B on the power-basis coefficients of the
Grams, with enough primes that their product exceeds 2(B + |G|), forces the
difference to be zero.  Nothing is sampled and nothing is floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, prod

import numpy as np

from .cyclotomic import (
    _INT64_GUARD,
    CyclotomicNumber,
    _absmax,
    euler_phi,
    power_matrix,
    prime_factors,
    root_of_unity_sum,
)
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
    """Per-group data for vectorized exact cyclotomic inner products."""

    def __init__(self, group: GroupRealization):
        data = group.conjugacy()
        self.e = data.exponent
        self.pow_np = power_matrix(self.e)
        self.phi = self.pow_np.shape[1]
        # conjugation zeta^i -> zeta^(e-i) as a matrix on coefficient vectors
        self.conj_np = self.pow_np[(self.e - np.arange(self.phi)) % self.e]
        self.sizes = data.sizes.astype(np.int64)
        self.n_classes = data.n_classes


def _packed_context(group: GroupRealization) -> _PackedContext:
    ctx = getattr(group, "_packed_ctx", None)
    if ctx is None:
        ctx = _PackedContext(group)
        group._packed_ctx = ctx
    return ctx


class ClassFunction:
    """An exact class function: one cyclotomic value per conjugacy class."""

    def __init__(self, group: GroupRealization, values):
        data = group.conjugacy()
        if len(values) != data.n_classes:
            raise ValueError("one value per conjugacy class required")
        self.group = group
        self.values = [
            v if isinstance(v, CyclotomicNumber) else CyclotomicNumber.from_rational(v)
            for v in values
        ]
        self._packed = None

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> CyclotomicNumber:
        cls = self.group.conjugacy().cls
        return self.values[int(cls[self.group.identity_idx])]

    def value_at_element(self, idx: int) -> CyclotomicNumber:
        return self.values[int(self.group.conjugacy().cls[idx])]

    def packed(self):
        """(matrix, denominator): values lifted to the exponent conductor."""
        if self._packed is None:
            ctx = _packed_context(self.group)
            lifted = [v.lift(ctx.e) for v in self.values]
            den = 1
            for v in lifted:
                den = den * v.den // gcd(den, v.den)
            mat = np.zeros((ctx.n_classes, ctx.phi), dtype=np.int64)
            big = max((max(abs(c) for c in v.num) if v.num else 0) for v in lifted)
            if big * den >= _INT64_GUARD:
                mat = mat.astype(object)
            for k, v in enumerate(lifted):
                scale = den // v.den
                for i, c in enumerate(v.num):
                    mat[k, i] = c * scale
            self._packed = (mat, den)
        return self._packed

    # -- pointwise algebra ---------------------------------------------------

    def _binary(self, other, op):
        if isinstance(other, ClassFunction):
            if other.group is not self.group:
                raise ValueError("class functions on different groups")
            return ClassFunction(
                self.group, [op(a, b) for a, b in zip(self.values, other.values)]
            )
        return ClassFunction(self.group, [op(a, other) for a in self.values])

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    def __rmul__(self, scalar):
        return ClassFunction(self.group, [v * scalar for v in self.values])

    def __neg__(self):
        return ClassFunction(self.group, [-v for v in self.values])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ClassFunction)
            and other.group is self.group
            and all(a == b for a, b in zip(self.values, other.values))
        )

    def conjugate(self) -> "ClassFunction":
        return ClassFunction(self.group, [v.conjugate() for v in self.values])

    def to_json(self) -> dict:
        return {"values": [v.to_json() for v in self.values]}

    def __repr__(self) -> str:
        return f"ClassFunction({self.group.spec}, deg={self.degree})"


def trivial_character(group: GroupRealization) -> ClassFunction:
    return ClassFunction(group, [1] * group.conjugacy().n_classes)


def inner_product(f: ClassFunction, g: ClassFunction) -> CyclotomicNumber:
    """<f, g> = (1/|G|) sum over classes of size * f * conj(g), exactly."""
    if f.group is not g.group:
        raise ValueError("class functions on different groups")
    ctx = _packed_context(f.group)
    mf, df = f.packed()
    mg, dg = g.packed()
    phi = ctx.phi
    weighted = _exact_mul(_exact_matmul(mg, ctx.conj_np), ctx.sizes[:, None])
    surface = _exact_matmul(mf.T, weighted)  # (phi, phi)
    # collapse the product surface along antidiagonals, conv[t] = sum_{a+b=t}:
    # with skew[a, a + b] = surface[a, b], conv is the column sum of skew
    skew = np.zeros((phi, 2 * phi - 1), dtype=surface.dtype)
    rows = np.arange(phi)[:, None]
    skew[rows, rows + np.arange(phi)] = surface
    conv = _exact_matmul(np.ones((1, phi), dtype=np.int64), skew)
    vec = _exact_matmul(conv, ctx.pow_np[: 2 * phi - 1])[0]
    den = df * dg * f.group.order
    return CyclotomicNumber(ctx.e, [int(x) for x in vec], den)


def norm_squared(f: ClassFunction) -> Fraction:
    return inner_product(f, f).as_rational()


def dual_character(f: ClassFunction) -> ClassFunction:
    """chi^vee: value at the class of g is the value at the class of g^-1."""
    inv = f.group.conjugacy().inverse_class
    return ClassFunction(f.group, [f.values[int(inv[k])] for k in range(len(f.values))])


def twist_by_automorphism(f: ClassFunction, sigma: GroupAutomorphism) -> ClassFunction:
    """f o sigma^(-1), realized through sigma's class permutation."""
    if sigma.group is not f.group:
        raise ValueError("automorphism of a different group")
    cp_inv = sigma.inverse().class_permutation()
    return ClassFunction(f.group, [f.values[int(cp_inv[k])] for k in range(len(f.values))])


def induce_from_subgroup(
    group: GroupRealization, member_indices, value_at_index
) -> ClassFunction:
    """Induction of a subgroup class function given by values on elements.

    `member_indices` lists the subgroup's element indices inside `group`;
    `value_at_index` maps an element index to its CyclotomicNumber value.
    """
    data = group.conjugacy()
    sub_order = len(member_indices)
    sums = [CyclotomicNumber.zero() for _ in range(data.n_classes)]
    for idx in member_indices:
        c = int(data.cls[idx])
        sums[c] = sums[c] + value_at_index(int(idx))
    scale = Fraction(group.order, sub_order)
    out = []
    for k in range(data.n_classes):
        out.append(sums[k] * (scale / int(data.sizes[k])))
    return ClassFunction(group, out)


def restrict_between_groups(
    f: ClassFunction, subgroup: GroupRealization
) -> ClassFunction:
    """Restriction along an inclusion of realized matrix groups (same field)."""
    big = f.group
    fusion = class_fusion(subgroup, big)
    return ClassFunction(subgroup, [f.values[int(fusion[k])] for k in range(len(fusion))])


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
    if not iota.is_involution():
        raise ValueError("twisted indicator needs an involutive automorphism")
    g = f.group
    data = g.conjugacy()
    prods = _bmm(g.tables, g.elements, g.elements[iota.perm])
    classes = data.cls[g.lookup(prods)]
    counts = np.bincount(classes, minlength=data.n_classes)
    total = CyclotomicNumber.zero()
    for k, c in enumerate(counts):
        if c:
            total = total + f.values[k] * int(c)
    return total * Fraction(1, g.order)


# ---------------------------------------------------------------------------
# modular arithmetic helpers for the table algorithm
# ---------------------------------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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
        if ell > 2 * order and _is_prime(ell):
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


def _expect_gram(gram: np.ndarray, target: np.ndarray, kind: str) -> None:
    bad = np.argwhere(gram != target)
    if len(bad):
        i, j = (int(x) for x in bad[0])
        raise AssertionError(f"{kind} orthogonality fails at ({i}, {j})")


def _primitive_root_of_unity(ell: int, e: int) -> int:
    """A fixed element of order e in F_ell^x (smallest generator's power)."""
    factors = prime_factors(ell - 1)
    g = 2
    while True:
        if all(pow(g, (ell - 1) // p, ell) != 1 for p in factors):
            break
        g += 1
    return pow(g, (ell - 1) // e, ell)


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
        mat, den = f.packed()
        values = _evaluate_mod(mat, self._powers, self.ell)
        if den == 1:
            return values
        inverse = np.array(pow(den, -1, self.ell), dtype=np.int64)
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

    def index_of(self, f: ClassFunction) -> int:
        """Index of an irreducible equal to f (hash on packed values)."""
        index = getattr(self, "_row_index", None)
        if index is None:
            index = {}
            for i, chi in enumerate(self.irreducibles):
                mat, den = chi.packed()
                index[(den, np.asarray(mat, dtype=np.int64).tobytes())] = i
            self._row_index = index
        mat, den = f.packed()
        key = (den, np.asarray(mat, dtype=np.int64).tobytes())
        if key not in index:
            raise KeyError("class function is not an irreducible of this table")
        return index[key]

    def verify_degree_sum(self) -> None:
        if sum(d * d for d in self.degrees) != self.group.order:
            raise AssertionError("sum of squared degrees differs from |G|")

    def verify_orthogonality(self) -> list[int]:
        """Exact row and column orthogonality for the whole table.

        Both Gram identities, sum_k s_k X_ik conj(X_jk) = |G| delta_ij and
        sum_i X_ik conj(X_im) = (|G| / s_k) delta_km, are checked at every
        embedding zeta_e -> w^u mod primes p = 1 (mod e) whose product
        exceeds twice the bound on the Grams' coefficients; the module
        docstring says why that is a proof.  Returns the primes used.
        """
        ctx = _packed_context(self.group)
        e, phi, order = self.exponent, ctx.phi, self.group.order
        # a coefficient of x * conj(y) is at most |x|_1 |conj y|_1 max|power_rows|
        conj_l1 = np.abs(ctx.conj_np).sum(axis=1)
        weights = np.stack([np.ones_like(conj_l1), conj_l1], axis=1)
        packed, l1 = [], []
        for chi in self.irreducibles:
            mat, den = chi.packed()
            if den != 1:
                raise AssertionError("a table value is not a cyclotomic integer")
            packed.append(mat)
            l1.append(_exact_matmul(np.abs(mat), weights))
        norm, conj_norm = np.moveaxis(np.stack(l1), -1, 0)
        row_bound = _absmax(_exact_matmul(_exact_mul(norm, ctx.sizes), conj_norm.T))
        col_bound = _absmax(_exact_matmul(norm.T, conj_norm))
        bound = max(row_bound, col_bound) * _absmax(ctx.pow_np[: 2 * phi - 1])
        primes = _certificate_primes(e, 2 * (bound + order))
        # the embedding at -u is the conjugate of the one at u and its Grams
        # are the transposes, so half of the units suffice
        units = [u for u in range(e) if gcd(u, e) == 1 and u <= -u % e]
        for p in primes:
            w = _primitive_root_of_unity(p, e)
            sizes = ctx.sizes % p
            row_target = (order % p) * np.eye(len(packed), dtype=np.int64)
            col_target = np.diag([order // int(s) % p for s in ctx.sizes]).astype(np.int64)
            for start in range(0, len(units), _EMBEDDING_CHUNK):
                chunk = units[start : start + _EMBEDDING_CHUNK]
                exps = chunk + [-u % e for u in chunk]
                vander = np.stack([_root_powers(pow(w, v, p), phi, p) for v in exps], axis=1)
                # one chunk of embeddings at a time: the packed rows are never stacked
                values = np.stack([_evaluate_mod(mat, vander, p).T for mat in packed], axis=1)
                for x, x_bar in zip(values[: len(chunk)], values[len(chunk) :]):
                    rows = _exact_matmul(_exact_mul(x, sizes) % p, x_bar.T) % p
                    _expect_gram(rows, row_target, "row")
                    _expect_gram(_exact_matmul(x.T, x_bar) % p, col_target, "column")
        return primes

    def verify_modular_orthogonality(self) -> None:
        """Orthogonality of the mod-ell shadow (fast sanity for big tables)."""
        ell = self.modular.ell
        gram = _exact_matmul(self._rows_mod(), self._dual_rows_mod().T) % ell
        expected = (self.group.order % ell) * np.eye(len(self.irreducibles), dtype=np.int64)
        if not np.array_equal(gram, expected):
            raise AssertionError("modular orthogonality failed")

    def _rows_mod(self) -> np.ndarray:
        return np.array(
            [self.modular.reduce_class_function(chi) for chi in self.irreducibles],
            dtype=np.int64,
        )

    def _dual_rows_mod(self) -> np.ndarray:
        """Row i holds s_k * chi_i(g_k^-1) mod ell, the right factor of the Gram."""
        dual = getattr(self, "_irr_mod_dual", None)
        if dual is None:
            ell = self.modular.ell
            data = self.group.conjugacy()
            sizes = (data.sizes % ell).astype(np.int64)
            dual = _exact_mul(self._rows_mod()[:, data.inverse_class], sizes) % ell
            dual = dual.astype(np.int64)
            self._irr_mod_dual = dual
        return dual

    def decompose(self, f: ClassFunction) -> list[CyclotomicNumber]:
        return [inner_product(f, chi) for chi in self.irreducibles]

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
        for x in _exact_matmul(self._dual_rows_mod(), fv) % ell:
            a = int(x) * inv_order % ell
            out.append(a - ell if a > ell // 2 else a)
        self._verify_integer_combination(f, out)
        return out

    def _verify_integer_combination(self, f: ClassFunction, coeffs: list[int]) -> None:
        ctx = _packed_context(self.group)
        mf, df = f.packed()
        if df != 1:
            raise AssertionError("virtual characters must have integral values")
        acc = np.zeros_like(mf)
        for a, chi in zip(coeffs, self.irreducibles):
            if a:
                mc, dc = chi.packed()
                assert dc == 1
                acc = acc + a * mc
        if not np.array_equal(acc, mf):
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
            "rows": [chi.to_json() for chi in self.irreducibles],
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
    table = getattr(group, "_table", None)
    if table is None:
        table = character_table(group)
        group._table = table
    return table


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
    # every packed row has length phi(e), so nested lists order as the rows do
    return (chi.degree.as_int(), chi.packed()[0].tolist())


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


def _mod_solve(a: np.ndarray, b: np.ndarray, ell: int) -> np.ndarray:
    """Solve a @ x = b mod ell for square invertible a."""
    n = a.shape[0]
    aug = np.concatenate([a % ell, b % ell], axis=1).astype(np.int64)
    red, pivots = _mod_rref(aug, ell)
    if pivots[:n] != list(range(n)):
        raise ArithmeticError("singular system mod ell")
    return red[:n, n:]


def _mod_nullspace(a: np.ndarray, ell: int) -> np.ndarray:
    """Columns spanning the kernel of a mod ell."""
    rows, cols = a.shape
    red, pivots = _mod_rref(a.copy(), ell)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for j, fc in enumerate(free):
        basis[fc, j] = 1
        for i, pc in enumerate(pivots):
            basis[pc, j] = (-red[i, fc]) % ell
    return basis


def _poly_mulmod(a, b, f, ell):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % ell
    # reduce modulo monic f
    df = len(f) - 1
    for k in range(len(out) - 1, df - 1, -1):
        c = out[k]
        if c:
            out[k] = 0
            for i in range(df):
                out[k - df + i] = (out[k - df + i] - c * f[i]) % ell
    out = out[:df]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _poly_gcd(a, b, ell):
    a = [x % ell for x in a]
    b = [x % ell for x in b]
    while any(b):
        a, b = b, _poly_mod_poly(a, b, ell)
    # normalize monic
    if any(a):
        inv = pow(a[-1], -1, ell)
        a = [x * inv % ell for x in a]
    return a


def _poly_mod_poly(a, b, ell):
    a = [x % ell for x in a]
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    db = len(b) - 1
    inv = pow(b[-1], -1, ell)
    while len(a) - 1 >= db and any(a):
        c = a[-1] * inv % ell
        shift = len(a) - 1 - db
        for i in range(db + 1):
            a[shift + i] = (a[shift + i] - c * b[i]) % ell
        while len(a) > 1 and a[-1] == 0:
            a.pop()
    return a


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


def _poly_roots_mod(f: list[int], ell: int) -> list[int]:
    """All roots in F_ell of a polynomial that splits completely."""
    # strip multiplicities: gcd with derivative
    fp = [(i * c) % ell for i, c in enumerate(f)][1:]
    g = _poly_gcd(f, fp, ell) if any(fp) else [1]
    if len(g) > 1:
        f = _poly_divide_mod(f, g, ell)
    roots: list[int] = []
    _split_linear(f, ell, roots)
    return sorted(roots)


def _poly_divide_mod(a, b, ell):
    a = [x % ell for x in a]
    out = [0] * (len(a) - len(b) + 1)
    inv = pow(b[-1], -1, ell)
    for k in range(len(out) - 1, -1, -1):
        c = a[k + len(b) - 1] * inv % ell
        out[k] = c
        if c:
            for i in range(len(b)):
                a[k + i] = (a[k + i] - c * b[i]) % ell
    return out


def _split_linear(f, ell, roots):
    """Cantor-Zassenhaus style splitting for a squarefree split polynomial."""
    deg = len(f) - 1
    if deg == 0:
        return
    if deg == 1:
        roots.append((-f[0]) * pow(f[1], -1, ell) % ell)
        return
    if f[0] == 0:
        roots.append(0)
        _split_linear(_poly_divide_mod(f, [0, 1], ell), ell, roots)
        return
    shift = 0
    while True:
        # gcd(f, (x + shift)^((ell-1)/2) - 1)
        base = [shift % ell, 1]
        power = _poly_powmod(base, (ell - 1) // 2, f, ell)
        power[0] = (power[0] - 1) % ell
        g = _poly_gcd(f, power, ell)
        if 0 < len(g) - 1 < deg:
            _split_linear(g, ell, roots)
            _split_linear(_poly_divide_mod(f, g, ell), ell, roots)
            return
        shift += 1


def _poly_powmod(base, exponent, f, ell):
    result = [1]
    b = [x % ell for x in base]
    while exponent:
        if exponent & 1:
            result = _poly_mulmod(result, b, f, ell)
        exponent >>= 1
        if exponent:
            b = _poly_mulmod(b, b, f, ell)
    return result


# -- Dixon-Schneider splitting ------------------------------------------------


def _class_matrix(group: GroupRealization, i: int) -> np.ndarray:
    """M_i[j, k] = #{(x, y) in C_i x C_j : x y = g_k}.

    Equivalently, column k counts the classes of x^-1 g_k over x in C_i: a
    row-table product by the fixed representative g_k
    (`GroupRealization.right_mul`), with no per-pair matrix products.  The
    representatives go in blocks of at most _CLASS_MATRIX_PAIRS products.
    """
    data = group.conjugacy()
    r = data.n_classes
    x_inv = group.inv_perm[data.members(i)]
    mat = np.zeros((r, r), dtype=np.int64)
    step = max(1, _CLASS_MATRIX_PAIRS // len(x_inv))
    for start in range(0, r, step):
        reps = data.reps[start : start + step]
        classes = data.cls[group.right_mul(group.elements[reps], x_inv)]
        # one bincount for the block: representative b counts into [b r, (b + 1) r)
        offsets = r * np.arange(len(reps))[:, None]
        counts = np.bincount((classes + offsets).ravel(), minlength=r * len(reps))
        mat[:, start : start + len(reps)] = counts.reshape(len(reps), r).T
    return mat


def _central_characters_mod(group: GroupRealization, ell: int) -> np.ndarray:
    """All central character vectors (omega(K_k))_k as rows, mod ell."""
    data = group.conjugacy()
    r = data.n_classes
    spaces = [np.eye(r, dtype=np.int64)]  # each: (r, dim) column basis
    class_order = sorted(range(r), key=lambda i: int(data.sizes[i]))
    for i in class_order:
        if all(s.shape[1] == 1 for s in spaces):
            break
        if int(data.sizes[i]) == 1 and i == int(data.cls[group.identity_idx]):
            continue
        m = _class_matrix(group, i) % ell
        new_spaces = []
        for v in spaces:
            if v.shape[1] == 1:
                new_spaces.append(v)
                continue
            mv = m @ v % ell
            # action matrix A with M V = V A: solve using independent rows
            pivot_rows = _independent_rows(v, ell)
            a = _mod_solve(v[pivot_rows], mv[pivot_rows], ell)
            for root in _poly_roots_mod(_char_poly_mod(a, ell), ell):
                shifted = (a - root * np.eye(a.shape[0], dtype=np.int64)) % ell
                kern = _mod_nullspace(shifted, ell)
                if kern.shape[1]:
                    new_spaces.append(v @ kern % ell)
        spaces = new_spaces
    if not all(s.shape[1] == 1 for s in spaces):
        raise RuntimeError("class matrices failed to split the eigenspaces")
    ident = int(group.conjugacy().cls[group.identity_idx])
    out = []
    for s in spaces:
        w = s[:, 0] % ell
        if w[ident] % ell == 0:
            raise RuntimeError("eigenvector with zero identity coordinate")
        w = w * pow(int(w[ident]), -1, ell) % ell
        out.append(w)
    return np.array(sorted(out, key=lambda v: v.tolist()), dtype=np.int64)


def _independent_rows(v: np.ndarray, ell: int) -> list[int]:
    _, pivots = _mod_rref(v.T.copy() % ell, ell)
    return pivots


def _character_values_mod(group: GroupRealization, omegas: np.ndarray, ell: int):
    """chi(g_k) mod ell and exact integer degrees from central characters."""
    data = group.conjugacy()
    r = data.n_classes
    sizes = data.sizes.astype(np.int64)
    inv = data.inverse_class
    chi_rows = []
    degrees = []
    order = group.order
    for w in omegas:
        s = 0
        for k in range(r):
            s = (s + w[k] * w[int(inv[k])] % ell * pow(int(sizes[k]), -1, ell)) % ell
        d_sq = order % ell * pow(int(s), -1, ell) % ell
        d = None
        for cand in range(1, isqrt(order) + 1):
            if cand * cand % ell == d_sq:
                d = cand
                break
        if d is None:
            raise RuntimeError("no integral degree matches the eigenvector")
        degrees.append(d)
        size_inv = np.array([pow(int(sizes[k]), -1, ell) for k in range(r)], dtype=np.int64)
        chi_rows.append(w * size_inv % ell * d % ell)
    return np.array(chi_rows, dtype=np.int64), degrees


def _power_classes(group: GroupRealization) -> list[np.ndarray]:
    """For each class i, the classes of g_i^t for t < order(g_i)."""
    data = group.conjugacy()
    reps = group.elements[data.reps]
    power = np.broadcast_to(group.elements[group.identity_idx], reps.shape)
    columns = []
    for _ in range(max(data.orders)):
        columns.append(data.cls[group.lookup(power)])
        power = _bmm(group.tables, power, reps)
    classes = np.stack(columns, axis=1)
    return [classes[i, :m] for i, m in enumerate(data.orders)]


def _lift_table(group, chi_mod, degrees, ell, zeta_mod):
    """Lift mod-ell character values to exact cyclotomics via DFT sums.

    The Fourier sums of the module docstring are one Vandermonde matmul mod
    ell per class, for all rows at once; the same multiplicities also fill
    each character's packed matrix.
    """
    data = group.conjugacy()
    e = data.exponent
    ctx = _packed_context(group)
    n_rows = len(chi_mod)
    packed = np.zeros((n_rows, data.n_classes, ctx.phi), dtype=np.int64)
    values = [[] for _ in range(n_rows)]
    dft_of_order = {}
    for i, pcs in enumerate(_power_classes(group)):
        m = len(pcs)
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
        for row, counts in enumerate(mults.tolist()):
            values[row].append(root_of_unity_sum(m, {j: c for j, c in enumerate(counts) if c}))
    irreducibles = []
    for row in range(n_rows):
        chi = ClassFunction(group, values[row])
        chi._packed = (packed[row], 1)
        if chi.degree.as_int() != degrees[row]:
            raise RuntimeError("lifted degree mismatch")
        irreducibles.append(chi)
    return irreducibles
