"""Deligne-Lusztig virtual characters for GL_n(q), n <= 3, Lusztig series,
semisimple class labels in the dual group, and transfer to SL_n.

The virtual character R_{T_w}(theta) is assembled from the classical closed
form: for theta = 1 the symmetric-group expansion over unipotent characters,
and in general the character formula

    R(su) = sum over t in T_w^F conjugate to s of theta(t) * Q_{S_t}^{C(s)}(u)

whose Green factors Q are themselves theta = 1 values of smaller general
linear groups, obtained recursively.  Every output is validated against the
exclusion-theorem inner products and the degree identity.

Classes are labelled by construction.  A class of GL_n(q) is a semisimple
label s with one partition of each eigenvalue orbit's multiplicity (Green
1955), the index of the pairs (s, Uch(C(s))); `class_ss_data` builds each
pair's matrix in rational canonical form, looks it up, and requires the pairs
to meet every class exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .chartable import (
    ClassFunction,
    gram_certificate,
    induce_from_subgroup,
    inner_product,
    restrict_between_groups,
    root_sum_function,
    table_of,
)
from .finitefield import finite_field
from .groups import (
    DEFAULT_BUDGET,
    GroupRealization,
    GroupSpec,
    _realization,
    cached_group,
    partitions_of,
)

# ---------------------------------------------------------------------------
# symmetric group data (n <= 3) and unipotent degree polynomials
# ---------------------------------------------------------------------------

# character tables of S_n indexed [partition][cycle type]
SYM_CHARS = {
    1: {(1,): {(1,): 1}},
    2: {
        (2,): {(1, 1): 1, (2,): 1},
        (1, 1): {(1, 1): 1, (2,): -1},
    },
    3: {
        (3,): {(1, 1, 1): 1, (2, 1): 1, (3,): 1},
        (2, 1): {(1, 1, 1): 2, (2, 1): 0, (3,): -1},
        (1, 1, 1): {(1, 1, 1): 1, (2, 1): -1, (3,): 1},
    },
}


def unipotent_degree(partition: tuple, q: int) -> int:
    """Degree of the unipotent character of GL_n(q) labelled by a partition.

    (n) is the trivial character and (1^n) the Steinberg character; degrees
    are pairwise distinct for n <= 3 and every q >= 2.
    """
    n = sum(partition)
    if partition == (n,):
        return 1
    if n == 2:
        return q
    if n == 3:
        return q * (q + 1) if partition == (2, 1) else q**3
    raise ValueError(f"no degree polynomial for partition {partition}")


# ---------------------------------------------------------------------------
# eigenvalue bookkeeping over the field tower F_q, F_{q^2}, F_{q^3}
# ---------------------------------------------------------------------------


class FieldTower:
    """Fields F_{q^d} for d = 1, 2, 3 with fixed compatible embeddings.

    Eigenvalues of semisimple classes are represented as tags (d, j): the
    element generator(F_{q^d})^j, with d the degree of its minimal field.
    """

    def __init__(self, p: int, k0: int):
        self.p = p
        self.k0 = k0
        self.q = p**k0
        self.fields = {d: finite_field(p, k0 * d) for d in (1, 2, 3)}
        # exponent multiplier of the canonical embedding F_{q^e} -> F_{q^d}
        self._emb_exp: dict[tuple[int, int], int] = {}
        for e in (1, 2, 3):
            for d in (1, 2, 3):
                if d % e:
                    continue
                if e == d:
                    self._emb_exp[(e, d)] = 1
                else:
                    small, big = self.fields[e], self.fields[d]
                    from .finitefield import field_embedding

                    emb = field_embedding(small, big)
                    self._emb_exp[(e, d)] = big.log[emb(small.generator_code)]
        # units twisting the pairing Irr(F_{q^d}^x) <-> F_{q^d}^x so that a
        # character factoring through the norm corresponds to the embedded
        # subfield point (the stored embeddings need not be norm-compatible)
        self._dual_unit: dict[int, int] = {1: 1}
        for d in (2, 3):
            mod = self.q**d - 1
            r = mod // (self.q - 1)
            ratio = self._emb_exp[(1, d)] // r  # t = ratio * r with gcd(t, mod) = r
            target = ratio * ratio % (self.q - 1) if self.q > 2 else 0
            u = next(
                u
                for u in range(1, mod + 1)
                if u % (self.q - 1 if self.q > 2 else 1) == target and gcd(u, mod) == 1
            )
            self._dual_unit[d] = u

    def theta_exponent_for_point(self, d: int, stored_dlog: int) -> int:
        """Exponent of the character paired with the point g_d^stored_dlog."""
        mod = self.q**d - 1
        return stored_dlog * pow(self._dual_unit[d], -1, mod) % mod

    def point_dlog_for_theta(self, d: int, c: int) -> int:
        """Stored discrete log of the dual point of the exponent-c character."""
        mod = self.q**d - 1
        return c * self._dual_unit[d] % mod

    def embed_exponent(self, e: int, d: int, j: int) -> int:
        """Exponent in F_{q^d} of the embedded element generator(F_{q^e})^j."""
        t = self._emb_exp[(e, d)]
        return j * t % (self.q**d - 1)

    def canonical_tag(self, d: int, j: int) -> tuple[int, int]:
        """Minimal-field representative (d0, j0) of the element g_d^j."""
        mod = self.q**d - 1
        j %= mod
        for d0 in (1, 2, 3):
            if d % d0 == 0:
                sub = self.q**d0 - 1
                ratio = mod // sub
                if j % ratio == 0:
                    # element lies in the image of F_{q^d0}; translate back
                    t = self._emb_exp[(d0, d)]
                    s = gcd(t, mod)
                    if s != ratio:
                        raise RuntimeError(f"embedding exponent {t} has gcd {s} with {mod}, not {ratio}")
                    j0 = (j // ratio) * pow(t // ratio, -1, sub) % sub
                    return (d0, j0)
        raise AssertionError("unreachable: every divisor chain ends at d")

    def orbit_key(self, d: int, j: int) -> tuple[int, int]:
        """Canonical key of the q-power orbit through the tag (d, j)."""
        d0, j0 = self.canonical_tag(d, j)
        mod = self.q**d0 - 1
        best = min((j0 * self.q**t) % mod for t in range(d0))
        return (d0, best)

    def orbit_elements(self, key: tuple[int, int]) -> list[int]:
        d0, j0 = key
        mod = self.q**d0 - 1
        return sorted({(j0 * self.q**t) % mod for t in range(d0)})

    def all_orbit_keys(self, max_degree: int) -> list[tuple[int, int]]:
        out = []
        for d in range(1, max_degree + 1):
            mod = self.q**d - 1
            seen = set()
            for j in range(mod):
                if j in seen:
                    continue
                orb = {(j * self.q**t) % mod for t in range(d)}
                seen |= orb
                if len(orb) == d:  # minimal field is exactly F_{q^d}
                    out.append((d, min(orb)))
        return sorted(out)

    def scale_key(self, key: tuple[int, int], z_exp: int) -> tuple[int, int]:
        """Orbit key of z * x for x in the orbit and z = g_1^z_exp in F_q^x."""
        d, j = key
        shift = self.embed_exponent(1, d, z_exp)
        return self.orbit_key(d, (j + shift) % (self.q**d - 1))

    def invert_key(self, key: tuple[int, int]) -> tuple[int, int]:
        d, j = key
        return self.orbit_key(d, (-j) % (self.q**d - 1))


@lru_cache(maxsize=None)
def field_tower(p: int, k0: int) -> FieldTower:
    return FieldTower(p, k0)


@dataclass(frozen=True)
class SemisimpleClassLabel:
    """A semisimple class of GL_n(q)* = GL_n(q): a q-power-closed multiset of
    eigenvalue orbits with multiplicities."""

    q: int
    orbits: tuple  # sorted tuple of ((d, j_min), multiplicity)

    def __post_init__(self):
        if tuple(sorted(self.orbits)) != self.orbits:
            raise ValueError("orbits must be a sorted tuple")

    def is_central(self) -> bool:
        return len(self.orbits) == 1 and self.orbits[0][0][0] == 1

    def inverse(self, tower: FieldTower) -> "SemisimpleClassLabel":
        orbs = tuple(sorted((tower.invert_key(k), m) for k, m in self.orbits))
        return SemisimpleClassLabel(self.q, orbs)

    def scaled(self, tower: FieldTower, z_exp: int) -> "SemisimpleClassLabel":
        orbs = tuple(sorted((tower.scale_key(k, z_exp), m) for k, m in self.orbits))
        return SemisimpleClassLabel(self.q, orbs)

    def canonical_string(self) -> str:
        return ",".join(f"(d{d}:{j})^{m}" for (d, j), m in self.orbits)

    def __repr__(self) -> str:
        return f"Label[{self.canonical_string()}]"


# ---------------------------------------------------------------------------
# per-class semisimple data for a realized GL_n(q)
# ---------------------------------------------------------------------------


@dataclass
class ClassSSData:
    label: SemisimpleClassLabel
    partitions: dict  # orbit key -> partition of its multiplicity


def _jordan_block(lam: int, size: int) -> np.ndarray:
    """The code matrix lam I + N of one Jordan block (N the superdiagonal)."""
    block = np.eye(size, k=1, dtype=np.uint8)
    np.fill_diagonal(block, lam)
    return block


def _orbit_blocks(tower: FieldTower, key: tuple[int, int], pi: tuple) -> list[np.ndarray]:
    """Rational canonical blocks over F_q for one eigenvalue orbit whose
    multiplicity has Jordan partition pi.

    A degree-1 orbit {lam} gives one Jordan block per part of pi.  A larger
    orbit has multiplicity 1 (d m <= 3, so pi = (1,)) and gives the companion
    matrix of prod (x - mu) over the orbit, computed in F_{q^d} and read back
    in F_q.
    """
    d, j = key
    field = tower.fields[1]
    if d == 1:
        return [_jordan_block(field.exp[j], size) for size in pi]
    big = tower.fields[d]
    coeffs = [1]  # constant term first
    for a in tower.orbit_elements(key):
        mu = big.exp[a]
        coeffs = [
            big.sub_codes(lower, big.mul_codes(mu, c))
            for lower, c in zip([0] + coeffs, coeffs + [0])
        ]
    block = np.eye(d, k=-1, dtype=np.uint8)
    for i, c in enumerate(coeffs[:d]):
        if c:
            d0, j0 = tower.canonical_tag(d, big.log[c])
            if d0 != 1:
                raise RuntimeError(f"orbit {key}: a coefficient of degree {d0} is not in F_q")
            c = field.exp[j0]
        block[i, d - 1] = field.neg_code(c)
    return [block]


def class_ss_data(ctx: DLContext) -> list[ClassSSData]:
    """Semisimple label and per-orbit Jordan partitions for every class.

    Each (label, partition tuple) pair is built as the block-diagonal matrix
    of its `_orbit_blocks` and looked up in the group.  The pairs must meet
    every class exactly once, which proves the classification on the
    realized group; a class met twice or never raises.
    """
    group = ctx.group
    pairs = [
        (label, pi_tuple)
        for label in all_labels(ctx)
        for pi_tuple in centralizer_torus_types(label)
    ]
    mats = np.zeros((len(pairs), ctx.n, ctx.n), dtype=np.uint8)
    for mat, (_label, pi_tuple) in zip(mats, pairs):
        at = 0
        for key, pi in pi_tuple:
            for block in _orbit_blocks(ctx.tower, key, pi):
                size = len(block)
                mat[at : at + size, at : at + size] = block
                at += size
    data = group.conjugacy()
    out: list[ClassSSData | None] = [None] * data.n_classes
    for ci, (label, pi_tuple) in zip(data.cls[group.lookup(mats)].tolist(), pairs):
        if out[ci] is not None:
            raise RuntimeError(
                f"{group.spec}: {label} {pi_tuple} and {out[ci].label} "
                f"{out[ci].partitions} lie in one class"
            )
        out[ci] = ClassSSData(label=label, partitions=dict(pi_tuple))
    missing = [ci for ci, ssd in enumerate(out) if ssd is None]
    if missing:
        raise RuntimeError(f"{group.spec}: classes {missing} have no label")
    return out


# ---------------------------------------------------------------------------
# the DL context: one realized GL_n(q) with table, labels, and Green data
# ---------------------------------------------------------------------------


class DLContext:
    """Bundles a realized GL_n(q) with its character table and the
    semisimple/unipotent bookkeeping the R_T(theta) model needs."""

    def __init__(self, group: GroupRealization):
        if group.spec.family != "GL":
            raise ValueError("Deligne-Lusztig model is built on the GL side")
        self.group = group
        self.n = group.n
        self.q = group.q
        self.table = table_of(group)
        self.tower = field_tower(group.p, group.field.k)
        # class index -> its semisimple label and per-orbit Jordan partitions
        self.ss = class_ss_data(self)
        self.e = group.conjugacy().exponent
        self._unipotent = None
        self._green = None
        self._identity_orbit = self.tower.orbit_key(1, 0)
        # memos of the series and Jordan layers; the SL-side ones are
        # (sl_group, value) pairs, valid only for that group object
        self._series = None
        self._sl_series = None
        self._jordan = None
        self._disconnected = None
        # (parts, exps) with exps reduced mod q^d - 1 -> its DLCharacter
        self._dl_characters: dict[tuple[tuple, tuple], DLCharacter] = {}

    # -- unipotent characters ------------------------------------------------

    def unipotent_characters(self) -> dict:
        """partition of n -> index of the unipotent irreducible in the table."""
        if self._unipotent is not None:
            return self._unipotent
        g = self.group
        ind_b = induce_from_subgroup(g, g.borel_indices)
        coeffs = self.table.decompose_integers(ind_b)
        out = {}
        for lam in partitions_of(self.n):
            expected_mult = SYM_CHARS[self.n][lam][(1,) * self.n]
            expected_deg = unipotent_degree(lam, self.q)
            matches = [
                i
                for i, (c, d) in enumerate(zip(coeffs, self.table.degrees))
                if c == expected_mult and d == expected_deg
            ]
            if len(matches) != 1:
                raise RuntimeError(f"unipotent degree collision for {lam}")
            out[lam] = matches[0]
        self._unipotent = out
        return out

    def unipotent_class_index(self, lam: tuple) -> int:
        """Conjugacy class index of the unipotent class of Jordan type lam."""
        for ci, ssd in enumerate(self.ss):
            if ssd.label.is_central() and ssd.label.orbits[0][0] == self._identity_orbit:
                if ssd.partitions[self._identity_orbit] == lam:
                    return ci
        raise KeyError(f"no unipotent class of type {lam}")

    # -- Green functions -------------------------------------------------------

    def green_table(self) -> dict:
        """(torus cycle type, unipotent type) -> Q_{T_w}(u) = R_{T_w}(1)(u)."""
        if self._green is not None:
            return self._green
        out = {}
        for w_parts in partitions_of(self.n):
            r_w = dl_character_unipotent(self, w_parts)
            for lam in partitions_of(self.n):
                out[(w_parts, lam)] = r_w.values[self.unipotent_class_index(lam)].as_int()
        self._green = out
        return out


def dl_context(spec: GroupSpec | str, budget: int = DEFAULT_BUDGET) -> DLContext:
    """The one DL context of the GL group `spec` in this process.

    The group comes from `cached_group(spec, budget)`, so the budget refuses
    an over-budget spec and never keys the memo: every admitting budget gets
    the context of the same group object.
    """
    return _context(cached_group(spec, budget))


@lru_cache(maxsize=None)
def _context(group: GroupRealization) -> DLContext:
    return DLContext(group)


def green_function(q_power: int, m: int, pi: tuple, lam: tuple) -> int:
    """Q_{T_pi}^{GL_m(q_power)} evaluated at the unipotent class of type lam.

    GL_m(q_power) is a centralizer inside the GL_n(q) being modelled, never
    larger than it, so it comes from the ungated realization memo.
    """
    if m == 1:
        return 1
    return _context(_realization(GroupSpec("GL", m, q_power))).green_table()[(pi, lam)]


# ---------------------------------------------------------------------------
# torus characters and R_T(theta)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorusCharacter:
    """theta on T_w^F = prod F_{q^{d_i}}^x: generator i maps to
    zeta_{q^{d_i}-1}^{exps[i]}."""

    parts: tuple
    exps: tuple

    def __post_init__(self):
        if len(self.parts) != len(self.exps):
            raise ValueError("parts and exps must have the same length")


def classify_pair(ctx: DLContext, parts: tuple, exps: tuple) -> SemisimpleClassLabel:
    """The semisimple class label of the dual-side pair attached to (w, theta)."""
    tower = ctx.tower
    mults: dict[tuple[int, int], int] = {}
    for d, c in zip(parts, exps):
        key = tower.orbit_key(d, tower.point_dlog_for_theta(d, c))
        mults[key] = mults.get(key, 0) + d // key[0]
    return SemisimpleClassLabel(ctx.q, tuple(sorted(mults.items())))


@dataclass(frozen=True)
class DLCharacter:
    parts: tuple
    exps: tuple
    label: SemisimpleClassLabel
    class_function: ClassFunction
    decomposition: list  # integers over the irreducible basis

    def degree(self) -> int:
        return self.class_function.degree.as_int()


def _orbit_exponents_at(ctx: DLContext, key: tuple[int, int], d_i: int) -> list[int]:
    """Exponents (w.r.t. the generator of F_{q^{d_i}}) of the orbit elements."""
    tower = ctx.tower
    return [tower.embed_exponent(key[0], d_i, a) for a in tower.orbit_elements(key)]


def dl_character(ctx: DLContext, parts, exps: tuple = None) -> DLCharacter:
    """R_{T_w}(theta) as an exact class function with verified decomposition.

    Accepts either a TorusCharacter or the pair (cycle type, exponents).
    Each character is built once per context: exponents are reduced mod
    q^d - 1 and equal pairs return the same object.
    """
    if isinstance(parts, TorusCharacter):
        parts, exps = parts.parts, parts.exps
    parts = tuple(parts)
    exps = tuple(c % (ctx.q ** d - 1) for d, c in zip(parts, exps))
    if sum(parts) != ctx.n:
        raise ValueError("torus type must be a partition of n")
    key = (parts, exps)
    if key not in ctx._dl_characters:
        ctx._dl_characters[key] = _build_dl_character(ctx, parts, exps)
    return ctx._dl_characters[key]


def _build_dl_character(ctx: DLContext, parts: tuple, exps: tuple) -> DLCharacter:
    e = ctx.e
    data = ctx.group.conjugacy()
    # R(g_ci) = sum of weights[i] zeta_e^exponents[i] over the i with classes[i] == ci
    classes, exponents, weights = [], [], []
    for ci in range(data.n_classes):
        ssd = ctx.ss[ci]
        orbit_list = list(ssd.label.orbits)  # [((d0, j0), mult)]
        # per factor i and orbit slot j: the theta-sum exponent lists
        factor_options: list[dict[int, list[int]]] = []
        for d_i, c_i in zip(parts, exps):
            opts = {}
            for j, (key, _m) in enumerate(orbit_list):
                if d_i % key[0] == 0:
                    step = e // (ctx.q ** d_i - 1)
                    opts[j] = [
                        c_i * a % (ctx.q ** d_i - 1) * step % e
                        for a in _orbit_exponents_at(ctx, key, d_i)
                    ]
            factor_options.append(opts)
        total: dict[int, int] = {}
        _assign(
            ctx,
            orbit_list,
            ssd,
            factor_options,
            parts,
            0,
            [m for _, m in orbit_list],
            [[] for _ in orbit_list],
            {0: 1},
            total,
        )
        classes += [ci] * len(total)
        exponents += total.keys()
        weights += total.values()
    cf = root_sum_function(ctx.group, classes, exponents, weights)
    decomp = ctx.table.decompose_integers(cf)
    out = DLCharacter(
        parts=parts,
        exps=exps,
        label=classify_pair(ctx, parts, exps),
        class_function=cf,
        decomposition=decomp,
    )
    _verify_degree_identity(ctx, out)
    return out


def _assign(ctx, orbit_list, ssd, factor_options, parts, i, remaining, assigned, acc, total):
    """Recursive enumeration of torus points conjugate to the class's
    semisimple part, factorized through orbit assignments."""
    if i == len(parts):
        if any(remaining):
            return
        green = 1
        for j, (key, mult) in enumerate(orbit_list):
            pi = tuple(sorted(assigned[j], reverse=True))
            lam = ssd.partitions[key]
            green *= green_function(ctx.q ** key[0], mult, pi, lam)
            if green == 0:
                break
        if green == 0:
            return
        for exp_sum, coeff in acc.items():
            total[exp_sum] = total.get(exp_sum, 0) + coeff * green
        return
    d_i = parts[i]
    for j, exp_list in factor_options[i].items():
        use = d_i // orbit_list[j][0][0]
        if remaining[j] < use:
            continue
        remaining[j] -= use
        assigned[j].append(use)
        new_acc: dict[int, int] = {}
        for exp_sum, coeff in acc.items():
            for x in exp_list:
                key = (exp_sum + x) % ctx.e
                new_acc[key] = new_acc.get(key, 0) + coeff
        _assign(
            ctx, orbit_list, ssd, factor_options, parts, i + 1, remaining, assigned,
            new_acc, total,
        )
        assigned[j].pop()
        remaining[j] += use


def _verify_degree_identity(ctx: DLContext, r: DLCharacter) -> None:
    """R(1) = eps_G eps_T |G|_{p'} / |T_w^F| must hold exactly."""
    q, n = ctx.q, ctx.n
    order_p_prime = 1
    for i in range(1, n + 1):
        order_p_prime *= q**i - 1
    t_order = 1
    for d in r.parts:
        t_order *= q**d - 1
    sign = (-1) ** (n - len(r.parts))
    if r.degree() != sign * order_p_prime // t_order:
        raise AssertionError(
            f"degree identity fails for R_{r.parts}({r.exps}): {r.degree()}"
        )


def dl_character_unipotent(ctx: DLContext, parts: tuple) -> ClassFunction:
    """R_{T_w}(1) via the symmetric-group expansion over unipotent characters."""
    uni = ctx.unipotent_characters()
    acc = None
    for lam, idx in uni.items():
        coeff = SYM_CHARS[ctx.n][lam][tuple(parts)]
        if coeff:
            term = coeff * ctx.table.irreducibles[idx]
            acc = term if acc is None else acc + term
    return acc


def epsilon_group(family: str, n: int) -> int:
    """(-1)^(F-rank): GL_n is split of rank n, SL_n of rank n-1."""
    return (-1) ** n if family == "GL" else (-1) ** (n - 1)


def epsilon_torus(parts: tuple) -> int:
    """(-1)^(F-rank of T_w) for GL_n: the rank is the number of cycles."""
    return (-1) ** len(parts)


# ---------------------------------------------------------------------------
# Lusztig series
# ---------------------------------------------------------------------------


@dataclass
class SeriesTorusData:
    pi_tuple: tuple  # ((orbit_key, partition of its multiplicity), ...)
    parts: tuple
    exps: tuple
    decomposition: list


@dataclass
class LusztigSeries:
    label: SemisimpleClassLabel
    members: tuple  # sorted irreducible indices
    torus_data: list  # SeriesTorusData per maximal torus type of C(s)


def all_labels(ctx: DLContext) -> list[SemisimpleClassLabel]:
    """Every semisimple class label of GL_n(q)*, deterministically ordered."""
    orbits = ctx.tower.all_orbit_keys(ctx.n)
    out = []

    def rec(start: int, budget: int, chosen):
        if budget == 0:
            out.append(SemisimpleClassLabel(ctx.q, tuple(sorted(chosen))))
            return
        for oi in range(start, len(orbits)):
            d = orbits[oi][0]
            if d > budget:
                continue
            for m in range(1, budget // d + 1):
                rec(oi + 1, budget - d * m, chosen + [(orbits[oi], m)])

    rec(0, ctx.n, [])
    return sorted(out, key=lambda s: s.orbits)


def centralizer_torus_types(label: SemisimpleClassLabel):
    """Maximal torus types of C(s) = prod GL_{m_j}(q^{d_j}): partition tuples."""
    out = [[]]
    for key, m in label.orbits:
        new = []
        for prefix in out:
            for pi in partitions_of(m):
                new.append(prefix + [(key, pi)])
        out = new
    return [tuple(x) for x in out]


def representative_pair(ctx: DLContext, pi_tuple) -> tuple[tuple, tuple]:
    """A pair (w, theta) of geometric type pi_tuple inside the class of s."""
    factors = []
    for key, pi in pi_tuple:
        d0, j0 = key
        for c in pi:
            d_i = d0 * c
            point = ctx.tower.embed_exponent(d0, d_i, j0)
            factors.append((d_i, ctx.tower.theta_exponent_for_point(d_i, point)))
    factors.sort(key=lambda f: (-f[0], f[1]))
    parts = tuple(f[0] for f in factors)
    exps = tuple(f[1] for f in factors)
    return parts, exps


def lusztig_series(ctx: DLContext) -> list[LusztigSeries]:
    """The partition of Irr(GL_n(q)) into rational Lusztig series."""
    if ctx._series is not None:
        return ctx._series
    out = []
    seen: dict[int, SemisimpleClassLabel] = {}
    for label in all_labels(ctx):
        members: set[int] = set()
        tdata = []
        for pi_tuple in centralizer_torus_types(label):
            parts, exps = representative_pair(ctx, pi_tuple)
            r = dl_character(ctx, parts, exps)
            if r.label != label:
                raise AssertionError("representative pair has the wrong label")
            tdata.append(
                SeriesTorusData(
                    pi_tuple=pi_tuple, parts=parts, exps=exps,
                    decomposition=r.decomposition,
                )
            )
            members |= {i for i, c in enumerate(r.decomposition) if c}
        expected = 1
        for _key, m in label.orbits:
            expected *= sum(1 for _ in partitions_of(m))
        if len(members) != expected:
            raise AssertionError(
                f"series {label} has {len(members)} members, expected {expected}"
            )
        for i in members:
            if i in seen:
                raise AssertionError(f"irreducible {i} lies in two series")
            seen[i] = label
        out.append(LusztigSeries(label, tuple(sorted(members)), tdata))
    if len(seen) != len(ctx.table.irreducibles):
        raise AssertionError("Lusztig series do not cover Irr(G)")
    ctx._series = out
    return out


def unipotent_series(ctx: DLContext) -> LusztigSeries:
    ident = SemisimpleClassLabel(ctx.q, ((ctx.tower.orbit_key(1, 0), ctx.n),))
    return next(s for s in lusztig_series(ctx) if s.label == ident)


# ---------------------------------------------------------------------------
# transfer to SL_n by restriction
# ---------------------------------------------------------------------------


def pgl_label(ctx: DLContext, label: SemisimpleClassLabel) -> SemisimpleClassLabel:
    """The image of a GL label in PGL* classes: minimum over scalar shifts."""
    candidates = [label.scaled(ctx.tower, z) for z in range(ctx.q - 1)]
    return min(candidates, key=lambda s: s.orbits)


def label_stabilizer_order(ctx: DLContext, label: SemisimpleClassLabel) -> int:
    """#{z in F_q^x : z . label = label} (the component group order of the
    dual centralizer on the SL side)."""
    return sum(1 for z in range(ctx.q - 1) if label.scaled(ctx.tower, z) == label)


@dataclass
class SLSeries:
    label: SemisimpleClassLabel  # canonical PGL-side label (min over lifts)
    gl_lifts: list  # the GL labels mapping to it
    members: tuple  # sorted SL irreducible indices
    restriction_map: dict  # GL irr index (from the chosen lift) -> SL indices


def restrict_series(ctx: DLContext, sl_group: GroupRealization) -> list[SLSeries]:
    """Lusztig series of SL_n(q) as restrictions of the GL_n(q) series."""
    if ctx._sl_series is not None and ctx._sl_series[0] is sl_group:
        return ctx._sl_series[1]
    if sl_group.spec.family != "SL" or sl_group.q != ctx.q or sl_group.n != ctx.n:
        raise ValueError("restriction needs the matching SL_n(q)")
    sl_table = table_of(sl_group)
    gl_series = lusztig_series(ctx)
    by_label = {s.label: s for s in gl_series}
    grouped: dict[SemisimpleClassLabel, list[SemisimpleClassLabel]] = {}
    for s in gl_series:
        grouped.setdefault(pgl_label(ctx, s.label), []).append(s.label)
    out = []
    covered: set[int] = set()
    for bar_label in sorted(grouped, key=lambda s: s.orbits):
        lifts = sorted(grouped[bar_label], key=lambda s: s.orbits)
        member_sets = []
        restriction_map = {}
        for lift_no, lift in enumerate(lifts):
            members: set[int] = set()
            for i in by_label[lift].members:
                res = restrict_between_groups(ctx.table.irreducibles[i], sl_group)
                coeffs = sl_table.decompose_integers(res)
                if any(c not in (0, 1) for c in coeffs):
                    raise AssertionError("restriction is not multiplicity free")
                support = {j for j, c in enumerate(coeffs) if c}
                members |= support
                if lift_no == 0:
                    restriction_map[i] = tuple(sorted(support))
            member_sets.append(members)
        if any(ms != member_sets[0] for ms in member_sets[1:]):
            raise AssertionError("different lifts produce different SL series")
        members = tuple(sorted(member_sets[0]))
        if covered & set(members):
            raise AssertionError("SL series overlap")
        covered |= set(members)
        out.append(SLSeries(bar_label, lifts, members, restriction_map))
    if len(covered) != len(sl_table.irreducibles):
        raise AssertionError("SL series do not cover Irr(SL)")
    ctx._sl_series = (sl_group, out)
    return out


# ---------------------------------------------------------------------------
# invariant verification entry points
# ---------------------------------------------------------------------------


def enumerate_all_pairs(ctx: DLContext):
    """Every (torus type, theta) pair; exhaustive, so only for small q^n."""
    import itertools

    out = []
    for parts in partitions_of(ctx.n):
        ranges = [range(ctx.q**d - 1) for d in parts]
        for exps in itertools.product(*ranges):
            out.append((tuple(parts), tuple(exps)))
    return out


def enumerate_type_pairs(ctx: DLContext):
    """One pair per (label, centralizer torus type): W-orbit representatives."""
    out = []
    for label in all_labels(ctx):
        for pi_tuple in centralizer_torus_types(label):
            out.append(representative_pair(ctx, pi_tuple))
    return out


def twisted_identification_count(q, parts1, exps1, parts2, exps2) -> int:
    """#(twisted Weyl elements carrying theta to theta'): the right side of
    the exclusion-theorem inner product formula."""
    import itertools

    if sorted(parts1) != sorted(parts2):
        return 0
    count = 0
    for sigma in itertools.permutations(range(len(parts1))):
        if any(parts1[i] != parts2[sigma[i]] for i in range(len(parts1))):
            continue
        ways = 1
        for i, d in enumerate(parts1):
            mod = q**d - 1
            ways *= sum(
                1 for t in range(d) if exps1[i] * q**t % mod == exps2[sigma[i]] % mod
            )
        count += ways
    return count


def verify_dl_invariants(ctx: DLContext, exhaustive: bool = True) -> list[dict]:
    """Degree identity and exclusion-theorem orthogonality for DL characters.

    In exhaustive mode every (w, theta) is enumerated and all N(N+1)/2
    identities <R_i, R_j> = T_ij (T the twisted identification counts) are
    proved at once by `chartable.gram_certificate`: each R_i is checked
    Galois-equivariant, which makes the Gram sum_k s_k R_i(g_k) conj(R_j(g_k))
    an integer matrix, compared with |G| T at one embedding of Z[zeta_e]
    modulo enough primes.  Only a failing pair has its inner product
    computed, for the report.  In type mode one pair per W-orbit is
    used and inner products are taken through the exactly verified
    decomposition vectors.
    """
    import itertools

    pairs = enumerate_all_pairs(ctx) if exhaustive else enumerate_type_pairs(ctx)
    chars = [dl_character(ctx, *p) for p in pairs]  # degree identity enforced
    rows = [
        {
            "check": "degree-identity",
            "pair": str(p),
            "ok": True,
            "detail": f"R{p} has degree {r.degree()}",
        }
        for p, r in zip(pairs, chars)
    ]
    index_pairs = list(itertools.combinations_with_replacement(range(len(pairs)), 2))
    counts = np.zeros((len(pairs), len(pairs)), dtype=np.int64)
    for i, j in index_pairs:
        (parts1, exps1), (parts2, exps2) = pairs[i], pairs[j]
        counts[i, j] = counts[j, i] = twisted_identification_count(
            ctx.q, parts1, exps1, parts2, exps2
        )
    functions = [r.class_function for r in chars]
    if exhaustive:
        verdict = gram_certificate(ctx.group, functions, ctx.group.order * counts)[0]
    else:
        decompositions = np.array([r.decomposition for r in chars], dtype=np.int64)
        decomposition_gram = decompositions @ decompositions.T
    for i, j in index_pairs:
        expected = int(counts[i, j])
        if exhaustive:
            ok = bool(verdict[i, j])
            got = expected if ok else inner_product(functions[i], functions[j])
        else:
            got = int(decomposition_gram[i, j])
            ok = got == expected
        rows.append(
            {
                "check": "exclusion-orthogonality",
                "pair": f"{pairs[i]} vs {pairs[j]}",
                "ok": ok,
                "detail": f"<R,R'> = {got}, twisted identifications = {expected}",
            }
        )
    return rows


def verify_torus_lemma(ctx: DLContext, exhaustive: bool = True) -> list[dict]:
    """R_{T, theta} o iota = R_{T, theta^-1} as exact class functions, and
    the label of the twisted pair is the inverse label."""
    from .automorphisms import duality_involution
    from .chartable import twist_by_automorphism

    iota = duality_involution(ctx.group)
    pairs = enumerate_all_pairs(ctx) if exhaustive else enumerate_type_pairs(ctx)
    rows = []
    for parts, exps in pairs:
        r = dl_character(ctx, parts, exps)
        mods = [ctx.q**d - 1 for d in parts]
        inv = dl_character(ctx, parts, tuple(-c % m for c, m in zip(exps, mods)))
        twisted = twist_by_automorphism(r.class_function, iota)
        ok = twisted == inv.class_function and inv.label == r.label.inverse(ctx.tower)
        rows.append(
            {
                "check": "torus-pair-inversion",
                "pair": str((parts, exps)),
                "ok": bool(ok),
                "detail": f"label {r.label.canonical_string()} -> "
                f"{inv.label.canonical_string()}",
            }
        )
    return rows


def epsilon_sign(descriptor) -> int:
    """(-1)^(F-rank) for a group spec ("GL2(3)"), a GroupSpec, a TorusClass,
    or a torus cycle type given as a partition tuple."""
    from .groups import GroupSpec, TorusClass

    if isinstance(descriptor, str):
        descriptor = GroupSpec.parse(descriptor)
    if isinstance(descriptor, GroupSpec):
        return epsilon_group(descriptor.family, descriptor.n)
    if isinstance(descriptor, TorusClass):
        return (-1) ** descriptor.f_rank
    if isinstance(descriptor, tuple):
        return epsilon_torus(descriptor)
    raise TypeError(f"no F-rank convention for {descriptor!r}")
