"""Deligne-Lusztig virtual characters for GL_n(q), n <= 3, Lusztig series,
semisimple class labels in the dual group, and transfer to SL_n.

The virtual character R_{T_w}(theta) comes from the character formula

    R(su) = sum over t in T_w^F conjugate to s of theta(t) * Q_{S_t}^{C(s)}(u)

whose Green factors Q are Green's (1955) closed-form polynomials of the
centralizers GL_m(q^d), m <= 3.  The points t, their Green weights and their
torus exponents depend on the torus type w alone, and theta enters only
through sum_i c_i a_i(t), so one term table per type gives every theta of the
type by one integer product.  Every output is decomposed exactly over Irr(G)
and checked against the degree identity, and the exclusion-theorem inner
products of all (w, theta) pairs are certified at once.

Classes are labelled by construction.  A class of GL_n(q) is a semisimple
label s with one partition of each eigenvalue orbit's multiplicity (Green
1955), the index of the pairs (s, Uch(C(s))); `class_ss_data` builds each
pair's matrix in rational canonical form, looks it up, and requires the pairs
to meet every class exactly once.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, gcd, prod

import numpy as np

from .chartable import (
    ClassFunction,
    gram_certificate,
    inner_product,
    restriction_gather,
    root_sum_function,
    table_of,
)
from .finitefield import field_embedding, finite_field
from .groups import (
    DEFAULT_BUDGET,
    GroupRealization,
    GroupSpec,
    cached_group,
)

# ---------------------------------------------------------------------------
# symmetric group characters and Green functions (n <= 3)
# ---------------------------------------------------------------------------


def partitions_of(n: int):
    """The partitions of n, parts descending, in reverse lexicographic order:
    the cycle types of W = S_n, which index the torus types."""
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in partitions_of(n - first):
            if not rest or first >= rest[0]:
                yield (first,) + rest


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


def green_function(q: int, m: int, pi: tuple, lam: tuple) -> int:
    """Green's polynomial Q_{T_pi}^{GL_m(q)} = R_{T_pi}(1) at the unipotent
    class of Jordan type lam, in closed form for m <= 3 (Green 1955).

    At the identity it is the degree eps_G eps_T |GL_m(q)|_p' / |T_pi^F|, and
    at the regular unipotent class it is 1.
    """
    if m > 3:
        raise ValueError(f"no closed-form Green function of GL_{m}")
    return {
        ((1,), (1,)): 1,
        ((1, 1), (1, 1)): q + 1,
        ((1, 1), (2,)): 1,
        ((2,), (1, 1)): 1 - q,
        ((2,), (2,)): 1,
        ((1, 1, 1), (1, 1, 1)): (q + 1) * (q * q + q + 1),
        ((1, 1, 1), (2, 1)): 2 * q + 1,
        ((1, 1, 1), (3,)): 1,
        ((2, 1), (1, 1, 1)): 1 - q**3,
        ((2, 1), (2, 1)): 1,
        ((2, 1), (3,)): 1,
        ((3,), (1, 1, 1)): (q - 1) ** 2 * (q + 1),
        ((3,), (2, 1)): 1 - q,
        ((3,), (3,)): 1,
    }[(pi, lam)]


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
        self._emb_exp: dict[tuple[int, int], int] = {(d, d): 1 for d in (1, 2, 3)}
        small = self.fields[1]
        for d in (2, 3):
            big = self.fields[d]
            self._emb_exp[(1, d)] = big.log[field_embedding(small, big)(small.generator_code)]
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
# the DL context: one realized GL_n(q) with its table and class labels
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
        # memos of the series and Jordan layers; the SL-side ones are
        # (sl_group, value) pairs, valid only for that group object
        self._series = None
        self._sl_series = None
        self._jordan = None
        self._disconnected = None
        # (parts, exps) with exps reduced mod q^d - 1 -> its DLCharacter; the
        # first request fills in every pair, and `dl_rows` holds their flat
        # arrays in `enumerate_all_pairs` order, the class functions' rows
        self._dl_characters: dict[tuple[tuple, tuple], DLCharacter] = {}
        self.dl_rows: np.ndarray | None = None


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


def dl_character(ctx: DLContext, parts, exps: tuple = None) -> DLCharacter:
    """R_{T_w}(theta) as an exact class function with verified decomposition.

    Accepts either a TorusCharacter or the pair (cycle type, exponents).
    Exponents are reduced mod q^d - 1 and equal pairs return the same object:
    the first request builds every pair at once (`_build_dl_characters`).
    """
    if isinstance(parts, TorusCharacter):
        parts, exps = parts.parts, parts.exps
    parts = tuple(parts)
    exps = tuple(c % (ctx.q ** d - 1) for d, c in zip(parts, exps))
    if sum(parts) != ctx.n or list(parts) != sorted(parts, reverse=True):
        raise ValueError("torus type must be a partition of n, parts descending")
    if ctx.dl_rows is None:
        _build_dl_characters(ctx)
    return ctx._dl_characters[(parts, exps)]


def _build_dl_characters(ctx: DLContext) -> None:
    """R_{T_w}(theta) for every pair (w, theta), into the memo: the rows of
    one matrix in `enumerate_all_pairs` order, the exponents of a torus
    type's thetas from one product with its `_torus_type_terms`, decomposed
    over Irr(G) by one call and checked against the degree identity
    R(1) = eps_G eps_T |G|_p' / |T_w^F|."""
    q, e = ctx.q, ctx.e
    pairs = enumerate_all_pairs(ctx)
    flat = np.zeros((len(pairs), ctx.table.rows.shape[1]), dtype=np.int64)
    row = 0
    for parts in partitions_of(ctx.n):
        classes, points, weights = _torus_type_terms(ctx, parts)
        thetas = np.array(list(itertools.product(*(range(q**d - 1) for d in parts))), dtype=np.int64)
        for exponents in thetas @ points.T % e:
            flat[row] = root_sum_function(ctx.group, classes, exponents, weights).flat
            row += 1
    flat.flags.writeable = False
    order = prod(q**i - 1 for i in range(1, ctx.n + 1))
    for (parts, exps), f, decomposition in zip(pairs, flat, ctx.table.decompose_integers(flat).tolist()):
        r = DLCharacter(parts, exps, classify_pair(ctx, parts, exps), ClassFunction(ctx.group, f), decomposition)
        if r.degree() != (-1) ** (ctx.n - len(parts)) * order // prod(q**d - 1 for d in parts):
            raise AssertionError(f"degree identity fails for R_{parts}({exps}): {r.degree()}")
        ctx._dl_characters[(parts, exps)] = r
    ctx.dl_rows = flat


def _torus_type_terms(ctx: DLContext, parts: tuple):
    """The term table of the torus type `parts`: (classes, points, weights).

    It has one row per point t of T_w^F = prod F_{q^{d_i}}^x conjugate to
    the semisimple part of a class: that class, the exponent vector A(t),
    with theta_c(t) = zeta_e^(A(t) . c), and the Green weight
    prod_j Q^{GL_{m_j}(q^{d_j})}(u).  Factor i lands in an eigenvalue orbit of
    degree d_j dividing d_i and takes d_i / d_j of its multiplicity m_j; an
    assignment that fills every multiplicity exactly gives C(s)'s torus type,
    and each factor then runs over the d_j orbit points embedded in
    F_{q^{d_i}}, with the step e / (q^{d_i} - 1) folded in.
    """
    q, e, tower = ctx.q, ctx.e, ctx.tower
    classes, points, weights = [], [], []
    for ci, ssd in enumerate(ctx.ss):
        orbits = ssd.label.orbits
        options = [
            [
                (j, d // key[0], [tower.embed_exponent(key[0], d, a) * (e // (q**d - 1)) % e
                                  for a in tower.orbit_elements(key)])
                for j, (key, _m) in enumerate(orbits)
                if d % key[0] == 0
            ]
            for d in parts
        ]
        for assignment in itertools.product(*options):
            uses = [[] for _ in orbits]
            for j, use, _ in assignment:
                uses[j].append(use)
            if any(sum(u) != m for u, (_key, m) in zip(uses, orbits)):
                continue
            weight = 1
            for u, (key, m) in zip(uses, orbits):
                weight *= green_function(q ** key[0], m, tuple(sorted(u, reverse=True)), ssd.partitions[key])
            for point in itertools.product(*(exps for _, _, exps in assignment)):
                classes.append(ci)
                points.append(point)
                weights.append(weight)
    return np.array(classes), np.array(points, dtype=np.int64), np.array(weights)


def epsilon_group(family: str, n: int) -> int:
    """(-1)^(F-rank): GL_n is split of rank n, SL_n of rank n-1."""
    return (-1) ** n if family == "GL" else (-1) ** (n - 1)


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


# ---------------------------------------------------------------------------
# transfer to SL_n by restriction
# ---------------------------------------------------------------------------


def pgl_label(ctx: DLContext, label: SemisimpleClassLabel) -> SemisimpleClassLabel:
    """The image of a GL label in PGL* classes: minimum over scalar shifts."""
    candidates = [label.scaled(ctx.tower, z) for z in range(ctx.q - 1)]
    return min(candidates, key=lambda s: s.orbits)


def label_stabilizer(ctx: DLContext, label: SemisimpleClassLabel) -> list[int]:
    """The exponents z < q - 1 with z . label = label; their count is the
    component group order of the dual centralizer on the SL side."""
    return [z for z in range(ctx.q - 1) if label.scaled(ctx.tower, z) == label]


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
    # every GL irreducible restricted: one gather of the table, one decomposition
    coeffs = sl_table.decompose_integers(ctx.table.rows[:, restriction_gather(sl_group, ctx.group)])
    if ((coeffs != 0) & (coeffs != 1)).any():
        raise AssertionError("restriction is not multiplicity free")
    support = [tuple(np.flatnonzero(c).tolist()) for c in coeffs]
    grouped: dict[SemisimpleClassLabel, list[SemisimpleClassLabel]] = {}
    for s in gl_series:
        grouped.setdefault(pgl_label(ctx, s.label), []).append(s.label)
    out = []
    covered: set[int] = set()
    for bar_label in sorted(grouped, key=lambda s: s.orbits):
        lifts = sorted(grouped[bar_label], key=lambda s: s.orbits)
        member_sets = [{j for i in by_label[lift].members for j in support[i]} for lift in lifts]
        restriction_map = {i: support[i] for i in by_label[lifts[0]].members}
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
    """Every (torus type, theta) pair: types in `partitions_of` order, theta
    exponents in lexicographic order, as Python ints."""
    return [
        (parts, exps)
        for parts in partitions_of(ctx.n)
        for exps in itertools.product(*(range(ctx.q**d - 1) for d in parts))
    ]


def twisted_identifications(q: int, pairs) -> np.ndarray:
    """T[i, j] = #(twisted Weyl elements carrying theta_i to theta_j), the
    right side of the exclusion-theorem inner product formula.

    Such an element permutes the torus factors, preserving degrees, and
    applies a Frobenius power on each.  A factor (d, c) has the q-power orbit
    of c mod q^d - 1, of length l, and d / l powers carry c to each orbit
    point.  So T[i, j] is 0 unless the pairs have equal keys, the sorted
    (d, least orbit point, l) of their factors, and then it is
    prod m! (d / l)^m over the distinct key entries of multiplicity m.
    """
    ids, stabilizers, index = [], [], {}
    for parts, exps in pairs:
        orbits = [(d, {c * q**t % (q**d - 1) for t in range(d)}) for d, c in zip(parts, exps)]
        key = tuple(sorted((d, min(orbit), len(orbit)) for d, orbit in orbits))
        stabilizer = 1
        for (d, _point, length), m in Counter(key).items():
            stabilizer *= factorial(m) * (d // length) ** m
        ids.append(index.setdefault(key, len(index)))
        stabilizers.append(stabilizer)
    ids = np.array(ids)
    return np.where(ids[:, None] == ids[None, :], np.array(stabilizers, dtype=np.int64)[:, None], 0)


def verify_dl_invariants(ctx: DLContext) -> list[dict]:
    """Degree identity and exclusion-theorem orthogonality for every
    (w, theta) pair.

    All N(N+1)/2 identities <R_i, R_j> = T_ij (T from
    `twisted_identifications`) are proved at once by
    `chartable.gram_certificate`: each R_i is checked Galois-equivariant,
    which makes the Gram sum_k s_k R_i(g_k) conj(R_j(g_k)) an integer matrix,
    compared with |G| T at one embedding of Z[zeta_e] modulo enough primes.
    Only a failing pair has its inner product computed, for the report.
    """
    pairs = enumerate_all_pairs(ctx)
    chars = [dl_character(ctx, *p) for p in pairs]  # degree identity enforced
    names = [str(p) for p in pairs]
    rows = [
        {
            "check": "degree-identity",
            "pair": name,
            "ok": True,
            "detail": f"R{name} has degree {r.degree()}",
        }
        for name, r in zip(names, chars)
    ]
    counts = twisted_identifications(ctx.q, pairs)
    functions = [r.class_function for r in chars]  # the rows of ctx.dl_rows
    verdict = gram_certificate(ctx.group, ctx.dl_rows, ctx.group.order * counts)[0].tolist()
    counts = counts.tolist()
    for i, j in itertools.combinations_with_replacement(range(len(pairs)), 2):
        expected, ok = counts[i][j], verdict[i][j]
        got = expected if ok else inner_product(functions[i], functions[j])
        rows.append(
            {
                "check": "exclusion-orthogonality",
                "pair": f"{names[i]} vs {names[j]}",
                "ok": ok,
                "detail": f"<R,R'> = {got}, twisted identifications = {expected}",
            }
        )
    return rows


def verify_torus_lemma(ctx: DLContext) -> list[dict]:
    """R_{T, theta} o iota = R_{T, theta^-1} as exact class functions, and
    the label of the twisted pair is the inverse label, for every pair."""
    from .automorphisms import duality_involution
    from .chartable import twist_by_automorphism

    iota = duality_involution(ctx.group)
    rows = []
    for parts, exps in enumerate_all_pairs(ctx):
        r = dl_character(ctx, parts, exps)
        inv = dl_character(ctx, parts, tuple(-c for c in exps))  # reduced mod q^d - 1
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
