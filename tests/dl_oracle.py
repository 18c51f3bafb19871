"""Independent Deligne-Lusztig oracles for the tests.

- The unipotent characters of GL_n(q), read off the decomposition of the
  Borel induction 1_B^G by multiplicity and degree.
- R_{T_w}(1) as the symmetric-group expansion over them, and the Green
  functions Q_{T_w}(u) = R_{T_w}(1)(u) it gives on each unipotent class.
- R_{T_w}(theta) one theta at a time: a recursion over the assignments of
  torus factors to eigenvalue orbits, with the Green factors of the
  centralizers GL_m(q^d) taken from their own contexts' unipotent
  characters.  It shares no code with the package's per-type term tables
  but `root_sum_function`, the decomposition and `classify_pair`.
"""

from functools import lru_cache

from redchar.chartable import induce_from_subgroup, root_sum_function
from redchar.dl import SYM_CHARS, DLCharacter, classify_pair, dl_context, partitions_of
from reference import borel_indices, values


def unipotent_degree(partition: tuple, q: int) -> int:
    """Degree of the unipotent character of GL_n(q) labelled by a partition:
    (n) is the trivial character and (1^n) the Steinberg character; the
    degrees are pairwise distinct for n <= 3 and every q >= 2."""
    n = sum(partition)
    if partition == (n,):
        return 1
    if n == 2:
        return q
    if n == 3:
        return q * (q + 1) if partition == (2, 1) else q**3
    raise ValueError(f"no degree polynomial for partition {partition}")


def unipotent_characters(ctx) -> dict:
    """partition of n -> index of the unipotent irreducible in the table."""
    g = ctx.group
    coeffs = ctx.table.decompose_integers(induce_from_subgroup(g, borel_indices(g)).flat[None])[0].tolist()
    out = {}
    for lam in partitions_of(ctx.n):
        expected = (SYM_CHARS[ctx.n][lam][(1,) * ctx.n], unipotent_degree(lam, ctx.q))
        matches = [i for i, cd in enumerate(zip(coeffs, ctx.table.degrees)) if cd == expected]
        assert len(matches) == 1, f"unipotent degree collision for {lam}"
        out[lam] = matches[0]
    return out


def unipotent_class_index(ctx, lam: tuple) -> int:
    """Conjugacy class index of the unipotent class of Jordan type lam."""
    identity = ctx.tower.orbit_key(1, 0)
    return next(
        ci
        for ci, ssd in enumerate(ctx.ss)
        if ssd.label.orbits == ((identity, ctx.n),) and ssd.partitions[identity] == lam
    )


def dl_character_unipotent(ctx, parts: tuple):
    """R_{T_w}(1) via the symmetric-group expansion over unipotent characters."""
    acc = None
    for lam, idx in unipotent_characters(ctx).items():
        coeff = SYM_CHARS[ctx.n][lam][tuple(parts)]
        if coeff:
            term = coeff * ctx.table.irreducibles[idx]
            acc = term if acc is None else acc + term
    return acc


def green_table(ctx) -> dict:
    """(torus cycle type, unipotent type) -> Q_{T_w}(u) = R_{T_w}(1)(u)."""
    out = {}
    for w_parts in partitions_of(ctx.n):
        r_w = dl_character_unipotent(ctx, w_parts)
        for lam in partitions_of(ctx.n):
            out[(w_parts, lam)] = values(r_w)[unipotent_class_index(ctx, lam)].as_int()
    return out


@lru_cache(maxsize=None)
def _green_values(m: int, q: int) -> dict:
    return green_table(dl_context(f"GL{m}({q})"))


def green_function_oracle(q: int, m: int, pi: tuple, lam: tuple) -> int:
    """Q_{T_pi}^{GL_m(q)} at the unipotent class of type lam, from GL_m(q)'s
    own unipotent characters."""
    return 1 if m == 1 else _green_values(m, q)[(pi, lam)]


def build_dl_character(ctx, parts: tuple, exps: tuple) -> DLCharacter:
    """R_{T_w}(theta) for one theta, by the recursion over orbit assignments."""
    q, e, tower = ctx.q, ctx.e, ctx.tower
    classes, exponents, weights = [], [], []
    for ci, ssd in enumerate(ctx.ss):
        orbit_list = list(ssd.label.orbits)  # [((d0, j0), mult)]
        # per factor i and orbit slot j: the theta-sum exponent lists
        factor_options = []
        for d_i, c_i in zip(parts, exps):
            step = e // (q**d_i - 1)
            factor_options.append({
                j: [c_i * tower.embed_exponent(key[0], d_i, a) % (q**d_i - 1) * step % e
                    for a in tower.orbit_elements(key)]
                for j, (key, _m) in enumerate(orbit_list)
                if d_i % key[0] == 0
            })
        total: dict[int, int] = {}
        _assign(ctx, orbit_list, ssd, factor_options, parts, 0,
                [m for _, m in orbit_list], [[] for _ in orbit_list], {0: 1}, total)
        classes += [ci] * len(total)
        exponents += total.keys()
        weights += total.values()
    cf = root_sum_function(ctx.group, classes, exponents, weights)
    return DLCharacter(
        parts=parts,
        exps=exps,
        label=classify_pair(ctx, parts, exps),
        class_function=cf,
        decomposition=ctx.table.decompose_integers(cf.flat[None])[0].tolist(),
    )


def _assign(ctx, orbit_list, ssd, factor_options, parts, i, remaining, assigned, acc, total):
    """Enumerate the torus points conjugate to the class's semisimple part,
    factor by factor, through the orbit each factor lands in."""
    if i == len(parts):
        if any(remaining):
            return
        green = 1
        for j, (key, mult) in enumerate(orbit_list):
            pi = tuple(sorted(assigned[j], reverse=True))
            green *= green_function_oracle(ctx.q ** key[0], mult, pi, ssd.partitions[key])
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
        _assign(ctx, orbit_list, ssd, factor_options, parts, i + 1, remaining, assigned,
                new_acc, total)
        assigned[j].pop()
        remaining[j] += use
