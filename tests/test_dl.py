import hashlib
import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest

from redchar import dl
from redchar.automorphisms import duality_involution
from redchar.chartable import (
    ClassFunction,
    _packed_context,
    dual_character,
    gram_certificate,
    inner_product,
    root_sum_function,
    twist_by_automorphism,
)
from redchar.dl import (
    all_labels,
    classify_pair,
    dl_character,
    dl_context,
    enumerate_all_pairs,
    epsilon_group,
    green_function,
    label_stabilizer,
    lusztig_series,
    restrict_series,
    twisted_identifications,
)
from redchar.groups import cached_group

from dl_oracle import build_dl_character, dl_character_unipotent, green_table, unipotent_characters
from reference import borel_indices, is_central, unipotent_series, values


def all_pairs(ctx):
    """Every (torus type, theta) pair for the context's group."""
    out = []
    from redchar.dl import partitions_of

    for parts in partitions_of(ctx.n):
        ranges = [range(ctx.q**d - 1) for d in parts]
        for exps in itertools.product(*ranges):
            # avoid double counting conjugate pairs with equal parts swapped:
            # enumerate all; the inner-product identity holds regardless
            out.append((tuple(parts), tuple(exps)))
    return out


def twisted_identifications_oracle(q, parts1, exps1, parts2, exps2):
    """#(twisted Weyl elements carrying theta to theta'): independent count.

    Elements are pairs (sigma, t): sigma a degree-preserving bijection of
    torus factors, t_i a Frobenius power on factor i, with
    exps2[sigma(i)] = exps1[i] * q^(t_i) mod (q^(d_i) - 1).
    """
    if sorted(parts1) != sorted(parts2):
        return 0
    n_factors = len(parts1)
    count = 0
    for sigma in itertools.permutations(range(n_factors)):
        if any(parts1[i] != parts2[sigma[i]] for i in range(n_factors)):
            continue
        ways = 1
        for i in range(n_factors):
            mod = q ** parts1[i] - 1
            ways *= sum(
                1
                for t in range(parts1[i])
                if exps1[i] * q**t % mod == exps2[sigma[i]] % mod
            )
        count += ways
    return count


def test_epsilon_signs():
    assert epsilon_group("GL", 2) == 1
    assert epsilon_group("GL", 3) == -1
    assert epsilon_group("SL", 2) == -1


def test_unipotent_characters_gl2_gl3():
    ctx = dl_context("GL2(3)")
    uni = unipotent_characters(ctx)
    assert len(uni) == 2  # p(2)
    assert ctx.table.degrees[uni[(2,)]] == 1
    assert ctx.table.degrees[uni[(1, 1)]] == 3
    ctx3 = dl_context("GL3(2)")
    uni3 = unipotent_characters(ctx3)
    assert len(uni3) == 3  # p(3)
    assert ctx3.table.degrees[uni3[(3,)]] == 1
    assert ctx3.table.degrees[uni3[(2, 1)]] == 6  # q^2 + q
    assert ctx3.table.degrees[uni3[(1, 1, 1)]] == 8  # q^3


def test_green_functions_gl2():
    # classical values: Q_split(1) = q+1, Q_split(u) = 1, Q_cox(1) = 1-q
    q = 3
    assert green_function(q, 2, (1, 1), (1, 1)) == q + 1
    assert green_function(q, 2, (1, 1), (2,)) == 1
    assert green_function(q, 2, (2,), (1, 1)) == 1 - q
    assert green_function(q, 2, (2,), (2,)) == 1
    assert green_function(q, 1, (1,), (1,)) == 1


def test_dl_character_examples_gl2_3():
    ctx = dl_context("GL2(3)")
    uni = unipotent_characters(ctx)
    r_split = dl_character(ctx, (1, 1), (0, 0))
    assert r_split.decomposition[uni[(2,)]] == 1
    assert r_split.decomposition[uni[(1, 1)]] == 1
    r_cox = dl_character(ctx, (2,), (0,))
    assert r_cox.decomposition[uni[(2,)]] == 1
    assert r_cox.decomposition[uni[(1, 1)]] == -1
    # general position theta on the Coxeter torus: irreducible cuspidal of
    # degree q - 1 with overall sign -1
    r = dl_character(ctx, (2,), (1,))
    assert r.degree() == -(3 - 1)
    assert sorted(r.decomposition) == [-1] + [0] * 7


def test_theta_one_routes_agree():
    for name in ["GL2(3)", "GL3(2)"]:
        ctx = dl_context(name)
        from redchar.dl import partitions_of

        for parts in partitions_of(ctx.n):
            general = dl_character(ctx, parts, (0,) * len(parts))
            expansion = dl_character_unipotent(ctx, parts)
            assert general.class_function == expansion


def test_exclusion_theorem_gl2_3_exhaustive():
    ctx = dl_context("GL2(3)")
    pairs = all_pairs(ctx)
    chars = {p: dl_character(ctx, *p) for p in pairs}
    for p1, p2 in itertools.combinations_with_replacement(pairs, 2):
        lhs = inner_product(chars[p1].class_function, chars[p2].class_function)
        rhs = twisted_identifications_oracle(3, p1[0], p1[1], p2[0], p2[1])
        assert lhs == rhs, (p1, p2)


def test_exclusion_theorem_gl3_2_exhaustive():
    ctx = dl_context("GL3(2)")
    pairs = all_pairs(ctx)
    chars = {p: dl_character(ctx, *p) for p in pairs}
    for p1, p2 in itertools.combinations_with_replacement(pairs, 2):
        lhs = inner_product(chars[p1].class_function, chars[p2].class_function)
        rhs = twisted_identifications_oracle(2, p1[0], p1[1], p2[0], p2[1])
        assert lhs == rhs, (p1, p2)


def _dl_gram(name):
    """Context, DL characters of every pair, their class functions and the
    oracle's twisted identification counts."""
    ctx = dl_context(name)
    pairs = all_pairs(ctx)
    chars = [dl_character(ctx, *p) for p in pairs]
    functions = [r.class_function for r in chars]
    counts = np.array(
        [[twisted_identifications_oracle(ctx.q, *p1, *p2) for p2 in pairs] for p1 in pairs],
        dtype=np.int64,
    )
    return ctx, chars, functions, counts


def _stacked(functions):
    return np.stack([f.flat for f in functions])


def _pairwise_verdicts(chars, target):
    return np.array(
        [
            [
                inner_product(a.class_function, b.class_function) == target[i, j]
                and inner_product(b.class_function, a.class_function) == target[j, i]
                for j, b in enumerate(chars)
            ]
            for i, a in enumerate(chars)
        ]
    )


@pytest.mark.parametrize("name", ["GL2(3)", "GL2(4)", "GL3(2)"])
def test_dl_gram_certificate_matches_pairwise_inner_products(name):
    ctx, chars, functions, counts = _dl_gram(name)
    order = ctx.group.order
    verdict, primes = gram_certificate(ctx.group, _stacked(functions), order * counts)
    assert primes
    assert verdict.all()
    assert (verdict == _pairwise_verdicts(chars, counts)).all()
    # a target off by one on a few symmetric entries: the same pairs fail
    wrong = counts.copy()
    for i, j in [(0, 0), (1, 5), (3, 2)]:
        wrong[i, j] += 1
        wrong[j, i] = wrong[i, j]
    verdict = gram_certificate(ctx.group, _stacked(functions), order * wrong)[0]
    assert (verdict == _pairwise_verdicts(chars, wrong)).all()
    assert set(map(tuple, np.argwhere(~verdict).tolist())) == {
        (0, 0), (1, 5), (5, 1), (2, 3), (3, 2)
    }


def test_dl_gram_certificate_flags_a_perturbed_target_entry():
    ctx, _chars, functions, counts = _dl_gram("GL2(3)")
    target = ctx.group.order * counts
    target[2, 7] += 1  # one entry, not its transpose
    verdict = gram_certificate(ctx.group, _stacked(functions), target)[0]
    assert set(map(tuple, np.argwhere(~verdict).tolist())) == {(2, 7), (7, 2)}


def test_dl_gram_certificate_flags_a_perturbed_character():
    ctx, _chars, functions, counts = _dl_gram("GL2(3)")
    ident = int(ctx.group.conjugacy().cls[ctx.group.identity_idx])
    i = 5
    # R_i(1) + 1: every R_j(1) is a nonzero degree, so every pair with i moves
    functions[i] = functions[i] + root_sum_function(ctx.group, [ident])
    verdict = gram_certificate(ctx.group, _stacked(functions), ctx.group.order * counts)[0]
    bad = np.zeros_like(verdict)
    bad[i, :] = bad[:, i] = True
    assert (verdict == ~bad).all()


def test_dl_gram_certificate_flags_a_character_broken_at_one_irrational_coordinate():
    ctx, _chars, functions, counts = _dl_gram("GL2(3)")
    i, k = next(
        (i, k)
        for i, f in enumerate(functions)
        for k, v in enumerate(values(f))
        if not v.is_rational()
    )
    pc = _packed_context(ctx.group)
    flat = functions[i].flat.copy()
    flat[pc.row_start[k] + 1] += 1  # the coefficient of zeta_m in the value at class k
    functions[i] = ClassFunction(ctx.group, flat)
    verdict = gram_certificate(ctx.group, _stacked(functions), ctx.group.order * counts)[0]
    bad = np.zeros_like(verdict)
    bad[i, :] = bad[:, i] = True
    assert (verdict == ~bad).all()


def test_dl_invariants_prove_passing_pairs_without_inner_products(monkeypatch):
    def no_inner_product(f, g):
        raise AssertionError("a passing pair computed an inner product")

    monkeypatch.setattr(dl, "inner_product", no_inner_product)
    rows = dl.verify_dl_invariants(dl_context("GL2(3)"))
    assert all(row["ok"] for row in rows)


def test_dl_invariants_report_a_failing_pair_with_its_inner_product(monkeypatch):
    ctx = dl_context("GL2(3)")
    pairs = all_pairs(ctx)
    p1, p2 = pairs[1], pairs[6]
    counts = dl.twisted_identifications

    def off_by_one(q, pairs):
        out = counts(q, pairs)
        out[1, 6] += 1
        out[6, 1] += 1
        return out

    monkeypatch.setattr(dl, "twisted_identifications", off_by_one)
    rows = [
        row
        for row in dl.verify_dl_invariants(ctx)
        if row["check"] == "exclusion-orthogonality"
    ]
    failed = [row for row in rows if not row["ok"]]
    got = inner_product(
        dl_character(ctx, *p1).class_function, dl_character(ctx, *p2).class_function
    )
    expected = twisted_identifications_oracle(ctx.q, *p1, *p2) + 1
    assert failed == [
        {
            "check": "exclusion-orthogonality",
            "pair": f"{p1} vs {p2}",
            "ok": False,
            "detail": f"<R,R'> = {got}, twisted identifications = {expected}",
        }
    ]
    assert len(rows) == len(pairs) * (len(pairs) + 1) // 2


def test_dl_character_is_built_once_per_context():
    ctx = dl_context("GL2(3)")
    r = dl_character(ctx, (2,), (1,))
    assert dl_character(ctx, (2,), (1 + 8,)) is r
    assert dl_character(ctx, [2], [1]) is r


def test_each_torus_type_is_built_once(monkeypatch):
    # the first request fills the rows of one matrix, a function per pair,
    # and one decomposition call covers them all
    ctx = dl.DLContext(cached_group("GL3(2)"))  # fresh memo
    summed, decompose = dl.root_sum_function, type(ctx.table).decompose_integers
    built, decomposed = [], []

    def counting_sum(group, classes, exponents, weights):
        built.append(len(classes))
        return summed(group, classes, exponents, weights)

    def counting_decompose(table, flat):
        decomposed.append(len(flat))
        return decompose(table, flat)

    monkeypatch.setattr(dl, "root_sum_function", counting_sum)
    monkeypatch.setattr(type(ctx.table), "decompose_integers", counting_decompose)
    pairs = enumerate_all_pairs(ctx)
    for pair in pairs[::-1]:
        dl_character(ctx, *pair)
    assert len(built) == len(pairs) and decomposed == [len(pairs)]
    assert len(ctx._dl_characters) == len(pairs) == len(ctx.dl_rows)
    for pair, row in zip(pairs, ctx.dl_rows):
        flat = dl_character(ctx, *pair).class_function.flat
        assert flat.base is ctx.dl_rows and np.array_equal(flat, row)


@pytest.mark.parametrize("name", ["GL2(4)", "GL2(8)", "GL3(3)", "GL3(4)"])
def test_term_tables_match_the_per_theta_oracle(name):
    ctx = dl_context(name)
    for pair in enumerate_all_pairs(ctx):
        r, oracle = dl_character(ctx, *pair), build_dl_character(ctx, *pair)
        assert r.class_function == oracle.class_function, pair
        assert (r.decomposition, r.label) == (oracle.decomposition, oracle.label), pair


@pytest.mark.parametrize(
    "name",
    ["GL2(2)", "GL2(3)", "GL2(4)", "GL2(5)", "GL2(7)", "GL2(8)", "GL2(9)", "GL3(2)", "GL3(3)",
     "GL3(4)"],
)
def test_closed_form_green_functions_match_the_unipotent_oracle(name):
    ctx = dl_context(name)
    oracle = green_table(ctx)
    assert oracle == {(pi, lam): green_function(ctx.q, ctx.n, pi, lam) for pi, lam in oracle}


@pytest.mark.parametrize("name", ["GL2(5)", "GL2(8)", "GL3(3)"])
def test_closed_form_twisted_identifications_match_the_oracle(name):
    ctx = dl_context(name)
    pairs = enumerate_all_pairs(ctx)
    assert pairs == all_pairs(ctx)
    expected = [[twisted_identifications_oracle(ctx.q, *p1, *p2) for p2 in pairs] for p1 in pairs]
    assert twisted_identifications(ctx.q, pairs).tolist() == expected


def _labelling_context(spec):
    """The parts of a DLContext that `class_ss_data` reads, without the table."""
    g = cached_group(spec)
    return SimpleNamespace(group=g, n=g.n, q=g.q, tower=dl.field_tower(g.p, g.field.k))


# SHA-256 of the JSON list, in class order, of [label.canonical_string(),
# sorted(partitions.items())]: recorded while the labels still came from
# characteristic polynomials, roots over F_{q^d} and ranks of (g - lambda)^k
CLASS_LABEL_DIGESTS = {
    "GL2(4)": "60a45c2db4eb19b7ae3a43dc860052b94bea6de77c92f1bddabce25d8687e999",
    "GL2(9)": "f4378ad1bb513c641cdf8119a7ab3594e8a1d352d767082a97050f8f32f7c687",
    "GL3(2)": "1e1eedc8edb1ae75075b1d4c23f2a537d3fbb9ccae987ae07b62912da80e8ac2",
    "GL3(4)": "965516d0fe8971726ad0f8a0de0bba4baaae2d803516fb4b3465ef890afdaf43",
    "GL2(13)": "f40cb73b2670edef76ecd5ec81de7ba59065d9931884c3a8f9605eaee5ec0787",
}


@pytest.mark.parametrize("spec", sorted(CLASS_LABEL_DIGESTS))
def test_class_labels_unchanged(spec):
    rows = [
        [ssd.label.canonical_string(), sorted(ssd.partitions.items())]
        for ssd in dl.class_ss_data(_labelling_context(spec))
    ]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == CLASS_LABEL_DIGESTS[spec]


def test_class_ss_data_refuses_two_pairs_in_one_class(monkeypatch):
    # without its superdiagonal a Jordan block is scalar, so the partitions
    # (2) and (1, 1) of a central label build matrices of one class
    monkeypatch.setattr(dl, "_jordan_block", lambda lam, size: lam * np.eye(size, dtype=np.uint8))
    with pytest.raises(RuntimeError, match="lie in one class"):
        dl.class_ss_data(_labelling_context("GL2(3)"))


def test_class_ss_data_refuses_a_class_without_a_label(monkeypatch):
    types = dl.centralizer_torus_types
    monkeypatch.setattr(dl, "centralizer_torus_types", lambda label: types(label)[:1])
    with pytest.raises(RuntimeError, match="have no label"):
        dl.class_ss_data(_labelling_context("GL2(3)"))


def test_classify_pair():
    ctx = dl_context("GL2(3)")
    lab = classify_pair(ctx, (1, 1), (0, 0))
    assert is_central(lab) and lab.orbits[0][1] == 2
    # distinct split characters: two singleton orbits
    lab2 = classify_pair(ctx, (1, 1), (0, 1))
    assert len(lab2.orbits) == 2
    # Coxeter theta of order 8 (not dividing q-1): one size-2 orbit
    lab3 = classify_pair(ctx, (2,), (1,))
    assert len(lab3.orbits) == 1 and lab3.orbits[0][0][0] == 2
    # Coxeter theta of order dividing q-1 collapses into the split label
    lab4 = classify_pair(ctx, (2,), (4,))  # exponent 4: order 2 in F_9^x
    assert lab4.orbits[0][0][0] == 1


def test_series_partition_gl2_3():
    ctx = dl_context("GL2(3)")
    series = lusztig_series(ctx)
    assert len(series) == 6
    assert sorted(len(s.members) for s in series) == [1, 1, 1, 1, 2, 2]
    uni = unipotent_series(ctx)
    assert len(uni.members) == 2
    degs = sorted(ctx.table.degrees[i] for i in uni.members)
    assert degs == [1, 3]  # trivial and Steinberg


def test_series_count_gl3_2():
    ctx = dl_context("GL3(2)")
    series = lusztig_series(ctx)
    assert len(series) == len(all_labels(ctx)) == 4
    assert sum(len(s.members) for s in series) == 6
    assert len(unipotent_series(ctx).members) == 3  # p(3)


def test_series_duality():
    # E(G, s)^vee = E(G, s^-1) as member sets
    for name in ["GL2(3)", "GL3(2)"]:
        ctx = dl_context(name)
        series = lusztig_series(ctx)
        by_label = {s.label: set(s.members) for s in series}
        irr = ctx.table.irreducibles
        for s in series:
            dual_members = set()
            for i in s.members:
                d = dual_character(irr[i])
                j = next(k for k, chi in enumerate(irr) if chi == d)
                dual_members.add(j)
            assert dual_members == by_label[s.label.inverse(ctx.tower)]


def test_torus_lemma_character_level():
    # R_{T, theta} o iota = R_{T, theta^-1} exactly, for every pair (GL2(3))
    ctx = dl_context("GL2(3)")
    iota = duality_involution(ctx.group)
    for parts, exps in all_pairs(ctx):
        r = dl_character(ctx, parts, exps)
        twisted = twist_by_automorphism(r.class_function, iota)
        mods = [ctx.q**d - 1 for d in parts]
        inv = dl_character(ctx, parts, tuple(-c % m for c, m in zip(exps, mods)))
        assert twisted == inv.class_function
        # and at label level: classify(iota-twisted pair) = inverse label
        assert inv.label == r.label.inverse(ctx.tower)


def test_restriction_to_sl2():
    ctx = dl_context("GL2(3)")
    sl = cached_group("SL2(3)")
    series = restrict_series(ctx, sl)
    assert sum(len(s.members) for s in series) == 7
    sizes = sorted(len(s.members) for s in series)
    assert sizes == [1, 2, 2, 2]
    # Steinberg restricts irreducibly and lands in the unipotent series
    st_gl = unipotent_characters(ctx)[(1, 1)]
    uni_sl = next(s for s in series if is_central(s.label))
    assert len(uni_sl.members) == 2
    assert st_gl in uni_sl.restriction_map
    assert len(uni_sl.restriction_map[st_gl]) == 1


def test_restriction_to_sl2_5():
    ctx = dl_context("GL2(5)")
    sl = cached_group("SL2(5)")
    series = restrict_series(ctx, sl)
    assert sum(len(s.members) for s in series) == 9
    # the nonsplit order-2 label splits a cuspidal into the two degree-2s
    split_series = [s for s in series if len(s.members) == 2]
    degree_pairs = sorted(
        tuple(sorted(character_degree(sl, i) for i in s.members)) for s in split_series
    )
    assert (2, 2) in degree_pairs and (3, 3) in degree_pairs


def character_degree(group, idx):
    table = group._table
    return table.degrees[idx]


def test_label_stabilizers():
    ctx = dl_context("GL2(5)")
    tower = ctx.tower
    # central label: every scalar fixes it after scaling? z . {a,a} = {za,za}
    labels = all_labels(ctx)
    for lab in labels:
        stab = len(label_stabilizer(ctx, lab))
        assert (ctx.q - 1) % stab == 0
        # orbit-stabilizer over the scaling action
        orbit = {lab.scaled(tower, z).orbits for z in range(ctx.q - 1)}
        assert len(orbit) * stab == ctx.q - 1


def test_generator_choice_invariance():
    """Regenerating the multiplicative identifications by a Galois twist
    permutes labels but leaves the series partition of Irr unchanged."""
    ctx = dl_context("GL2(3)")
    series = lusztig_series(ctx)
    partition = {frozenset(s.members) for s in series}
    e = ctx.e
    # k coprime to the exponent: acts on theta exponents and on character
    # values by the Galois automorphism zeta -> zeta^k
    for k in [5, 7]:
        twisted = set()
        for parts, exps in all_pairs(ctx):
            r = dl_character(ctx, parts, tuple(c * k for c in exps))
            twisted.add(frozenset(i for i, c in enumerate(r.decomposition) if c))
        # every twisted support set is a member set of the original partition
        for sup in twisted:
            assert any(sup <= block for block in partition)


def test_green_functions_gl3_closed_forms():
    q = 2
    # split torus: number of fixed Borel subgroups
    assert green_function(q, 3, (1, 1, 1), (1, 1, 1)) == (q + 1) * (q * q + q + 1)
    assert green_function(q, 3, (1, 1, 1), (2, 1)) == 2 * q + 1
    assert green_function(q, 3, (1, 1, 1), (3,)) == 1
    # type (2,1): 1 - q^3 at the identity
    assert green_function(q, 3, (2, 1), (1, 1, 1)) == 1 - q**3
    assert green_function(q, 3, (2, 1), (2, 1)) == 1
    assert green_function(q, 3, (2, 1), (3,)) == 1
    # Coxeter: (q-1)^2 (q+1) at the identity, 1 - q at subregular
    assert green_function(q, 3, (3,), (1, 1, 1)) == (q - 1) ** 2 * (q + 1)
    assert green_function(q, 3, (3,), (2, 1)) == 1 - q
    assert green_function(q, 3, (3,), (3,)) == 1


def test_theta_point_pairing_is_norm_compatible():
    """The character paired with an embedded subfield point must factor
    through the norm as the subfield character of that point: this is what
    makes series membership consistent across torus types."""
    from redchar.dl import field_tower
    from redchar.cyclotomic import zeta

    cases = [(3, 1, 2), (2, 2, 2), (5, 1, 2), (2, 3, 2), (3, 2, 2), (2, 1, 3), (2, 2, 3)]
    for p, k0, d in cases:
        tower = field_tower(p, k0)
        q = tower.q
        big, small = tower.fields[d], tower.fields[1]
        mod, r = q**d - 1, (q**d - 1) // (q - 1)
        for j0 in range(q - 1):
            point = tower.embed_exponent(1, d, j0)
            c = tower.theta_exponent_for_point(d, point)
            # theta_c(y) == chi_{j0}(Norm(y)) for every y
            for ylog in range(mod):
                lhs = zeta(mod, c * ylog)
                norm_code = big.exp[ylog * r % mod]
                # bring the norm back to the small field through the embedding
                pre = next(
                    x
                    for x in range(1, q)
                    if big.exp[tower.embed_exponent(1, d, small.log[x])] == norm_code
                )
                rhs = zeta(q - 1, j0 * small.log[pre]) if q > 2 else zeta(1, 0)
                assert lhs == rhs, (p, k0, d, j0, ylog)


def test_series_partition_q8_q9():
    # regression: inconsistent pairings across torus levels made central
    # labels collect four members instead of two at q = 8
    for name in ["GL2(8)", "GL2(9)"]:
        ctx = dl_context(name)
        series = lusztig_series(ctx)
        q = ctx.q
        assert len(series) == (q - 1) + (q - 1) * (q - 2) // 2 + (q * q - q) // 2
        central = [s for s in series if is_central(s.label)]
        assert len(central) == q - 1
        assert all(len(s.members) == 2 for s in central)


def test_split_torus_dl_equals_borel_induction():
    """Independent oracle: for the split torus, R_T(theta) is induction of
    the inflated character from the Borel subgroup."""
    import itertools
    from fractions import Fraction

    from redchar.chartable import induce_from_subgroup

    for name in ["GL2(3)", "GL3(2)", "GL2(4)"]:
        ctx = dl_context(name)
        g = ctx.group
        n, q = g.n, g.q
        parts = (1,) * n
        # theta(b) = prod_i zeta_(q-1)^(c_i log b_ii), as a power of zeta_e
        step = ctx.e // (q - 1)
        borel = borel_indices(g)
        for exps in itertools.product(range(q - 1), repeat=n):
            theta_of_borel = [
                step * sum(c * g.field.log[int(g.matrices(idx)[i, i])] for i, c in enumerate(exps))
                for idx in borel
            ]
            induced = induce_from_subgroup(g, borel, theta_of_borel)
            r = dl_character(ctx, parts, exps)
            assert r.class_function == induced, (name, exps)


def test_torus_character_carrier():
    from redchar.dl import TorusCharacter

    ctx = dl_context("GL2(3)")
    tc = TorusCharacter(parts=(2,), exps=(1,))
    r = dl_character(ctx, tc)
    assert r.parts == (2,) and r.degree() == -2
