import numpy as np
import pytest

from redchar import chartable
from redchar.groups import (
    BudgetExceeded,
    GroupAutomorphism,
    GroupSpec,
    _binv,
    _bmm,
    adjoint_action_representatives,
    ad_by_matrix,
    build_group,
    cached_group,
    chevalley_involution,
    duality_involution,
    identity_automorphism,
    maximal_tori,
    transpose_inverse,
)


def brute_force_class_count(group):
    """Quadratic all-pairs conjugacy oracle (small groups only)."""
    n = group.order
    seen = [False] * n
    count = 0
    for i in range(n):
        if seen[i]:
            continue
        count += 1
        # orbit of i under conjugation by every element
        orbit = {i}
        frontier = [i]
        while frontier:
            x = frontier.pop()
            for h in range(n):
                y = group.mul_idx(group.mul_idx(h, x), int(group.inv_perm[h]))
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        for y in orbit:
            seen[y] = True
    return count


def test_spec_parsing_and_orders():
    s = GroupSpec.parse("GL2(3)")
    assert (s.family, s.n, s.q) == ("GL", 2, 3)
    assert s.order == 48
    assert GroupSpec.parse("SL2(3)").order == 24
    assert GroupSpec.parse("GL3(2)").order == 168
    assert GroupSpec.parse("SL3(4)").order == 60480
    with pytest.raises(ValueError):
        GroupSpec.parse("Sp4(2)")
    for bad in ("GL2(0)", "GL2(1)", "SL3(6)"):
        with pytest.raises(ValueError, match="not a prime power"):
            GroupSpec.parse(bad)


def test_budget_refusal():
    with pytest.raises(BudgetExceeded) as exc:
        build_group("GL3(5)")
    assert exc.value.required == 1488000
    build_group("GL3(3)")  # order 11232: inside the default budget


def test_build_small_groups():
    g = cached_group("GL2(3)")
    assert g.order == 48
    assert len(g.borel_indices) == 12
    assert len(g.torus_indices) == 4
    assert len(g.unipotent_indices) == 3
    sl = cached_group("SL2(3)")
    assert sl.order == 24
    gl1 = build_group("GL1(2)")
    assert gl1.order == 1


def test_conjugacy_class_counts():
    assert cached_group("GL2(3)").conjugacy().n_classes == 8
    assert cached_group("SL2(3)").conjugacy().n_classes == 7
    assert cached_group("SL2(5)").conjugacy().n_classes == 9
    assert cached_group("GL3(2)").conjugacy().n_classes == 6


def test_conjugacy_against_brute_force():
    g = build_group("SL2(3)")
    assert brute_force_class_count(g) == g.conjugacy().n_classes


def test_class_sizes_and_exponent():
    g = cached_group("GL2(3)")
    data = g.conjugacy()
    assert int(data.sizes.sum()) == 48
    assert all(48 % int(s) == 0 for s in data.sizes)
    assert data.exponent == 24  # lcm of element orders 1,2,3,4,6,8
    # inverse-class map is an involution matching element orders
    for c in range(data.n_classes):
        ci = int(data.inverse_class[c])
        assert data.orders[c] == data.orders[ci]
        assert int(data.inverse_class[ci]) == c


def test_maximal_tori_gl():
    tori2 = maximal_tori(cached_group("GL2(3)"))
    by_part = {t.partition: t for t in tori2}
    assert by_part[(1, 1)].order == 4  # split (q-1)^2
    assert by_part[(2,)].order == 8  # Coxeter q^2-1
    assert by_part[(2,)].f_rank == 1
    assert by_part[(1, 1)].split_member_indices is not None
    tori3 = maximal_tori(cached_group("GL3(2)"))
    orders = sorted(t.order for t in tori3)
    assert orders == sorted([(2 - 1) ** 3, (2 - 1) * (4 - 1), 8 - 1])


def test_maximal_tori_sl():
    tori = maximal_tori(cached_group("SL2(3)"))
    by_part = {t.partition: t for t in tori}
    assert by_part[(1, 1)].order == 2  # q - 1
    assert by_part[(2,)].order == 4  # (q^2-1)/(q-1)
    assert by_part[(1, 1)].f_rank == 1 and by_part[(2,)].f_rank == 0


def test_transpose_inverse_and_chevalley():
    g = cached_group("GL2(3)")
    ti = transpose_inverse(g)
    ti.verify_homomorphism()
    assert ti.is_involution()
    c = chevalley_involution(g)
    c.verify_homomorphism()
    assert c.is_involution()
    # c acts as t -> w0(t)^-1 on the diagonal torus
    fld = g.field
    for a in range(1, 3):
        for b in range(1, 3):
            t = g.diagonal_idx([a, b])
            img = g.diagonal_idx([fld.inv_code(b), fld.inv_code(a)])
            assert c.apply(t) == img


def test_chevalley_trivial_on_sl2():
    c = chevalley_involution(cached_group("SL2(3)"))
    assert c.is_identity()
    c5 = chevalley_involution(cached_group("SL2(5)"))
    assert c5.is_identity()


def test_chevalley_involution_gl3_2():
    g = cached_group("GL3(2)")
    c = chevalley_involution(g)
    assert c.is_involution()
    assert c.compose(c).is_identity()


def test_duality_involution_gl2():
    g = cached_group("GL2(3)")
    iota = duality_involution(g)
    iota.verify_homomorphism()
    assert iota.is_involution()
    # commutes with the Chevalley involution elementwise (exhaustive)
    c = chevalley_involution(g)
    assert iota.compose(c) == c.compose(iota)
    # for GL_n, iota is transpose-inverse up to an inner correction:
    # it must send every element to a conjugate of its transpose-inverse
    ti = transpose_inverse(g)
    cls = g.conjugacy().cls
    assert np.array_equal(cls[iota.perm], cls[ti.perm])


def test_duality_involution_sl2_is_ad_diag():
    g = cached_group("SL2(3)")
    iota = duality_involution(g)
    fld = g.field
    expected = ad_by_matrix(
        g, np.array([[1, 0], [0, fld.neg_code(1)]], dtype=np.uint8), "ad(diag(1,-1))"
    )
    assert iota == expected


def test_duality_involution_even_characteristic():
    g = cached_group("GL3(2)")
    iota = duality_involution(g)
    # in characteristic 2 the t_minus factor is trivial: iota = chevalley
    assert iota == chevalley_involution(g)
    assert iota.is_involution()


def test_automorphisms_preserve_class_structure():
    g = cached_group("GL2(3)")
    data = g.conjugacy()
    for auto in [duality_involution(g), transpose_inverse(g), identity_automorphism(g)]:
        cp = auto.class_permutation()
        assert sorted(cp.tolist()) == list(range(data.n_classes))
        for c in range(data.n_classes):
            assert data.sizes[c] == data.sizes[cp[c]]
            assert data.orders[c] == data.orders[int(cp[c])]


def test_adjoint_action_representatives():
    assert len(adjoint_action_representatives(cached_group("GL2(3)"))) == 1
    reps = adjoint_action_representatives(cached_group("SL2(3)"))
    assert len(reps) == 2
    reps5 = adjoint_action_representatives(cached_group("SL2(5)"))
    assert len(reps5) == 2
    for r in reps + reps5:
        assert sorted(r.class_permutation().tolist()) == sorted(
            range(r.group.conjugacy().n_classes)
        )


def test_duality_commutes_with_chevalley_sl2_3():
    g = cached_group("SL2(3)")
    iota = duality_involution(g)
    c = chevalley_involution(g)
    assert iota.compose(c) == c.compose(iota)


def test_root_subgroup_torus_relations():
    # t x_alpha(c) t^-1 = x_alpha(alpha(t) c) for every torus element and
    # simple root
    for name in ["GL2(3)", "GL3(2)"]:
        g = cached_group(name)
        fld = g.field
        for t_idx in g.torus_indices:
            t_mat = g.elements[t_idx]
            diag = [int(t_mat[i, i]) for i in range(g.n)]
            for i in range(g.n - 1):
                alpha_t = fld.mul_codes(diag[i], fld.inv_code(diag[i + 1]))
                for c in range(1, g.q):
                    x = g.root_subgroup_element(i, c)
                    lhs = g.conj_perm(int(t_idx))[x]
                    rhs = g.root_subgroup_element(i, fld.mul_codes(alpha_t, c))
                    assert int(lhs) == rhs


def test_sl_split_torus_model_matches_realization():
    # the abstract invariant-factor model must match the realized diagonal
    # subgroup: same order and same multiset of element orders
    from collections import Counter
    from itertools import product as iproduct

    for name in ["SL2(3)", "SL2(5)", "SL3(4)", "SL3(2)"]:
        g = cached_group(name)
        tori = maximal_tori(g)
        split = next(t for t in tori if t.partition == (1,) * g.n)
        realized = Counter(
            g.element_order(int(i)) for i in split.split_member_indices
        )
        model = Counter()
        from math import gcd, lcm

        for combo in iproduct(*[range(d) for d in split.cyclic_orders]):
            order = 1
            for x, d in zip(combo, split.cyclic_orders):
                order = lcm(order, d // gcd(d, x) if x else 1)
            model[order] += 1
        assert realized == model, name


# -- the row-table kernel against entry-by-entry products -------------------


def _reference_conjugation(group, m):
    m = m[None]
    return group.lookup(_bmm(group.tables, _bmm(group.tables, m, group.elements), _binv(group.tables, m)))


def _kernel_multipliers(group):
    """Every element of a small group; for a larger one its class
    representatives, its generators and a fixed stride through the elements."""
    if group.order <= 200:
        return range(group.order)
    extra = list(group.conjugacy().reps) + group.generators()
    return sorted(set(int(g) for g in extra) | set(range(0, group.order, 331)))


@pytest.mark.parametrize("name", ["GL2(4)", "SL2(5)", "GL3(2)", "SL3(3)"])
def test_row_table_products_match_matrix_products(name):
    g = cached_group(name)
    tab, elems = g.tables, g.elements
    for h in _kernel_multipliers(g):
        hm = elems[h][None]
        assert np.array_equal(g.right_mul(elems[h]), g.lookup(_bmm(tab, elems, hm)))
        assert np.array_equal(g._left_mul_perm(h), g.lookup(_bmm(tab, hm, elems)))
        assert np.array_equal(g.conj_perm(h), _reference_conjugation(g, elems[h]))
    subset = np.arange(0, g.order, 7)
    h = g.generators()[0]
    assert np.array_equal(g.right_mul(elems[h], subset), g.right_mul(elems[h])[subset])


def test_ad_by_matrix_off_the_group_matches_matrix_products():
    g = cached_group("SL3(3)")
    for diag in ([2, 1, 1], [1, 2, 1]):  # det 2: outside SL3(3)
        m = np.diag(diag).astype(np.uint8)
        auto = ad_by_matrix(g, m, "ad(m)")
        assert np.array_equal(auto.perm, _reference_conjugation(g, m))
    m = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=np.uint8)  # det -1 = 2
    assert np.array_equal(ad_by_matrix(g, m, "ad(m)").perm, _reference_conjugation(g, m))


def test_lookup_rejects_matrices_off_the_group():
    with pytest.raises(KeyError):
        cached_group("GL2(3)").lookup(np.array([[[1, 2], [1, 2]]], dtype=np.uint8))
    with pytest.raises(KeyError):
        cached_group("SL2(3)").lookup(np.array([[[2, 0], [0, 1]]], dtype=np.uint8))
    g = cached_group("SL2(3)")
    with pytest.raises(KeyError):
        g.right_mul(np.array([[2, 0], [0, 1]], dtype=np.uint8))


@pytest.mark.parametrize("name", ["GL2(4)", "SL3(3)"])
def test_class_matrices_match_a_direct_count(name, monkeypatch):
    g = cached_group(name)
    data = g.conjugacy()
    r = data.n_classes
    reps = g.elements[data.reps]
    for i in range(r):
        members = g.elements[data.members(i)]
        expected = np.zeros((r, r), dtype=np.int64)
        if g.order <= 200:
            # all pairs (x, y) in C_i x G, keeping those with x y a representative
            prods = g.lookup(_bmm(g.tables, members[:, None], g.elements[None]))
            for k, rep in enumerate(data.reps):
                _, y_idx = np.nonzero(prods == rep)
                np.add.at(expected[:, k], data.cls[y_idx], 1)
        else:
            # y = x^-1 g_k is the one partner of x, with x^-1 from the adjugate
            x_inv = _binv(g.tables, members)
            for k in range(r):
                ys = g.lookup(_bmm(g.tables, x_inv, reps[k][None]))
                expected[:, k] = np.bincount(data.cls[ys], minlength=r)
        assert np.array_equal(chartable._class_matrix(g, i), expected), i
        with monkeypatch.context() as m:
            # several blocks of representatives per class matrix
            m.setattr(chartable, "_CLASS_MATRIX_PAIRS", 100)
            assert np.array_equal(chartable._class_matrix(g, i), expected), i


def test_verify_homomorphism_rejects_a_swap():
    g = cached_group("GL2(3)")
    identity_automorphism(g).verify_homomorphism()
    perm = np.arange(g.order)
    a, b = [x for x in range(g.order) if x != g.identity_idx][:2]
    perm[[a, b]] = perm[[b, a]]
    with pytest.raises(AssertionError):
        GroupAutomorphism(g, perm, "swap").verify_homomorphism()
