import re
from math import gcd, lcm
from pathlib import Path

import numpy as np
import pytest

from redchar import chartable, groups
from redchar.automorphisms import (
    GroupAutomorphism,
    adjoint_action_representatives,
    ad_by_matrix,
    chevalley_involution,
    duality_involution,
    identity_automorphism,
    transpose_inverse,
)
from redchar.dl import dl_context, lusztig_series
from redchar.groups import (
    BudgetExceeded,
    GroupRealization,
    GroupSpec,
    cached_group,
)
from redchar.jordan import dual_centralizer

from reference import bmm, borel_indices, element_order, generates, mul_idx


def _bdet(tab, a):
    """Determinants of code matrices (shape (..., n, n)) by cofactor expansion."""
    n = a.shape[-1]
    if n == 1:
        return a[..., 0, 0]
    if n == 2:
        return tab.sub(
            tab.mul[a[..., 0, 0], a[..., 1, 1]], tab.mul[a[..., 0, 1], a[..., 1, 0]]
        )
    m = tab.mul
    pos = m[a[..., 0, 0], tab.sub(m[a[..., 1, 1], a[..., 2, 2]], m[a[..., 1, 2], a[..., 2, 1]])]
    mid = m[a[..., 0, 1], tab.sub(m[a[..., 1, 0], a[..., 2, 2]], m[a[..., 1, 2], a[..., 2, 0]])]
    neg = m[a[..., 0, 2], tab.sub(m[a[..., 1, 0], a[..., 2, 1]], m[a[..., 1, 1], a[..., 2, 0]])]
    return tab.add[tab.sub(pos, mid), neg]


def _binv(tab, a):
    """Inverses of invertible code matrices as adjugate / determinant."""
    n = a.shape[-1]
    det_inv = tab.inv[_bdet(tab, a)]
    if n == 1:
        return det_inv[..., None, None]
    m = tab.mul
    out = np.empty_like(a)
    if n == 2:
        out[..., 0, 0] = a[..., 1, 1]
        out[..., 0, 1] = tab.neg[a[..., 0, 1]]
        out[..., 1, 0] = tab.neg[a[..., 1, 0]]
        out[..., 1, 1] = a[..., 0, 0]
        return m[det_inv[..., None, None], out]
    idx = [(0, 1, 2), (1, 0, 2), (2, 0, 1)]
    for i in range(3):
        for j in range(3):
            r = idx[j][1], idx[j][2]  # rows skipping j
            c = idx[i][1], idx[i][2]  # cols skipping i
            minor = tab.sub(
                m[a[..., r[0], c[0]], a[..., r[1], c[1]]],
                m[a[..., r[0], c[1]], a[..., r[1], c[0]]],
            )
            out[..., i, j] = tab.neg[minor] if (i + j) % 2 else minor
    return m[det_inv[..., None, None], out]


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
                y = mul_idx(group, mul_idx(group, h, x), int(group.inv_perm[h]))
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
        cached_group("GL3(5)")
    assert exc.value.required == 1488000
    assert "GL3(5)" in str(exc.value)
    assert cached_group("GL3(3)").order == 11232  # inside the default budget


def test_build_small_groups():
    g = cached_group("GL2(3)")
    assert g.order == 48
    assert len(borel_indices(g)) == 12
    assert np.array_equal(g._subgroups[0], borel_indices(g))
    assert len(g.torus_indices) == 4
    assert len(g.unipotent_indices) == 3
    sl = cached_group("SL2(3)")
    assert sl.order == 24
    gl1 = cached_group("GL1(2)")
    assert gl1.order == 1


def test_borel_is_checked_on_first_read():
    g = GroupRealization(GroupSpec.parse("GL2(3)"))
    assert "_subgroups" not in vars(g)
    assert len(g.unipotent_indices) == 3
    assert "_subgroups" in vars(g)
    broken = GroupRealization(GroupSpec.parse("GL2(3)"))
    borel = borel_indices(broken)
    upper = broken.matrices(borel)
    off_torus = borel[(upper[:, 1, 0] == 0) & (upper[:, 0, 1] != 0)][0]
    mat = broken.matrices(off_torus)
    mat[0, 1] = 0  # B loses an element that is in neither T nor U
    mat[1, 0] = 1
    broken._rows = broken._rows.copy()
    broken._rows[off_torus] = groups._horner(mat, 3)
    with pytest.raises(RuntimeError, match="Borel subgroup is not T U"):
        broken.torus_indices


def test_conjugacy_class_counts():
    assert cached_group("GL2(3)").conjugacy().n_classes == 8
    assert cached_group("SL2(3)").conjugacy().n_classes == 7
    assert cached_group("SL2(5)").conjugacy().n_classes == 9
    assert cached_group("GL3(2)").conjugacy().n_classes == 6


def test_conjugacy_against_brute_force():
    g = GroupRealization(GroupSpec.parse("SL2(3)"))
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
            diagonals = [np.diag([a, b]), np.diag([fld.inv_code(b), fld.inv_code(a)])]
            t, img = g.lookup(np.array(diagonals, dtype=np.uint8))
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
            t_mat = g.matrices(t_idx)
            diag = [int(t_mat[i, i]) for i in range(g.n)]
            for i in range(g.n - 1):
                alpha_t = fld.mul_codes(diag[i], fld.inv_code(diag[i + 1]))
                for c in range(1, g.q):
                    x = g.root_subgroup_element(i, c)
                    lhs = g.conjugation_perm(g.matrices(t_idx))[x]
                    rhs = g.root_subgroup_element(i, fld.mul_codes(alpha_t, c))
                    assert int(lhs) == rhs


# -- the row-table kernel against entry-by-entry products -------------------


def _reference_conjugation(group, m):
    m, elements = m[None], group.matrices(np.arange(group.order))
    return group.lookup(bmm(group.tables, bmm(group.tables, m, elements), _binv(group.tables, m)))


def _left_multiplication(group, h):
    """x -> h x by row operations on the rows of x (`_left_rows`)."""
    return group._images(lambda rows: group._left_rows(group.matrices(h), rows))


def _kernel_multipliers(group):
    """Every element of a small group; for a larger one its generators, its
    class representatives and a stride through the elements, each of the
    last two thinned to about 32 (GL2(16) has 255 classes)."""
    if group.order <= 200:
        return range(group.order)
    reps = group.conjugacy().reps
    extra = list(reps[:: -(-len(reps) // 32)]) + group.generators()
    stride = range(0, group.order, max(331, group.order // 32))
    return sorted(set(int(g) for g in extra) | set(stride))


# GL2(16) has 256 row codes, the most a uint8 code holds, and 255 classes;
# GL2(17) has 289, so its codes are uint16
_CODE_EDGES = ["GL2(16)", "GL2(17)"]


@pytest.mark.parametrize("name", ["GL2(4)", "SL2(5)", "GL3(2)", "SL3(3)"] + _CODE_EDGES)
def test_row_table_products_match_matrix_products(name, monkeypatch):
    g = cached_group(name)
    tab, elems = g.tables, g.matrices(np.arange(g.order))
    for h in _kernel_multipliers(g):
        hm = elems[h][None]
        assert np.array_equal(g.right_mul(elems[h]), g.lookup(bmm(tab, elems, hm)))
        assert np.array_equal(_left_multiplication(g, h), g.lookup(bmm(tab, hm, elems)))
        assert np.array_equal(g.conjugation_perm(elems[h]), _reference_conjugation(g, elems[h]))
    subset = np.arange(0, g.order, 7)
    h = g.generators()[0]
    assert np.array_equal(g.right_mul(elems[h], subset), g.right_mul(elems[h])[subset])
    # products of two element arrays, in one chunk and in several
    a, b = np.random.default_rng(0).integers(0, g.order, size=(2, 2000))
    expected = g.lookup(bmm(tab, elems[a], elems[b]))
    assert g.products(a, b).dtype == np.int32 and np.array_equal(g.products(a, b), expected)
    monkeypatch.setattr(groups, "_CHUNK", 300)  # the last chunk short
    assert np.array_equal(g.products(a, b), expected)
    assert g.products(a[:0], b[:0]).shape == (0,)


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


@pytest.mark.parametrize("name", ["GL2(5)", "SL2(5)", "GL3(3)", "SL3(3)"])
def test_lookup_rejects_dependent_leading_rows_and_sl_determinants(name):
    g = cached_group(name)
    n, q = g.n, g.q
    zero = np.zeros((q**n, n, n), dtype=np.uint8)  # every last row after zero rows
    zero[:, n - 1] = g._row_vectors
    cases = [zero]
    if n == 3:
        equal = zero.copy()
        equal[:, :2] = [0, 1, 1]  # two equal nonzero rows
        cases.append(equal)
    for mats in cases:
        assert (g._locate(groups._horner(mats, q)) < 0).all()
        for mat in mats[:: q + 1]:
            with pytest.raises(KeyError):
                g.lookup(mat[None])
    if g.spec.family == "SL":
        for c in range(2, q):  # det c != 1: in GL_n(q), not in SL_n(q)
            mat = np.eye(n, dtype=np.uint8)
            mat[n - 1, n - 1] = c
            with pytest.raises(KeyError):
                g.lookup(mat[None])
            mat = np.eye(n, dtype=np.uint8)
            mat[0, 0] = c  # the same determinant from the prefix
            with pytest.raises(KeyError):
                g.lookup(mat[None])


@pytest.mark.parametrize(
    "name, code_size, label_size",
    [("GL2(16)", 1, 1), ("GL2(17)", 2, 2), ("GL1(7)", 1, 1)],
)
def test_row_codes_and_class_labels_take_the_narrowest_unsigned_type(name, code_size, label_size):
    g = cached_group(name)
    data = g.conjugacy()
    assert g._rows.dtype == np.min_scalar_type(g.q**g.n - 1)
    assert data.cls.dtype == np.min_scalar_type(data.n_classes - 1)
    assert (g._rows.itemsize, data.cls.itemsize) == (code_size, label_size)
    assert g._rows.max() < g.q**g.n and data.cls.max() == data.n_classes - 1
    for per_class in (data.reps, data.sizes, data.inverse_class, data.power_classes):
        assert per_class.dtype == np.int64


@pytest.mark.parametrize("name", ["GL2(3)", "SL3(3)", "GL2(17)"])
def test_members_are_the_class_in_ascending_order(name):
    # GL2(17) has 288 classes, so its members are sorted on uint16 keys
    data = cached_group(name).conjugacy()
    for i in range(data.n_classes):
        assert np.array_equal(data.members(i), np.flatnonzero(data.cls == i))
        assert data.members(i).dtype == np.int32


@pytest.mark.parametrize("name", ["GL2(4)", "SL3(3)"])
def test_class_matrices_match_a_direct_count(name, monkeypatch):
    g = cached_group(name)
    data = g.conjugacy()
    r = data.n_classes
    reps = g.matrices(data.reps)
    for i in range(r):
        members = g.matrices(data.members(i))
        expected = np.zeros((r, r), dtype=np.int64)
        if g.order <= 200:
            # all pairs (x, y) in C_i x G, keeping those with x y a representative
            prods = g.lookup(bmm(g.tables, members[:, None], g.matrices(np.arange(g.order))[None]))
            for k, rep in enumerate(data.reps):
                _, y_idx = np.nonzero(prods == rep)
                np.add.at(expected[:, k], data.cls[y_idx], 1)
        else:
            # y = x^-1 g_k is the one partner of x, with x^-1 from the adjugate
            x_inv = _binv(g.tables, members)
            for k in range(r):
                ys = g.lookup(bmm(g.tables, x_inv, reps[k][None]))
                expected[:, k] = np.bincount(data.cls[ys], minlength=r)
        cols = np.arange(r)[1::3][::-1]  # a subset, out of order
        assert np.array_equal(chartable._class_matrix(g, i, np.arange(r)), expected), i
        assert np.array_equal(chartable._class_matrix(g, i, cols), expected[:, cols]), i
        with monkeypatch.context() as m:
            # several blocks of representatives per class matrix
            m.setattr(chartable, "_CLASS_MATRIX_PAIRS", 100)
            assert np.array_equal(chartable._class_matrix(g, i, np.arange(r)), expected), i
            assert np.array_equal(chartable._class_matrix(g, i, cols), expected[:, cols]), i


@pytest.mark.parametrize("name", ["GL2(4)", "GL2(5)", "SL3(3)"])
def test_class_matrix_rows_come_from_the_inverse_class_columns(name):
    # s_k M_i[j, k] = s_j M_i'[k, j], C_i' the inverses of C_i: both sides
    # count the triples x y = z in C_i x C_j x C_k
    g = cached_group(name)
    data = g.conjugacy()
    r = data.n_classes
    sizes = data.sizes
    assert any(data.inverse_class[i] != i for i in range(r))
    subset = np.arange(0, r, 2)
    for i in range(r):
        full = chartable._class_matrix(g, i, np.arange(r))
        dual = chartable._class_matrix(g, int(data.inverse_class[i]), np.arange(r))
        assert np.array_equal(full * sizes[None, :], dual.T * sizes[:, None]), i
        assert np.array_equal(chartable._class_matrix_rows(g, i, np.arange(r)), full), i
        assert np.array_equal(chartable._class_matrix_rows(g, i, subset), full[subset]), i


def test_class_matrix_rows_refuse_an_inexact_division(monkeypatch):
    g = cached_group("GL2(4)")
    real = chartable._class_matrix
    monkeypatch.setattr(chartable, "_class_matrix", lambda *args: real(*args) + 1)
    with pytest.raises(RuntimeError, match="not divisible"):
        chartable._class_matrix_rows(g, 1, np.arange(g.conjugacy().n_classes))


def test_verify_homomorphism_rejects_a_swap():
    g = cached_group("GL2(3)")
    identity_automorphism(g).verify_homomorphism()
    perm = np.arange(g.order)
    a, b = [x for x in range(g.order) if x != g.identity_idx][:2]
    perm[[a, b]] = perm[[b, a]]
    with pytest.raises(AssertionError):
        GroupAutomorphism(g, perm, "swap").verify_homomorphism()


def test_budget_gates_but_does_not_key_the_memo():
    assert cached_group("GL2(3)", 1000) is cached_group("GL2(3)")
    assert cached_group(GroupSpec.parse("GL2(3)"), 48) is cached_group("GL2(3)")
    assert dl_context("GL2(3)", 1000).group is cached_group("GL2(3)")
    assert dl_context("GL2(3)", 1000) is dl_context("GL2(3)")


def test_dl_context_refuses_an_over_budget_spec():
    with pytest.raises(BudgetExceeded, match=r"GL2\(4\)"):
        dl_context("GL2(4)", budget=100)


def test_dual_centralizer_builds_no_group(group_builds):
    ctx = dl_context("GL2(3)")
    built = sum(group_builds.values())
    for s in lusztig_series(ctx):
        dual_centralizer(ctx, s.label)
    assert sum(group_builds.values()) == built


# -- construction from row codes against the candidate sweep ----------------


def _candidate_sweep(group):
    """The enumeration that the row-code tables replaced: every one of the
    q^(n^2) candidate matrices spelled out digit by digit, kept when its
    cofactor-expansion determinant is nonzero (GL) or one (SL)."""
    n, q = group.n, group.q
    total = q ** (n * n)
    cand = np.arange(total, dtype=np.int64)
    digits = np.stack([cand // q ** (n * n - 1 - t) % q for t in range(n * n)], axis=1)
    mats = digits.astype(np.uint8).reshape(total, n, n)
    dets = _bdet(group.tables, mats)
    keep = dets != 0 if group.spec.family == "GL" else dets == 1
    index = np.full(total, -1, dtype=np.int64)
    index[keep] = np.arange(int(keep.sum()))
    return mats[keep], index


_SWEEP_SPECS = [
    f"{family}{n}({q})"
    for n in (1, 2, 3)
    for q in (2, 3, 4, 5, 7, 8, 9)
    for family in ("GL", "SL")
    if q ** (n * n) <= 3 * 10**5
]


@pytest.mark.parametrize("name", _SWEEP_SPECS)
def test_row_code_construction_matches_the_candidate_sweep(name):
    g = cached_group(name)
    elements, index = _candidate_sweep(g)
    assert np.array_equal(g.matrices(np.arange(g.order)), elements)
    weights = g.q ** np.arange(g.n - 1, -1, -1)
    assert np.array_equal(g._rows, (elements.astype(np.int64) * weights).sum(axis=2))
    # every candidate key through the lookup: its sweep index, or -1 <-> KeyError
    size = g.q**g.n
    keys = np.arange(len(index))
    rows = np.stack([keys // size ** (g.n - 1 - j) % size for j in range(g.n)], axis=1)
    located = g._locate(rows)
    assert np.array_equal(np.where(located < 0, -1, located), index)
    assert np.array_equal(g.lookup(elements), np.arange(g.order))
    off = np.flatnonzero(index < 0)
    for key in off[:: max(1, len(off) // 40)]:
        with pytest.raises(KeyError):
            g._find(rows[key][None])
    assert np.array_equal(g.inv_perm, g.lookup(_binv(g.tables, elements)))
    assert np.array_equal(g.transpose_perm, g.lookup(np.swapaxes(elements, 1, 2)))


def test_conjugation_by_a_matrix_off_sl3_4_matches_matrix_products():
    g = cached_group("SL3(4)")
    m = np.array([[2, 1, 0], [1, 1, 3], [0, 0, 1]], dtype=np.uint8)
    assert _bdet(g.tables, m[None])[0] not in (0, 1)  # in GL3(4), not in SL3(4)
    assert np.array_equal(g.conjugation_perm(m), _reference_conjugation(g, m))


@pytest.mark.parametrize("name", ["GL2(9)", "SL3(3)", "GL1(7)"])
def test_batched_powers_match_element_order(name):
    g = cached_group(name)
    data = g.conjugacy()
    assert data.orders == [element_order(g, int(x)) for x in data.reps]
    power = np.broadcast_to(g.matrices(g.identity_idx), (data.n_classes, g.n, g.n))
    for t in range(data.power_classes.shape[1]):
        assert np.array_equal(data.power_classes[:, t], data.cls[g.lookup(power)])
        power = bmm(g.tables, power, g.matrices(data.reps))
    assert data.power_classes.shape[1] == max(data.orders)


def _closed_form_class_count(spec: GroupSpec) -> int:
    q = spec.q
    if spec.family == "GL":
        return {1: q - 1, 2: q**2 - 1, 3: q**3 - q}[spec.n]
    if spec.n == 2:
        return q + 4 if q % 2 else q + 1
    return q**2 + q + (8 if (q - 1) % 3 == 0 else 0)


@pytest.mark.parametrize(
    "spec",
    ["GL1(2)", "GL1(7)", "GL2(2)", "GL2(4)", "GL2(5)", "GL2(9)", "GL3(2)", "GL3(3)",
     "GL3(4)", "SL2(3)", "SL2(4)", "SL2(7)", "SL2(8)", "SL2(9)", "SL3(2)", "SL3(3)",
     "SL3(4)", "SL3(5)"],
)
def test_class_counts_match_their_closed_forms(spec):
    # GL_n: q - 1, q^2 - 1, q^3 - q; SL_2: q + 4 (q odd), q + 1 (q even);
    # SL_3: q^2 + q, plus 8 when 3 | q - 1
    s = GroupSpec.parse(spec)
    assert cached_group(s, budget=s.order).conjugacy().n_classes == _closed_form_class_count(s)


# -- conjugacy by min-label propagation against the per-class search ---------


def _label_orbit(perms, labels, start, label):
    """Breadth-first search: labels[x] = label on the orbit of `start`."""
    labels[start] = label
    frontier = np.array([start], dtype=np.int64)
    while len(frontier):
        new = []
        for perm in perms:
            img = perm[frontier]
            fresh = img[labels[img] < 0]
            labels[fresh] = label
            new.append(fresh)
        frontier = np.concatenate(new)


def _bfs_conjugacy(g):
    """The per-class search: one breadth-first search from each least
    unlabelled element, by the conjugation permutations of the generators."""
    perms = [g.conjugation_perm(g.matrices(h)) for h in g.generators()]
    cls = np.full(g.order, -1, dtype=np.int64)
    reps = []
    for start in range(g.order):
        if cls[start] < 0:
            _label_orbit(perms, cls, start, len(reps))
            reps.append(start)
    reps = np.array(reps, dtype=np.int64)
    orders, power_classes = g._powers(reps, cls)
    sizes = np.bincount(cls, minlength=len(reps))
    return cls, reps, sizes, orders, power_classes, cls[g.inv_perm[reps]]


@pytest.mark.parametrize("name", ["GL2(4)", "SL2(5)", "GL3(2)", "GL3(3)", "SL3(3)", "SL3(4)"])
def test_conjugacy_matches_the_per_class_search(name):
    g = cached_group(name)
    data = g.conjugacy()
    cls, reps, sizes, orders, power_classes, inverse_class = _bfs_conjugacy(g)
    assert data.n_classes == len(reps)
    assert np.array_equal(data.cls, cls)
    assert np.array_equal(data.reps, reps)
    assert np.array_equal(data.sizes, sizes)
    assert data.orders == orders
    assert np.array_equal(data.power_classes, power_classes)
    assert np.array_equal(data.inverse_class, inverse_class)


@pytest.mark.parametrize(
    "name, digest",
    [
        ("GL3(4)", "77c238ebd5b4a1b410290e3f0e89ed86986ba1ffaf4ccb1d0488b2cafec06e07"),
        ("SL3(5)", "b2d9475885db7d9d5e1ff2e0c26f9fbf3f6f65a24a53eb6ec7ef529d9625e487"),
    ],
)
def test_class_labels_of_every_element_unchanged(name, digest):
    # SHA-256 of the class index of every element as int64, in element order
    import hashlib

    cls = cached_group(name).conjugacy().cls
    assert cls.dtype == np.uint8
    assert hashlib.sha256(cls.astype(np.int64).tobytes()).hexdigest() == digest


@pytest.mark.parametrize("name", ["GL2(4)", "SL2(5)", "SL3(3)"] + _CODE_EDGES)
def test_left_multiplication_after_inverse_is_conjugation(name):
    # the conjugations that label the classes: the row table of h^-1, then
    # row operations for h; both steps against entry-by-entry products
    g = cached_group(name)
    for h in g.generators():
        conj = g.conjugation_perm(g.matrices(h))
        assert np.array_equal(conj, _reference_conjugation(g, g.matrices(h)))
        left = _left_multiplication(g, h)
        assert np.array_equal(conj, left[g.right_mul(g.matrices(g.inv_perm[h]))])


@pytest.mark.parametrize("name", ["GL2(4)", "SL2(5)", "GL3(3)", "SL3(3)", "SL3(5)"])
def test_inverses_and_inverse_classes_match_the_inverse_map(name):
    g = cached_group(name)
    data = g.conjugacy()
    assert np.array_equal(data.inverse_class, data.cls[g.inv_perm[data.reps]])
    sample = np.random.default_rng(3).integers(0, g.order, size=50)
    assert np.array_equal(g.inverses(sample), g.inv_perm[sample])
    assert np.array_equal(g.inv_perm[g.inv_perm], np.arange(g.order))


def test_orbit_minima_label_each_orbit_by_its_least_point():
    rng = np.random.default_rng(7)
    size = 300
    blocks = np.split(rng.permutation(size), [5, 6, 40, 41, 42, 120, 200])
    expected = np.empty(size, dtype=np.int64)
    perms = [np.empty(size, dtype=np.int64) for _ in range(2)]
    for block in blocks:
        expected[block] = block.min()
        cycle = rng.permutation(block)
        perms[0][cycle] = np.roll(cycle, 1)  # one cycle: the block is an orbit
        perms[1][block] = rng.permutation(block)
    assert np.array_equal(groups._orbit_minima(perms, size), expected)
    # a long cycle needs the jumps: 30 orbits of 10, each a rotation
    cycles = [np.roll(np.arange(size).reshape(-1, 10), 1, axis=1).ravel()]
    assert np.array_equal(groups._orbit_minima(cycles, size), np.arange(size) // 10 * 10)


def _named_groups():
    """Every group spec named in the tests that is valid and within the
    default budget, in order of size."""
    names = set()
    for path in Path(__file__).parent.glob("*.py"):
        names.update(re.findall(r"[GS]L[123]\(\d+\)", path.read_text()))
    specs = []
    for name in names:
        try:
            specs.append(GroupSpec.parse(name))
        except groups.InvalidSpec:
            continue  # the refusal tests name GL2(6) and others on purpose
    return [str(s) for s in sorted(specs, key=lambda s: s.order) if s.order <= groups.DEFAULT_BUDGET]


@pytest.mark.parametrize("name", _named_groups())
def test_generators_generate_and_class_sizes_certify(name):
    # the right-multiplication oracle, and lcm(class sizes) = |G| / m with m
    # the number of scalar matrices of the group
    g = cached_group(name)
    assert generates(g, g.generators())
    m = g.q - 1 if g.spec.family == "GL" else gcd(g.n, g.q - 1)
    assert lcm(*g.conjugacy().sizes.tolist()) == g.order // m


@pytest.mark.parametrize("name", ["GL2(3)", "SL3(3)"])
def test_conjugators_of_a_proper_subgroup_are_refused(name):
    # plant the upper simple root elements alone (and, on GL2(3), the scalar
    # -I after them): they generate the unitriangular group U (times the
    # scalars), whose orbits are too small for the class-size certificate
    g = GroupRealization(GroupSpec.parse(name))
    upper = [g.root_subgroup_element(i, 1) for i in range(g.n - 1)]
    scalar = [int(g.lookup(2 * np.eye(2, dtype=np.uint8)[None])[0])] if name == "GL2(3)" else []
    g._generators = tuple(upper + scalar)
    assert not generates(g, g._generators)
    with pytest.raises(RuntimeError, match="class sizes do not certify"):
        g.conjugacy()


def test_generators_are_proven_once(monkeypatch):
    g = GroupRealization(GroupSpec.parse("SL2(5)"))
    first = g.generators()
    calls = []
    monkeypatch.setattr(g, "right_mul", lambda *args: calls.append(args))
    monkeypatch.setattr(groups, "_orbit_minima", lambda *args: calls.append(args))
    assert g.generators() == first
    assert calls == []


def test_table_runs_one_orbit_computation(monkeypatch):
    calls = []
    orbit_minima = groups._orbit_minima
    monkeypatch.setattr(groups, "_orbit_minima", lambda *args: calls.append(args) or orbit_minima(*args))
    chartable.table_of(GroupRealization(GroupSpec.parse("GL2(5)")))
    assert len(calls) == 1


def test_table_builds_no_transpose_or_inverse_map():
    g = GroupRealization(GroupSpec.parse("SL3(3)"))
    chartable.table_of(g)
    assert "transpose_perm" not in g.__dict__
    assert "inv_perm" not in g.__dict__


def test_sl3_5_build_and_conjugacy_peak_below_11_mib():
    import tracemalloc

    tracemalloc.start()
    try:
        g = GroupRealization(GroupSpec.parse("SL3(5)"))
        g.conjugacy()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.conjugacy().n_classes == 30
    assert peak < 11 * 2**20


def _arrays(obj, seen):
    """Every numpy array reachable from obj through package objects'
    attributes, lists, tuples and dict values."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _arrays(item, seen)
    elif type(obj).__module__.startswith("redchar") and hasattr(obj, "__dict__"):
        for item in vars(obj).values():
            yield from _arrays(item, seen)


def test_sl3_5_table_builds_no_element_matrices_and_nothing_of_q_to_the_n_squared():
    g = GroupRealization(GroupSpec.parse("SL3(5)"))
    chartable.table_of(g)
    assert "elements" not in vars(g)
    arrays = list(_arrays(g, set()))
    sizes = [a.size for a in arrays]
    assert g.order in sizes  # the walk reaches the class labels
    assert max(sizes) < g.q ** (g.n * g.n)
    # whole-group arrays: row codes and class labels in one byte, element
    # indices in int32
    assert all(a.itemsize <= 4 for a in arrays if a.ndim and len(a) == g.order)
    assert g._rows.itemsize == g.conjugacy().cls.itemsize == 1
    assert g.matrices(g.identity_idx).tolist() == np.eye(3, dtype=int).tolist()
