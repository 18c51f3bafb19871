import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from redchar.chartable import (
    CharacterTable,
    ClassFunction,
    _central_characters_mod,
    _character_values_mod,
    _class_matrix,
    _mod_nullspace,
    _mod_rref,
    _packed_context,
    _sort_characters,
    character_table,
    dual_character,
    find_table_prime,
    gram_certificate,
    induce_from_subgroup,
    inner_product,
    restrict_between_groups,
    table_of,
    trivial_character,
    twist_by_automorphism,
    twisted_fs_indicator,
    twisted_fs_indicators,
)
from redchar.cyclotomic import CyclotomicNumber, euler_phi
from redchar.groups import (
    GroupRealization,
    GroupSpec,
    adjoint_action_representatives,
    cached_group,
    duality_involution,
    identity_automorphism,
)



def table(name):
    return table_of(cached_group(name))


def test_trivial_group_table():
    t = character_table(GroupRealization(GroupSpec.parse("GL1(2)")))
    assert len(t) == 1 and t.degrees == [1]


def test_sl2_3_table():
    t = table("SL2(3)")
    assert sorted(t.degrees) == [1, 1, 1, 2, 2, 2, 3]
    t.verify_degree_sum()
    t.verify_orthogonality()


def test_gl2_3_table():
    t = table("GL2(3)")
    assert len(t) == 8
    assert sum(d * d for d in t.degrees) == 48
    t.verify_orthogonality()
    # frozen from this table computation (cross-checked by the two exact
    # invariants above): the degree multiset of GL2(3)
    assert sorted(t.degrees) == [1, 1, 2, 2, 2, 3, 3, 4]


def test_sl2_5_table():
    t = table("SL2(5)")
    assert sorted(t.degrees) == [1, 2, 2, 3, 3, 4, 4, 5, 6]
    t.verify_orthogonality()


def test_gl3_2_table():
    t = table("GL3(2)")
    assert sorted(t.degrees) == [1, 3, 3, 6, 7, 8]
    t.verify_orthogonality()


def test_find_table_prime():
    ell = find_table_prime(24, 48)
    assert ell > 96 and (ell - 1) % 24 == 0
    assert ell == 97


def test_inner_products_and_duals():
    t = table("GL2(3)")
    g = t.group
    for i, chi in enumerate(t.irreducibles):
        assert inner_product(chi, chi) == 1
        dual = dual_character(chi)
        assert dual in t.irreducibles or any(
            dual == other for other in t.irreducibles
        )
        assert dual_character(dual) == chi
    # trivial and regular characters
    triv = trivial_character(g)
    assert inner_product(triv, triv) == 1
    reg_values = [0] * g.conjugacy().n_classes
    reg_values[int(g.conjugacy().cls[g.identity_idx])] = g.order
    reg = ClassFunction(g, reg_values)
    assert inner_product(reg, triv) == 1
    for chi, d in zip(t.irreducibles, t.degrees):
        assert inner_product(reg, chi) == d


def test_steinberg_is_self_dual():
    t = table("GL2(3)")
    # Steinberg: the degree-q constituent of Ind_B(1)
    g = t.group
    ind_b = induce_from_subgroup(g, g.borel_indices)
    assert ind_b.degree.as_int() == 4
    decomp = [inner_product(ind_b, chi).as_rational() for chi in t.irreducibles]
    assert sorted(x for x in decomp if x) == [1, 1]
    steinberg = next(
        chi
        for chi, m in zip(t.irreducibles, decomp)
        if m == 1 and chi.degree.as_int() == 3
    )
    assert dual_character(steinberg) == steinberg


def test_induction_from_unipotent_and_reciprocity():
    g = cached_group("GL2(3)")
    t = table("GL2(3)")
    ind_u = induce_from_subgroup(g, g.unipotent_indices)
    assert ind_u.degree.as_int() == 16  # 48 / 3
    assert inner_product(ind_u, trivial_character(g)) == 1
    # Frobenius reciprocity against restriction to U (rank-1 check):
    # <Ind 1, chi> = <1, Res chi> = average of chi over U
    for chi in t.irreducibles:
        lhs = inner_product(ind_u, chi)
        cls = g.conjugacy().cls
        acc = CyclotomicNumber.zero()
        for idx in g.unipotent_indices:
            acc = acc + chi.values[int(cls[idx])]
        assert lhs == acc * Fraction(1, len(g.unipotent_indices))


def test_twist_by_automorphism():
    t = table("SL2(3)")
    g = t.group
    ident = identity_automorphism(g)
    for chi in t.irreducibles:
        assert twist_by_automorphism(chi, ident) == chi
    # twisting by an inner automorphism fixes every class function
    inner = adjoint_action_representatives(g)[0]
    for chi in t.irreducibles:
        assert twist_by_automorphism(chi, inner) == chi
    # the nontrivial adjoint representative permutes the three linear
    # characters of SL2(3) among themselves preserving degrees
    outer = adjoint_action_representatives(g)[1]
    perm = {}
    for i, chi in enumerate(t.irreducibles):
        img = twist_by_automorphism(chi, outer)
        j = next(k for k, other in enumerate(t.irreducibles) if other == img)
        perm[i] = j
        assert t.degrees[i] == t.degrees[j]
    assert sorted(perm.values()) == list(range(7))


def test_twisted_fs_indicator_gl2_3():
    t = table("GL2(3)")
    iota = duality_involution(t.group)
    for chi in t.irreducibles:
        assert twisted_fs_indicator(chi, iota) == 1


@pytest.mark.parametrize("name", ["GL2(4)", "SL2(5)", "GL3(2)"])
def test_batched_fs_indicators_match_one_by_one(name):
    t = table(name)
    g = t.group
    iota = duality_involution(g)
    cls = g.conjugacy().cls
    # independent reference: the class of g * iota(g), one element at a time
    square_classes = [int(cls[g.mul_idx(x, iota.apply(x))]) for x in range(g.order)]
    batched = twisted_fs_indicators(t.irreducibles, iota)
    assert len(batched) == len(t)
    for chi, eps in zip(t.irreducibles, batched):
        total = CyclotomicNumber.zero()
        for k in square_classes:
            total = total + chi.values[k]
        assert eps == total * Fraction(1, g.order) == twisted_fs_indicator(chi, iota)


def test_twisted_involution_count_identity():
    # sum over irreducibles of eps(chi) * chi(1) = #{g : iota(g) = g^-1}
    for name in ["GL2(3)", "SL2(3)"]:
        t = table(name)
        g = t.group
        iota = duality_involution(g)
        total = CyclotomicNumber.zero()
        for chi in t.irreducibles:
            total = total + twisted_fs_indicator(chi, iota) * chi.degree
        count = sum(
            1 for idx in range(g.order) if iota.apply(idx) == int(g.inv_perm[idx])
        )
        assert total == count


def test_restriction_gl2_to_sl2():
    gl = cached_group("GL2(3)")
    sl = cached_group("SL2(3)")
    t = table("GL2(3)")
    ts = table("SL2(3)")
    for chi in t.irreducibles:
        res = restrict_between_groups(chi, sl)
        norm = inner_product(res, res).as_rational()
        assert norm in (1, 2)
        decomp = [inner_product(res, s).as_rational() for s in ts.irreducibles]
        assert all(m in (0, 1) for m in decomp)  # multiplicity free
        assert sum(m * s.degree.as_int() for m, s in zip(decomp, ts.irreducibles)) == (
            chi.degree.as_int()
        )


def test_modular_decomposition_matches_exact():
    t = table("GL2(3)")
    g = t.group
    ind_b = induce_from_subgroup(g, g.borel_indices)
    coeffs = t.decompose_integers(ind_b)
    exact = [inner_product(ind_b, chi).as_rational() for chi in t.irreducibles]
    assert [Fraction(c) for c in coeffs] == exact


def test_sl3_4_table_runs_and_is_orthogonal():
    import time

    start = time.time()
    t = table("SL3(4)")
    elapsed = time.time() - start
    assert elapsed < 60
    assert len(t) == 28
    assert sum(d * d for d in t.degrees) == 60480
    # the l1 bound of SL3(4)'s Grams (about 5.9e5) is below one prime near
    # 2^24, so one prime decides them
    primes = t.verify_orthogonality()
    assert len(primes) == 1
    # a target off by that prime agrees with the Gram modulo it; its size
    # brings in a second prime, which refuses it
    target = (t.group.order + primes[0]) * np.eye(len(t), dtype=np.int64)
    verdict, _, more = gram_certificate(t.group, t.irreducibles, target)
    assert more[0] == primes[0] and len(more) == 2
    assert not verdict.diagonal().any() and verdict.sum() == len(t) * (len(t) - 1)


def test_dual_commutes_with_twist():
    # dual o twist = twist o dual as literal value lists, per automorphism
    from redchar.groups import adjoint_action_representatives, transpose_inverse

    for name in ["GL2(3)", "SL2(3)"]:
        t = table(name)
        autos = [duality_involution(t.group), transpose_inverse(t.group)]
        autos += adjoint_action_representatives(t.group)
        for chi in t.irreducibles:
            for sigma in autos:
                lhs = dual_character(twist_by_automorphism(chi, sigma))
                rhs = twist_by_automorphism(dual_character(chi), sigma)
                assert lhs == rhs


def test_frobenius_reciprocity_random_pairs():
    import random

    g = cached_group("GL2(3)")
    t = table("GL2(3)")
    ind_b = induce_from_subgroup(g, g.borel_indices)
    cls = g.conjugacy().cls
    rng = random.Random(11)
    for _ in range(20):
        chi = rng.choice(t.irreducibles)
        # <Ind_B(1), chi>_G = <1, Res_B chi>_B
        lhs = inner_product(ind_b, chi)
        acc = CyclotomicNumber.zero()
        for idx in g.borel_indices:
            acc = acc + chi.values[int(cls[idx])].conjugate()
        assert lhs == acc * Fraction(1, len(g.borel_indices))


def test_table_json_deterministic_across_builds():
    import json

    a = character_table(GroupRealization(GroupSpec.parse("GL2(3)"))).to_json()
    b = character_table(GroupRealization(GroupSpec.parse("GL2(3)"))).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_table_prime_bound_refusal():
    import pytest
    from redchar.chartable import NoTablePrime, find_table_prime

    with pytest.raises(NoTablePrime, match="below the bound"):
        find_table_prime(24, 48, bound=96)


# SHA-256 of json.dumps(table.to_json(), sort_keys=True), recorded from the
# scalar-DFT lift that the Vandermonde lift replaced; GL2(7) through SL3(4)
# recorded from the eigenspace split that solved for each action matrix, before
# the echelon-form split replaced it
TABLE_DIGESTS = {
    "GL2(2)": "bc31e14d0cd2c45f2f9dd12ab36c6998fd55a4d187896dde644cdbbc355ae2b1",
    "GL2(3)": "b48d4e04bc7573c26dc72bab1a1a0dc27a26ff46157fe45e62e3a3da54cac597",
    "GL2(4)": "e07a80b7f90630ae7ecdd848bbf21903c5cac576b61341fecd4505e485868e24",
    "GL2(5)": "cd0c9c1d95b86ebeef32f2d7e172203d0c873c6fc1a7b72bf5a4e56f6efe47b6",
    "SL2(3)": "265b20dab031c0bab86c8d2c7195a05a4d9996740d0f79939ca1079eecc66d85",
    "SL2(4)": "7faa53e434607fc43da4622db5675269fd274cb11417f8244e4a7ea98a28ef04",
    "SL2(5)": "b152f354fe282357748999327fe0c13673b5c9c86cd63d38f8599284eaf8a0c0",
    "GL3(2)": "1de70336c5b1fd68edae068b7cbd983b64b71a7e2ad75323575b05362d2a44aa",
    "SL3(3)": "99a3e150b451fbb5381dc8bea77c1a4b6ef4c670458f18a14aee887602ed209a",
    "GL2(7)": "65e8b4d1924e630d59388931da20cd623cffacc2de3269b570346ef5e59491b3",
    "GL3(3)": "8994e032416e0b92a6103e8dc65de37b48da4fc6fe4e5e59427020c0c17b2e42",
    "GL2(9)": "d7968a053ccc457ccd9ca57724156857b02b5b99e82fe53ff4c12ab35c78aec7",
    "SL3(4)": "5581be37c892400a4122b0a0276f4673f5d29daaea2c8fafbda9e106309b984d",
    # recorded from the dense layout (phi(e) coordinates per value) that the
    # per-order blocks replaced; these have the widest gap between e and the
    # class orders
    "GL3(4)": "f3582891805268fffc1911f634d02bfcbcd74fba4e6b4b47042031edf1c3c858",
    "SL3(5)": "bc5bb78b974862fbe5f654964b97f4c445662ad821e35ee329cedfd3e08dc7a8",
}


@pytest.mark.parametrize("name", sorted(TABLE_DIGESTS))
def test_table_json_digest_unchanged(name):
    payload = json.dumps(table(name).to_json(), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == TABLE_DIGESTS[name]


@pytest.mark.parametrize("name", ["GL2(9)", "GL3(4)", "SL3(5)"])
def test_exact_orthogonality_where_reports_use_the_modular_shadow(name):
    # `verify table` certifies these only mod ell; the exact certificate
    # holds on them too
    assert table(name).verify_orthogonality()


def test_sl3_5_values_take_phi_of_their_class_order():
    t = table("SL3(5)")
    data = t.group.conjugacy()
    assert data.n_classes * euler_phi(data.exponent) == 28_800
    stored = sum(euler_phi(m) for m in data.orders)
    assert stored == 388
    orders = sorted(set(data.orders))
    shapes = [(data.orders.count(m), euler_phi(m)) for m in orders]
    for chi in t.irreducibles:
        assert chi.flat.size == stored and [b.shape for b in chi.blocks] == shapes


@pytest.mark.parametrize("name", ["GL2(3)", "GL2(4)", "SL2(5)", "GL3(2)", "GL3(3)", "SL3(3)"])
def test_split_rows_are_the_central_characters_of_the_table(name):
    """The class-matrix split yields exactly omega_chi(K_k) = s_k chi(g_k) / chi(1)
    mod ell, one row per irreducible of the exactly certified table, and the
    values and degrees recovered from them are the table's."""
    t = table(name)
    t.verify_orthogonality()
    ell = t.modular.ell
    sizes = t.group.conjugacy().sizes.astype(np.int64)
    rows = [t.modular.reduce_class_function(chi) for chi in t.irreducibles]
    expected = sorted(
        (row * sizes % ell * pow(d, -1, ell) % ell).tolist() for row, d in zip(rows, t.degrees)
    )
    omegas = _central_characters_mod(t.group, ell)
    assert omegas.tolist() == expected
    chi_mod, degrees = _character_values_mod(t.group, omegas, ell)
    assert sorted(zip(degrees, chi_mod.tolist())) == sorted(
        zip(t.degrees, (row.tolist() for row in rows))
    )


@pytest.mark.parametrize("name", ["GL2(5)", "SL3(3)"])
def test_sort_key_orders_as_degree_then_nested_lists(name):
    rows = list(table(name).irreducibles)
    e = rows[0].group.conjugacy().exponent

    def nested(chi):  # the coefficients over zeta_e, class by class
        return [v.lift(e).num for v in chi.values]

    by_lists = sorted(rows, key=lambda chi: (chi.degree.as_int(), nested(chi)))
    assert any(c < 0 for chi in rows for num in nested(chi) for c in num)
    assert _sort_characters(rows[::-1]) == by_lists


def _with_row(t, i, chi):
    rows = list(t.irreducibles)
    rows[i] = chi
    return CharacterTable(t.group, rows, t.modular)


@pytest.mark.parametrize("coefficient", [0, 1])
def test_orthogonality_rejects_one_changed_coefficient(coefficient):
    t = table("GL2(5)")
    assert t.verify_orthogonality()
    # the first irrational value of the table, shifted by +1 in one
    # power-basis coefficient
    i, k, v = next(
        (i, k, v)
        for i, chi in enumerate(t.irreducibles)
        for k, v in enumerate(chi.values)
        if not v.is_rational()
    )
    num = list(v.num)
    num[coefficient] += v.den
    values = list(t.irreducibles[i].values)
    values[k] = CyclotomicNumber(v.conductor, num, v.den)
    with pytest.raises(AssertionError, match="orthogonality fails"):
        _with_row(t, i, ClassFunction(t.group, values)).verify_orthogonality()


def test_orthogonality_rejects_repeated_irreducible():
    t = table("GL2(5)")
    with pytest.raises(AssertionError, match="orthogonality fails"):
        _with_row(t, 3, t.irreducibles[4]).verify_orthogonality()


def test_orthogonality_rejects_non_integral_value():
    t = table("GL2(3)")
    values = list(t.irreducibles[0].values)
    k = next(k for k in range(len(values)) if k != t.group.conjugacy().cls[t.group.identity_idx])
    values[k] = values[k] + Fraction(1, 2)
    half = ClassFunction(t.group, values)
    with pytest.raises(AssertionError, match="not a cyclotomic integer"):
        _with_row(t, 0, half).verify_orthogonality()


def test_inner_product_does_not_overflow_int64():
    # (2^62 // 96) - 1 passes the guard on the conjugation matmul (phi = 96);
    # times the class size 936 it no longer fits in int64
    g = cached_group("SL3(3)")
    data = g.conjugacy()
    k = [int(s) for s in data.sizes].index(936)
    assert _packed_context(g).phi == 96
    values = [0] * data.n_classes
    values[k] = (1 << 62) // 96 - 1
    f = ClassFunction(g, values)
    expected = Fraction(2307687492682145452552233839813521, 6)
    assert inner_product(f, f) == expected == Fraction(values[k] ** 2 * 936, g.order)


def test_reduce_class_function_matches_value_by_value():
    t = table("GL2(5)")
    mod = t.modular
    chi = t.irreducibles[-1]
    f = ClassFunction(t.group, [v * Fraction(1, 3) for v in chi.values])
    got = mod.reduce_class_function(f)
    for k, v in enumerate(f.values):
        x = v.lift(mod.e)
        acc = sum(c * pow(mod.zeta_mod, i, mod.ell) for i, c in enumerate(x.num))
        assert got[k] == acc * pow(x.den, -1, mod.ell) % mod.ell


def test_lift_packs_the_values_it_returns():
    # the lift fills mat from the multiplicities directly; it must agree
    # with lifting each returned value to the exponent conductor
    for name in ["GL2(5)", "SL3(3)"]:
        for chi in table(name).irreducibles:
            ref = ClassFunction(chi.group, chi.values)
            assert chi.den == ref.den == 1 and chi == ref


@pytest.mark.parametrize("name", ["SL3(3)", "GL2(7)", "SL3(5)"])
def test_a_table_builds_neither_the_inverse_map_nor_the_borel(name):
    spec = GroupSpec.parse(name)
    g = GroupRealization(spec)
    table_of(g)
    assert "inv_perm" not in vars(g)
    assert "_subgroups" not in vars(g)


def _class_matrix_through_the_inverse_map(g, i):
    """M_i with every column, from x^-1 = inv_perm[x] over the members x of C_i."""
    data = g.conjugacy()
    x_inv = g.inv_perm[data.members(i)]
    classes = data.cls[g.right_mul(g.elements[data.reps], x_inv)]  # (classes k, x)
    return np.stack([np.bincount(row, minlength=data.n_classes) for row in classes], axis=1)


@pytest.mark.parametrize("name", ["GL2(4)", "SL3(3)"])
def test_class_matrices_from_inverse_class_members_match_the_inverse_map(name):
    g = cached_group(name)
    r = g.conjugacy().n_classes
    for i in range(r):
        assert np.array_equal(_class_matrix(g, i, np.arange(r)), _class_matrix_through_the_inverse_map(g, i))


def _loop_rref(mat, ell):
    """Row reduction mod ell one row at a time: the oracle for `_mod_rref`."""
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


def _loop_nullspace(a, ell):
    rows, cols = a.shape
    red, pivots = _loop_rref(a.copy(), ell)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for j, fc in enumerate(free):
        basis[fc, j] = 1
        for i, pc in enumerate(pivots):
            basis[pc, j] = (-red[i, fc]) % ell
    return basis, free


def _elimination_cases(ell):
    rng = np.random.default_rng(ell)
    cases = [
        np.zeros((4, 5), dtype=np.int64),  # no pivot at all
        np.array([[0, 0, 3], [0, 2, 1], [5, 0, 0]], dtype=np.int64),  # every pivot needs a row swap
        np.array([[1, 2, 3, 4], [2, 4, 6, 8], [0, 0, 1, 1]], dtype=np.int64) * 7 - 3,  # rank 2 of 3
        rng.integers(-ell, ell, size=(3, 7)),  # full row rank: the rank == rows exit
    ]
    for rows, cols, rank in [(6, 6, 6), (8, 8, 5), (5, 9, 3), (9, 4, 2), (12, 12, 11)]:
        left = rng.integers(0, ell, size=(rows, rank))
        right = rng.integers(0, ell, size=(rank, cols))
        product = (left[:, :, None] * right[None, :, :] % ell).sum(axis=1) % ell
        product[:, rng.permutation(cols)[: cols // 3]] = 0  # zero columns: skipped pivots
        cases.append(product[rng.permutation(rows)])
    return cases


@pytest.mark.parametrize("ell", [421, 766321])
def test_array_elimination_matches_the_row_loop(ell):
    for mat in _elimination_cases(ell):
        red, pivots = _mod_rref(mat.copy(), ell)
        want_red, want_pivots = _loop_rref(mat.copy(), ell)
        assert pivots == want_pivots
        assert np.array_equal(red, want_red)
        basis, free = _mod_nullspace(mat, ell)
        want_basis, want_free = _loop_nullspace(mat, ell)
        assert list(free) == want_free
        assert np.array_equal(basis, want_basis)
        assert not (mat @ basis % ell).any()

