import dataclasses
import hashlib
import json
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from redchar.automorphisms import adjoint_action_representatives, duality_involution, identity_automorphism
from redchar.cache import ALGORITHM_VERSION, TableCache, _read_entry, cache_key, table_entry, table_from_entry
from redchar.chartable import (
    CharacterTable,
    _central_characters_mod,
    _character_values_mod,
    _class_matrix,
    _eigenspaces_mod,
    _exact_matmul,
    _galois_equivariant,
    _mod_nullspace,
    _mod_rref,
    _packed_context,
    _sort_characters,
    _unit_generators,
    character_table,
    dual_character,
    find_table_prime,
    gram_certificate,
    induce_from_subgroup,
    inner_product,
    table_of,
    trivial_character,
    twist_by_automorphism,
    twisted_fs_indicator,
    twisted_fs_indicators,
)
from redchar.cyclotomic import CyclotomicNumber, euler_phi
from redchar.finitefield import poly_roots
from redchar.groups import GroupRealization, GroupSpec, cached_group

from reference import (
    ENTRY_FAULTS,
    borel_indices,
    class_function,
    conjugate,
    entry_bytes,
    entry_parts,
    mul_idx,
    restrict_between_groups,
    table_json,
    values,
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
    reg = class_function(g, reg_values)
    assert inner_product(reg, triv) == 1
    for chi, d in zip(t.irreducibles, t.degrees):
        assert inner_product(reg, chi) == d


def test_steinberg_is_self_dual():
    t = table("GL2(3)")
    # Steinberg: the degree-q constituent of Ind_B(1)
    g = t.group
    ind_b = induce_from_subgroup(g, borel_indices(g))
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
            acc = acc + values(chi)[int(cls[idx])]
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
    square_classes = [int(cls[mul_idx(g, x, iota.apply(x))]) for x in range(g.order)]
    batched = twisted_fs_indicators(t.rows, 1, iota)
    assert len(batched) == len(t)
    for chi, eps in zip(t.irreducibles, batched):
        total = CyclotomicNumber.zero()
        for k in square_classes:
            total = total + values(chi)[k]
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
    ind_b = induce_from_subgroup(g, borel_indices(g))
    assert ind_b.den == 1
    coeffs = t.decompose_integers(ind_b.flat[None])[0].tolist()
    exact = [inner_product(ind_b, chi).as_rational() for chi in t.irreducibles]
    assert [Fraction(c) for c in coeffs] == exact


@pytest.mark.parametrize("name", ["GL2(3)", "GL2(4)", "SL2(3)", "SL2(5)", "GL3(2)", "GL2(5)", "SL3(3)"])
def test_batched_decomposition_matches_inner_products(name):
    # one call decomposes a stack of virtual characters: products of
    # irreducibles, a difference, a dual, the regular character
    t = table(name)
    chis = t.irreducibles
    fs = [chis[i] * chis[j] for i, j in [(0, 0), (1, -1), (-1, -1), (2, -2)]]
    fs += [chis[-1] - chis[1] * 2, dual_character(chis[-1]), induce_from_subgroup(t.group, [t.group.identity_idx])]
    assert all(f.den == 1 for f in fs)
    got = t.decompose_integers(np.stack([f.flat for f in fs]))
    assert got.shape == (len(fs), len(t)) and got.dtype == np.int64
    assert got.tolist() == [[inner_product(f, chi).as_int() for chi in chis] for f in fs]


def test_a_function_outside_the_span_of_irr_is_refused():
    # one coefficient of an irreducible shifted by the table prime: the
    # residues, so the candidate multiplicities, are those of chi, and the
    # exact check refuses them
    t = table("GL2(5)")
    flat = np.array(t.rows[:3])
    k = next(k for k in range(1, flat.shape[1]) if flat[2, k])
    flat[2, k] += t.modular.ell
    assert t.decompose_integers(flat[:2]).tolist() == np.eye(len(t), dtype=int)[:2].tolist()
    with pytest.raises(AssertionError, match="exact verification"):
        t.decompose_integers(flat)


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
    verdict, more = gram_certificate(t.group, t.rows, target)
    assert more[0] == primes[0] and len(more) == 2
    assert not verdict.diagonal().any() and verdict.sum() == len(t) * (len(t) - 1)


def test_dual_commutes_with_twist():
    # dual o twist = twist o dual as literal value lists, per automorphism
    from redchar.automorphisms import adjoint_action_representatives, transpose_inverse

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
    borel = borel_indices(g)
    ind_b = induce_from_subgroup(g, borel)
    cls = g.conjugacy().cls
    rng = random.Random(11)
    for _ in range(20):
        chi = rng.choice(t.irreducibles)
        # <Ind_B(1), chi>_G = <1, Res_B chi>_B
        lhs = inner_product(ind_b, chi)
        acc = CyclotomicNumber.zero()
        for idx in borel:
            acc = acc + conjugate(values(chi)[int(cls[idx])])
        assert lhs == acc * Fraction(1, len(borel))


def test_table_json_deterministic_across_builds():
    import json

    a = table_json(character_table(GroupRealization(GroupSpec.parse("GL2(3)"))))
    b = table_json(character_table(GroupRealization(GroupSpec.parse("GL2(3)"))))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_table_prime_bound_refusal():
    import pytest
    from redchar.chartable import NoTablePrime, find_table_prime

    with pytest.raises(NoTablePrime, match="below the bound"):
        find_table_prime(24, 48, bound=96)


# SHA-256 of json.dumps(table_json(table), sort_keys=True), recorded when the
# form became the flat per-order rows; the stacked int64 rows of every table
# here were equal to those of the cyclotomic-value form that this replaced
TABLE_DIGESTS = {
    "GL2(2)": "232f32ae9a8fe7920575275bd6e272a68c4c3c29158ec6e0e1df52ba1ecc3df3",
    "GL2(3)": "1b37e55f4184aaea7c637fefc203cda82f95f5ff8a7173e13b2b5c45e01681cf",
    "GL2(4)": "2234b7421d7cb12410b6281098b294ca5ebb9ea77ac338b0320da4cf2474f6ba",
    "GL2(5)": "29a735baca94547486f4377803b84816a606010e5d004acc7117fd32ecf02380",
    "SL2(3)": "803faa5dc331bd983cfba45b00b704f3cee4f66f39cd8441719a6b2a071c4d93",
    "SL2(4)": "fe95767fd05bf7dc7217ec128f8ed7c9da57324a813996be4193f6a880986ddb",
    "SL2(5)": "0cfd585d701a217c4f7e64e407c0d226f5be56ccc6f6f4830cf11ba922ee9932",
    "GL3(2)": "4242824d2f61e2743180f8a63b88f4f1b142fa6222a8ee5c0559b3285b10da42",
    "SL3(3)": "1d0fc0e30cb86d1e8c00829d2fc8ae97846e50116e76325d1b61963c57d7ceab",
    "GL2(7)": "71de915920dc180cdd5796235c2c366506b599975ad3c10a08bfd8ce0183fbc5",
    "GL3(3)": "96045b9289809de4a4844a4d1960359de9499f6d6fc26cd3a7b091c7e82cea6c",
    "GL2(9)": "87cfe6fe66b63ccbd41b465d3423103b878c2da868f7aea1864834837a23b7e6",
    "SL3(4)": "d02908671d4370b209d46a6e4445b7cf54c0671f3b1fdf855ee09757c48b5a21",
    "GL3(4)": "a976ed055fa51fe5d12c0f85ed18390e0a3c10aad6718eb362e38d638daf3dd8",
    "SL3(5)": "2f7b55898ca608ea31cd8850c756b5d37026ad262a00d64e4f258dc77c5fc1da",
}


@pytest.mark.parametrize("name", sorted(TABLE_DIGESTS))
def test_table_json_digest_unchanged(name):
    payload = json.dumps(table_json(table(name)), sort_keys=True).encode()
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
        assert chi.flat.size == stored and [b.shape for b in _packed_context(t.group).blocks(chi.flat)] == shapes


@pytest.mark.parametrize("name", ["GL2(3)", "GL2(4)", "SL2(5)", "GL3(2)", "GL3(3)", "SL3(3)", "GL2(9)"])
def test_split_rows_are_the_central_characters_of_the_table(name):
    """The class-matrix split yields exactly omega_chi(K_k) = s_k chi(g_k) / chi(1)
    mod ell, one row per irreducible of the exactly certified table, and the
    values and degrees recovered from them are the table's."""
    t = table(name)
    t.verify_orthogonality()
    ell = t.modular.ell
    sizes = t.group.conjugacy().sizes.astype(np.int64)
    rows = t.modular.reduce(t.rows)
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
    t = table(name)
    rows = list(t.irreducibles)
    e = t.group.conjugacy().exponent

    def nested(chi):  # the coefficients over zeta_e, class by class
        return [v.lift(e).num for v in values(chi)]

    by_lists = sorted(rows, key=lambda chi: (chi.degree.as_int(), nested(chi)))
    assert any(c < 0 for chi in rows for num in nested(chi) for c in num)
    flat = t.rows[::-1].copy()
    assert _sort_characters(t.group, flat) is flat
    assert flat.tolist() == [chi.flat.tolist() for chi in by_lists]


def _with_row(t, i, chi):
    rows = t.rows.copy()
    rows[i] = chi.flat
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
        for k, v in enumerate(values(chi))
        if not v.is_rational()
    )
    num = list(v.num)
    num[coefficient] += v.den
    changed = values(t.irreducibles[i])
    changed[k] = CyclotomicNumber(v.conductor, num, v.den)
    with pytest.raises(AssertionError, match="orthogonality fails"):
        _with_row(t, i, class_function(t.group, changed)).verify_orthogonality()


def test_orthogonality_rejects_a_galois_orbit_changed_consistently():
    # doubling an irreducible on the whole Galois orbit of an irrational
    # class keeps it Galois-equivariant, so only the Gram can refuse it
    t = table("GL2(5)")
    data = t.group.conjugacy()
    i, k = next(
        (i, k)
        for i, chi in enumerate(t.irreducibles)
        for k, v in enumerate(values(chi))
        if not v.is_rational()
    )
    m = data.orders[k]
    orbit = {int(data.power_classes[k, u]) for u in range(m) if gcd(u, m) == 1}
    assert len(orbit) > 1
    changed = class_function(t.group, [v * 2 if c in orbit else v for c, v in enumerate(values(t.irreducibles[i]))])
    assert _galois_equivariant(t.group, changed.flat[None, :]).all()
    with pytest.raises(AssertionError, match="orthogonality fails"):
        _with_row(t, i, changed).verify_orthogonality()


def test_a_power_map_that_moves_class_sizes_is_refused(monkeypatch):
    t = table("GL2(5)")
    g = t.group
    data = g.conjugacy()
    u = _unit_generators(data.exponent)[0]
    # two classes of one order and different sizes trade their images
    # under g -> g^u: still a permutation, but not of class sizes
    k1, k2 = next(
        (a, b)
        for a in range(data.n_classes)
        for b in range(a)
        if data.orders[a] == data.orders[b] and data.sizes[a] != data.sizes[b]
    )
    power = data.power_classes.copy()
    column = u % data.orders[k1]
    power[[k1, k2], column] = power[[k2, k1], column]
    monkeypatch.setattr(g, "conjugacy", lambda: dataclasses.replace(data, power_classes=power))
    with pytest.raises(AssertionError, match="keeping their sizes"):
        t.verify_orthogonality()


def _written_entry(directory, spec: str):
    """The path of the cache entry of spec's table, written into directory."""
    cache, group = TableCache(directory), cached_group(spec)
    cache.get_or_compute("character-table", spec, lambda: table_entry(table_of(group)))
    return cache._path(cache_key("character-table", spec))


def _read_back(group, path):
    header, rows = _read_entry(path, {"kind": "character-table", "spec": str(group.spec), "version": ALGORITHM_VERSION})
    return table_from_entry(group, header, rows)


def test_a_cache_hit_is_certified_exactly(tmp_path):
    # one coordinate of a non-identity class shifted by the table prime, the
    # CRC recomputed: the mod-ell shadow cannot see it, the exact
    # certificate refuses it
    group = cached_group("GL2(3)")
    path = _written_entry(tmp_path, "GL2(3)")
    header, block = entry_parts(path.read_bytes())
    ctx = _packed_context(group)
    ident = int(group.conjugacy().cls[group.identity_idx])
    k = next(k for k in range(ctx.n_classes) if k != ident)
    rows = np.frombuffer(block, header["dtype"]).reshape(header["shape"]).astype(np.int64)
    rows[1, int(ctx.row_start[k])] += header["ell"]
    CharacterTable(group, rows.copy(), table_of(group).modular).verify_modular_orthogonality()
    header["dtype"] = "<i8"  # so that the shifted entry fits
    path.write_bytes(entry_bytes(header, rows.astype("<i8").tobytes()))
    with pytest.raises(AssertionError, match="orthogonality fails"):
        _read_back(group, path)


@pytest.mark.parametrize("fault", sorted(ENTRY_FAULTS))
def test_a_malformed_table_form_is_refused(tmp_path, fault):
    # a typed block holds no float, string or nested entry, so the faults
    # are in the header, the block's length, type and shape, and the CRC
    group = cached_group("GL2(3)")
    path = _written_entry(tmp_path, "GL2(3)")
    corrupt, message = ENTRY_FAULTS[fault]
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(ValueError, match=message):
        _read_back(group, path)


@pytest.mark.parametrize("e", [30, 120, 168, 240, 312, 336, 420, 510, 1260, 2184, 3720])
def test_unit_generators_generate_the_units(e):
    gens = _unit_generators(e)
    assert len(gens) <= 5
    seen = frontier = {1}
    while frontier:
        frontier = {x * u % e for x in frontier for u in gens} - seen
        seen = seen | frontier
    assert seen == {u for u in range(e) if gcd(u, e) == 1}


@pytest.mark.parametrize(
    "a_max, b_max, dtype",
    [
        ((1 << 26) - 1, 1 << 26, np.int64),  # 2 max|a| max|b| just below 2^53: float64
        ((1 << 26) + 1, (1 << 26) + 1, np.int64),  # just above 2^53: int64
        ((1 << 30) + 1, (1 << 30) + 1, np.int64),  # about 2^61: int64
        (1 << 30, 1 << 31, object),  # 2^62: python ints
        ((1 << 31) + 1, (1 << 31) + 1, object),  # sums beyond int64
    ],
)
def test_exact_matmul_matches_python_ints_at_each_tier_edge(a_max, b_max, dtype):
    # 1024 x 2 times 2 x 512 is 2^20 multiply-adds, enough for the float64 tier
    rng = np.random.default_rng(a_max)
    a = rng.integers(-a_max, a_max, size=(1024, 2), endpoint=True)
    b = rng.integers(-b_max, b_max, size=(2, 512), endpoint=True)
    a[:2], b[:, 0] = a_max, b_max  # the largest sum the bound allows
    b[:, 1] = b_max, b_max - 1  # and an odd one next to it, which float64 rounds above 2^53
    got = _exact_matmul(a, b)
    assert got.dtype == dtype
    assert got.tolist() == (a.astype(object) @ b.astype(object)).tolist()
    assert int(got[1, 1]) == a_max * (2 * b_max - 1)


def test_orthogonality_rejects_repeated_irreducible():
    t = table("GL2(5)")
    with pytest.raises(AssertionError, match="orthogonality fails"):
        _with_row(t, 3, t.irreducibles[4]).verify_orthogonality()


def test_inner_product_does_not_overflow_int64():
    # (2^62 // 96) - 1 passes the guard on the conjugation matmul (phi = 96);
    # times the class size 936 it no longer fits in int64
    g = cached_group("SL3(3)")
    data = g.conjugacy()
    k = [int(s) for s in data.sizes].index(936)
    assert _packed_context(g).phi == 96
    given = [0] * data.n_classes
    given[k] = (1 << 62) // 96 - 1
    f = class_function(g, given)
    expected = Fraction(2307687492682145452552233839813521, 6)
    assert inner_product(f, f) == expected == Fraction(given[k] ** 2 * 936, g.order)


def test_reduce_class_function_matches_value_by_value():
    # a stack of integer class functions, reduced a chunk of rows at a time
    t = table("GL2(5)")
    mod = t.modular
    fs = [t.irreducibles[-1] * 3, t.irreducibles[-1] * t.irreducibles[-2], t.irreducibles[1]]
    got = mod.reduce(np.stack([f.flat for f in fs]))
    for f, row in zip(fs, got):
        for k, v in enumerate(values(f)):
            x = v.lift(mod.e)
            acc = sum(c * pow(mod.zeta_mod, i, mod.ell) for i, c in enumerate(x.num))
            assert x.den == 1 and row[k] == acc % mod.ell


def test_lift_packs_the_values_it_returns():
    # the lift fills mat from the multiplicities directly; it must agree
    # with lifting each returned value to the exponent conductor
    for name in ["GL2(5)", "SL3(3)"]:
        for chi in table(name).irreducibles:
            ref = class_function(chi.group, values(chi))
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
    classes = data.cls[g.right_mul(g.matrices(data.reps), x_inv)]  # (classes k, x)
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



def _newton_char_poly(a, ell):
    """The characteristic polynomial mod ell from the traces of a's powers by
    Newton's identities, constant term first: the oracle for the roots of
    `_eigenspaces_mod`."""
    n = a.shape[0]
    traces = []
    power = np.eye(n, dtype=np.int64)
    for _ in range(n):
        power = power @ a % ell
        traces.append(int(power.trace()) % ell)
    es = [1]  # e_k = (1/k) sum_{i=1..k} (-1)^(i-1) e_(k-i) p_i
    for k in range(1, n + 1):
        acc = sum((-1) ** (i - 1) * es[k - i] * traces[i - 1] for i in range(1, k + 1))
        es.append(acc * pow(k, -1, ell) % ell)
    return [(-1) ** k * es[k] % ell for k in range(n, -1, -1)]


_PLANTED = [3, 3, 3, 7, 7, 11, 20, 20, 5]  # 11 and 5 are simple


def _planted(ell, jordan=False):
    """A = X J X^-1 mod ell for a random invertible X and J = diag(_PLANTED),
    with a 2 x 2 Jordan block at the first eigenvalue if `jordan`; returns
    (A, X^-1)."""
    rng = np.random.default_rng(ell)
    n = len(_PLANTED)
    while True:
        x = rng.integers(0, ell, size=(n, n))
        red, pivots = _loop_rref(np.hstack([x, np.eye(n, dtype=np.int64)]), ell)
        if pivots[:n] == list(range(n)):
            x_inv = red[:, n:]
            break
    j = np.diag(_PLANTED).astype(np.int64)
    j[0, 1] = int(jordan)
    return x @ j % ell @ x_inv % ell, x_inv


@pytest.mark.parametrize("ell", [421, 766321])
def test_the_identity_row_splits_a_planted_diagonalizable_matrix(ell):
    """A row y with y X nonzero in every column has the minimal polynomial of
    A, so its roots are the distinct roots of the characteristic
    polynomial, and the kernels are the planted eigenspaces."""
    a, x_inv = _planted(ell)
    eye = np.eye(len(a), dtype=np.int64)
    assert poly_roots(_newton_char_poly(a, ell), ell) == sorted(set(_PLANTED))
    seen = np.arange(1, len(a) + 1)
    for zero in [None, 0]:  # y is zero on one column of the threefold eigenvalue 3
        weights = np.where(np.arange(len(a)) == zero, 0, seen)
        split = _eigenspaces_mod(a, weights @ x_inv % ell, ell)
        assert [root for root, _, _ in split] == poly_roots(_newton_char_poly(a, ell), ell)
        for root, kern, free in split:
            assert len(free) == _PLANTED.count(root)
            assert not ((a - root * eye) @ kern % ell).any()


@pytest.mark.parametrize("ell", [421, 766321])
def test_the_split_refuses_a_row_blind_to_an_eigenvalue_and_a_jordan_block(ell):
    """When the kernels fall short the split raises instead of returning fewer
    spaces: y zero on the eigenvector of the simple eigenvalue 11, or A with
    a 2 x 2 Jordan block."""
    a, x_inv = _planted(ell)
    blind = np.where(np.array(_PLANTED) == 11, 0, 1)
    with pytest.raises(RuntimeError, match="do not span"):
        _eigenspaces_mod(a, blind @ x_inv % ell, ell)
    a, x_inv = _planted(ell, jordan=True)
    with pytest.raises(RuntimeError, match="do not span"):
        _eigenspaces_mod(a, np.ones(len(a), dtype=np.int64) @ x_inv % ell, ell)
