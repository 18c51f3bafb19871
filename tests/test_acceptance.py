"""Acceptance suite: one test per criterion, one printed line per criterion.

Every equality is exact (zero tolerance): cyclotomic values compare as
reduced coefficient vectors over power bases, inner products are exact
rationals, and all expected values are combinatorial integers.
"""

import time
from math import gcd, prod

from redchar.automorphisms import chevalley_involution, duality_involution
from redchar.chartable import table_of, twisted_fs_indicator
from redchar.dl import (
    dl_context,
    lusztig_series,
    verify_dl_invariants,
)
from redchar.groups import GroupRealization, GroupSpec, cached_group
from redchar.gelfandgraev import verify_generic_duality, whittaker_data
from redchar.jordan import (
    all_jordan_data,
    disconnected_jordan,
    two_h1_predicate,
    uch_multiplicity,
    verify_automorphism_equivariance,
    verify_dual_equivariance,
    verify_duality_biconditional,
)
from redchar.rootdatum import (
    center_component_group,
    h1_frobenius,
    named_datum,
)

from reference import unipotent_series

TABLE_GROUPS = ["GL2(3)", "SL2(3)", "SL2(5)", "GL3(2)", "SL3(2)", "SL3(4)"]
DUALIZING_GROUPS = {
    "GL2(3)": 8,
    "SL2(3)": 7,
    "SL2(5)": 9,
    "GL3(2)": 6,
    "SL3(2)": 6,
}


def announce(number: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number}: {text}"


def test_criterion_01_table_integrity():
    timings = {}
    for name in TABLE_GROUPS:
        fresh = GroupRealization(GroupSpec.parse(name))  # fresh build: honest timing
        start = time.monotonic()
        table = table_of(fresh)
        table.verify_degree_sum()
        table.verify_orthogonality()
        timings[name] = time.monotonic() - start
    ok = all(t < 60 for t in timings.values())
    detail = ", ".join(f"{n} {t:.1f}s" for n, t in timings.items())
    announce(1, ok, f"exact orthogonality and degree sums; {detail}")


def test_criterion_02_dualizing_involution():
    total = 0
    for name, expected in DUALIZING_GROUPS.items():
        group = cached_group(name)
        table_of(group)
        from redchar.jordan import verify_dualizing

        rows = verify_dualizing(group)
        assert len(rows) == expected, (name, len(rows))
        assert all(r["ok"] for r in rows), name
        total += len(rows)
    announce(2, True, f"rho o iota = rho^vee for all {total} irreducibles of 5 groups")


def test_criterion_03_generic_duality():
    cases = [("GL2(3)", "GL2(3)"), ("GL2(5)", "SL2(5)"), ("GL3(4)", "SL3(4)")]
    checks = 0
    for gl_name, name in cases:
        ctx = dl_context(gl_name)
        group = cached_group(name)
        table_of(group)
        for psi in whittaker_data(group):
            rows = verify_generic_duality(ctx, group, psi)
            assert all(r["ok"] for r in rows), (name, psi.descriptor(),
                                                [r for r in rows if not r["ok"]][:3])
            checks += len(rows)
    announce(
        3,
        True,
        f"Gamma_psi o iota = Gamma_(psi^-1), one generic per series, "
        f"gamma o iota = gamma^vee ({checks} checks incl. SL3(4) where 2H1 != 0)",
    )


def test_criterion_04_series_partition():
    ctx = dl_context("GL2(3)")
    series = lusztig_series(ctx)
    ok = len(series) == 6 and sorted(len(s.members) for s in series) == [1, 1, 1, 1, 2, 2]
    uni2 = unipotent_series(ctx)
    ok = ok and len(uni2.members) == 2  # p(2)
    ctx3 = dl_context("GL3(2)")
    lusztig_series(ctx3)  # partition integrity asserted internally
    ok = ok and len(unipotent_series(ctx3).members) == 3  # p(3)
    announce(4, ok, "GL2(3): 6 series sizes {2,2,1,1,1,1}; |E(G,1)| = p(n) for GL2, GL3")


def test_criterion_05_dl_invariants():
    counts = {}
    for name in ["GL2(3)", "GL3(2)"]:
        rows = verify_dl_invariants(dl_context(name))
        assert all(r["ok"] for r in rows), [r for r in rows if not r["ok"]][:3]
        counts[name] = len(rows)
    announce(
        5,
        True,
        f"exclusion-theorem inner products and degree identities, exhaustive "
        f"({counts['GL2(3)']} + {counts['GL3(2)']} checks)",
    )


def test_criterion_06_jordan_witness():
    checks = 0
    for name in ["GL2(3)", "GL3(2)"]:
        ctx = dl_context(name)
        jd = all_jordan_data(ctx)
        for s in lusztig_series(ctx):
            data = jd[s.label]
            for k, td in enumerate(s.torus_data):
                for member, wit in data.witnesses.items():
                    assert wit.multiplicities[k] == wit.sign * uch_multiplicity(
                        s.label, td.pi_tuple, wit.unipotent
                    )
                    checks += 1
    announce(
        6, True, f"<R(s), rho> = eps_G eps_H <R^H(1), u_rho> exhaustively ({checks} checks)"
    )


def test_criterion_07_equivariance():
    for name in ["GL2(3)", "GL3(2)"]:
        ctx = dl_context(name)
        iota = duality_involution(ctx.group)
        for s in lusztig_series(ctx):
            rows = verify_dual_equivariance(ctx, s.label)
            assert all(r["ok"] for r in rows), (name, s.label)
            rows = verify_automorphism_equivariance(ctx, s.label, iota, "inverse")
            assert all(r["ok"] for r in rows), (name, s.label)
    ctx3 = dl_context("GL3(2)")
    flip = chevalley_involution(ctx3.group)
    assert not flip.is_identity()
    for s in lusztig_series(ctx3):
        rows = verify_automorphism_equivariance(ctx3, s.label, flip, "inverse")
        assert all(r["ok"] for r in rows), s.label
    announce(
        7,
        True,
        "J_(s^-1)(rho^vee) = J_s(rho)^vee and iota/diagram-flip equivariance "
        "on all series of GL2(3), GL3(2)",
    )


def test_criterion_08_disconnected_jordan():
    details = []
    for gl_name, sl_name in [("GL2(3)", "SL2(3)"), ("GL2(5)", "SL2(5)"), ("GL3(2)", "SL3(2)")]:
        ctx = dl_context(gl_name)
        sl = cached_group(sl_name)
        dj = disconnected_jordan(ctx, sl)
        rows = [r for dm in dj.values() for r in dm.rows]
        assert all(r["ok"] for r in rows), (sl_name, [r for r in rows if not r["ok"]][:3])
        details.append(f"{sl_name}: {len(rows)} checks")
    # SL2(5): one fiber of size 2 holding the two degree-2 characters
    ctx = dl_context("GL2(5)")
    sl5 = cached_group("SL2(5)")
    table = table_of(sl5)
    dj = disconnected_jordan(ctx, sl5)
    degree_pairs = {
        tuple(sorted(table.degrees[m] for m in members))
        for dm in dj.values()
        for members in dm.fibers.values()
        if len(members) == 2
    }
    ok = (2, 2) in degree_pairs
    announce(8, ok, f"fibers = adjoint orbits, |fiber| = |Gamma|, sum identity; {'; '.join(details)}; "
                    f"SL2(5) has a size-2 fiber of the two degree-2 characters")


def test_criterion_09_main_biconditional():
    total = 0
    for name in DUALIZING_GROUPS:
        group = cached_group(name)
        rows = verify_duality_biconditional(group)
        assert all(r["ok"] and r["eigenvalue_pm1"] for r in rows), name
        total += len(rows)
    announce(
        9,
        True,
        f"rho o iota = rho^vee <=> omega(u_rho) in (+-1), both sides true for "
        f"all {total} irreducibles of the 5 groups with vanishing 2H1",
    )


def test_criterion_10_fs_indicators():
    ctx = dl_context("GL2(3)")
    iota = duality_involution(ctx.group)
    for chi in ctx.table.irreducibles:
        assert twisted_fs_indicator(chi, iota) == 1
    signs = {}
    for name in DUALIZING_GROUPS:
        group = cached_group(name)
        table = table_of(group)
        iota = duality_involution(group)
        vals = [twisted_fs_indicator(chi, iota) for chi in table.irreducibles]
        assert all(v == 1 or v == -1 for v in vals), name
        signs[name] = sum(1 for v in vals if v == -1)
    announce(
        10,
        True,
        f"all +1 on GL2(3); twisted indicators in (+-1), never 0, elsewhere "
        f"(#negative: {signs})",
    )


def test_criterion_11_cohomology_predicate():
    def mu_n_oracle(n, q, p):
        n_prime = n
        while n_prime % p == 0:
            n_prime //= p
        image = {(q * y - y) % n_prime for y in range(n_prime)}
        generator = min((x for x in image if x), default=0)
        return n_prime // (n_prime // generator) if generator else n_prime

    cases_true = [("GL1", q) for q in (2, 3, 4, 5)]
    cases_true += [("GL2", q) for q in (2, 3, 4, 5)]
    cases_true += [("GL3", q) for q in (2, 3, 4)]
    cases_true += [("SL2", 3), ("SL2", 5), ("SL3", 2)]
    for name, q in cases_true:
        group, vanishes = h1_frobenius(center_component_group(named_datum(name), q), q)
        assert vanishes, (name, q)
        if name.startswith("SL"):
            n = int(name[2])
            p = 2 if q in (2, 4, 8) else q
            assert prod(group.divisors) == mu_n_oracle(n, q, p) == gcd(n, q - 1)
    group, vanishes = h1_frobenius(center_component_group(named_datum("SL3"), 4), 4)
    ok = not vanishes and prod(group.divisors) == 3 == mu_n_oracle(3, 4, 2) == gcd(3, 3)
    assert not two_h1_predicate(GroupSpec.parse("SL3(4)"))
    announce(
        11,
        ok,
        "two_h1_vanishes true for GL_n (n<=3), SL2(3), SL2(5), SL3(2); false for "
        "SL3(4) (Z/3); matches independent coinvariant enumeration",
    )
