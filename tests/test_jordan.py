import numpy as np
import pytest

from redchar.automorphisms import (
    adjoint_action_representatives,
    chevalley_involution,
    duality_involution,
    identity_automorphism,
)
from redchar.chartable import (
    dual_character,
    inner_product,
    root_sum_function,
    table_of,
    twist_by_automorphism,
)
from redchar.dl import dl_character, dl_context, lusztig_series
from redchar.groups import cached_group
from redchar.jordan import (
    all_jordan_data,
    disconnected_jordan,
    dual_centralizer,
    frobenius_eigenvalue,
    transport_tuple,
    two_h1_predicate,
    uch_multiplicity,
    verify_automorphism_equivariance,
    verify_dual_equivariance,
    verify_dualizing,
    verify_duality_biconditional,
)

from dl_oracle import unipotent_characters
from reference import is_central, values


def test_dual_centralizer_shapes():
    ctx = dl_context("GL2(3)")
    labels = {s.label for s in lusztig_series(ctx)}
    for label in labels:
        cent = dual_centralizer(ctx, label)
        if is_central(label):
            assert cent.realized_specs == ["GL2(3)"]
            assert cent.epsilon_product == 1
        elif len(label.orbits) == 2:
            assert sorted(cent.realized_specs) == ["GL1(3)", "GL1(3)"]
            assert cent.epsilon_product == 1
        else:
            assert cent.realized_specs == ["GL1(9)"]
            assert cent.epsilon_product == -1


def test_jordan_bijection_gl2_3():
    ctx = dl_context("GL2(3)")
    uni = unipotent_characters(ctx)
    jd = all_jordan_data(ctx)
    central = next(lab for lab in jd if is_central(lab) and lab.orbits[0][0] == (1, 0))
    data = jd[central]
    series = next(s for s in lusztig_series(ctx) if s.label == central)
    split = next(
        i for i, td in enumerate(series.torus_data) if td.pi_tuple[0][1] == (1, 1)
    )
    cox = next(
        i for i, td in enumerate(series.torus_data) if td.pi_tuple[0][1] == (2,)
    )
    # J_1(trivial) = trivial partition (2), J_1(Steinberg) = (1,1), and the
    # multiplicity vectors are (1, 1) and (1, -1) over (split, Coxeter)
    triv, stein = data.witnesses[uni[(2,)]], data.witnesses[uni[(1, 1)]]
    assert triv.unipotent == ((2,),)
    assert stein.unipotent == ((1, 1),)
    assert (triv.multiplicities[split], triv.multiplicities[cox]) == (1, 1)
    assert (stein.multiplicities[split], stein.multiplicities[cox]) == (1, -1)


def test_jordan_witness_identity_exhaustive():
    """Multiplicity vectors match sign * symmetric-group values everywhere,
    and the stored vectors agree with independently computed exact inner
    products."""
    for name in ["GL2(3)", "GL3(2)"]:
        ctx = dl_context(name)
        jd = all_jordan_data(ctx)
        for s in lusztig_series(ctx):
            data = jd[s.label]
            for td in s.torus_data:
                r = dl_character(ctx, td.parts, td.exps)
                for member, wit in data.witnesses.items():
                    exact = inner_product(
                        r.class_function, ctx.table.irreducibles[member]
                    )
                    k = s.torus_data.index(td)
                    assert exact == wit.multiplicities[k]
                    assert wit.multiplicities[k] == wit.sign * uch_multiplicity(
                        s.label, td.pi_tuple, wit.unipotent
                    )


def test_frobenius_eigenvalue_scope():
    assert frobenius_eigenvalue(((2,),)) == 1
    assert frobenius_eigenvalue(((1, 1), (1,))) == 1


# -- the central-character identity and SL rigidity, proved on the test groups


def central_linear_character(ctx, z_exp: int):
    """The linear character zhat = (character matched to z) o det on GL_n(q):
    zhat(x) = zeta_(q-1)^(z log det x) = zeta_e^(z log det x e / (q-1))."""
    g = ctx.group
    data = g.conjugacy()
    logs = np.array(g.field.log)[g._det(g._rows[data.reps])]
    exponents = logs * z_exp * (ctx.e // (ctx.q - 1))
    return root_sum_function(g, np.arange(data.n_classes), exponents)


def verify_tensor_identity(ctx, label, z_exp: int) -> list[dict]:
    """J_{sz}(rho tensor zhat) = J_s(rho), transported along orbit scaling."""
    jd = all_jordan_data(ctx)
    data = jd[label]
    zhat = central_linear_character(ctx, z_exp)
    scaled = label.scaled(ctx.tower, z_exp)
    target = jd[scaled]
    rows = []
    irr = ctx.table.irreducibles
    tensored = [irr[member] * zhat for member in data.witnesses]
    matches = ctx.table.identify(np.stack([f.flat for f in tensored]))
    for (member, wit), match in zip(data.witnesses.items(), matches):
        expected = transport_tuple(
            ctx, label, scaled, wit.unipotent, lambda k: ctx.tower.scale_key(k, z_exp)
        )
        ok = target.witnesses[match].unipotent == expected
        rows.append(
            {
                "member": member,
                "tensored_member": match,
                "ok": bool(ok),
                "detail": f"{wit.unipotent} -> {target.witnesses[match].unipotent}",
            }
        )
    return rows


def verify_hc_rigidity(sl_group) -> list[dict]:
    """Within one series of SL_n(q): if rho o iota = rho^vee o ad(g) for an
    adjoint representative g, then already rho o iota = rho^vee."""
    table = table_of(sl_group)
    iota = duality_involution(sl_group)
    reps = adjoint_action_representatives(sl_group)
    irr = table.irreducibles
    rows = []
    for i, chi in enumerate(irr):
        twisted = twist_by_automorphism(chi, iota)
        dual = dual_character(chi)
        for g_auto in reps:
            moved = twist_by_automorphism(dual, g_auto)
            if twisted == moved:
                rows.append(
                    {
                        "member": i,
                        "rep": g_auto.name,
                        "ok": bool(twisted == dual),
                        "detail": "ad-twisted match implies exact match",
                    }
                )
    return rows


def test_central_linear_character():
    ctx = dl_context("GL2(3)")
    one = central_linear_character(ctx, 0)
    assert all(v == 1 for v in values(one))
    zhat = central_linear_character(ctx, 1)
    # order of zhat = multiplicative order of z (determinant is surjective)
    assert any(v != 1 for v in values(zhat))
    sq = zhat * zhat
    assert all(v == 1 for v in values(sq))


def test_tensor_identity_gl2_3():
    ctx = dl_context("GL2(3)")
    for s in lusztig_series(ctx):
        for z in range(ctx.q - 1):
            rows = verify_tensor_identity(ctx, s.label, z)
            assert all(r["ok"] for r in rows)


def test_dual_equivariance():
    for name in ["GL2(3)", "GL3(2)"]:
        ctx = dl_context(name)
        for s in lusztig_series(ctx):
            rows = verify_dual_equivariance(ctx, s.label)
            assert rows and all(r["ok"] for r in rows)


def test_automorphism_equivariance_identity_and_iota():
    for name in ["GL2(3)", "GL3(2)"]:
        ctx = dl_context(name)
        iota = duality_involution(ctx.group)
        ident = identity_automorphism(ctx.group)
        for s in lusztig_series(ctx):
            rows = verify_automorphism_equivariance(ctx, s.label, ident, "identity")
            assert all(r["ok"] for r in rows)
            rows = verify_automorphism_equivariance(ctx, s.label, iota, "inverse")
            assert all(r["ok"] for r in rows)


def test_automorphism_equivariance_diagram_flip_gl3_2():
    ctx = dl_context("GL3(2)")
    flip = chevalley_involution(ctx.group)
    for s in lusztig_series(ctx):
        rows = verify_automorphism_equivariance(ctx, s.label, flip, "inverse")
        assert all(r["ok"] for r in rows)


def test_disconnected_jordan_sl2_3():
    ctx = dl_context("GL2(3)")
    sl = cached_group("SL2(3)")
    dj = disconnected_jordan(ctx, sl)
    for dm in dj.values():
        assert all(r["ok"] for r in dm.rows)
    # the unipotent series has singleton fibers {trivial}, {Steinberg}
    central = next(dm for dm in dj.values() if is_central(dm.bar_label))
    assert sorted(len(v) for v in central.fibers.values()) == [1, 1]


def test_disconnected_jordan_sl2_5_fiber_of_size_two():
    ctx = dl_context("GL2(5)")
    sl = cached_group("SL2(5)")
    dj = disconnected_jordan(ctx, sl)
    for dm in dj.values():
        assert all(r["ok"] for r in dm.rows)
    table = sl._table
    two_fibers = [
        members
        for dm in dj.values()
        for members in dm.fibers.values()
        if len(members) == 2
    ]
    degree_sets = {tuple(sorted(table.degrees[m] for m in members)) for members in two_fibers}
    assert (2, 2) in degree_sets  # the two degree-(q-1)/2 characters


def test_disconnected_jordan_sl3_2():
    ctx = dl_context("GL3(2)")
    sl = cached_group("SL3(2)")
    dj = disconnected_jordan(ctx, sl)
    for dm in dj.values():
        assert all(r["ok"] for r in dm.rows)
        assert dm.gamma_order == 1  # gcd(3, q-1) = 1: everything connected


def test_two_h1_predicate():
    from redchar.groups import GroupSpec

    assert two_h1_predicate(GroupSpec.parse("GL2(3)"))
    assert two_h1_predicate(GroupSpec.parse("SL2(3)"))
    assert two_h1_predicate(GroupSpec.parse("SL2(5)"))
    assert two_h1_predicate(GroupSpec.parse("SL3(2)"))
    assert not two_h1_predicate(GroupSpec.parse("SL3(4)"))


def test_verify_dualizing_small_groups():
    for name in ["GL2(3)", "SL2(3)", "SL2(5)", "GL3(2)", "SL3(2)"]:
        group = cached_group(name)
        from redchar.chartable import table_of

        table_of(group)
        rows = verify_dualizing(group)
        assert all(r["ok"] for r in rows)


def test_verify_duality_biconditional():
    for name in ["GL2(3)", "GL3(2)"]:
        rows = verify_duality_biconditional(cached_group(name))
        assert all(r["ok"] for r in rows)
    rows = verify_duality_biconditional(cached_group("SL2(5)"))
    assert len(rows) == 9 and all(r["ok"] for r in rows)
    with pytest.raises(ValueError):
        verify_duality_biconditional(cached_group("SL3(4)"))


def test_hc_rigidity():
    for name in ["SL2(3)", "SL2(5)"]:
        rows = verify_hc_rigidity(cached_group(name))
        assert rows and all(r["ok"] for r in rows)


def test_dual_equivariance_disconnected():
    from redchar.jordan import verify_dual_equivariance_sl

    for gl_name, sl_name in [("GL2(3)", "SL2(3)"), ("GL2(5)", "SL2(5)"), ("GL3(2)", "SL3(2)")]:
        ctx = dl_context(gl_name)
        sl = cached_group(sl_name)
        rows = verify_dual_equivariance_sl(ctx, sl)
        assert rows and all(r["ok"] for r in rows), (sl_name, [r for r in rows if not r["ok"]][:3])


def test_fs_indicator_zero_iff_not_dualizing_sl3_4():
    # on SL3(4) the involution is pinning-dependent and some characters are
    # moved off their duals; the twisted indicator is 0 exactly there
    from redchar.chartable import dual_character, table_of, twist_by_automorphism, twisted_fs_indicator

    sl = cached_group("SL3(4)")
    table = table_of(sl)
    iota = duality_involution(sl)
    zeros = 0
    for chi in table.irreducibles:
        eps = twisted_fs_indicator(chi, iota)
        dualizing = twist_by_automorphism(chi, iota) == dual_character(chi)
        if dualizing:
            assert eps == 1 or eps == -1
        else:
            assert eps == 0
            zeros += 1
    assert zeros == 6  # the two size-3 adjoint orbits of degree-15 characters


def test_dual_centralizer_sl_side_component_group():
    ctx = dl_context("GL2(5)")
    from redchar.dl import all_labels

    # the label with a scaling stabilizer of order 2 has a disconnected
    # centralizer on the SL side
    stabilized = [
        lab
        for lab in all_labels(ctx)
        if not is_central(lab)
        and sum(1 for z in range(4) if lab.scaled(ctx.tower, z) == lab) == 2
    ]
    assert stabilized
    for lab in stabilized:
        cent = dual_centralizer(ctx, lab, sl_side=True)
        assert cent.component_order == 2
        gl_cent = dual_centralizer(ctx, lab)
        assert gl_cent.component_order == 1
        # both the group and centralizer F-ranks drop by one: the sign
        # product is the same on the two sides
        assert cent.epsilon_product == gl_cent.epsilon_product
