"""Jordan decomposition of characters: the multiplicity-matching bijection
for GL_n, the disconnected-center surjection for SL_n through the regular
embedding SL_n -> GL_n, and the equivariance verifications.

The GL bijection is pinned by the inner-product identity alone: a series
member is matched to the unique unipotent character tuple of the dual
centralizer whose multiplicity vector (over all torus types, with the
global sign) coincides with its own.  Everything else is then verified,
not imposed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .automorphisms import GroupAutomorphism, adjoint_action_representatives, duality_involution
from .chartable import restriction_gather, table_of, twist_classes
from .cyclotomic import CyclotomicNumber
from .dl import (
    DLContext,
    SemisimpleClassLabel,
    SYM_CHARS,
    centralizer_torus_types,
    dl_character,
    dl_context,
    epsilon_group,
    label_stabilizer,
    lusztig_series,
    restrict_series,
)
from .groups import GroupRealization, UnsupportedSpec
from .rootdatum import two_h1_predicate


# ---------------------------------------------------------------------------
# dual centralizers and their unipotent data
# ---------------------------------------------------------------------------


@dataclass
class DualCentralizerData:
    label: SemisimpleClassLabel
    epsilon_product: int  # eps_G * eps_H
    realized_specs: list  # spec strings of the GL_m(q^d) factors
    component_order: int  # |H^F / H0^F| (1 on the GL side)


def dual_centralizer(ctx: DLContext, label: SemisimpleClassLabel, sl_side: bool = False):
    """C_{G*}(s) = prod over eigenvalue orbits of GL_{m_j}(q^{d_j})."""
    rank_sum = sum(m for _k, m in label.orbits)
    eps_h = (-1) ** rank_sum
    eps_g = epsilon_group("GL", ctx.n) if not sl_side else epsilon_group("SL", ctx.n)
    if sl_side:
        eps_h = -eps_h  # the central torus F_q^x is quotiented out
    specs = [f"GL{m}({ctx.q ** key[0]})" for key, m in label.orbits]
    component = len(label_stabilizer(ctx, label)) if sl_side else 1
    return DualCentralizerData(
        label=label,
        epsilon_product=eps_g * eps_h,
        realized_specs=specs,
        component_order=component,
    )


def unipotent_tuples(label: SemisimpleClassLabel):
    """Uch of the dual centralizer: one partition per eigenvalue orbit, in the
    order of `centralizer_torus_types`."""
    return [tuple(pi for _key, pi in types) for types in centralizer_torus_types(label)]


def uch_multiplicity(label, pi_tuple, lam_tuple) -> int:
    """<R_{T_pi}^H(1), rho_lam> = prod of symmetric group character values."""
    out = 1
    for (_key, pi), lam, (_k2, m) in zip(pi_tuple, lam_tuple, label.orbits):
        out *= SYM_CHARS[m][lam][pi]
    return out


def frobenius_eigenvalue(lam_tuple) -> CyclotomicNumber:
    """Frobenius eigenvalue of a unipotent character of a GL product.

    Every unipotent character of GL_m(q^d) is principal series, so the
    eigenvalue is 1.
    """
    return CyclotomicNumber.one()


# ---------------------------------------------------------------------------
# the GL Jordan bijection
# ---------------------------------------------------------------------------


@dataclass
class JordanWitness:
    member: int  # irreducible index in the parent table
    unipotent: tuple  # partition tuple aligned with label.orbits
    sign: int
    multiplicities: tuple  # <R_{T*}(s), rho> over the torus types (= sign * <R^H(1), u>)


@dataclass
class JordanData:
    label: SemisimpleClassLabel
    centralizer: DualCentralizerData
    witnesses: dict  # member index -> JordanWitness

    def unipotent_of(self, member: int) -> tuple:
        return self.witnesses[member].unipotent


def jordan_bijection(ctx: DLContext, label: SemisimpleClassLabel) -> JordanData:
    """The unique multiplicity-vector matching E(G, s) -> Uch(C(s))."""
    series = next(s for s in lusztig_series(ctx) if s.label == label)
    cent = dual_centralizer(ctx, label)
    sign = cent.epsilon_product
    tuples = unipotent_tuples(label)
    predicted = {
        lam: tuple(
            sign * uch_multiplicity(label, td.pi_tuple, lam) for td in series.torus_data
        )
        for lam in tuples
    }
    witnesses = {}
    used = set()
    for member in series.members:
        vec = tuple(td.decomposition[member] for td in series.torus_data)
        matches = [lam for lam, pred in predicted.items() if pred == vec]
        if len(matches) != 1:
            raise RuntimeError(
                f"multiplicity matching failed for member {member} of {label}: "
                f"vector {vec}, matches {matches}"
            )
        lam = matches[0]
        if lam in used:
            raise RuntimeError(f"matching is not injective at {lam}")
        used.add(lam)
        witnesses[member] = JordanWitness(
            member=member,
            unipotent=lam,
            sign=sign,
            multiplicities=vec,
        )
    if len(used) != len(tuples):
        raise RuntimeError(f"matching is not surjective for {label}")
    return JordanData(label=label, centralizer=cent, witnesses=witnesses)


def all_jordan_data(ctx: DLContext) -> dict:
    if ctx._jordan is None:
        ctx._jordan = {s.label: jordan_bijection(ctx, s.label) for s in lusztig_series(ctx)}
    return ctx._jordan


def _orbit_transport(ctx, label_from, label_to, mapping_key):
    """Position permutation sending orbit j of label_from to its image in
    label_to under an orbit-key map."""
    perm = []
    targets = list(label_to.orbits)
    for key, m in label_from.orbits:
        img = mapping_key(key)
        pos = targets.index((img, m))
        perm.append(pos)
    if sorted(perm) != list(range(len(perm))):
        raise RuntimeError("orbit transport is not a bijection")
    return perm


def transport_tuple(ctx, label_from, label_to, lam_tuple, mapping_key):
    """Carry a unipotent tuple along an orbit relabelling of the centralizer."""
    perm = _orbit_transport(ctx, label_from, label_to, mapping_key)
    out = [None] * len(lam_tuple)
    for j, lam in enumerate(lam_tuple):
        out[perm[j]] = lam
    return tuple(out)


# ---------------------------------------------------------------------------
# equivariance checks (connected center: GL_n)
# ---------------------------------------------------------------------------


def verify_dual_equivariance(ctx: DLContext, label) -> list[dict]:
    """J_{s^-1}(rho^vee) = J_s(rho)^vee for every member of E(G, s).

    Unipotent characters of GL products are self-dual, so the right side is
    the transport of J_s(rho) along orbit inversion.
    """
    jd = all_jordan_data(ctx)
    data = jd[label]
    inv_label = label.inverse(ctx.tower)
    target = jd[inv_label]
    dual = ctx.table.permutation(ctx.group.conjugacy().inverse_class)
    rows = []
    for member, wit in data.witnesses.items():
        dual_member = dual[member]
        got = target.witnesses[dual_member].unipotent
        expected = transport_tuple(
            ctx, label, inv_label, wit.unipotent, ctx.tower.invert_key
        )
        rows.append(
            {
                "member": member,
                "dual_member": dual_member,
                "ok": bool(got == expected),
                "detail": f"J(rho^vee)={got}, J(rho)^vee={expected}",
            }
        )
    return rows


def verify_automorphism_equivariance(
    ctx: DLContext,
    label,
    sigma: GroupAutomorphism,
    label_action: str,
) -> list[dict]:
    """J_{sigma*^-1(s)}(rho o sigma^-1) = J_s(rho) o sigma*^-1.

    `label_action` describes the dual automorphism on semisimple classes:
    "identity" (inner automorphisms) or "inverse" (the duality involution
    and the pinned Chevalley involution, which act on classes by s -> s^-1).
    """
    jd = all_jordan_data(ctx)
    data = jd[label]
    if label_action == "identity":
        target_label, key_map = label, lambda k: k
    elif label_action == "inverse":
        target_label, key_map = label.inverse(ctx.tower), ctx.tower.invert_key
    else:
        raise ValueError(f"unknown label action {label_action!r}")
    target = jd[target_label]
    twist = ctx.table.permutation(twist_classes(sigma))
    rows = []
    for member, wit in data.witnesses.items():
        match = twist[member]
        got = target.witnesses[match].unipotent
        expected = transport_tuple(ctx, label, target_label, wit.unipotent, key_map)
        rows.append(
            {
                "member": member,
                "twisted_member": match,
                "ok": bool(got == expected),
                "detail": f"J(rho o sigma)={got}, expected {expected}",
            }
        )
    return rows


# ---------------------------------------------------------------------------
# disconnected center: SL_n via the regular embedding
# ---------------------------------------------------------------------------


@dataclass
class DisconnectedJordanMap:
    bar_label: SemisimpleClassLabel
    lift: SemisimpleClassLabel
    gamma_order: int  # |H^F*/H0^F*|
    fibers: dict  # frozenset(orbit of unipotent tuples) -> sorted member tuple
    member_to_orbit: dict  # SL member -> frozenset of unipotent tuples
    rows: list  # verification rows for the three properties


def _gamma_orbit(ctx: DLContext, label, lam_tuple) -> frozenset:
    """Orbit of a unipotent tuple under the component group action."""
    out = set()
    for z in label_stabilizer(ctx, label):
        out.add(
            transport_tuple(ctx, label, label, lam_tuple, lambda k: ctx.tower.scale_key(k, z))
        )
    return frozenset(out)


def disconnected_jordan(
    ctx: DLContext, sl_group: GroupRealization
) -> dict:
    """The surjection J_s for every series of SL_n(q), with the fiber-orbit
    property, the fiber-size property, and the multiplicity sum identity all
    verified as postconditions."""
    if ctx._disconnected is not None and ctx._disconnected[0] is sl_group:
        return ctx._disconnected[1]
    gl_jordan = all_jordan_data(ctx)
    series_list = restrict_series(ctx, sl_group)
    sl_table = table_of(sl_group)
    adjoint = adjoint_action_representatives(sl_group)
    out = {}
    for s in series_list:
        lift = s.gl_lifts[0]
        stab = label_stabilizer(ctx, lift)
        gamma_order = len(stab)
        gl_data = gl_jordan[lift]
        # arrow: SL member -> GL characters above it within E(GL, lift)
        above: dict[int, list[int]] = {m: [] for m in s.members}
        for gl_member, sl_support in s.restriction_map.items():
            for m in sl_support:
                above[m].append(gl_member)
        member_orbit = {}
        for m in s.members:
            if not above[m]:
                raise RuntimeError(f"no GL character above SL member {m}")
            tuples = {gl_data.unipotent_of(gl) for gl in above[m]}
            orbits = {_gamma_orbit(ctx, lift, t) for t in tuples}
            if len(orbits) != 1:
                raise RuntimeError(
                    f"GL characters above member {m} hit several unipotent orbits"
                )
            member_orbit[m] = next(iter(orbits))
        # fibers of the surjection
        fibers: dict[frozenset, list[int]] = {}
        for m, orb in member_orbit.items():
            fibers.setdefault(orb, []).append(m)
        rows = []
        # property: fibers are exactly the adjoint-action orbits
        adjoint_orbits = _adjoint_orbits(sl_table, s.members, adjoint)
        fiber_sets = {tuple(sorted(v)) for v in fibers.values()}
        ok_fibers = fiber_sets == adjoint_orbits
        rows.append(
            {
                "check": "fibers-are-adjoint-orbits",
                "ok": bool(ok_fibers),
                "detail": f"fibers {sorted(fiber_sets)}, orbits {sorted(adjoint_orbits)}",
            }
        )
        # property: fiber over O has exactly |Gamma_u| elements
        all_orbits = {_gamma_orbit(ctx, lift, t) for t in unipotent_tuples(lift)}
        surjective = set(fibers) == all_orbits
        rows.append(
            {
                "check": "surjective-onto-unipotent-orbits",
                "ok": bool(surjective),
                "detail": f"{len(fibers)} fibers, {len(all_orbits)} orbits",
            }
        )
        for orb, members in fibers.items():
            rep = next(iter(orb))
            stab_size = sum(
                1
                for z in stab
                if transport_tuple(
                    ctx, lift, lift, rep, lambda k: ctx.tower.scale_key(k, z)
                )
                == rep
            )
            rows.append(
                {
                    "check": "fiber-size-is-stabilizer-order",
                    "ok": bool(len(members) == stab_size),
                    "detail": f"orbit {sorted(orb)}: fiber {len(members)}, "
                    f"stabilizer {stab_size}",
                }
            )
        # property: the multiplicity sum identity over every torus type
        rows.extend(_verify_sum_identity(ctx, sl_group, sl_table, s, lift, fibers))
        out[s.label] = DisconnectedJordanMap(
            bar_label=s.label,
            lift=lift,
            gamma_order=gamma_order,
            fibers={orb: tuple(sorted(v)) for orb, v in fibers.items()},
            member_to_orbit=member_orbit,
            rows=rows,
        )
    ctx._disconnected = (sl_group, out)
    return out


def _adjoint_orbits(sl_table, members, adjoint_reps) -> set:
    """The orbits of the members under the twists by `adjoint_reps`, read
    off the maps of Irr that the twists induce."""
    twists = [sl_table.permutation(twist_classes(auto)) for auto in adjoint_reps]
    orbits = set()
    seen = set()
    for m in members:
        if m in seen:
            continue
        orbit = {twist[m] for twist in twists}
        if not orbit <= set(members):
            raise RuntimeError("adjoint action leaves the series")
        orbits.add(tuple(sorted(orbit)))
        seen |= orbit
    return orbits


def _verify_sum_identity(ctx, sl_group, sl_table, s, lift, fibers) -> list[dict]:
    """<R_{T*}^{SL}(s), rho> = eps_SL eps_H0 sum over the orbit of
    <R^{H}(1), rho'> for every torus type and every member."""
    rows = []
    gl_series = next(x for x in lusztig_series(ctx) if x.label == lift)
    sign = epsilon_group("SL", ctx.n) * (-1) ** (sum(m for _k, m in lift.orbits) - 1)
    # the restrictions of the torus types' characters, one decomposition
    gl_rows = np.stack([dl_character(ctx, td.parts, td.exps).class_function.flat for td in gl_series.torus_data])
    decompositions = sl_table.decompose_integers(gl_rows[:, restriction_gather(sl_group, ctx.group)]).tolist()
    for td, coeffs in zip(gl_series.torus_data, decompositions):
        for orb, members in fibers.items():
            predicted = sign * sum(
                uch_multiplicity(lift, td.pi_tuple, lam) for lam in orb
            )
            for m in members:
                rows.append(
                    {
                        "check": "restricted-multiplicity-sum",
                        "ok": bool(coeffs[m] == predicted),
                        "detail": f"member {m}, torus {td.parts}: "
                        f"{coeffs[m]} vs {predicted}",
                    }
                )
    return rows


# ---------------------------------------------------------------------------
# the main biconditional
# ---------------------------------------------------------------------------


def verify_dualizing(group: GroupRealization) -> list[dict]:
    """rho o iota = rho^vee for every irreducible character: the maps of Irr
    that the twist and the dual induce agree at rho."""
    table = table_of(group)
    twist = table.permutation(twist_classes(duality_involution(group)))
    dual = table.permutation(group.conjugacy().inverse_class)
    return [
        {"member": i, "degree": degree, "ok": twist[i] == dual[i], "detail": "rho o iota == rho^vee"}
        for i, degree in enumerate(table.degrees)
    ]


def verify_duality_biconditional(group: GroupRealization, ctx: DLContext | None = None) -> list[dict]:
    """Both sides of: rho o iota = rho^vee iff the Frobenius eigenvalue of
    u_rho lies in {+-1}; requires the squared-coinvariants predicate."""
    if not two_h1_predicate(group.spec):
        raise UnsupportedSpec(
            f"{group.spec}: the duality involution is not pinning-independent "
            "(an order > 2 class survives in the Frobenius coinvariants of the "
            "center component group), so the biconditional is out of scope"
        )
    rows = verify_dualizing(group)
    if group.spec.family == "GL":
        ctx = ctx or dl_context(group.spec)
        jd = all_jordan_data(ctx)
        eigen_by_member = {}
        for data in jd.values():
            for m, wit in data.witnesses.items():
                eigen_by_member[m] = frobenius_eigenvalue(wit.unipotent)
    else:
        gl_ctx = ctx or dl_context(f"GL{group.n}({group.q})")
        dj = disconnected_jordan(gl_ctx, group)
        eigen_by_member = {}
        for dmap in dj.values():
            for m, orb in dmap.member_to_orbit.items():
                eigen_by_member[m] = frobenius_eigenvalue(next(iter(orb)))
    for row in rows:
        omega = eigen_by_member[row["member"]]
        rhs = omega == 1 or omega == -1
        row["eigenvalue_pm1"] = bool(rhs)
        row["ok"] = bool(row["ok"] == rhs and rhs)
        row["detail"] = "rho o iota == rho^vee iff omega(u_rho) in {1,-1}"
    return rows


def verify_dual_equivariance_sl(ctx: DLContext, sl_group: GroupRealization) -> list[dict]:
    """Orbit-level dual equivariance for the disconnected surjection:
    the fiber orbit of rho^vee at the inverse label is the inversion
    transport of the fiber orbit of rho."""
    dj = disconnected_jordan(ctx, sl_group)
    sl_table = table_of(sl_group)
    dual_of = sl_table.permutation(sl_group.conjugacy().inverse_class)
    tower = ctx.tower
    from .dl import pgl_label

    rows = []
    for bar_label, dmap in dj.items():
        inv_bar = pgl_label(ctx, bar_label.inverse(tower))
        target = dj[inv_bar]
        # carry unipotent tuples from orbits of dmap.lift to orbits of
        # target.lift: invert, then scale onto the chosen lift
        inv_lift = dmap.lift.inverse(tower)
        z_shift = next(
            z for z in range(ctx.q - 1) if inv_lift.scaled(tower, z) == target.lift
        )

        def carry(lam_tuple):
            t = transport_tuple(ctx, dmap.lift, inv_lift, lam_tuple, tower.invert_key)
            return transport_tuple(
                ctx, inv_lift, target.lift, t, lambda k: tower.scale_key(k, z_shift)
            )

        for m, orb in dmap.member_to_orbit.items():
            dual_m = dual_of[m]
            expected = frozenset(carry(t) for t in orb)
            got = target.member_to_orbit[dual_m]
            rows.append(
                {
                    "member": m,
                    "dual_member": dual_m,
                    "ok": bool(got == expected),
                    "detail": f"orbit {sorted(got)} vs transported {sorted(expected)}",
                }
            )
    return rows
