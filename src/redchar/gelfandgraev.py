"""Whittaker data, Gelfand-Graev characters, generic constituents, and the
generic duality check (which needs no hypothesis on the center)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .automorphisms import conjugated_duality_involution, duality_involution
from .chartable import (
    ClassFunction,
    induce_from_subgroup,
    table_of,
    twist_by_automorphism,
    twist_classes,
)
from .dl import DLContext, lusztig_series, restrict_series
from .groups import GroupRealization


def _trace_to_prime_field(fld, code: int) -> int:
    """Tr: F_{p^k} -> F_p on codes; the result is an integer in [0, p)."""
    acc = 0
    cur = code
    for _ in range(fld.k):
        acc = fld.add_codes(acc, cur)
        cur = fld.frobenius_code(cur)
    if acc >= fld.p:
        raise RuntimeError(f"trace of code {code} is not in the prime subfield")
    return acc


@dataclass
class WhittakerDatum:
    """A nondegenerate character of U^F given by one functional per simple
    root position: psi(u) = zeta_p^(Tr(sum a_i u_{i, i+1}))."""

    group: GroupRealization
    functionals: tuple  # nonzero field codes, one per simple root

    def __post_init__(self):
        if len(self.functionals) != self.group.n - 1:
            raise ValueError("need one functional per simple root")
        if any(a == 0 for a in self.functionals):
            raise ValueError("degenerate character: zero functional")
        # nondegeneracy certificate: restriction to each simple root
        # subgroup is a nontrivial character
        fld = self.group.field
        for i, a in enumerate(self.functionals):
            nontrivial = any(
                _trace_to_prime_field(fld, fld.mul_codes(a, c)) for c in range(1, fld.q)
            )
            if not nontrivial:
                raise ValueError(f"restriction to root subgroup {i} is trivial")

    def root_exponents(self) -> np.ndarray:
        """psi(u) = zeta_p^t = zeta_e^(t e / p) on `group.unipotent_indices`,
        as the exponents t e / p (p | e unless U^F is trivial and t = 0)."""
        g = self.group
        fld = g.field
        traces = []
        for mat in g.matrices(g.unipotent_indices):
            acc = 0
            for i, a in enumerate(self.functionals):
                acc = fld.add_codes(acc, fld.mul_codes(a, int(mat[i, i + 1])))
            traces.append(_trace_to_prime_field(fld, acc))
        return np.array(traces, dtype=np.int64) * (g.conjugacy().exponent // fld.p)

    def inverse(self) -> "WhittakerDatum":
        neg = self.group.field.neg_code
        return WhittakerDatum(self.group, tuple(neg(a) for a in self.functionals))

    def descriptor(self) -> str:
        return "psi" + "".join(f"[{a}]" for a in self.functionals)


def whittaker_data(group: GroupRealization) -> list[WhittakerDatum]:
    """Representatives of the T^F-orbits of nondegenerate characters of U^F.

    T^F acts on the functional tuples through the simple root values
    a_i -> alpha_i(t) a_i; orbits are enumerated exhaustively.
    """
    fld = group.field
    n, q = group.n, group.q
    torus_elements = []
    for mat in group.matrices(group.torus_indices):
        torus_elements.append([int(mat[i, i]) for i in range(n)])
    import itertools

    seen = set()
    reps = []
    for tup in itertools.product(range(1, q), repeat=n - 1):
        if tup in seen:
            continue
        reps.append(WhittakerDatum(group, tup))
        for diag in torus_elements:
            image = tuple(
                fld.mul_codes(a, fld.mul_codes(diag[i], fld.inv_code(diag[i + 1])))
                for i, a in enumerate(tup)
            )
            seen.add(image)
    return reps


def gelfand_graev(psi: WhittakerDatum) -> ClassFunction:
    """Gamma_psi: induction of psi from U^F to G^F."""
    g = psi.group
    return induce_from_subgroup(g, g.unipotent_indices, psi.root_exponents())


def gg_decomposition(psi: WhittakerDatum, table) -> list[int]:
    """Multiplicities of Gamma_psi over Irr; must be multiplicity free."""
    gamma = gelfand_graev(psi)
    if gamma.den != 1:
        raise AssertionError("virtual characters must have integral values")
    coeffs = table.decompose_integers(gamma.flat[None])[0].tolist()
    if any(c not in (0, 1) for c in coeffs):
        raise AssertionError("Gelfand-Graev character is not multiplicity free")
    return coeffs


def series_of_group(ctx: DLContext, group: GroupRealization):
    """(label, member tuple) pairs for GL itself or its SL subgroup."""
    if group.spec.family == "GL":
        return [(s.label, s.members) for s in lusztig_series(ctx)]
    return [(s.label, s.members) for s in restrict_series(ctx, group)]


def whittaker_duality_involution(psi: WhittakerDatum):
    """The duality involution built from the pinning matched to psi.

    The pinning attached to psi takes X_alpha_i = x_alpha_i(c_i) with
    psi(X_alpha_i) = zeta_p; the coordinates are fixed as c_i = y / a_i for
    one common trace-one element y, which makes the choice deterministic and
    symmetric across the diagram flip (the products a_i c_i agree, which is
    what psi o iota = psi^-1 requires).  The involution is the standard one
    conjugated by the diagonal adjoint element moving the pinnings.
    """
    g = psi.group
    fld = g.field
    y = next(
        c for c in range(1, fld.q) if _trace_to_prime_field(fld, c) == 1 % fld.p
    )
    cs = [fld.mul_codes(y, fld.inv_code(a)) for a in psi.functionals]
    if all(c == 1 for c in cs):
        return duality_involution(g)
    # diagonal t with alpha_i(t) = c_i moves the standard pinning onto psi's
    diag = [1]
    for c in cs:
        diag.append(fld.mul_codes(diag[-1], fld.inv_code(c)))
    mat = np.zeros((g.n, g.n), dtype=np.uint8)
    for i, d in enumerate(diag):
        mat[i, i] = d
    return conjugated_duality_involution(g, mat, f"duality[{psi.descriptor()}]")


def verify_generic_duality(
    ctx: DLContext, group: GroupRealization, psi: WhittakerDatum
) -> list[dict]:
    """Two exact identities: Gamma_psi o iota = Gamma_{psi^-1}, and for each
    semisimple label the generic constituent satisfies gamma o iota =
    gamma^vee.  No hypothesis on the center is needed."""
    table = table_of(group)
    iota = whittaker_duality_involution(psi)
    gamma = gelfand_graev(psi)
    gamma_inv = gelfand_graev(psi.inverse())
    rows = [
        {
            "check": "gg-involution-swap",
            "label": "-",
            "ok": bool(twist_by_automorphism(gamma, iota) == gamma_inv),
            "detail": "Gamma_psi o iota == Gamma_{psi^-1}",
        }
    ]
    coeffs = gg_decomposition(psi, table)
    series = series_of_group(ctx, group)
    total_constituents = sum(coeffs)
    rows.append(
        {
            "check": "gg-one-generic-per-series",
            "label": "-",
            "ok": bool(total_constituents == len(series)),
            "detail": f"{total_constituents} constituents vs {len(series)} series",
        }
    )
    degree_sum = sum(
        c * table.degrees[i] for i, c in enumerate(coeffs)
    )
    rows.append(
        {
            "check": "gg-degree",
            "label": "-",
            "ok": bool(degree_sum == group.order // len(group.unipotent_indices)),
            "detail": f"sum of constituent degrees {degree_sum}",
        }
    )
    # the maps of Irr that the twist and the dual induce, compared at each
    # series' one generic constituent
    twist = table.permutation(twist_classes(iota))
    dual = table.permutation(group.conjugacy().inverse_class)
    for label, members in series:
        candidates = [m for m in members if coeffs[m]]
        if len(candidates) != 1:
            rows.append(
                {
                    "check": "generic-duality",
                    "label": label.canonical_string(),
                    "ok": False,
                    "detail": f"{len(candidates)} generic constituents in the series",
                }
            )
            continue
        rows.append(
            {
                "check": "generic-duality",
                "label": label.canonical_string(),
                "ok": twist[candidates[0]] == dual[candidates[0]],
                "detail": f"constituent {candidates[0]} of degree "
                f"{table.degrees[candidates[0]]}",
            }
        )
    return rows
