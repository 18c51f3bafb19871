"""The `verify` command line tool.

    verify <check> --group <spec> [--format json|markdown]
                   [--cache-dir PATH] [--no-cache] [--budget N]

Checks: dualizing, generic, jordan-dual, jordan-auto, disconnected-jordan,
series-partition, dl-orthogonality, fs-indicator, center-h1, torus-lemma,
table, all.  Exit status 0 iff every item of every report passes.
"""

from __future__ import annotations

import argparse
import sys
import time

from .cache import TableCache
from .chartable import CharacterTable, table_of, twisted_fs_indicator
from .dl import (
    dl_context,
    lusztig_series,
    restrict_series,
    verify_dl_invariants,
    verify_torus_lemma,
)
from .groups import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    GroupSpec,
    build_group,
    cached_group,
    chevalley_involution,
    duality_involution,
    identity_automorphism,
)
from .jordan import (
    disconnected_jordan,
    two_h1_predicate,
    verify_automorphism_equivariance,
    verify_dual_equivariance,
    verify_duality_biconditional,
)
from .gelfandgraev import verify_generic_duality, whittaker_data
from .reports import CheckReport, emit_report
from .rootdatum import FrobeniusDatum, center_component_group, h1_frobenius, named_datum

EXIT_FAILURES = 1
EXIT_UNKNOWN_CHECK = 2
EXIT_UNSUPPORTED_SPEC = 3
EXIT_BUDGET = 4

_EXACT_OP_BUDGET = 2 * 10**9  # int64 operation budget for exact bulk checks


def _group_for(spec_text: str, budget: int, cache: TableCache | None):
    spec = GroupSpec.parse(spec_text)
    # the shared cache key must match the one dl_context uses internally
    group = cached_group(str(spec)) if budget == DEFAULT_BUDGET else build_group(
        spec, budget
    )
    if cache is not None and cache.enabled:
        payload = cache.get_or_compute(
            "character-table", str(spec), lambda: table_of(group).to_json()
        )
        if getattr(group, "_table", None) is None:
            group._table = CharacterTable.from_json(group, payload)
    else:
        table_of(group)
    return group


def _ctx_for(group, budget, cache):
    if group.spec.family == "GL":
        gl_group = group
    else:
        gl_group = _group_for(f"GL{group.n}({group.q})", budget, cache)
    return dl_context(str(gl_group.spec))


def _pair_budget(ctx) -> bool:
    """Exhaustive (w, theta) enumeration with exact pairwise inner products
    only when the arithmetic volume stays within the operation budget."""
    from .chartable import _packed_context
    from .dl import partitions_of

    total = 0
    for parts in partitions_of(ctx.n):
        count = 1
        for d in parts:
            count *= ctx.q**d - 1
        total += count
    pc = _packed_context(ctx.group)
    volume = total * total * pc.phi * pc.phi * pc.n_classes // 2
    return volume <= _EXACT_OP_BUDGET


def check_table(group, ctx, budget, cache):
    from .chartable import _packed_context

    table = table_of(group)
    rows = [
        {
            "check": "degree-sum",
            "ok": sum(d * d for d in table.degrees) == group.order,
            "detail": f"{len(table)} irreducibles, sum of squares {group.order}",
        }
    ]
    pc = _packed_context(group)
    r = pc.n_classes
    volume = r * r * pc.phi * pc.phi * r
    try:
        if volume <= _EXACT_OP_BUDGET:
            table.verify_orthogonality()
            detail = "rows and columns, exact"
        else:
            table.verify_modular_orthogonality()
            detail = "modular shadow (exact check above the operation budget)"
        rows.append({"check": "orthogonality", "ok": True, "detail": detail})
    except AssertionError as exc:
        rows.append({"check": "orthogonality", "ok": False, "detail": str(exc)})
    return rows


def check_dualizing(group, ctx, budget, cache):
    return verify_duality_biconditional(group, ctx)


def check_generic(group, ctx, budget, cache):
    rows = []
    for psi in whittaker_data(group):
        for row in verify_generic_duality(ctx, group, psi):
            row = dict(row)
            row["psi"] = psi.descriptor()
            rows.append(row)
    return rows


def check_jordan_dual(group, ctx, budget, cache):
    if group.spec.family == "SL":
        from .jordan import verify_dual_equivariance_sl

        return verify_dual_equivariance_sl(ctx, group)
    rows = []
    for s in lusztig_series(ctx):
        for row in verify_dual_equivariance(ctx, s.label):
            row = dict(row)
            row["label"] = s.label.canonical_string()
            rows.append(row)
    return rows


def check_jordan_auto(group, ctx, budget, cache):
    if group.spec.family != "GL":
        raise UnsupportedSpec("jordan-auto runs on the GL side")
    autos = [
        (identity_automorphism(group), "identity"),
        (duality_involution(group), "inverse"),
    ]
    flip = chevalley_involution(group)
    if not flip.is_identity():
        autos.append((flip, "inverse"))
    rows = []
    for sigma, action in autos:
        for s in lusztig_series(ctx):
            for row in verify_automorphism_equivariance(ctx, s.label, sigma, action):
                row = dict(row)
                row["sigma"] = sigma.name
                row["label"] = s.label.canonical_string()
                rows.append(row)
    return rows


def check_disconnected_jordan(group, ctx, budget, cache):
    if group.spec.family != "SL":
        raise UnsupportedSpec("disconnected-jordan runs on the SL side")
    rows = []
    for dmap in disconnected_jordan(ctx, group).values():
        for row in dmap.rows:
            row = dict(row)
            row["label"] = dmap.bar_label.canonical_string()
            rows.append(row)
    return rows


def check_series_partition(group, ctx, budget, cache):
    if group.spec.family == "GL":
        series = lusztig_series(ctx)
    else:
        series = restrict_series(ctx, group)
    table = table_of(group)
    rows = []
    covered = []
    for s in series:
        covered.extend(s.members)
        rows.append(
            {
                "check": "series",
                "label": s.label.canonical_string(),
                "ok": True,
                "detail": f"{len(s.members)} members: {list(s.members)}",
            }
        )
    ok = sorted(covered) == list(range(len(table.irreducibles)))
    rows.append(
        {
            "check": "partition",
            "ok": ok,
            "detail": f"{len(series)} series partition {len(table.irreducibles)} irreducibles",
        }
    )
    return rows


def check_dl_orthogonality(group, ctx, budget, cache):
    if group.spec.family != "GL":
        raise UnsupportedSpec("dl-orthogonality runs on the GL side")
    return verify_dl_invariants(ctx, exhaustive=_pair_budget(ctx))


def check_torus_lemma(group, ctx, budget, cache):
    if group.spec.family != "GL":
        raise UnsupportedSpec("torus-lemma runs on the GL side")
    return verify_torus_lemma(ctx, exhaustive=_pair_budget(ctx))


def check_fs_indicator(group, ctx, budget, cache):
    table = table_of(group)
    iota = duality_involution(group)
    # epsilon in {1, -1} is asserted exactly where the involution is
    # pinning-independent; otherwise rho o iota = rho^vee can fail and the
    # indicator is legitimately 0, so only membership in {-1, 0, 1} is checked
    dualizing_scope = two_h1_predicate(group.spec)
    rows = []
    for i, chi in enumerate(table.irreducibles):
        eps = twisted_fs_indicator(chi, iota)
        value = eps.as_int() if eps.is_rational() else None
        allowed = (1, -1) if dualizing_scope else (1, -1, 0)
        rows.append(
            {
                "check": "fs-indicator",
                "member": i,
                "ok": value in allowed,
                "detail": f"degree {table.degrees[i]}: epsilon = {eps}"
                + ("" if dualizing_scope else " (pinning-dependent scope)"),
            }
        )
    return rows


def check_center_h1(spec):
    datum = named_datum(f"{spec.family}{spec.n}")
    z = center_component_group(datum, FrobeniusDatum(spec.q))
    h1, vanishes = h1_frobenius(z)
    return [
        {
            "check": "center-h1",
            "ok": True,
            "detail": f"component group {z.group}, coinvariants {h1}, "
            f"two_h1_vanishes = {vanishes}",
        }
    ]


class UnsupportedSpec(Exception):
    pass


CHECKS = {
    "table": check_table,
    "dualizing": check_dualizing,
    "generic": check_generic,
    "jordan-dual": check_jordan_dual,
    "jordan-auto": check_jordan_auto,
    "disconnected-jordan": check_disconnected_jordan,
    "series-partition": check_series_partition,
    "dl-orthogonality": check_dl_orthogonality,
    "fs-indicator": check_fs_indicator,
    "center-h1": check_center_h1,
    "torus-lemma": check_torus_lemma,
}

_GL_ONLY = {"jordan-auto", "dl-orthogonality", "torus-lemma"}
_SL_ONLY = {"disconnected-jordan"}
# checks that read only the parsed spec: no group, no table, no budget
_SPEC_ONLY = {"center-h1"}
# checks that never touch the GL-side Deligne-Lusztig context, so an SL spec
# is not refused for the size of GL_n(q)
_NO_DL_CONTEXT = {"table", "fs-indicator"}


def run_check(name: str, spec_text: str, budget: int = DEFAULT_BUDGET,
              cache: TableCache | None = None) -> CheckReport:
    if name not in CHECKS:
        raise KeyError(name)
    start = time.monotonic()
    spec = GroupSpec.parse(spec_text)
    if name in _SPEC_ONLY:
        items = CHECKS[name](spec)
    else:
        group = _group_for(spec_text, budget, cache)
        ctx = None if name in _NO_DL_CONTEXT else _ctx_for(group, budget, cache)
        items = CHECKS[name](group, ctx, budget, cache)
    return CheckReport(
        check=name,
        group=str(spec),
        items=items,
        elapsed_seconds=time.monotonic() - start,
    )


def _suite_for(spec_text: str) -> list[str]:
    family = GroupSpec.parse(spec_text).family
    names = ["center-h1", "table", "series-partition", "fs-indicator", "generic"]
    if family == "GL":
        names += ["dl-orthogonality", "torus-lemma", "jordan-dual", "jordan-auto"]
    else:
        names += ["disconnected-jordan", "jordan-dual"]
    if two_h1_predicate(GroupSpec.parse(spec_text)):
        names.append("dualizing")
    return names


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="machine verification of duality-involution character identities "
        "on small finite reductive groups",
    )
    parser.add_argument("check", help=f"one of {sorted(CHECKS)} or 'all'")
    parser.add_argument("--group", required=True, help="group spec, e.g. GL2(3) or SL3(4)")
    parser.add_argument("--format", choices=["json", "markdown"], default="markdown")
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    args = parser.parse_args(argv)

    cache = None
    if args.cache_dir and not args.no_cache:
        cache = TableCache(args.cache_dir)

    names = _suite_for(args.group) if args.check == "all" else [args.check]
    if any(n not in CHECKS for n in names):
        print(f"error: unknown check {args.check!r}; known: {sorted(CHECKS)}", file=sys.stderr)
        return EXIT_UNKNOWN_CHECK

    all_ok = True
    try:
        for name in names:
            report = run_check(name, args.group, args.budget, cache)
            sys.stdout.write(emit_report(report, args.format))
            all_ok = all_ok and report.all_ok()
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (UnsupportedSpec, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED_SPEC
    return 0 if all_ok else EXIT_FAILURES


if __name__ == "__main__":
    sys.exit(main())
