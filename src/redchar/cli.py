"""The `verify` command line tool.

    verify <check> --group <spec> [--format json|markdown]
                   [--cache-dir PATH] [--budget N]

Checks: dualizing, generic, jordan-dual, jordan-auto, disconnected-jordan,
series-partition, dl-orthogonality, fs-indicator, center-h1, torus-lemma,
table, all.  Exit status 0 iff every item of every report passes; 1 for a
failed item, 2 for an unknown check, 3 for an InvalidSpec or UnsupportedSpec
and 4 above the budget.  A certificate that refuses what construction built
(a RuntimeError or AssertionError while a check builds its group, table,
series or Jordan data) is a failed item of that check's report.  Other
exceptions are internal errors.  The tool runs numpy's BLAS on one thread
unless OPENBLAS_NUM_THREADS is set.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import TYPE_CHECKING

# OpenBLAS reads this once, when numpy loads it, so it is set before the
# first import below that loads numpy.  Its default pool of nproc - 1 workers
# busy-waits about 0.13 s of CPU per process after start-up and after every
# BLAS call, and only the float64 products of the largest tables call BLAS.
# On a 2-core host one thread took `table GL2(7)` from 0.45 to 0.34 s of CPU,
# `table GL2(16)` from 1.55-1.79 to 1.05-1.41 s and `all GL2(13)` from 2.41
# to 1.88 s, at the same wall time.  Only the thread count changes, not a
# product's value: the float64 tier is exact in any summation order.  This
# is the process's thread policy, so it lives in the tool, not in the package
# that a host program imports.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .chartable import _packed_context, table_of, twisted_fs_indicators
from .groups import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    GroupSpec,
    InvalidSpec,
    UnsupportedSpec,
    cached_group,
)
from .reports import CheckReport, write_report

# the cache and the automorphisms, dl, jordan, gelfandgraev and rootdatum
# modules are imported where they are used, so that a `table` job loads only
# the table path
if TYPE_CHECKING:
    from .cache import TableCache

EXIT_FAILURES = 1
EXIT_UNKNOWN_CHECK = 2
EXIT_UNSUPPORTED_SPEC = 3
EXIT_BUDGET = 4

_EXACT_OP_BUDGET = 2 * 10**9  # int64 operation budget for the exact table check


def _group_for(spec_text: str, budget: int, cache: TableCache | None):
    group = cached_group(spec_text, budget)
    if cache is not None:
        from .cache import table_entry, table_from_entry

        kind, spec = "character-table", str(group.spec)

        def produce():
            return table_entry(table_of(group))

        entry = cache.get_or_compute(kind, spec, produce)
        if group._table is None:
            try:
                group._table = table_from_entry(group, *entry)
            except ValueError as exc:  # an entry the reader refuses is recomputed
                cache.discard(kind, spec, exc)
                cache.get_or_compute(kind, spec, produce)
    else:
        table_of(group)
    return group


def _ctx_for(group, budget, cache):
    from .dl import dl_context

    if group.spec.family == "SL":
        group = _group_for(f"GL{group.n}({group.q})", budget, cache)
    return dl_context(group.spec, budget)


def check_table(group, ctx):
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


def check_dualizing(group, ctx):
    from .jordan import verify_duality_biconditional

    return verify_duality_biconditional(group, ctx)


def check_generic(group, ctx):
    from .gelfandgraev import verify_generic_duality, whittaker_data

    rows = []
    for psi in whittaker_data(group):
        for row in verify_generic_duality(ctx, group, psi):
            row = dict(row)
            row["psi"] = psi.descriptor()
            rows.append(row)
    return rows


def check_jordan_dual(group, ctx):
    from .dl import lusztig_series
    from .jordan import verify_dual_equivariance, verify_dual_equivariance_sl

    if group.spec.family == "SL":
        return verify_dual_equivariance_sl(ctx, group)
    rows = []
    for s in lusztig_series(ctx):
        for row in verify_dual_equivariance(ctx, s.label):
            row = dict(row)
            row["label"] = s.label.canonical_string()
            rows.append(row)
    return rows


def check_jordan_auto(group, ctx):
    from .automorphisms import chevalley_involution, duality_involution, identity_automorphism
    from .dl import lusztig_series
    from .jordan import verify_automorphism_equivariance

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


def check_disconnected_jordan(group, ctx):
    from .jordan import disconnected_jordan

    if group.spec.family != "SL":
        raise UnsupportedSpec("disconnected-jordan runs on the SL side")
    rows = []
    for dmap in disconnected_jordan(ctx, group).values():
        for row in dmap.rows:
            row = dict(row)
            row["label"] = dmap.bar_label.canonical_string()
            rows.append(row)
    return rows


def check_series_partition(group, ctx):
    from .dl import lusztig_series, restrict_series

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


def check_dl_orthogonality(group, ctx):
    from .dl import verify_dl_invariants

    if group.spec.family != "GL":
        raise UnsupportedSpec("dl-orthogonality runs on the GL side")
    return verify_dl_invariants(ctx)


def check_torus_lemma(group, ctx):
    from .dl import verify_torus_lemma

    if group.spec.family != "GL":
        raise UnsupportedSpec("torus-lemma runs on the GL side")
    return verify_torus_lemma(ctx)


def check_fs_indicator(group, ctx):
    from .automorphisms import duality_involution
    from .rootdatum import two_h1_predicate

    table = table_of(group)
    iota = duality_involution(group)
    # epsilon in {1, -1} is asserted exactly where the involution is
    # pinning-independent; otherwise rho o iota = rho^vee can fail and the
    # indicator is legitimately 0, so only membership in {-1, 0, 1} is checked
    dualizing_scope = two_h1_predicate(group.spec)
    rows = []
    for i, eps in enumerate(twisted_fs_indicators(table.rows, 1, iota)):
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
    from .rootdatum import center_component_group, h1_frobenius, spec_datum

    z = center_component_group(spec_datum(spec), spec.q)
    h1, vanishes = h1_frobenius(z, spec.q)
    return [
        {
            "check": "center-h1",
            "ok": True,
            "detail": f"component group {z}, coinvariants {h1}, "
            f"two_h1_vanishes = {vanishes}",
        }
    ]


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
        try:
            group = _group_for(spec_text, budget, cache)
            ctx = None if name in _NO_DL_CONTEXT else _ctx_for(group, budget, cache)
            items = CHECKS[name](group, ctx)
        except (RuntimeError, AssertionError) as exc:
            items = [{"check": "certificate", "ok": False, "detail": f"{type(exc).__name__}: {exc}"}]
    return CheckReport(
        check=name,
        group=str(spec),
        items=items,
        elapsed_seconds=time.monotonic() - start,
    )


def _suite_for(spec_text: str) -> list[str]:
    from .rootdatum import two_h1_predicate

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
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    args = parser.parse_args(argv)

    cache = None
    if args.cache_dir:
        from .cache import TableCache

        cache = TableCache(args.cache_dir)

    if args.check != "all" and args.check not in CHECKS:
        print(f"error: unknown check {args.check!r}; known: {sorted(CHECKS)}", file=sys.stderr)
        return EXIT_UNKNOWN_CHECK

    all_ok = True
    try:
        names = _suite_for(args.group) if args.check == "all" else [args.check]
        for name in names:
            report = run_check(name, args.group, args.budget, cache)
            write_report(report, args.format, sys.stdout)
            all_ok = all_ok and report.all_ok()
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InvalidSpec, UnsupportedSpec) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED_SPEC
    return 0 if all_ok else EXIT_FAILURES


if __name__ == "__main__":
    sys.exit(main())
