"""Run one `verify` job with spans recorded around the calls into each layer.

    python3 perfbench/tracejob.py OUT.json <verify arguments...>

The wrappers are installed from outside, on module and class attributes of
`redchar`; no file of the package changes.  Spans stay in memory and are
written to OUT.json, with their per-layer summary, when the job ends.  The
exit status is the one `redchar.cli.main` returns.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

# Per-layer metrics: name -> unit.  A `_s` metric is the inclusive time of the
# outermost spans of its name, so phases nest: inner products run by the exact
# orthogonality check count in both `orthogonality_s` and `inner_product_s`.
# The exceptions are `cli.check.<name>_s`, the self time of each check function
# (its time minus the spans it contains), and `cli.context_s`, which covers
# `_group_for` + `_ctx_for`, so that group, table and context construction is
# charged to it and not to whichever check happens to run first.
CHECK_NAMES = (
    "table", "dualizing", "generic", "jordan-dual", "jordan-auto",
    "disconnected-jordan", "series-partition", "dl-orthogonality",
    "fs-indicator", "center-h1", "torus-lemma",
)
LAYER_METRICS = {
    "groups.build_s": "s",
    "groups.conjugacy_s": "s",
    "groups.built": "count",
    "groups.elements": "count",
    "chartable.split_s": "s",
    "chartable.class_matrices": "count",
    "chartable.lift_s": "s",
    "chartable.tables_built": "count",
    "chartable.orthogonality_s": "s",
    "chartable.exact_tier": "count",
    "chartable.modular_tier": "count",
    "chartable.inner_product_s": "s",
    "chartable.inner_products": "count",
    "chartable.decompose_s": "s",
    "chartable.decompositions": "count",
    "chartable.fs_indicator_s": "s",
    "dl.context_s": "s",
    "dl.contexts_built": "count",
    "dl.character_s": "s",
    "dl.characters": "count",
    "dl.series_s": "s",
    "dl.restrict_s": "s",
    "jordan.bijection_s": "s",
    "jordan.disconnected_s": "s",
    "jordan.equivariance_s": "s",
    "gelfandgraev.generic_s": "s",
    "gelfandgraev.whittaker_data": "count",
    "cache.misses": "count",
    "cache.bytes_written": "bytes",
    "cli.context_s": "s",
    **{f"cli.check.{name}_s": "s" for name in CHECK_NAMES},
}

# count metric -> (span name, attribute summed, or None to count the spans)
_COUNTS = {
    "groups.built": ("groups.build", None),
    "groups.elements": ("groups.build", "order"),
    "chartable.class_matrices": ("chartable.class_matrix", None),
    "chartable.tables_built": ("chartable.table", None),
    "chartable.exact_tier": ("chartable.orthogonality", "exact"),
    "chartable.modular_tier": ("chartable.orthogonality", "modular"),
    "chartable.inner_products": ("chartable.inner_product", None),
    "chartable.decompositions": ("chartable.decompose", None),
    "dl.contexts_built": ("dl.context", None),
    "dl.characters": ("dl.character", None),
    "gelfandgraev.whittaker_data": ("gelfandgraev.whittaker_data", "count"),
    "cache.misses": ("cache.get", "miss"),
    "cache.bytes_written": ("cache.get", "bytes_written"),
}


class Tracer:
    """Spans as [name, start, end, parent index, attributes], in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, attrs=None):
        """`fn` recording a span per call; `attrs(args, result)` adds attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if attrs is not None:
                span[4] = attrs(args, result)
            return result

        return traced


def _totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _table_attrs(args, table):
    group = args[0]
    data = group.conjugacy()
    return {
        "group": str(group.spec),
        "order": group.order,
        "classes": data.n_classes,
        "exponent": data.exponent,
        "phi": _totient(data.exponent),
        "ell": table.modular.ell,
    }


def _replace_everywhere(original, replacement):
    """Point every attribute of every loaded redchar module that holds
    `original` at `replacement`, so `from .x import f` copies are covered."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("redchar"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    from redchar import cache, chartable, cli, dl, gelfandgraev, groups, jordan

    def function(module, attr, name, attrs=None):
        _replace_everywhere(getattr(module, attr), tracer.wrap(name, getattr(module, attr), attrs))

    def method(cls, attr, name, attrs=None):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), attrs))

    method(groups.GroupRealization, "__init__", "groups.build",
           lambda args, _: {"group": str(args[0].spec), "order": args[0].order})
    method(groups.GroupRealization, "_compute_conjugacy", "groups.conjugacy")

    function(chartable, "character_table", "chartable.table", _table_attrs)
    function(chartable, "_central_characters_mod", "chartable.split")
    function(chartable, "_character_values_mod", "chartable.split")
    function(chartable, "_class_matrix", "chartable.class_matrix")
    function(chartable, "_lift_table", "chartable.lift")
    function(chartable, "inner_product", "chartable.inner_product")
    function(chartable, "twisted_fs_indicator", "chartable.fs_indicator")
    table_cls = chartable.CharacterTable
    method(table_cls, "verify_orthogonality", "chartable.orthogonality",
           lambda args, _: {"exact": 1})
    method(table_cls, "verify_modular_orthogonality", "chartable.orthogonality",
           lambda args, _: {"modular": 1})
    method(table_cls, "decompose_integers", "chartable.decompose")

    method(dl.DLContext, "__init__", "dl.context")
    function(dl, "dl_character", "dl.character")
    function(dl, "lusztig_series", "dl.series")
    function(dl, "restrict_series", "dl.restrict")

    function(jordan, "jordan_bijection", "jordan.bijection")
    function(jordan, "disconnected_jordan", "jordan.disconnected")
    for attr in ("verify_dual_equivariance", "verify_automorphism_equivariance",
                 "verify_dual_equivariance_sl"):
        function(jordan, attr, "jordan.equivariance")

    function(gelfandgraev, "verify_generic_duality", "gelfandgraev.generic")
    function(gelfandgraev, "whittaker_data", "gelfandgraev.whittaker_data",
             lambda args, result: {"count": len(result)})

    original_get = cache.TableCache.get_or_compute
    outcome = {}

    def get_or_compute(self, kind, spec, producer):
        missed = []

        def produce():
            missed.append(True)
            return producer()

        payload = original_get(self, kind, spec, produce)
        written = self._path(cache.cache_key(kind, spec)).stat().st_size if missed else 0
        outcome.update(miss=1 if missed else 0, bytes_written=written)
        return payload

    cache.TableCache.get_or_compute = tracer.wrap(
        "cache.get", get_or_compute, lambda args, _: dict(outcome)
    )

    for attr in ("_group_for", "_ctx_for"):
        setattr(cli, attr, tracer.wrap("cli.context", getattr(cli, attr)))
    for name, check in list(cli.CHECKS.items()):
        cli.CHECKS[name] = tracer.wrap(f"cli.check.{name}", check)


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one job's spans."""
    out = dict.fromkeys(LAYER_METRICS, 0)
    children_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children_time[parent] += end - start
    for i, (name, start, end, parent, _) in enumerate(spans):
        metric = name + "_s"
        if metric not in out:
            continue
        if name.startswith("cli.check."):
            out[metric] += end - start - children_time[i]
        elif not _has_ancestor(spans, parent, name):
            out[metric] += end - start
    for metric, (name, attr) in _COUNTS.items():
        out[metric] = sum(
            1 if attr is None else (attrs or {}).get(attr, 0)
            for span_name, _, _, _, attrs in spans
            if span_name == name
        )
    return out


def _has_ancestor(spans, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def main(argv: list[str]) -> int:
    out_path, verify_argv = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from redchar import cli

    try:
        return cli.main(verify_argv)
    finally:
        with open(out_path, "w") as out:
            json.dump({"metrics": summarize(tracer.spans), "spans": tracer.spans}, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
