import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from redchar.cache import ALGORITHM_VERSION, TableCache, _canonical_bytes, _read_entry, cache_key, table_entry, table_from_entry
from redchar.chartable import CharacterTable, table_of
from redchar.cli import (
    EXIT_BUDGET,
    EXIT_UNKNOWN_CHECK,
    EXIT_UNSUPPORTED_SPEC,
    main,
    run_check,
)
from redchar.groups import cached_group
from redchar.reports import CheckReport, emit_report, write_report

from reference import ENTRY_FAULTS, entry_bytes, entry_parts, table_json

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _subprocess_env() -> dict:
    paths = [SRC, os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def test_run_check_dualizing(capsys):
    report = run_check("dualizing", "GL2(3)")
    assert report.all_ok() and len(report.items) == 8


def test_run_check_unknown():
    with pytest.raises(KeyError):
        run_check("no-such-check", "GL2(3)")


def test_cli_exit_codes(tmp_path):
    assert main(["dualizing", "--group", "GL2(3)", "--format", "json"]) == 0
    assert main(["nope", "--group", "GL2(3)"]) == EXIT_UNKNOWN_CHECK
    # refusal: the duality involution is pinning-dependent on SL3(4)
    assert main(["dualizing", "--group", "SL3(4)"]) == EXIT_UNSUPPORTED_SPEC
    assert main(["table", "--group", "GL3(5)"]) == EXIT_BUDGET
    # GL-side check requested on an SL group
    assert main(["jordan-auto", "--group", "SL2(3)"]) == EXIT_UNSUPPORTED_SPEC


@pytest.mark.parametrize("error", [RuntimeError, AssertionError])
def test_a_refused_certificate_is_a_failed_item(error, monkeypatch, capsys):
    from redchar import chartable

    def refuse(*args):
        raise error("lifted degree mismatch")

    g = cached_group("GL2(3)")
    monkeypatch.setattr(g, "_table", None)
    monkeypatch.setattr(chartable, "_lift_table", refuse)
    assert main(["table", "--group", "GL2(3)", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["summary"] == {"total": 1, "passed": 0, "failed": 1}
    assert report["items"] == [
        {"check": "certificate", "ok": False, "detail": f"{error.__name__}: lifted degree mismatch"}
    ]

    def crash(*args):
        raise ValueError("an internal error")

    # any other exception still escapes as an internal error
    monkeypatch.setattr(chartable, "_lift_table", crash)
    with pytest.raises(ValueError, match="an internal error"):
        main(["table", "--group", "GL2(3)"])


def test_an_involution_that_is_not_a_homomorphism_fails_dualizing(monkeypatch):
    from redchar import automorphisms

    def refuse(self):
        raise AssertionError(f"{self.name} is not a homomorphism")

    # the involutions are proved before they are memoized, so clear the memos
    # to make the check build them again
    for memo in (automorphisms.chevalley_involution, automorphisms.duality_involution):
        memo.cache_clear()
    monkeypatch.setattr(automorphisms.GroupAutomorphism, "verify_homomorphism", refuse)
    assert run_check("dualizing", "GL2(3)").items == [
        {"check": "certificate", "ok": False, "detail": "AssertionError: chevalley is not a homomorphism"}
    ]


def test_report_roundtrip():
    report = run_check("center-h1", "SL3(4)")
    text = emit_report(report, "json")
    assert json.loads(text) == report.payload()
    md = emit_report(report, "markdown")
    assert "center-h1" in md and "pass" in md


@pytest.mark.parametrize("fmt", ["json", "markdown"])
def test_a_written_report_is_the_emitted_one(fmt):
    report = run_check("series-partition", "GL2(3)")
    out = io.StringIO()
    write_report(report, fmt, out)
    assert out.getvalue() == emit_report(report, fmt)


def test_report_determinism():
    a = emit_report(run_check("series-partition", "GL2(3)"), "json")
    b = emit_report(run_check("series-partition", "GL2(3)"), "json")
    assert a == b


def test_empty_report_is_valid():
    report = CheckReport(check="x", group="GL1(2)", items=[])
    text = emit_report(report, "json")
    assert json.loads(text)["summary"]["total"] == 0


def test_dualizing_report_row_count_sl2_5():
    report = run_check("dualizing", "SL2(5)")
    assert len(report.items) == 9
    md = emit_report(report, "markdown")
    assert md.count("| pass |") == 9


def _table_producer(spec: str, calls: list | None = None):
    group = cached_group(spec)

    def producer():
        if calls is not None:
            calls.append(1)
        return table_entry(table_of(group))

    return producer


def test_cache_roundtrip(tmp_path):
    cache = TableCache(tmp_path)
    group = cached_group("SL2(3)")
    produced = []
    producer = _table_producer("SL2(3)", produced)
    cold = cache.get_or_compute("character-table", "SL2(3)", producer)
    warm = cache.get_or_compute("character-table", "SL2(3)", producer)
    assert produced == [1]  # second call hit the cache
    assert cold[0] == warm[0] and np.array_equal(cold[1], warm[1])
    assert cold[1].dtype == np.int8 and warm[1].dtype == np.int64  # widened once, on read
    # cold and warm runs produce identical bytes on disk
    path = cache._path(cache_key("character-table", "SL2(3)"))
    raw1 = path.read_bytes()
    path.unlink()
    cache.get_or_compute("character-table", "SL2(3)", producer)
    raw2 = path.read_bytes()
    assert raw1 == raw2
    # table reconstruction from the entry round-trips
    rebuilt = table_from_entry(group, *warm)
    assert rebuilt.degrees == table_of(group).degrees
    assert np.array_equal(rebuilt.rows, table_of(group).rows)


@pytest.mark.parametrize(
    "bound, dtype", [(127, "|i1"), (128, "<i2"), (32767, "<i2"), (32768, "<i4"), ((1 << 31) - 1, "<i4"), (1 << 31, "<i8")]
)
def test_an_entry_holds_the_rows_in_the_narrowest_type(tmp_path, bound, dtype):
    # the largest |entry| picks the type; a hit widens the block to int64
    table = table_of(cached_group("GL2(3)"))
    rows = table.rows.copy()
    rows[1, 1] = -bound
    cache = TableCache(tmp_path)
    written = cache.get_or_compute(
        "character-table", "GL2(3)", lambda: table_entry(CharacterTable(table.group, rows, table.modular))
    )
    header, read = cache.get_or_compute("character-table", "GL2(3)", lambda: 1 / 0)
    assert written[0]["dtype"] == header["dtype"] == dtype
    assert read.dtype == np.int64 and np.array_equal(read, rows)


def test_cache_reads_a_header_with_spaces_as_a_hit(tmp_path):
    # the CRC covers the bytes as read and the header is parsed, never
    # encoded again, so a header in another JSON layout is still a hit
    cache = TableCache(tmp_path)
    path = cache._path(cache_key("character-table", "SL2(3)"))
    cold = cache.get_or_compute("character-table", "SL2(3)", _table_producer("SL2(3)"))
    header, block = entry_parts(path.read_bytes())
    path.write_bytes(entry_bytes(header, block, separators=(", ", ": ")))

    def producer():
        raise AssertionError("a hit must not recompute")

    warm = cache.get_or_compute("character-table", "SL2(3)", producer)
    assert warm[0] == cold[0] and np.array_equal(warm[1], cold[1])


def test_cache_entry_bytes_are_the_canonical_entry(tmp_path):
    # the header is compact canonical JSON of the table's class data, then
    # come the rows in int8 and the CRC-32 of both
    cache = TableCache(tmp_path)
    table = table_of(cached_group("GL2(3)"))
    cache.get_or_compute("character-table", "GL2(3)", _table_producer("GL2(3)"))
    header = table_json(table)
    del header["rows"]
    header.update(
        key={"kind": "character-table", "spec": "GL2(3)", "version": ALGORITHM_VERSION},
        dtype="|i1",
        shape=list(table.rows.shape),
    )
    path = cache._path(cache_key("character-table", "GL2(3)"))
    assert path.name == f"character-table-GL2(3)-v{ALGORITHM_VERSION}.entry"
    assert path.read_bytes() == entry_bytes(header, table.rows.astype(np.int8).tobytes())


# SHA-256 of the whole entry, recorded when it became a header line, the rows
# in the narrowest integer type and a CRC-32
PAYLOAD_DIGESTS = {
    "GL2(4)": "348c5a15833a95f20ef59d6fa5c63dd05499116025ce7864e47b049a147f88e1",
    "GL2(5)": "99b0cea235913a0ed5ac9e4c7b8f9ffc08ce865c7a622c135b7504e0efc51d2c",
    "GL2(7)": "f81e2e265a9735bafbd32d35aa9a8db8934c324e5ad23432bed4e12031ac6d86",
    "SL2(7)": "4aac44b6face9d891885e6fab22b0b859a191414de41882fbb3cc584304d943b",
}


@pytest.mark.parametrize("spec", sorted(PAYLOAD_DIGESTS))
def test_cache_entry_is_compact_canonical_json_with_the_recorded_digest(tmp_path, spec):
    cache = TableCache(tmp_path)
    cache.get_or_compute("character-table", spec, _table_producer(spec))
    raw = cache._path(cache_key("character-table", spec)).read_bytes()
    line = raw[: raw.index(b"\n")]
    assert line == _canonical_bytes(json.loads(line))
    assert hashlib.sha256(raw).hexdigest() == PAYLOAD_DIGESTS[spec]


@pytest.mark.parametrize(
    "check, spec, entries",
    [("table", "GL2(5)", 1), ("table", "SL2(7)", 1), ("all", "SL2(5)", 2)],
    ids=["GL2(5)", "SL2(7)", "all-SL2(5)"],
)
def test_cold_and_warm_cache_runs_print_the_same_report(tmp_path, check, spec, entries):
    # `all` on SL2(5) also reads GL2(5)'s table through the cache, for the
    # Deligne-Lusztig context of every later check
    command = [sys.executable, "-m", "redchar.cli", check, "--group", spec,
               "--cache-dir", str(tmp_path), "--format", "json"]

    def entries_on_disk():
        return {p.name: (p.stat().st_mtime_ns, p.read_bytes()) for p in tmp_path.glob("*.entry")}

    cold = subprocess.run(command, env=_subprocess_env(), capture_output=True, check=True)
    written = entries_on_disk()
    assert len(written) == entries
    warm = subprocess.run(command, env=_subprocess_env(), capture_output=True, check=True)
    assert entries_on_disk() == written  # hits, not rewrites
    assert cold.stdout and warm.stdout == cold.stdout and warm.stderr == b""


_IMPORT_PROBE = """
import contextlib, io, json, os, sys

def loaded():
    return sorted(m for m in sys.modules if m == "redchar" or m.startswith("redchar."))

import redchar
package = loaded()
import redchar.cli
cli = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = redchar.cli.main(json.loads(sys.argv[1]))
blas = os.environ.get("OPENBLAS_NUM_THREADS")
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
hashing = sorted({"hashlib", "_hashlib"} & sys.modules.keys())
print(json.dumps([package, cli, loaded(), code, redchar.rootdatum.__name__, blas, threads, hashing]))
"""


def _import_probe(argv: list[str], blas_threads: str | None = None):
    """Modules loaded by `import redchar`, then `import redchar.cli`, then
    `main(argv)`, in a fresh process; with main's exit status, the process's
    OPENBLAS_NUM_THREADS, its thread count (None without /proc/self/task)
    and which of hashlib and _hashlib (OpenSSL's digests) it loaded.
    The process inherits OPENBLAS_NUM_THREADS only as `blas_threads`."""
    env = _subprocess_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(argv)],
        env=env, capture_output=True, check=True,
    )
    return json.loads(out.stdout)


def test_a_table_job_loads_only_the_table_path(tmp_path):
    package, cli, table_job, code, submodule, blas, threads, hashing = _import_probe(
        ["table", "--group", "GL2(5)", "--cache-dir", str(tmp_path), "--format", "json"]
    )
    assert package == ["redchar"]
    table_path = ["chartable", "cli", "cyclotomic", "finitefield", "groups", "reports"]
    assert cli == ["redchar"] + [f"redchar.{m}" for m in table_path]
    assert table_job == sorted(cli + ["redchar.cache"])
    assert code == 0
    assert submodule == "redchar.rootdatum"  # loaded on first access
    # the tool runs BLAS on one thread, so numpy starts no worker thread
    assert blas == "1"
    if threads is not None:
        assert threads == 1
    # the cache checks its entries by CRC-32, so it loads no OpenSSL
    assert hashing == []


def test_the_tool_keeps_a_blas_thread_count_the_caller_set():
    *_, code, _submodule, blas, _threads, _hashing = _import_probe(["table", "--group", "GL2(3)"], "2")
    assert code == 0 and blas == "2"


@pytest.mark.parametrize("check", ["fs-indicator", "center-h1"])
def test_spec_level_checks_load_neither_dl_nor_jordan(check):
    # both read the 2H^1 predicate from the root datum of the spec, and
    # fs-indicator twists by the duality involution
    _package, cli, job, code, _submodule, _blas, _threads, _hashing = _import_probe(
        [check, "--group", "GL2(5)"]
    )
    assert code == 0
    twist = ["redchar.automorphisms"] if check == "fs-indicator" else []
    assert job == sorted(cli + twist + ["redchar.intlinalg", "redchar.rootdatum"])


def test_package_exports_resolve_to_their_defining_modules():
    import redchar

    # the 65 names the package exported when it imported them eagerly, less
    # the root-datum, torus and sign models that no check read and the
    # finite-field element API and the generic-constituent helper
    assert len(set(redchar.__all__)) == len(redchar.__all__) == 52
    for name in redchar.__all__:
        module = importlib.import_module(f"redchar.{redchar._MODULE_OF[name]}")
        obj = getattr(redchar, name)
        assert obj is getattr(module, name) and obj.__module__ == module.__name__
    assert set(redchar.__all__) <= set(dir(redchar))
    with pytest.raises(AttributeError):
        redchar.no_such_name


def _block_producer(calls: list, value: int):
    def producer():
        calls.append(1)
        return {"x": value}, np.zeros((1, 2), dtype=np.int8)

    return producer


def test_cache_corruption_recovers(tmp_path, capsys):
    cache = TableCache(tmp_path)
    calls = []
    cache.get_or_compute("character-table", "GL1(2)", _block_producer(calls, 1))
    path = cache._path(cache_key("character-table", "GL1(2)"))
    path.write_text('{"payload": {"x": 2}, "sha256": "bad"}')
    header, block = cache.get_or_compute("character-table", "GL1(2)", _block_producer(calls, 1))
    assert header["x"] == 1 and block.tolist() == [[0, 0]] and len(calls) == 2
    assert "corrupt" in capsys.readouterr().err


def _truncated(raw: bytes) -> bytes:
    return raw[: len(raw) // 2]


# the faults the CLI test feeds: whole files that are no entry, a cut file,
# and faults of the entry format, each refused by the reader or by the table
# check ("float-entry" stores the rows as float64, "missing-rows" drops one)
_CLI_FAULTS = {
    **{text: lambda raw, text=text: text.encode()
       for text in ["[]", "null", '{"payload": [], "sha256": "x"}', '{"payload": {"x": 2}, "sha256": 5}']},
    "truncated": _truncated,
    "float-entry": ENTRY_FAULTS["float"][0],
    "missing-rows": ENTRY_FAULTS["missing-row"][0],
    **{name: ENTRY_FAULTS[name][0] for name in [
        "truncated-block", "extra-byte", "flipped-byte", "long-row", "other-group",
        "other-version", "class-sizes", "float-prime", "degrees",
    ]},
}


@pytest.mark.parametrize("corrupt", list(_CLI_FAULTS))
def test_cli_discards_a_malformed_cache_entry(tmp_path, monkeypatch, capsys, corrupt):
    argv = ["table", "--group", "GL2(3)", "--cache-dir", str(tmp_path), "--format", "json"]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    (path,) = tmp_path.iterdir()
    whole = path.read_bytes()
    path.write_bytes(_CLI_FAULTS[corrupt](whole))
    # as in a fresh process, the table is not in memory, so a hit is decoded
    monkeypatch.setattr(cached_group("GL2(3)"), "_table", None)
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == cold and "corrupt" in err
    assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == whole


def test_cache_entry_is_renamed_into_place_whole(tmp_path, monkeypatch):
    import redchar.cache

    cache = TableCache(tmp_path)
    path = cache._path(cache_key("character-table", "GL1(2)"))
    key = {"kind": "character-table", "spec": "GL1(2)", "version": ALGORITHM_VERSION}
    real, seen = os.replace, []

    def replace(src, dst):
        # before the rename the entry is absent and the file beside it is whole
        header, _block = _read_entry(Path(src), key)
        seen.append((Path(src).parent, Path(dst), Path(dst).exists(), header["x"]))
        real(src, dst)

    monkeypatch.setattr(redchar.cache.os, "replace", replace)
    cache.get_or_compute("character-table", "GL1(2)", _block_producer([], 1))
    assert seen == [(tmp_path, path, False, 1)]
    assert list(tmp_path.iterdir()) == [path]


def test_cli_with_cache_dir(tmp_path):
    code = main(
        ["table", "--group", "GL2(3)", "--cache-dir", str(tmp_path), "--format", "json"]
    )
    assert code == 0
    entries = list(tmp_path.glob("*.entry"))
    assert len(entries) == 1
    code = main(
        ["table", "--group", "GL2(3)", "--cache-dir", str(tmp_path), "--format", "json"]
    )
    assert code == 0


def test_exit_code_on_failures(monkeypatch):
    import redchar.cli as cli

    monkeypatch.setitem(
        cli.CHECKS, "always-fails", lambda g, ctx: [
            {"check": "x", "ok": False, "detail": "synthetic failure"}
        ]
    )
    assert cli.main(["always-fails", "--group", "GL1(2)"]) == cli.EXIT_FAILURES


def test_table_on_sl_does_not_need_the_gl_side():
    # |SL2(7)| = 336 fits the budget; |GL2(7)| = 2016 does not, and `table`
    # never builds the GL-side Deligne-Lusztig context
    assert main(["table", "--group", "SL2(7)", "--budget", "400", "--format", "json"]) == 0


def test_dl_check_on_sl_refuses_the_gl_side(capsys):
    code = main(["series-partition", "--group", "SL2(7)", "--budget", "400"])
    assert code == EXIT_BUDGET
    assert "GL2(7)" in capsys.readouterr().err


def test_center_h1_builds_no_group():
    # center-h1 reads only the spec, so neither |SL3(5)| = 372000 nor the
    # budget matters
    assert main(["center-h1", "--group", "SL3(5)", "--budget", "100"]) == 0


def test_series_partition_builds_each_group_once(group_builds):
    # the budget only gates: GL3(3) is built once, and the closed-form Green
    # functions build no GL2(3) for the centralizers
    assert run_check("series-partition", "GL3(3)", budget=20000).all_ok()
    assert group_builds == {"GL3(3)": 1}


def test_dl_checks_take_every_pair(capsys):
    # GL2(9) has N = 8^2 + 80 = 144 pairs (w, theta): N degree identities,
    # N(N+1)/2 inner products and N torus-lemma rows
    for check, total in [("dl-orthogonality", 144 + 144 * 145 // 2), ("torus-lemma", 144)]:
        assert main([check, "--group", "GL2(9)", "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert summary == {"total": total, "passed": total, "failed": 0}


# stdout SHA-256 of `verify <check> --group <spec> --format json`, recorded
# before the DL Gram certificate and the batched fs-indicators replaced the
# pairwise inner products and the per-character product passes
REPORT_DIGESTS = {
    ("dl-orthogonality", "GL2(5)"): "b00e53fb8df33fc813106974413304cb1f196bf853057de19b65614ad92caf89",
    ("torus-lemma", "GL3(2)"): "fe1474b0ab73cc47e0c4ab696bdde003048dc62e05e1f30bc3a30c285d7232b1",
    ("fs-indicator", "GL3(3)"): "6cef36f7ad7256c8d93708adb3a9cdb1f2b3f0aea0a48396986e829bfd8522e9",
    # SL3(4): a pinning-dependent scope and a nontrivial adjoint action;
    # SL3(5): 372,000 products, six chunks of `GroupRealization.products`
    ("fs-indicator", "SL3(4)"): "ff066786f51250116862abd7e2deea8dd662f4b9da41aaf9216dac68abb1ead4",
    ("fs-indicator", "SL3(5)"): "e85948c8543b613df2f402b4ce5475ff5b4b9fe54c6f83f98a599a78345ae89f",
    # recorded while class labels still came from characteristic polynomials
    ("series-partition", "GL2(9)"): "40a449b7abe6b5e8e6ba46f162489d6bb67371ad2460a79899cdcc917b103e36",
    ("jordan-dual", "GL2(9)"): "fff2da794b906ca5c83e908630f3b90e1ba7ae5982135fcd3db14e6ddb7182c0",
    ("series-partition", "GL3(4)"): "e5ae1f789d0971248997eca9e956b30c48c300fb0ed162aa7922e0521ce355dc",
    ("jordan-dual", "GL3(4)"): "0037343aadd58068ac7b59440824795219d82bf2d903cce4fa26dfd0fa45290a",
    ("disconnected-jordan", "SL2(9)"): "a9184c689c0285df886bf140317988b203f2aede57d6898448aea670e9b83c6d",
    # recorded while irreducibles were looked up one function at a time
    ("jordan-auto", "GL2(9)"): "2c604cef1ea0937e8178e474683ecf87292b745f865c59d6eb1a55ff788d4262",
    ("jordan-auto", "GL3(3)"): "5c5d6e855b51110ebd348ab99313ad2ed31a7c4774ceb170bc8f4808984a46bf",
    ("dualizing", "GL2(9)"): "35ea3e94c9f8ad6db5d9f7cb98ba59576b29dfe1d56b5b08337920bfdf1f9781",
    ("dualizing", "SL2(9)"): "4670abf3fecdfa5ee7b38cec63689ff0712b03121a2f0a757b5528f20b200eab",
    ("generic", "GL2(9)"): "cef222c0204cbcb6c8322562eb17229494b77a61c5758ac11f2416da57c9da6c",
    ("generic", "SL2(9)"): "69e2416d0b3a4b5cbd0db0f600638c64c0bec22b997c8ebba39df4d8e482025e",
    ("generic", "SL3(4)"): "eb1d2082675c43d8f8418c0dc9133288e02c4aadef435f0896c47c6bb121a98c",
    ("jordan-dual", "SL2(9)"): "af21b194a6661a311540290ed6459ae15ac0445609db542ca1698933e82f9974",
    ("jordan-dual", "SL3(4)"): "22ae3c70ec192dfa0813e6aab5c7c62562bda758cf06bf0af141f0f43dac9b68",
    ("series-partition", "SL2(9)"): "6ecf4fd04fd9ad7634928fd729a17992f290d18464c9516f1b2ef6738fba4232",
}


@pytest.mark.parametrize("check, spec", sorted(REPORT_DIGESTS))
def test_report_stdout_digest_unchanged(check, spec, capsys):
    assert main([check, "--group", spec, "--format", "json"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == REPORT_DIGESTS[(check, spec)]


@pytest.mark.parametrize("spec", ["GL4(3)", "GL2(6)", "SL2(1)"])
def test_all_on_a_bad_spec_is_refused_like_a_single_check(spec, capsys):
    assert main(["table", "--group", spec]) == EXIT_UNSUPPORTED_SPEC
    single = capsys.readouterr().err
    assert main(["all", "--group", spec]) == EXIT_UNSUPPORTED_SPEC
    assert capsys.readouterr().err == single
    assert single.startswith("error: ")


def test_internal_value_error_is_not_a_refused_spec(monkeypatch):
    # only InvalidSpec and UnsupportedSpec exit 3; a ValueError raised inside
    # a check is an internal bug and propagates
    import redchar.cli as cli

    def broken(group, ctx):
        raise ValueError("unknown label action 'sideways'")

    monkeypatch.setitem(cli.CHECKS, "broken", broken)
    with pytest.raises(ValueError, match="unknown label action"):
        cli.main(["broken", "--group", "GL2(3)"])


# `center-h1` detail as "component group, coinvariants, 2H^1 = 0", recorded
# before the component group was read off the root lattice alone; SL1(q)
# was refused then for want of a (rank-0) root datum
CENTER_H1_DETAILS = {
    "GL1(2)": "1, 1, True",
    "GL3(4)": "1, 1, True",
    "SL1(3)": "1, 1, True",
    "SL2(3)": "Z/2, Z/2, True",
    "SL2(4)": "1, 1, True",  # characteristic 2 kills mu_2
    "SL3(4)": "Z/3, Z/3, False",
    "SL3(5)": "Z/3, 1, True",
    "SL3(7)": "Z/3, Z/3, False",
}


@pytest.mark.parametrize("spec", sorted(CENTER_H1_DETAILS))
def test_center_h1_detail(spec, capsys):
    assert main(["center-h1", "--group", spec, "--format", "json"]) == 0
    (item,) = json.loads(capsys.readouterr().out)["items"]
    component_group, coinvariants, vanishes = CENTER_H1_DETAILS[spec].split(", ")
    assert item["ok"] and item["detail"] == (
        f"component group {component_group}, coinvariants {coinvariants}, "
        f"two_h1_vanishes = {vanishes}"
    )


def test_optimized_interpreter_keeps_the_checks_and_the_report():
    # `python -O` strips assert statements; the package raises explicitly,
    # so the optimized run prints the same bytes
    command = ["-m", "redchar.cli", "all", "--group", "GL2(3)", "--format", "json"]
    plain, optimized = (
        subprocess.run(
            [sys.executable, *flags, *command], env=_subprocess_env(), capture_output=True, check=True
        )
        for flags in ([], ["-O"])
    )
    assert plain.stdout and optimized.stdout == plain.stdout


def test_the_benchmark_trace_hooks_find_every_name_they_wrap(tmp_path):
    # perfbench/tracejob.py wraps package functions and methods by name, so
    # deleting or renaming one must fail here and not only in a benchmark run;
    # a traced job then calls the wrappers, so a changed signature fails too
    perfbench = Path(SRC).parent / "perfbench"
    install = "import tracejob; tracejob.install(tracejob.Tracer())"
    env = dict(_subprocess_env(), PYTHONDONTWRITEBYTECODE="1")  # leave perfbench/ as it is
    result = subprocess.run([sys.executable, "-c", install], cwd=perfbench, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    spans = tmp_path / "spans.json"
    job = ["table", "--group", "GL2(3)", "--format", "json", "--cache-dir", str(tmp_path / "cache")]
    result = subprocess.run(
        [sys.executable, str(perfbench / "tracejob.py"), str(spans), *job], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(spans.read_text())["metrics"]["cache.misses"] == 1
    # the whole suite on an SL group calls the decomposition, DL, Jordan and
    # Gelfand-Graev wrappers too
    job = ["all", "--group", "SL2(3)", "--format", "json"]
    result = subprocess.run(
        [sys.executable, str(perfbench / "tracejob.py"), str(spans), *job], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    metrics = json.loads(spans.read_text())["metrics"]
    assert metrics["chartable.decompositions"] > 0 and metrics["dl.characters"] > 0
