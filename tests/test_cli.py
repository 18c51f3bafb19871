import json

import pytest

from redchar.cache import TableCache, cache_key
from redchar.chartable import CharacterTable, table_of
from redchar.cli import (
    EXIT_BUDGET,
    EXIT_UNKNOWN_CHECK,
    EXIT_UNSUPPORTED_SPEC,
    main,
    run_check,
)
from redchar.groups import cached_group
from redchar.reports import CheckReport, emit_report, parse_report


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


def test_report_roundtrip():
    report = run_check("center-h1", "SL3(4)")
    text = emit_report(report, "json")
    parsed = parse_report(text)
    assert emit_report(parsed, "json") == text
    md = emit_report(report, "markdown")
    assert "center-h1" in md and "pass" in md


def test_report_determinism():
    a = emit_report(run_check("series-partition", "GL2(3)"), "json")
    b = emit_report(run_check("series-partition", "GL2(3)"), "json")
    assert a == b


def test_empty_report_is_valid():
    report = CheckReport(check="x", group="GL1(2)", items=[])
    text = emit_report(report, "json")
    assert json.loads(text)["summary"]["total"] == 0
    assert emit_report(parse_report(text), "json") == text


def test_dualizing_report_row_count_sl2_5():
    report = run_check("dualizing", "SL2(5)")
    assert len(report.items) == 9
    md = emit_report(report, "markdown")
    assert md.count("| pass |") == 9


def test_cache_roundtrip(tmp_path):
    cache = TableCache(tmp_path)
    group = cached_group("SL2(3)")
    produced = []

    def producer():
        produced.append(1)
        return table_of(group).to_json()

    cold = cache.get_or_compute("character-table", "SL2(3)", producer)
    warm = cache.get_or_compute("character-table", "SL2(3)", producer)
    assert produced == [1]  # second call hit the cache
    assert cold == warm
    # cold and warm runs produce identical bytes on disk
    raw1 = cache.read_bytes("character-table", "SL2(3)")
    cache._path(cache_key("character-table", "SL2(3)")).unlink()
    cache.get_or_compute("character-table", "SL2(3)", producer)
    raw2 = cache.read_bytes("character-table", "SL2(3)")
    assert raw1 == raw2
    # table reconstruction from the payload round-trips
    rebuilt = CharacterTable.from_json(group, warm)
    assert rebuilt.degrees == table_of(group).degrees
    assert all(
        a == b
        for a, b in zip(rebuilt.irreducibles, table_of(group).irreducibles)
    )


def test_cache_corruption_recovers(tmp_path, capsys):
    cache = TableCache(tmp_path)
    calls = []

    def producer():
        calls.append(1)
        return {"x": 1}

    cache.get_or_compute("character-table", "GL1(2)", producer)
    path = cache._path(cache_key("character-table", "GL1(2)"))
    path.write_text('{"payload": {"x": 2}, "sha256": "bad"}')
    out = cache.get_or_compute("character-table", "GL1(2)", producer)
    assert out == {"x": 1} and len(calls) == 2
    assert "corrupt" in capsys.readouterr().err


def test_cache_disabled(tmp_path):
    cache = TableCache(tmp_path, enabled=False)
    calls = []

    def producer():
        calls.append(1)
        return {"x": 1}

    cache.get_or_compute("k", "s", producer)
    cache.get_or_compute("k", "s", producer)
    assert len(calls) == 2


def test_cli_with_cache_dir(tmp_path):
    code = main(
        ["table", "--group", "GL2(3)", "--cache-dir", str(tmp_path), "--format", "json"]
    )
    assert code == 0
    entries = list(tmp_path.glob("*.json"))
    assert len(entries) == 1
    code = main(
        ["table", "--group", "GL2(3)", "--cache-dir", str(tmp_path), "--format", "json"]
    )
    assert code == 0


def test_exit_code_on_failures(monkeypatch):
    import redchar.cli as cli

    monkeypatch.setitem(
        cli.CHECKS, "always-fails", lambda g, ctx, budget, cache: [
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
