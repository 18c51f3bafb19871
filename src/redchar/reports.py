"""Check reports: deterministic JSON and readable markdown."""

from __future__ import annotations

import json
from dataclasses import dataclass

SCHEMA_VERSION = "redchar-report-v1"


@dataclass
class CheckReport:
    check: str
    group: str
    items: list  # dicts with at least "ok" and "detail"
    elapsed_seconds: float = 0.0
    schema: str = SCHEMA_VERSION

    @property
    def passed(self) -> int:
        return sum(1 for item in self.items if item.get("ok"))

    @property
    def failed(self) -> int:
        return len(self.items) - self.passed

    def all_ok(self) -> bool:
        return self.failed == 0

    def payload(self) -> dict:
        """The canonical, timing-free content (byte-identical across runs)."""
        return {
            "schema": self.schema,
            "check": self.check,
            "group": self.group,
            "summary": {"total": len(self.items), "passed": self.passed, "failed": self.failed},
            "items": self.items,
        }


def emit_report(report: CheckReport, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(report.payload(), sort_keys=True, indent=2) + "\n"
    if fmt == "markdown":
        lines = [
            f"# {report.check} on {report.group}",
            "",
            f"*{report.passed}/{len(report.items)} passed"
            + (f", {report.failed} FAILED" if report.failed else "")
            + f"; {report.elapsed_seconds:.2f}s*",
            "",
            "| # | ok | item | detail |",
            "|---|----|------|--------|",
        ]
        for i, item in enumerate(report.items):
            tag = "pass" if item.get("ok") else "FAIL"
            name = str(
                item.get("check") or item.get("label") or item.get("member", i)
            )
            lines.append(f"| {i} | {tag} | {name} | {item.get('detail', '')} |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def write_report(report: CheckReport, fmt: str, out) -> None:
    """Write `emit_report(report, fmt)` to the text stream `out`, JSON chunk
    by chunk, so that a report of 10^5 items is never one string."""
    if fmt == "json":
        json.dump(report.payload(), out, sort_keys=True, indent=2)
        out.write("\n")
    else:
        out.write(emit_report(report, fmt))
