"""Rendering check results: human text and machine-readable JSON."""

from __future__ import annotations

import json
from typing import Sequence

from .findings import Finding, Severity

__all__ = ["render_text", "render_json", "exit_code"]

#: Bumped when the JSON shape changes, so CI consumers can pin it.
#: 2: added optional ``effects`` stats and the ``passes`` array emitted
#: by the static ``repro check`` run (per-pass wall time + finding counts).
REPORT_FORMAT_VERSION = 2


def exit_code(findings: Sequence[Finding],
              fail_on: Severity = Severity.ERROR) -> int:
    """0 when no finding at or above the ``fail_on`` threshold.

    The default fails on errors only; ``fail_on=Severity.WARNING`` makes
    any finding fatal (for CI lanes that gate on a clean report).
    """
    if fail_on is Severity.WARNING:
        return 1 if findings else 0
    return 1 if any(f.severity is Severity.ERROR for f in findings) else 0


def render_text(findings: Sequence[Finding], checked_paths: int = 0,
                effects_stats=None, passes: Sequence[dict] | None = None) -> str:
    """Editor-clickable one-line-per-finding report with a summary."""
    lines = [finding.format() for finding in findings]
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    warnings = len(findings) - errors
    if findings:
        lines.append("")
    if effects_stats is not None:
        lines.append(effects_stats.render_text())
    if passes:
        for entry in passes:
            lines.append(
                f"pass {entry['name']:<12} {entry['seconds']:7.2f}s  "
                f"{entry['findings']} finding(s)")
    summary = f"{errors} error(s), {warnings} warning(s)"
    if checked_paths:
        summary += f" across {checked_paths} file(s)"
    lines.append(summary)
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], checked_paths: int = 0,
                effects_stats=None, passes: Sequence[dict] | None = None) -> str:
    """The ``repro check --json`` report (one JSON object, stable keys)."""
    by_rule: dict[str, int] = {}
    for finding in findings:
        by_rule[finding.rule_id] = by_rule.get(finding.rule_id, 0) + 1
    payload = {
        "format_version": REPORT_FORMAT_VERSION,
        "tool": "repro-check",
        "files_checked": checked_paths,
        "findings": [finding.to_dict() for finding in findings],
        "summary": {
            "errors": sum(1 for f in findings
                          if f.severity is Severity.ERROR),
            "warnings": sum(1 for f in findings
                            if f.severity is Severity.WARNING),
            "by_rule": dict(sorted(by_rule.items())),
        },
    }
    if effects_stats is not None:
        payload["effects"] = effects_stats.to_dict()
    if passes:
        payload["passes"] = list(passes)
    return json.dumps(payload, indent=2, sort_keys=False)
