"""The ``repro check`` subcommand (also ``python -m repro.check``)."""

from __future__ import annotations

import argparse
import sys

from . import RULES, run_check
from .findings import Severity
from .lint import RULE_GROUPS
from .report import exit_code, render_json, render_text

__all__ = ["add_check_arguments", "run_check_command", "main"]


def add_check_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the check options to an (sub)parser."""
    parser.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable JSON report (for CI)")
    parser.add_argument(
        "--rules", default=None,
        help="comma-separated rule ids, or groups ("
             + ", ".join(RULE_GROUPS) + "), to run (default: every rule; "
             "see --list-rules)")
    parser.add_argument(
        "--fail-on", choices=("error", "warning"), default="error",
        help="severity threshold for a nonzero exit: 'error' (default) "
             "fails only on errors, 'warning' fails on any finding")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit")
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to audit (default: the installed repro "
             "package)")


def _pieces(text: str | None) -> list[str]:
    return [piece.strip() for piece in (text or "").split(",")
            if piece.strip()]


def run_check_command(args) -> int:
    """Execute ``repro check`` with parsed ``args``; returns exit code."""
    if args.list_rules:
        for name, rules in RULES.items():
            for rule_id, summary in rules.items():
                print(f"{rule_id:<22} {summary} [{name}]")
        return 0
    try:
        run = run_check(args.paths, _pieces(args.rules) or None)
    except ValueError as error:  # unknown rule or path
        raise SystemExit(str(error))
    render = render_json if args.json else render_text
    print(render(run.findings, checked_paths=run.files,
                 effects_stats=run.effects, passes=run.passes))
    fail_on = Severity.WARNING if args.fail_on == "warning" else Severity.ERROR
    return exit_code(run.findings, fail_on=fail_on)


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point for ``python -m repro.check``."""
    parser = argparse.ArgumentParser(
        prog="repro.check",
        description="Determinism & protocol-invariant checks for the "
                    "Swift reproduction.")
    add_check_arguments(parser)
    return run_check_command(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
