"""The ``repro check`` subcommand (also ``python -m repro.check``)."""

from __future__ import annotations

import argparse
import sys

from ..cli import add_check_arguments
from . import RULES, run_check
from .findings import Severity
from .lint import RULE_GROUPS
from .report import exit_code, render_json, render_text

__all__ = ["run_check_command", "main"]


def _pieces(text: str | None) -> list[str]:
    return [piece.strip() for piece in (text or "").split(",")
            if piece.strip()]


def run_check_command(args) -> int:
    """Execute ``repro check`` with parsed ``args``; returns exit code."""
    if args.list_rules:
        for name, rules in RULES.items():
            for rule_id, summary in rules.items():
                print(f"{rule_id:<22} {summary} [{name}]")
        for group, prefixes in RULE_GROUPS.items():
            print(f"{group:<22} group: rule ids starting with "
                  f"{', '.join(prefixes)}")
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
