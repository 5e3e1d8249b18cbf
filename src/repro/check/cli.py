"""The ``repro check`` subcommand (also ``python -m repro.check``)."""

from __future__ import annotations

import argparse
import sys

from . import RULES, run_check
from .adversary import AdversaryBudget
from .findings import Severity
from .lint import RULE_GROUPS
from .model import MODEL_RULES, ModelConfig, check_model, scenario_names
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
        "--model", action="store_true",
        help="run the protocol model checker instead of the static passes: "
             "exhaustively explore the spec machines composed with an "
             "adversarial network (drop, duplicate, reorder, crash, stale "
             "replies) up to the configured bounds")
    parser.add_argument(
        "--depth", type=int, default=60,
        help="model: maximum schedule length to explore (default 60; "
             "the run reports whether the space was exhausted)")
    parser.add_argument(
        "--retransmits", type=int, default=2,
        help="model: client retransmit budget K — every transfer must "
             "complete or cleanly abort within K retransmits (default 2)")
    parser.add_argument(
        "--scenarios", default=None,
        help="model: comma-separated scenario names to run "
             f"(default: all of {', '.join(scenario_names())})")
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
        for rule_id, summary in MODEL_RULES.items():
            print(f"{rule_id:<22} {summary} [--model]")
        return 0
    try:
        if args.model:
            findings, stats = check_model(ModelConfig(
                max_depth=args.depth, retransmit_bound=args.retransmits,
                budget=AdversaryBudget(),
                scenarios=tuple(_pieces(args.scenarios))))
            extras = {"model_stats": stats}
        else:
            run = run_check(args.paths, _pieces(args.rules) or None)
            findings = run.findings
            extras = {"checked_paths": run.files,
                      "effects_stats": run.effects, "passes": run.passes}
    except ValueError as error:  # unknown rule, scenario or path
        raise SystemExit(str(error))
    render = render_json if args.json else render_text
    print(render(findings, **extras))
    fail_on = Severity.WARNING if args.fail_on == "warning" else Severity.ERROR
    return exit_code(findings, fail_on=fail_on)


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
