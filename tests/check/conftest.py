"""Whole-package analyses, run once per session and shared by the tests.

Auditing ``src/repro`` takes seconds per pass, and many tests ask the same
question of it (is it clean? what does ``repro check`` print for it?).
``package_run`` is the one :func:`~repro.check.run_check` over the package
and ``package_program`` the one effects call graph; ``package_check``
makes ``repro check`` answer from ``package_run`` whenever it is pointed
at the package, so CLI tests still go through argument parsing, rule
selection, rendering and the exit code.
"""

from pathlib import Path

import pytest

import repro.check.cli as check_cli
from repro.check import RULES, CheckRun, _selected_ids, run_check
from repro.check.effects import EFFECT_RULES, build_program

PACKAGE = (Path(__file__).parents[2] / "src" / "repro").resolve()


@pytest.fixture(scope="session")
def package_run() -> CheckRun:
    """Every static pass over the shipped package."""
    return run_check()


@pytest.fixture(scope="session")
def package_program():
    """The effects pass's call graph of the shipped package."""
    return build_program([PACKAGE])


@pytest.fixture
def package_check(monkeypatch, package_run):
    """``repro check`` over the package reads ``package_run``."""
    analyse = check_cli.run_check

    def shared(paths=None, rules=None):
        if paths and [Path(path).resolve() for path in paths] != [PACKAGE]:
            return analyse(paths, rules)
        selected = _selected_ids(rules)
        return CheckRun(
            [finding for finding in package_run.findings
             if finding.rule_id in selected
             or finding.rule_id == "syntax-error"],
            package_run.files,
            [entry for entry in package_run.passes
             if selected & RULES[entry["name"]].keys()],
            package_run.effects if selected & EFFECT_RULES.keys() else None)

    monkeypatch.setattr(check_cli, "run_check", shared)
