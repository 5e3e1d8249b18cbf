"""Each determinism rule fires exactly once on its fixture module."""

from pathlib import Path

import pytest

from repro.check import LINT_PASSES, RULES, LintEngine, run_check

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture file -> the rule id expected to fire there exactly once.
RULE_FIXTURES = {
    "fixture_raw_random.py": "raw-random",
    "fixture_unseeded_rng.py": "unseeded-rng",
    "fixture_wall_clock.py": "wall-clock",
    "fixture_mutable_default.py": "mutable-default",
    "fixture_set_iteration.py": "set-iteration",
    "fixture_salted_hash.py": "salted-hash",
    "fixture_implicit_seed.py": "implicit-seed",
    "fixture_recv_unguarded.py": "recv-unguarded",
    "fixture_retransmit_unbounded.py": "retransmit-unbounded",
    "fixture_timeout_unit.py": "timeout-unit",
}


def _engine():
    return LintEngine([rule() for rule in LINT_PASSES["determinism"]])


@pytest.mark.parametrize("fixture,rule_id", sorted(RULE_FIXTURES.items()))
def test_rule_fires_exactly_once(fixture, rule_id):
    findings = _engine().check_file(FIXTURES / fixture)
    hits = [f for f in findings if f.rule_id == rule_id]
    assert len(hits) == 1, (fixture, findings)
    assert hits[0].line > 1  # anchored at the violation, not the module
    assert hits[0].path.name == fixture


def test_every_rule_has_a_fixture():
    covered = set(RULE_FIXTURES.values())
    assert covered == set(RULES["determinism"]), "add a fixture for new rules"
    assert len(LINT_PASSES["determinism"]) == len(RULES["determinism"])


def test_suppression_comment_silences_findings():
    findings = _engine().check_file(FIXTURES / "fixture_suppressed.py")
    assert findings == []


def test_trailing_suppression_does_not_leak_to_next_line(tmp_path):
    # Inline comments cover their own line only; a standalone comment
    # line covers the statement below it.
    module = tmp_path / "mod.py"
    module.write_text(
        "import time  # repro: allow[raw-random, wall-clock]\n"
        "a = time.time()  # repro: allow[wall-clock]\n"
        "b = time.time()\n"
        "# repro: allow[wall-clock]\n"
        "c = time.time()\n")
    findings = _engine().check_file(module)
    assert [f.line for f in findings if f.rule_id == "wall-clock"] == [3]


def test_unsuppressed_twin_still_fires():
    # The suppressed fixture's twin (wall_clock) proves the allow comment,
    # not the rule, is what differs.
    findings = _engine().check_file(FIXTURES / "fixture_wall_clock.py")
    assert any(f.rule_id == "wall-clock" for f in findings)


def test_fixture_tree_fails_as_a_whole():
    findings = run_check([FIXTURES], list(RULES["determinism"])).findings
    assert {f.rule_id for f in findings} == set(RULES["determinism"])


def test_exemption_for_random_streams():
    # The one legitimate home of `import random` is never flagged.
    import repro.des.random_streams as module
    findings = _engine().check_file(Path(module.__file__))
    assert [f for f in findings if f.rule_id == "raw-random"] == []


def test_repository_lints_clean(package_run):
    # The acceptance bar: the shipped code base has zero violations.
    findings = package_run.findings
    assert findings == [], [f.format() for f in findings]
