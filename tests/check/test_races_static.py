"""Static interleaving lints (yield-rmw, lock-order) and their CLI runs."""

from pathlib import Path

from repro.check import LINT_PASSES, RULES, LintEngine
from repro.check.cli import main
from repro.check.races import LockOrderRule, YieldRmwRule

FIXTURES = Path(__file__).parent / "fixtures"
RACES = ",".join(RULES["races"])


def _race_engine():
    return LintEngine([YieldRmwRule(), LockOrderRule()])


def test_yield_rmw_fires_exactly_once_on_its_fixture():
    findings = _race_engine().check_file(FIXTURES / "fixture_yield_rmw.py")
    hits = [f for f in findings if f.rule_id == "yield-rmw"]
    assert len(hits) == 1, findings
    # The unguarded write-back line, not the guarded twin below it.
    assert hits[0].line == 7
    assert "stale" in hits[0].message


def test_guarded_rmw_is_clean():
    # fixture_yield_rmw.py's second function holds a request() across the
    # read and the write-back; only the unguarded one may fire.
    findings = _race_engine().check_file(FIXTURES / "fixture_yield_rmw.py")
    assert len(findings) == 1


def test_lock_order_reports_the_cycle_once():
    findings = _race_engine().check_file(FIXTURES / "fixture_lock_order.py")
    hits = [f for f in findings if f.rule_id == "lock-order"]
    assert len(hits) == 1, findings
    message = hits[0].message
    assert "disk" in message and "ring" in message


def test_consistent_nesting_order_is_clean():
    source = (
        "def one(env, a, b):\n"
        "    with a.request() as ga:\n"
        "        yield ga\n"
        "        with b.request() as gb:\n"
        "            yield gb\n"
        "\n"
        "def two(env, a, b):\n"
        "    with a.request() as ga:\n"
        "        yield ga\n"
        "        with b.request() as gb:\n"
        "            yield gb\n"
    )
    import ast
    findings = list(LockOrderRule().check(ast.parse(source), Path("x.py")))
    assert findings == []


def test_allow_comment_suppresses_race_findings(tmp_path):
    source = (
        "def lossy(env, shared):\n"
        "    snapshot = shared.total\n"
        "    yield env.timeout(0.001)\n"
        "    shared.total = snapshot + 1  # repro: allow[yield-rmw]\n"
    )
    path = tmp_path / "suppressed.py"
    path.write_text(source)
    assert _race_engine().check_file(path) == []


def test_race_fixtures_do_not_trip_the_determinism_rules():
    # The determinism rules must stay blind to the race fixtures, so the
    # existing fixture-tree invariants keep holding.
    engine = LintEngine([rule() for rule in LINT_PASSES["determinism"]])
    for name in ("fixture_yield_rmw.py", "fixture_lock_order.py"):
        assert engine.check_file(FIXTURES / name) == []


def test_shipped_des_facing_code_is_race_clean(package_run):
    # The race lints audit the whole package, DES-facing code included.
    findings = [f for f in package_run.findings if f.rule_id in RULES["races"]]
    assert findings == [], [f.format() for f in findings]


def test_registry_exposes_both_rules():
    assert set(RULES["races"]) == {"yield-rmw", "lock-order"}


def test_cli_races_pass_is_clean_on_the_repository(package_check, capsys):
    assert main(["--rules", RACES]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_cli_races_pass_fails_on_the_fixtures(capsys):
    assert main(["--rules", RACES, str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    assert "yield-rmw" in out
    assert "lock-order" in out


def test_cli_races_rule_selection(capsys):
    # Selecting just lock-order must not report the RMW fixture.
    assert main(["--rules", "lock-order", str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    assert "lock-order" in out
    assert "yield-rmw" not in out


def test_cli_list_rules_includes_the_race_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "yield-rmw" in out
    assert "lock-order" in out
