"""`python -m repro check` behaviour: exit codes and report formats."""

import json
from pathlib import Path

import pytest

from repro.check import RULES
from repro.cli import main

FIXTURES = str(Path(__file__).parent / "fixtures")

#: Every finding one run reports over the fixture tree, as (rule, file
#: relative to the tree, line, message).
PINNED = json.loads((Path(FIXTURES) / "findings.json").read_text())


def test_check_exits_zero_on_the_repository(package_check, capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s), 0 warning(s)" in out


def test_check_exits_nonzero_on_violation_fixtures(capsys):
    assert main(["check", FIXTURES]) == 1
    out = capsys.readouterr().out
    assert "wall-clock" in out
    assert "error(s)" in out


def test_json_report_is_machine_readable(capsys):
    code = main(["check", FIXTURES, "--json"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["tool"] == "repro-check"
    assert report["format_version"] == 2
    assert report["summary"]["errors"] >= 1
    assert report["summary"]["by_rule"]["wall-clock"] == 1
    by_line = {(f["rule"], Path(f["path"]).name) for f in report["findings"]}
    assert ("salted-hash", "fixture_salted_hash.py") in by_line


def test_one_run_reproduces_the_pinned_fixture_findings(capsys):
    # Lines and messages, not only counts per rule: what a change to the
    # checker's plumbing could silently move.
    assert main(["check", FIXTURES, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    found = [{"rule": f["rule"],
              "file": Path(f["path"]).relative_to(FIXTURES).as_posix(),
              "line": f["line"], "message": f["message"]}
             for f in report["findings"]]
    assert sorted(found, key=lambda f: (f["file"], f["line"], f["rule"],
                                        f["message"])) == PINNED
    assert report["files_checked"] == 43


@pytest.mark.parametrize("rule_id", sorted(
    rule_id for rules in RULES.values() for rule_id in rules))
def test_each_rule_selection_reports_only_that_rule(rule_id, capsys):
    main(["check", FIXTURES, "--json", "--rules", rule_id])
    report = json.loads(capsys.readouterr().out)
    assert {f["rule"] for f in report["findings"]} <= {rule_id}
    assert len(report["findings"]) == sum(
        pin["rule"] == rule_id for pin in PINNED)


@pytest.mark.parametrize("rules", [
    None, "effects", "units", "aliasing", "wall-clock", "yield-rmw",
    "protocol-spec", "effect-global-write,unit-magic"])
def test_every_selection_reports_an_unparseable_file_once(
        rules, tmp_path, capsys):
    (tmp_path / "broken.py").write_text("def f(:\n    pass\n")
    (tmp_path / "fine.py").write_text("X = 1\n")
    argv = ["check", str(tmp_path), "--json"]
    if rules is not None:
        argv += ["--rules", rules]
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert [(f["rule"], Path(f["path"]).name) for f in report["findings"]] \
        == [("syntax-error", "broken.py")]


def test_missing_path_is_an_error():
    with pytest.raises(SystemExit, match="no such path"):
        main(["check", str(Path(FIXTURES) / "no_such_dir")])


def test_json_report_on_clean_repo(package_check, capsys):
    assert main(["check", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["findings"] == []
    assert report["files_checked"] > 0


def test_rule_selection(capsys):
    # Only the selected rule runs: other fixtures' hazards are invisible.
    code = main(["check", FIXTURES, "--rules", "salted-hash"])
    assert code == 1
    out = capsys.readouterr().out
    assert "salted-hash" in out
    assert "wall-clock" not in out


def test_unknown_rule_is_an_error():
    with pytest.raises(SystemExit, match="unknown rule"):
        main(["check", "--rules", "no-such-rule"])


def test_list_rules(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("raw-random", "wall-clock", "implicit-seed"):
        assert rule_id in out
    # The allow groups are listed here, not in --help, whose parser loads
    # no pass.
    assert "effects                group: rule ids starting with effect-" \
        in out


def test_module_entry_point(capsys):
    from repro.check.cli import main as check_main
    assert check_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "mutable-default" in out
    assert "protocol-conformance" in out


def test_findings_have_stable_ids(capsys):
    main(["check", FIXTURES, "--json"])
    first = json.loads(capsys.readouterr().out)
    main(["check", FIXTURES, "--json"])
    second = json.loads(capsys.readouterr().out)
    ids = [f["id"] for f in first["findings"]]
    assert all(len(i) == 10 for i in ids)
    assert ids == [f["id"] for f in second["findings"]]  # run-to-run stable


def test_text_report_carries_the_id(capsys):
    main(["check", FIXTURES])
    out = capsys.readouterr().out
    assert "(id " in out


def test_fail_on_threshold_semantics():
    from repro.check.findings import Finding, Severity
    from repro.check.report import exit_code

    warning = Finding(rule_id="x", path=Path("a.py"), line=1, message="m",
                      severity=Severity.WARNING)
    assert exit_code([warning]) == 0
    assert exit_code([warning], fail_on=Severity.WARNING) == 1
    assert exit_code([], fail_on=Severity.WARNING) == 0


def test_fail_on_flag_is_accepted(package_check, capsys):
    assert main(["check", "--fail-on", "warning"]) == 0  # clean repo
    capsys.readouterr()
    assert main(["check", FIXTURES, "--fail-on", "warning"]) == 1
    capsys.readouterr()

