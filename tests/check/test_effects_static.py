"""The effect/purity pass, static half: call graph, contracts, CLI."""

import json
from pathlib import Path

import pytest

from repro.check import RULES
from repro.check.effects import (
    ALLOWED_GLOBAL_WRITES,
    analyze_effects,
    build_program,
    compute_summaries,
    _contract_findings,
    _discover_entries,
    _reachable,
)
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "effects"
PACKAGE = Path(__file__).parents[2] / "src" / "repro"

#: fixture file -> (rule expected to fire exactly once, pinned stable id).
#: The ids are the acceptance contract: a message rewording that changes
#: them must be deliberate.
EFFECT_FIXTURES = {
    "fixture_effect_time_service.py": ("effect-ambient-read", "ffae2b198c"),
    "fixture_effect_environ_cached.py": ("effect-ambient-read",
                                         "cb7f8ff80e"),
    "fixture_effect_fs_cached.py": ("effect-ambient-read", "a5d3dcb5ee"),
    "fixture_effect_global_worker.py": ("effect-global-write",
                                        "1b64e8415c"),
    "fixture_effect_global_rebind_worker.py": ("effect-global-write",
                                               "d1be9000d0"),
    "fixture_effect_counter_worker.py": ("effect-global-write",
                                         "527d994792"),
    "fixture_effect_random_workload.py": ("effect-unseeded-random",
                                          "1d9b47472c"),
    "fixture_effect_unkeyed_cached.py": ("effect-unkeyed-input",
                                         "786c3c576a"),
}


# -- fixtures -----------------------------------------------------------------


@pytest.mark.parametrize("fixture,expected", sorted(EFFECT_FIXTURES.items()))
def test_effect_fixture_fires_exactly_once(fixture, expected):
    rule_id, fingerprint = expected
    findings, _ = analyze_effects([FIXTURES / fixture])
    assert [f.rule_id for f in findings] == [rule_id], findings
    assert findings[0].fingerprint == fingerprint
    assert findings[0].line > 1  # anchored at the bug, not the module
    assert "call chain:" in findings[0].message


def test_clean_fixture_has_zero_findings():
    findings, stats = analyze_effects([FIXTURES / "fixture_effect_clean.py"])
    assert findings == []
    # The clean fixture declares all three entry kinds via markers.
    assert stats.cached_entries and stats.worker_entries
    assert stats.bench_entries


def test_allow_effects_group_suppresses_the_pass():
    findings, _ = analyze_effects(
        [FIXTURES / "fixture_effect_suppressed.py"])
    assert findings == []


def test_every_effect_rule_has_a_fixture():
    expected = {rule for rule, _ in EFFECT_FIXTURES.values()}
    assert expected == set(RULES["effects"])


def test_finding_is_anchored_at_the_violation_not_the_entry():
    findings, _ = analyze_effects(
        [FIXTURES / "fixture_effect_time_service.py"])
    (finding,) = findings
    source = (FIXTURES / "fixture_effect_time_service.py").read_text()
    flagged = source.splitlines()[finding.line - 1]
    assert "time.time()" in flagged


# -- the call graph -----------------------------------------------------------


def test_call_chain_crosses_two_hops():
    findings, _ = analyze_effects(
        [FIXTURES / "fixture_effect_time_service.py"])
    chain = findings[0].message.splitlines()[1]
    assert "run_cached" in chain
    assert "_disk_pass" in chain
    assert "service_time" in chain


def test_package_entry_discovery_finds_declared_and_syntactic_entries(
        package_program):
    entries = _discover_entries(package_program)
    assert "repro.sim.parallel._run_config" in entries["cached"]
    assert "repro.sim.model.SwiftSimModel.run" in entries["cached"]
    # Workers discovered syntactically from the pool.map dispatch sites.
    assert "repro.sim.parallel._run_config" in entries["worker"]
    assert "repro.sim.parallel._run_max_sustainable" in entries["worker"]
    assert "repro.sim.figures.figure3_series" in entries["bench"]


def test_cached_reachability_covers_the_model_internals(package_program):
    entries = _discover_entries(package_program)
    reachable = _reachable(package_program, entries["cached"])
    for expected in ("repro.sim.model.SwiftSimModel._generator",
                     "repro.sim.model.SwiftSimModel._request",
                     "repro.simdisk.disk.Disk.__init__"):
        assert expected in reachable, expected


def test_function_level_import_resolves_the_lazy_cycle_break(
        package_program):
    # `_run_max_sustainable` imports find_max_sustainable inside the
    # function body (the lazy-import idiom); the edge must still exist.
    info = package_program.functions["repro.sim.parallel._run_max_sustainable"]
    assert "repro.sim.sweep.find_max_sustainable" in info.calls


def test_summaries_propagate_effects_bottom_up():
    program = build_program([FIXTURES / "fixture_effect_time_service.py"])
    summaries = compute_summaries(program)
    entry = next(name for name in summaries if name.endswith("run_cached"))
    assert "time" in summaries[entry]


def test_blessed_memo_is_the_only_package_global_write(package_program):
    # With an *empty* allowlist the pass must surface exactly the
    # `_code_version_cache` memo — proof the analysis walks the real
    # worker -> sweep -> cache chain, and that the tree has no other
    # reachable global mutation.
    findings = _contract_findings(
        package_program, _discover_entries(package_program), {})
    assert [f.rule_id for f in findings] == ["effect-global-write"]
    assert "_code_version_cache" in findings[0].message
    assert "config_key" in findings[0].message  # the chain is reported


def test_allowed_global_writes_is_declared_with_a_reason():
    for qualname, reason in ALLOWED_GLOBAL_WRITES.items():
        assert qualname.startswith("repro.")
        assert len(reason) > 20  # a real justification, not a stub


# -- the shipped tree ---------------------------------------------------------


def test_package_is_effect_clean(package_run):
    findings = [f for f in package_run.findings
                if f.rule_id in RULES["effects"]]
    assert findings == [], [str(f) for f in findings]


def test_package_has_zero_effect_suppressions():
    # check/effects.py documents the comment syntax in its docstring;
    # everything else must not use (or mention) it.
    hits = [path for path in PACKAGE.rglob("*.py")
            if "allow[effects]" in path.read_text(encoding="utf-8")
            and path.name != "effects.py"]
    assert hits == []


# -- CLI ----------------------------------------------------------------------


def test_cli_effects_flags_fixture_dir(capsys):
    assert main(["check", "--rules", "effects", str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    assert "effect-ambient-read" in out
    assert "effect-global-write" in out
    assert "effect-unseeded-random" in out
    assert "effect-unkeyed-input" in out


def test_cli_effects_clean_on_package(package_check, capsys):
    assert main(["check", "--rules", "effects", str(PACKAGE)]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_cli_effects_json_carries_stats(capsys):
    assert main(["check", "--rules", "effects", str(FIXTURES),
                 "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    by_rule = report["summary"]["by_rule"]
    assert by_rule["effect-ambient-read"] == 3
    assert by_rule["effect-global-write"] == 3
    assert by_rule["effect-unseeded-random"] == 1
    assert by_rule["effect-unkeyed-input"] == 1
    assert report["effects"]["functions"] > 0
    assert report["effects"]["entries"]["cached"]


def test_cli_effects_rule_selection(capsys):
    assert main(["check", "--rules", "effect-global-write",
                 str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    assert "effect-global-write" in out
    assert "effect-ambient-read" not in out


def test_cli_effects_rejects_unknown_rule():
    with pytest.raises(SystemExit):
        main(["check", "--rules", "no-such-rule", str(FIXTURES)])


def test_cli_list_rules_mentions_effect_rules(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULES["effects"]:
        assert rule_id in out


# -- one run of every pass ----------------------------------------------------


def test_cli_all_merges_passes_and_reports_timing(package_check, capsys):
    # `make lint`: one run of every static pass.
    assert main(["check", "--json", str(PACKAGE)]) == 0
    report = json.loads(capsys.readouterr().out)
    names = [entry["name"] for entry in report["passes"]]
    assert names == ["determinism", "races", "units", "aliasing",
                     "protocol", "effects"]
    for entry in report["passes"]:
        assert entry["seconds"] >= 0.0
        assert entry["findings"] == 0
    assert report["effects"]["functions"] > 0


def test_cli_all_fails_on_any_pass(capsys):
    # Pointed at the effects fixtures, the one run must fail and the
    # effects pass must be the one reporting.
    assert main(["check", "--json", str(FIXTURES)]) == 1
    report = json.loads(capsys.readouterr().out)
    by_pass = {entry["name"]: entry["findings"]
               for entry in report["passes"]}
    assert by_pass["effects"] == 8
