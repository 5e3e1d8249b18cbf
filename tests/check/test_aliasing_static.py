"""The zero-copy safety pass, static half: analyzer, rules, CLI."""

import ast
from pathlib import Path

import pytest

from repro.check import RULES, LintEngine, run_check
from repro.check.aliasing import AliasRule, analyze_aliasing
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "aliasing"
PACKAGE = Path(__file__).parents[2] / "src" / "repro"

#: fixture file -> (rule expected to fire exactly once, pinned stable id).
#: The ids are the acceptance contract: a message rewording that changes
#: them must be deliberate.
ALIAS_FIXTURES = {
    "fixture_view_store_self.py": ("view-escape", "1ab6e55c64"),
    "fixture_view_past_flush.py": ("view-escape", "d59f155c03"),
    "fixture_view_after_swap.py": ("view-escape", "03ce875ea4"),
    "fixture_view_container_escape.py": ("view-escape", "3c3f64bc6d"),
    "fixture_pool_rearm.py": ("pool-leak", "e354328c20"),
    "fixture_apply_write_bytes.py": ("hidden-copy", "0d7cd2020d"),
    "fixture_hidden_add_pad.py": ("hidden-copy", "782c7e8e4b"),
    "fixture_per_byte_loop.py": ("hidden-copy", "68b130c6cf"),
    "fixture_hidden_ljust.py": ("hidden-copy", "e7619247f4"),
}


def _alias_engine():
    return LintEngine([AliasRule()])


def _findings(source: str, name: str = "core/distribution.py"):
    # The default pseudo-path is on the hot list so hidden-copy is live.
    return analyze_aliasing(ast.parse(source), Path(name))


# -- the dataflow analysis ----------------------------------------------------


def test_memoryview_of_local_is_tracked():
    findings = _findings(
        "def f(buf):\n"
        "    view = memoryview(buf)\n"
        "    return bytes(view)\n")
    assert [f.rule_id for f in findings] == ["hidden-copy"]


def test_slice_of_view_is_still_a_view():
    findings = _findings(
        "def f(buf):\n"
        "    view = memoryview(buf)\n"
        "    piece = view[4:8]\n"
        "    return bytes(piece)\n")
    assert [f.rule_id for f in findings] == ["hidden-copy"]


def test_slice_of_bytearray_local_is_a_view_source():
    findings = _findings(
        "def f(n):\n"
        "    buf = bytearray(n)\n"
        "    head = buf[:4]\n"
        "    buf.extend(b'xx')\n"
        "    return head\n")
    assert [f.rule_id for f in findings] == ["view-escape"]


def test_tobytes_is_never_flagged():
    assert _findings(
        "def f(buf):\n"
        "    view = memoryview(buf)\n"
        "    return view.tobytes()\n") == []


def test_bytes_of_plain_parameter_is_not_flagged():
    # buffered.write_p's deliberate snapshot: the argument is not a
    # known view, so bytes() on it is a legitimate freeze.
    assert _findings(
        "def f(data):\n"
        "    data = bytes(data)\n"
        "    return data\n") == []


def test_hidden_copy_silent_outside_hot_paths():
    assert _findings(
        "def f(buf):\n"
        "    view = memoryview(buf)\n"
        "    return bytes(view)\n",
        name="tools/offline_report.py") == []


def test_docstring_marker_opts_into_hot():
    findings = _findings(
        '"""helper\n\nrepro: hot-path\n"""\n'
        "def f(buf):\n"
        "    view = memoryview(buf)\n"
        "    return bytes(view)\n",
        name="tools/offline_report.py")
    assert [f.rule_id for f in findings] == ["hidden-copy"]


def test_mutation_of_unrelated_buffer_keeps_view_fresh():
    assert _findings(
        "def f(a, b):\n"
        "    view = memoryview(a)\n"
        "    other = bytearray(b)\n"
        "    other.extend(view)\n"
        "    return view\n") == []


def test_narrowing_rebind_is_clean():
    # _apply_write's `remaining = remaining[span:]` loop idiom.
    assert _findings(
        "def f(data):\n"
        "    remaining = memoryview(data)\n"
        "    remaining = remaining[4:]\n"
        "    return remaining\n") == []


def test_view_taken_after_flush_is_clean():
    assert _findings(
        "class C:\n"
        "    def f(self):\n"
        "        self.flush()\n"
        "        view = memoryview(self._buf)\n"
        "        return view\n") == []


def test_branch_retirement_does_not_leak_across_arms():
    # The engine drain loop: Timeout recycled in one arm, the Release
    # arm touches the same name — mutually exclusive, must stay clean.
    assert _findings(
        "def f(event, timeout_pool, release_pool, is_timeout):\n"
        "    if is_timeout:\n"
        "        timeout_pool.append(event)\n"
        "    else:\n"
        "        event.callbacks = []\n"
        "        release_pool.append(event)\n") == []


def test_pool_leak_fires_in_straight_line():
    findings = _findings(
        "def f(event, release_pool):\n"
        "    release_pool.append(event)\n"
        "    event.callbacks.append(None)\n")
    assert [f.rule_id for f in findings] == ["pool-leak"]


def test_rebinding_clears_pool_retirement():
    assert _findings(
        "def f(events, pool):\n"
        "    for event in events:\n"
        "        pool.append(event)\n"
        "    event = object()\n"
        "    return event\n") == []


# -- rule facades over the fixtures -------------------------------------------


@pytest.mark.parametrize("fixture,expected", sorted(ALIAS_FIXTURES.items()))
def test_alias_fixture_fires_exactly_once(fixture, expected):
    rule_id, fingerprint = expected
    findings = _alias_engine().check_file(FIXTURES / fixture)
    assert [f.rule_id for f in findings] == [rule_id], findings
    assert findings[0].fingerprint == fingerprint
    assert findings[0].line > 1  # anchored at the bug, not the module


def test_clean_fixture_has_zero_findings():
    assert _alias_engine().check_file(
        FIXTURES / "fixture_alias_clean.py") == []


def test_allow_aliasing_group_suppresses_all_alias_rules():
    # The flagged line fires both view-escape and hidden-copy without
    # the comment; one group suppression covers both.
    findings = _alias_engine().check_file(
        FIXTURES / "fixture_alias_suppressed.py")
    assert findings == []


def test_every_alias_rule_has_a_fixture():
    expected = {rule for rule, _ in ALIAS_FIXTURES.values()}
    assert expected == set(RULES["aliasing"])


def test_package_is_alias_clean():
    findings = run_check(rules=["aliasing"]).findings
    assert findings == [], [str(f) for f in findings]


def test_package_has_zero_alias_suppressions():
    # check/aliasing.py documents the comment syntax in its docstring;
    # everything else must not use (or mention) it.
    hits = [path for path in PACKAGE.rglob("*.py")
            if "allow[aliasing]" in path.read_text(encoding="utf-8")
            and path.name != "aliasing.py"]
    assert hits == []


# -- CLI ----------------------------------------------------------------------


def test_cli_aliasing_flags_fixture_dir(capsys):
    assert main(["check", "--rules", "aliasing", str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    assert "view-escape" in out
    assert "hidden-copy" in out
    assert "pool-leak" in out


def test_cli_aliasing_clean_on_package(capsys):
    assert main(["check", "--rules", "aliasing", str(PACKAGE)]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_cli_aliasing_json(capsys):
    import json
    assert main(["check", "--rules", "aliasing", str(FIXTURES),
                 "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    by_rule = report["summary"]["by_rule"]
    assert by_rule["view-escape"] == 4
    assert by_rule["hidden-copy"] == 4
    assert by_rule["pool-leak"] == 1


def test_cli_aliasing_rule_selection(capsys):
    assert main(["check", "--rules", "pool-leak", str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    assert "pool-leak" in out
    assert "view-escape" not in out


def test_cli_list_rules_mentions_alias_rules(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("view-escape", "hidden-copy", "pool-leak"):
        assert rule_id in out
