"""The dimensional-analysis pass: algebra, inference, rules, CLI."""

import ast
from pathlib import Path

import pytest

from repro.check import RULES, LintEngine, run_check
from repro.check.units import (
    BITS_PER_S,
    BYTES,
    BYTES_PER_S,
    DIMENSIONLESS,
    KILOBYTES_PER_S,
    MEGABYTES_PER_S,
    SECONDS,
    Dim,
    UnitRule,
    analyze_units,
    name_dim,
)
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "units"
PACKAGE = Path(__file__).parents[2] / "src" / "repro"

#: fixture file -> the unit rule expected to fire there exactly once.
UNIT_FIXTURES = {
    "fixture_unit_mismatch.py": "unit-mismatch",
    "fixture_unit_assign.py": "unit-mismatch",
    "fixture_unit_timeout.py": "unit-mismatch",
    "fixture_unit_kbps.py": "unit-mismatch",
    "fixture_unit_bitbyte.py": "unit-bitbyte",
    "fixture_unit_magic.py": "unit-magic",
}


def _unit_engine():
    return LintEngine([UnitRule()])


def _findings(source: str):
    return analyze_units(ast.parse(source), Path("mod.py"))


# -- the dimension algebra ----------------------------------------------------


def test_dim_algebra():
    assert BYTES.div(SECONDS) == BYTES_PER_S
    assert BYTES_PER_S.mul(SECONDS) == BYTES
    assert BYTES.div(BYTES) == DIMENSIONLESS
    assert DIMENSIONLESS.dimensionless
    assert not BYTES.dimensionless
    assert str(BYTES_PER_S) == "byte*s^-1"


def test_dim_is_immutable_and_hashable():
    with pytest.raises(AttributeError):
        BYTES.exponents = ()
    assert Dim({"byte": 1}) == BYTES
    assert len({Dim({"byte": 1}), BYTES}) == 1


def test_name_dim_priorities():
    # exact seed beats suffix: 'timeout' is seconds despite no suffix
    assert name_dim("timeout") == SECONDS
    assert name_dim("nbytes") == BYTES
    # longest suffix wins: _bits_per_s beats _s
    assert name_dim("ring_bits_per_s") == BITS_PER_S
    assert name_dim("ack_delay_s") == SECONDS
    # leading underscores and case are ignored
    assert name_dim("_Payload_Bytes") == BYTES
    # generic names stay unknown
    assert name_dim("value") is None


def test_name_dim_reads_kb_per_s_names_as_a_rate():
    # Tables 1-4 report KB/s (repro.units.kb_per_s(rate_kb_s)): the
    # suffix is a rate, not the `_s` of seconds.
    assert name_dim("rate_kb_s") == KILOBYTES_PER_S
    assert name_dim("rate_kb_per_s") == KILOBYTES_PER_S
    assert name_dim("rate_mb_s") == MEGABYTES_PER_S
    assert KILOBYTES_PER_S != MEGABYTES_PER_S


# -- the interpreter ----------------------------------------------------------


def test_additive_mismatch_is_found():
    findings = _findings(
        "def f(latency_s, payload_bytes):\n"
        "    return latency_s + payload_bytes\n")
    assert [rule for rule, _, _ in findings] == ["unit-mismatch"]


def test_converted_expression_is_clean():
    findings = _findings(
        "from repro.units import seconds_to_send\n"
        "def f(latency_s, payload_bytes, link_bits_per_s):\n"
        "    return latency_s + seconds_to_send(payload_bytes,\n"
        "                                       link_bits_per_s)\n")
    assert findings == []


def test_rate_times_time_is_bytes():
    # bandwidth * elapsed_s is bytes: adding nbytes to it is fine,
    # adding seconds to it is not.
    clean = _findings(
        "def f(bandwidth, elapsed_s, nbytes):\n"
        "    return bandwidth * elapsed_s + nbytes\n")
    assert clean == []
    dirty = _findings(
        "def f(bandwidth, elapsed_s, delay_s):\n"
        "    return bandwidth * elapsed_s + delay_s\n")
    assert [rule for rule, _, _ in dirty] == ["unit-mismatch"]


def test_comparison_mismatch_is_found():
    findings = _findings(
        "def f(deadline, request_size):\n"
        "    return deadline < request_size\n")
    assert [rule for rule, _, _ in findings] == ["unit-mismatch"]


def test_timeout_argument_checked_through_yield():
    findings = _findings(
        "def f(env, delay_ms):\n"
        "    yield env.timeout(delay_ms)\n")
    assert [rule for rule, _, _ in findings] == ["unit-mismatch"]
    assert "timeout" in findings[0][2]


def test_timeout_with_seconds_is_clean():
    assert _findings(
        "def f(env, delay_s):\n"
        "    yield env.timeout(delay_s)\n") == []


def test_assignment_to_declared_name_checked():
    findings = _findings(
        "def f(ring_bits_per_s):\n"
        "    goodput_bytes_per_s = ring_bits_per_s\n"
        "    return goodput_bytes_per_s\n")
    assert [rule for rule, _, _ in findings] == ["unit-mismatch"]


def test_attribute_assignment_checked():
    findings = _findings(
        "def f(obj, window_s):\n"
        "    obj.limit_bytes = window_s\n")
    assert [rule for rule, _, _ in findings] == ["unit-mismatch"]


def test_local_inference_carries_through_names():
    # 'total' has no declared suffix; its dimension is inferred from the
    # assignment and still participates in later checks.
    findings = _findings(
        "def f(nbytes, delay_s):\n"
        "    total = nbytes * 2\n"
        "    return total + delay_s\n")
    assert [rule for rule, _, _ in findings] == ["unit-mismatch"]


def test_bitbyte_factor_found_and_magic_not_doubled():
    findings = _findings(
        "def f(frame_bytes):\n"
        "    return frame_bytes * 8\n")
    assert [rule for rule, _, _ in findings] == ["unit-bitbyte"]


def test_bitbyte_factor_on_a_kb_per_s_rate_is_found():
    # As for MB/s: a raw *8 on a KB/s rate is a bit-byte conversion.
    findings = _findings(
        "def f(rate_kb_s):\n"
        "    return rate_kb_s * 8\n")
    assert [rule for rule, _, _ in findings] == ["unit-bitbyte"]


def test_bitbyte_on_dimensionless_is_clean():
    assert _findings(
        "def f(num_packets):\n"
        "    return num_packets * 8\n") == []


def test_magic_factor_found_including_inverse():
    findings = _findings(
        "def f(elapsed_s):\n"
        "    a = elapsed_s * 1000\n"
        "    b = elapsed_s * 1e-6\n"
        "    return a, b\n")
    assert [rule for rule, _, _ in findings] == ["unit-magic", "unit-magic"]


def test_magic_factor_on_unknown_is_clean():
    # No dimension, no finding: plain numeric code is untouched.
    assert _findings("def f(x):\n    return x * 1024\n") == []


def test_floor_division_of_same_dim_is_a_count():
    assert _findings(
        "def f(nbytes, packet_size, num_limit):\n"
        "    packets = nbytes // packet_size\n"
        "    return packets + num_limit\n") == []


def test_unknown_poisons_instead_of_guessing():
    # 'factor' is unknown, so factor * delay_s is unknown: comparing it
    # against bytes must NOT fire.
    assert _findings(
        "def f(factor, delay_s, nbytes):\n"
        "    return factor * delay_s < nbytes\n") == []


# -- rule facades over the fixtures -------------------------------------------


@pytest.mark.parametrize("fixture,rule_id", sorted(UNIT_FIXTURES.items()))
def test_unit_fixture_fires_exactly_once(fixture, rule_id):
    findings = _unit_engine().check_file(FIXTURES / fixture)
    assert [f.rule_id for f in findings] == [rule_id], findings
    assert findings[0].line > 1  # anchored at the bug, not the module


def test_clean_fixture_has_zero_findings():
    assert _unit_engine().check_file(FIXTURES / "fixture_unit_clean.py") == []


def test_allow_units_group_suppresses_all_unit_rules():
    findings = _unit_engine().check_file(
        FIXTURES / "fixture_unit_suppressed.py")
    assert findings == []


def test_units_module_itself_is_exempt():
    # repro/units.py is the one place allowed to hold raw factors.
    findings = _unit_engine().check_file(PACKAGE / "units.py")
    assert findings == []


def test_every_unit_rule_has_a_fixture():
    assert set(UNIT_FIXTURES.values()) == set(RULES["units"])


def test_package_is_unit_clean():
    findings = run_check(rules=["units"]).findings
    assert findings == [], [str(f) for f in findings]


# -- CLI ----------------------------------------------------------------------


def test_cli_units_flags_fixture_dir(capsys):
    assert main(["check", "--rules", "units", str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    assert "unit-mismatch" in out
    assert "unit-bitbyte" in out
    assert "unit-magic" in out


def test_cli_units_clean_on_package(capsys):
    assert main(["check", "--rules", "units", str(PACKAGE)]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_cli_units_json(capsys):
    import json
    assert main(["check", "--rules", "units", str(FIXTURES), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    by_rule = report["summary"]["by_rule"]
    assert by_rule["unit-mismatch"] == 4
    assert by_rule["unit-bitbyte"] == 1
    assert by_rule["unit-magic"] == 1


def test_cli_list_rules_mentions_unit_rules(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("unit-mismatch", "unit-bitbyte", "unit-magic"):
        assert rule_id in out
