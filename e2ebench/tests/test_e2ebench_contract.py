"""BENCHMARK.json agrees with contract.json; seeds and output checks behave."""

import json

import pytest

import analysis
import workloads
from conftest import BENCH

CONTRACT = workloads.load_json("contract.json")
BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_mirrors_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(CONTRACT["workloads"])
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == \
        [(m["name"], m["unit"]) for m in CONTRACT["end_to_end"]]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == \
        [(m["name"], m["unit"]) for layer in CONTRACT["layers"]
         for m in layer["metrics"]]
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in BENCHMARK["end_to_end"])


def test_analysis_reports_every_per_layer_metric():
    values = analysis.layer_metrics([], {"stdlib": 1.0}, 0, 1.0, 1.0)
    assert set(values) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_default_seed_gives_the_cli_table_seeds():
    from repro.prototype.experiments import _sample_rows

    seen = []
    _sample_rows(lambda op, size, seed: seen.append(seed) or 1.0)
    grid = workloads.make_grid(CONTRACT, "tables", CONTRACT["default_seed"])
    per_table = [seed for _, _, _, seeds in grid["rows"][:6]
                 for seed in seeds]
    assert per_table == seen
    held_out = workloads.make_grid(CONTRACT, "tables",
                                   CONTRACT["held_out_seed"])
    assert not set(per_table) & {seed for row in held_out["rows"]
                                 for seed in row[3]}


def _cell(cell_id, value, series="s", x=0, **extra):
    return dict(id=cell_id, value=value, series=series, x=x, hash="h",
                **extra)


def test_fig5_checks_flag_a_falling_series_and_the_anchor_band():
    cells = [_cell("Fujitsu M2372K@16", 1.5e6, "Fujitsu M2372K", 16),
             _cell("Fujitsu M2372K@32", 1.0e6, "Fujitsu M2372K", 32)]
    failures = workloads.check("fig5_search", cells, 1, CONTRACT, {})
    assert failures["Fujitsu M2372K@16"] == []
    assert len(failures["Fujitsu M2372K@32"]) == 2  # falls, below 1.2 MB/s


def test_fig3_checks_want_more_disks_and_larger_units_faster():
    cells = [_cell("a", 100.0, "4KB blocks, 8 disks", 1.0),
             _cell("b", 50.0, "4KB blocks, 32 disks", 1.0),
             _cell("c", 120.0, "32KB blocks, 8 disks", 1.0),
             _cell("d", 10.0, "32KB blocks, 32 disks", 1.0)]
    failures = workloads.check("fig3_curve", cells, 1, CONTRACT, {})
    assert {cell_id for cell_id, why in failures.items() if why} == {"c"}


def test_tables_band_and_default_seed_hash():
    cells = [_cell("table1:Read 3 MB", 893.0 * 1.05, paper=893),
             _cell("table1:Read 6 MB", 897.0 * 0.85, paper=897)]
    failures = workloads.check("tables", cells, 1, CONTRACT, {})
    assert [bool(failures[c["id"]]) for c in cells] == [False, True]
    golden = {"tables": {"table1:Read 3 MB": "h", "table1:Read 6 MB": "x"}}
    failures = workloads.check("tables", cells, CONTRACT["default_seed"],
                               CONTRACT, golden)
    assert len(failures["table1:Read 3 MB"]) == 0
    assert len(failures["table1:Read 6 MB"]) == 2


@pytest.mark.parametrize("value", [float("inf"), float("nan"), 0.0])
def test_non_finite_or_zero_values_fail(value):
    cells = [_cell("table1:Read 3 MB", value, paper=893)]
    failures = workloads.check("tables", cells, 1, CONTRACT, {})
    assert failures["table1:Read 3 MB"]
