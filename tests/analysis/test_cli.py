"""The command-line interface."""

import pytest

import repro.sim
from repro.cli import main
from repro.sim import FigurePoint, ResultCache


def test_demo_roundtrips(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out


def test_table_command(capsys, tmp_path):
    csv_path = tmp_path / "t2.csv"
    code = main(["table2", "--samples", "2", "--sizes", "3",
                 "--csv", str(csv_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert "vs paper" in out
    assert csv_path.exists()
    assert "operation,mean" in csv_path.read_text()


def test_figure_command(capsys):
    code = main(["fig4", "--requests", "40"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Figure 4" in out
    assert "disks" in out


@pytest.mark.parametrize("command, series", [
    ("fig3", "figure3_series"), ("fig4", "figure4_series"),
    ("fig5", "figure5_series"), ("fig6", "figure6_series")])
def test_figure_fanout_flags_reach_the_series(monkeypatch, tmp_path,
                                              command, series):
    calls = []

    def stub(**kwargs):
        calls.append(kwargs)
        return [FigurePoint(series="stub", x=1.0, y=2.0, result=None)]

    monkeypatch.setattr(repro.sim, series, stub)
    runs = tmp_path / "runs"
    assert main([command]) == 0
    assert main([command, "--workers", "3", "--cache", str(runs)]) == 0
    default, fanned = calls
    assert default == dict(num_requests=250, workers=1, cache=None)
    assert fanned["workers"] == 3
    assert isinstance(fanned["cache"], ResultCache)
    assert fanned["cache"].root == runs


BAD_ARGUMENTS = [
    ["fig5", "--workers", "0"],
    ["fig5", "--workers", "two"],
    ["fig5", "--requests", "0"],
    ["table2", "--samples", "1", "--sizes", "1"],
    ["table2", "--samples", "2", "--sizes", "1,1"],
    ["sensitivity", "--scale", "0"],
]


def test_bad_workers_rejected():
    # Each is a usage error (exit 2) from the parser, before any run.
    for argv in BAD_ARGUMENTS:
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2, argv


def test_bad_sizes_rejected():
    with pytest.raises(SystemExit):
        main(["table1", "--sizes", "zero"])
    with pytest.raises(SystemExit):
        main(["table1", "--sizes", "0"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["tableX"])


def test_no_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_sensitivity_command(capsys):
    assert main(["sensitivity", "--scale", "1.5"]) == 0
    out = capsys.readouterr().out
    assert "network" in out
    assert "baseline" in out
