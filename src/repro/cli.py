"""Command-line interface: regenerate any of the paper's results.

Usage::

    python -m repro table1 [--samples 8] [--sizes 3,6,9]
    python -m repro table2 | table3 | table4
    python -m repro fig3 | fig4 [--requests 300] [--csv out.csv]
    python -m repro fig5 | fig6 [--requests 250] [--csv out.csv]
    python -m repro fig3 | fig4 | fig5 | fig6 [--workers 2] [--cache DIR]
    python -m repro demo            # the quickstart, end to end
    python -m repro check [paths] [--rules ids] [--json]  # static checks
    python -m repro check --model   # protocol model checker
"""

from __future__ import annotations

import argparse
import sys

from .analysis import figure_points_to_csv, render_chart, table_to_csv, write_csv

__all__ = ["main"]

KB = 1 << 10


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}") from None
    if not sizes or any(size < 1 for size in sizes):
        raise argparse.ArgumentTypeError("sizes must be positive megabytes")
    if len(set(sizes)) != len(sizes):
        raise argparse.ArgumentTypeError(f"duplicate size in {text!r}")
    return sizes


def _int_at_least(minimum: int, name: str):
    """An argparse type: an integer no smaller than ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{name} must be an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"{name} must be at least {minimum}")
        return value
    return parse


def _parse_scale(text: str) -> float:
    try:
        scale = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"scale must be a number, got {text!r}") from None
    if not scale > 0:
        raise argparse.ArgumentTypeError("scale must be positive")
    return scale


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce results from 'Exploiting Multiple I/O "
                    "Streams to Provide High Data-Rates' (USENIX 1991).")
    sub = parser.add_subparsers(dest="command", required=True)

    for table in ("table1", "table2", "table3", "table4"):
        table_parser = sub.add_parser(
            table, help=f"regenerate {table} of the paper")
        table_parser.add_argument("--samples",
                                  type=_int_at_least(2, "samples"),
                                  default=8,
                                  help="runs per cell (paper: 8)")
        table_parser.add_argument("--sizes", type=_parse_sizes,
                                  default=(3, 6, 9),
                                  help="transfer sizes in MB (paper: 3,6,9)")
        table_parser.add_argument("--csv", help="also write CSV here")

    for figure in ("fig3", "fig4", "fig5", "fig6"):
        figure_parser = sub.add_parser(
            figure, help=f"regenerate {figure} of the paper")
        figure_parser.add_argument("--requests",
                                   type=_int_at_least(1, "requests"),
                                   default=250,
                                   help="measured completions per run")
        figure_parser.add_argument(
            "--workers", type=_int_at_least(1, "workers"), default=1,
            help="worker processes for independent runs (default 1: serial)")
        figure_parser.add_argument(
            "--cache", metavar="DIR",
            help="reuse runs stored in DIR and store new ones there")
        figure_parser.add_argument("--csv", help="also write CSV here")

    sensitivity_parser = sub.add_parser(
        "sensitivity",
        help="bottleneck location: speed each component up, see what moves")
    sensitivity_parser.add_argument("--operation", choices=("read", "write"),
                                    default="read")
    sensitivity_parser.add_argument("--scale", type=_parse_scale, default=2.0,
                                    help="speed-up factor (default 2.0)")

    sub.add_parser("demo", help="run the quickstart demo")

    check_parser = sub.add_parser(
        "check",
        help="static determinism lint + protocol-invariant verification")
    from .check.cli import add_check_arguments
    add_check_arguments(check_parser)
    return parser


def _run_table(args) -> int:
    from .prototype import (
        PAPER_TABLE1, PAPER_TABLE2, PAPER_TABLE3, PAPER_TABLE4,
        format_comparison, format_table,
        run_nfs_table, run_scsi_table, run_swift_table,
    )
    runners = {
        "table1": (lambda: run_swift_table(sizes_mb=args.sizes,
                                           samples=args.samples),
                   PAPER_TABLE1, "Table 1 — Swift, one Ethernet"),
        "table2": (lambda: run_scsi_table(sizes_mb=args.sizes,
                                          samples=args.samples),
                   PAPER_TABLE2, "Table 2 — local SCSI"),
        "table3": (lambda: run_nfs_table(sizes_mb=args.sizes,
                                         samples=args.samples),
                   PAPER_TABLE3, "Table 3 — NFS"),
        "table4": (lambda: run_swift_table(second_ethernet=True,
                                           sizes_mb=args.sizes,
                                           samples=args.samples),
                   PAPER_TABLE4, "Table 4 — Swift, two Ethernets"),
    }
    runner, paper, title = runners[args.command]
    rows = runner()
    print(format_table(f"{title} (KB/s)", rows))
    print()
    print(format_comparison(f"{title} vs paper", rows, paper))
    if args.csv:
        write_csv(args.csv, table_to_csv(rows))
        print(f"\nCSV written to {args.csv}")
    return 0


def _run_figure(args) -> int:
    from .sim import (
        ResultCache, figure3_series, figure4_series, figure5_series,
        figure6_series,
    )
    # Fanned-out and cached points are bit-identical to the serial ones.
    fanout = dict(workers=args.workers,
                  cache=ResultCache(args.cache) if args.cache else None)
    if args.command == "fig3":
        points = figure3_series(num_requests=args.requests, **fanout)
        title = "Figure 3 — mean completion (ms) vs req/s, 1 MB requests"
        x_label, y_label, y_max = "requests/second", "ms", 2000.0
    elif args.command == "fig4":
        points = figure4_series(num_requests=args.requests, **fanout)
        title = "Figure 4 — mean completion (ms) vs req/s, 128 KB requests"
        x_label, y_label, y_max = "requests/second", "ms", 1500.0
    elif args.command == "fig5":
        points = figure5_series(num_requests=args.requests, **fanout)
        title = "Figure 5 — max sustainable data-rate, 4 KB units"
        x_label, y_label, y_max = "disks", "bytes/s", None
    else:
        points = figure6_series(num_requests=args.requests, **fanout)
        title = "Figure 6 — max sustainable data-rate, 32 KB units"
        x_label, y_label, y_max = "disks", "bytes/s", None

    series: dict[str, list[tuple[float, float]]] = {}
    for point in points:
        series.setdefault(point.series, []).append((point.x, point.y))
    print(render_chart(series, title=title, x_label=x_label,
                       y_label=y_label, y_max=y_max))
    if args.csv:
        write_csv(args.csv, figure_points_to_csv(points))
        print(f"\nCSV written to {args.csv}")
    return 0


def _run_sensitivity(args) -> int:
    from .prototype.sensitivity import COMPONENTS, sensitivity_table
    table = sensitivity_table(args.operation, scale=args.scale)
    print(f"Component sensitivity — {args.operation}, each component "
          f"{args.scale:g}x faster in isolation")
    print(f"(baseline {table['baseline']:.0f} KB/s)\n")
    for component in COMPONENTS:
        gain = table[component]
        bar = "#" * max(0, round((gain - 1.0) * 50))
        print(f"  {component:<12} {gain:5.2f}x  {bar}")
    return 0


def _run_demo() -> int:
    from .core import build_local_swift
    deployment = build_local_swift(num_agents=3)
    client = deployment.client()
    with client.open("demo", "w") as handle:
        payload = b"high data-rates from multiple I/O streams\n" * 500
        handle.write(payload)
        handle.seek(0)
        ok = handle.read(len(payload)) == payload
    print(f"wrote and re-read {len(payload)} bytes over "
          f"{len(deployment.agents)} storage agents: "
          f"{'OK' if ok else 'CORRUPT'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command.startswith("table"):
        return _run_table(args)
    if args.command.startswith("fig"):
        return _run_figure(args)
    if args.command == "sensitivity":
        return _run_sensitivity(args)
    if args.command == "check":
        from .check.cli import run_check_command
        return run_check_command(args)
    return _run_demo()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
