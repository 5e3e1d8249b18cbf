"""Kernel-throughput regression gate for CI.

Reads the interleaved A/B of the change against its parent commit,
``benchmarks/results/BENCH_ab_kernel.json`` as archived by::

    python benchmarks/ab_cells.py PARENT_CHECKOUT . kernel --rounds 10

(200 alternating single ping-pong runs of each tree in two long-lived
workers), and exits nonzero if the change's kernel throughput is more
than the threshold (default 20 %) below the parent's: the inverse of
the median round ratio (the change's summed seconds over the parent's)
must stay at or above ``1 - threshold``.  Both trees run in the same spell of host
throughput, so the ratio measures the code, not the host (see
docs/PERFORMANCE.md); an absolute events/s baseline taken on another
host passed or failed with the host's speed.

Faster-than-parent results pass silently: the gate is one-sided.

The fresh ``BENCH_kernel_events.json`` (from ``pytest
benchmarks/bench_kernel_events.py --benchmark-only``) is self-gated: the
aliasing sanitizer's measured overhead ratio must stay under
``--sanitizer-threshold`` (default 1.5x of the uninstrumented kernel).
That bound is absolute — it holds the instrumented pools cheap enough
that sanitized CI runs stay practical.

The hermeticity sanitizer is gated the same way: a fresh
``BENCH_sweep_parallel.json`` carries
``hermeticity_sanitizer_overhead_ratio`` (hermetic warm-cache sweep /
plain warm-cache sweep), and it must stay under
``--hermeticity-threshold`` (default 1.5x).  Runs that never archived
the sweep benchmark skip this gate.

Thresholds live in ``benchmarks/baselines/thresholds.json`` — committed
so tolerance changes are reviewed like code.  Command-line flags
override individual values.

Usage::

    python benchmarks/check_regression.py [--threshold 0.20]
        [--sanitizer-threshold 1.5] [--hermeticity-threshold 1.5]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).parent
AB = BENCH_DIR / "results" / "BENCH_ab_kernel.json"
FRESH = BENCH_DIR / "results" / "BENCH_kernel_events.json"
SWEEP_FRESH = BENCH_DIR / "results" / "BENCH_sweep_parallel.json"
THRESHOLDS = BENCH_DIR / "baselines" / "thresholds.json"

#: Built-in fallbacks, used only if thresholds.json is absent.
DEFAULT_THRESHOLDS = {
    "threshold": 0.20,
    "sanitizer_threshold": 1.5,
    "hermeticity_threshold": 1.5,
}

#: The A/B field gated: the median over rounds of the change's summed
#: ping-pong seconds over the parent's; its inverse is the change's
#: throughput relative to the parent, which must not drop.
GATED_METRIC = "ratio_median"

#: Fresh-run-only gate: sanitized/plain throughput ratio must stay low.
SANITIZER_METRIC = "aliasing_sanitizer_overhead_ratio"

#: Fresh-run-only gate on the sweep benchmark: hermetic/plain warm-cache
#: wall-clock ratio must stay low.
HERMETICITY_METRIC = "hermeticity_sanitizer_overhead_ratio"


def load_thresholds(path: Path) -> dict:
    """Committed default thresholds, falling back to the built-ins."""
    defaults = dict(DEFAULT_THRESHOLDS)
    if path.exists():
        committed = json.loads(path.read_text())
        defaults.update(
            (key, value) for key, value in committed.items()
            if key in DEFAULT_THRESHOLDS)
    return defaults


def main(argv=None) -> int:
    # Flags default to None so "the user said nothing" is
    # distinguishable from "the user repeated the committed value";
    # unset flags take the thresholds.json defaults below.
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threshold", type=float, default=None,
                        help="maximum tolerated fractional throughput drop "
                             "against the parent "
                             "(default from thresholds.json: 0.20 = 20%%)")
    parser.add_argument("--sanitizer-threshold", type=float, default=None,
                        help="maximum tolerated aliasing-sanitizer "
                             "overhead ratio in the fresh run "
                             "(default from thresholds.json: 1.5x)")
    parser.add_argument("--hermeticity-threshold", type=float, default=None,
                        help="maximum tolerated hermeticity-sanitizer "
                             "overhead ratio in the fresh sweep "
                             "benchmark (default from thresholds.json: 1.5x)")
    parser.add_argument("--thresholds", type=Path, default=THRESHOLDS,
                        help="committed threshold defaults "
                             "(benchmarks/baselines/thresholds.json)")
    parser.add_argument("--ab", type=Path, default=AB,
                        help="the ab_cells.py kernel A/B of the change "
                             "against its parent")
    parser.add_argument("--fresh", type=Path, default=FRESH)
    parser.add_argument("--sweep-fresh", type=Path, default=SWEEP_FRESH)
    options = parser.parse_args(argv)

    committed = load_thresholds(options.thresholds)
    if options.threshold is None:
        options.threshold = committed["threshold"]
    if options.sanitizer_threshold is None:
        options.sanitizer_threshold = committed["sanitizer_threshold"]
    if options.hermeticity_threshold is None:
        options.hermeticity_threshold = committed["hermeticity_threshold"]

    for path, how in ((options.ab, "python benchmarks/ab_cells.py "
                       "PARENT_CHECKOUT . kernel --rounds 10"),
                      (options.fresh, "pytest "
                       "benchmarks/bench_kernel_events.py --benchmark-only")):
        if not path.exists():
            print(f"regression gate: {path} missing — run `{how}` first",
                  file=sys.stderr)
            return 2

    ab = json.loads(options.ab.read_text())
    if ab.get("workload") != "kernel":
        print(f"regression gate: {options.ab} is an A/B of "
              f"{ab.get('workload')!r}, not of the kernel", file=sys.stderr)
        return 2
    throughput = 1.0 / ab[GATED_METRIC]
    floor = 1.0 - options.threshold
    rounds = ab["rounds"]
    print(f"regression gate: kernel ping-pong throughput of the change "
          f"{throughput:.3f}x the parent's (median of {len(rounds)} "
          f"interleaved rounds, round ratios "
          f"{min(r['ratio'] for r in rounds):.3f}-"
          f"{max(r['ratio'] for r in rounds):.3f}, digest mismatches "
          f"{sum(r['mismatches'] for r in rounds)}; floor {floor:.2f}x)")
    if throughput < floor:
        print(f"regression gate: FAIL — kernel throughput dropped "
              f"{(1.0 - throughput) * 100.0:.1f}% against the parent "
              f"(> {options.threshold * 100:.0f}% allowed).",
              file=sys.stderr)
        return 1

    fresh = json.loads(options.fresh.read_text())
    overhead = fresh.get(SANITIZER_METRIC)
    if overhead is not None:
        print(f"regression gate: {SANITIZER_METRIC} measured "
              f"{overhead:.2f}x (ceiling "
              f"{options.sanitizer_threshold:.2f}x)")
        if overhead > options.sanitizer_threshold:
            print(f"regression gate: FAIL — the aliasing sanitizer costs "
                  f"{overhead:.2f}x the bare kernel "
                  f"(> {options.sanitizer_threshold:.2f}x allowed).  Keep "
                  "the instrumented-pool hot path branch-cheap; see "
                  "docs/CHECKING.md.", file=sys.stderr)
            return 1

    if options.sweep_fresh.exists():
        sweep = json.loads(options.sweep_fresh.read_text())
        hermeticity = sweep.get(HERMETICITY_METRIC)
        if hermeticity is not None:
            print(f"regression gate: {HERMETICITY_METRIC} measured "
                  f"{hermeticity:.2f}x (ceiling "
                  f"{options.hermeticity_threshold:.2f}x)")
            if hermeticity > options.hermeticity_threshold:
                print(f"regression gate: FAIL — the hermeticity sanitizer "
                      f"costs {hermeticity:.2f}x the plain warm-cache sweep "
                      f"(> {options.hermeticity_threshold:.2f}x allowed).  "
                      "Keep the trap installers and the snapshot/diff pass "
                      "out of per-result work; see docs/CHECKING.md.",
                      file=sys.stderr)
                return 1

    print("regression gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
