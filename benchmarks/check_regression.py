"""Kernel-throughput regression gate for CI.

Compares the freshly archived ``benchmarks/results/BENCH_kernel_events.json``
against the committed reference in ``benchmarks/baselines/`` and exits
nonzero if events/second dropped by more than the threshold (default
20 % — far outside shared-runner noise, well inside any accidental
de-optimisation of the kernel fast paths; see docs/PERFORMANCE.md).

Faster-than-baseline results pass silently: the gate is one-sided, and
re-baselining is a deliberate act (copy the fresh JSON into
``benchmarks/baselines/`` in the same commit as the speedup).

The fresh JSON is additionally self-gated: the aliasing sanitizer's
measured overhead ratio must stay under ``--sanitizer-threshold``
(default 1.5x of the uninstrumented kernel).  That bound is absolute,
not baseline-relative — it holds the instrumented pools cheap enough
that sanitized CI runs stay practical.  Baselines archived before the
sanitizer existed simply lack the key and are not penalised.

The hermeticity sanitizer is gated the same way: a fresh
``BENCH_sweep_parallel.json`` carries
``hermeticity_sanitizer_overhead_ratio`` (hermetic warm-cache sweep /
plain warm-cache sweep), and it must stay under
``--hermeticity-threshold`` (default 1.5x).  Runs that never archived
the sweep benchmark skip this gate.

Thresholds live in ``benchmarks/baselines/thresholds.json`` — committed
next to the baselines they guard, so tolerance changes are reviewed
like re-baselines.  Command-line flags override individual values.

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
BASELINE = BENCH_DIR / "baselines" / "BENCH_kernel_events.json"
FRESH = BENCH_DIR / "results" / "BENCH_kernel_events.json"
SWEEP_FRESH = BENCH_DIR / "results" / "BENCH_sweep_parallel.json"
THRESHOLDS = BENCH_DIR / "baselines" / "thresholds.json"

#: Built-in fallbacks, used only if thresholds.json is absent.
DEFAULT_THRESHOLDS = {
    "threshold": 0.20,
    "sanitizer_threshold": 1.5,
    "hermeticity_threshold": 1.5,
}

#: Metrics gated, with direction: events/sec must not drop.
GATED_METRIC = "events_per_sec"

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
                        help="maximum tolerated fractional drop "
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
    parser.add_argument("--baseline", type=Path, default=BASELINE)
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

    if not options.baseline.exists():
        print(f"regression gate: no baseline at {options.baseline}; "
              "nothing to compare (commit one to enable the gate)")
        return 0
    if not options.fresh.exists():
        print(f"regression gate: {options.fresh} missing — run "
              "`pytest benchmarks/bench_kernel_events.py --benchmark-only` "
              "first", file=sys.stderr)
        return 2

    baseline = json.loads(options.baseline.read_text())
    fresh = json.loads(options.fresh.read_text())
    reference = baseline[GATED_METRIC]
    measured = fresh[GATED_METRIC]
    ratio = measured / reference
    floor = 1.0 - options.threshold

    print(f"regression gate: {GATED_METRIC} baseline {reference:,.0f}, "
          f"measured {measured:,.0f} ({ratio:.2f}x of baseline, "
          f"floor {floor:.2f}x)")
    if ratio < floor:
        print(f"regression gate: FAIL — kernel throughput dropped "
              f"{(1.0 - ratio) * 100.0:.1f}% (> {options.threshold * 100:.0f}% "
              "allowed).  If the slowdown is intentional, re-baseline by "
              "copying the fresh JSON into benchmarks/baselines/.",
              file=sys.stderr)
        return 1

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
