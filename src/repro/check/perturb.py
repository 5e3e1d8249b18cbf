"""Schedule-perturbation harness: prove results don't lean on tie-breaks.

The calendar orders events by ``(time, eid)``; the ``eid`` component is
an implementation detail, not part of any model's contract.  This
harness runs one scenario several times with
``Environment(tie_break_seed=...)`` — which deterministically shuffles
every same-time tie — and asserts the end-of-run metrics
are **bit-identical** across all permutations.  Any divergence is a
confirmed tie-break race: some result flowed through the order of two
same-timestamp events.  It is the one runtime check for tie-order
dependence: it looks at what a reordered tie does to the results, not
at which accesses might conflict.

To localize a divergence, a scenario attaches the provided
:class:`ScheduleTrace` to its environment; the harness then reports the
index and fingerprint (time and event type) of the first event where
the perturbed run's schedule departed from the baseline's.

Usage::

    from repro.check import run_perturbed, assert_schedule_invariant

    def scenario(tie_break_seed, trace):
        env = Environment(tie_break_seed=tie_break_seed)
        trace.attach(env)
        ... build and run the model ...
        return {"mean": stats.mean, "count": stats.count}

    assert_schedule_invariant(scenario, permutations=8)   # raises on race
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from ..des.engine import tie_break_key

__all__ = ["ScheduleTrace", "Divergence", "PerturbationReport",
           "ScheduleRaceError", "derive_tie_seeds", "run_perturbed",
           "assert_schedule_invariant"]

#: A scenario: builds, runs and measures one simulation under the given
#: tie-break seed (None = the deterministic baseline order), attaching
#: the trace to its environment if it wants divergences localized.
Scenario = Callable[[Optional[int], "ScheduleTrace"], Mapping]


class ScheduleRaceError(AssertionError):
    """Metrics moved under a same-time tie shuffle."""


class ScheduleTrace:
    """Step-monitor recorder fingerprinting every processed event.

    A fingerprint is ``(when, event type name)``: nothing in it depends
    on object addresses or process-global counters, so two runs of one
    scenario in one process record the same list.
    """

    def __init__(self):
        self.fingerprints: list[tuple[float, str]] = []

    def attach(self, env) -> None:
        """Start recording ``env``'s schedule (attach once per env)."""
        env.observe("step", self._on_step)

    def _on_step(self, when: float, event) -> None:
        self.fingerprints.append((when, type(event).__name__))


@dataclass(frozen=True)
class Divergence:
    """One perturbed run whose metrics differ from the baseline's."""

    tie_break_seed: int
    #: metric name -> (baseline value, perturbed value)
    metric_diffs: Mapping[str, tuple]
    #: Index of the first schedule fingerprint that differs, or None when
    #: the scenario did not attach the trace (or the schedules agree).
    first_divergent_event: Optional[int] = None
    baseline_fingerprint: Optional[tuple] = None
    perturbed_fingerprint: Optional[tuple] = None

    def format(self) -> str:
        lines = [f"tie-break seed {self.tie_break_seed}:"]
        for name, (base, perturbed) in sorted(self.metric_diffs.items()):
            lines.append(f"  metric {name!r}: baseline {base!r} != "
                         f"perturbed {perturbed!r}")
        if self.first_divergent_event is not None:
            lines.append(
                f"  schedules diverge at event #{self.first_divergent_event}: "
                f"baseline {self.baseline_fingerprint!r} vs "
                f"perturbed {self.perturbed_fingerprint!r}")
        return "\n".join(lines)


@dataclass(frozen=True)
class PerturbationReport:
    """Outcome of one harness run over K permutations."""

    baseline_metrics: Mapping
    permutations: int
    divergences: tuple = field(default_factory=tuple)

    @property
    def invariant(self) -> bool:
        """True when every permutation reproduced the baseline metrics."""
        return not self.divergences

    def format(self) -> str:
        if self.invariant:
            return (f"schedule-invariant: {len(self.baseline_metrics)} "
                    f"metric(s) bit-identical across {self.permutations} "
                    "tie-break permutations")
        lines = [f"tie-break race: {len(self.divergences)} of "
                 f"{self.permutations} permutations moved the metrics"]
        lines.extend(d.format() for d in self.divergences)
        return "\n".join(lines)


def derive_tie_seeds(base_seed: int, permutations: int) -> list[int]:
    """``permutations`` well-mixed, deterministic tie-break seeds."""
    return [tie_break_key(base_seed, index)[0]
            for index in range(1, permutations + 1)]


def _bit_identical(first, second) -> bool:
    if isinstance(first, float) and isinstance(second, float):
        return first == second or (first != first and second != second)
    return type(first) is type(second) and first == second


def _diff_metrics(baseline: Mapping, perturbed: Mapping) -> dict:
    diffs = {}
    for name in sorted(set(baseline) | set(perturbed)):
        missing = object()
        base = baseline.get(name, missing)
        other = perturbed.get(name, missing)
        if base is missing or other is missing or \
                not _bit_identical(base, other):
            diffs[name] = (None if base is missing else base,
                           None if other is missing else other)
    return diffs


def _first_divergence(baseline: ScheduleTrace, perturbed: ScheduleTrace):
    base, other = baseline.fingerprints, perturbed.fingerprints
    if not base and not other:
        return None, None, None
    for index, (one, two) in enumerate(zip(base, other)):
        if one != two:
            return index, one, two
    if len(base) != len(other):
        index = min(len(base), len(other))
        longer = base if len(base) > len(other) else other
        return (index,
                longer[index] if longer is base else None,
                longer[index] if longer is other else None)
    return None, None, None


def run_perturbed(scenario: Scenario, permutations: int = 8,
                  base_seed: int = 0) -> PerturbationReport:
    """Run ``scenario`` under the baseline order and K seeded shuffles.

    Returns a :class:`PerturbationReport`; ``report.invariant`` is the
    verdict.  The scenario must be self-contained (build its own
    ``Environment(tie_break_seed=...)`` and model each call) — reused
    state across calls would itself be a determinism bug.
    """
    if permutations < 1:
        raise ValueError(f"need at least 1 permutation, got {permutations}")
    baseline_trace = ScheduleTrace()
    baseline = dict(scenario(None, baseline_trace))
    divergences = []
    for seed in derive_tie_seeds(base_seed, permutations):
        trace = ScheduleTrace()
        metrics = dict(scenario(seed, trace))
        diffs = _diff_metrics(baseline, metrics)
        if not diffs:
            continue
        index, base_print, perturbed_print = _first_divergence(
            baseline_trace, trace)
        divergences.append(Divergence(
            tie_break_seed=seed,
            metric_diffs=diffs,
            first_divergent_event=index,
            baseline_fingerprint=base_print,
            perturbed_fingerprint=perturbed_print,
        ))
    return PerturbationReport(
        baseline_metrics=baseline,
        permutations=permutations,
        divergences=tuple(divergences),
    )


def assert_schedule_invariant(scenario: Scenario, permutations: int = 8,
                              base_seed: int = 0) -> PerturbationReport:
    """:func:`run_perturbed`, raising :class:`ScheduleRaceError` on drift."""
    report = run_perturbed(scenario, permutations=permutations,
                           base_seed=base_seed)
    if not report.invariant:
        raise ScheduleRaceError(report.format())
    return report
