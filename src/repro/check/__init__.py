"""Determinism & protocol-invariant checking for the reproduction.

The results in Tables 1-4 and Figures 3-6 are only trustworthy if every
simulation run is bit-for-bit deterministic and the transfer protocol never
violates its ACK/NAK state machine.  This package defends both, statically
and at run time.

``python -m repro check [paths ...]`` runs every static pass in one walk
(:func:`run_check`) over the given files and directories, or over the
installed ``repro`` package.  The passes, and the rule ids each reports
(listed in :data:`RULES`):

* ``determinism`` — :mod:`repro.check.rules`, run by the AST lint engine
  in :mod:`repro.check.lint`: unseeded RNG, wall-clock reads, mutable
  default arguments, set-iteration order dependence, salted ``hash()``
  use, and the transport-readiness rules (unguarded receives, unbounded
  retransmit loops, unit-less timeouts).
* ``races`` — :mod:`repro.check.races`: static interleaving lints that
  model ``yield`` as a preemption point (lost-update RMW spans,
  lock-order cycles).
* ``units`` — :mod:`repro.check.units`: a dimensional-analysis lint that
  infers units (bytes, seconds, bytes/s, ...) from names and the
  ``repro.units`` seed table, propagates them through arithmetic, and
  flags mixed-unit expressions, inline ``*8``/``/8`` bit-byte factors
  and magic scale constants.
* ``aliasing`` — :mod:`repro.check.aliasing`: zero-copy safety lints, an
  AST dataflow analysis over view-producing expressions flagging
  borrowed views that escape their backing buffer's lifetime
  (``view-escape``), silent flattening copies on hot paths
  (``hidden-copy``) and pooled event references held across the
  free-list re-arm boundary (``pool-leak``).
* ``protocol`` — :mod:`repro.check.protocol`: extracts the agent/client
  message flows from the protocol sources and verifies them against the
  declarative spec in :mod:`repro.check.spec` (the docs/PROTOCOL.md
  ACK/NAK/retransmit machine); it audits every path that holds
  ``core/agent_protocol.py``.
* ``effects`` — :mod:`repro.check.effects`: a call-graph effect/purity
  analysis: per-function effect signatures (ambient time/randomness/
  environment/filesystem/process reads, module-global writes) propagated
  bottom-up through SCC summaries, then checked against the
  cache-soundness, worker-hermeticity and bench-determinism contracts.

The runtime half, checking live runs:

* :mod:`repro.check.sanitize` — opt-in sanitizers for the DES: event-time
  monotonicity and resource leaks; poisoned free lists and
  generation-stamped buffers (:func:`alias_sanitize`); ambient-read
  traps and module-global snapshot/diff around cached runs
  (:func:`hermetic_sanitize`).
* :mod:`repro.check.perturb` — the schedule-perturbation harness, the
  one runtime check for tie-order dependence: rerun a scenario under K
  seeded same-time tie shuffles and assert the metrics are
  bit-identical.
* :mod:`repro.check.conserve` — a byte-conservation ledger over the
  striped data path.

Run the static passes from the command line::

    python -m repro check [paths ...] [--rules ids-or-groups] [--json]

which exits non-zero when any violation is found.  Individual findings
can be suppressed with a ``# repro: allow[rule-id]`` comment on the
offending line (or the line above); see docs/CHECKING.md.
"""

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .aliasing import AliasRule, analyze_aliasing
from .effects import (
    ALLOWED_GLOBAL_WRITES,
    EFFECT_RULES,
    EffectStats,
    analyze_effects,
)
from .findings import Finding, Severity
from .lint import RULE_GROUPS, LintEngine, Rule, iter_python_files
from .perturb import (
    PerturbationReport,
    ScheduleRaceError,
    ScheduleTrace,
    assert_schedule_invariant,
    run_perturbed,
)
from .protocol import PROTOCOL_RULES, check_protocol
from .races import LockOrderRule, YieldRmwRule
from .report import render_json, render_text
from .rules import (
    ImplicitSeedRule,
    MutableDefaultRule,
    RawRandomRule,
    RecvUnguardedRule,
    RetransmitUnboundedRule,
    SaltedHashRule,
    SetIterationRule,
    TimeoutUnitRule,
    UnseededRngRule,
    WallClockRule,
)
from .units import UnitRule
from .conserve import ConservationError, ConservationLedger, conserve
from .sanitize import (
    AliasSanitizer,
    AmbientReadError,
    GuardedView,
    HermeticityError,
    HermeticitySanitizer,
    MonotonicityError,
    ResourceLeakError,
    SanitizerError,
    StaleViewError,
    UseAfterRecycleError,
    alias_sanitize,
    hermetic_sanitize,
    sanitize,
)

__all__ = [
    "Finding",
    "Severity",
    "Rule",
    "LintEngine",
    "iter_python_files",
    "LINT_PASSES",
    "RULES",
    "CheckRun",
    "run_check",
    "analyze_aliasing",
    "ALLOWED_GLOBAL_WRITES",
    "EffectStats",
    "analyze_effects",
    "ConservationError",
    "ConservationLedger",
    "conserve",
    "check_protocol",
    "render_text",
    "render_json",
    "sanitize",
    "alias_sanitize",
    "AliasSanitizer",
    "hermetic_sanitize",
    "HermeticitySanitizer",
    "AmbientReadError",
    "HermeticityError",
    "GuardedView",
    "SanitizerError",
    "MonotonicityError",
    "ResourceLeakError",
    "StaleViewError",
    "UseAfterRecycleError",
    "ScheduleTrace",
    "PerturbationReport",
    "ScheduleRaceError",
    "run_perturbed",
    "assert_schedule_invariant",
]


#: The per-file rules of each lint pass, in report order; one
#: :class:`LintEngine` walk runs them all, parsing each file once.
LINT_PASSES: dict[str, tuple[type[Rule], ...]] = {
    "determinism": (RawRandomRule, UnseededRngRule, WallClockRule,
                    MutableDefaultRule, SetIterationRule, SaltedHashRule,
                    ImplicitSeedRule, RecvUnguardedRule,
                    RetransmitUnboundedRule, TimeoutUnitRule),
    "races": (YieldRmwRule, LockOrderRule),
    "units": (UnitRule,),
    "aliasing": (AliasRule,),
}

#: The rule catalogue: every static pass in report order -> each rule id
#: it reports -> that rule's one-line summary.  ``repro check --rules``
#: and ``--list-rules`` read it.
RULES: dict[str, dict[str, str]] = {
    name: {rule_id: summary for rule in rules
           for rule_id, summary in rule.summaries.items()}
    for name, rules in LINT_PASSES.items()
} | {"protocol": PROTOCOL_RULES, "effects": EFFECT_RULES}


@dataclass
class CheckRun:
    """What one :func:`run_check` found, with the report's side tables."""

    findings: list[Finding]
    #: Python files walked.
    files: int
    #: per pass run: ``{"name", "seconds", "findings"}``, in report order.
    passes: list[dict]
    #: call-graph statistics, when the effects pass ran.
    effects: Optional[EffectStats]


def _selected_ids(names: Optional[Sequence[str]]) -> set[str]:
    """The rule ids ``names`` select (catalogue ids or allow groups);
    every catalogued id when ``names`` is None."""
    known = {rule_id for rules in RULES.values() for rule_id in rules}
    if names is None:
        return known
    chosen = set()
    for name in names:
        if name in RULE_GROUPS:
            chosen.update(rule_id for rule_id in known
                          if rule_id.startswith(RULE_GROUPS[name]))
        elif name in known:
            chosen.add(name)
        else:
            raise ValueError(
                f"unknown rule {name!r}; known rules: "
                f"{', '.join(sorted(known))}; groups: "
                f"{', '.join(RULE_GROUPS)}")
    return chosen


def run_check(paths: Optional[Sequence] = None,
              rules: Optional[Sequence[str]] = None) -> CheckRun:
    """Run every static pass over ``paths`` in one walk.

    ``paths`` (files or directories) default to the installed ``repro``
    package, so ``run_check()`` audits this very code base.  ``rules``
    names rule ids or allow groups (``units``, ``aliasing``,
    ``effects``) to report; a pass none of whose rules is selected does
    not run.  Every selection reports each unparseable file once, as
    ``syntax-error``.  Raises ValueError on an unknown rule or a missing
    path.
    """
    roots = ([Path(path) for path in paths] if paths
             else [Path(__file__).resolve().parent.parent])
    for root in roots:
        if not root.exists():
            raise ValueError(f"no such path: {root}")
    selected = _selected_ids(rules)

    lint = {name: [rule() for rule in classes
                   if selected & rule.summaries.keys()]
            for name, classes in LINT_PASSES.items()}
    engine = LintEngine([rule for chosen in lint.values() for rule in chosen])
    findings: list[Finding] = []
    files = 0
    for root in roots:
        for path in iter_python_files(root):
            findings.extend(engine.check_file(path))
            files += 1
    seconds = {name: sum(engine.seconds[rule] for rule in chosen)
               for name, chosen in lint.items() if chosen}

    def timed(name, run):
        start = time.perf_counter()  # repro: allow[wall-clock]
        result = run()
        seconds[name] = time.perf_counter() - start  # repro: allow[wall-clock]
        return result

    if selected & PROTOCOL_RULES.keys():
        findings.extend(timed("protocol", lambda: [
            finding for root in roots for finding in check_protocol(root)]))
    effects = None
    if selected & EFFECT_RULES.keys():
        found, effects = timed("effects", lambda: analyze_effects(roots))
        findings.extend(found)

    findings = [finding for finding in findings
                if finding.rule_id in selected
                or finding.rule_id == "syntax-error"]
    findings.sort(key=lambda f: (str(f.path), f.line, f.rule_id))
    passes = [{"name": name, "seconds": round(seconds[name], 3),
               "findings": sum(f.rule_id in RULES[name] for f in findings)}
              for name in RULES if name in seconds]
    return CheckRun(findings, files, passes, effects)
