"""Dynamic happens-before race detection for DES runs.

A discrete-event run is sequential, so "race" here means *schedule
sensitivity*: two conflicting accesses to one shared object that are

* at the **same simulated time** — only same-timestamp ties can be
  reordered by the calendar's tie-break (earlier-time events always run
  first, whatever the tie-break does), and
* **unordered by happens-before** — neither access's process segment is
  a causal ancestor of the other's, so the tie-break really could run
  them in either order.

Such a pair is exactly what the schedule-perturbation harness
(:mod:`repro.check.perturb`) would flip — this detector finds it in a
single run and reports both stack traces.

The happens-before relation is tracked with per-process vector clocks
fed by the engine's monitor hooks:

* **scheduling** stamps every event with the logical clock of the
  segment that scheduled it (``env.observe("schedule", ...)``);
* **stepping** joins a popped event's clock into every process it
  resumes, and into anything scheduled from its callbacks
  (``env.observe("step", ...)``);
* **resources** add a release→acquire edge so serialized holders are
  ordered (``env.observe("resource", ...)``).

Accesses come from the engine's access instrumentation (``Resource``
queue mutations, ``Store`` puts/gets/purges) and from any stats
accumulator handed to :meth:`RaceDetector.watch`.

Usage::

    from repro.check import detect_races

    with detect_races(model.env, watch=[model.stats]) as detector:
        model.run()
    assert not detector.races, detector.format_races()
"""

from __future__ import annotations

import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from ..des.callback import CallbackProcess
from ..des.process import Process

#: What counts as "a process" for segment bookkeeping: generator
#: processes and callback-mode state machines both own vector-clock
#: entries — a bound state method's ``__self__`` identifies its machine
#: exactly as a generator resume callback identifies its Process.
_PROCESS_TYPES = (Process, CallbackProcess)

if TYPE_CHECKING:  # pragma: no cover
    from ..des.engine import Environment

__all__ = ["RaceDetector", "RaceReport", "AccessRecord", "RaceError",
           "detect_races"]

#: Vector clocks are plain dicts: pid -> segment counter.
_Clock = dict

#: A happens-before stamp: a tuple of ``(clock, pid, count)`` triples.
#:
#: Stamping is O(1): instead of copying the live clock dict for every
#: scheduled event and recorded access (the dominant cost of running
#: under the detector), a stamp *references* the stamping process's
#: live clock and carries the stamp-time value of that process's own
#: entry as an override.  Copy-on-write discipline makes the reference
#: sound: a live clock is never joined into in place (cross-segment
#: resumes replace it with a fresh merged dict), so the only entry that
#: can move after stamping is the owner's segment counter — exactly the
#: one the override pins.  The effective vector of a stamp is the
#: pointwise max over its triples; almost every stamp has one triple
#: (a release→acquire edge appends the stored release stamp).
_Stamp = tuple

#: Pseudo-pid for the root segment (model setup, before the first step).
_ROOT_PID = 0


def _effective_get(stamp: _Stamp, pid: int) -> int:
    """``pid``'s entry in the effective vector of ``stamp``."""
    best = 0
    for clock, own_pid, count in stamp:
        value = count if pid == own_pid else clock.get(pid, 0)
        if value > best:
            best = value
    return best


def _happens_before(earlier: _Stamp, later: _Stamp) -> bool:
    """True when ``earlier`` ≤ ``later`` componentwise (causally ordered)."""
    for clock, own_pid, count in earlier:
        for pid, value in clock.items():
            if pid == own_pid:
                value = count
            if value and _effective_get(later, pid) < value:
                return False
        if count and own_pid not in clock \
                and _effective_get(later, own_pid) < count:
            return False
    return True


class RaceError(AssertionError):
    """Raised by :meth:`RaceDetector.assert_clean` when races were found."""


@dataclass(frozen=True)
class AccessRecord:
    """One instrumented access to a shared object."""

    owner: str
    label: str
    is_write: bool
    clock: _Stamp
    stack: str

    def describe(self) -> str:
        kind = "write" if self.is_write else "read"
        text = f"{kind} by {self.owner}"
        if self.stack:
            text += "\n" + self.stack
        return text


@dataclass(frozen=True)
class RaceReport:
    """Two conflicting, tie-break-reorderable accesses to one object."""

    time: float
    label: str
    obj_repr: str
    first: AccessRecord
    second: AccessRecord

    def format(self) -> str:
        return (
            f"race at t={self.time:.9f} on {self.obj_repr} ({self.label}): "
            "two accesses at the same timestamp with no happens-before "
            "order — the calendar tie-break decides which runs first\n"
            f"--- first {self.first.describe()}\n"
            f"--- second {self.second.describe()}")


class RaceDetector:
    """Vector-clock happens-before tracker attached to one environment."""

    #: Stop accumulating after this many reports (a racy model can
    #: conflict on every event; the first few localize the bug).
    MAX_RACES = 64

    #: Same-object operation pairs that commute: either order produces
    #: the identical final state, so a tie-break flip is invisible and
    #: reporting it would be a false alarm.  An enqueue and a release on
    #: one Resource commute (the enqueuer takes its ticket and the freed
    #: server goes to the head waiter either way); two releases each free
    #: their own slot; a Store put and get pair up the same item whether
    #: the item or the taker arrives first.  What does NOT commute —
    #: and stays a conflict — is enqueue/enqueue (ticket order decides
    #: FIFO grant order), put/put and get/get (buffer order), and purge
    #: against anything.
    COMMUTING = frozenset([
        frozenset(["Resource.request", "Resource.release"]),
        frozenset(["Resource.release"]),
        frozenset(["Store.put", "Store.get"]),
    ])

    def __init__(self, env: "Environment", include_stacks: bool = True,
                 stack_depth: int = 8):
        self.env = env
        self.include_stacks = include_stacks
        self.stack_depth = stack_depth
        #: Confirmed schedule-sensitivity reports, in detection order.
        self.races: list[RaceReport] = []
        self._pids: dict[int, int] = {}
        self._owner_labels: dict[int, str] = {}
        #: COMMUTING flattened to ordered pairs, so the hot comparison
        #: loop does one tuple lookup instead of building a frozenset.
        self._commuting: set[tuple] = set()
        for pair in self.COMMUTING:
            members = tuple(pair)
            if len(members) == 1:
                self._commuting.add((members[0], members[0]))
            else:
                first, second = members
                self._commuting.add((first, second))
                self._commuting.add((second, first))
        self._pid_refs: list = []          # keeps id() keys unique
        self._next_pid = _ROOT_PID
        self._clocks: dict[int, _Clock] = {_ROOT_PID: {_ROOT_PID: 1}}
        self._root_stamp: _Stamp = ((self._clocks[_ROOT_PID], _ROOT_PID, 1),)
        #: Causal context for callback-phase scheduling (the stamp of the
        #: event currently being processed).
        self._current: _Stamp = self._root_stamp
        #: (request, clock) captured at grant time, merged into the grant
        #: event when it is scheduled a moment later.
        self._pending_acquire: Optional[tuple] = None
        #: id(obj) -> (timestamp, [AccessRecord...]) for the current time.
        self._history: dict[int, tuple] = {}
        self._watched: list[tuple] = []    # (obj, previous observer)
        self._obj_refs: list = []          # keeps history id() keys unique
        self._installed = False

    # -- lifecycle ----------------------------------------------------------

    def install(self) -> None:
        """Attach to the environment's monitor hooks."""
        if self._installed:  # pragma: no cover - defensive
            return
        self.env.observe("schedule", self._on_schedule)
        self.env.observe("step", self._on_step)
        self.env.observe("resource", self._on_resource)
        self.env.observe("access", self._on_access)
        self._installed = True

    def uninstall(self) -> None:
        """Detach every hook and restore watched observers."""
        if not self._installed:  # pragma: no cover - defensive
            return
        self.env.unobserve("schedule", self._on_schedule)
        self.env.unobserve("step", self._on_step)
        self.env.unobserve("resource", self._on_resource)
        self.env.unobserve("access", self._on_access)
        for obj, previous in self._watched:
            obj.observer = previous
        self._watched.clear()
        self._installed = False

    def watch(self, obj, label: Optional[str] = None) -> None:
        """Track accesses to a stats accumulator (anything exposing the
        ``observer`` hook of :class:`~repro.des.stats.OnlineStats`)."""
        if not hasattr(obj, "observer"):
            raise TypeError(
                f"{obj!r} has no observer hook; watch() takes stats "
                "accumulators (OnlineStats)")
        name = label or type(obj).__name__
        previous = obj.observer

        def hook(instance, _name=name, _previous=previous):
            if _previous is not None:
                _previous(instance)
            self._on_access(instance, _name, True)

        obj.observer = hook
        self._watched.append((obj, previous))

    def assert_clean(self) -> None:
        """Raise :class:`RaceError` listing every detected race."""
        if self.races:
            raise RaceError(self.format_races())

    def format_races(self) -> str:
        """All reports as one human-readable block."""
        count = len(self.races)
        header = (f"{count} schedule-sensitive access pair(s) detected"
                  + (" (truncated)" if count >= self.MAX_RACES else ""))
        return "\n\n".join([header] + [r.format() for r in self.races])

    # -- clock plumbing -----------------------------------------------------

    def _pid(self, process) -> int:
        key = id(process)
        pid = self._pids.get(key)
        if pid is None:
            self._next_pid += 1
            pid = self._next_pid
            self._pids[key] = pid
            self._pid_refs.append(process)
        return pid

    def _segment_context(self) -> _Stamp:
        """The stamp of whatever is executing right now — O(1).

        Process segments stamp a reference to their live clock plus the
        current value of their own entry (the only one that can advance
        before the stamp is read); the callback phase re-stamps the
        popped event's own stamp, which is already frozen.
        """
        process = self.env.active_process
        if process is None:
            return self._current
        pid = self._pid(process)
        own = self._clocks.get(pid)
        if own is None:  # pragma: no cover - defensive (resume seeds it)
            own = self._clocks[pid] = {pid: 1}
        return ((own, pid, own[pid]),)

    @staticmethod
    def _merged(stamp: _Stamp) -> _Clock:
        """The effective vector of ``stamp`` as a fresh dict."""
        clock, own_pid, count = stamp[0]
        merged = dict(clock)
        if count:
            merged[own_pid] = count
        for clock, own_pid, count in stamp[1:]:
            for other, value in clock.items():
                if other == own_pid:
                    value = count
                if merged.get(other, 0) < value:
                    merged[other] = value
            if count and merged.get(own_pid, 0) < count:
                merged[own_pid] = count
        return merged

    def _on_schedule(self, event, active_process) -> None:
        stamp = self._segment_context()
        pending = self._pending_acquire
        if pending is not None and pending[0] is event:
            # The grant event carries the releaser's stamp too, so the
            # next holder is ordered after the previous one.
            stamp = stamp + pending[1]
            self._pending_acquire = None
        event._hb_clock = stamp

    def _on_step(self, when, event) -> None:
        stamp = getattr(event, "_hb_clock", None)
        if stamp is None:
            stamp = self._root_stamp
        self._current = stamp
        for callback in (event.callbacks or ()):
            process = getattr(callback, "__self__", None)
            if isinstance(process, _PROCESS_TYPES):
                pid = self._pid(process)
                own = self._clocks.get(pid)
                if own is None:
                    # First resume: the pid is fresh, so no clock can
                    # mention it yet — inherit the effective vector.
                    own = self._merged(stamp)
                    own[pid] = 1
                    self._clocks[pid] = own
                elif all(clock is own for clock, _p, _c in stamp):
                    # The waking event was stamped by this process
                    # itself (it scheduled its own wake-up, the common
                    # case): a self-join is a no-op, so only the
                    # segment counter moves.
                    own[pid] += 1
                else:
                    # Cross-segment join.  The current dict may be
                    # referenced by earlier stamps, so mutate a copy —
                    # this is what keeps stamped clocks frozen.
                    joined = dict(own)
                    for clock, own_pid, count in stamp:
                        if clock is own:
                            continue
                        for other, value in clock.items():
                            if other == own_pid:
                                value = count
                            if joined.get(other, 0) < value:
                                joined[other] = value
                        if count and joined.get(own_pid, 0) < count:
                            joined[own_pid] = count
                    joined[pid] = joined.get(pid, 0) + 1  # new segment
                    self._clocks[pid] = joined

    def _on_resource(self, action: str, resource, request) -> None:
        if action == "release":
            resource._hb_release = self._segment_context()
        elif action == "acquire":
            stored = getattr(resource, "_hb_release", None)
            if stored is not None:
                self._pending_acquire = (request, stored)

    # -- conflict detection -------------------------------------------------

    def _on_access(self, obj, label: str, is_write: bool) -> None:
        when = self.env.now
        snapshot = self._segment_context()
        # Records are plain tuples on the hot path; the AccessRecord
        # dataclasses the reports expose are only materialized for the
        # (rare) confirmed races.
        record = (label, is_write, snapshot,
                  self._owner_label(),
                  self._stack() if self.include_stacks else "")
        key = id(obj)
        entry = self._history.get(key)
        if entry is None or entry[0] != when:
            self._obj_refs.append(obj)
            records: list[tuple] = []
            self._history[key] = (when, records)
        else:
            records = entry[1]
        if len(self.races) < self.MAX_RACES:
            commuting = self._commuting
            for previous in records:
                prev_label, prev_write, prev_clock = previous[:3]
                if not (prev_write or is_write):
                    continue
                if (prev_label, label) in commuting:
                    continue
                if prev_clock == snapshot:  # same segment: ordered
                    continue
                if _happens_before(prev_clock, snapshot):
                    continue
                if _happens_before(snapshot, prev_clock):
                    continue
                self.races.append(RaceReport(
                    time=when, label=label, obj_repr=repr(obj),
                    first=self._materialize(previous),
                    second=self._materialize(record)))
                if len(self.races) >= self.MAX_RACES:
                    break
        records.append(record)

    @staticmethod
    def _materialize(record: tuple) -> AccessRecord:
        label, is_write, clock, owner, stack = record
        return AccessRecord(owner=owner, label=label, is_write=is_write,
                            clock=clock, stack=stack)

    def _owner_label(self) -> str:
        process = self.env.active_process
        if process is not None:
            # repr(Process) formats the generator's qualname — cache it
            # per pid rather than paying it on every recorded access.
            pid = self._pid(process)
            label = self._owner_labels.get(pid)
            if label is None:
                label = self._owner_labels[pid] = repr(process)
            return label
        return "<callback phase>"

    def _stack(self) -> str:
        # Capture only the frames that can survive the trim below (the
        # detector's own tail frames plus the reported depth) — walking
        # and summarizing the whole stack per access dominates otherwise.
        frames = traceback.extract_stack(limit=self.stack_depth + 4)
        # Drop this module's own frames from the tail.
        while frames and frames[-1].filename == __file__:
            frames.pop()
        tail = frames[-self.stack_depth:]
        return "".join(traceback.format_list(tail)).rstrip()


@contextmanager
def detect_races(env: "Environment", watch: Iterable = (),
                 include_stacks: bool = True):
    """Run a DES block under the happens-before race detector.

    ``watch`` is an iterable of stats accumulators to instrument on top
    of the always-on ``Resource``/``Store`` access hooks.  The detector
    does not raise by itself; inspect ``detector.races`` or call
    ``detector.assert_clean()`` after the block.
    """
    detector = RaceDetector(env, include_stacks=include_stacks)
    for obj in watch:
        detector.watch(obj)
    detector.install()
    try:
        yield detector
    finally:
        detector.uninstall()
