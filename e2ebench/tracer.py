"""Spans and counters recorded from outside the program.

:func:`install` wraps the public call at each layer boundary -- the
figure functions' ``find_max_sustainable``/``load_sweep`` bindings,
``ResultCache.get``, ``SwiftSimModel.__init__``/``run``,
``Environment.run`` and the testbeds' ``prepare_*``/``measure_*`` -- so
every call records a span: name, start, end, parent and cell id.  The
constructors of the classes that keep public counters are wrapped too;
whenever a span closes, every counter-holding object alive since the last
close is read and the increase is attached to that span.  Nothing inside
``src/`` changes.

Spans stay in memory and are appended to ``spans-<pid>.jsonl`` in the
trace directory whenever a process's outermost span closes.  A forked
pool worker drops what it inherited and writes its own file; a spawned
one installs the tracer through ``tracesite/sitecustomize.py``.  So runs
fanned out to workers reach the trace instead of vanishing.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
import weakref

ENV_VAR = "E2EBENCH_TRACE_DIR"
KB = 1 << 10

_installed = None


def _counter_readers() -> dict:
    """Class -> reader of its public counters (imports the program)."""
    from repro.core import DistributionAgent, StorageAgent
    from repro.des import Environment
    from repro.sim import ResultCache
    from repro.simdisk import BufferCache, Disk
    from repro.simnet import DatagramSocket, Interface

    def transfer(agent):
        stats = agent.stats
        return {"packets_sent": stats.packets_sent,
                "retransmits": stats.read_retransmits
                + stats.write_retransmits,
                "ack_timeouts": stats.ack_timeouts}

    return {
        # The event-id counter, read the way bench_process_modes.py does.
        Environment: lambda env: {"events": env._eid},
        Disk: lambda disk: {"blocks": disk.blocks_served},
        BufferCache: lambda cache: {
            "fs_cache_hits": cache.stats.hits,
            "fs_cache_lookups": cache.stats.hits + cache.stats.misses},
        Interface: lambda interface: {"drops": interface.tx_dropped},
        DatagramSocket: lambda socket: {"drops": socket.rx_dropped},
        DistributionAgent: transfer,
        StorageAgent: lambda agent: {"naks_sent": agent.stats.naks_sent},
        ResultCache: lambda cache: {
            "result_cache_hits": cache.hits,
            "result_cache_lookups": cache.hits + cache.misses},
    }


class Tracer:
    """Per-process span stack, closed-span buffer and counter ledger."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self._stack: list = []
        self._closed: list = []
        self._seq = 0
        # Objects built since the last close (held until read once), and
        # weak references to every object read before, with its values.
        self._fresh: list = []
        self._seen: dict = {}

    # -- spans ----------------------------------------------------------------

    def open(self, name: str, cell=None, default_cell=None) -> dict:
        """Push a span; its cell is ``cell``, else the parent's, else
        ``default_cell``."""
        parent = self._stack[-1] if self._stack else None
        if cell is None:
            cell = parent["cell"] if parent and parent["cell"] else \
                default_cell
        self._seq += 1
        span = {"id": self._seq, "parent": parent["id"] if parent else None,
                "name": name, "cell": cell, "attrs": {},
                "t0": time.perf_counter()}
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        """Pop ``span``, attach the counters' increase, flush at depth 0."""
        span["t1"] = time.perf_counter()
        span["counts"] = self._account()
        self._stack.pop()
        self._closed.append(span)
        if not self._stack:
            self._flush()

    @contextlib.contextmanager
    def span(self, name: str, cell=None):
        """Context-manager form of :meth:`open`/:meth:`close`."""
        record = self.open(name, cell)
        try:
            yield record
        finally:
            self.close(record)

    def _flush(self) -> None:
        pid = os.getpid()
        path = os.path.join(self.out_dir, f"spans-{pid}.jsonl")
        with open(path, "a") as handle:
            for span in self._closed:
                span["pid"] = pid
                handle.write(json.dumps(span) + "\n")
        self._closed.clear()

    # -- counters -------------------------------------------------------------

    def register(self, obj, reader) -> None:
        """Track a new counter-holding object."""
        self._fresh.append((obj, reader))

    def _account(self) -> dict:
        """Increase of every tracked counter since the last call.

        A counter that went down was reset by its owner; its new value
        is all increase.  Keys appear once any object carries them, so a
        layer with counters reads 0 rather than nothing.
        """
        counts: dict = {}

        def add(now: dict, last: dict) -> None:
            for key, value in now.items():
                before = last.get(key, 0)
                counts[key] = counts.get(key, 0) + (
                    value - before if value >= before else value)

        for key, (ref, reader, last) in list(self._seen.items()):
            obj = ref()
            if obj is None:
                del self._seen[key]
                continue
            now = reader(obj)
            add(now, last)
            self._seen[key] = (ref, reader, now)
        for obj, reader in self._fresh:
            now = reader(obj)
            add(now, {})
            self._seen[id(obj)] = (weakref.ref(obj), reader, now)
        self._fresh.clear()
        return counts


# -- wrapping -----------------------------------------------------------------

def _wrap_call(tracer: Tracer, owner, attr: str, name: str,
               cell_of=None, default_cell_of=None, describe=None) -> None:
    """Replace ``owner.attr`` by a version that records a span."""
    original = owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        span = tracer.open(
            name,
            cell=cell_of(args, kwargs) if cell_of else None,
            default_cell=default_cell_of(args, kwargs)
            if default_cell_of else None)
        try:
            result = original(*args, **kwargs)
            if describe is not None:
                span["attrs"].update(describe(args, result))
            return result
        finally:
            tracer.close(span)

    setattr(owner, attr, traced)


def _wrap_init(tracer: Tracer, cls, reader) -> None:
    """Register every new instance of ``cls`` with the counter ledger."""
    original = cls.__init__

    @functools.wraps(original)
    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        tracer.register(self, reader)

    cls.__init__ = init


def series_of(config) -> str:
    """'<disk>@<disks>', the figure cell a search's base config names."""
    return f"{config.disk.name}@{config.num_disks}"


def point_of(config) -> str:
    """'<disk>@<disks>/<unit>KB@<rate>', one load-sweep point."""
    return (f"{series_of(config)}/{config.transfer_unit // KB}KB"
            f"@{config.arrival_rate:g}")


def _config_arg(args, kwargs, position: int):
    return args[position] if len(args) > position else kwargs["config"]


def _search_cell(args, kwargs) -> str:
    return series_of(args[0] if args else kwargs["base"])


def _describe_run(args, result) -> dict:
    config = result.config
    return {"rate": config.arrival_rate, "sustainable": result.sustainable,
            "completed": result.completed,
            "horizon": result.completed < config.num_requests}


def _describe_cache_get(args, result) -> dict:
    if result is None:
        return {"hit": False}
    return {"hit": True, "rate": result.config.arrival_rate,
            "sustainable": result.sustainable}


def install(out_dir: str) -> Tracer:
    """Wrap the program's layer boundaries (once per process)."""
    global _installed
    if _installed is not None:
        return _installed
    import repro.sim.figures as figures
    import repro.sim.sweep as sweep
    from repro.baselines import LocalScsiBaseline, NfsBaseline
    from repro.des import Environment
    from repro.prototype import PrototypeTestbed
    from repro.sim import ResultCache, SwiftSimModel

    readers = _counter_readers()
    tracer = Tracer(out_dir)
    for cls, reader in readers.items():
        _wrap_init(tracer, cls, reader)

    # figures binds both names at import; parallel workers import
    # find_max_sustainable from sweep at call time.
    for module in (figures, sweep):
        _wrap_call(tracer, module, "find_max_sustainable", "sweep.search",
                   cell_of=_search_cell)
    _wrap_call(tracer, figures, "load_sweep", "sweep.load_sweep")
    _wrap_call(tracer, ResultCache, "get", "sweep.cache_get",
               describe=_describe_cache_get)
    _wrap_call(tracer, SwiftSimModel, "__init__", "model.build",
               default_cell_of=lambda args, kwargs: point_of(
                   _config_arg(args, kwargs, 1)))
    _wrap_call(tracer, SwiftSimModel, "run", "model.run",
               default_cell_of=lambda args, kwargs: point_of(args[0].config),
               describe=_describe_run)
    _wrap_call(tracer, Environment, "run", "des.run")
    for testbed in (PrototypeTestbed, LocalScsiBaseline, NfsBaseline):
        for attr, name in (("measure_read", "prototype.read"),
                           ("measure_write", "prototype.write")):
            _wrap_call(tracer, testbed, attr, name)
    _wrap_call(tracer, PrototypeTestbed, "prepare_object",
               "prototype.prepare")
    for baseline in (LocalScsiBaseline, NfsBaseline):
        _wrap_call(tracer, baseline, "prepare_file", "prototype.prepare")
    _installed = tracer
    return tracer


def read_spans(trace_dir: str) -> list:
    """Every span the processes of a traced run wrote, in file order."""
    spans = []
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(trace_dir, name)) as handle:
                spans.extend(json.loads(line) for line in handle if line)
    return spans
