"""The §5 discrete-event model: Swift on a gigabit token ring.

§5.1, verbatim mechanics:

* **read** — "a small request packet is multicast to the storage agents.
  The client then waits for the data to be transmitted by the storage
  agents."  Each agent holds its disk for its share of the blocks
  (multiblock requests complete before the resource is relinquished); "once
  a block has been read from disk it is scheduled for transmission over the
  network."
* **write** — "transmits the data to each of the storage agents.  Once the
  blocks have been transmitted the client awaits an acknowledgement from
  the storage agents that the data have been written to disk."
* per-packet cost: "1,500 instructions plus one instruction per byte in
  the packet" on 100-MIPS hosts; transmitting takes protocol processing,
  token acquisition, and transmission time;
* no caching, no parity computation, no resource preallocation, no storage
  mediator — exactly the stated simplifications.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..des import CallbackProcess, Environment, OnlineStats, StreamFactory
from ..simdisk import Disk
from ..simnet import Host, TokenRing, mips_cost_model
from .workload import SimConfig

__all__ = ["SwiftSimModel", "SimResult"]

#: Wire size of a request / acknowledgement packet.
CONTROL_PACKET_SIZE_BYTES = 64


@dataclass(frozen=True)
class SimResult:
    """What one simulation run produced."""

    config: SimConfig
    completed: int
    mean_completion_s: float
    stdev_completion_s: float
    max_completion_s: float
    duration_s: float
    mean_interarrival_s: float
    client_data_rate: float      # bytes/second observed by the clients
    mean_disk_utilization: float
    ring_utilization: float
    deadline_misses: int = 0
    deadline_total: int = 0
    p99_completion_s: float = 0.0

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of measured requests that blew their deadline."""
        if not self.deadline_total:
            return 0.0
        return self.deadline_misses / self.deadline_total

    @property
    def sustainable(self) -> bool:
        """The paper's criterion: completion time <= interarrival time."""
        return self.mean_completion_s <= self.mean_interarrival_s


class SwiftSimModel:
    """One simulation run of the token-ring Swift.

    ``storage_factory(env, index, streams)`` may supply any Disk-duck-typed
    storage device per agent — e.g. :class:`repro.simdisk.raid.RaidArray`
    for the §6 "collection of Raids" configuration.  The default is the
    configured plain disk.

    Requests run as the :class:`~repro.des.callback.CallbackProcess`
    state machines defined after this class; they hold the disks as
    Resources and serve the host CPUs and the ring's cable, which are
    analytic FIFO servers (:class:`~repro.des.resources.FifoServer`).
    """

    def __init__(self, config: SimConfig, storage_factory=None,
                 trace=None):
        self.config = config
        self.env = Environment(tie_break_seed=config.tie_break_seed)
        self.streams = StreamFactory(config.seed)
        cost = mips_cost_model(config.host_mips)
        self.ring = TokenRing(self.env, "ring",
                              bits_per_second=config.ring_bits_per_second)
        self.clients = [
            Host(self.env, f"client{i}", send_cost=cost, recv_cost=cost)
            for i in range(config.num_clients)
        ]
        self.trace = list(trace) if trace is not None else None
        if storage_factory is None:
            def storage_factory(env, index, streams):
                return Disk(env, config.disk,
                            stream=streams.stream(f"disk/{index}"))
        self.agents: list[tuple[Host, Disk]] = []
        for index in range(config.num_disks):
            host = Host(self.env, f"agent{index}",
                        send_cost=cost, recv_cost=cost)
            disk = storage_factory(self.env, index, self.streams)
            self.agents.append((host, disk))
        # Requests serve each host's CPU and the ring's cable (bound here
        # for the hot path); every host shares one cost model, so four
        # service times cover every hold.
        self._cable = self.ring.cable
        unit = config.transfer_unit
        self._cpu_control_s = cost.time(CONTROL_PACKET_SIZE_BYTES)
        self._cpu_unit_s = cost.time(unit)
        self._ring_control_s = self.ring.transmission_time(
            CONTROL_PACKET_SIZE_BYTES)
        self._ring_unit_s = self.ring.transmission_time(unit)
        self._arrivals = self.streams.stream("arrivals")
        self._mix = self.streams.stream("read-write-mix")
        self._class_mix = self.streams.stream("deadline-class")
        self._completions = OnlineStats()
        self._completed = 0
        self._started = 0
        self._bytes_delivered = 0
        self._next_start_agent = 0
        self._window_start: float | None = None
        self._window_end = 0.0
        self._deadline_misses = 0
        self._deadline_total = 0
        self._completion_samples: list[float] = []

    # -- running ---------------------------------------------------------------

    def run(self) -> SimResult:
        """Generate, serve and measure the configured number of requests."""
        config = self.config
        done = self.env.event()
        self.env.process(self._generator(done))
        # Guard against saturated configurations that would never finish:
        # cap the horizon at several times the nominal span.
        nominal_span = config.num_requests / config.arrival_rate
        self.env.run(until=self._first_of(done, nominal_span * 8.0))
        duration = self.env.now
        completed = self._completions.count
        mean = self._completions.mean if completed else float("inf")
        stdev = self._completions.stdev if completed > 1 else 0.0
        maximum = self._completions.maximum if completed else float("inf")
        disk_utils = [disk.utilization() for _, disk in self.agents]
        return SimResult(
            config=config,
            completed=completed,
            mean_completion_s=mean,
            stdev_completion_s=stdev,
            max_completion_s=maximum,
            duration_s=duration,
            mean_interarrival_s=1.0 / config.arrival_rate,
            client_data_rate=self._measured_data_rate(),
            mean_disk_utilization=sum(disk_utils) / len(disk_utils),
            ring_utilization=self.ring.utilization(),
            deadline_misses=self._deadline_misses,
            deadline_total=self._deadline_total,
            p99_completion_s=self._percentile(0.99),
        )

    def _percentile(self, fraction: float) -> float:
        """Completion-time percentile over the measured samples."""
        if not self._completion_samples:
            return float("inf")
        ordered = sorted(self._completion_samples)
        index = min(len(ordered) - 1,
                    max(0, int(fraction * len(ordered)) - 1))
        return ordered[index]

    def _measured_data_rate(self) -> float:
        """Bytes/second over the measured window (warmup excluded)."""
        if self._window_start is None:
            return 0.0
        window = self._window_end - self._window_start
        if window <= 0:
            return 0.0
        return self._bytes_delivered / window

    def _first_of(self, event, horizon_s: float):
        guard = self.env.timeout(horizon_s)
        return self.env.any_of([event, guard])

    # -- workload ---------------------------------------------------------------

    def _generator(self, done):
        config = self.config
        target = config.num_requests + config.warmup_requests
        if self.trace is not None:
            # Trace replay (§6.1.1 variable loads): arrival times and the
            # read/write mix come from the records.
            for record in self.trace[:target]:
                delay = record.time_s - self.env.now
                if delay > 0:
                    yield self.env.timeout(delay)
                client = self.clients[self._started % len(self.clients)]
                self.env.process(
                    self._request(client, record.is_read, done))
                self._started += 1
            return
        while self._started < target:
            yield self.env.timeout(
                self._arrivals.exponential(1.0 / config.arrival_rate))
            client = self.clients[self._started % len(self.clients)]
            is_read = self._mix.uniform(0.0, 1.0) < config.read_fraction
            self.env.process(self._request(client, is_read, done))
            self._started += 1
        # 'done' fires from the completion side; keep the generator alive
        # so the run() horizon guard decides when to stop if saturated.

    def _request(self, client: Host, is_read: bool, done):
        config = self.config
        arrived = self.env.now
        is_realtime = (config.deadline_s is not None and
                       self._class_mix.uniform(0.0, 1.0)
                       < config.realtime_fraction)
        priority = self._disk_priority(arrived, is_realtime)
        start_agent = self._next_start_agent
        self._next_start_agent = (start_agent + 1) % config.num_disks
        shares = config.blocks_per_agent(start_agent)
        # The op starts immediately: its first CPU hold is served in this
        # very dispatch, queueing in arrival order.
        if is_read:
            yield _ReadOp(self.env, self, client.cpu, shares, priority)
        else:
            yield _WriteOp(self.env, self, client.cpu, shares, priority)
        self._completed += 1
        if self._completed > config.warmup_requests:
            if self._window_start is None:
                self._window_start = arrived
            self._window_end = self.env.now
            self._completions.add(self.env.now - arrived)
            self._completion_samples.append(self.env.now - arrived)
            self._bytes_delivered += config.request_size
            if is_realtime:
                self._deadline_total += 1
                if self.env.now - arrived > config.deadline_s:
                    self._deadline_misses += 1
        if (self._completions.count >= config.num_requests
                and not done.triggered):
            done.succeed()

    def _disk_priority(self, arrived: float, is_realtime: bool) -> float:
        """Disk queue priority for a request that arrived at ``arrived``.

        FIFO keeps the §5 model (ties broken by queue order); EDF orders
        by absolute deadline — tight for the real-time class, loose for
        background traffic — the §6.1.2 real-time extension.
        """
        config = self.config
        if config.disk_scheduling != "edf" or config.deadline_s is None:
            return 0.0
        deadline = config.deadline_s
        if not is_realtime:
            deadline *= config.background_deadline_factor
        return arrived + deadline


# -- request state machines ---------------------------------------------------
#
# A client's read or write and each agent's share of it run as
# CallbackProcess state machines; every CPU and ring stage is one
# FifoServer.serve and one absolute timer (wait_at) at its end.  A read
# block's trip back (agent CPU, ring, client CPU) rides on its agent's
# share as two call_at timers.  The client-CPU receive that ends a
# block or an acknowledgement has no next stage, so it gets no event:
# the client CPU is FIFO, so the op's last such receive ends last, and
# the op completes at that end.  Disk holds stay Resource holds (EDF
# priorities, grant-time service draws), with the write path's disk
# chain landing as one completion when the engine permits.  None of this
# moves a result: tests/sim/test_process_modes.py compares every
# SimResult field with the generator reference in
# tests/sim/reference_model.py.


class _ReadOp(CallbackProcess):
    """A client read: multicast the request, then receive every block."""

    __slots__ = ("model", "cpu", "shares", "priority", "_blocks")

    def __init__(self, env, model, cpu, shares, priority):
        self.model = model
        self.cpu = cpu
        self.shares = shares
        self.priority = priority
        self._blocks = sum(shares)
        super().__init__(env)

    def _start(self, value):
        end = self.cpu.serve(self.env._now, self.model._cpu_control_s)
        self.wait_at(end, self._multicast)

    def _multicast(self, value):
        model = self.model
        end = model._cable.serve(self.env._now, model._ring_control_s)
        self.wait_at(end, self._fan_out)

    def _fan_out(self, value):
        env = self.env
        model = self.model
        model._cable.done(env._now)
        for index, blocks in enumerate(self.shares):
            if blocks:
                _AgentRead(env, model, index, blocks, self)

    def receive(self, now):
        """A block came off the ring at ``now``: the client CPU takes it."""
        end = self.cpu.serve(now, self.model._cpu_unit_s)
        self._blocks -= 1
        if not self._blocks:
            self.wait_at(end, self._served)

    def _served(self, value):
        self._finish()


class _AgentRead(CallbackProcess):
    """One agent's read share: read its blocks, sending each as it is read."""

    __slots__ = ("model", "op", "cpu", "blocks", "_disk", "_grant", "_left",
                 "_unit")

    def __init__(self, env, model, index, blocks, op):
        self.model = model
        self.op = op
        self.cpu = model.agents[index][0].cpu
        self.blocks = blocks
        self._disk = model.agents[index][1]
        self._unit = model.config.transfer_unit
        super().__init__(env)

    def _start(self, value):
        end = self.cpu.serve(self.env._now, self.model._cpu_control_s)
        self.wait_at(end, self._request_disk)

    def _request_disk(self, value):
        resource = self._disk.resource
        if resource.try_acquire():
            self._grant = None
            self._granted(None)
        else:
            self._grant = grant = resource.request(self.op.priority)
            self.wait(grant, self._granted)

    def _granted(self, value):
        disk = self._disk
        disk.monitor.busy(self.env._now)
        self._left = self.blocks
        # Reads never coalesce: each block completion spawns a network
        # transmission at its own intermediate timestamp.
        self.wait_timeout(
            disk.block_service_time(self._unit),
            self._block_done)

    def _block_done(self, value):
        env = self.env
        disk = self._disk
        unit = self._unit
        disk.blocks_served += 1
        disk.bytes_served += unit
        # "Once a block has been read from disk it is scheduled for
        # transmission over the network."
        end = self.cpu.serve(env._now, self.model._cpu_unit_s)
        env.call_at(end, self._on_ring)
        self._left -= 1
        if self._left:
            self.wait_timeout(disk.block_service_time(unit),
                              self._block_done)
            return
        if disk.resource.queue_length == 0:
            disk.monitor.idle(env._now)
        if self._grant is None:
            disk.resource.release_slot()
        else:
            disk.resource.release_quiet(self._grant)
            self._grant = None
        self._finish()

    def _on_ring(self, _timeout):
        env = self.env
        model = self.model
        end = model._cable.serve(env._now, model._ring_unit_s)
        env.call_at(end, self._delivered)

    def _delivered(self, _timeout):
        now = self.env._now
        self.model._cable.done(now)
        self.op.receive(now)


class _WriteOp(CallbackProcess):
    """A client write: send each agent its blocks in turn, then await acks."""

    __slots__ = ("model", "cpu", "priority", "_pairs", "_pos",
                 "_blocks_left", "_acks")

    def __init__(self, env, model, cpu, shares, priority):
        self.model = model
        self.cpu = cpu
        self.priority = priority
        self._pairs = [(index, blocks)
                       for index, blocks in enumerate(shares) if blocks]
        self._pos = 0
        self._acks = len(self._pairs)
        super().__init__(env)

    def _start(self, value):
        self._next_agent()

    def _next_agent(self):
        # After the last agent's blocks, "once the blocks have been
        # transmitted the client awaits an acknowledgement from the
        # storage agents": acknowledge() counts the acks down and ends
        # the op at the last one's end.  The last agent starts only
        # here, so that end always falls after this point.
        if self._pos < len(self._pairs):
            self._blocks_left = self._pairs[self._pos][1]
            self._send_block(None)

    def _send_block(self, value):
        end = self.cpu.serve(self.env._now, self.model._cpu_unit_s)
        self.wait_at(end, self._block_on_ring)

    def _block_on_ring(self, value):
        model = self.model
        end = model._cable.serve(self.env._now, model._ring_unit_s)
        self.wait_at(end, self._block_sent)

    def _block_sent(self, value):
        env = self.env
        self.model._cable.done(env._now)
        self._blocks_left -= 1
        if self._blocks_left:
            self._send_block(None)
            return
        index, blocks = self._pairs[self._pos]
        _AgentWrite(env, self.model, index, blocks, self)
        self._pos += 1
        self._next_agent()

    def acknowledge(self, now):
        """An ack came off the ring at ``now``: the client CPU takes it."""
        end = self.cpu.serve(now, self.model._cpu_control_s)
        self._acks -= 1
        if not self._acks:
            self.wait_at(end, self._acknowledged)

    def _acknowledged(self, value):
        self._finish()


class _AgentWrite(CallbackProcess):
    """One agent's write share: receive, write under one disk hold, ack.

    The disk chain here is the model's span-coalescing site: B blocks
    hit the platter back to back under one spindle hold with no
    intervening choice, so the B service times are pre-drawn in
    reference stream order — legal because this process holds the
    spindle, and per-disk streams are drawn only by the spindle holder
    — accumulated with the exact float additions the expanded chain
    would perform, and landed as one
    :meth:`~repro.des.callback.CallbackProcess.wait_at` completion
    instead of B calendar entries, monitored or not.
    """

    __slots__ = ("model", "op", "cpu", "blocks", "_disk", "_grant", "_left",
                 "_unit")

    def __init__(self, env, model, index, blocks, op):
        self.model = model
        self.op = op
        self.cpu = model.agents[index][0].cpu
        self.blocks = blocks
        self._disk = model.agents[index][1]
        self._unit = model.config.transfer_unit
        super().__init__(env)

    def _start(self, value):
        self._left = self.blocks
        self._recv_block(None)

    def _recv_block(self, value):
        end = self.cpu.serve(self.env._now, self.model._cpu_unit_s)
        self.wait_at(end, self._block_received)

    def _block_received(self, value):
        self._left -= 1
        if self._left:
            self._recv_block(None)
            return
        resource = self._disk.resource
        if resource.try_acquire():
            self._grant = None
            self._granted(None)
        else:
            self._grant = grant = resource.request(self.op.priority)
            self.wait(grant, self._granted)

    def _granted(self, value):
        env = self.env
        disk = self._disk
        unit = self._unit
        when = env._now
        disk.monitor.busy(when)
        for _ in range(self.blocks):
            when += disk.block_service_time(unit)
        self.wait_at(when, self._span_done)

    def _span_done(self, value):
        disk = self._disk
        disk.blocks_served += self.blocks
        disk.bytes_served += self.blocks * self._unit
        if disk.resource.queue_length == 0:
            disk.monitor.idle(self.env._now)
        if self._grant is None:
            disk.resource.release_slot()
        else:
            disk.resource.release_quiet(self._grant)
            self._grant = None
        # The acknowledgement.
        end = self.cpu.serve(self.env._now, self.model._cpu_control_s)
        self.wait_at(end, self._ack_on_ring)

    def _ack_on_ring(self, value):
        model = self.model
        end = model._cable.serve(self.env._now, model._ring_control_s)
        self.wait_at(end, self._ack_sent)

    def _ack_sent(self, value):
        now = self.env._now
        self.model._cable.done(now)
        self.op.acknowledge(now)
        self._finish()
