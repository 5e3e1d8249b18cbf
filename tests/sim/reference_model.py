"""The §5 model's request path as generator processes: the test reference.

:class:`GeneratorModel` serves each request with straight-line ``yield``
code — one generator per client request, agent share and block
transmission, joined through ``AllOf`` events — instead of the
production :class:`~repro.sim.model.SwiftSimModel`'s callback state
machines (``_ReadOp`` … ``_AgentWrite``).  Both draw the same service
times in the same stream order and queue on every resource in the same
order, so every :class:`~repro.sim.model.SimResult` field must agree;
the callback machines only schedule fewer engine events (analytic CPU
and ring servers instead of Resource holds, counted blocks and acks
instead of joins, and the coalesced write-path disk chain).

The reference shares no server code with production: it holds its own
:class:`~repro.des.resources.Resource` per host CPU and for the ring,
through :meth:`GeneratorModel._consume_cpu` and
:meth:`GeneratorModel._occupy`, the Resource-hold bodies ``Host`` and
``Medium`` used before their CPUs and cables became analytic servers.

Only the tests build it: ``tests/sim/test_process_modes.py`` compares
the two models field for field and pins both models' event counts.
"""

from repro.des import Resource
from repro.sim.model import CONTROL_PACKET_SIZE_BYTES, SwiftSimModel
from repro.simnet import Host

__all__ = ["GeneratorModel"]


class GeneratorModel(SwiftSimModel):
    """:class:`SwiftSimModel` with its request path run as generators."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        hosts = self.clients + [host for host, _ in self.agents]
        self._cpus = {host: Resource(self.env, capacity=1) for host in hosts}
        self._ring_cable = Resource(self.env, capacity=1)

    def _consume_cpu(self, host: Host, seconds: float):
        """Process method: hold ``host``'s CPU for ``seconds``."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        with self._cpus[host].request() as grant:
            yield grant
            yield self.env.timeout(seconds)

    def _occupy(self, duration: float):
        """Process method: hold the ring for ``duration``."""
        with self._ring_cable.request() as grant:
            yield grant
            self.ring.monitor.busy(self.env.now)
            try:
                yield self.env.timeout(duration)
            finally:
                if self._ring_cable.queue_length == 0:
                    self.ring.monitor.idle(self.env.now)

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
        if is_read:
            yield from self._read(client, shares, priority)
        else:
            yield from self._write(client, shares, priority)
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

    def _read(self, client: Host, shares: list[int], priority: float = 0.0):
        # Multicast the small request: one packet on the ring.
        yield from self._consume_cpu(
            client, client.send_cost.time(CONTROL_PACKET_SIZE_BYTES))
        yield from self._occupy(
            self.ring.transmission_time(CONTROL_PACKET_SIZE_BYTES))
        servers = [
            self.env.process(self._agent_read(index, blocks, client,
                                              priority))
            for index, blocks in enumerate(shares) if blocks
        ]
        yield self.env.all_of(servers)

    def _agent_read(self, index: int, blocks: int, client: Host,
                    priority: float = 0.0):
        host, disk = self.agents[index]
        unit = self.config.transfer_unit
        yield from self._consume_cpu(
            host, host.recv_cost.time(CONTROL_PACKET_SIZE_BYTES))
        transmissions = []
        with disk.resource.request(priority=priority) as grant:
            yield grant
            disk.monitor.busy(self.env.now)
            try:
                for _ in range(blocks):
                    yield self.env.timeout(disk.block_service_time(unit))
                    disk.blocks_served += 1
                    disk.bytes_served += unit
                    # "Once a block has been read from disk it is scheduled
                    # for transmission over the network."
                    transmissions.append(
                        self.env.process(self._send_block(host, client, unit)))
            finally:
                if disk.resource.queue_length == 0:
                    disk.monitor.idle(self.env.now)
        yield self.env.all_of(transmissions)

    def _send_block(self, host: Host, client: Host, size: int):
        yield from self._consume_cpu(host, host.send_cost.time(size))
        yield from self._occupy(self.ring.transmission_time(size))
        yield from self._consume_cpu(client, client.recv_cost.time(size))

    # -- write path ------------------------------------------------------------------

    def _write(self, client: Host, shares: list[int], priority: float = 0.0):
        agents_done = []
        unit = self.config.transfer_unit
        # "A write request transmits the data to each of the storage
        # agents" — every block pays client CPU and ring time serially at
        # the client, arriving at its agent as it is sent.
        for index, blocks in enumerate(shares):
            if not blocks:
                continue
            for _ in range(blocks):
                yield from self._consume_cpu(
                    client, client.send_cost.time(unit))
                yield from self._occupy(self.ring.transmission_time(unit))
            agents_done.append(self.env.process(
                self._agent_write(index, blocks, client, priority)))
        # "Once the blocks have been transmitted the client awaits an
        # acknowledgement from the storage agents that the data have been
        # written to disk."
        yield self.env.all_of(agents_done)

    def _agent_write(self, index: int, blocks: int, client: Host,
                     priority: float = 0.0):
        host, disk = self.agents[index]
        unit = self.config.transfer_unit
        for _ in range(blocks):
            yield from self._consume_cpu(host, host.recv_cost.time(unit))
        with disk.resource.request(priority=priority) as grant:
            yield grant
            disk.monitor.busy(self.env.now)
            try:
                for _ in range(blocks):
                    yield self.env.timeout(disk.block_service_time(unit))
                    disk.blocks_served += 1
                    disk.bytes_served += unit
            finally:
                if disk.resource.queue_length == 0:
                    disk.monitor.idle(self.env.now)
        # The acknowledgement.
        yield from self._consume_cpu(
            host, host.send_cost.time(CONTROL_PACKET_SIZE_BYTES))
        yield from self._occupy(
            self.ring.transmission_time(CONTROL_PACKET_SIZE_BYTES))
        yield from self._consume_cpu(
            client, client.recv_cost.time(CONTROL_PACKET_SIZE_BYTES))
