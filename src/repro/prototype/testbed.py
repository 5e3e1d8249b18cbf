"""The §3-§4 laboratory: Figure 2 as a DES deployment.

One SPARCstation 2 client on a dedicated laboratory Ethernet with three
SLC storage agents; optionally a second, *shared departmental* Ethernet
(reached through the client's slower S-bus interface) with more SLC agents
behind it.
"""

from __future__ import annotations

import weakref

from ..des import Environment, StreamFactory
from ..simdisk import ScsiMode, make_scsi_filesystem
from ..simnet import CostModel, Network
from ..core import DistributionAgent, StorageAgent
from . import calibration as cal

__all__ = ["PrototypeTestbed"]

KILOBYTE = 1 << 10


class PrototypeTestbed:
    """Builds the prototype lab and runs measured transfers on it."""

    def __init__(self, agents_per_segment: int = 3,
                 second_ethernet: bool = False, seed: int = 0,
                 agent_prefetch: bool = True, tcp_mode: bool = False,
                 parity: bool = False, striping_unit: int | None = None,
                 interpacket_gap_s: float | None = None,
                 synchronous_agent_writes: bool = False,
                 ethernet_contention: bool = False,
                 component_scales: "dict[str, float] | None" = None):
        if agents_per_segment < 1:
            raise ValueError("need at least one agent per segment")
        self.env = Environment()
        # Dropping the testbed ends the agents' never-ending loops.
        weakref.finalize(self, self.env.close)
        self.streams = StreamFactory(seed)
        self.network = Network(self.env, self.streams)
        self.second_ethernet = second_ethernet
        self.tcp_mode = tcp_mode
        self.parity = parity
        self.striping_unit = striping_unit or cal.PACKET_SIZE
        if interpacket_gap_s is None:
            # TCP flow control needs no wait loop; the UDP prototype does
            # ("we had to incorporate a small wait loop", §3.1).
            interpacket_gap_s = 0.0 if tcp_mode else cal.WRITE_INTERPACKET_GAP_S
        self.interpacket_gap_s = interpacket_gap_s
        self.synchronous_agent_writes = synchronous_agent_writes
        # Sensitivity hooks: scale one component's speed without touching
        # the calibration ("locate the components that will limit I/O
        # performance", §5).  A scale of 2.0 means twice as fast.
        scales = dict(component_scales or {})
        unknown = set(scales) - {"client_cpu", "agent_cpu", "network",
                                 "agent_disk"}
        if unknown:
            raise ValueError(f"unknown components: {sorted(unknown)}")
        self._disk_scale = scales.get("agent_disk", 1.0)
        self._ethernet_bps = 10_000_000.0 * scales.get("network", 1.0)

        def faster(cost, factor):
            return CostModel(cost.per_packet_s / factor,
                             cost.per_byte_s / factor)

        client_send = faster(cal.SS2_SEND_COST, scales.get("client_cpu", 1.0))
        client_recv = faster(cal.SS2_RECV_COST, scales.get("client_cpu", 1.0))
        self._agent_send = faster(cal.SLC_SEND_COST,
                                  scales.get("agent_cpu", 1.0))
        self._agent_recv = faster(cal.SLC_RECV_COST,
                                  scales.get("agent_cpu", 1.0))
        if tcp_mode:
            # §3: the abandoned first prototype, TCP streams multiplexed
            # with select(), paying heavy data copying on both ends.
            client_send = cal.tcp_variant(client_send)
            client_recv = cal.tcp_variant(client_recv)
            self._agent_send = cal.tcp_variant(self._agent_send)
            self._agent_recv = cal.tcp_variant(self._agent_recv)

        # The dedicated laboratory segment.
        lab = self.network.add_ethernet("laboratory",
                                        contention=ethernet_contention)
        lab.bits_per_second = self._ethernet_bps
        self.client_host = self.network.add_host(
            "client", send_cost=client_send,
            recv_cost=client_recv,
            noise_fraction=cal.HOST_NOISE_FRACTION)
        self.network.connect("client", "laboratory", tx_queue_packets=64)

        self.agent_names: list[str] = []
        self.agents: dict[str, StorageAgent] = {}
        for index in range(agents_per_segment):
            self._add_agent(f"slc{index}", "laboratory", agent_prefetch)

        if second_ethernet:
            # The shared departmental segment, reached via the S-bus NIC.
            self.network.add_ethernet(
                "departmental",
                background_fraction=cal.DEPARTMENTAL_BACKGROUND_LOAD,
                contention=ethernet_contention)
            self.network.connect("client", "departmental",
                                 cpu_cost_scale=cal.SBUS_CPU_SCALE,
                                 tx_queue_packets=64)
            for index in range(agents_per_segment):
                self._add_agent(f"slc{agents_per_segment + index}",
                                "departmental", agent_prefetch)

    def _add_agent(self, name: str, segment: str, prefetch: bool) -> None:
        host = self.network.add_host(
            name, send_cost=self._agent_send, recv_cost=self._agent_recv,
            noise_fraction=cal.HOST_NOISE_FRACTION)
        self.network.connect(name, segment, tx_queue_packets=64)
        filesystem = make_scsi_filesystem(
            self.env, disk_model="Sun 104MB SCSI",
            mode=ScsiMode.SYNCHRONOUS,
            stream=self.streams.stream(f"disk/{name}"))
        if self._disk_scale != 1.0:
            filesystem.read_block_overhead_s /= self._disk_scale
            filesystem.write_block_overhead_s /= self._disk_scale
            spec = filesystem.disk.spec
            filesystem.disk.spec = type(spec)(
                name=spec.name,
                avg_seek_s=spec.avg_seek_s / self._disk_scale,
                avg_rotation_s=spec.avg_rotation_s / self._disk_scale,
                transfer_rate_bytes_per_s=(
                    spec.transfer_rate_bytes_per_s * self._disk_scale),
                capacity_bytes=spec.capacity_bytes)
        self.agents[name] = StorageAgent(
            self.env, host, filesystem, prefetch=prefetch,
            synchronous_writes=self.synchronous_agent_writes,
            socket_buffer=64)
        self.agent_names.append(name)

    # -- building the measured transfers ----------------------------------------------

    def _make_engine(self, object_name: str) -> DistributionAgent:
        return DistributionAgent(
            self.env, self.client_host, list(self.agent_names), object_name,
            parity=self.parity,
            striping_unit=self.striping_unit,
            packet_size=cal.PACKET_SIZE,
            open_timeout_s=cal.OPEN_TIMEOUT_S,
            read_timeout_s=cal.READ_TIMEOUT_S,
            ack_timeout_s=cal.ACK_TIMEOUT_S,
            interpacket_gap_s=self.interpacket_gap_s,
        )

    def _run(self, generator):
        return self.env.run(until=self.env.process(generator))

    def flush_agent_caches(self) -> None:
        """Cold-cache every agent (the /etc/umount side effect)."""
        for agent in self.agents.values():
            agent.filesystem.flush_cache()

    def prepare_object(self, name: str, size: int) -> None:
        """Install an object on the agents without timing it."""
        engine = self._make_engine(name)
        payload = b"\x42" * size

        def setup():
            yield from engine.open(create=True, truncate=True)
            yield from engine.write(0, payload)
            yield from engine.close()

        self._run(setup())
        self.flush_agent_caches()

    def measure_read(self, name: str, size: int) -> float:
        """Timed whole-object read; returns KB/s.

        Timing covers exactly the data transfer (open/close excluded, as
        in the paper's large streaming measurements).
        """
        self.flush_agent_caches()
        engine = self._make_engine(name)
        rates = {}

        def workload():
            yield from engine.open()
            start = self.env.now
            data = yield from engine.read(0, size)
            rates["elapsed"] = self.env.now - start
            if len(data) != size:
                raise AssertionError("short read in measurement")
            yield from engine.close()

        self._run(workload())
        return size / KILOBYTE / rates["elapsed"]

    def measure_write(self, name: str, size: int) -> float:
        """Timed whole-object write (asynchronous agent writes); KB/s."""
        engine = self._make_engine(name)
        payload = b"\x99" * size
        rates = {}

        def workload():
            yield from engine.open(create=True, truncate=True)
            start = self.env.now
            yield from engine.write(0, payload)
            rates["elapsed"] = self.env.now - start
            yield from engine.close()

        self._run(workload())
        return size / KILOBYTE / rates["elapsed"]

    def network_utilization(self, segment: str = "laboratory") -> float:
        """Busy fraction of a segment since testbed construction."""
        return self.network.medium(segment).utilization()

    # -- multiple clients (the §1 "load sharing" claim) -------------------------------

    def add_client_host(self, name: str):
        """Another SPARCstation-2 client on the laboratory segment."""
        host = self.network.add_host(
            name, send_cost=cal.SS2_SEND_COST, recv_cost=cal.SS2_RECV_COST,
            noise_fraction=cal.HOST_NOISE_FRACTION)
        self.network.connect(name, "laboratory", tx_queue_packets=64)
        return host

    def measure_concurrent_reads(self, clients: int, size: int) -> dict:
        """``clients`` hosts read distinct objects at the same time.

        Returns per-client and aggregate KB/s.  Demonstrates the §1 claim
        that the distributed design gives "easy expansion and load
        sharing": the same three agents serve every client, and the shared
        cable is divided between them.
        """
        if clients < 1:
            raise ValueError("need at least one client")
        hosts = [self.client_host]
        for index in range(1, clients):
            hosts.append(self.add_client_host(f"client{index}"))
        engines = []
        for index, host in enumerate(hosts):
            name = f"shared{index}"
            engine = DistributionAgent(
                self.env, host, list(self.agent_names), name,
                striping_unit=self.striping_unit,
                packet_size=cal.PACKET_SIZE,
                open_timeout_s=cal.OPEN_TIMEOUT_S,
                read_timeout_s=cal.READ_TIMEOUT_S,
                ack_timeout_s=cal.ACK_TIMEOUT_S,
                interpacket_gap_s=self.interpacket_gap_s)
            engines.append(engine)

            def setup(engine=engine):
                yield from engine.open(create=True, truncate=True)
                yield from engine.write(0, b"\x42" * size)

            self._run(setup())
        self.flush_agent_caches()

        elapsed: dict[int, float] = {}

        def reader(index, engine):
            start = self.env.now
            data = yield from engine.read(0, size)
            if len(data) != size:
                raise AssertionError("short read in measurement")
            elapsed[index] = self.env.now - start

        processes = [self.env.process(reader(i, engine))
                     for i, engine in enumerate(engines)]
        self.env.run(until=self.env.all_of(processes))
        per_client = {index: size / KILOBYTE / seconds
                      for index, seconds in elapsed.items()}
        total_time = max(elapsed.values())
        return {
            "per_client": per_client,
            "aggregate": clients * size / KILOBYTE / total_time,
        }
