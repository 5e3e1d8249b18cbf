"""The NFS baseline of Table 3.

§4: "The NFS measurements [were] made using a Sun 4/390 with 32 megabytes
of memory and IPI disk drives under SunOS 4.1 as a server, and a Sun 4/75
(sparcstation 2) as the client ... run over a lightly-loaded shared
departmental Ethernet-based local-area network [at] less than 5% of its
capacity."

The model is NFSv2-shaped: 8 KB block RPCs over UDP; the server is
write-through ("the write data-rate measurements in NFS reflect the
write-through policy of the server") — every WRITE RPC forces the data
block plus its metadata synchronously to the IPI disk before the reply.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

from ..des import Environment, StreamFactory
from ..simdisk import DISK_CATALOG, Disk, LocalFileSystem
from ..simnet import Address, Network
from ..calibration import (
    DEPARTMENTAL_BACKGROUND_LOAD,
    HOST_NOISE_FRACTION,
    NFS_BLOCK_SIZE,
    NFS_METADATA_WRITES,
    NFS_SERVER_RECV_COST,
    NFS_SERVER_SEND_COST,
    SS2_RECV_COST,
    SS2_SEND_COST,
)

__all__ = ["NfsBaseline", "NFS_PORT", "NFS_SERVER_RPC_OVERHEAD_S"]

NFS_PORT = 2049
KILOBYTE = 1 << 10

#: Per-RPC server-side protocol processing (RPC/XDR decode, nfsd dispatch).
NFS_SERVER_RPC_OVERHEAD_S = 1.0e-3

_xids = itertools.count(1)


# The RPCs are slotted value records like the Swift protocol's messages
# (see ``core/agent_protocol.py``).
@dataclass(slots=True, unsafe_hash=True)
class ReadRpc:
    xid: int
    file_name: str
    offset: int
    count: int


@dataclass(slots=True, unsafe_hash=True)
class ReadReply:
    xid: int
    payload: bytes


@dataclass(slots=True, unsafe_hash=True)
class WriteRpc:
    xid: int
    file_name: str
    offset: int
    payload: bytes


@dataclass(slots=True, unsafe_hash=True)
class WriteReply:
    xid: int


def _rpc_wire_size(message) -> int:
    if isinstance(message, (ReadReply, WriteRpc)):
        return 96 + len(message.payload)
    return 96


class _NfsServer:
    """One nfsd: decodes RPCs, hits the IPI file system, replies."""

    def __init__(self, env: Environment, host, filesystem: LocalFileSystem):
        self.host = host
        self.filesystem = filesystem
        self.socket = host.bind(NFS_PORT, buffer_packets=32)
        self._prefetched_upto = 0
        env.process(self._serve())

    def _serve(self):
        host = self.host
        env = host.env
        while True:
            datagram = yield self.socket.recv()
            message = datagram.message
            # RPC/XDR decode and nfsd dispatch on the server CPU.
            yield env.timeout_at(
                host.cpu.serve(env._now, NFS_SERVER_RPC_OVERHEAD_S))
            if isinstance(message, ReadRpc):
                yield from self._read(message, datagram.src)
            elif isinstance(message, WriteRpc):
                yield from self._write(message, datagram.src)

    def _read(self, rpc: ReadRpc, reply_to: Address):
        fs = self.filesystem
        if not fs.exists(rpc.file_name):
            fs.create(rpc.file_name)
        self._last_file = rpc.file_name
        payload = yield from fs.read(rpc.file_name, rpc.offset, rpc.count)
        reply = ReadReply(xid=rpc.xid, payload=bytes(payload))
        yield self.socket.send_op(reply_to, message=reply,
                                  payload_size=_rpc_wire_size(reply))
        self._readahead(rpc.file_name, rpc.offset + rpc.count, rpc.count)

    def _readahead(self, name: str, offset: int, length: int) -> None:
        """A read-ahead daemon, like the real server's."""
        if length <= 0 or offset < self._prefetched_upto:
            return
        self._prefetched_upto = offset + length
        self.filesystem.prefetch(name, offset, length)

    def _write(self, rpc: WriteRpc, reply_to: Address):
        fs = self.filesystem
        if not fs.exists(rpc.file_name):
            fs.create(rpc.file_name)
        # Write-through: data synchronously, then the metadata updates
        # (inode + indirect block on NFSv2) as separate positioned writes.
        yield from fs.write(rpc.file_name, rpc.offset, rpc.payload, sync=True)
        for _ in range(NFS_METADATA_WRITES):
            yield fs.disk.access_op(512)
        reply = WriteReply(xid=rpc.xid)
        yield self.socket.send_op(reply_to, message=reply,
                                  payload_size=_rpc_wire_size(reply))

    _last_file: str = ""


class NfsBaseline:
    """A complete NFS client/server pair on a shared Ethernet."""

    def __init__(self, seed: int = 0,
                 background_load: float = DEPARTMENTAL_BACKGROUND_LOAD):
        self.env = Environment()
        # Dropping the baseline ends the never-ending server loop.
        weakref.finalize(self, self.env.close)
        self.streams = StreamFactory(seed)
        self.network = Network(self.env, self.streams)
        self.network.add_ethernet("departmental",
                                  background_fraction=background_load)
        self.client_host = self.network.add_host(
            "nfs-client", send_cost=SS2_SEND_COST, recv_cost=SS2_RECV_COST,
            noise_fraction=HOST_NOISE_FRACTION)
        server_host = self.network.add_host(
            "nfs-server", send_cost=NFS_SERVER_SEND_COST,
            recv_cost=NFS_SERVER_RECV_COST,
            noise_fraction=HOST_NOISE_FRACTION)
        self.network.connect("nfs-client", "departmental",
                             tx_queue_packets=64)
        self.network.connect("nfs-server", "departmental",
                             tx_queue_packets=64)
        server_fs = LocalFileSystem(
            self.env,
            Disk(self.env, DISK_CATALOG["Sun IPI"],
                 stream=self.streams.stream("ipi-disk")),
            block_size=NFS_BLOCK_SIZE,
            cache_blocks=4096,  # 32 MB of server RAM
        )
        self.server = _NfsServer(self.env, server_host, server_fs)
        self.client_socket = self.client_host.bind(buffer_packets=16)
        self._server_address = Address("nfs-server", NFS_PORT)

    # -- RPC plumbing -----------------------------------------------------------

    def _run(self, generator):
        return self.env.run(until=self.env.process(generator))

    def _call(self, message, reply_type):
        yield self.client_socket.send_op(
            self._server_address, message=message,
            payload_size=_rpc_wire_size(message))
        datagram = yield self.client_socket.recv(
            lambda d: isinstance(d.message, reply_type)
            and d.message.xid == message.xid)
        return datagram.message

    # -- workloads ----------------------------------------------------------------

    def prepare_file(self, name: str, size: int) -> None:
        """Install the file on the server without timing, then cold-cache."""
        fs = self.server.filesystem
        fs.create(name)

        def setup():
            yield from fs.write(name, 0, b"\xC3" * size)

        self._run(setup())
        fs.flush_cache()
        self.server._last_file = name

    def measure_read(self, name: str, size: int) -> float:
        """Sequential NFS read; returns the data-rate in KB/s."""
        self.server.filesystem.flush_cache()
        self.server._last_file = name
        self.server._prefetched_upto = 0
        start = self.env.now

        def workload():
            position = 0
            while position < size:
                count = min(NFS_BLOCK_SIZE, size - position)
                rpc = ReadRpc(xid=next(_xids), file_name=name,
                              offset=position, count=count)
                reply = yield from self._call(rpc, ReadReply)
                position += len(reply.payload)

        self._run(workload())
        return size / KILOBYTE / (self.env.now - start)

    def measure_write(self, name: str, size: int) -> float:
        """Sequential NFS write (write-through); data-rate in KB/s."""
        start = self.env.now

        def workload():
            position = 0
            while position < size:
                count = min(NFS_BLOCK_SIZE, size - position)
                rpc = WriteRpc(xid=next(_xids), file_name=name,
                               offset=position, payload=b"\x3C" * count)
                yield from self._call(rpc, WriteReply)
                position += count

        self._run(workload())
        return size / KILOBYTE / (self.env.now - start)
