"""The mutation corpus: seeded bugs that tier-1 or ``repro check`` must catch.

Scope: a mutation edits the program, meaning ``src/repro`` outside
``src/repro/check``.  When the edit changes the protocol, it also makes the
``check/spec.py`` edit that keeps the spec in step.  The checkers' own code
is never mutated: every checker trivially catches its own mutants.

Each entry is ``Mutation(id, origin, edits)``: ``origin`` names where the
bug comes from (a CHANGES.md entry or a rule id) and each edit is a
``(path, old, new)`` text replacement whose ``old`` must occur exactly once
in ``path``.  ``tests/mutants/run.py`` applies them one mutation at a time
to a copy of the checkout.
"""

from typing import NamedTuple


class Mutation(NamedTuple):
    id: str
    origin: str
    edits: tuple[tuple[str, str, str], ...]


DIST = "src/repro/core/distribution.py"
AGENT = "src/repro/core/storage_agent.py"
MODEL = "src/repro/sim/model.py"
RESOURCES = "src/repro/des/resources.py"

MUTATIONS: tuple[Mutation, ...] = (
    # -- the bugs earlier changes seeded by hand (CHANGES.md) ---------------
    Mutation("edf-priority", "CHANGES.md: EDF priority in _AgentRead", ((
        MODEL,
        "            self._grant = grant = resource.request(self.op.priority)\n"
        "            self.wait(grant, self._granted)\n"
        "\n"
        "    def _granted(self, value):\n"
        "        disk = self._disk\n",
        "            self._grant = grant = resource.request()\n"
        "            self.wait(grant, self._granted)\n"
        "\n"
        "    def _granted(self, value):\n"
        "        disk = self._disk\n"),)),
    Mutation("write-coalescing", "CHANGES.md: write-path span coalescing", ((
        MODEL,
        "        disk.monitor.busy(when)\n"
        "        for _ in range(self.blocks):\n"
        "            when += disk.block_service_time(unit)\n"
        "        self.wait_at(when, self._span_done)\n",
        "        disk.monitor.busy(when)\n"
        "        self._left = self.blocks\n"
        "        self._next_block(None)\n"
        "\n"
        "    def _next_block(self, value):\n"
        "        if not self._left:\n"
        "            self._span_done(None)\n"
        "            return\n"
        "        self._left -= 1\n"
        "        self.wait_timeout(self._disk.block_service_time(self._unit),\n"
        "                          self._next_block)\n"),)),
    Mutation("ring-idle", "CHANGES.md: idle mark only when the queue drained", ((
        RESOURCES,
        "        if self.free_at == now:\n"
        "            self.monitor.idle(now)\n",
        "        self.monitor.idle(now)\n"),)),
    Mutation("background-busy-now", "CHANGES.md: background burst busy mark", ((
        "src/repro/simnet/ethernet.py",
        "monitor.busy(request_at)",
        "monitor.busy(now)"),)),
    Mutation("stale-ack-purge", "CHANGES.md: stale ACK/NAK purge in _write_agent", ((
        DIST,
        "        channel.socket.purge(\n"
        "            lambda d: isinstance(d.message, (WriteAck, WriteNak))\n"
        "            and d.message.op_id < op_id)\n",
        ""),)),
    Mutation("hidden-copies", "CHANGES.md: the two hidden copies", (
        (DIST,
         "    return view if view.readonly else view.tobytes()\n",
         "    return bytes(view)\n"),
        (DIST,
         "                    padded = bytearray(length)\n"
         "                    padded[:len(payload)] = payload\n"
         "                    payload = padded\n",
         "                    payload = bytes(payload).ljust(length, b\"\\0\")\n"),
    )),
    # -- one seeded bug per static rule with a site in the program ----------
    Mutation("raw-random", "raw-random", (
        ("src/repro/sim/trace.py",
         "from dataclasses import dataclass\n",
         "import random\nfrom dataclasses import dataclass\n"),
        ("src/repro/sim/trace.py",
         "        clock += stream.exponential(1.0 / rate)\n",
         "        clock += random.Random(seed + len(records)).expovariate(rate)\n"),
    )),
    Mutation("unseeded-rng", "unseeded-rng", (
        (MODEL,
         "from dataclasses import dataclass\n",
         "import random\nfrom dataclasses import dataclass\n"),
        (MODEL,
         "is_read = self._mix.uniform(0.0, 1.0) < config.read_fraction",
         "is_read = random.random() < config.read_fraction"),
    )),
    Mutation("wall-clock", "wall-clock", (
        (MODEL,
         "from dataclasses import dataclass\n",
         "import time\nfrom dataclasses import dataclass\n"),
        (MODEL,
         "        nominal_span = config.num_requests / config.arrival_rate\n",
         "        nominal_span = config.num_requests / config.arrival_rate\n"
         "        self.started_at = time.time()\n"),
    )),
    Mutation("mutable-default", "mutable-default", ((
        MODEL,
        "    def __init__(self, config: SimConfig, storage_factory=None,\n"
        "                 trace=None):\n",
        "    def __init__(self, config: SimConfig, storage_factory=None,\n"
        "                 trace=[]):\n"),)),
    Mutation("salted-hash", "salted-hash", ((
        "src/repro/sim/cache.py",
        "    return hashlib.sha256(canonical.encode()).hexdigest()\n",
        "    return format(hash(canonical) % (1 << 64), \"016x\")\n"),)),
    Mutation("implicit-seed", "implicit-seed", ((
        MODEL,
        "        self.streams = StreamFactory(config.seed)\n",
        "        self.streams = StreamFactory()\n"),)),
    Mutation("recv-unguarded", "recv-unguarded", ((
        "src/repro/core/namespace.py",
        "            datagram = yield from self.socket.recv_wait(\n"
        "                self.timeout_s,\n"
        "                predicate=lambda d: isinstance(d.message, reply_type)\n"
        "                and d.message.request_id == message.request_id)\n",
        "            datagram = yield self.socket.recv()\n"),)),
    Mutation("retransmit-unbounded", "retransmit-unbounded", ((
        DIST,
        "        for _ in range(self.max_retries):\n"
        "            datagram = yield from channel.socket.recv_wait(\n"
        "                self.ack_timeout_s,\n",
        "        while True:\n"
        "            datagram = yield from channel.socket.recv_wait(\n"
        "                self.ack_timeout_s,\n"),)),
    Mutation("timeout-unit", "timeout-unit", (
        (DIST,
         "from .striping import StripeLayout\n",
         "from .striping import StripeLayout\n\nACK_TIMEOUT = 0.5\n"),
        (DIST,
         "        ack_timeout_s: float = 0.5,\n",
         "        ack_timeout_s: float = ACK_TIMEOUT,\n"),
    )),
    Mutation("set-iteration", "set-iteration", ((
        AGENT,
        "for index in sorted(state.received):",
        "for index in set(state.received):"),)),
    Mutation("yield-rmw", "yield-rmw", ((
        AGENT,
        "        self.agent.stats.reads_served += 1\n"
        "        self.agent.stats.bytes_read += len(packet.payload)\n"
        "        yield from self._reply(packet)\n",
        "        served = self.agent.stats.reads_served\n"
        "        self.agent.stats.bytes_read += len(packet.payload)\n"
        "        yield from self._reply(packet)\n"
        "        self.agent.stats.reads_served = served + 1\n"),)),
    Mutation("unit-bitbyte", "unit-bitbyte", ((
        "src/repro/simnet/ethernet.py",
        "    def nominal_capacity(self) -> float:\n"
        "        return to_bytes_per_s(self.bits_per_second)\n",
        "    def nominal_capacity(self) -> float:\n"
        "        return self.bits_per_second * 8\n"),)),
    Mutation("unit-mismatch-keyword", "unit-mismatch", ((
        "src/repro/simdisk/models.py",
        "avg_seek_s=ms(seek_ms),",
        "avg_seek_s=seek_ms,"),)),
    Mutation("unit-magic-100", "unit-magic", ((
        "src/repro/simdisk/models.py",
        "avg_rotation_s=ms(rotation_ms),",
        "avg_rotation_s=rotation_ms / 100,"),)),
    Mutation("ambient-read-trace-replay", "effect-ambient-read", (
        (MODEL,
         "from dataclasses import dataclass\n",
         "import os\nfrom dataclasses import dataclass\n"),
        (MODEL,
         "            for record in self.trace[:target]:\n",
         "            limit = int(os.environ.get(\"REPRO_TRACE_LIMIT\", target))\n"
         "            for record in self.trace[:limit]:\n"),
    )),
    Mutation("ambient-read-run", "effect-ambient-read", (
        (MODEL,
         "from dataclasses import dataclass\n",
         "import os\nfrom dataclasses import dataclass\n"),
        (MODEL,
         "        nominal_span = config.num_requests / config.arrival_rate\n",
         "        nominal_span = (config.num_requests / config.arrival_rate\n"
         "                        * float(os.getenv(\"REPRO_SPAN\", \"1\")))\n"),
    )),
    Mutation("global-write-run", "effect-global-write", (
        (MODEL,
         "__all__ = [\"SwiftSimModel\", \"SimResult\"]\n",
         "__all__ = [\"SwiftSimModel\", \"SimResult\"]\n\n_RUNS: dict = {}\n"),
        (MODEL,
         "        nominal_span = config.num_requests / config.arrival_rate\n",
         "        _RUNS[config.seed] = _RUNS.get(config.seed, 0) + 1\n"
         "        nominal_span = config.num_requests / config.arrival_rate\n"),
    )),
    Mutation("global-rebind-run", "effect-global-write", (
        (MODEL,
         "__all__ = [\"SwiftSimModel\", \"SimResult\"]\n",
         "__all__ = [\"SwiftSimModel\", \"SimResult\"]\n\n_runs = 0\n"),
        (MODEL,
         "        nominal_span = config.num_requests / config.arrival_rate\n",
         "        global _runs\n"
         "        _runs += 1\n"
         "        nominal_span = config.num_requests / config.arrival_rate\n"),
    )),
    Mutation("unkeyed-horizon", "effect-unkeyed-input", (
        (MODEL,
         "__all__ = [\"SwiftSimModel\", \"SimResult\"]\n",
         "__all__ = [\"SwiftSimModel\", \"SimResult\"]\n\n"
         "_HORIZON = {\"factor\": 8.0}\n\n\n"
         "def set_horizon_factor(factor):\n"
         "    _HORIZON[\"factor\"] = factor\n"),
        (MODEL,
         "nominal_span * 8.0))",
         "nominal_span * _HORIZON[\"factor\"]))"),
    )),
    # -- the protocol guards, as edits to the real code ---------------------
    Mutation("read-any-seq", "stale-seq filter in _fetch_packet", ((
        DIST,
        "                predicate=lambda d: isinstance(d.message, DataPacket)\n"
        "                and d.message.seq == request.seq)\n",
        "                predicate=lambda d: isinstance(d.message, DataPacket))\n"),
    )),
    Mutation("write-any-op-reply", "op_id reply filter in _write_agent", ((
        DIST,
        "                predicate=lambda d: isinstance(d.message, (WriteAck, "
        "WriteNak))\n"
        "                and d.message.op_id == op_id)\n",
        "                predicate=lambda d: isinstance(d.message, (WriteAck, "
        "WriteNak)))\n"),)),
    Mutation("unknown-op-data", "unknown-op guard in _serve_write_data", ((
        AGENT,
        "        state = self.write_ops.get(packet.op_id)\n"
        "        if state is None or state.applied:\n",
        "        state = self.write_ops.get(packet.op_id)\n"
        "        if state is None:\n"
        "            yield from self.agent.filesystem.write(\n"
        "                self.file_name, packet.offset, packet.payload)\n"
        "            return\n"
        "        if state.applied:\n"),)),
    Mutation("reapply-on-query", "status query re-ACKs a completed op", ((
        AGENT,
        "            if state.complete:\n"
        "                yield from self._reply(\n"
        "                    WriteAck(handle=self.handle, op_id=request.op_id))\n",
        "            if state.complete:\n"
        "                state.applied = False\n"
        "                yield from self._finish_write(state)\n"),)),
    Mutation("query-restreams", "status query as a WRITE-REQ (code + spec)", (
        (DIST,
         "                # Status query: re-send the announcement.\n"
         "                yield channel.socket.send_op(\n"
         "                    channel.data_address, message=request,\n"
         "                    payload_size=wire_size(request))\n"
         "                self.stats.packets_sent += 1\n",
         "                # Status query: re-stream the data.\n"
         "                yield self._stream_packets(\n"
         "                    channel, request, payload,\n"
         "                    range(request.expected_packets), op)\n"),
        ("src/repro/check/spec.py",
         "        Transition(\"QUERY\", \"send WriteRequest\", \"STREAMING\"),\n",
         "        Transition(\"QUERY\", \"send WriteData\", \"STREAMING\"),\n"),
    )),
    Mutation("unfrozen-write-buffer", "_frozen snapshot in write()", ((
        DIST,
        "        data = _frozen(data)\n",
        ""),)),
)
