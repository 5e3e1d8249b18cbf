"""Runtime byte-conservation sanitizer for the striped data path.

Striping scatters a logical byte range over agents; parity adds a
computed copy; the wire carries it all as packets.  Each hand-off is an
opportunity to leak or double-count bytes, and such bugs corrupt every
reported data-rate while leaving the protocol superficially healthy.
This module keeps a **ledger** of one invariant per hand-off, fed by the
engine's transfer hook (``env.observe("transfer", ...)``):

* **striped writes** — the logical bytes of the request equal the sum of
  the per-agent region bytes plus the bytes deliberately skipped on
  failed agents (parity covers those);
* **wire accounting** — for every (operation, agent), the payload bytes
  streamed as ``WRITE-DATA`` packets (wire bytes minus the per-packet
  header), deduplicated by packet index so retransmits are not counted
  twice, equal that agent's region bytes — and a retransmitted index
  must carry the same payload size as the original;
* **parity** — the parity region is exactly ``stripes x unit_size``
  bytes (a one-byte truncation here silently breaks reconstruction);
* **striped reads** — the pieces placed into the client buffer tile the
  requested logical range exactly: no gaps, no overlapping bytes;
* **reconstruction** — a rebuilt unit is exactly ``unit_size`` bytes.

Any violation is recorded with the owning transfer id (``object#w3``,
``object#r1``) and surfaces through :meth:`ConservationLedger.assert_clean`
or the :func:`conserve` context manager::

    with conserve(env) as ledger:
        env.run(...)
    # raises ConservationError on any leak; ledger.errors lists them

The instrumented emitters in :mod:`repro.core.distribution` fire only
when a monitor is attached, so an un-sanitized run pays one falsy test
per data-path event.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["ConservationError", "ConservationLedger", "conserve"]


class ConservationError(AssertionError):
    """Bytes were leaked, duplicated or mis-sized on the data path."""


@dataclass
class _OpRecord:
    """Everything the ledger observed about one transfer operation."""

    kind: str                    # 'write' | 'read'
    logical_offset: int
    logical_bytes: int
    #: agent index -> (region_offset, region_bytes) for data regions.
    regions: dict = field(default_factory=dict)
    #: agent index -> bytes deliberately not sent (failed, parity-covered).
    skipped: dict = field(default_factory=dict)
    #: (parity_bytes, expected_bytes) once the parity region is announced.
    parity: Optional[tuple] = None
    #: agent index -> {packet index -> payload bytes} (first transmission).
    wire: dict = field(default_factory=dict)
    #: (logical_offset, nbytes) pieces placed into the read buffer.
    pieces: list = field(default_factory=list)
    complete: bool = False


class ConservationLedger:
    """Byte ledger over the engine's transfer-monitor events.

    ``events_observed`` counts every monitor callback, which is what the
    kernel-events benchmark uses to price the sanitizer's overhead.
    """

    def __init__(self, env):
        self.env = env
        self.ops: dict[str, _OpRecord] = {}
        self.errors: list[str] = []
        self.events_observed = 0
        self._installed = False

    # -- lifecycle ----------------------------------------------------------

    def install(self) -> "ConservationLedger":
        if not self._installed:
            self.env.observe("transfer", self._on_event)
            self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            self.env.unobserve("transfer", self._on_event)
            self._installed = False

    @property
    def pending_ops(self) -> list[str]:
        """Operations that began but never completed (e.g. raised)."""
        return sorted(op for op, record in self.ops.items()
                      if not record.complete)

    def assert_clean(self) -> None:
        """Raise :class:`ConservationError` if any invariant was violated."""
        if self.errors:
            raise ConservationError(
                f"{len(self.errors)} byte-conservation violation(s):\n  "
                + "\n  ".join(self.errors))

    # -- event intake --------------------------------------------------------

    def _on_event(self, kind: str, **info) -> None:
        self.events_observed += 1
        handler = getattr(self, "_on_" + kind.replace("-", "_"), None)
        if handler is None:
            self.errors.append(f"unknown transfer event kind {kind!r}")
            return
        handler(**info)

    def _record(self, op) -> Optional[_OpRecord]:
        if op is None:
            return None
        record = self.ops.get(op)
        if record is None:
            self.errors.append(f"{op}: event before its begin event")
        return record

    def _on_write_begin(self, op, logical_offset, logical_bytes) -> None:
        self.ops[op] = _OpRecord("write", logical_offset, logical_bytes)

    def _on_write_region(self, op, agent, region_offset, nbytes) -> None:
        record = self._record(op)
        if record is None:
            return
        if agent in record.regions:
            self.errors.append(
                f"{op}: agent {agent} announced two data regions")
        record.regions[agent] = (region_offset, nbytes)

    def _on_write_skip(self, op, agent, nbytes) -> None:
        record = self._record(op)
        if record is None:
            return
        record.skipped[agent] = record.skipped.get(agent, 0) + nbytes

    def _on_write_parity(self, op, agent, nbytes, expected_bytes) -> None:
        record = self._record(op)
        if record is None:
            return
        record.parity = (nbytes, expected_bytes)
        # Wire packets for the parity agent reconcile against its region.
        record.regions.setdefault(agent, (None, nbytes))

    def _on_wire_data(self, op, agent, index, payload_bytes) -> None:
        record = self._record(op)
        if record is None:
            return
        seen = record.wire.setdefault(agent, {})
        previous = seen.get(index)
        if previous is None:
            seen[index] = payload_bytes
        elif previous != payload_bytes:
            self.errors.append(
                f"{op}: agent {agent} packet {index} retransmitted with "
                f"{payload_bytes} payload bytes (originally {previous})")

    def _on_write_end(self, op) -> None:
        record = self._record(op)
        if record is None:
            return
        record.complete = True
        self._check_write(op, record)

    def _on_read_begin(self, op, logical_offset, logical_bytes) -> None:
        self.ops[op] = _OpRecord("read", logical_offset, logical_bytes)

    def _on_read_data(self, op, agent, logical_offset, nbytes) -> None:
        record = self._record(op)
        if record is None:
            return
        record.pieces.append((logical_offset, nbytes))

    def _on_read_end(self, op) -> None:
        record = self._record(op)
        if record is None:
            return
        record.complete = True
        self._check_read(op, record)

    def _on_reconstruct_unit(self, op, stripe, agent, nbytes,
                             unit_size) -> None:
        if nbytes != unit_size:
            owner = op if op is not None else "rebuild"
            self.errors.append(
                f"{owner}: reconstructed unit of stripe {stripe} (agent "
                f"{agent}) is {nbytes} bytes, expected exactly {unit_size}")

    # -- the invariants -------------------------------------------------------

    def _check_write(self, op: str, record: _OpRecord) -> None:
        # The parity region is a computed copy: it reconciles against its
        # own expected size, and is excluded from logical-byte conservation.
        parity_agent = None
        if record.parity is not None:
            nbytes, expected = record.parity
            if nbytes != expected:
                self.errors.append(
                    f"{op}: parity region is {nbytes} bytes, expected "
                    f"{expected} (stripes x unit_size)")
            for agent, (offset, _region_bytes) in record.regions.items():
                if offset is None:
                    parity_agent = agent
        data_bytes = sum(nbytes for agent, (_, nbytes)
                         in record.regions.items() if agent != parity_agent)
        skipped = sum(record.skipped.values())
        if data_bytes + skipped != record.logical_bytes:
            self.errors.append(
                f"{op}: logical {record.logical_bytes} bytes != "
                f"{data_bytes} region bytes + {skipped} skipped bytes")
        for agent, (_, region_bytes) in record.regions.items():
            streamed = sum(record.wire.get(agent, {}).values())
            if streamed != region_bytes:
                self.errors.append(
                    f"{op}: agent {agent} streamed {streamed} unique wire "
                    f"payload bytes for a {region_bytes}-byte region")
        for agent in record.wire:
            if agent not in record.regions:
                self.errors.append(
                    f"{op}: agent {agent} received wire data with no "
                    "announced region")

    def _check_read(self, op: str, record: _OpRecord) -> None:
        placed = sum(nbytes for _, nbytes in record.pieces)
        if placed != record.logical_bytes:
            self.errors.append(
                f"{op}: {placed} bytes placed into a "
                f"{record.logical_bytes}-byte read buffer")
            return
        # Exact tiling: merged disjoint intervals must cover the range.
        span_start = record.logical_offset
        span_end = span_start + record.logical_bytes
        position = span_start
        for start, nbytes in sorted(record.pieces):
            if start < position:
                self.errors.append(
                    f"{op}: read pieces overlap at logical offset {start}")
                return
            if start > position:
                self.errors.append(
                    f"{op}: read gap at logical offset {position}")
                return
            position = start + nbytes
        if record.pieces and position != span_end:
            self.errors.append(
                f"{op}: read coverage ends at {position}, expected "
                f"{span_end}")


@contextmanager
def conserve(env, raise_on_leak: bool = True):
    """Attach a :class:`ConservationLedger` for the duration of a block.

    ::

        with conserve(env) as ledger:
            env.run(...)

    On exit the ledger detaches and — with ``raise_on_leak`` —
    :meth:`~ConservationLedger.assert_clean` raises on any violation.
    """
    ledger = ConservationLedger(env).install()
    try:
        yield ledger
    finally:
        ledger.uninstall()
    if raise_on_leak:
        ledger.assert_clean()
