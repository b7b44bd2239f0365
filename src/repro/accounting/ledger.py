"""Resource accounting at gateways (goal 7 — "the resources used in the
internet architecture must be accountable").

The paper admits this goal got the least attention: "the datagram" makes
accounting hard because a gateway sees isolated packets with no notion of
the *conversation* they belong to; it suggests accounting should happen at
the granularity of flows.  Experiment E7 builds all three options and
measures their cost/fidelity:

* :class:`PacketAccountant` — charge every packet to its (src net, dst net)
  pair as it passes.  Perfect fidelity, one table entry per pair forever,
  one lookup per packet.
* :class:`FlowAccountant` — aggregate into flow records with an idle
  timeout, exporting completed records to the ledger (NetFlow avant la
  lettre, and the paper's "flows" suggestion applied to accounting).
* :class:`SamplingAccountant` — examine 1-in-N packets and scale up;
  cheap, approximate.

All attach to a gateway via the forwarding-inspector hook and never touch
the forwarding decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ip.address import Address, Prefix
from ..ip.node import Node
from ..ip.packet import IP_HEADER_LEN, Datagram
from ..sim.process import PeriodicProcess

__all__ = ["Ledger", "PacketAccountant", "FlowAccountant",
           "SamplingAccountant", "FlowRecord"]


def _entity_of(address: Address, granularity: int) -> Prefix:
    """The billable entity an address belongs to (its network prefix)."""
    return Prefix.of(address, granularity)


@dataclass
class Ledger:
    """Charges accumulated per (source entity, destination entity)."""

    packets: dict[tuple, int] = field(default_factory=dict)
    bytes: dict[tuple, int] = field(default_factory=dict)

    def charge(self, key: tuple, packets: int, byte_count: int) -> None:
        self.packets[key] = self.packets.get(key, 0) + packets
        self.bytes[key] = self.bytes.get(key, 0) + byte_count

    def total_bytes(self) -> int:
        return sum(self.bytes.values())

    def total_packets(self) -> int:
        return sum(self.packets.values())

    def bytes_for(self, key: tuple) -> int:
        return self.bytes.get(key, 0)

    @property
    def entities(self) -> int:
        return len(self.bytes)


class PacketAccountant:
    """Per-packet accounting: exact, and paid for on every packet."""

    def __init__(self, node: Node, *, granularity: int = 16):
        self.node = node
        self.granularity = granularity
        self.ledger = Ledger()
        self.lookups = 0        # cost proxy: one table operation per packet
        node.forward_inspectors.append(self._account)

    def _account(self, datagram: Datagram) -> None:
        self.lookups += 1
        key = (str(_entity_of(datagram.src, self.granularity)),
               str(_entity_of(datagram.dst, self.granularity)))
        self.ledger.charge(key, 1, datagram.total_length)

    @property
    def state_entries(self) -> int:
        return self.ledger.entities


@dataclass
class FlowRecord:
    """One flow's aggregated usage, exported at flow end."""

    src: Address
    dst: Address
    protocol: int
    first_seen: float
    last_seen: float
    packets: int
    bytes: int


class FlowAccountant:
    """Flow-granularity accounting with idle-timeout export.

    Active state is bounded by concurrent flows, not by history; the
    ledger receives a record when the flow goes idle — the shape the paper
    suggests ("accounting ... better matched to the flows").
    """

    def __init__(self, node: Node, *, granularity: int = 16,
                 idle_timeout: float = 10.0, sweep_interval: float = 2.0):
        self.node = node
        self.granularity = granularity
        self.idle_timeout = idle_timeout
        self.ledger = Ledger()
        self.active: dict[tuple, FlowRecord] = {}
        self.records_exported = 0
        self.lookups = 0
        self.peak_active = 0
        node.forward_inspectors.append(self._account)
        self._sweeper = PeriodicProcess(node.sim, sweep_interval, self._sweep,
                                        label="acct:sweep")
        self._sweeper.start()

    def _account(self, datagram: Datagram) -> None:
        self.lookups += 1
        key = (datagram.src._value, datagram.dst._value, datagram.protocol)
        record = self.active.get(key)
        now = self.node.sim._now
        if record is None:
            record = FlowRecord(datagram.src, datagram.dst, datagram.protocol,
                                now, now, 0, 0)
            self.active[key] = record
            self.peak_active = max(self.peak_active, len(self.active))
        record.last_seen = now
        record.packets += 1
        record.bytes += IP_HEADER_LEN + len(datagram.payload)

    def _sweep(self) -> None:
        now = self.node.sim.now
        for key, record in list(self.active.items()):
            if now - record.last_seen >= self.idle_timeout:
                self._export(key, record)

    def _export(self, key: tuple, record: FlowRecord) -> None:
        del self.active[key]
        self.records_exported += 1
        entity = (str(_entity_of(record.src, self.granularity)),
                  str(_entity_of(record.dst, self.granularity)))
        self.ledger.charge(entity, record.packets, record.bytes)

    def flush(self) -> None:
        """Export every active flow now (end-of-experiment settlement)."""
        for key, record in list(self.active.items()):
            self._export(key, record)

    def finalize(self) -> None:
        """End-of-campaign settlement: export the open records and stop
        the sweeper.

        Without this, every flow still inside its idle timeout when the
        experiment ends vanishes from the ledger — exactly the long-lived
        bulk transfers a billing dispute would be about.  Idempotent;
        campaigns call it once before reading the ledger.
        """
        self.flush()
        if self._sweeper.running:
            self._sweeper.stop()

    @property
    def state_entries(self) -> int:
        return len(self.active)


class SamplingAccountant:
    """1-in-N packet sampling, counts scaled by N on the ledger.

    Bias bound: the sampler charges in whole multiples of ``N`` packets,
    so a flow of ``n`` packets is billed between ``0`` and
    ``n + (N - 1)`` of them — an absolute error of at most ``N - 1``
    packets (and ``(N - 1) * max_packet_size`` bytes) per entity pair
    between settlements.  Relative error therefore falls as ``(N-1)/n``:
    negligible for bulk flows, but a short flow with fewer than ``N``
    packets may be billed nothing at all or up to ``N`` packets
    depending on where it lands in the sampling phase.  E7 measures
    this; campaigns that bill short flows should use the flow or packet
    accountant instead.
    """

    def __init__(self, node: Node, *, granularity: int = 16, sample_every: int = 10):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.node = node
        self.granularity = granularity
        self.sample_every = sample_every
        self.ledger = Ledger()
        self.lookups = 0
        self._counter = 0
        node.forward_inspectors.append(self._account)

    def _account(self, datagram: Datagram) -> None:
        self._counter += 1
        if self._counter % self.sample_every:
            return
        self.lookups += 1
        key = (str(_entity_of(datagram.src, self.granularity)),
               str(_entity_of(datagram.dst, self.granularity)))
        self.ledger.charge(key, self.sample_every,
                           datagram.total_length * self.sample_every)
