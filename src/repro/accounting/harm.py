"""Harm attribution: who is *costing* the network, not just using it.

Goal-7 accounting (:mod:`.ledger`) answers "how many bytes did AS 3 send
through me?".  During a congestion collapse that is the wrong question —
the interesting ledger is how many of those bytes were *waste*: TCP
retransmissions of data the gateway already carried (RFC 896's "datagrams
repeated several times"), and open-loop traffic that never backs off no
matter what the network signals.  The collapse campaign charges that harm
per source AS, which is what lets the report say "the misbehaving ASes
caused the majority of duplicate bytes" instead of merely "the link was
busy".

:class:`HarmAccountant` rides the same forwarding-inspector hook as the
goal-7 accountants, on an AS hub gateway, and watches only *transit*
traffic — datagrams whose destination lies outside the hub's own AS
prefix, i.e. the stream crossing the inter-AS bottleneck.  Duplicate
detection parses the TCP header and keeps one high-water sequence mark
per flow: a segment whose range was already covered is a retransmission,
byte for byte.  (Go-back-N senders retransmit in-order, so a partially
new segment is split into its repeated and fresh parts.)

The displaced-goodput settlement — how much conforming throughput the
waste crowded out — needs the whole campaign's numbers, so it lives in
the pure helper :func:`displaced_goodput` rather than on the inspector.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from ..ip.address import Address, Prefix
from ..ip.node import Node
from ..ip.packet import IP_HEADER_LEN, PROTO_TCP, PROTO_UDP, Datagram
from ..tcp.segment import seq_add, seq_sub

__all__ = ["HarmAccountant", "HarmEntry", "displaced_goodput"]


@dataclass
class HarmEntry:
    """Transit-byte classes charged to one source entity (an AS prefix)."""

    forwarded_packets: int = 0
    forwarded_bytes: int = 0
    #: TCP payload bytes the hub had already carried for the same flow.
    duplicate_bytes: int = 0
    #: Bytes from senders with no feedback loop at all (UDP).
    open_loop_bytes: int = 0

    def to_dict(self) -> dict:
        return {
            "forwarded_packets": self.forwarded_packets,
            "forwarded_bytes": self.forwarded_bytes,
            "duplicate_bytes": self.duplicate_bytes,
            "open_loop_bytes": self.open_loop_bytes,
        }


class HarmAccountant:
    """Per-source-AS waste ledger on one transit gateway.

    Parameters
    ----------
    node:
        The hub gateway whose forwarded traffic is inspected.
    local_prefix:
        The hub's own AS prefix; datagrams destined *inside* it are local
        delivery, not transit, and are ignored.
    granularity:
        Prefix length of the billable entity (16 = one entry per AS in
        the 10.x.0.0/16 scale topology).
    """

    def __init__(self, node: Node, local_prefix: Prefix, *,
                 granularity: int = 16):
        self.node = node
        self.local_prefix = local_prefix
        self.granularity = granularity
        self.entries: dict[str, HarmEntry] = {}
        # Per packet the inspector works on integers: the transit test is
        # one mask and compare, and an entity's entry is found by its
        # masked source value; the Prefix and its string key are built
        # once, when the entity first appears.
        self._local_mask = local_prefix._mask_int()
        self._local_network = local_prefix.network._value
        self._entity_mask = Prefix(Address(0), granularity)._mask_int()
        self._by_entity: dict[int, HarmEntry] = {}
        #: (src, dst, src_port, dst_port) -> highest end-seq carried.
        self._flow_high: dict[tuple, int] = {}
        node.forward_inspectors.append(self._inspect)
        # Advertised for netmgmt: build_mib() exposes a `collapse` MIB
        # subtree on any node carrying harm accountants.
        accountants = getattr(node, "harm_accountants", None)
        if accountants is None:
            accountants = []
            node.harm_accountants = accountants  # type: ignore[attr-defined]
        accountants.append(self)

    # ------------------------------------------------------------------
    def _entry_for(self, src: Address) -> HarmEntry:
        key = str(Prefix.of(src, self.granularity))
        entry = self.entries.get(key)
        if entry is None:
            entry = HarmEntry()
            self.entries[key] = entry
        return entry

    def _inspect(self, datagram: Datagram) -> None:
        if datagram.dst._value & self._local_mask == self._local_network:
            return  # local delivery, not transit
        entity = datagram.src._value & self._entity_mask
        entry = self._by_entity.get(entity)
        if entry is None:
            entry = self._by_entity[entity] = self._entry_for(datagram.src)
        length = IP_HEADER_LEN + len(datagram.payload)
        entry.forwarded_packets += 1
        entry.forwarded_bytes += length
        if datagram.protocol == PROTO_UDP:
            entry.open_loop_bytes += length
        elif datagram.protocol == PROTO_TCP and datagram.fragment_offset == 0:
            self._inspect_tcp(datagram, entry)

    def _inspect_tcp(self, datagram: Datagram, entry: HarmEntry) -> None:
        payload = datagram.payload
        if len(payload) < 16:
            return
        src_port, dst_port, seq = struct.unpack_from("!HHI", payload)
        offset = (payload[12] >> 4) * 4
        data_len = len(payload) - offset
        if data_len <= 0:
            return  # pure ACK / control — nothing to duplicate
        key = (datagram.src._value, datagram.dst._value, src_port, dst_port)
        end = seq_add(seq, data_len)
        high = self._flow_high.get(key)
        if high is None:
            self._flow_high[key] = end
            return
        if seq_sub(end, high) <= 0:
            # Entirely below the high-water mark: all repeated bytes.
            entry.duplicate_bytes += data_len
            return
        repeated = seq_sub(high, seq)
        if repeated > 0:
            # Straddles the mark (go-back-N tail): only the covered
            # prefix is waste.
            entry.duplicate_bytes += min(repeated, data_len)
        self._flow_high[key] = end

    # ------------------------------------------------------------------
    def counters(self) -> dict:
        """Aggregate totals (the `collapse` MIB subtree's scalars)."""
        return {
            "forwarded_packets": sum(e.forwarded_packets
                                     for e in self.entries.values()),
            "forwarded_bytes": sum(e.forwarded_bytes
                                   for e in self.entries.values()),
            "duplicate_bytes": sum(e.duplicate_bytes
                                   for e in self.entries.values()),
            "open_loop_bytes": sum(e.open_loop_bytes
                                   for e in self.entries.values()),
            "tracked_flows": len(self._flow_high),
        }

    def to_dict(self) -> dict:
        return {src: entry.to_dict()
                for src, entry in sorted(self.entries.items())}


def displaced_goodput(baseline_goodput: dict[str, float],
                      observed_goodput: dict[str, float]) -> dict[str, float]:
    """Goodput each conforming entity lost relative to its baseline.

    A pure end-of-campaign settlement: ``baseline`` is the per-entity
    goodput of the all-conforming control leg, ``observed`` the same
    entities under the mixed ecology.  The shortfall — never negative —
    is the harm the waste traffic displaced.
    """
    return {
        entity: max(0.0, baseline_goodput[entity]
                    - observed_goodput.get(entity, 0.0))
        for entity in baseline_goodput
    }
