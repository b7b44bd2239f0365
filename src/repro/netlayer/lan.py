"""Ethernet-like local area network: a multi-access broadcast bus.

Goal 3's "variety of networks" explicitly includes LANs.  The bus model
serializes each transmission at the shared bandwidth, supports broadcast, and
delivers to the attached interface holding the next-hop address — address
resolution is by direct lookup, standing in for ARP (see
:mod:`repro.ip.arp` for the explicit-protocol variant used by the tests).
"""

from __future__ import annotations

from typing import Optional

from ..ip.address import Address, Prefix
from ..ip.packet import Datagram
from ..sim.engine import Simulator
from .link import Interface, Medium, _Channel
from .loss import LossModel

__all__ = ["LanBus"]


class LanBus(Medium):
    """A shared-medium LAN segment with any number of attached interfaces.

    Ethernet-era parameters by default: 10 Mb/s, 1500-byte MTU, microsecond
    propagation.  Each transmission occupies the single shared channel
    (half-duplex bus), so concurrent senders queue behind one another.
    """

    FRAME_OVERHEAD = 18  # Ethernet II header + FCS

    def __init__(
        self,
        sim: Simulator,
        prefix: Prefix,
        *,
        bandwidth_bps: float = 10_000_000.0,
        delay: float = 50e-6,
        mtu: int = 1500,
        queue_limit: int = 128,
        loss: Optional[LossModel] = None,
        rng=None,
        name: str = "lan",
    ):
        super().__init__(sim, bandwidth_bps=bandwidth_bps, delay=delay,
                         mtu=mtu, queue_limit=queue_limit, loss=loss, rng=rng,
                         name=name)
        self.prefix = prefix
        # Computed once: Prefix.broadcast allocates per call and _land
        # compares every frame's next hop with it, as integers.
        self._broadcast_value = prefix.broadcast._value
        self._label = f"lan:{name}"
        self._interfaces: dict[int, Interface] = {}
        self._bus = _Channel(shared=True)

    # ------------------------------------------------------------------
    def attach(self, iface: Interface) -> None:
        """Attach an interface; its address must lie inside the LAN prefix."""
        if not self.prefix.contains(iface.address):
            raise ValueError(f"{iface.address} not in LAN prefix {self.prefix}")
        key = int(iface.address)
        if key in self._interfaces:
            raise ValueError(f"duplicate LAN address {iface.address}")
        self._interfaces[key] = iface
        self._channels[iface] = self._bus
        iface.medium = self

    def detach(self, iface: Interface) -> None:
        self._interfaces.pop(int(iface.address), None)
        self._channels.pop(iface, None)
        iface.medium = None

    def resolve(self, address: Address) -> Optional[Interface]:
        """On-link address resolution (the ARP stand-in)."""
        return self._interfaces.get(int(address))

    def _land(self, sender: Interface, to: Address,
              datagram: Datagram) -> None:
        value = to._value
        if value == 0xFFFFFFFF or value == self._broadcast_value:
            for iface in list(self._interfaces.values()):
                if iface is not sender:
                    iface.deliver(datagram)
            return
        receiver = self._interfaces.get(value)
        if receiver is None or receiver is sender:
            # Nobody holds that address — silently discarded, as on a real
            # LAN where ARP would have failed.
            sender.stats.packets_lost += 1
            return
        receiver.deliver(datagram)

    def __repr__(self) -> str:
        return (
            f"<LanBus {self.name} {self.prefix} {self.bandwidth_bps/1e6:.0f}Mb/s "
            f"hosts={len(self._interfaces)}>"
        )
