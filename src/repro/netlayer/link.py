"""Interfaces and point-to-point links.

This is the lowest concrete layer: an :class:`Interface` belongs to a node
and attaches to a medium; a :class:`PointToPointLink` is the simplest medium.
Richer media (LAN bus, satellite broadcast, packet radio, X.25 subnet) build
on the same contract:

* the node hands the interface's medium a datagram plus the next-hop
  address (:meth:`Medium.transmit`, or :meth:`Interface.output` from a
  caller that holds only the interface);
* the medium charges serialization time against the interface's transmit
  queue, applies propagation delay / jitter / loss, and delivers to the
  remote interface;
* the remote interface hands the datagram up to its node
  (``node.datagram_arrived(datagram, iface)``).

Failure injection (experiment E1) flips :attr:`Link.up`; packets queued or
in flight on a down link are lost — exactly the event the architecture's
fate-sharing is designed to survive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

from ..ip.address import Address, Prefix
from ..ip.packet import Datagram, IP_HEADER_LEN, TOS_CE, TOS_ECT
from ..sim.engine import Simulator
from .loss import LossModel

if TYPE_CHECKING:  # pragma: no cover
    from ..ip.node import Node

__all__ = ["Interface", "Medium", "PointToPointLink", "LinkStats"]


def _obs_of(iface: "Interface"):
    """Resolve the enabled Observability layer for an interface's node.

    Returns None when no layer is installed *or* it is disabled, so media
    hot paths pay two attribute loads and at most one boolean check.
    """
    node = iface.node
    if node is None:
        return None
    obs = node.obs
    if obs is not None and not obs.enabled:
        return None
    return obs


@dataclass
class LinkStats:
    """Per-direction transmission counters (feeds goal-5 cost accounting)."""

    packets_sent: int = 0
    bytes_sent: int = 0
    packets_delivered: int = 0
    packets_lost: int = 0
    packets_dropped_queue: int = 0
    packets_dropped_down: int = 0
    link_header_bytes: int = 0


class Interface:
    """A node's attachment point to one network.

    Carries the node's address *on that network* and the network prefix —
    the paper's "addresses reflect connectivity".
    """

    def __init__(self, name: str, address: Address, prefix: Prefix):
        if not prefix.contains(address):
            raise ValueError(f"{address} not inside {prefix}")
        self.name = name
        self.address = address
        self.prefix = prefix
        #: The prefix's directed-broadcast address, computed once:
        #: ``Prefix.broadcast`` builds a fresh :class:`Address` per call,
        #: and the node's per-arrival "is this for me?" check compares
        #: against this one's integer value.
        self.broadcast_address = prefix.broadcast
        self.node: Optional["Node"] = None
        self.medium: Optional[Medium] = None
        self.stats = LinkStats()
        #: Called with the dropped datagram when the medium's transmit
        #: queue overflows — the hook the 1988 Source Quench congestion
        #: signal hangs off (see repro.ip.quench).
        self.on_queue_drop: Optional[Callable[[Datagram], None]] = None

    def record_drop(self, datagram: Datagram, reason: str,
                    detail) -> None:
        """Name a datagram's death at this interface in its journey (a
        no-op unless observability is on); counters are the caller's."""
        obs = _obs_of(self)
        if obs is not None:
            obs.drop(self.node.sim.now, self.node.name, reason, datagram,
                     detail)

    def notify_queue_drop(self, datagram: Datagram,
                          reason: str = "drop-queue-full",
                          detail=None) -> None:
        """The transmit queue refused a packet from this side: a tail drop,
        or a queueing discipline's early or per-flow drop."""
        self.stats.packets_dropped_queue += 1
        self.record_drop(datagram, reason,
                         self.name if detail is None else detail)
        if self.on_queue_drop is not None:
            self.on_queue_drop(datagram)

    @property
    def mtu(self) -> int:
        """MTU of the attached medium (the per-network packet size limit
        that forces fragmentation, paper §6)."""
        if self.medium is None:
            raise RuntimeError(f"interface {self.name} not attached")
        return self.medium.mtu

    @property
    def up(self) -> bool:
        return self.medium is not None and self.medium.is_up()

    def output(self, datagram: Datagram, next_hop: Optional[Address] = None) -> None:
        """Send a datagram toward ``next_hop`` (None = on-link destination)."""
        if self.medium is None:
            raise RuntimeError(f"interface {self.name} not attached")
        self.medium.transmit(self, datagram, next_hop)

    def deliver(self, datagram: Datagram) -> None:
        """Called by the medium when a datagram arrives for this interface."""
        self.stats.packets_delivered += 1
        if self.node is not None:
            self.node.datagram_arrived(datagram, self)

    def __repr__(self) -> str:
        return f"<Interface {self.name} {self.address} on {self.prefix}>"


class _Channel:
    """One transmitter: the serializer frames queue behind, one at a time,
    under one discipline — drop-tail (optionally RED-fronted) or DRR."""

    __slots__ = ("busy_until", "queued", "red", "far", "shared", "drr",
                 "release", "releasing")

    def __init__(self, far: Optional[Interface] = None, shared: bool = False):
        #: Time the transmitter frees up.
        self.busy_until = 0.0
        #: Frames admitted and not yet arrived.
        self.queued = 0
        #: Optional RED early-drop/ECN-mark state (see
        #: :meth:`Medium.enable_red`).  None = drop-tail.
        self.red = None
        #: The one interface this transmitter feeds; None where each frame
        #: is addressed (a bus) or leaves the simulator (a conduit).
        self.far = far
        #: Several interfaces send through this channel (a bus).
        self.shared = shared
        #: Optional DRR discipline holding frames until the serializer
        #: frees (see :meth:`Medium.enable_drr`), the event callback that
        #: releases the next one, and whether that event is pending.
        self.drr = None
        self.release = None
        self.releasing = False


class Medium:
    """What an interface attaches to, and the one way across it.

    Every network the internet runs over is this traversal — admit to a
    transmitter, serialize at ``bandwidth_bps``, propagate for ``delay``,
    maybe lose, land — which is all goal 3 lets IP assume.  A transmitter
    admits by drop-tail (RED-fronted if enabled) or hands the frame to a
    DRR discipline, which holds it until the serializer frees.  A concrete
    medium declares only how it differs:

    * :attr:`FRAME_OVERHEAD`, its link-layer framing;
    * which :class:`_Channel` each attached interface transmits through
      (``_channels``): its own (a wire's two ends) or one shared by all
      (a bus);
    * optionally :meth:`_in_flight`, what happens to a frame between the
      serializer and the far end (jitter, internal retransmission, or
      leaving for another shard's outbox);
    * :meth:`_land`, where a frame that survived the trip goes.

    ``loss`` is the wire's :class:`~repro.netlayer.loss.LossModel`; None
    (the default) is a lossless wire, on which an arrival consults no
    model at all.
    """

    #: Link-layer framing overhead charged per packet.
    FRAME_OVERHEAD = 0

    #: ``_in_flight(channel, datagram, arrival) -> arrival``: called once
    #: per admitted frame with its nominal arrival instant; returns the
    #: actual one.  None = the wire neither delays nor diverts frames.
    _in_flight: Optional[Callable] = None

    def __init__(
        self,
        sim: Simulator,
        *,
        bandwidth_bps: float,
        delay: float,
        mtu: int,
        queue_limit: int = 64,
        loss: Optional[LossModel] = None,
        rng=None,
        name: str,
    ):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if mtu < 68:
            # RFC 791 minimum: every net must carry 68 bytes unfragmented.
            raise ValueError(f"mtu {mtu} below the architectural minimum of 68")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.delay = delay
        self.mtu = mtu
        self.queue_limit = queue_limit
        self.loss = loss
        # A deterministic default stream; experiments pass their own stream
        # from RandomStreams so runs are reproducible and paired.
        self.rng = rng if rng is not None else random.Random(0)
        self.name = name
        #: Event label of every arrival on this medium (read by the tracer
        #: and profiler only), built once rather than per packet.
        self._label = f"link:{name}"
        self._up = True
        #: Sending interface -> the transmitter it queues on.
        self._channels: dict[Interface, _Channel] = {}
        #: Bumped on every administrative *down*.  Packets in flight carry
        #: the epoch they were transmitted under; a stale epoch at arrival
        #: time means the link went down while they were on the wire, so
        #: they were flushed and must not be resurrected even if the link
        #: is back up by their scheduled arrival.
        self._epoch = 0

    # ------------------------------------------------------------------
    def is_up(self) -> bool:
        return self._up

    def set_up(self, up: bool) -> None:
        """Administratively raise/lower the medium.  Lowering it flushes
        every transmit queue and everything in flight (those packets are
        gone — datagrams are not a guaranteed service); the epoch bump
        makes sure a down→up flap cannot resurrect them."""
        if not up and self._up:
            self._epoch += 1
            for iface, chan in self._channels.items():
                chan.busy_until = self.sim.now
                # Flushed packets are accounted, not silently vanished:
                # they died because the link was administratively down.
                # A channel with one sender charges it here; a shared one
                # cannot tell whose frames it held, so each is charged to
                # its sender when it fails to arrive (see _arrive).
                if not chan.shared:
                    iface.stats.packets_dropped_down += chan.queued
                chan.queued = 0
                # Frames a discipline holds die with the queue too.
                if chan.drr is not None:
                    iface.stats.packets_dropped_down += chan.drr.flush(
                        "drop-link-down")
        self._up = up

    def enable_red(self, iface: Interface, red) -> None:
        """Put a :class:`~repro.netlayer.red.RedState` in front of the
        transmit queue ``iface`` sends through.  Arrivals consult RED
        *before* the drop-tail check: an early drop fires the same
        ``notify_queue_drop`` hook as a tail drop (so Source Quench and
        drop accounting see it), while an ECT arrival is CE-marked and
        admitted instead."""
        if iface not in self._channels:
            raise ValueError(f"{iface} is not attached to {self.name}")
        self._channels[iface].red = red

    def enable_drr(self, iface: Interface, drr) -> None:
        """Make ``drr`` (a :class:`~repro.flows.scheduler.DrrScheduler`)
        the discipline of the transmitter ``iface`` sends through.  It
        holds every admitted frame; the medium releases its pick one at a
        time, the instant the serializer frees, so the frame on the wire
        is the only one past the discipline."""
        chan = self._channels.get(iface)
        if chan is None or chan.shared:
            raise ValueError(
                f"{iface} has no transmitter of its own on {self.name}")
        chan.drr = drr
        chan.release = partial(self._release, chan, iface)

    # ------------------------------------------------------------------
    def transmit(self, iface: Interface, datagram: Datagram,
                 next_hop: Optional[Address]) -> None:
        """Admit a datagram to the transmitter ``iface`` sends through."""
        if not self._up:
            iface.stats.packets_dropped_down += 1
            iface.record_drop(datagram, "drop-link-down", self.name)
            return
        chan = self._channels[iface]
        drr = chan.drr
        if drr is not None:
            # Busy means a release is pending, not busy_until > now: a
            # frame arriving the instant the serializer frees joins the
            # round the release is about to pick from.
            if drr.enqueue(datagram, next_hop) and not chan.releasing:
                self._release(chan, iface)
            return
        red = chan.red
        if red is not None:
            verdict = red.on_enqueue(chan.queued, self.sim.now,
                                     ect=bool(datagram.tos & TOS_ECT))
            if verdict == "drop":
                iface.notify_queue_drop(datagram)
                return
            if verdict == "mark":
                datagram.tos |= TOS_CE
        if chan.queued >= self.queue_limit:
            iface.notify_queue_drop(datagram)
            return
        self._serialize(chan, iface, datagram, next_hop)

    def _release(self, chan: _Channel, iface: Interface) -> None:
        """The serializer is free: put the discipline's next pick on it,
        and come back the instant that frame is clocked out."""
        released = chan.drr.dequeue()
        if released is None:
            chan.releasing = False
            return
        chan.releasing = True
        self._serialize(chan, iface, *released)
        self.sim.post_at(chan.busy_until, chan.release, label="drr:release")

    def _serialize(self, chan: _Channel, iface: Interface,
                   datagram: Datagram, next_hop: Optional[Address]) -> None:
        """Clock an admitted frame out behind the ones ahead of it and
        post its arrival wherever it lands."""
        now = self.sim._now
        length = IP_HEADER_LEN + len(datagram.payload)
        tx_time = (length + self.FRAME_OVERHEAD) * 8.0 / self.bandwidth_bps
        start = chan.busy_until
        if start < now:
            start = now
        chan.busy_until = start + tx_time
        chan.queued += 1
        iface.stats.packets_sent += 1
        iface.stats.bytes_sent += length
        iface.stats.link_header_bytes += self.FRAME_OVERHEAD

        arrival = start + tx_time + self.delay
        if self._in_flight is not None:
            arrival = self._in_flight(chan, datagram, arrival)
        node = iface.node
        obs = None if node is None else node.obs
        if obs is not None and obs.enabled:
            # Dwell breakdown: time waiting behind earlier frames, time on
            # the serializer, time in flight (propagation + whatever
            # _in_flight added).
            obs.link_hop(now, node.name, datagram, start - now,
                         tx_time, arrival - start - tx_time, self.name)
        # A wire has one far end; elsewhere the frame is addressed to the
        # next hop (on-link destinations are their own next hop).
        to = chan.far
        if to is None:
            to = next_hop if next_hop is not None else datagram.dst
        # Fire-and-forget: packet arrivals are never cancelled, so they
        # need no handle (and a partial fires without a frame of its own).
        self.sim.post_at(
            arrival,
            partial(self._arrive, chan, iface, to, datagram, self._epoch),
            label=self._label,
        )

    def _arrive(self, chan: _Channel, sender: Interface, to,
                datagram: Datagram, epoch: int) -> None:
        if epoch != self._epoch:
            # The link went down (and possibly came back) after this packet
            # was transmitted: it was flushed.  set_up already counted it
            # in packets_dropped_down unless the channel is shared.
            if chan.shared:
                sender.stats.packets_dropped_down += 1
            return
        if chan.queued:
            chan.queued -= 1
        loss = self.loss
        if loss is not None and loss.lose(
                self.rng, IP_HEADER_LEN + len(datagram.payload)):
            sender.stats.packets_lost += 1
            sender.record_drop(datagram, "drop-link-loss", self.name)
            return
        self._land(sender, to, datagram)

    def _land(self, sender: Interface, to, datagram: Datagram) -> None:
        raise NotImplementedError


class PointToPointLink(Medium):
    """A serial line between exactly two interfaces.

    Models bandwidth (store-and-forward serialization), fixed propagation
    delay, a finite drop-tail output queue per direction, a loss model,
    and administrative up/down for failure injection.  This is the
    workhorse "ARPANET trunk" substitute.
    """

    FRAME_OVERHEAD = 8  # HDLC-ish

    def __init__(
        self,
        sim: Simulator,
        a: Interface,
        b: Interface,
        *,
        bandwidth_bps: float = 56_000.0,   # the classic ARPANET trunk rate
        delay: float = 0.005,
        mtu: int = 1006,                   # ARPANET-era maximum
        queue_limit: int = 64,
        loss: Optional[LossModel] = None,
        rng=None,
        name: str = "",
    ):
        super().__init__(sim, bandwidth_bps=bandwidth_bps, delay=delay,
                         mtu=mtu, queue_limit=queue_limit, loss=loss, rng=rng,
                         name=name or f"{a.name}<->{b.name}")
        self.ends = (a, b)
        self._channels = {a: _Channel(far=b), b: _Channel(far=a)}
        a.medium = self
        b.medium = self

    def _land(self, sender: Interface, to: Interface,
              datagram: Datagram) -> None:
        to.deliver(datagram)

    def __repr__(self) -> str:
        return (
            f"<PointToPointLink {self.name} {self.bandwidth_bps/1000:.0f}kb/s "
            f"{self.delay*1000:.1f}ms mtu={self.mtu} up={self._up}>"
        )
