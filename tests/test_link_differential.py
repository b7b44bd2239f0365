"""The one link traversal is differential against the four it replaced.

``Medium.transmit``/``_arrive`` (DESIGN §7, "The medium contract") is the
only serialisation/admission arithmetic in the tree.  The four bodies it
replaced — ``PointToPointLink`` (with its ``jitter_fn`` option),
``X25Subnet.transmit``, ``LanBus.transmit``/``_arrive`` and
``ConduitPort.transmit`` — are kept here, verbatim from the parent commit,
as oracles.  Random programs (bursts of 0-1480 B from either end, queue
limits 1-8, time advancing, the medium lowered and raised with frames in
flight, RED on or off, loss models, radio/satellite/X.25 parameters, LAN
unicast/broadcast/unknown targets) run on an oracle world and a live world
side by side and must agree with ``==``, never ``approx``: every arrival
time and its order, every ``LinkStats`` field after every operation, every
``on_queue_drop`` call, and the state of every random stream (so the draw
count too).

The only places the live code may differ are the four fixes the refactor
made, each marked ``LISTED EXCEPTION`` below:

1. ``X25Subnet.enable_red`` is honoured (the oracle's ``transmit`` gets
   p2p's RED clause, which is a no-op whenever RED is off);
2. a transmit onto a down ``LanBus`` records a journey drop (not visible
   here: no stats differ);
3. a conduit admits, tail-drops and lowers like a link, so beyond the
   verbatim ``ConduitPort`` oracle (unbounded, always up) it is compared
   to the oracle ``PointToPointLink`` — the same link in one process;
4. a conduit crossing gets its ``link_hop`` span (not visible here).

The oracles keep the parent's ``loss or NoLoss()`` and its ``max(0, ...)``
queue clamp; the live ``Medium`` leaves ``loss`` None on a lossless wire
and consults no model there, so the loss strategy hands both sides None
and ``NoLoss()`` alike and both spellings must agree with the oracle.

The drain tests at the end are a conservation audit of one traversal per
medium: with the medium kept up, once the simulator is quiescent every
transmitter's queue is empty, and every unicast frame a sender clocked out
was either delivered or counted lost.
"""

import random
from dataclasses import asdict
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.flows.scheduler import DrrScheduler
from repro.ip.address import Address, Prefix
from repro.ip.packet import (Datagram, IP_HEADER_LEN, PROTO_UDP, TOS_CE,
                             TOS_ECT)
from repro.netlayer.lan import LanBus
from repro.netlayer.link import Interface, PointToPointLink, _obs_of
from repro.netlayer.loss import BernoulliLoss, GilbertElliottLoss, NoLoss
from repro.netlayer.radio import PacketRadioLink
from repro.netlayer.red import RedParams, RedState
from repro.netlayer.satellite import SatelliteLink
from repro.netlayer.x25 import X25Subnet
from repro.sim.engine import Simulator
from repro.sim.shard import ConduitPort, _to_wire

PREFIX = Prefix.parse("10.0.1.0/24")


# ----------------------------------------------------------------------
# The oracles: the four traversal bodies, verbatim from the parent commit
# (constructor validation, __repr__ and LAN attach checks trimmed)
# ----------------------------------------------------------------------
class OraclePointToPointLink:
    FRAME_OVERHEAD = 8

    def __init__(self, sim, a, b, *, bandwidth_bps=56_000.0, delay=0.005,
                 mtu=1006, queue_limit=64, loss=None, jitter_fn=None,
                 rng=None, name=""):
        self.sim = sim
        self.ends = (a, b)
        self.bandwidth_bps = bandwidth_bps
        self.delay = delay
        self.mtu = mtu
        self.queue_limit = queue_limit
        self.loss = loss or NoLoss()
        self.jitter_fn = jitter_fn
        self.rng = rng if rng is not None else random.Random(0)
        self.name = name or f"{a.name}<->{b.name}"
        self._label = f"link:{self.name}"
        self._up = True
        self._busy_until = {a: 0.0, b: 0.0}
        self._queued = {a: 0, b: 0}
        self._epoch = 0
        self._red = {}
        a.medium = self
        b.medium = self

    def is_up(self) -> bool:
        return self._up

    def set_up(self, up: bool) -> None:
        if not up and self._up:
            self._epoch += 1
            for iface in self.ends:
                self._busy_until[iface] = self.sim.now
                iface.stats.packets_dropped_down += self._queued[iface]
                self._queued[iface] = 0
        self._up = up

    def enable_red(self, iface, red) -> None:
        if iface not in self.ends:
            raise ValueError(f"{iface} is not attached to {self.name}")
        self._red[iface] = red

    def other_end(self, iface):
        a, b = self.ends
        if iface is a:
            return b
        if iface is b:
            return a
        raise ValueError(f"{iface} is not attached to {self.name}")

    def transmit(self, iface, datagram, next_hop) -> None:
        if not self._up:
            iface.stats.packets_dropped_down += 1
            obs = _obs_of(iface)
            if obs is not None and iface.node is not None:
                obs.drop(self.sim.now, iface.node.name, "drop-link-down",
                         datagram, self.name)
            return
        red = self._red.get(iface)
        if red is not None:
            verdict = red.on_enqueue(self._queued[iface], self.sim.now,
                                     ect=bool(datagram.tos & TOS_ECT))
            if verdict == "drop":
                iface.notify_queue_drop(datagram)
                return
            if verdict == "mark":
                datagram.tos |= TOS_CE
        if self._queued[iface] >= self.queue_limit:
            iface.notify_queue_drop(datagram)
            return
        length = IP_HEADER_LEN + len(datagram.payload)
        tx_time = (length + self.FRAME_OVERHEAD) * 8.0 / self.bandwidth_bps
        start = max(self.sim.now, self._busy_until[iface])
        self._busy_until[iface] = start + tx_time
        self._queued[iface] += 1
        iface.stats.packets_sent += 1
        iface.stats.bytes_sent += length
        iface.stats.link_header_bytes += self.FRAME_OVERHEAD

        arrival = start + tx_time + self.delay
        if self.jitter_fn is not None:
            arrival += max(0.0, self.jitter_fn())
        obs = _obs_of(iface)
        if obs is not None and iface.node is not None:
            now = self.sim.now
            obs.link_hop(now, iface.node.name, datagram, start - now,
                         tx_time, arrival - start - tx_time, self.name)
        self.sim.post_at(
            arrival,
            partial(self._arrive, iface, self.other_end(iface), datagram,
                    self._epoch),
            label=self._label,
        )

    def _arrive(self, sender, remote, datagram, epoch=None) -> None:
        if epoch is not None and epoch != self._epoch:
            return
        self._queued[sender] = max(0, self._queued[sender] - 1)
        if not self._up:
            sender.stats.packets_lost += 1
            obs = _obs_of(sender)
            if obs is not None and sender.node is not None:
                obs.drop(self.sim.now, sender.node.name, "drop-link-down",
                         datagram, f"{self.name} (in flight)")
            return
        if self.loss.lose(self.rng, datagram.total_length):
            sender.stats.packets_lost += 1
            obs = _obs_of(sender)
            if obs is not None and sender.node is not None:
                obs.drop(self.sim.now, sender.node.name, "drop-link-loss",
                         datagram, self.name)
            return
        remote.deliver(datagram)


class OracleSatelliteLink(OraclePointToPointLink):
    FRAME_OVERHEAD = 16

    def __init__(self, sim, a, b, *, bandwidth_bps=64_000.0, delay=0.270,
                 mtu=256, queue_limit=64, loss=None, rng=None, name=""):
        super().__init__(
            sim, a, b, bandwidth_bps=bandwidth_bps, delay=delay, mtu=mtu,
            queue_limit=queue_limit,
            loss=loss if loss is not None else BernoulliLoss(0.001),
            rng=rng, name=name or f"sat:{a.name}<->{b.name}")


class OraclePacketRadioLink(OraclePointToPointLink):
    FRAME_OVERHEAD = 12

    def __init__(self, sim, a, b, *, bandwidth_bps=100_000.0, delay=0.020,
                 mtu=254, queue_limit=32, loss=None, reorder_spread=0.030,
                 rng=None, name=""):
        self.reorder_spread = reorder_spread
        rng = rng if rng is not None else random.Random(0)
        super().__init__(
            sim, a, b, bandwidth_bps=bandwidth_bps, delay=delay, mtu=mtu,
            queue_limit=queue_limit,
            loss=loss if loss is not None else GilbertElliottLoss(
                p_good_to_bad=0.02, p_bad_to_good=0.25,
                loss_good=0.005, loss_bad=0.4,
            ),
            rng=rng, jitter_fn=self._draw_jitter,
            name=name or f"radio:{a.name}<->{b.name}")

    def _draw_jitter(self) -> float:
        if self.reorder_spread <= 0:
            return 0.0
        return self.rng.uniform(0.0, self.reorder_spread)


class OracleX25Subnet(OraclePointToPointLink):
    FRAME_OVERHEAD = 11

    def __init__(self, sim, a, b, *, bandwidth_bps=48_000.0, delay=0.040,
                 mtu=576, queue_limit=64, internal_retx_prob=0.02,
                 internal_retx_delay=0.150, rng=None, name=""):
        self.internal_retx_prob = internal_retx_prob
        self.internal_retx_delay = internal_retx_delay
        super().__init__(
            sim, a, b, bandwidth_bps=bandwidth_bps, delay=delay, mtu=mtu,
            queue_limit=queue_limit, loss=NoLoss(), rng=rng,
            name=name or f"x25:{a.name}<->{b.name}")
        self._label = f"x25:{self.name}"
        self._last_arrival = {a: 0.0, b: 0.0}

    def transmit(self, iface, datagram, next_hop) -> None:
        if not self._up:
            iface.stats.packets_dropped_down += 1
            obs = _obs_of(iface)
            if obs is not None and iface.node is not None:
                obs.drop(self.sim.now, iface.node.name, "drop-link-down",
                         datagram, self.name)
            return
        # LISTED EXCEPTION 1: the parent had no RED clause here, so
        # enable_red() was accepted and ignored.  This is p2p's, verbatim;
        # with RED off it does nothing and the body is the parent's.
        red = self._red.get(iface)
        if red is not None:
            verdict = red.on_enqueue(self._queued[iface], self.sim.now,
                                     ect=bool(datagram.tos & TOS_ECT))
            if verdict == "drop":
                iface.notify_queue_drop(datagram)
                return
            if verdict == "mark":
                datagram.tos |= TOS_CE
        if self._queued[iface] >= self.queue_limit:
            iface.notify_queue_drop(datagram)
            return
        length = IP_HEADER_LEN + len(datagram.payload)
        tx_time = (length + self.FRAME_OVERHEAD) * 8.0 / self.bandwidth_bps
        start = max(self.sim.now, self._busy_until[iface])
        self._busy_until[iface] = start + tx_time
        self._queued[iface] += 1
        iface.stats.packets_sent += 1
        iface.stats.bytes_sent += length
        iface.stats.link_header_bytes += self.FRAME_OVERHEAD

        extra = 0.0
        while self.rng.random() < self.internal_retx_prob:
            extra += self.internal_retx_delay
        arrival = start + tx_time + self.delay + extra
        arrival = max(arrival, self._last_arrival[iface] + 1e-9)
        self._last_arrival[iface] = arrival
        obs = _obs_of(iface)
        if obs is not None and iface.node is not None:
            now = self.sim.now
            obs.link_hop(now, iface.node.name, datagram, start - now,
                         tx_time, arrival - start - tx_time, self.name)
        self.sim.post_at(
            arrival,
            partial(self._arrive, iface, self.other_end(iface), datagram,
                    self._epoch),
            label=self._label,
        )


class OracleLanBus:
    FRAME_OVERHEAD = 18

    def __init__(self, sim, prefix, *, bandwidth_bps=10_000_000.0,
                 delay=50e-6, mtu=1500, queue_limit=128, loss=None,
                 rng=None, name="lan"):
        self.sim = sim
        self.prefix = prefix
        self._broadcast = prefix.broadcast
        self.bandwidth_bps = bandwidth_bps
        self.delay = delay
        self.mtu = mtu
        self.queue_limit = queue_limit
        self.loss = loss or NoLoss()
        self.rng = rng if rng is not None else random.Random(0)
        self.name = name
        self._label = f"lan:{name}"
        self._up = True
        self._interfaces = {}
        self._channel_busy_until = 0.0
        self._queued = 0
        self._epoch = 0

    def attach(self, iface) -> None:
        self._interfaces[int(iface.address)] = iface
        iface.medium = self

    def is_up(self) -> bool:
        return self._up

    def set_up(self, up: bool) -> None:
        if not up and self._up:
            self._epoch += 1
            self._channel_busy_until = self.sim.now
            self._queued = 0
        self._up = up

    def resolve(self, address):
        return self._interfaces.get(int(address))

    def transmit(self, iface, datagram, next_hop) -> None:
        if not self._up:
            iface.stats.packets_dropped_down += 1
            return
        if self._queued >= self.queue_limit:
            iface.notify_queue_drop(datagram)
            return
        target = next_hop if next_hop is not None else datagram.dst
        length = IP_HEADER_LEN + len(datagram.payload)
        tx_time = (length + self.FRAME_OVERHEAD) * 8.0 / self.bandwidth_bps
        start = max(self.sim.now, self._channel_busy_until)
        self._channel_busy_until = start + tx_time
        self._queued += 1
        iface.stats.packets_sent += 1
        iface.stats.bytes_sent += length
        iface.stats.link_header_bytes += self.FRAME_OVERHEAD
        arrival = start + tx_time + self.delay
        obs = _obs_of(iface)
        if obs is not None and iface.node is not None:
            now = self.sim.now
            obs.link_hop(now, iface.node.name, datagram, start - now,
                         tx_time, self.delay, self.name)
        self.sim.post_at(
            arrival,
            partial(self._arrive, iface, target, datagram, self._epoch),
            label=self._label,
        )

    def _arrive(self, sender, target, datagram, epoch=None) -> None:
        if epoch is not None and epoch != self._epoch:
            sender.stats.packets_dropped_down += 1
            return
        self._queued = max(0, self._queued - 1)
        if not self._up:
            sender.stats.packets_lost += 1
            return
        if self.loss.lose(self.rng, datagram.total_length):
            sender.stats.packets_lost += 1
            obs = _obs_of(sender)
            if obs is not None and sender.node is not None:
                obs.drop(self.sim.now, sender.node.name, "drop-link-loss",
                         datagram, self.name)
            return
        if target.is_broadcast or target == self._broadcast:
            for iface in list(self._interfaces.values()):
                if iface is not sender:
                    iface.deliver(datagram)
            return
        receiver = self.resolve(target)
        if receiver is None or receiver is sender:
            sender.stats.packets_lost += 1
            return
        receiver.deliver(datagram)


class OracleConduitPort:
    FRAME_OVERHEAD = 8

    def __init__(self, sim, iface, *, dst_shard, dst_port, outbox,
                 bandwidth_bps=56_000.0, delay=0.005, mtu=1006, name=""):
        self.sim = sim
        self.iface = iface
        self.dst_shard = dst_shard
        self.dst_port = dst_port
        self.outbox = outbox
        self.bandwidth_bps = bandwidth_bps
        self.delay = delay
        self.mtu = mtu
        self.name = name or f"conduit:{iface.name}->{dst_shard}:{dst_port}"
        self._busy_until = 0.0
        iface.medium = self

    def is_up(self) -> bool:
        return True

    def transmit(self, iface, datagram, next_hop) -> None:
        size = datagram.total_length + self.FRAME_OVERHEAD
        tx_time = size * 8.0 / self.bandwidth_bps
        start = max(self.sim.now, self._busy_until)
        self._busy_until = start + tx_time
        iface.stats.packets_sent += 1
        iface.stats.bytes_sent += datagram.total_length
        iface.stats.link_header_bytes += self.FRAME_OVERHEAD
        arrival = start + tx_time + self.delay
        self.outbox.append(
            (arrival, self.dst_shard, self.dst_port, datagram.to_bytes(),
             datagram.trace_id))


# ----------------------------------------------------------------------
# Two worlds, one program
# ----------------------------------------------------------------------
class Recorder:
    """Stands in for the Node: notes what is handed up, when, to whom."""

    obs = None

    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def datagram_arrived(self, datagram, iface) -> None:
        self.arrivals.append((self.sim.now, iface.name, datagram.ident,
                              datagram.tos))


class World:
    """One simulator, its attached interfaces and everything observable."""

    def __init__(self, n_ifaces: int):
        self.sim = Simulator()
        self.node = Recorder(self.sim)
        self.queue_drops = []
        self.ifaces = []
        self.streams = []  # every random.Random whose state must agree
        self.reds = []
        for i in range(n_ifaces):
            iface = Interface(f"if{i}", PREFIX.host(i + 1), PREFIX)
            iface.node = self.node
            iface.on_queue_drop = partial(self._queue_drop, iface)
            self.ifaces.append(iface)
        self.medium = None

    def _queue_drop(self, iface, datagram) -> None:
        self.queue_drops.append((self.sim.now, iface.name, datagram.ident))

    def stream(self, seed: int) -> random.Random:
        rng = random.Random(seed)
        self.streams.append(rng)
        return rng

    def enable_red(self, spec, ifaces) -> None:
        """RED, when ``spec`` is one, in front of each of ``ifaces``."""
        if spec is None:
            return
        min_th, span, max_p, weight, seed = spec
        for iface in ifaces:
            red = RedState(RedParams(min_th=min_th, max_th=min_th + span,
                                     max_p=max_p, weight=weight),
                           self.stream(seed))
            self.reds.append(red)
            self.medium.enable_red(iface, red)

    def snapshot(self) -> tuple:
        return (self.sim.now,
                [asdict(iface.stats) for iface in self.ifaces],
                self.node.arrivals, self.queue_drops,
                [rng.getstate() for rng in self.streams],
                [(red.counters(), red.avg) for red in self.reds])


def apply(world, step, ident: int) -> None:
    """One step of a program on one world."""
    op = step[0]
    if op == "send":
        _, sender, size, ect, target = step
        datagram = Datagram(
            src=world.ifaces[sender].address, dst=PREFIX.host(2),
            protocol=PROTO_UDP, payload=b"\xa5" * size, ident=ident,
            tos=TOS_ECT if ect else 0)
        world.ifaces[sender].output(datagram, target)
    elif op == "advance":
        world.sim.run(until=world.sim.now + step[1])
    else:
        world.medium.set_up(op == "up")


def run_program(worlds, program) -> None:
    """Apply each step to every world; they must agree after every one."""
    for ident, step in enumerate(program):
        for world in worlds:
            apply(world, step, ident)
        first = worlds[0].snapshot()
        for world in worlds[1:]:
            assert world.snapshot() == first, step
    for world in worlds:
        world.sim.run(until=world.sim.now + 60.0)
    first = worlds[0].snapshot()
    for world in worlds[1:]:
        assert world.snapshot() == first, "drain"


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
SIZES = st.one_of(st.sampled_from([0, 1, 256, 1480]), st.integers(0, 1480))
ADVANCES = st.sampled_from([0.0, 1e-6, 5e-5, 0.001, 0.0103, 0.05, 0.3, 2.0])


def programs(n_senders: int, targets, *, flaps: bool = True):
    send = st.tuples(st.just("send"), st.integers(0, n_senders - 1), SIZES,
                     st.booleans(), targets)
    steps = [send, send, send,  # bursts: three sends for every other step
             st.tuples(st.just("advance"), ADVANCES)]
    if flaps:
        steps += [st.tuples(st.just("down")), st.tuples(st.just("up"))]
    return st.lists(st.one_of(*steps), min_size=1, max_size=60)


#: None and ("none",) are the two spellings of a lossless wire: the
#: default, and an explicit ``NoLoss()``.
LOSSES = st.sampled_from([
    None, ("none",), ("bernoulli", 0.0), ("bernoulli", 0.3),
    ("bernoulli", 1.0), ("gilbert", 0.2, 0.3, 0.05, 0.6)])


def make_loss(spec):
    if spec is None:
        return None
    if spec[0] == "none":
        return NoLoss()
    if spec[0] == "bernoulli":
        return BernoulliLoss(spec[1])
    return GilbertElliottLoss(p_good_to_bad=spec[1], p_bad_to_good=spec[2],
                              loss_good=spec[3], loss_bad=spec[4])


RED = st.one_of(st.none(), st.tuples(
    st.sampled_from([0.0, 0.5, 2.0]), st.sampled_from([3.0, 5.0]),
    st.sampled_from([0.1, 0.5, 1.0]), st.sampled_from([0.2, 1.0]),
    st.integers(0, 3)))

WIRE = dict(bandwidth_bps=st.sampled_from([9_600.0, 56_000.0, 1_544_000.0,
                                           1e7 / 3]),
            delay=st.sampled_from([0.0, 0.001, 0.0103, 0.27]),
            queue_limit=st.integers(1, 8))


def wire_up(world, cls, seed, red, **kwargs):
    """A two-ended medium of class ``cls`` on ``world``, RED optional."""
    a, b = world.ifaces
    world.medium = cls(world.sim, a, b, rng=world.stream(seed), **kwargs)
    world.enable_red(red, (a, b))


def differential(pair, program, seed, red, **kwargs):
    worlds = []
    for cls in pair:
        world = World(2)
        kw = dict(kwargs)
        if "loss" in kw:
            kw["loss"] = make_loss(kw["loss"])
        wire_up(world, cls, seed, red, **kw)
        worlds.append(world)
    run_program(worlds, program)


# ----------------------------------------------------------------------
# p2p and the media that are parameterisations of it
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(program=programs(2, st.none()), seed=st.integers(0, 9), red=RED,
       loss=LOSSES, **WIRE)
def test_point_to_point(program, seed, red, **kwargs):
    differential((OraclePointToPointLink, PointToPointLink), program, seed,
                 red, **kwargs)


@settings(max_examples=60, deadline=None)
@given(program=programs(2, st.none()), seed=st.integers(0, 9), red=RED,
       loss=LOSSES, queue_limit=st.integers(1, 8),
       delay=st.sampled_from([0.27, 0.0103]))
def test_satellite(program, seed, red, **kwargs):
    differential((OracleSatelliteLink, SatelliteLink), program, seed, red,
                 **kwargs)


@settings(max_examples=80, deadline=None)
@given(program=programs(2, st.none()), seed=st.integers(0, 9), red=RED,
       loss=LOSSES, queue_limit=st.integers(1, 8),
       reorder_spread=st.sampled_from([0.0, 0.030, 0.5]))
def test_packet_radio(program, seed, red, **kwargs):
    differential((OraclePacketRadioLink, PacketRadioLink), program, seed,
                 red, **kwargs)


@settings(max_examples=80, deadline=None)
@given(program=programs(2, st.none()), seed=st.integers(0, 9), red=RED,
       queue_limit=st.integers(1, 8),
       internal_retx_prob=st.sampled_from([0.0, 0.02, 0.5]),
       internal_retx_delay=st.sampled_from([0.150, 1e-10]))
def test_x25(program, seed, red, **kwargs):
    differential((OracleX25Subnet, X25Subnet), program, seed, red, **kwargs)


# ----------------------------------------------------------------------
# LAN: three members, unicast / broadcast / nobody home
# ----------------------------------------------------------------------
LAN_TARGETS = st.sampled_from([
    None, PREFIX.host(1), PREFIX.host(2), PREFIX.host(3), PREFIX.host(77),
    PREFIX.broadcast, Address("255.255.255.255")])


@settings(max_examples=100, deadline=None)
@given(program=programs(3, LAN_TARGETS), seed=st.integers(0, 9), loss=LOSSES,
       bandwidth_bps=st.sampled_from([1e7, 1e7 / 3]),
       delay=st.sampled_from([50e-6, 0.0103]), queue_limit=st.integers(1, 8))
def test_lan(program, seed, loss, **kwargs):
    worlds = []
    for cls in (OracleLanBus, LanBus):
        world = World(3)
        world.medium = cls(world.sim, PREFIX, loss=make_loss(loss),
                           rng=world.stream(seed), **kwargs)
        for iface in world.ifaces:
            world.medium.attach(iface)
        worlds.append(world)
    run_program(worlds, program)


# ----------------------------------------------------------------------
# Conduit: the parent's timing, and (LISTED EXCEPTION 3) a link's admission
# ----------------------------------------------------------------------
class LandingConduit(ConduitPort):
    """The conduit with its local arrival made visible: what the sending
    shard believes reached the far end is handed to a stand-in for it."""

    far = None

    def _land(self, sender, to, datagram) -> None:
        self.far.deliver(datagram)


def conduit_world(cls, **kwargs):
    world = World(2)
    world.outbox = []
    world.medium = cls(world.sim, world.ifaces[0], dst_shard=1,
                       dst_port="p", outbox=world.outbox, **kwargs)
    world.medium.far = world.ifaces[1]
    return world


CONDUIT_WIRE = dict(bandwidth_bps=WIRE["bandwidth_bps"],
                    delay=st.sampled_from([0.001, 0.0103, 0.27]))


@settings(max_examples=60, deadline=None)
@given(sends=st.lists(st.tuples(SIZES, ADVANCES), min_size=1, max_size=60),
       **CONDUIT_WIRE)
def test_conduit_keeps_the_parents_timing_and_bytes(sends, **kwargs):
    """Up, and with fewer sends than ``queue_limit`` (64) so nothing is
    refused: the parent's outbox, record for record, once the live records
    go through the wire codec a forked worker sends them with."""
    program = []
    for size, dt in sends:
        program += [("send", 0, size, False, None), ("advance", dt)]
    worlds = [conduit_world(OracleConduitPort, **kwargs),
              conduit_world(ConduitPort, **kwargs)]
    run_program(worlds, program)
    assert worlds[0].outbox == _to_wire(worlds[1].outbox)
    assert len(worlds[1].outbox) == len(sends)


@settings(max_examples=120, deadline=None)
@given(program=programs(1, st.none()), queue_limit=st.integers(1, 8),
       red=RED, **CONDUIT_WIRE)
def test_conduit_admits_like_the_same_link_in_one_process(
        program, queue_limit, red, **kwargs):
    link = World(2)
    link.medium = OraclePointToPointLink(
        link.sim, *link.ifaces, queue_limit=queue_limit, **kwargs)
    conduit = conduit_world(LandingConduit, **kwargs)
    conduit.medium.queue_limit = queue_limit  # not a constructor option
    for world in (link, conduit):
        world.enable_red(red, world.ifaces[:1])
    run_program([link, conduit], program)
    # Everything admitted left at once (read here as the wire records a
    # forked worker sends); what the link world delivered is, in order,
    # the part of it no later lowering flushed (what has left a conduit
    # cannot be recalled).
    left = [(arrival, Datagram.from_bytes(wire).ident)
            for arrival, _, _, wire, _ in _to_wire(conduit.outbox)]
    assert len(left) == conduit.ifaces[0].stats.packets_sent
    landed = [(when, ident) for when, _, ident, _ in link.node.arrivals]
    assert sorted(set(landed) & set(left)) == sorted(landed)


# ----------------------------------------------------------------------
# Drain: with the medium kept up, every queue empties and every unicast
# frame clocked out is delivered or counted lost
# ----------------------------------------------------------------------
def two_ended(cls, **kwargs):
    def build(world, seed, loss):
        # X.25 is reliable: it takes no loss model.
        lossy = {} if cls is X25Subnet else {"loss": make_loss(loss)}
        world.medium = cls(world.sim, *world.ifaces, queue_limit=4,
                           rng=world.stream(seed), **kwargs, **lossy)
    return build


def lan(world, seed, loss):
    world.medium = LanBus(world.sim, PREFIX, queue_limit=4,
                          loss=make_loss(loss), rng=world.stream(seed))
    for iface in world.ifaces:
        world.medium.attach(iface)


def p2p_drr(world, seed, loss):
    two_ended(PointToPointLink)(world, seed, loss)
    DrrScheduler(world.ifaces[0], per_flow_limit=4)


def conduit(world, seed, loss):
    world.outbox = []
    world.medium = LandingConduit(world.sim, world.ifaces[0], dst_shard=1,
                                  dst_port="p", outbox=world.outbox)
    world.medium.far = world.ifaces[1]


#: name -> (builder, interfaces, senders, targets)
MEDIA = {
    "p2p": (two_ended(PointToPointLink), 2, 2, st.none()),
    "lan": (lan, 3, 3, st.sampled_from([
        None, PREFIX.host(1), PREFIX.host(2), PREFIX.host(3),
        PREFIX.host(77)])),
    "x25": (two_ended(X25Subnet, internal_retx_prob=0.5), 2, 2, st.none()),
    "radio": (two_ended(PacketRadioLink), 2, 2, st.none()),
    "satellite": (two_ended(SatelliteLink), 2, 2, st.none()),
    "conduit": (conduit, 2, 1, st.none()),
    "p2p_drr": (p2p_drr, 2, 2, st.none()),
}


@pytest.mark.parametrize("medium", sorted(MEDIA))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 9), loss=LOSSES)
def test_drain_conserves_every_frame(medium, data, seed, loss):
    build, n_ifaces, n_senders, targets = MEDIA[medium]
    program = data.draw(programs(n_senders, targets, flaps=False))
    world = World(n_ifaces)
    build(world, seed, loss)
    for ident, step in enumerate(program):
        apply(world, step, ident)
    world.sim.run()
    assert world.sim.pending == 0
    assert all(chan.queued == 0
               for chan in world.medium._channels.values())
    drr = world.medium._channels[world.ifaces[0]].drr
    assert drr is None or not any(
        flow.queue for flow in drr._flows.values())
    stats = [iface.stats for iface in world.ifaces]
    assert sum(s.packets_dropped_down for s in stats) == 0
    if medium == "lan":  # any member may deliver any member's frame
        assert sum(s.packets_sent for s in stats) == sum(
            s.packets_delivered + s.packets_lost for s in stats)
    else:
        a, b = stats
        assert a.packets_sent == b.packets_delivered + a.packets_lost
        assert b.packets_sent == a.packets_delivered + b.packets_lost
