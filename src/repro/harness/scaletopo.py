"""Multi-AS internet builder for the sharded scale engine.

Builds the ≥500-node scenario the scale benchmark and the determinism
tests run on: ``n_as`` autonomous systems in a ring, each AS a star of
gateways (one hub, the rest spokes) where every gateway fronts a LAN of
hosts.  Inter-AS links join hub gateways eastward around the ring; routing
is the repo's real IGP/EGP seam — a scoped distance-vector IGP inside each
AS, static exterior routes at the borders, and border gateways
redistributing remote-AS aggregates into their IGP via
:meth:`~repro.routing.distance_vector.DistanceVectorRouting.originate`.

The same builder serves every execution mode: ``n_shards=1`` yields the
whole internet in one simulator; ``n_shards=k`` partitions the ring into
contiguous AS blocks, replacing exactly the inter-AS links that cross a
block boundary with :class:`~repro.sim.shard.ConduitPort` pairs.  All
addressing, seeding and traffic are derived from ``(as index, config)``
alone, so any partition of the same scenario produces the same packets.

Addressing plan (``n_as`` < 64):

* AS ``i`` aggregate: ``10.i.0.0/16``; gateway ``g``'s LAN is
  ``10.i.g.0/24`` (gateway at ``.1``, hosts from ``.2``).
* AS ``i`` interior p2p pool: ``10.(100+i).0.0``.
* Eastward inter-AS link of AS ``i``: ``10.254.i.0/30`` (east side ``.1``,
  west side ``.2``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ip.address import Address, Prefix
from ..ip.forwarding import Route
from ..netlayer.link import Interface, PointToPointLink
from ..routing.distance_vector import DistanceVectorRouting
from ..sim.engine import Simulator
from ..sim.rand import RandomStreams
from ..sim.shard import ConduitPort, ShardBuild
from .topology import Internet

__all__ = ["ScaleConfig", "MultiAsBuilder", "RingNet", "INTER_AS_DELAY",
           "SMALL_RING"]

#: Propagation delay of every inter-AS link — the lookahead window.
INTER_AS_DELAY = 0.01

#: What ``--size small`` means for every campaign on the ring: the same
#: shape as the 512-node default, 48 nodes, minutes cheaper.
SMALL_RING = dict(n_as=4, gateways_per_as=4, hosts_per_lan=2)


@dataclass(frozen=True)
class ScaleConfig:
    """Scenario parameters; frozen so a config is safely shared/forked."""

    n_as: int = 8
    gateways_per_as: int = 8
    hosts_per_lan: int = 7
    seed: int = 0
    #: Interior p2p links (star spokes).
    intra_bandwidth: float = 1_544_000.0   # T1
    intra_delay: float = 0.002
    #: Inter-AS links (ring).  ``delay`` doubles as the lookahead window.
    inter_bandwidth: float = 1_544_000.0
    inter_delay: float = INTER_AS_DELAY
    #: Traffic: every spoke LAN's first host runs one CBR flow.  Flows
    #: cycle destinations — intra-AS neighbours and hosts ``cross_reach``
    #: ASes east — so a fixed fraction of traffic crosses the seam.
    flow_rate: float = 20.0                # packets/s per flow
    flow_size: int = 256
    cross_reach: int = 3                   # farthest AS offset targeted
    traffic_start: float = 10.0            # after IGP convergence
    dv_period: float = 2.0

    @property
    def nodes_per_as(self) -> int:
        return self.gateways_per_as * (1 + self.hosts_per_lan)

    @property
    def total_nodes(self) -> int:
        return self.n_as * self.nodes_per_as

    def lan_host_address(self, as_index: int, lan: int, host: int) -> Address:
        """The address of ``host`` (0-based) on gateway ``lan``'s LAN."""
        return Address(f"10.{as_index}.{lan}.{2 + host}")

    def as_prefix(self, as_index: int) -> Prefix:
        return Prefix(Address(f"10.{as_index}.0.0"), 16)


class _ShardNet:
    """What :class:`ShardBuild` calls ``net``: the shard's simulator and
    the per-AS Internets living on it."""

    # Sole reader: benchmarks/perf/workloads.py (frozen); drop with it.
    packet_pool = None

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.internets: dict[int, Internet] = {}
        self.sinks: dict[tuple, object] = {}
        self.flows: list = []


class MultiAsBuilder:
    """Picklable ``builder(shard_id, n_shards) -> ShardBuild``.

    Shard ``s`` of ``n`` owns the contiguous AS block
    ``[s * n_as // n, (s+1) * n_as // n)``.  Inter-AS links interior to a
    block are ordinary :class:`PointToPointLink`; links crossing a block
    boundary become conduit halves with identical timing.
    """

    def __init__(self, config: ScaleConfig):
        self.config = config

    # -- partition ------------------------------------------------------
    def shard_of(self, as_index: int, n_shards: int) -> int:
        for s in range(n_shards):
            if self._block(s, n_shards).count(as_index):
                return s
        raise ValueError(as_index)

    def _block(self, shard_id: int, n_shards: int) -> range:
        n_as = self.config.n_as
        return range(shard_id * n_as // n_shards,
                     (shard_id + 1) * n_as // n_shards)

    # -- build ----------------------------------------------------------
    def __call__(self, shard_id: int, n_shards: int) -> ShardBuild:
        cfg = self.config
        if cfg.n_as >= 64:
            raise ValueError("addressing plan supports at most 63 ASes")
        sim = Simulator()
        shard_net = _ShardNet(sim)
        ports: dict[str, Interface] = {}
        outbox: list = []
        block = self._block(shard_id, n_shards)
        for as_index in block:
            self._build_as(shard_net, as_index)
        self._wire_inter_as(shard_net, shard_id, n_shards, ports, outbox)
        self._start_traffic(shard_net, block)
        return ShardBuild(net=shard_net, ports=ports, outbox=outbox,
                          collect=_Collector(shard_net))

    def _build_as(self, shard_net: _ShardNet, as_index: int) -> None:
        cfg = self.config
        net = Internet(seed=cfg.seed * 1000 + as_index,
                       sim=shard_net.sim,
                       lan_pool=f"10.{as_index}.0.0",
                       p2p_pool=f"10.{100 + as_index}.0.0")
        shard_net.internets[as_index] = net
        gws = [net.gateway(f"A{as_index}G{g}")
               for g in range(cfg.gateways_per_as)]
        # Star interior: every spoke to the hub (gateway 0).
        for g in range(1, cfg.gateways_per_as):
            net.connect(gws[g], gws[0],
                        bandwidth_bps=cfg.intra_bandwidth,
                        delay=cfg.intra_delay, mtu=1500)
        # One LAN of hosts behind every gateway.
        for g in range(cfg.gateways_per_as):
            members = [gws[g]] + [
                net.host(f"A{as_index}G{g}H{h}")
                for h in range(cfg.hosts_per_lan)]
            net.lan(f"lan{g}", members)
        # Scoped IGP: the DV process captures each gateway's interfaces
        # *now*, before any inter-AS port exists — the paper's goal-4
        # administrative boundary, enforced by interface scope.
        for g, gw in enumerate(gws):
            jitter = net.streams.stream(f"routing.jitter.A{as_index}G{g}")
            period = cfg.dv_period
            proc = DistanceVectorRouting(
                gw.node, gw.udp, period=period,
                jitter_fn=lambda j=jitter, p=period: j.uniform(-p / 10, p / 10),
                interfaces=list(gw.node.interfaces))
            proc.start()
            net.routing[gw.node.name] = proc
        net.install_host_defaults()

    # -- inter-AS ring --------------------------------------------------
    def _east_prefix(self, as_index: int) -> Prefix:
        return Prefix(Address(f"10.254.{as_index}.0"), 30)

    def _route_east(self, src_as: int, dst_as: int) -> bool:
        """Ring direction policy: shortest way around, ties east."""
        n = self.config.n_as
        d_east = (dst_as - src_as) % n
        d_west = (src_as - dst_as) % n
        return d_east <= d_west

    def _wire_inter_as(self, shard_net: _ShardNet, shard_id: int,
                       n_shards: int, ports: dict, outbox: list) -> None:
        cfg = self.config
        n_as = cfg.n_as
        if n_as == 1:
            return
        west_gw = cfg.gateways_per_as // 2  # spoke acting as west border
        # Pass 1: create every inter-AS attachment (links and conduits).
        for as_index, net in shard_net.internets.items():
            east_as = (as_index + 1) % n_as
            west_as = (as_index - 1) % n_as
            hub = net.gateways[f"A{as_index}G0"].node
            west = net.gateways[f"A{as_index}G{west_gw}"].node

            # Eastward link: this AS's hub to the next AS's west border.
            east_prefix = self._east_prefix(as_index)
            east_iface = hub.add_interface(Interface(
                f"{hub.name}.east", east_prefix.host(1), east_prefix))
            if east_as in shard_net.internets:
                peer = shard_net.internets[east_as]
                peer_node = peer.gateways[f"A{east_as}G{west_gw}"].node
                peer_iface = peer_node.add_interface(Interface(
                    f"{peer_node.name}.west", east_prefix.host(2),
                    east_prefix))
                PointToPointLink(
                    shard_net.sim, east_iface, peer_iface,
                    bandwidth_bps=cfg.inter_bandwidth, delay=cfg.inter_delay,
                    mtu=1500, name=f"as{as_index}<->as{east_as}")
            else:
                ConduitPort(
                    shard_net.sim, east_iface,
                    dst_shard=self.shard_of(east_as, n_shards),
                    dst_port=f"as{east_as}.west", outbox=outbox,
                    bandwidth_bps=cfg.inter_bandwidth, delay=cfg.inter_delay,
                    mtu=1500)
                ports[f"as{as_index}.east"] = east_iface

            # Westward attachment, if the west neighbour is remote (the
            # local case was wired by that neighbour's east pass above).
            if west_as not in shard_net.internets:
                west_prefix = self._east_prefix(west_as)
                west_iface = west.add_interface(Interface(
                    f"{west.name}.west", west_prefix.host(2), west_prefix))
                ConduitPort(
                    shard_net.sim, west_iface,
                    dst_shard=self.shard_of(west_as, n_shards),
                    dst_port=f"as{west_as}.east", outbox=outbox,
                    bandwidth_bps=cfg.inter_bandwidth, delay=cfg.inter_delay,
                    mtu=1500)
                ports[f"as{as_index}.west"] = west_iface

        # Pass 2: exterior routes + IGP redistribution at both borders
        # (after pass 1, since a local west attachment is created by the
        # west neighbour's east pass, possibly later in the block).
        for as_index, net in shard_net.internets.items():
            east_as = (as_index + 1) % n_as
            west_as = (as_index - 1) % n_as
            hub = net.gateways[f"A{as_index}G0"].node
            west = net.gateways[f"A{as_index}G{west_gw}"].node
            east_prefix = self._east_prefix(as_index)
            east_iface_b = hub.interface_by_name(f"{hub.name}.east")
            west_iface_b = west.interface_by_name(f"{west.name}.west")
            for remote in range(n_as):
                if remote == as_index:
                    continue
                aggregate = cfg.as_prefix(remote)
                if self._route_east(as_index, remote):
                    hub.routes.install(Route(
                        prefix=aggregate, interface=east_iface_b,
                        next_hop=east_prefix.host(2), metric=1,
                        source="static"))
                    net.routing[hub.name].originate(
                        aggregate, interface=east_iface_b)
                else:
                    west_prefix = self._east_prefix(west_as)
                    west.routes.install(Route(
                        prefix=aggregate, interface=west_iface_b,
                        next_hop=west_prefix.host(1), metric=1,
                        source="static"))
                    net.routing[west.name].originate(
                        aggregate, interface=west_iface_b)

    # -- traffic --------------------------------------------------------
    def _start_traffic(self, shard_net: _ShardNet, block: range) -> None:
        from ..apps.traffic import UdpSink

        cfg = self.config
        if cfg.hosts_per_lan < 1:
            return  # gateways-only scenario: nothing to sink or send
        # Flow sources come from each spoke LAN's second host when there
        # is one; single-host LANs source from the sink host itself
        # (different ports, so the roles don't collide).
        src_h = 1 if cfg.hosts_per_lan > 1 else 0
        for as_index in block:
            net = shard_net.internets[as_index]
            # A sink on the first host of every LAN (flow destinations
            # are always ``.2`` addresses, see lan_host_address).
            for g in range(cfg.gateways_per_as):
                host = net.hosts[f"A{as_index}G{g}H0"]
                shard_net.sinks[(as_index, g)] = UdpSink(host, port=9000)
            # One flow per spoke LAN.  Destinations cycle: spoke 1 stays
            # intra-AS, spoke k targets the AS ``1 + (k mod cross_reach)``
            # hops east.
            for g in range(1, cfg.gateways_per_as):
                src_host = net.hosts[f"A{as_index}G{g}H{src_h}"]
                if g == 1 or cfg.n_as == 1:
                    dst_as, dst_lan = as_index, (g % cfg.gateways_per_as)
                else:
                    reach = max(1, min(cfg.cross_reach, cfg.n_as - 1))
                    dst_as = (as_index + 1 + (g % reach)) % cfg.n_as
                    dst_lan = g % cfg.gateways_per_as
                dst = cfg.lan_host_address(dst_as, dst_lan, 0)
                shard_net.sim.schedule(
                    cfg.traffic_start,
                    _FlowStarter(shard_net, src_host, dst, cfg),
                    label="traffic:start")

    def lookahead(self) -> float:
        return self.config.inter_delay


class _FlowStarter:
    """Deferred CBR start (picklable, unlike a lambda under spawn)."""

    __slots__ = ("shard_net", "host", "dst", "cfg")

    def __init__(self, shard_net, host, dst, cfg):
        self.shard_net = shard_net
        self.host = host
        self.dst = dst
        self.cfg = cfg

    def __call__(self) -> None:
        from ..apps.traffic import CbrSource

        self.shard_net.flows.append(
            CbrSource(self.host, self.dst, 9000,
                      size=self.cfg.flow_size, rate=self.cfg.flow_rate))


class _Collector:
    """Picklable deterministic per-shard summary."""

    __slots__ = ("shard_net",)

    def __init__(self, shard_net: _ShardNet):
        self.shard_net = shard_net

    def __call__(self) -> dict:
        delivered = forwarded = originated = drops = 0
        sink_packets = sink_bytes = 0
        per_as: dict[str, list[int]] = {}
        for as_index, net in sorted(self.shard_net.internets.items()):
            a_del = a_fwd = 0
            for node in net.nodes().values():
                s = node.stats
                delivered += s.delivered
                forwarded += s.forwarded
                originated += s.originated
                drops += (s.dropped_no_route + s.dropped_ttl + s.dropped_down
                          + s.dropped_df + s.dropped_not_mine)
                a_del += s.delivered
                a_fwd += s.forwarded
            per_as[str(as_index)] = [a_del, a_fwd]
        for sink in self.shard_net.sinks.values():
            sink_packets += sink.packets
            sink_bytes += sink.bytes
        return {
            "delivered": delivered,
            "forwarded": forwarded,
            "originated": originated,
            "drops": drops,
            "sink_packets": sink_packets,
            "sink_bytes": sink_bytes,
            "flows": len(self.shard_net.flows),
            "per_as": per_as,
        }

class RingNet:
    """Campaign-facing adapter over the single-shard multi-AS build.

    The 512-node ring (or a smaller shape of the same topology) with the
    surface :class:`~repro.chaos.campaign.FaultCampaign`,
    :class:`~repro.netmgmt.campaign.ManagementPlane` and the probe mesh
    expect from :class:`~repro.harness.topology.Internet`: merged
    host/gateway/link views, address ownership, and fault verbs — the
    routeobs campaign's stage.  The per-AS Internets stay reachable via
    ``internets`` for addressing.
    """

    #: The shard builder the ring comes from (subclasses with their own
    #: traffic substitute one that starts none).
    builder = MultiAsBuilder

    def __init__(self, config: ScaleConfig):
        self.config = config
        build = self.builder(config)(0, 1)
        shard_net = build.net
        self.sim = shard_net.sim
        self.internets = shard_net.internets
        self.sinks = shard_net.sinks
        self.flows = shard_net.flows
        #: Campaign RNG domain, disjoint from the per-AS Internets'
        #: (they use seed*1000 + as_index; 997 >= n_as is reserved).
        self.streams = RandomStreams(config.seed * 1000 + 997)
        self.tracer = self.internets[0].tracer
        self.obs = None

        # -- merged views ------------------------------------------------
        self.hosts: dict = {}
        self.gateways: dict = {}
        self.lans: dict = {}
        self.links: list = []
        self.routing: dict = {}
        for i, net in sorted(self.internets.items()):
            self.hosts.update(net.hosts)
            self.gateways.update(net.gateways)
            for name, bus in net.lans.items():
                self.lans[f"as{i}.{name}"] = bus
            self.links.extend(net.links)
            self.routing.update(net.routing)

        # -- inter-AS ring links (built outside any per-AS Internet) -----
        #: as_index -> the eastward link out of AS i's hub.
        self.inter_links: dict[int, object] = {}
        for i, net in sorted(self.internets.items()):
            hub = net.gateways[f"A{i}G0"].node
            iface = hub.interface_by_name(f"{hub.name}.east")
            self.inter_links[i] = iface.medium
            self.links.append(iface.medium)

    # -- Internet duck-type -------------------------------------------
    def nodes(self) -> dict:
        out = {n: h.node for n, h in self.hosts.items()}
        out.update({n: g.node for n, g in self.gateways.items()})
        return out

    def node_by_name(self, name: str):
        if name in self.hosts:
            return self.hosts[name].node
        if name in self.gateways:
            return self.gateways[name].node
        raise KeyError(f"no node named {name!r}")

    def address_owners(self) -> dict:
        owners: dict = {}
        for i in sorted(self.internets):
            owners.update(self.internets[i].address_owners())
        return owners

    def link_endpoints(self, link) -> tuple:
        a, b = link.ends
        return a.node.name, b.node.name

    def cut_links(self, group_a: set) -> list:
        """Links crossing the cut between ``group_a`` (node names) and
        the rest — what a partition fault takes down.  LANs never span
        ASes here, so only p2p links can cross."""
        names = set(group_a)
        unknown = names - set(self.hosts) - set(self.gateways)
        if unknown:
            raise KeyError(
                f"unknown nodes in partition group: {sorted(unknown)}")
        cut = []
        for link in self.links:
            ea, eb = self.link_endpoints(link)
            if (ea in names) != (eb in names):
                cut.append(link)
        return cut

    def as_members(self, as_index: int) -> list:
        """Every node name in AS ``as_index`` (partition-group helper)."""
        net = self.internets[as_index]
        return sorted(net.hosts) + sorted(net.gateways)

    # -- failure injection --------------------------------------------
    def fail_link(self, link) -> None:
        link.set_up(False)

    def restore_link(self, link) -> None:
        link.set_up(True)

    def crash_gateway(self, name: str) -> None:
        self.gateways[name].node.crash()

    def restore_gateway(self, name: str) -> None:
        self.gateways[name].node.restore()

    def crash_host(self, name: str) -> None:
        self.hosts[name].node.crash()

    def restore_host(self, name: str) -> None:
        self.hosts[name].node.restore()
