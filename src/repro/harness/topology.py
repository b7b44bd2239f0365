"""Topology construction kit: build internets in a few lines.

Wraps the layer-by-layer API (nodes, interfaces, links, routing processes)
with automatic address allocation and the common wiring patterns, so tests,
examples and benchmarks state *what* network they want, not how to plumb
it.  Everything built here is ordinary public-API objects — the kit adds no
behaviour of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..ip.address import Address, Prefix
from ..ip.node import Node
from ..netlayer.lan import LanBus
from ..netlayer.link import Interface, PointToPointLink
from ..netlayer.loss import LossModel
from ..netlayer.radio import PacketRadioLink
from ..netlayer.satellite import SatelliteLink
from ..netlayer.x25 import X25Subnet
from ..routing.distance_vector import DistanceVectorRouting
from ..routing.link_state import LinkStateRouting
from ..routing.static import add_default_route
from ..sim.engine import Simulator
from ..sim.rand import RandomStreams
from ..sim.trace import NullTracer, Tracer
from ..sockets.api import Gateway, Host

__all__ = ["Internet", "MEDIA"]

#: Media constructors by name; each takes (sim, a, b, **kwargs).
MEDIA = {
    "p2p": PointToPointLink,
    "satellite": SatelliteLink,
    "radio": PacketRadioLink,
    "x25": X25Subnet,
}


class Internet:
    """A whole simulated internet under construction.

    >>> net = Internet(seed=7)
    >>> h1, h2 = net.host("H1"), net.host("H2")
    >>> g1, g2 = net.gateway("G1"), net.gateway("G2")
    >>> net.connect(h1, g1); net.connect(g1, g2); net.connect(g2, h2)
    >>> net.start_routing()
    >>> net.sim.run(until=10)   # convergence
    """

    # Sole reader: benchmarks/perf/workloads.py (frozen); drop with it.
    packet_pool = None

    def __init__(self, *, seed: int = 0, trace: bool = False,
                 sim: Optional[Simulator] = None,
                 p2p_pool: str = "10.200.0.0", lan_pool: str = "10.100.0.0"):
        self.streams = RandomStreams(seed)
        self.tracer: Tracer = Tracer() if trace else NullTracer()
        self.sim = sim if sim is not None else Simulator()
        self.hosts: dict[str, Host] = {}
        self.gateways: dict[str, Gateway] = {}
        self.links: list = []
        self.lans: dict[str, LanBus] = {}
        self.routing: dict[str, object] = {}   # node name -> protocol process
        #: The :class:`~repro.obs.core.Observability` layer, installed by
        #: :meth:`observe`; None until then (the un-observed fast path).
        self.obs = None
        # Auto-allocation pools are parameters so several Internets can
        # coexist without address collisions — the sharded scheduler gives
        # each AS shard its own slice of 10/8.
        self._p2p_pool = int(Address(p2p_pool))
        self._lan_pool = int(Address(lan_pool))
        self._host_gateway_hint: dict[str, Address] = {}
        self._link_count = 0

    # ------------------------------------------------------------------
    # Node creation
    # ------------------------------------------------------------------
    def host(self, name: str, *, tcp_config=None) -> Host:
        if name in self.hosts or name in self.gateways:
            raise ValueError(f"duplicate node name {name}")
        host = Host(name, self.sim, tcp_config=tcp_config, tracer=self.tracer)
        self.hosts[name] = host
        if self.obs is not None:
            self.obs.attach_endpoint(host)
        return host

    def gateway(self, name: str) -> Gateway:
        if name in self.hosts or name in self.gateways:
            raise ValueError(f"duplicate node name {name}")
        gateway = Gateway(name, self.sim, tracer=self.tracer)
        self.gateways[name] = gateway
        if self.obs is not None:
            self.obs.attach_endpoint(gateway)
        return gateway

    def node_of(self, endpoint: Union[Host, Gateway, Node]) -> Node:
        return endpoint if isinstance(endpoint, Node) else endpoint.node

    # ------------------------------------------------------------------
    # Address allocation
    # ------------------------------------------------------------------
    def _alloc_p2p(self) -> Prefix:
        prefix = Prefix(Address(self._p2p_pool), 30)
        self._p2p_pool += 4
        return prefix

    def _alloc_lan(self) -> Prefix:
        prefix = Prefix(Address(self._lan_pool), 24)
        self._lan_pool += 256
        return prefix

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def connect(self, a, b, *, media: str = "p2p",
                loss: Optional[LossModel] = None, **kwargs):
        """Join two nodes with a point-to-point medium; returns the link.

        Addresses come from the automatic /30 pool.  ``media`` selects the
        substrate: 'p2p', 'satellite', 'radio' or 'x25'.
        """
        if media not in MEDIA:
            raise ValueError(f"unknown media {media!r}; choose from {sorted(MEDIA)}")
        node_a, node_b = self.node_of(a), self.node_of(b)
        prefix = self._alloc_p2p()
        addr_a, addr_b = prefix.host(1), prefix.host(2)
        self._link_count += 1
        iface_a = node_a.add_interface(Interface(
            f"{node_a.name}.l{self._link_count}", addr_a, prefix))
        iface_b = node_b.add_interface(Interface(
            f"{node_b.name}.l{self._link_count}", addr_b, prefix))
        rng = self.streams.stream(f"link.{self._link_count}")
        if loss is not None:
            if media == "x25":
                raise ValueError("x25 subnets are reliable; loss does not apply")
            kwargs["loss"] = loss
        link = MEDIA[media](self.sim, iface_a, iface_b, rng=rng, **kwargs)
        self.links.append(link)
        # Remember a default-route hint: host connected to a gateway.
        if not node_a.is_gateway and node_b.is_gateway:
            self._host_gateway_hint.setdefault(node_a.name, addr_b)
        if not node_b.is_gateway and node_a.is_gateway:
            self._host_gateway_hint.setdefault(node_b.name, addr_a)
        return link

    def lan(self, name: str, members: list, **kwargs) -> LanBus:
        """Create a LAN segment joining the given nodes (auto-addressed)."""
        if name in self.lans:
            raise ValueError(f"duplicate LAN {name}")
        prefix = self._alloc_lan()
        bus = LanBus(self.sim, prefix,
                     rng=self.streams.stream(f"lan.{name}"),
                     name=name, **kwargs)
        self.lans[name] = bus
        gateway_addr: Optional[Address] = None
        for index, member in enumerate(members, start=1):
            node = self.node_of(member)
            iface = Interface(f"{node.name}.{name}", prefix.host(index), prefix)
            node.add_interface(iface)
            bus.attach(iface)
            if node.is_gateway and gateway_addr is None:
                gateway_addr = iface.address
        if gateway_addr is not None:
            for member in members:
                node = self.node_of(member)
                if not node.is_gateway:
                    self._host_gateway_hint.setdefault(node.name, gateway_addr)
        return bus

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def start_routing(self, *, protocol: str = "dv", period: float = 2.0,
                      host_defaults: bool = True) -> None:
        """Run an IGP on every gateway; give hosts default routes."""
        for name, gw in self.gateways.items():
            jitter = self.streams.stream(f"routing.jitter.{name}")
            if protocol == "dv":
                proc = DistanceVectorRouting(
                    gw.node, gw.udp, period=period,
                    jitter_fn=lambda j=jitter: j.uniform(-period / 10, period / 10))
            elif protocol == "ls":
                proc = LinkStateRouting(
                    gw.node, gw.udp, hello_interval=period,
                    jitter_fn=lambda j=jitter: j.uniform(-period / 10, period / 10))
            else:
                raise ValueError(f"unknown routing protocol {protocol!r}")
            proc.start()
            self.routing[name] = proc
        if host_defaults:
            self.install_host_defaults()

    def install_host_defaults(self) -> None:
        for name, host in self.hosts.items():
            hint = self._host_gateway_hint.get(name)
            if hint is not None:
                try:
                    add_default_route(host.node, hint)
                except ValueError:
                    pass

    def converge(self, *, settle: float = 10.0) -> None:
        """Run the clock forward to let routing settle."""
        self.sim.run(until=self.sim.now + settle)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def observe(self, *, profile: bool = True, max_traces: int = 4096):
        """Install a packet-journey :class:`~repro.obs.core.Observability`
        layer across the whole internet and return it.

        Every datagram originated after this call is stamped with a trace
        id, every hop records a span, all component stats enroll in the
        metrics registry, and (with ``profile``) the simulator attributes
        wall time per component.  Idempotent: a second call returns the
        already-installed layer.
        """
        if self.obs is not None:
            return self.obs
        from ..obs.core import Observability

        obs = Observability(max_traces=max_traces, profile=profile)
        obs.install(self)
        return obs

    def profile_table(self, *, per_handler: bool = False):
        """The simulator wall-time profile table (requires :meth:`observe`)."""
        if self.obs is None or self.obs.profiler is None:
            raise RuntimeError("no profiler installed; call observe() first")
        return self.obs.profiler.table(per_handler=per_handler)

    # ------------------------------------------------------------------
    # Topology introspection (the graph view the chaos layer computes on)
    # ------------------------------------------------------------------
    def nodes(self) -> dict[str, Node]:
        """Every node (hosts and gateways) by name."""
        out: dict[str, Node] = {n: h.node for n, h in self.hosts.items()}
        out.update({n: g.node for n, g in self.gateways.items()})
        return out

    def node_by_name(self, name: str) -> Node:
        if name in self.hosts:
            return self.hosts[name].node
        if name in self.gateways:
            return self.gateways[name].node
        raise KeyError(f"no node named {name!r}")

    def address_owners(self) -> dict[int, Node]:
        """Map every interface address (as int) to the owning node —
        the lookup table control-plane path walks resolve next-hops with."""
        owners: dict[int, Node] = {}
        for node in self.nodes().values():
            for iface in node.interfaces:
                owners[int(iface.address)] = node
        return owners

    def link_endpoints(self, link) -> tuple[str, str]:
        """The two node names a point-to-point link joins."""
        a, b = link.ends
        if a.node is None or b.node is None:
            raise ValueError(f"link {link!r} has an unattached end")
        return a.node.name, b.node.name

    def cut_links(self, group_a: set) -> list:
        """Links crossing the cut between ``group_a`` and the rest of the
        topology — exactly the set a partition fault must take down.

        Raises if a LAN segment spans the cut (a bus cannot be half-down;
        partition it by naming the bus membership on one side).
        """
        names = {n if isinstance(n, str) else self.node_of(n).name
                 for n in group_a}
        unknown = names - set(self.nodes())
        if unknown:
            raise KeyError(f"unknown nodes in partition group: {sorted(unknown)}")
        cut = []
        for link in self.links:
            ea, eb = self.link_endpoints(link)
            if (ea in names) != (eb in names):
                cut.append(link)
        for bus in self.lans.values():
            members = {iface.node.name for iface in bus._interfaces.values()
                       if iface.node is not None}
            inside = members & names
            if inside and members - names:
                raise ValueError(
                    f"LAN {bus.name!r} spans the partition cut "
                    f"({sorted(inside)} vs {sorted(members - names)})")
        return cut

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def fail_link(self, link) -> None:
        link.set_up(False)

    def restore_link(self, link) -> None:
        link.set_up(True)

    def crash_gateway(self, name: str) -> None:
        self.gateways[name].node.crash()

    def restore_gateway(self, name: str) -> None:
        self.gateways[name].node.restore()

    def crash_host(self, name: str) -> None:
        """Power-fail an end host.  Fate-sharing (goal 1): every TCP
        conversation whose state lived on this host dies with it — the
        stack's crash hook closes them without emitting a single packet."""
        self.hosts[name].node.crash()

    def restore_host(self, name: str) -> None:
        """Reboot an end host.  Its TCP stack restarts into RFC 793 quiet
        time; session-layer endpoints (if any) get their restore hooks."""
        self.hosts[name].node.restore()

    # ------------------------------------------------------------------
    # Aggregate measurements
    # ------------------------------------------------------------------
    def total_forwarded(self) -> int:
        return sum(g.node.stats.forwarded for g in self.gateways.values())

    def total_routing_bytes(self) -> int:
        total = 0
        for proc in self.routing.values():
            total += proc.stats.bytes_sent
        return total
