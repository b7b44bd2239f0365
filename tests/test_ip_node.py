"""Unit/integration tests for hosts and gateways (the datagram path)."""

import pytest

from repro.ip import icmp
from repro.ip.address import Address, Prefix
from repro.ip.forwarding import Route
from repro.ip.node import Node
from repro.ip.packet import Datagram, PROTO_UDP
from repro.netlayer.link import Interface, PointToPointLink
from repro.routing.static import add_default_route
from repro.sim.engine import Simulator


def collect(node, proto=PROTO_UDP):
    got = []
    node.register_protocol(proto, lambda n, d, i: got.append(d))
    return got


def test_local_delivery(two_hosts_one_gateway):
    sim, h1, gw, h2 = two_hosts_one_gateway
    got = collect(h2)
    assert h1.send("10.0.2.2", PROTO_UDP, b"hi")
    sim.run(until=1)
    assert len(got) == 1
    assert got[0].payload == b"hi"
    assert got[0].src == Address("10.0.1.1")


def test_gateway_forwards_and_counts(two_hosts_one_gateway):
    sim, h1, gw, h2 = two_hosts_one_gateway
    collect(h2)
    h1.send("10.0.2.2", PROTO_UDP, b"hi")
    sim.run(until=1)
    assert gw.stats.forwarded == 1


def test_ttl_decremented_in_transit(two_hosts_one_gateway):
    sim, h1, gw, h2 = two_hosts_one_gateway
    got = collect(h2)
    h1.send("10.0.2.2", PROTO_UDP, b"hi", ttl=10)
    sim.run(until=1)
    assert got[0].ttl == 9


def test_ttl_expiry_generates_time_exceeded(two_hosts_one_gateway):
    sim, h1, gw, h2 = two_hosts_one_gateway
    errors = []
    h1.add_icmp_error_listener(lambda n, m, d: errors.append(m))
    h1.send("10.0.2.2", PROTO_UDP, b"hi", ttl=1)
    sim.run(until=1)
    assert gw.stats.dropped_ttl == 1
    assert len(errors) == 1
    assert errors[0].type == icmp.TIME_EXCEEDED


def test_no_route_generates_unreachable(two_hosts_one_gateway):
    sim, h1, gw, h2 = two_hosts_one_gateway
    errors = []
    h1.add_icmp_error_listener(lambda n, m, d: errors.append(m))
    h1.send("203.0.113.5", PROTO_UDP, b"hi")
    sim.run(until=1)
    assert gw.stats.dropped_no_route == 1
    assert errors and errors[0].type == icmp.DEST_UNREACHABLE


def test_unknown_protocol_generates_unreachable(two_hosts_one_gateway):
    sim, h1, gw, h2 = two_hosts_one_gateway
    errors = []
    h1.add_icmp_error_listener(lambda n, m, d: errors.append(m))
    h1.send("10.0.2.2", 99, b"hi")  # no handler registered on h2
    sim.run(until=1)
    assert errors and errors[0].code == icmp.UNREACH_PROTOCOL


def test_host_does_not_forward(two_hosts_one_gateway):
    sim, h1, gw, h2 = two_hosts_one_gateway
    # Craft a datagram through h2 addressed elsewhere.
    d = Datagram(src=Address("10.0.2.1"), dst=Address("10.0.9.9"),
                 protocol=PROTO_UDP, payload=b"x")
    h2.datagram_arrived(d, h2.interfaces[0])
    assert h2.stats.dropped_not_mine == 1
    assert h2.stats.forwarded == 0


def test_ping_round_trip(two_hosts_one_gateway):
    sim, h1, gw, h2 = two_hosts_one_gateway
    replies = []
    h1.ping("10.0.2.2", replies.append)
    sim.run(until=2)
    assert len(replies) == 1
    assert replies[0] > 0


def test_fragmentation_on_small_mtu_egress():
    sim = Simulator()
    a, b = Node("A", sim), Node("B", sim, is_gateway=True)
    ia = a.add_interface(Interface("a0", Address("10.0.1.1"),
                                   Prefix.parse("10.0.1.0/24")))
    ib = b.add_interface(Interface("b0", Address("10.0.1.2"),
                                   Prefix.parse("10.0.1.0/24")))
    PointToPointLink(sim, ia, ib, mtu=200, bandwidth_bps=1e6, delay=0.001)
    got = collect(b)
    a.send("10.0.1.2", PROTO_UDP, b"z" * 500)
    sim.run(until=1)
    assert a.stats.fragments_created >= 3
    assert len(got) == 1 and got[0].payload == b"z" * 500


def test_df_drop_counted():
    sim = Simulator()
    a, b = Node("A", sim), Node("B", sim)
    ia = a.add_interface(Interface("a0", Address("10.0.1.1"),
                                   Prefix.parse("10.0.1.0/24")))
    ib = b.add_interface(Interface("b0", Address("10.0.1.2"),
                                   Prefix.parse("10.0.1.0/24")))
    PointToPointLink(sim, ia, ib, mtu=200, bandwidth_bps=1e6, delay=0.001)
    assert not a.send("10.0.1.2", PROTO_UDP, b"z" * 500, dont_fragment=True)
    assert a.stats.dropped_df == 1


def test_down_node_sends_nothing(two_hosts_one_gateway):
    sim, h1, gw, h2 = two_hosts_one_gateway
    h1.up = False
    assert not h1.send("10.0.2.2", PROTO_UDP, b"hi")
    assert h1.stats.dropped_down == 1


def test_crashed_gateway_black_holes(two_hosts_one_gateway):
    sim, h1, gw, h2 = two_hosts_one_gateway
    got = collect(h2)
    gw.crash()
    h1.send("10.0.2.2", PROTO_UDP, b"hi")
    sim.run(until=1)
    assert got == []


def test_crash_clears_dynamic_routes_only(two_hosts_one_gateway):
    sim, h1, gw, h2 = two_hosts_one_gateway
    gw.routes.install(Route(Prefix.parse("10.9.0.0/16"),
                            gw.interfaces[0], Address("10.0.1.1"),
                            metric=3, source="dv"))
    connected_before = sum(1 for r in gw.routes.routes()
                           if r.source == "connected")
    gw.crash()
    assert all(r.source != "dv" for r in gw.routes.routes())
    after = sum(1 for r in gw.routes.routes() if r.source == "connected")
    assert after == connected_before


def test_crash_and_restore_hooks(two_hosts_one_gateway):
    sim, h1, gw, h2 = two_hosts_one_gateway
    calls = []
    gw.on_crash.append(lambda: calls.append("crash"))
    gw.on_restore.append(lambda: calls.append("restore"))
    gw.crash()
    gw.restore()
    assert calls == ["crash", "restore"]


def test_crash_clears_redirect_and_echo_state(two_hosts_one_gateway):
    # Fate-sharing regression: redirect rate-limit memory and pending echo
    # waiters are volatile conversation state — a crash must take them too,
    # or the restored node resumes suppressing redirects it never sent and
    # fires callbacks for pings the dead incarnation issued.
    sim, h1, gw, h2 = two_hosts_one_gateway
    gw._redirects_sent_to[(int(Address("10.0.1.2")), 42)] = sim.now
    gw._echo_waiters[(7, 1)] = lambda t: None
    gw.crash()
    assert gw._redirects_sent_to == {}
    assert gw._echo_waiters == {}


def test_source_address_follows_outgoing_interface(two_hosts_one_gateway):
    sim, h1, gw, h2 = two_hosts_one_gateway
    got = collect(h2)
    h1.send("10.0.2.2", PROTO_UDP, b"hi")
    sim.run(until=1)
    assert got[0].src == h1.interfaces[0].address


def test_broadcast_delivered_locally(two_hosts_one_gateway):
    sim, h1, gw, h2 = two_hosts_one_gateway
    got = collect(gw)
    h1.send("10.0.1.255", PROTO_UDP, b"hello all", ttl=1)
    sim.run(until=1)
    assert len(got) == 1


def test_forward_inspectors_see_transit(two_hosts_one_gateway):
    sim, h1, gw, h2 = two_hosts_one_gateway
    collect(h2)
    seen = []
    gw.forward_inspectors.append(seen.append)
    h1.send("10.0.2.2", PROTO_UDP, b"hi")
    sim.run(until=1)
    assert len(seen) == 1
    assert seen[0].dst == Address("10.0.2.2")


def test_work_units_counted(two_hosts_one_gateway):
    sim, h1, gw, h2 = two_hosts_one_gateway
    collect(h2)
    h1.send("10.0.2.2", PROTO_UDP, b"hi")
    sim.run(until=1)
    assert gw.stats.work_units >= 2  # arrival + output


def test_node_requires_interface_for_address():
    sim = Simulator()
    lonely = Node("L", sim)
    with pytest.raises(RuntimeError):
        _ = lonely.address


def test_icmp_error_rate_limited_per_type_and_source(two_hosts_one_gateway):
    """A garbage flood buys at most one ICMP error per (type, source)
    per interval — the rest are counted, not amplified back."""
    sim, h1, gw, h2 = two_hosts_one_gateway
    errors = []
    h1.add_icmp_error_listener(lambda n, m, d: errors.append(m))
    for i in range(20):
        sim.call_at(0.01 * (i + 1),
                    lambda: h1.send("203.0.113.5", PROTO_UDP, b"junk"))
    sim.run(until=0.5)
    assert gw.stats.dropped_no_route == 20
    assert len(errors) == 1                  # one advisory, not twenty
    assert gw.icmp_suppressed == 19
    # A *different* error type from the same source still gets through.
    h1.send("10.0.2.2", PROTO_UDP, b"hi", ttl=1)
    sim.run(until=1.0)
    assert any(m.type == icmp.TIME_EXCEEDED for m in errors)


def test_icmp_rate_limit_window_expires(two_hosts_one_gateway):
    sim, h1, gw, h2 = two_hosts_one_gateway
    errors = []
    h1.add_icmp_error_listener(lambda n, m, d: errors.append(m))
    h1.send("203.0.113.5", PROTO_UDP, b"a")
    sim.run(until=0.5)
    h1.send("203.0.113.5", PROTO_UDP, b"b")
    sim.run(until=gw.icmp_error_interval + 0.6)   # next interval open
    h1.send("203.0.113.5", PROTO_UDP, b"c")
    sim.run(until=gw.icmp_error_interval + 1.2)
    assert len(errors) == 2                  # first and third; second muted
    assert gw.icmp_suppressed == 1


def test_limiter_tables_stay_bounded_under_address_scan(two_hosts_one_gateway):
    """Bounded state: 20k distinct spoofed peers at 1000/s must not leave
    20k entries in the redirect, ICMP-error and quench limiters — and a
    prune may only forget peers whose interval is already over."""
    sim, h1, gw, h2 = two_hosts_one_gateway
    arrival = gw.interfaces[0]
    add_default_route(gw, "10.0.1.1")       # unknown dsts dog-leg back out
    on_link, real_dst = Address("10.0.1.7"), Address("10.0.2.2")

    def expired_from(source):               # -> Time Exceeded, keyed by source
        gw.datagram_arrived(
            Datagram(source, real_dst, PROTO_UDP, b"x", ttl=1), arrival)

    prunes = 0
    for i in range(20_000):
        sim.run(until=i * 0.001)
        spoofed = Address(0xAC100000 + i)
        size = len(gw._icmp_errors_sent_to)
        expired_from(spoofed)
        if len(gw._icmp_errors_sent_to) < size:
            # The peer of 1 ms ago is inside its interval: still muted.
            prunes += 1
            muted = gw.icmp_suppressed
            expired_from(Address(0xAC100000 + i - 1))
            assert gw.icmp_suppressed == muted + 1
        # A dog-leg to a fresh destination -> Redirect, keyed by the pair.
        gw.datagram_arrived(Datagram(on_link, spoofed, PROTO_UDP, b"x"), arrival)
        # Congestion advice for a fresh source -> its own quench window.
        gw._send_icmp(icmp.source_quench(
            gw.address, Datagram(spoofed, real_dst, PROTO_UDP, b"x")))
    assert prunes >= 2
    bound = type(gw.routes).CACHE_MAX
    live_1s, live_5s = 1_000, 5_000         # peers per limiter interval
    assert len(gw._icmp_errors_sent_to) <= bound + live_1s
    assert len(gw._quench_windows) <= bound + live_1s
    assert len(gw._redirects_sent_to) <= bound + live_5s
    assert gw.icmp_suppressed == prunes     # nobody else was ever muted
