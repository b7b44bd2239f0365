"""Tests for the Host/Gateway/StreamSocket convenience API."""

import pathlib
import re

import pytest

import repro.sockets
from repro import Internet
from repro.sockets.api import StreamSocket
from repro.tcp.state import TcpState


def test_stream_socket_never_truncates_writes(simple_internet):
    net, h1, h2, core = simple_internet
    received = bytearray()

    def on_socket(sock):
        sock.on_data = received.extend

    h2.listen(4000, on_socket)
    sock = h1.connect(h2.address, 4000)
    big = bytes(range(256)) * 2000  # 512 000 B, far beyond the TCP buffer
    sock.write(big)
    sock.close()
    net.sim.run(until=net.sim.now + 300)
    assert bytes(received) == big


def test_stream_socket_write_before_established_is_queued(simple_internet):
    net, h1, h2, core = simple_internet
    received = bytearray()
    h2.listen(4000, lambda s: setattr(s, "on_data", received.extend))
    sock = h1.connect(h2.address, 4000)
    sock.write(b"early bird")  # connection still in SYN_SENT
    net.sim.run(until=net.sim.now + 5)
    assert bytes(received) == b"early bird"


def test_stream_socket_close_flushes_queue(simple_internet):
    net, h1, h2, core = simple_internet
    received = bytearray()
    h2.listen(4000, lambda s: setattr(s, "on_data", received.extend))
    sock = h1.connect(h2.address, 4000)
    sock.write(b"x" * 100_000)
    sock.close()  # close with bytes still queued app-side
    net.sim.run(until=net.sim.now + 120)
    assert len(received) == 100_000


def serve_recording(host, port):
    """Listen on ``port``; returns the bytes received and the order in which
    data and the peer's close reached the application."""
    received, events = bytearray(), []

    def on_socket(sock):
        sock.on_data = lambda d: (received.extend(d), events.append("data"))
        sock.on_closed = lambda: events.append("closed")

    host.listen(port, on_socket)
    return received, events


def test_write_then_close_while_syn_sent_flushes_then_sends_fin(simple_internet):
    net, h1, h2, core = simple_internet
    received, events = serve_recording(h2, 4000)
    sock = h1.connect(h2.address, 4000)
    assert sock.conn.state is TcpState.SYN_SENT
    sock.write(b"early bird")
    sock.close()
    # Bytes are still queued, so the close must wait for the handshake
    # rather than abandon the SYN_SENT connection.
    assert sock.pending_bytes == 10
    assert sock.conn.state is TcpState.SYN_SENT and not sock.conn.fin_queued
    net.sim.run(until=net.sim.now + 10)
    assert bytes(received) == b"early bird"
    assert events == ["data", "closed"]
    assert sock.conn.fin_queued


def test_close_with_nothing_written_while_syn_sent_abandons_the_open(simple_internet):
    net, h1, h2, core = simple_internet
    h2.listen(4000, lambda s: None)
    sock = h1.connect(h2.address, 4000)
    sock.close()
    assert sock.conn.state is TcpState.CLOSED
    assert sock.conn.close_reason == "closed-before-established"


def test_write_larger_than_the_send_buffer_flushes_then_sends_fin(simple_internet):
    net, h1, h2, core = simple_internet
    received, events = serve_recording(h2, 4000)
    sock = h1.connect(h2.address, 4000)
    net.sim.run(until=net.sim.now + 2)
    capacity = sock.conn.send_buffer.capacity
    big = bytes(range(256)) * (3 * capacity // 256)
    sock.write(big)
    sock.close()
    # The transport took one buffer-full; the rest waits in the socket, and
    # the FIN waits behind all of it.
    assert sock.pending_bytes == len(big) - capacity
    while sock.pending_bytes:
        assert not sock.conn.fin_queued
        net.sim.run(until=net.sim.now + 0.05)
    assert sock.conn.fin_queued
    net.sim.run(until=net.sim.now + 60)
    assert bytes(received) == big
    assert events[-1] == "closed" and events.count("closed") == 1


def test_write_after_close_raises(simple_internet):
    net, h1, h2, core = simple_internet
    h2.listen(4000, lambda s: None)
    sock = h1.connect(h2.address, 4000)
    sock.close()
    with pytest.raises(ConnectionError):
        sock.write(b"too late")


def test_on_open_and_on_closed_fire(simple_internet):
    net, h1, h2, core = simple_internet
    events = []

    def serve(s):
        s.on_data = lambda d: None
        s.on_closed = s.close  # close our side when the peer closes

    h2.listen(4000, serve)
    sock = h1.connect(h2.address, 4000)
    sock.on_open = lambda: events.append("open")
    sock.on_closed = lambda: events.append("closed")
    net.sim.run(until=net.sim.now + 2)
    sock.close()
    net.sim.run(until=net.sim.now + 60)
    assert events[0] == "open"
    assert "closed" in events


def test_abort_discards_queue(simple_internet):
    net, h1, h2, core = simple_internet
    h2.listen(4000, lambda s: None)
    sock = h1.connect(h2.address, 4000)
    net.sim.run(until=net.sim.now + 2)
    sock.write(b"x" * 500_000)
    sock.abort()
    assert sock.pending_bytes == 0


def test_bytes_counters(simple_internet):
    net, h1, h2, core = simple_internet
    server_sockets = []

    def on_socket(sock):
        server_sockets.append(sock)
        sock.on_data = lambda d: sock.write(d)

    h2.listen(4000, on_socket)
    sock = h1.connect(h2.address, 4000)
    got = bytearray()
    sock.on_data = got.extend
    sock.write(b"ping")
    net.sim.run(until=net.sim.now + 5)
    assert sock.bytes_written == 4
    assert sock.bytes_received == 4
    assert server_sockets[0].bytes_received == 4


def test_host_attach_and_default_route():
    net = Internet(seed=0)
    h = net.host("H")
    iface = h.attach("eth0", "10.5.0.2", "10.5.0.0/24")
    assert iface.address == h.address
    # default_route requires a connected next hop
    h.default_route("10.5.0.1")
    route = h.node.routes.lookup("203.0.113.1")
    assert str(route.next_hop) == "10.5.0.1"


def test_gateway_is_forwarding_node():
    net = Internet(seed=0)
    g = net.gateway("G")
    assert g.node.is_gateway


def test_sockets_layer_reads_no_private_attribute_of_a_connection():
    """What the socket needs of the transport, the transport exposes
    (``fin_queued``, ``TcpState`` identity, ``send_buffer.free_space``)."""
    for path in pathlib.Path(repro.sockets.__file__).parent.glob("*.py"):
        assert not re.search(r"\bconn\._\w", path.read_text()), path.name
