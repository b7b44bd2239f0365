"""Fuzz tests: no wire parser may crash or silently accept corruption.

Hosts must survive arbitrary bytes arriving from the network (goal 3's
"reasonable reliability" implies occasional garbage).  Every parser either
returns a valid object or raises its declared error — never an unexpected
exception — and checksummed formats never accept a corrupted payload as
valid.
"""

import pytest
from hypothesis import example, given, strategies as st

from repro.ip import icmp
from repro.ip.address import Address, Prefix
from repro.ip.node import Node
from repro.ip.packet import Datagram, HeaderError
from repro.netlayer.link import Interface
from repro.netmgmt import protocol as mgmt_proto
from repro.routing.base import unpack_adverts, wire_key
from repro.routing.distance_vector import DV_PORT, DistanceVectorRouting
from repro.routing.link_state import _Lsa
from repro.sim.engine import Simulator
from repro.tcp.segment import SegmentError, TcpSegment
from repro.udp import udp as udp_mod
from repro.flows.flowspec import FlowSpec

A = Address("10.0.0.1")
B = Address("10.0.0.2")


@given(st.binary(max_size=512))
def test_ip_parser_never_crashes(data):
    try:
        parsed = Datagram.from_bytes(data)
    except HeaderError:
        return
    # If it parsed, re-serializing must reproduce a consistent datagram.
    assert parsed.total_length <= max(len(data), 20)


@given(st.binary(max_size=256))
def test_tcp_parser_never_crashes(data):
    try:
        TcpSegment.from_bytes(A, B, data)
    except SegmentError:
        pass


@given(st.binary(max_size=256))
def test_udp_parser_never_crashes(data):
    try:
        udp_mod.decode(A, B, data)
    except udp_mod.UdpError:
        pass


@given(st.binary(max_size=256))
def test_icmp_parser_never_crashes(data):
    try:
        icmp.IcmpMessage.from_bytes(data)
    except icmp.IcmpError:
        pass


@given(st.binary(max_size=256))
def test_dv_advert_parser_never_crashes(data):
    adverts = unpack_adverts(data)
    assert isinstance(adverts, list)


@given(st.binary(max_size=256))
@example(b"\x0a\x09\x04\x01\x18\x01")      # 10.9.4.1/24: host bits set
@example(b"\x0a\x09\x04\x00\x21\x01")      # length byte 33
@example(b"\x0a\x09\x04\x00\x18\x01\xff")  # one whole advert + a stray byte
def test_live_dv_process_survives_arbitrary_updates(data):
    """The parser the protocol actually runs is the relaxation loop of
    ``_update_received``: whatever a neighbour sends, it never raises and
    never installs a route whose prefix ``Prefix`` would refuse."""
    node = Node("R", Simulator(), is_gateway=True)
    subnet = Prefix.parse("10.0.0.0/24")
    node.add_interface(Interface("r0", subnet.host(1), subnet))
    proc = DistanceVectorRouting(node, udp_mod.UdpStack(node))
    proc.start()
    proc._update_received(data, subnet.host(2), DV_PORT)
    whole = [data[i:i + 5] for i in range(0, len(data) - 5, 6)]
    for route in node.routes.routes():
        assert Prefix(route.prefix.network, route.prefix.length) == route.prefix
        if route.source == "dv":
            assert wire_key(route.prefix) in whole
    assert len(node.routes) <= 1 + len(whole)


@given(st.binary(max_size=256))
def test_lsa_parser_never_crashes(data):
    lsa = _Lsa.unpack(data)
    assert lsa is None or lsa.router_id >= 0


@given(st.binary(max_size=128))
def test_flowspec_parser_never_crashes(data):
    spec = FlowSpec.unpack(data)
    assert spec is None or spec.weight >= 1


@given(st.binary(max_size=512))
def test_mgmt_pdu_parser_never_crashes(data):
    """The management-plane decoder raises MgmtDecodeError and nothing
    else, no matter what the network hands it."""
    try:
        pdu = mgmt_proto.decode_pdu(data)
    except mgmt_proto.MgmtDecodeError:
        return
    # Anything that parses must re-encode (the caps were enforced).
    assert mgmt_proto.decode_pdu(mgmt_proto.encode_pdu(pdu)) == pdu


_mgmt_values = st.one_of(
    st.none(),
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=32),
)


@given(st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=0xFFFFFFFF),
       st.text(max_size=mgmt_proto.MAX_COMMUNITY_LEN // 4),
       st.lists(st.tuples(st.text(min_size=1, max_size=24), _mgmt_values),
                max_size=8))
def test_mgmt_pdu_round_trip(pdu_type, request_id, community, bindings):
    pdu = mgmt_proto.Pdu(pdu_type=pdu_type, request_id=request_id,
                         community=community, bindings=tuple(bindings))
    assert mgmt_proto.decode_pdu(mgmt_proto.encode_pdu(pdu)) == pdu


@given(st.integers(min_value=0, max_value=200))
def test_mgmt_pdu_every_truncation_rejected_cleanly(cut):
    """Chopping a valid PDU at any byte raises MgmtDecodeError, never
    an IndexError/struct.error, and never parses."""
    pdu = mgmt_proto.request(mgmt_proto.BULK, 42,
                             ["sys.uptime", "if.e0.bytes_sent"],
                             max_repetitions=10)
    wire = mgmt_proto.encode_pdu(pdu)
    cut = cut % len(wire)
    with pytest.raises(mgmt_proto.MgmtDecodeError):
        mgmt_proto.decode_pdu(wire[:cut])


@given(st.binary(min_size=24, max_size=512),
       st.integers(min_value=0, max_value=511),
       st.integers(min_value=1, max_value=255))
def test_tcp_single_bit_corruption_never_accepted(data, pos, flip):
    """A valid segment with one corrupted byte must fail the checksum."""
    seg = TcpSegment(src_port=1, dst_port=2, seq=100, ack=200,
                     flags=0x18, window=1000, payload=data[:64])
    wire = bytearray(seg.to_bytes(A, B))
    pos = pos % len(wire)
    original = wire[pos]
    wire[pos] = original ^ flip
    if wire[pos] == original:
        return
    # Corrupting the data-offset nibble may turn header bytes into
    # "option" bytes and vice versa; whatever happens, the parser must
    # reject (checksum) or raise (structure) — it must never return a
    # segment equal to the original with different bytes on the wire.
    try:
        parsed = TcpSegment.from_bytes(A, B, bytes(wire))
    except SegmentError:
        return
    assert parsed != seg


@given(st.binary(min_size=0, max_size=128),
       st.integers(min_value=0, max_value=200),
       st.integers(min_value=1, max_value=255))
def test_udp_single_bit_corruption_never_accepted(payload, pos, flip):
    wire = bytearray(udp_mod.encode(A, B, 9, 10, payload))
    pos = pos % len(wire)
    original = wire[pos]
    wire[pos] = original ^ flip
    if wire[pos] == original:
        return
    try:
        header, parsed_payload = udp_mod.decode(A, B, bytes(wire))
    except udp_mod.UdpError:
        return
    # Only reachable if corruption hit bytes beyond the UDP length field's
    # coverage — in which case the decoded payload must equal the original.
    assert parsed_payload == payload


# ----------------------------------------------------------------------
# Session resume hellos (the RSES 20-byte handshake frame)
# ----------------------------------------------------------------------
from repro.session import frames  # noqa: E402  (grouped with its tests)


@given(st.binary(max_size=64),
       st.lists(st.integers(min_value=1, max_value=8), min_size=1,
                max_size=8))
def test_session_hello_parser_never_crashes(data, cuts):
    """Arbitrary first-bytes, arriving in arbitrary chunkings, either
    produce a hello or raise SessionProtocolError — nothing else, and
    never a partial/garbage Hello object."""
    parser = frames.HelloParser()
    offset = 0
    try:
        for cut in cuts:
            if offset >= len(data):
                break
            parser.feed(data[offset:offset + cut])
            offset += cut
        parser.feed(data[offset:])
    except frames.SessionProtocolError:
        return
    if parser.done:
        assert 0 <= parser.hello.session_id < (1 << 64)
        assert 0 <= parser.hello.recv_offset < (1 << 64)
    else:
        # Starved: everything fed so far must be a strict prefix of a
        # valid frame (otherwise the magic check would have raised).
        assert len(data) < frames.HELLO_LEN
        assert data[:4] == frames.MAGIC[:len(data[:4])]


@given(st.integers(min_value=0, max_value=(1 << 64) - 1),
       st.integers(min_value=0, max_value=(1 << 64) - 1),
       st.binary(max_size=32),
       st.integers(min_value=1, max_value=frames.HELLO_LEN + 8))
def test_session_hello_round_trip_any_chunking(sid, offset, trailing, cut):
    """encode -> chunked feed -> identical fields, stream bytes intact."""
    wire = frames.encode_hello(sid, offset) + trailing
    parser = frames.HelloParser()
    rest = bytearray()
    for start in range(0, len(wire), cut):
        rest.extend(parser.feed(wire[start:start + cut]))
    assert parser.done
    assert parser.hello.session_id == sid
    assert parser.hello.recv_offset == offset
    assert bytes(rest) == trailing


@given(st.integers(min_value=0, max_value=(1 << 64) - 1),
       st.integers(min_value=0, max_value=(1 << 64) - 1),
       st.integers(min_value=0, max_value=frames.HELLO_LEN - 1),
       st.integers(min_value=1, max_value=255))
def test_session_hello_corruption_rejected_or_differs(sid, offset, pos,
                                                      flip):
    """A flipped byte in the magic is refused; a flipped byte in the id
    or offset fields must change the parsed value — a corrupted hello is
    never mistaken for the original."""
    wire = bytearray(frames.encode_hello(sid, offset))
    wire[pos] ^= flip
    parser = frames.HelloParser()
    try:
        parser.feed(bytes(wire))
    except frames.SessionProtocolError:
        assert pos < len(frames.MAGIC)
        return
    assert parser.done
    assert (parser.hello.session_id, parser.hello.recv_offset) != (sid,
                                                                   offset)


# ----------------------------------------------------------------------
# FlowSpec PDUs (soft-state reservations on PROTO_RSVP)
# ----------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=0xFFFFFFFF),
       st.integers(min_value=0, max_value=0xFFFFFFFF),
       st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=0xFFFF),
       st.integers(min_value=1, max_value=255),
       st.integers(min_value=0, max_value=3_600_000))
@example(0, 0, 0, 0, 1, 129_778)
def test_flowspec_round_trip(src, dst, proto, port, weight, life_ms):
    spec = FlowSpec(Address(src), Address(dst), proto, port,
                    weight, life_ms / 1000.0)
    parsed = FlowSpec.unpack(spec.pack())
    assert parsed is not None
    assert (parsed.src, parsed.dst) == (spec.src, spec.dst)
    assert (parsed.protocol, parsed.dst_port) == (proto, port)
    assert parsed.weight == weight
    # The wire carries whole milliseconds (truncating int()), so one ms
    # is the format's honest precision — plus the float error of the
    # subtraction itself (129.778 s packs as 129777 ms and reads back
    # 0.0010000000000047748 s short).
    assert abs(parsed.lifetime - spec.lifetime) <= 0.001 + 1e-9


@given(st.integers(min_value=0, max_value=0xFFFF))
def test_flowspec_truncation_returns_none(cut):
    """Any truncated spec is rejected with None — never an exception,
    never a spec built from partial fields."""
    spec = FlowSpec(Address("10.1.2.3"), Address("10.4.5.6"), 17, 4242,
                    weight=9, lifetime=12.5)
    wire = spec.pack()
    cut = cut % len(wire)
    assert FlowSpec.unpack(wire[:cut]) is None
