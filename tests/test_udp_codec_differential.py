"""The UDP codec against the original one, as an oracle.

``encode`` packs the pseudo-header and header in one ``struct`` call and
sums them with the payload in one pass; ``decode`` parses with one
``unpack_from`` and verifies in one pass.  The functions below are the
concatenating codec they replaced, kept verbatim with the frozen header
record it returned: on every input the two must produce the same wire
bytes, and on every segment — valid, mutated or arbitrary — the same
header and payload or the same exception, class and message.
"""

import struct
from dataclasses import astuple, dataclass, fields

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ip.address import Address
from repro.ip.checksum import internet_checksum, verify_checksum
from repro.ip.packet import PROTO_UDP
from repro.udp.udp import (
    UDP_HEADER_LEN,
    UdpChecksumError,
    UdpError,
    UdpHeader,
    decode,
    encode,
)


# ----------------------------------------------------------------------
# The oracle: the original codec, verbatim.
# ----------------------------------------------------------------------
def _pseudo_header(src: Address, dst: Address, length: int) -> bytes:
    return struct.pack("!IIBBH", src._value, dst._value, 0, PROTO_UDP, length)


@dataclass(frozen=True)
class OracleUdpHeader:
    """The 8-byte UDP header."""

    src_port: int
    dst_port: int
    length: int
    checksum: int = 0

    def to_bytes(self) -> bytes:
        return struct.pack("!HHHH", self.src_port, self.dst_port,
                           self.length, self.checksum)


def oracle_encode(src: Address, dst: Address, src_port: int, dst_port: int,
                  payload: bytes, *, with_checksum: bool = True) -> bytes:
    """Build a UDP segment (header + payload) with pseudo-header checksum."""
    length = UDP_HEADER_LEN + len(payload)
    header = struct.pack("!HHHH", src_port, dst_port, length, 0)
    if with_checksum:
        csum = internet_checksum(_pseudo_header(src, dst, length) + header + payload)
        if csum == 0:
            csum = 0xFFFF  # transmitted 0 means "no checksum"
        header = header[:6] + struct.pack("!H", csum)
    return header + payload


def oracle_decode(src: Address, dst: Address, segment: bytes):
    """Parse and checksum-verify a UDP segment."""
    if len(segment) < UDP_HEADER_LEN:
        raise UdpError(f"short UDP segment: {len(segment)} bytes")
    src_port, dst_port, length, checksum = struct.unpack("!HHHH", segment[:8])
    if length < UDP_HEADER_LEN or length > len(segment):
        raise UdpError(f"bad UDP length {length}")
    payload = segment[UDP_HEADER_LEN:length]
    if checksum != 0:
        whole = _pseudo_header(src, dst, length) + segment[:length]
        if not verify_checksum(whole):
            raise UdpChecksumError("UDP checksum failed")
    return OracleUdpHeader(src_port, dst_port, length, checksum), payload


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
u16 = st.integers(0, 0xFFFF)
addresses = st.integers(0, 0xFFFFFFFF).map(Address)
payloads = st.one_of(st.binary(max_size=1472),
                     st.integers(0, 1472).map(lambda n: bytes([0xFF]) * n),
                     st.integers(0, 1472).map(bytes))


def zero_sum_payload(src, dst, src_port, dst_port, size):
    """A payload of ``size`` (≥ 2) bytes whose computed checksum is 0, so
    the wire must carry 0xFFFF: the word in front is chosen to bring the
    one's-complement sum of everything else to 0xFFFF."""
    payload = bytearray(size)
    csum = internet_checksum(_pseudo_header(src, dst, UDP_HEADER_LEN + size)
                             + oracle_encode(src, dst, src_port, dst_port,
                                             bytes(payload),
                                             with_checksum=False))
    # Adding a word w to a sum s gives s + w (end-around carry); the
    # missing amount is the current checksum itself.
    payload[0:2] = struct.pack("!H", csum)
    return bytes(payload)


def same_outcome(src, dst, segment):
    """Both decoders agree on ``segment``: equal header and payload, or
    the same exception class and message."""
    try:
        expected = oracle_decode(src, dst, segment)
    except UdpError as exc:
        try:
            decode(src, dst, segment)
        except UdpError as got:
            assert type(got) is type(exc)
            assert str(got) == str(exc)
        else:
            raise AssertionError(f"accepted what the oracle refused: {exc!r}")
        return None
    header, payload = decode(src, dst, segment)
    assert type(header) is UdpHeader
    assert tuple(header) == astuple(expected[0])
    assert header.to_bytes() == expected[0].to_bytes()
    assert payload == expected[1]
    assert type(payload) is type(expected[1])
    return header, payload


def resum(src, dst, wire: bytearray) -> bytes:
    """``wire`` with its checksum recomputed over its own length field, so
    a decode gets past the checksum to the length handling behind it."""
    wire[6:8] = b"\x00\x00"
    length = struct.unpack("!H", wire[4:6])[0]
    csum = internet_checksum(_pseudo_header(src, dst, length)
                             + bytes(wire[:length])) or 0xFFFF
    wire[6:8] = struct.pack("!H", csum)
    return bytes(wire)


# ----------------------------------------------------------------------
def test_header_record_keeps_its_fields():
    assert UdpHeader._fields == tuple(f.name for f in fields(OracleUdpHeader))
    assert UdpHeader(1, 2, 8) == UdpHeader(1, 2, 8, 0)
    assert UdpHeader(1, 2, 3, 4).to_bytes() == OracleUdpHeader(1, 2, 3, 4).to_bytes()


@settings(max_examples=400, deadline=None)
@given(addresses, addresses, u16, u16, payloads, st.booleans())
def test_wire_bytes_equal_the_oracle(src, dst, sport, dport, payload, summed):
    wire = encode(src, dst, sport, dport, payload, with_checksum=summed)
    assert wire == oracle_encode(src, dst, sport, dport, payload,
                                 with_checksum=summed)
    header, got = same_outcome(src, dst, wire)
    assert got == payload
    assert (header.src_port, header.dst_port) == (sport, dport)


@settings(max_examples=200, deadline=None)
@given(addresses, addresses, u16, u16, st.integers(2, 1472))
def test_computed_zero_is_sent_as_all_ones(src, dst, sport, dport, size):
    payload = zero_sum_payload(src, dst, sport, dport, size)
    wire = encode(src, dst, sport, dport, payload)
    assert wire == oracle_encode(src, dst, sport, dport, payload)
    assert wire[6:8] == b"\xff\xff"
    same_outcome(src, dst, wire)


@settings(max_examples=300, deadline=None)
@given(addresses, addresses, u16, u16, payloads, st.booleans(), st.data())
def test_mutated_segments_decode_like_the_oracle(src, dst, sport, dport,
                                                 payload, summed, draw):
    wire = bytearray(oracle_encode(src, dst, sport, dport, payload,
                                   with_checksum=summed))
    kind = draw.draw(st.sampled_from(
        ["flip", "truncate", "length", "zero-sum", "swap-ends"]))
    if kind == "flip":
        for _ in range(draw.draw(st.integers(1, 3))):
            bit = draw.draw(st.integers(0, len(wire) * 8 - 1))
            wire[bit // 8] ^= 1 << (bit % 8)
    elif kind == "truncate":
        wire = wire[:draw.draw(st.integers(0, len(wire)))]
    elif kind == "length":
        # Any length field — below 8, inside the buffer, past its end —
        # with the checksum made good for it (or switched off).
        wire[4:6] = struct.pack("!H", draw.draw(st.one_of(
            st.integers(0, 7), st.integers(8, len(wire)),
            st.integers(len(wire) + 1, 0xFFFF))))
        if draw.draw(st.booleans()) and UDP_HEADER_LEN <= struct.unpack(
                "!H", wire[4:6])[0] <= len(wire):
            wire = bytearray(resum(src, dst, wire))
        elif draw.draw(st.booleans()):
            wire[6:8] = b"\x00\x00"
    elif kind == "zero-sum":
        wire[6:8] = b"\x00\x00"   # "no checksum": whatever follows is taken
    else:
        # The right bytes under the wrong pseudo-header.
        src, dst = dst, src
    same_outcome(src, dst, bytes(wire))


@settings(max_examples=300, deadline=None)
@given(addresses, addresses, st.binary(max_size=64), st.booleans())
def test_arbitrary_bytes_decode_like_the_oracle(src, dst, blob, fix):
    wire = bytearray(blob)
    if fix and len(wire) >= UDP_HEADER_LEN and UDP_HEADER_LEN <= struct.unpack(
            "!H", wire[4:6])[0] <= len(wire):
        wire = bytearray(resum(src, dst, wire))
    same_outcome(src, dst, bytes(wire))


def test_edges():
    """The corners drawn above, pinned by hand."""
    a, b = Address("10.0.0.1"), Address("10.0.0.2")
    for sport, dport, payload in ((0, 0, b""), (0xFFFF, 0xFFFF, b"\xff" * 1472),
                                  (1, 2, b"\x01"), (53, 9000, bytes(1471))):
        for summed in (True, False):
            wire = encode(a, b, sport, dport, payload, with_checksum=summed)
            assert wire == oracle_encode(a, b, sport, dport, payload,
                                         with_checksum=summed)
            assert same_outcome(a, b, wire)[1] == payload
    # Empty, short, length 7 and 9 (below 8, past the end), and a
    # well-formed length with a wrong sum.
    for wire in (b"", bytes(7), bytes(8), bytes(5) + b"\x07" + bytes(2),
                 bytes(5) + b"\x09" + bytes(2), bytes(5) + b"\x08\x12\x34"):
        same_outcome(a, b, wire)
