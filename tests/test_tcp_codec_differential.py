"""The TCP segment codec against the original one, as an oracle.

``TcpSegment.to_bytes``/``from_bytes`` pack the pseudo-header and header
in one ``struct`` call and sum them with the payload in one pass, and
parse with one ``unpack_from``.  The functions below are the
concatenating codec they replaced, kept verbatim: on every input the two
must produce the same wire bytes, and on every wire — valid, mutated or
arbitrary — the same segment or the same :class:`SegmentError`.
"""

import struct
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ip.address import Address
from repro.ip.checksum import internet_checksum, verify_checksum
from repro.ip.packet import PROTO_TCP
from repro.tcp.segment import (
    TCP_HEADER_LEN,
    SegmentError,
    TcpSegment,
    _OPT_END,
    _OPT_MSS,
    _OPT_NOP,
)


# ----------------------------------------------------------------------
# The oracle: the original codec, verbatim.
# ----------------------------------------------------------------------
def _options_bytes(self) -> bytes:
    if self.mss_option is None:
        return b""
    # MSS option (kind=2, len=4, value) padded to a 4-byte boundary.
    return struct.pack("!BBH", _OPT_MSS, 4, self.mss_option)


def oracle_to_bytes(self, src: Address, dst: Address) -> bytes:
    """Serialize with a valid pseudo-header checksum."""
    options = _options_bytes(self)
    header_len = TCP_HEADER_LEN + len(options)
    if header_len % 4:
        options += b"\x00" * (4 - header_len % 4)
        header_len = TCP_HEADER_LEN + len(options)
    offset_flags = ((header_len // 4) << 12) | self.flags
    header = struct.pack(
        "!HHIIHHHH",
        self.src_port,
        self.dst_port,
        self.seq,
        self.ack,
        offset_flags,
        self.window,
        0,  # checksum placeholder
        self.urgent,
    ) + options
    total = len(header) + len(self.payload)
    pseudo = src.to_bytes() + dst.to_bytes() + struct.pack("!BBH", 0, PROTO_TCP, total)
    csum = internet_checksum(pseudo + header + self.payload)
    header = header[:16] + struct.pack("!H", csum) + header[18:]
    return header + self.payload


def oracle_from_bytes(src: Address, dst: Address, data: bytes) -> TcpSegment:
    """Parse and checksum-verify; raises :class:`SegmentError`."""
    if len(data) < TCP_HEADER_LEN:
        raise SegmentError(f"short TCP segment: {len(data)} bytes")
    (src_port, dst_port, seq, ack, offset_flags,
     window, _csum, urgent) = struct.unpack("!HHIIHHHH", data[:TCP_HEADER_LEN])
    header_len = (offset_flags >> 12) * 4
    if header_len < TCP_HEADER_LEN or header_len > len(data):
        raise SegmentError(f"bad data offset {header_len}")
    pseudo = src.to_bytes() + dst.to_bytes() + struct.pack(
        "!BBH", 0, PROTO_TCP, len(data))
    if not verify_checksum(pseudo + data):
        raise SegmentError("TCP checksum failed")
    mss = oracle_parse_mss(data[TCP_HEADER_LEN:header_len])
    return TcpSegment(
        src_port=src_port,
        dst_port=dst_port,
        seq=seq,
        ack=ack,
        flags=offset_flags & 0xFF,
        window=window,
        payload=data[header_len:],
        urgent=urgent,
        mss_option=mss,
    )


def oracle_parse_mss(options: bytes) -> Optional[int]:
    i = 0
    while i < len(options):
        kind = options[i]
        if kind == _OPT_END:
            break
        if kind == _OPT_NOP:
            i += 1
            continue
        if i + 1 >= len(options):
            break
        length = options[i + 1]
        if length < 2 or i + length > len(options):
            break
        if kind == _OPT_MSS and length == 4:
            return struct.unpack("!H", options[i + 2 : i + 4])[0]
        i += length
    return None


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
u32 = st.integers(0, 0xFFFFFFFF)
near_wrap = st.one_of(u32, st.integers(0, 64).map(lambda d: (1 << 32) - 1 - d),
                      st.integers(0, 64))
u16 = st.integers(0, 0xFFFF)
addresses = u32.map(Address)
payloads = st.one_of(st.binary(max_size=1460),
                     st.integers(0, 1460).map(lambda n: bytes([0xFF]) * n),
                     st.integers(0, 1460).map(bytes))

segments = st.builds(
    TcpSegment,
    src_port=u16, dst_port=u16, seq=near_wrap, ack=near_wrap,
    flags=st.integers(0, 0xFF), window=u16, payload=payloads, urgent=u16,
    mss_option=st.one_of(st.none(), u16))


def same_outcome(src, dst, wire):
    """Both parsers agree on ``wire``: an equal segment or equal errors."""
    try:
        expected = oracle_from_bytes(src, dst, wire)
    except SegmentError as exc:
        try:
            TcpSegment.from_bytes(src, dst, wire)
        except SegmentError as got:
            assert str(got) == str(exc)
        else:
            raise AssertionError(f"accepted what the oracle refused: {exc}")
        return None
    got = TcpSegment.from_bytes(src, dst, wire)
    assert got == expected
    assert type(got.payload) is type(expected.payload)
    return got


def resum(src, dst, wire: bytearray) -> bytes:
    """``wire`` with its checksum field recomputed, so a parse gets past
    the checksum to the offset and option handling behind it."""
    wire[16:18] = b"\x00\x00"
    pseudo = src.to_bytes() + dst.to_bytes() + struct.pack(
        "!BBH", 0, PROTO_TCP, len(wire))
    wire[16:18] = struct.pack("!H", internet_checksum(pseudo + bytes(wire)))
    return bytes(wire)


# ----------------------------------------------------------------------
@settings(max_examples=400, deadline=None)
@given(segments, addresses, addresses)
def test_wire_bytes_equal_the_oracle(seg, src, dst):
    wire = seg.to_bytes(src, dst)
    assert wire == oracle_to_bytes(seg, src, dst)
    assert TcpSegment.from_bytes(src, dst, wire) == oracle_from_bytes(
        src, dst, wire) == seg


@settings(max_examples=300, deadline=None)
@given(segments, addresses, addresses, st.data())
def test_mutated_wires_parse_like_the_oracle(seg, src, dst, draw):
    wire = bytearray(oracle_to_bytes(seg, src, dst))
    kind = draw.draw(st.sampled_from(
        ["flip", "truncate", "offset", "options", "swap-ends"]))
    if kind == "flip":
        for _ in range(draw.draw(st.integers(1, 3))):
            bit = draw.draw(st.integers(0, len(wire) * 8 - 1))
            wire[bit // 8] ^= 1 << (bit % 8)
        if draw.draw(st.booleans()):
            wire = resum(src, dst, wire)
    elif kind == "truncate":
        wire = wire[:draw.draw(st.integers(0, len(wire)))]
    elif kind == "offset":
        # Any data offset, checksum made good: the offset checks and the
        # option walk see header bytes, payload bytes or nothing.
        wire[12] = (draw.draw(st.integers(0, 15)) << 4) | (wire[12] & 0x0F)
        wire = resum(src, dst, wire)
    elif kind == "options":
        # Rewrite the option area with NOP/END/MSS/bad-length kinds.
        words = draw.draw(st.integers(1, 10))
        area = draw.draw(st.lists(
            st.sampled_from([_OPT_END, _OPT_NOP, _OPT_MSS, 0, 1, 2, 3, 4,
                             5, 0x40, 0xFF]),
            min_size=4 * words, max_size=4 * words))
        body = wire[TCP_HEADER_LEN + (4 if seg.mss_option is not None else 0):]
        wire = wire[:TCP_HEADER_LEN] + bytearray(area) + body
        wire[12] = ((5 + words) << 4) | (wire[12] & 0x0F)
        wire = resum(src, dst, wire)
    else:
        # The right bytes under the wrong pseudo-header.
        src, dst = dst, src
    same_outcome(src, dst, bytes(wire))


@settings(max_examples=300, deadline=None)
@given(addresses, addresses, st.binary(max_size=80), st.booleans())
def test_arbitrary_bytes_parse_like_the_oracle(src, dst, blob, fix):
    wire = bytearray(blob)
    if fix and len(wire) >= TCP_HEADER_LEN:
        wire = bytearray(resum(src, dst, wire))
    same_outcome(src, dst, bytes(wire))


def test_edges():
    """The corners drawn above, pinned by hand."""
    a, b = Address("10.0.0.1"), Address("10.0.0.2")
    for seg in (
        TcpSegment(0, 0, 0),
        TcpSegment(0xFFFF, 0xFFFF, 0xFFFFFFFF, 0xFFFFFFFF, 0xFF, 0xFFFF,
                   b"\xff" * 1459, 0xFFFF, 0xFFFF),
        TcpSegment(1, 2, 3, mss_option=0, payload=b"\x00"),
        TcpSegment(1, 2, (1 << 32) - 1, flags=0x12, mss_option=536),
    ):
        wire = seg.to_bytes(a, b)
        assert wire == oracle_to_bytes(seg, a, b)
        assert same_outcome(a, b, wire) == seg
    for wire in (b"", b"\x00" * 19, b"\x00" * 20, b"\x00" * 12 + b"\xf0" + b"\x00" * 7):
        same_outcome(a, b, wire)
