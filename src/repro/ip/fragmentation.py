"""IP fragmentation and reassembly.

Goal 3 requires carrying datagrams across networks with wildly different
maximum packet sizes (1500-byte Ethernets down to ~128-byte lines); the
architecture's answer is gateway fragmentation with *host* reassembly — the
network never reassembles, because that would require per-conversation state
in gateways, violating fate-sharing.

Experiment E11 measures the well-known cost: a datagram split into *n*
fragments is lost if *any* fragment is lost, so effective loss compounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..sim.engine import EventHandle, Simulator
from .packet import Datagram, IP_HEADER_LEN

__all__ = ["fragment", "FragmentationError", "Reassembler", "ReassemblyStats"]

_FRAG_UNIT = 8  # fragment offsets are in 8-byte units (RFC 791)


class FragmentationError(Exception):
    """Raised when a datagram cannot be fragmented (DF set, or absurd MTU)."""


def fragment(datagram: Datagram, mtu: int) -> list[Datagram]:
    """Split ``datagram`` into fragments that each fit in ``mtu`` bytes.

    Returns ``[datagram]`` unchanged when it already fits.  Offsets are kept
    in 8-byte units; every fragment carries the full IP header (the per-
    fragment header cost measured by E11).  Fragmenting a fragment is legal
    and preserves offsets, as the architecture requires for cascaded small-
    MTU networks.
    """
    if datagram.total_length <= mtu:
        return [datagram]
    if datagram.dont_fragment:
        raise FragmentationError(
            f"datagram of {datagram.total_length} B needs fragmentation "
            f"for mtu {mtu} but DF is set"
        )
    max_payload = mtu - IP_HEADER_LEN
    if max_payload < _FRAG_UNIT:
        raise FragmentationError(f"mtu {mtu} cannot carry any payload")
    # All fragments except the last must carry a multiple of 8 bytes.
    chunk = (max_payload // _FRAG_UNIT) * _FRAG_UNIT
    payload = datagram.payload
    fragments: list[Datagram] = []
    offset_units = datagram.fragment_offset
    pos = 0
    while pos < len(payload):
        piece = payload[pos : pos + chunk]
        last_piece = pos + len(piece) >= len(payload)
        fragments.append(
            datagram.copy(
                payload=piece,
                fragment_offset=offset_units + pos // _FRAG_UNIT,
                more_fragments=datagram.more_fragments or not last_piece,
            )
        )
        pos += len(piece)
    return fragments


@dataclass
class ReassemblyStats:
    """Counters kept by a :class:`Reassembler`."""

    fragments_received: int = 0
    datagrams_reassembled: int = 0
    reassembly_timeouts: int = 0
    duplicate_fragments: int = 0


@dataclass
class _Buffer:
    """State for one in-progress reassembly (keyed by src,dst,proto,ident)."""

    pieces: dict[int, bytes] = field(default_factory=dict)  # offset_units -> data
    total_units: Optional[int] = None  # set once the last fragment arrives
    first_arrival: float = 0.0
    template: Optional[Datagram] = None
    timer: Optional[EventHandle] = None  # reassembly-timeout event


class Reassembler:
    """Host-side fragment reassembly with a timeout.

    The timeout is the architecture's only defence against a lost fragment
    permanently pinning buffer memory; on expiry the partial datagram is
    discarded (and the transport's end-to-end retransmission recovers).
    """

    def __init__(self, sim: Simulator, timeout: float = 15.0,
                 on_timeout: Optional[Callable[[Datagram], None]] = None,
                 owner=None):
        self.sim = sim
        self.timeout = timeout
        self.on_timeout = on_timeout
        #: Owning :class:`~repro.ip.node.Node`, if any — used only to reach
        #: the observability layer so expired reassemblies leave a drop span
        #: on the partial datagram's journey.
        self.owner = owner
        self.stats = ReassemblyStats()
        self._buffers: dict[tuple, _Buffer] = {}

    def _key(self, d: Datagram) -> tuple:
        return (d.src._value, d.dst._value, d.protocol, d.ident)

    def accept(self, datagram: Datagram) -> Optional[Datagram]:
        """Feed one arriving datagram; returns the completed datagram when
        the last missing fragment arrives, else None.

        Unfragmented datagrams pass straight through.
        """
        if not datagram.is_fragment:
            return datagram
        self.stats.fragments_received += 1
        key = self._key(datagram)
        buf = self._buffers.get(key)
        if buf is None:
            buf = _Buffer(first_arrival=self.sim.now)
            self._buffers[key] = buf
            # Keep the handle so completion can cancel the timer; otherwise a
            # stale timer from a completed reassembly would prematurely
            # expire a *new* buffer that reuses the same (src,dst,proto,id).
            buf.timer = self.sim.schedule(
                self.timeout, lambda: self._expire(key), label="ip:reassembly-timeout"
            )
        if datagram.fragment_offset in buf.pieces:
            self.stats.duplicate_fragments += 1
            return None
        buf.pieces[datagram.fragment_offset] = datagram.payload
        if datagram.fragment_offset == 0:
            buf.template = datagram
        if not datagram.more_fragments:
            buf.total_units = (
                datagram.fragment_offset + (len(datagram.payload) + _FRAG_UNIT - 1) // _FRAG_UNIT
            )
        return self._try_complete(key, buf)

    def _try_complete(self, key: tuple, buf: _Buffer) -> Optional[Datagram]:
        if buf.total_units is None or buf.template is None:
            return None
        # Walk contiguously from offset 0 to the end.
        assembled = bytearray()
        units = 0
        while units < buf.total_units:
            piece = buf.pieces.get(units)
            if piece is None:
                return None
            assembled.extend(piece)
            units += (len(piece) + _FRAG_UNIT - 1) // _FRAG_UNIT
        del self._buffers[key]
        if buf.timer is not None:
            buf.timer.cancel()
        self.stats.datagrams_reassembled += 1
        return buf.template.copy(
            payload=bytes(assembled), more_fragments=False, fragment_offset=0
        )

    def _expire(self, key: tuple) -> None:
        buf = self._buffers.pop(key, None)
        if buf is None:
            return
        if buf.timer is not None:
            buf.timer.cancel()  # no-op for the firing timer; tidy either way
        self.stats.reassembly_timeouts += 1
        owner = self.owner
        if owner is not None and buf.template is not None:
            obs = getattr(owner, "obs", None)
            if obs is not None and obs.enabled:
                held = len(buf.pieces)
                obs.drop(self.sim.now, owner.name, "drop-reassembly-timeout",
                         buf.template,
                         f"{held} fragment(s) held {self.timeout:.1f}s")
        if self.on_timeout is not None and buf.template is not None:
            self.on_timeout(buf.template)

    @property
    def in_progress(self) -> int:
        """Number of partially reassembled datagrams held."""
        return len(self._buffers)
