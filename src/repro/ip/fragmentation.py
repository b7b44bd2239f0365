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

from dataclasses import dataclass
from functools import partial
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
    MTU networks.  Each piece is built once, from the source's fields.
    """
    payload = datagram.payload
    size = len(payload)
    if IP_HEADER_LEN + size <= mtu:
        return [datagram]
    if datagram.dont_fragment:
        raise FragmentationError(
            f"datagram of {IP_HEADER_LEN + size} B needs fragmentation "
            f"for mtu {mtu} but DF is set"
        )
    max_payload = mtu - IP_HEADER_LEN
    if max_payload < _FRAG_UNIT:
        raise FragmentationError(f"mtu {mtu} cannot carry any payload")
    # All fragments except the last must carry a multiple of 8 bytes.
    chunk = max_payload & ~(_FRAG_UNIT - 1)
    d = datagram
    src, dst, protocol, ttl, ident = d.src, d.dst, d.protocol, d.ttl, d.ident
    more, base, tos, trace_id = d.more_fragments, d.fragment_offset, d.tos, d.trace_id
    return [Datagram(src, dst, protocol, payload[pos : pos + chunk], ttl, ident,
                     False, more or pos + chunk < size, base + pos // _FRAG_UNIT,
                     tos, trace_id)
            for pos in range(0, size, chunk)]


@dataclass
class ReassemblyStats:
    """Counters kept by a :class:`Reassembler`."""

    fragments_received: int = 0
    datagrams_reassembled: int = 0
    reassembly_timeouts: int = 0
    duplicate_fragments: int = 0


class _Buffer:
    """State for one in-progress reassembly (keyed by src,dst,proto,ident)."""

    __slots__ = ("pieces", "total_units", "template", "timer")

    def __init__(self) -> None:
        self.pieces: dict[int, bytes] = {}  # offset_units -> data
        self.total_units: Optional[int] = None  # set once the last fragment arrives
        self.template: Optional[Datagram] = None
        self.timer: Optional[EventHandle] = None  # reassembly-timeout event


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

    def accept(self, datagram: Datagram) -> Optional[Datagram]:
        """Feed one arriving datagram; returns the completed datagram when
        the last missing fragment arrives, else None.

        Unfragmented datagrams pass straight through.
        """
        offset = datagram.fragment_offset
        more = datagram.more_fragments
        if not (more or offset > 0):
            return datagram
        stats = self.stats
        stats.fragments_received += 1
        key = (datagram.src._value, datagram.dst._value, datagram.protocol,
               datagram.ident)
        buf = self._buffers.get(key)
        if buf is None:
            buf = self._buffers[key] = _Buffer()
            # Keep the handle so completion can cancel the timer; otherwise a
            # stale timer from a completed reassembly would prematurely
            # expire a *new* buffer that reuses the same (src,dst,proto,id).
            buf.timer = self.sim.schedule(self.timeout, partial(self._expire, key),
                                          label="ip:reassembly-timeout")
        pieces = buf.pieces
        if offset in pieces:
            stats.duplicate_fragments += 1
            return None
        payload = pieces[offset] = datagram.payload
        if not offset:
            buf.template = datagram
        if not more:
            buf.total_units = offset + (len(payload) + _FRAG_UNIT - 1) // _FRAG_UNIT
        total, template = buf.total_units, buf.template
        if total is None or template is None:
            return None
        # Walk contiguously from offset 0 to the end.  An empty piece cannot
        # advance the walk: it is a gap, left to the timer, not a spin.
        parts = []
        units = 0
        while units < total:
            piece = pieces.get(units)
            if not piece:
                return None
            parts.append(piece)
            units += (len(piece) + _FRAG_UNIT - 1) // _FRAG_UNIT
        del self._buffers[key]
        buf.timer.cancel()
        stats.datagrams_reassembled += 1
        return Datagram(template.src, template.dst, template.protocol,
                        b"".join(parts), template.ttl, template.ident,
                        template.dont_fragment, False, 0, template.tos,
                        template.trace_id)

    def _expire(self, key: tuple) -> None:
        buf = self._buffers.pop(key, None)
        if buf is None:
            return
        self.stats.reassembly_timeouts += 1
        template = buf.template
        if template is None:
            return
        obs = getattr(self.owner, "obs", None)
        if obs is not None and obs.enabled:
            obs.drop(self.sim.now, self.owner.name, "drop-reassembly-timeout", template,
                     f"{len(buf.pieces)} fragment(s) held {self.timeout:.1f}s")
        if self.on_timeout is not None:
            self.on_timeout(template)

    @property
    def in_progress(self) -> int:
        """Number of partially reassembled datagrams held."""
        return len(self._buffers)
