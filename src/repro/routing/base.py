"""Shared machinery for the routing protocols.

Routing state is the one kind of state the architecture allows inside the
network, precisely because it is *derivable*: a gateway can crash, reboot
empty, and relearn everything from its neighbours (goal 1).  The protocols
here install :class:`~repro.ip.forwarding.Route` entries into their node's
table and carry their chatter over UDP — so routing traffic competes for
the same links as user traffic, and its overhead is measurable (E4).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..ip.address import Address, AddressError, Prefix

__all__ = ["RouteAdvert", "pack_adverts", "unpack_adverts", "RoutingStats",
           "INFINITY_METRIC", "ADVERT", "wire_key", "key_prefix", "iter_adverts"]

#: RIP-style infinity: unreachable.
INFINITY_METRIC = 16

#: One advert on the wire, six bytes: the prefix's 5-byte key (4 B network +
#: length) and the metric.  The protocols work on ``(key, metric)`` pairs;
#: :class:`RouteAdvert` and the two functions below are the object-level view
#: of the same struct.
ADVERT = struct.Struct("!5sB")


def wire_key(prefix: Prefix) -> bytes:
    """The five bytes that name ``prefix`` in an advert."""
    return prefix.network._value.to_bytes(4, "big") + bytes((prefix.length,))


def key_prefix(key: bytes) -> Prefix:
    """Inverse of :func:`wire_key`; :class:`AddressError` when the length
    byte exceeds 32 or host bits are set (a key is bytes off the wire)."""
    return Prefix(Address(int.from_bytes(key[:4], "big")), key[4])


def iter_adverts(payload: bytes) -> Iterator[tuple[bytes, int]]:
    """``(key, metric)`` for each whole advert in ``payload``; a trailing
    partial advert is ignored (``iter_unpack`` insists on a multiple of six)."""
    return ADVERT.iter_unpack(payload[:len(payload) - len(payload) % ADVERT.size])


@dataclass(frozen=True)
class RouteAdvert:
    """One advertised destination: a prefix and its metric."""

    prefix: Prefix
    metric: int


def pack_adverts(adverts: Iterable[RouteAdvert]) -> bytes:
    """Serialize adverts to the compact wire form (6 bytes each)."""
    out = bytearray()
    for advert in adverts:
        out += ADVERT.pack(wire_key(advert.prefix),
                           min(advert.metric, INFINITY_METRIC))
    return bytes(out)


def unpack_adverts(data: bytes) -> list[RouteAdvert]:
    """Parse a packed advert list; trailing garbage is ignored."""
    adverts = []
    for key, metric in iter_adverts(data):
        try:
            prefix = key_prefix(key)
        except AddressError:
            continue
        adverts.append(RouteAdvert(prefix, metric))
    return adverts


@dataclass
class RoutingStats:
    """Protocol chatter counters: the cost side of experiment E4."""

    updates_sent: int = 0
    updates_received: int = 0
    bytes_sent: int = 0
    triggered_updates: int = 0
    routes_expired: int = 0
    full_recomputations: int = 0
