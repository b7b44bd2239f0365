"""X.25-like public data network used as an *attached network*.

The paper observes the internet had to run over networks that were, if
anything, too helpful: X.25 nets deliver reliably and in order by doing
hop-internal retransmission.  IP neither needs nor exploits this; the
interesting consequence (measured in E3/E5) is delay variance — when the
subnet retransmits internally, the datagram is delayed rather than lost,
which interacts with the end-to-end retransmission timer.

The model: a point-to-point "subnet pipe" that never loses packets, but with
probability ``internal_retx_prob`` charges one or more internal
retransmission delays.  Delivery order is preserved (arrivals are forced
monotonic), as the X.25 virtual circuit guarantees.
"""

from __future__ import annotations

from ..sim.engine import Simulator
from .link import Interface, PointToPointLink

__all__ = ["X25Subnet"]


class X25Subnet(PointToPointLink):
    """A reliable, sequenced subnet between two attachment points."""

    FRAME_OVERHEAD = 11  # LAPB + X.25 layer-3 header

    def __init__(
        self,
        sim: Simulator,
        a: Interface,
        b: Interface,
        *,
        bandwidth_bps: float = 48_000.0,
        delay: float = 0.040,
        mtu: int = 576,              # the classic X.25 internet MTU
        queue_limit: int = 64,
        internal_retx_prob: float = 0.02,
        internal_retx_delay: float = 0.150,
        rng=None,
        name: str = "",
    ):
        self.internal_retx_prob = internal_retx_prob
        self.internal_retx_delay = internal_retx_delay
        super().__init__(
            sim,
            a,
            b,
            bandwidth_bps=bandwidth_bps,
            delay=delay,
            mtu=mtu,
            queue_limit=queue_limit,
            rng=rng,
            name=name or f"x25:{a.name}<->{b.name}",
        )
        self._label = f"x25:{self.name}"
        # Last scheduled arrival per direction, to force in-order delivery.
        self._last_arrival = {chan: 0.0 for chan in self._channels.values()}

    def _in_flight(self, chan, datagram, arrival: float) -> float:
        # Geometric number of internal retransmissions: the subnet recovers
        # its own losses, converting loss into delay (which a journey span
        # therefore shows as extra in-flight time).
        extra = 0.0
        while self.rng.random() < self.internal_retx_prob:
            extra += self.internal_retx_delay
        # Sequenced delivery: never overtake the previous packet.
        arrival = max(arrival + extra, self._last_arrival[chan] + 1e-9)
        self._last_arrival[chan] = arrival
        return arrival
