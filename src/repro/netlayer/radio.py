"""PRNET-like packet radio: lossy, bursty, reordering medium.

The DARPA Packet Radio Network was the harshest network the early internet
had to accommodate: mobile nodes, bursty interference, small packets, and —
because radio routes flapped — occasional reordering.  Goal 3's "minimal
assumptions" were calibrated against exactly this; IP demands neither
in-order nor reliable delivery, only that packets *usually* get through.

The model is a point-to-point abstraction of a radio path: Gilbert–Elliott
burst loss, random extra per-packet delay (which yields reordering, because a
later packet can take a shorter path), and a small MTU.
"""

from __future__ import annotations

from typing import Optional

from ..sim.engine import Simulator
from .link import Interface, PointToPointLink
from .loss import GilbertElliottLoss, LossModel

__all__ = ["PacketRadioLink"]


class PacketRadioLink(PointToPointLink):
    """A lossy, reordering radio path between two stations.

    ``reorder_spread`` is the maximum extra per-packet delay drawn uniformly;
    because each packet draws independently, packets overtake one another —
    the reordering the paper says the architecture must survive.
    """

    FRAME_OVERHEAD = 12

    def __init__(
        self,
        sim: Simulator,
        a: Interface,
        b: Interface,
        *,
        bandwidth_bps: float = 100_000.0,
        delay: float = 0.020,
        mtu: int = 254,             # PRNET's small packets
        queue_limit: int = 32,
        loss: Optional[LossModel] = None,
        reorder_spread: float = 0.030,
        rng=None,
        name: str = "",
    ):
        self.reorder_spread = reorder_spread
        super().__init__(
            sim,
            a,
            b,
            bandwidth_bps=bandwidth_bps,
            delay=delay,
            mtu=mtu,
            queue_limit=queue_limit,
            loss=loss if loss is not None else GilbertElliottLoss(
                p_good_to_bad=0.02, p_bad_to_good=0.25,
                loss_good=0.005, loss_bad=0.4,
            ),
            rng=rng,
            name=name or f"radio:{a.name}<->{b.name}",
        )

    def _in_flight(self, chan, datagram, arrival: float) -> float:
        if self.reorder_spread <= 0:
            return arrival
        return arrival + self.rng.uniform(0.0, self.reorder_spread)
