"""Declarative fault events for chaos campaigns.

Each fault is a *scheduled, reversible* perturbation of a running
:class:`~repro.harness.topology.Internet`: a link flap, a gateway
crash/restore cycle, or a network partition computed from the topology
graph.  Faults carry their own outcome record — when they were applied and
cleared, how long routing took to reconverge afterwards, and how many
packets died in the blackout window — which the campaign aggregates into a
:class:`~repro.chaos.report.CampaignReport`.

The objects are deliberately dumb: :class:`~repro.chaos.campaign.FaultCampaign`
owns scheduling, measurement and invariant checking; a fault only knows how
to ``apply`` and ``clear`` itself.
"""

from __future__ import annotations

from typing import Optional, Union

__all__ = ["Fault", "LinkFlap", "GatewayCrash", "HostRestart", "Partition",
           "ByzantineGateway"]


class Fault:
    """Base class: one perturbation active on ``[at, at + duration)``."""

    kind = "fault"

    def __init__(self, at: float, duration: float):
        if at < 0:
            raise ValueError(f"fault time must be non-negative, got {at}")
        if duration <= 0:
            raise ValueError(f"fault duration must be positive, got {duration}")
        self.at = at
        self.duration = duration
        # Outcome record, filled in by the campaign at runtime.
        self.applied_at: Optional[float] = None
        self.cleared_at: Optional[float] = None
        self.reconverged_at: Optional[float] = None
        self.packets_lost_blackout: int = 0
        #: True when another fault was active during this one's recovery
        #: window — its reconvergence time is then not attributable to it
        #: alone, and the bound check exempts it.
        self.overlapped: bool = False
        self._drops_at_apply: int = 0

    @property
    def clear_time(self) -> float:
        """Scheduled end of the fault window."""
        return self.at + self.duration

    @property
    def reconvergence_time(self) -> Optional[float]:
        """Seconds from fault clearance to restored full reachability,
        or None if the network never reconverged within the campaign."""
        if self.cleared_at is None or self.reconverged_at is None:
            return None
        return self.reconverged_at - self.cleared_at

    # ------------------------------------------------------------------
    def apply(self, net) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def clear(self, net) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def describe(self) -> str:  # pragma: no cover - interface
        raise NotImplementedError

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Serializable outcome record for the campaign report."""
        return {
            "kind": self.kind,
            "detail": self.describe(),
            "scheduled_at": self.at,
            "duration": self.duration,
            "applied_at": self.applied_at,
            "cleared_at": self.cleared_at,
            "reconverged_at": self.reconverged_at,
            "reconvergence_time": self.reconvergence_time,
            "packets_lost_blackout": self.packets_lost_blackout,
            "overlapped": self.overlapped,
        }

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()} @{self.at:.3f}+{self.duration:.3f}>"


def _resolve_link(net, link: Union[int, object]):
    """Accept a link object or an index into ``net.links`` (the stable,
    serializable form the random generator emits)."""
    if isinstance(link, int):
        if not 0 <= link < len(net.links):
            raise IndexError(f"link index {link} out of range "
                             f"(topology has {len(net.links)} links)")
        return net.links[link]
    return link


class LinkFlap(Fault):
    """Administratively lower a link, dwell, then raise it again."""

    kind = "link-flap"

    def __init__(self, link: Union[int, object], at: float, dwell: float):
        super().__init__(at, dwell)
        self.link = link
        self._resolved = None

    def apply(self, net) -> None:
        self._resolved = _resolve_link(net, self.link)
        net.fail_link(self._resolved)

    def clear(self, net) -> None:
        if self._resolved is not None:
            net.restore_link(self._resolved)

    def describe(self) -> str:
        if self._resolved is not None:
            return f"link {getattr(self._resolved, 'name', self.link)}"
        if isinstance(self.link, int):
            return f"link #{self.link}"
        return f"link {getattr(self.link, 'name', self.link)}"


class GatewayCrash(Fault):
    """Crash a gateway (losing all volatile state), restore after dwell."""

    kind = "gateway-crash"

    def __init__(self, name: str, at: float, dwell: float):
        super().__init__(at, dwell)
        self.name = name

    def apply(self, net) -> None:
        net.crash_gateway(self.name)

    def clear(self, net) -> None:
        net.restore_gateway(self.name)

    def describe(self) -> str:
        return f"gateway {self.name}"


class HostRestart(Fault):
    """Power-cycle an end host holding live conversation state.

    This is the fault the fate-sharing argument (goal 1) is *about*: the
    gateways keep no conversation state, so the only state that can be
    lost with a box is the endpoints' — and losing it must kill exactly
    those conversations, silently, while the surviving peers detect the
    death (keepalive), shed their half-open zombies (RST on the old
    segments) and, if a session layer is running, rebuild on top.

    ``apply`` crashes the named host (volatile TCP/session state vanishes,
    no FIN or RST is emitted); ``clear`` restores it, which starts the
    RFC 793 quiet time before the reborn stack may issue sequence numbers.
    """

    kind = "host-restart"

    def __init__(self, name: str, at: float, dwell: float):
        super().__init__(at, dwell)
        self.name = name

    def apply(self, net) -> None:
        net.crash_host(self.name)

    def clear(self, net) -> None:
        net.restore_host(self.name)

    def describe(self) -> str:
        return f"host {self.name}"


class ByzantineGateway(Fault):
    """Turn a transit gateway *malicious* for the fault window.

    Survivability (Clark's goal 2) defends against gateways that *fail*;
    this fault models one that keeps forwarding but lies.  For the window
    the gateway perturbs a fraction of the datagrams it forwards — its own
    originated traffic (routing updates, management replies) is untouched,
    so the control plane stays honest and detection must come from the
    data path's end-to-end checks:

    ``corrupt``
        Flip one payload byte.  The internet checksum over the transport
        pseudo-header catches every single-byte change, so the receiver's
        ``bad_segments`` / ``checksum_failures`` counters tick and the
        segment is dropped — no corrupted byte is ever delivered upward.
    ``replay``
        Forward the datagram normally, then re-inject several copies a
        beat later.  Copies carry fresh idents (a real attacker's dupes
        would too — ident only scopes fragment reassembly) so they read
        as new packets, and the receiver's duplicate-segment handling
        answers each with a duplicate ACK — enough of them trips the
        sender's fast-retransmit counter.
    ``misroute``
        Rewrite the destination address on a fraction of traffic toward a
        decoy node.  The transport checksum binds the payload to the
        *original* pseudo-header, so the decoy sees checksum failures —
        misrouting is indistinguishable from corruption to the victim it
        robs, but the decoy's counters name the traffic sink.
    ``delay``
        Hold datagrams for longer than the sender's RTO before releasing
        them, driving retransmission timeouts without dropping anything.

    All randomness comes from a named stream
    (``byzantine.<gateway>.<behavior>``) so campaigns replay exactly.
    """

    kind = "byzantine-gateway"

    BEHAVIORS = ("corrupt", "replay", "misroute", "delay")

    def __init__(self, name: str, at: float, dwell: float, *,
                 behavior: str, rate: float = 0.35,
                 decoy: Optional[str] = None, delay_by: float = 1.2,
                 replay_copies: int = 4, victims=()):
        super().__init__(at, dwell)
        if behavior not in self.BEHAVIORS:
            raise ValueError(f"unknown byzantine behavior {behavior!r}; "
                             f"expected one of {self.BEHAVIORS}")
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {rate}")
        if behavior == "misroute" and decoy is None:
            raise ValueError("misroute behavior needs a decoy node name")
        self.name = name
        self.behavior = behavior
        self.rate = rate
        self.decoy = decoy
        self.delay_by = delay_by
        self.replay_copies = replay_copies
        #: Node names whose golden signals should betray this behavior —
        #: the netmgmt scorer treats alarms naming these as detections.
        self.victims = frozenset(victims)
        # Data-path perturbation counters (filled in while active).
        self.perturbed = 0
        self.passed_through = 0
        self._replay_ident = 0
        self._active = False
        self._node = None
        self._sim = None
        self._rng = None
        self._saved = None
        self._decoy_addr = None

    # ------------------------------------------------------------------
    def apply(self, net) -> None:
        node = net.node_by_name(self.name)
        self._node = node
        self._sim = net.sim
        self._rng = net.streams.stream(
            f"byzantine.{self.name}.{self.behavior}")
        if self.decoy is not None:
            decoy_node = net.node_by_name(self.decoy)
            if not decoy_node.addresses:
                raise ValueError(f"decoy {self.decoy} has no addresses")
            self._decoy_addr = decoy_node.addresses[0]
        original = node._output  # bound method resolved via the class
        self._saved = original
        fault = self

        # ``resolved`` is whatever the node pre-resolved for this exact
        # datagram (today: its route).  It rides along only while the
        # datagram goes out untouched.
        def malicious_output(datagram, *, originating: bool,
                             **resolved) -> bool:
            if originating or not fault._active:
                return original(datagram, originating=originating, **resolved)
            return fault._perturb(datagram, original, resolved)

        node._output = malicious_output
        self._active = True

    def clear(self, net) -> None:
        self._active = False
        node, self._node = self._node, None
        if node is not None and node.__dict__.get("_output") is not None:
            del node.__dict__["_output"]
        self._saved = None

    # ------------------------------------------------------------------
    def _perturb(self, datagram, original, resolved) -> bool:
        """Apply this fault's behavior to one forwarded datagram.

        Every perturbing branch calls ``original`` *without* ``resolved``:
        a route resolved for the honest datagram is wrong for a rewritten
        destination and may be stale for a held one, so the honest path
        resolves the perturbed datagram afresh."""
        if self._rng.random() >= self.rate or not datagram.payload:
            self.passed_through += 1
            return original(datagram, originating=False, **resolved)
        self.perturbed += 1
        behavior = self.behavior
        if behavior == "corrupt":
            mutated = bytearray(datagram.payload)
            index = self._rng.randrange(len(mutated))
            mutated[index] ^= self._rng.randrange(1, 256)
            datagram.payload = bytes(mutated)
            return original(datagram, originating=False)
        if behavior == "replay":
            # Replayed copies carry idents from the top of the 16-bit
            # space: the loop monitor keys packets by (src, dst, proto,
            # ident), so a copy must never alias an ident the victim
            # will itself issue during the campaign.
            copies = []
            for _ in range(self.replay_copies):
                ident = 0xC000 + (self._replay_ident & 0x3FFF)
                self._replay_ident += 1
                copies.append(datagram.copy(ident=ident))
            sent = original(datagram, originating=False)
            for i, dupe in enumerate(copies):
                self._sim.schedule(
                    0.01 * (i + 1),
                    lambda d=dupe: self._reinject(d),
                    label=f"byzantine.replay.{self.name}")
            return sent
        if behavior == "misroute":
            datagram.dst = self._decoy_addr
            return original(datagram, originating=False)
        # behavior == "delay": hold past the sender's RTO, then release.
        self._sim.schedule(
            self.delay_by,
            lambda d=datagram: self._reinject(d),
            label=f"byzantine.delay.{self.name}")
        return True

    def _reinject(self, datagram) -> None:
        """Emit a held or duplicated datagram through the honest path."""
        node = self._node
        if self._active and node is not None and node.up:
            self._saved(datagram, originating=False)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        return f"byzantine gateway {self.name} ({self.behavior})"

    def to_dict(self) -> dict:
        record = super().to_dict()
        record.update({
            "behavior": self.behavior,
            "rate": self.rate,
            "perturbed": self.perturbed,
            "passed_through": self.passed_through,
        })
        if self.decoy is not None:
            record["decoy"] = self.decoy
        return record


class Partition(Fault):
    """Split the internet into two halves for the fault window.

    The cut is *computed from the topology graph* at apply time: every
    point-to-point link with exactly one endpoint inside ``group`` goes
    administratively down, and comes back when the partition heals.  A LAN
    spanning the cut is a configuration error
    (:meth:`~repro.harness.topology.Internet.cut_links` raises).
    """

    kind = "partition"

    def __init__(self, group, at: float, duration: float):
        super().__init__(at, duration)
        self.group = frozenset(group)
        self._cut: list = []

    def apply(self, net) -> None:
        self._cut = net.cut_links(set(self.group))
        for link in self._cut:
            net.fail_link(link)

    def clear(self, net) -> None:
        for link in self._cut:
            net.restore_link(link)

    def describe(self) -> str:
        members = ",".join(sorted(self.group))
        return f"partition {{{members}}} ({len(self._cut)} links cut)" \
            if self._cut else f"partition {{{members}}}"
