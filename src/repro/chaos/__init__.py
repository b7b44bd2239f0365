"""Chaos engineering for the datagram internet (goal 1, weaponized).

The paper's headline claim — survivability through fate-sharing and
stateless gateways — deserves more than ad-hoc ``crash()`` calls in tests.
This package provides the systematic machinery:

* :mod:`~repro.chaos.faults` — declarative, reversible fault events
  (link flaps, gateway crashes, graph-computed partitions);
* :mod:`~repro.chaos.campaign` — the scheduling/measurement engine, with
  recovery-time-under-failure as the first-class metric;
* :mod:`~repro.chaos.monitors` — continuous invariant checking (no loops,
  bounded TTL burn, crashed-means-silent, bounded reconvergence, TCP
  survival under partition);
* :mod:`~repro.chaos.random_chaos` — seeded Poisson fault generation, so a
  run that finds a violation replays exactly from its seed;
* :mod:`~repro.chaos.report` — the two canonical-JSON report shapes CI
  archives and later PRs regress against: :class:`CampaignReport` (one
  leg) and :class:`RaceReport` (named legs plus a scorecard);
* :mod:`~repro.chaos.campaigns` — the registry: every campaign as
  ``run`` / ``gates`` / ``verdict`` / default output name, and the one
  ``run_and_gate`` driver behind ``python -m repro.chaos --campaign NAME``.
  It imports every campaign module (and through them ``ecology``,
  ``adversary``, ``netmgmt``, which import this package), so it is a
  submodule to import by name, not a re-export.

Run ``python -m repro.chaos`` for the randomized smoke campaign.
"""

from .campaign import FaultCampaign, control_plane_path, total_drops
from .faults import Fault, GatewayCrash, HostRestart, LinkFlap, Partition
from .monitors import (
    BlackoutDeliveryMonitor,
    ForwardingLoopMonitor,
    HalfOpenZombieMonitor,
    InvariantMonitor,
    QuietTimeMonitor,
    ReconvergenceMonitor,
    TcpSurvivalMonitor,
    TtlExhaustionMonitor,
    Violation,
    default_monitors,
)
from .random_chaos import RandomChaos
from .report import CampaignReport, RaceReport
from .restart import (
    RestartScenario,
    build_restart_scenario,
    restart_payload,
    run_restart_campaign,
)

__all__ = [
    "FaultCampaign",
    "CampaignReport",
    "RaceReport",
    "campaigns",
    "Fault",
    "LinkFlap",
    "GatewayCrash",
    "HostRestart",
    "Partition",
    "RandomChaos",
    "InvariantMonitor",
    "Violation",
    "ForwardingLoopMonitor",
    "TtlExhaustionMonitor",
    "BlackoutDeliveryMonitor",
    "ReconvergenceMonitor",
    "TcpSurvivalMonitor",
    "HalfOpenZombieMonitor",
    "QuietTimeMonitor",
    "default_monitors",
    "control_plane_path",
    "total_drops",
    "RestartScenario",
    "build_restart_scenario",
    "run_restart_campaign",
    "restart_payload",
]
