"""Stateful adversarial campaign engine.

Clark's goals defend against *failure*; this package probes the gap his
survivability argument leaves open — *misbehavior*.  Three legs, all
scored by the chaos invariant monitors and the management plane's golden
signals as the oracle:

1. **Stateful fuzzers** (:mod:`.fuzzers`): seeded drivers that attack
   protocol state machines — TCP listeners and established connections,
   session-resume hellos, and the management request/response cycle —
   under the contract that every exchange lands in a declared protocol
   state or is dropped with a counter, never an unhandled exception.
2. **Byzantine gateway** (:class:`~repro.chaos.faults.ByzantineGateway`):
   a transit gateway that forwards but lies, with end-to-end integrity
   monitors proving no corrupted byte is ever delivered.
3. **Canary rollout** (:mod:`repro.rollout`): operator error as a fault
   class, gated on rollback-before-fleet-promotion.

Entry point: ``python -m repro.chaos --campaign adversary``.
"""

from .fuzzers import FuzzLog, MgmtFuzzer, SessionFuzzer, TcpFuzzer
from .campaign import run_adversary_campaign

__all__ = ["FuzzLog", "TcpFuzzer", "SessionFuzzer", "MgmtFuzzer",
           "run_adversary_campaign"]
