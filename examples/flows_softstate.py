#!/usr/bin/env python3
"""Soft-state flows demo (the paper's §10 outlook, experiment E10).

Run:  python examples/flows_softstate.py

Builds the canonical flows topology — a voice call and an oversubscribed
bulk TCP session sharing a 300 kb/s bottleneck — twice:

1. under the 1988 FIFO gateway — the bottleneck link's own drop-tail
   queue — where bulk traffic queued ahead of the voice flow pushes its
   latency tail far past the playout deadline;
2. under the flow gateway (per-flow DRR) with the voice flow's
   reservation installed as *soft state*: the endpoint refreshes it every
   2 seconds, the gateway expires it on its own, and when we crash the
   gateway mid-call the reservation dies with it — then quietly comes
   back with the very next refresh.  Brief degradation, no permanent
   disruption, no management action: the sentence from the paper, live.
"""

import sys

sys.path.insert(0, "src")

from repro.chaos.faults import GatewayCrash
from repro.harness.flowtopo import build_flow_topology


def run(mode: str, crash: bool) -> None:
    topo = build_flow_topology(seed=11, mode=mode, reserve=(mode == "drr"),
                               duration=30.0)
    net, t0 = topo.net, topo.start_time
    label = "flow gateway (DRR + soft state)" if mode == "drr" \
        else "1988 FIFO gateway"
    print(f"=== {label} ===")

    if crash:
        fault = GatewayCrash("G1", t0 + 12.0, 4.0)

        def apply():
            fault.apply(net)
            fgw = topo.fgw
            print(f"  t={net.sim.now - t0:4.1f}s  G1 CRASHED — "
                  f"{fgw.state_losses} state loss, "
                  f"{fgw.packets_flushed_on_crash} queued packets died "
                  f"with it")

        def clear():
            fault.clear(net)
            print(f"  t={net.sim.now - t0:4.1f}s  G1 restored "
                  f"(flow table empty)")

        net.sim.schedule(fault.at - net.sim.now, apply)
        net.sim.schedule(fault.clear_time - net.sim.now, clear)

        def watch_reinstall():
            if topo.fgw.installed_flows > 0:
                print(f"  t={net.sim.now - t0:4.1f}s  reservation "
                      f"RE-INSTALLED by the next refresh — no management "
                      f"action taken")
            else:
                net.sim.schedule(0.1, watch_reinstall)

        net.sim.schedule(fault.clear_time - net.sim.now + 0.01,
                         watch_reinstall)

    net.sim.run(until=t0 + 32.0)

    meter = topo.meter
    print(f"  voice: {meter.sent_count} frames sent, "
          f"{meter.usable_pct():.1f}% usable "
          f"(p99 one-way {1000 * (meter.latency_quantile(0.99) or 0):.0f}ms"
          f" against a 160ms playout deadline)")
    print(f"  bulk:  {topo.bulk_bytes_received} bytes delivered")
    if topo.sender is not None:
        print(f"  soft state: {topo.sender.refreshes_sent} refreshes sent, "
              f"{topo.fgw.refreshes_seen} seen at G1, "
              f"{topo.fgw.state_losses} lost to crashes")


def main() -> None:
    run("fifo", crash=False)
    print()
    run("drr", crash=True)


if __name__ == "__main__":
    main()
