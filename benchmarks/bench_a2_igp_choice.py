"""A2 (ablation) — interior routing choice: distance vector vs link state.

Goal 4 leaves the interior protocol to each administration, and the trade
was already understood in 1988: distance-vector gateways hold a vector and
gossip periodically (cheap, slow to heal, bounded by count-to-infinity
defences); link-state gateways hold the whole map and flood events
(heavier state and chatter, near-immediate healing).

Same ring-of-six topology, same failure, both protocols:

* reconvergence time — from cutting the in-use link to the first probe
  that crosses the rerouted path;
* routing chatter over a quiet minute;
* per-gateway routing state held.

Expected shape: at equal timers both heal on detection (the timers
dominate); paying for faster detection (0.5 s hellos) heals several times
faster at higher chatter; the map always costs more per-gateway state than
the vector.
"""

import pytest

from repro.harness.tables import Table
from repro.ip.address import Address, Prefix
from repro.ip.node import Node
from repro.ip.packet import PROTO_UDP
from repro.netlayer.link import Interface, PointToPointLink
from repro.routing.distance_vector import DistanceVectorRouting
from repro.routing.link_state import LinkStateRouting
from repro.sim.engine import Simulator
from repro.udp.udp import UdpStack

from _common import emit, once

N_GATEWAYS = 6


def build_ring(protocol: str, hello: float = 2.0):
    sim = Simulator()
    gateways, procs, links = [], {}, {}
    for i in range(N_GATEWAYS):
        gateways.append(Node(f"G{i}", sim, is_gateway=True))
    base = int(Address("10.80.0.0"))
    for i in range(N_GATEWAYS):
        j = (i + 1) % N_GATEWAYS
        prefix = Prefix(Address(base), 30)
        base += 4
        ia = gateways[i].add_interface(
            Interface(f"g{i}-{j}", prefix.host(1), prefix))
        ib = gateways[j].add_interface(
            Interface(f"g{j}-{i}", prefix.host(2), prefix))
        links[(i, j)] = PointToPointLink(sim, ia, ib, bandwidth_bps=1e6,
                                         delay=0.003)
    for i, g in enumerate(gateways):
        udp = UdpStack(g)
        if protocol == "dv":
            proc = DistanceVectorRouting(g, udp, period=hello)
        else:
            proc = LinkStateRouting(g, udp, hello_interval=hello)
        proc.start()
        procs[i] = proc
    sim.run(until=30)  # converge
    return sim, gateways, procs, links


def routing_bytes(procs) -> int:
    return sum(p.stats.bytes_sent for p in procs.values())


def state_held(protocol: str, procs) -> float:
    """Mean routing state per gateway, in comparable byte units."""
    if protocol == "dv":
        return sum(p.vector_bytes for p in procs.values()) / len(procs)
    return sum(p.lsdb_size_bytes for p in procs.values()) / len(procs)


def reconvergence_probe(sim, gateways, links) -> float:
    """Cut the G0-G1 link, then measure when G0 can again reach G1's far
    interface (now only via the long way around the ring)."""
    target = gateways[1].interfaces[1].address  # G1's side of G1-G2
    received = []
    gateways[1].register_protocol(
        PROTO_UDP,
        lambda n, d, i: received.append(sim.now) if d.payload == b"probe" else None)
    links[(0, 1)].set_up(False)
    cut_at = sim.now

    def probe():
        if received:
            return
        gateways[0].send(target, PROTO_UDP, b"probe")
        sim.schedule(0.25, probe)

    # Let any in-flight delivery from the pre-cut path drain, then probe.
    sim.schedule(0.30, probe)
    sim.run(until=cut_at + 120)
    if not received:
        return float("inf")
    return received[0] - cut_at


def run_one(protocol: str, hello: float):
    sim, gateways, procs, links = build_ring(protocol, hello)
    chatter_start, t_start = routing_bytes(procs), sim.now
    sim.run(until=sim.now + 60)  # a quiet minute
    idle_rate = (routing_bytes(procs) - chatter_start) / (sim.now - t_start)
    state = state_held(protocol, procs)
    heal = reconvergence_probe(sim, gateways, links)
    return heal, idle_rate, state


def run_experiment():
    table = Table(
        "A2  Interior routing: distance vector vs link state (6-gateway ring)",
        ["protocol", "reconvergence s", "idle chatter B/s",
         "state per gateway B"],
        note="reconvergence = cut the in-use link, time until a probe "
             "crosses the rerouted path",
    )
    rows = {}
    for key, protocol, hello, label in [
        ("dv", "dv", 2.0, "distance vector (2 s period)"),
        ("ls", "ls", 2.0, "link state (2 s hellos)"),
        ("ls-fast", "ls", 0.5, "link state (0.5 s hellos)"),
    ]:
        heal, idle, state = run_one(protocol, hello)
        rows[key] = (heal, idle, state)
        table.add(label, f"{heal:.2f}", f"{idle:.0f}", f"{state:.0f}")
    emit(table, "a2_igp_choice.txt")
    return rows


@pytest.mark.benchmark(group="a2")
def test_a2_igp_choice(benchmark):
    rows = once(benchmark, run_experiment)
    dv, ls, ls_fast = rows["dv"], rows["ls"], rows["ls-fast"]
    # Everyone heals (the ring reroutes the long way).
    assert all(r[0] != float("inf") for r in rows.values())
    # At equal detection timers the protocols heal comparably — detection
    # dominates at this scale.
    assert abs(ls[0] - dv[0]) < 3.0
    # Buying faster detection with fast hellos heals several times faster...
    assert ls_fast[0] < dv[0] / 2
    # ...at the price of more chatter than slow-hello link state...
    assert ls_fast[1] > ls[1]
    # ...and the map always costs more state than the vector.
    assert ls[2] > dv[2]