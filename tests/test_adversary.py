"""Adversary units: byzantine gateway behaviors and fuzz-leg contracts.

Each ByzantineGateway behavior is exercised on a small transit chain
(H1 — G1 — GB — G2 — H2, decoy D off G2) with a bulk TCP stream crossing
the lying gateway.  The invariant under every lie is the same end-to-end
argument the campaign scores: the application stream is never corrupted,
and the lie leaves a signature in exactly the counters the management
plane watches.  The full campaign (alarms, MTTD, rollouts) runs in CI's
adversary-smoke job; these tests pin the mechanisms it relies on.
"""

import pytest

from repro.adversary.campaign import (_run_mgmt_leg, _run_session_leg,
                                      _run_tcp_leg)
from repro.chaos.faults import ByzantineGateway
from repro.harness.topology import Internet


def byz_chain(seed=7):
    net = Internet(seed=seed)
    h1 = net.host("H1")
    h2 = net.host("H2")
    decoy = net.host("D")
    g1, gb, g2 = net.gateway("G1"), net.gateway("GB"), net.gateway("G2")
    net.connect(h1, g1, delay=0.02)
    net.connect(g1, gb, delay=0.02)
    net.connect(gb, g2, delay=0.02)
    net.connect(g2, h2, delay=0.02)
    net.connect(g2, decoy, delay=0.005)
    net.start_routing(period=1.0)
    net.converge(settle=5.0)
    return net, h1, h2, decoy


def run_behavior(behavior, **fault_kwargs):
    """Bulk stream across GB while it lies for a 6 s window mid-run."""
    net, h1, h2, decoy = byz_chain()
    sim = net.sim
    t0 = sim.now

    delivered = bytearray()
    h2.listen(5000, lambda sock: setattr(sock, "on_data",
                                         delivered.extend))
    client = h1.connect(h2.address, 5000)
    chunks = []

    def pump():
        if client.established:
            chunk = bytes([len(chunks) & 0xFF]) * 96
            chunks.append(chunk)
            client.write(chunk)
        if sim.now < t0 + 12.0:
            sim.schedule(0.05, pump, label="byz.pump")
    sim.call_at(t0 + 1.0, pump, label="byz.pump")

    fault = ByzantineGateway("GB", 0.0, 6.0, behavior=behavior,
                             **fault_kwargs)
    sim.call_at(t0 + 3.0, lambda: fault.apply(net), label="byz.apply")
    sim.call_at(t0 + 9.0, lambda: fault.clear(net), label="byz.clear")
    # Past the last delayed re-injection + retransmission recovery.
    sim.run(until=t0 + 20.0)

    expected = b"".join(chunks)
    return net, fault, client, h2, decoy, bytes(delivered), expected


def test_corrupt_never_delivers_a_corrupted_byte():
    net, fault, client, h2, decoy, got, expected = run_behavior(
        "corrupt", rate=0.3)
    assert fault.perturbed > 0
    # Every flipped byte died at the receiver's checksum...
    assert h2.tcp.bad_segments > 0
    # ...so what the application saw is exactly what was sent.
    assert got == expected


def test_replay_duplicates_never_reach_the_application_twice():
    net, fault, client, h2, decoy, got, expected = run_behavior(
        "replay", rate=0.4, replay_copies=5)
    assert fault.perturbed > 0
    # Duplicates arrive as packets, but the sequence space deduplicates:
    # the byte stream is delivered exactly once, in order.
    assert got == expected


def test_misroute_lands_on_the_decoy_as_checksum_failures():
    net, fault, client, h2, decoy, got, expected = run_behavior(
        "misroute", rate=0.3, decoy="D")
    assert fault.perturbed > 0
    # The transport checksum binds the payload to the original
    # pseudo-header, so the stolen traffic is *evidence* at the decoy —
    # never a valid segment it could act on.
    assert decoy.tcp.bad_segments > 0
    assert got == expected  # retransmission repaired every theft


def test_misroute_ignores_preresolved_route():
    """The transit path hands ``_output`` the route it resolved for the
    *honest* destination.  Here the decoy hangs off GB itself, the other way
    from H2, so carrying that route through the rewrite would put every
    stolen datagram on the G2 trunk instead of the decoy's link."""
    net = Internet(seed=7)
    h1, h2, decoy = net.host("H1"), net.host("H2"), net.host("D")
    g1, gb, g2 = net.gateway("G1"), net.gateway("GB"), net.gateway("G2")
    for a, b in [(h1, g1), (g1, gb), (gb, g2), (g2, h2), (gb, decoy)]:
        net.connect(a, b, delay=0.005)
    net.start_routing(period=1.0)
    net.converge(settle=5.0)
    sink = h2.udp.bind(7000)
    sock = h1.udp.bind(0)
    gb_node, g2_node = net.node_by_name("GB"), net.node_by_name("G2")
    transit, trunk = gb_node.stats.forwarded, g2_node.stats.forwarded

    fault = ByzantineGateway("GB", 0.0, 5.0, behavior="misroute",
                             rate=0.5, decoy="D")
    fault.apply(net)
    for _ in range(60):
        sock.sendto(b"m" * 64, h2.address, 7000)
    net.sim.run(until=net.sim.now + 2.0)
    fault.clear(net)

    assert fault.perturbed > 0 and fault.passed_through > 0
    assert fault.perturbed + fault.passed_through == 60
    assert gb_node.stats.forwarded - transit == 60
    # Every stolen datagram reached the decoy (as a checksum failure: the
    # pseudo-header still names H2) and none of them ever touched G2.
    assert decoy.udp.checksum_failures == fault.perturbed
    assert g2_node.stats.forwarded - trunk == fault.passed_through
    assert sink.received == fault.passed_through


def test_delay_past_rto_leaves_a_timeout_signature():
    net, fault, client, h2, decoy, got, expected = run_behavior(
        "delay", rate=0.5, delay_by=3.5)
    assert fault.perturbed > 0
    assert client.conn.stats.retransmit_timeouts > 0
    assert got == expected


def test_clear_restores_the_honest_forwarder():
    net, fault, client, h2, decoy, got, expected = run_behavior(
        "corrupt", rate=0.9)
    gb = net.node_by_name("GB")
    # The monkeypatched _output is gone; the class method is back.
    assert "_output" not in gb.__dict__
    assert fault._active is False


def test_byzantine_parameter_validation():
    with pytest.raises(ValueError):
        ByzantineGateway("GB", 0.0, 5.0, behavior="lie-creatively")
    with pytest.raises(ValueError):
        ByzantineGateway("GB", 0.0, 5.0, behavior="corrupt", rate=0.0)
    with pytest.raises(ValueError):
        ByzantineGateway("GB", 0.0, 5.0, behavior="corrupt", rate=1.5)
    with pytest.raises(ValueError):
        ByzantineGateway("GB", 0.0, 5.0, behavior="misroute")


# ----------------------------------------------------------------------
# Fuzz legs: every leg is self-scoring; ok=False lists the violations.
# ----------------------------------------------------------------------
def test_tcp_fuzz_leg_contract():
    leg = _run_tcp_leg(5)
    assert leg["ok"], leg["violations"]
    assert leg["injected"] > 100
    assert leg["counters"]["syn_drops"] > 0
    assert leg["counters"]["rst_out_of_window"] > 0


def test_session_fuzz_leg_contract():
    leg = _run_session_leg(5)
    assert leg["ok"], leg["violations"]
    assert leg["injected"] > 0


def test_mgmt_fuzz_leg_contract():
    leg = _run_mgmt_leg(5)
    assert leg["ok"], leg["violations"]
    assert leg["injected"] > 0


def test_fuzz_leg_is_deterministic():
    assert _run_session_leg(11) == _run_session_leg(11)
