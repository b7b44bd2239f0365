"""Tests for the datagram fast path (goal 5: cost effectiveness).

Three layers are covered, each against its retained reference
implementation:

* checksum — the one-division kernel (the buffer read as one big integer,
  reduced mod 0xFFFF) must be bit-identical to the per-word reference loop
  and to the halving fold it replaced on every input, including the inputs
  random bytes almost never reach: all-zero buffers, word sums that are a
  nonzero multiple of 0xFFFF, and odd lengths (differential/property
  tests);
* forwarding — the generation-stamped destination cache must never return
  a withdrawn or shadowed route, and must agree with the uncached scan;
* engine — lazy-deletion compaction must shed cancelled husks without
  changing firing order, and ``pending`` must stay exact.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.ip.address import Address, Prefix
from repro.ip.checksum import (
    internet_checksum,
    internet_checksum_reference,
    ones_complement_sum,
    verify_checksum,
    verify_checksum_reference,
)
from repro.ip.forwarding import NoRouteError, Route, RouteTable
from repro.sim.engine import Simulator


# ----------------------------------------------------------------------
# Checksum: vectorized vs reference
# ----------------------------------------------------------------------
def ones_complement_sum_halving(data: bytes) -> int:
    """The kernel before it became one division, verbatim: fold the big
    integer in 16-bit-aligned halves, then end-around carry."""
    if len(data) & 1:
        data = data + b"\x00"
    total = int.from_bytes(data, "big")
    nbits = len(data) * 8
    # Halve the integer until it is narrow, keeping splits 16-bit aligned.
    while nbits > 64:
        half = ((nbits >> 1) + 15) & ~15  # round up to a multiple of 16
        total = (total >> half) + (total & ((1 << half) - 1))
        nbits = half + 16  # sum of a half-word and a (smaller) half fits
    # End-around carry down to 16 bits.
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def ones_complement_sum_reference(data: bytes) -> int:
    """The per-word loop's sum, before its final complement."""
    return ~internet_checksum_reference(data) & 0xFFFF


def word_sum(data: bytes) -> int:
    """Plain (unfolded) sum of the zero-padded buffer's 16-bit words."""
    if len(data) & 1:
        data = data + b"\x00"
    return sum(int.from_bytes(data[i:i + 2], "big")
               for i in range(0, len(data), 2))


@st.composite
def sums_to_a_multiple_of_ffff(draw):
    """Random bytes with the complement word of their sum inserted at an
    even offset: the word sum is a nonzero multiple of 0xFFFF, where the
    residue is 0 but the one's-complement sum is 0xFFFF.  Odd lengths keep
    their trailing byte last, so its pad counts as it will in the kernel."""
    other = draw(st.binary(max_size=300))
    at = 2 * draw(st.integers(0, len(other) // 2))
    word = 0xFFFF - word_sum(other) % 0xFFFF
    return other[:at] + word.to_bytes(2, "big") + other[at:]


#: The kernel's branches, reached on purpose: random bytes reach the zero
#: and multiple-of-0xFFFF cases with p ≈ 1/65535.
KERNEL_EDGES = st.one_of(
    sums_to_a_multiple_of_ffff(),
    st.integers(0, 64).map(bytes),
    st.integers(0, 150).flatmap(
        lambda n: st.binary(min_size=2 * n + 1, max_size=2 * n + 1)))


@given(st.binary(min_size=0, max_size=4096))
def test_checksum_differential_random(data):
    assert internet_checksum(data) == internet_checksum_reference(data)
    assert verify_checksum(data) == verify_checksum_reference(data)
    assert ones_complement_sum(data) == ones_complement_sum_halving(data)


@settings(max_examples=300)
@given(KERNEL_EDGES)
def test_checksum_kernel_edges_against_both_oracles(data):
    expected = ones_complement_sum_reference(data)
    assert ones_complement_sum(data) == expected
    assert ones_complement_sum_halving(data) == expected
    assert internet_checksum(data) == internet_checksum_reference(data)
    assert verify_checksum(data) == verify_checksum_reference(data)


def test_checksum_differential_exhaustive_small_lengths():
    rng = random.Random(1988)
    for length in range(0, 131):  # crosses the 64-bit fold threshold
        data = bytes(rng.randrange(256) for _ in range(length))
        assert internet_checksum(data) == internet_checksum_reference(data), length
        assert verify_checksum(data) == verify_checksum_reference(data), length
        assert ones_complement_sum(data) == ones_complement_sum_halving(data)


def test_checksum_differential_boundary_sizes():
    rng = random.Random(5)
    for size in (1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65,
                 127, 128, 129, 1499, 1500, 1501, 4095, 4096, 65535, 65536):
        data = bytes(rng.randrange(256) for _ in range(size))
        assert internet_checksum(data) == internet_checksum_reference(data), size


def test_checksum_odd_length_pads_with_zero():
    # Trailing zero byte must be equivalent to RFC 1071 padding.
    assert internet_checksum(b"\x12\x34\x56") == internet_checksum(b"\x12\x34\x56\x00")
    assert internet_checksum(b"\x12\x34\x56") == internet_checksum_reference(b"\x12\x34\x56")


def test_checksum_all_zero_input():
    for length in [*range(0, 65), 1500]:
        data = b"\x00" * length
        assert internet_checksum(data) == 0xFFFF
        assert internet_checksum(data) == internet_checksum_reference(data)
        # An all-zero buffer does NOT verify (sum 0, not 0xFFFF)...
        assert verify_checksum(data) == verify_checksum_reference(data)


def test_checksum_computed_zero_udp_case():
    # Words summing to 0xFFFF give a computed checksum of 0 — the case UDP
    # transmits as 0xFFFF.  Both implementations must agree it is 0.
    for data in (b"\xff\xff", b"\xf0\x0f\x0f\xf0", b"\xff\xfe\x00\x01"):
        assert internet_checksum(data) == 0
        assert internet_checksum_reference(data) == 0


def test_checksum_verify_round_trip():
    rng = random.Random(42)
    for _ in range(50):
        body = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 200)))
        if len(body) % 2:
            body += b"\x00"  # keep the checksum on a 16-bit boundary
        whole = body + internet_checksum(body).to_bytes(2, "big")
        assert verify_checksum(whole)
        assert verify_checksum_reference(whole)


def test_ones_complement_sum_range():
    rng = random.Random(7)
    for _ in range(100):
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 300)))
        s = ones_complement_sum(data)
        assert 0 <= s <= 0xFFFF


# ----------------------------------------------------------------------
# Forwarding: destination cache
# ----------------------------------------------------------------------
class FakeInterface:
    def __init__(self, name="eth0"):
        self.name = name


def route(prefix: str, iface=None, **kw) -> Route:
    return Route(prefix=Prefix.parse(prefix), interface=iface or FakeInterface(), **kw)


@pytest.fixture
def table():
    return RouteTable()


def test_cache_hit_is_same_route(table):
    r = route("10.1.0.0/16")
    table.install(r)
    assert table.lookup("10.1.2.3") is r
    assert table.lookup("10.1.2.3") is r
    assert table.cache_hits >= 1


def test_cache_never_returns_withdrawn_route(table):
    specific = route("10.1.2.0/24")
    general = route("10.1.0.0/16")
    table.install(specific)
    table.install(general)
    assert table.lookup("10.1.2.3") is specific
    assert table.withdraw(specific.prefix)
    # The cached /24 entry must not survive the withdrawal.
    assert table.lookup("10.1.2.3") is general
    assert table.withdraw(general.prefix)
    with pytest.raises(NoRouteError):
        table.lookup("10.1.2.3")


def test_cache_sees_more_specific_install(table):
    general = route("10.0.0.0/8")
    table.install(general)
    assert table.lookup("10.1.2.3") is general  # now cached
    specific = route("10.1.2.0/24")
    table.install(specific)
    assert table.lookup("10.1.2.3") is specific


def test_withdraw_by_source_invalidates_cache(table):
    r_rip = route("10.1.0.0/16", source="rip")
    r_static = route("10.0.0.0/8", source="static")
    table.install(r_rip)
    table.install(r_static)
    assert table.lookup("10.1.9.9") is r_rip
    assert table.withdraw_by_source("rip") == 1
    assert table.lookup("10.1.9.9") is r_static


def test_failed_withdraw_does_not_bump_generation(table):
    table.install(route("10.1.0.0/16"))
    gen = table.generation
    assert not table.withdraw(Prefix.parse("192.168.0.0/24"))
    assert table.withdraw_by_source("nonexistent") == 0
    assert table.generation == gen


def test_cached_lookup_matches_uncached_on_random_tables():
    rng = random.Random(1988)
    iface = FakeInterface()
    table = RouteTable()
    prefixes = []
    for _ in range(200):
        length = rng.choice((8, 12, 16, 20, 24, 28, 32))
        addr = rng.randrange(1 << 32)
        p = Prefix.of(Address(addr), length)
        try:
            table.install(Route(prefix=p, interface=iface))
            prefixes.append(p)
        except Exception:
            pass
    probes = [Address(rng.randrange(1 << 32)) for _ in range(300)]
    # Bias half the probes to land inside installed prefixes.
    for i in range(0, len(probes), 2):
        p = rng.choice(prefixes)
        host = rng.randrange(1 << (32 - p.length)) if p.length < 32 else 0
        probes[i] = Address(int(p.network) | host)
    for dst in probes * 2:  # repeat to exercise cache hits
        try:
            cached = table.lookup(dst)
        except NoRouteError:
            cached = None
        try:
            uncached = table.lookup_uncached(dst)
        except NoRouteError:
            uncached = None
        assert cached is uncached


def test_cache_bounded(table):
    table.install(route("0.0.0.0/0"))
    for i in range(table.CACHE_MAX + 10):
        table.lookup(Address((10 << 24) | i))
    assert len(table._cache) <= table.CACHE_MAX


def test_cache_interleaved_mutation_and_lookup(table):
    """Generation stamping under an install/lookup/withdraw churn."""
    r16 = route("10.1.0.0/16")
    r24 = route("10.1.2.0/24")
    table.install(r16)
    for _ in range(3):
        assert table.lookup("10.1.2.3") is r16
        table.install(r24)
        assert table.lookup("10.1.2.3") is r24
        table.withdraw(r24.prefix)
        assert table.lookup("10.1.2.3") is r16


# ----------------------------------------------------------------------
# Engine: lazy-deletion compaction and exact pending
# ----------------------------------------------------------------------
def test_compaction_sheds_husks():
    sim = Simulator()
    handles = [sim.schedule(1.0 + i * 1e-3, lambda: None) for i in range(1000)]
    fired = []
    sim.schedule(5.0, lambda: fired.append("keep"))
    for h in handles:
        h.cancel()
    assert sim.compactions >= 1
    assert sim.queue_size < 100  # husks were rebuilt away, not retained
    assert sim.pending == 1
    sim.run()
    assert fired == ["keep"]


def test_no_compaction_below_threshold():
    sim = Simulator()
    handles = [sim.schedule(1.0 + i, lambda: None) for i in range(10)]
    for h in handles:
        h.cancel()
    assert sim.compactions == 0  # queue too small to bother
    assert sim.pending == 0


def test_firing_order_preserved_across_compaction():
    sim = Simulator()
    fired = []
    keep = []
    cancel = []
    for i in range(200):
        t = 1.0 + i * 0.01
        if i % 3 == 0:
            keep.append((t, sim.schedule(t, lambda t=t: fired.append(t))))
        else:
            cancel.append(sim.schedule(t, lambda t=t: fired.append(("BAD", t))))
    for h in cancel:
        h.cancel()
    assert sim.compactions >= 1
    sim.run()
    assert fired == [t for t, _ in keep]
    assert fired == sorted(fired)


def test_mid_run_compaction_still_fires_every_live_event():
    """A cancel inside a fired action can compact the heap while run()
    holds it: every live event must still fire, in order, exactly once."""
    sim = Simulator()
    fired = []
    doomed = [sim.schedule(2.0 + i * 0.01, lambda: fired.append("BAD"))
              for i in range(200)]
    live = [1.5, 2.5, 2.995, 9.0]
    for t in live:
        sim.schedule(t, lambda t=t: fired.append(t))
    sim.schedule(1.0, lambda: [h.cancel() for h in doomed])
    sim.run()
    assert sim.compactions >= 1
    assert fired == live
    assert sim.pending == 0 and sim.queue_size == 0


def test_pending_exact_under_churn():
    sim = Simulator()
    rng = random.Random(3)
    live = {}
    next_id = 0
    for step in range(2000):
        op = rng.random()
        if op < 0.5 or not live:
            h = sim.schedule(rng.uniform(0, 100), lambda: None)
            live[next_id] = h
            next_id += 1
        elif op < 0.85:
            key = rng.choice(list(live))
            live.pop(key).cancel()
        else:
            if sim.step():
                # drop whichever handle fired
                live = {k: h for k, h in live.items() if h.active}
        assert sim.pending == len(live), step
    assert sim.pending == len(live)


def test_run_until_ignores_cancelled_head():
    """A cancelled husk before ``until`` must not let later events fire."""
    sim = Simulator()
    fired = []
    early = sim.schedule(1.0, lambda: fired.append("early"))
    sim.schedule(100.0, lambda: fired.append("late"))
    early.cancel()
    sim.run(until=10.0)
    assert fired == []
    assert sim.now == 10.0
    sim.run(until=200.0)
    assert fired == ["late"]


def test_run_until_with_only_husks_advances_clock():
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    h.cancel()
    assert sim.run(until=5.0) == 5.0


def test_cancel_counted_once():
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h.cancel()
    h.cancel()  # double-cancel must not double-count
    assert sim.pending == 1


def test_cancel_after_fire_does_not_corrupt_pending():
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.step()
    h.cancel()  # no-op: already fired
    assert sim.pending == 1
    assert sim.step()
    assert not sim.step()
    assert sim.pending == 0
