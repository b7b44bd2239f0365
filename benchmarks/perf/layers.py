"""Per-layer cost attribution for the ``perf`` ledger, all from outside.

Three sources, none of which needs a line of instrumentation in ``src/``:

* ``attribute(profile)`` turns a ``cProfile.Profile`` that was enabled
  around one measured phase into self time and call counts per *layer*
  (a package under ``src/repro/``) and per module.  A Python function
  belongs to the file that defines it; a C builtin or a generated dataclass
  method belongs to whoever called it, through the profile's caller edges
  (split by calls for the call counts, so those repeat exactly, and by self
  time for the seconds).  What is left over — the
  standard library, the repro packages not listed in ``LAYERS`` (harness,
  ecology, metrics, ...) and the benchmark's own driver code — is the
  ``stdlib`` layer, so the layers always sum to the profiled total.
* the public counters, tallied in :mod:`workloads`;
* ``direct_calls()``: a dozen layer entry points timed alone on fixed
  inputs, in microseconds per call.

``SimProfiler`` labels are deliberately not used: an event is charged to
the label that scheduled it, so a "link" event on ``dv_grid_churn`` contains
the whole DV update processing it delivers.
"""

from __future__ import annotations

import pstats
import statistics
from time import perf_counter

from repro.ip.address import Address, Prefix
from repro.ip.checksum import internet_checksum
from repro.ip.forwarding import Route, RouteTable
from repro.ip.fragmentation import Reassembler, fragment
from repro.ip.packet import Datagram
from repro.netlayer.link import Interface
from repro.routing.base import RouteAdvert, pack_adverts, unpack_adverts
from repro.sim.engine import Simulator
from repro.tcp.segment import TcpSegment
from repro.udp import udp

__all__ = ["LAYERS", "MODULES", "CALL_MODULES", "attribute", "direct_calls"]

LAYERS = ("sim", "netlayer", "ip", "routing", "udp", "tcp", "sockets",
          "flows", "obs", "accounting", "apps", "chaos", "stdlib")

#: Modules reported on their own (``<module>.self_us_per_hop``).
MODULES = ("ip.address", "ip.checksum", "ip.packet", "ip.node",
           "ip.forwarding", "ip.fragmentation", "ip.flyweight",
           "sim.engine", "sim.shard", "netlayer.link", "netlayer.lan",
           "netlayer.red", "tcp.connection", "tcp.segment", "tcp.buffers",
           "routing.distance_vector", "routing.base", "udp.udp",
           "obs.core", "obs.registry", "obs.spans", "flows.scheduler")

#: Modules whose call count is reported too (``<module>.calls_per_hop``).
CALL_MODULES = ("ip.address", "ip.checksum", "ip.packet")


def _place(filename: str) -> tuple:
    """``(layer, module)`` of the code in ``filename``."""
    at = filename.rfind("/repro/")
    if at >= 0:
        parts = filename[at + len("/repro/"):].split("/")
        if len(parts) >= 2 and parts[0] in LAYERS:
            return parts[0], f"{parts[0]}.{parts[-1].removesuffix('.py')}"
    return "stdlib", ""


def _homeless(filename: str) -> bool:
    """C builtins (``~``) and generated code (``<string>``: the dataclass
    ``__init__``/``__eq__``/``__hash__`` of ``Prefix`` and friends) have no
    file of their own; they are charged to whoever called them."""
    return filename.startswith(("~", "<"))


def attribute(profile) -> dict:
    """Self seconds and calls per layer and per module, plus their total."""
    stats = pstats.Stats(profile).stats
    layers = {layer: [0.0, 0.0] for layer in LAYERS}
    modules = {module: [0.0, 0.0] for module in MODULES}
    memo = {}

    def owners(func: tuple, by: int, seen: frozenset = frozenset()) -> dict:
        """``{(layer, module): share}`` of ``func``'s cost, following caller
        edges up through homeless code.  ``by`` picks the edge weight:
        1 = calls (so call counts repeat exactly), 2 = self seconds."""
        key = (func, by)
        if key in memo:
            return memo[key]
        callers = stats[func][4] if func in stats else {}
        if not _homeless(func[0]) or not callers or func in seen:
            memo[key] = {_place(func[0]): 1.0}
            return memo[key]
        whole = sum(edge[by] for edge in callers.values()) or 1.0
        shares = {}
        for caller in sorted(callers):
            weight = callers[caller][by] / whole
            for place, share in owners(caller, by, seen | {func}).items():
                shares[place] = shares.get(place, 0.0) + share * weight
        memo[key] = shares
        return shares

    def charge(func: tuple, column: int, amount: float, by: int) -> None:
        for (layer, module), share in owners(func, by).items():
            layers[layer][column] += amount * share
            if module in modules:
                modules[module][column] += amount * share

    total = 0.0
    # Sorted, so the float sums (and with them calls_per_hop) come out the
    # same in every process whatever order the profiler listed things in.
    for func in sorted(stats):
        _cc, calls, self_s, _ct, _callers = stats[func]
        total += self_s
        charge(func, 0, self_s, by=2)
        charge(func, 1, calls, by=1)
    return {"total_s": total,
            "layers": {k: tuple(v) for k, v in layers.items()},
            "modules": {k: tuple(v) for k, v in modules.items()}}


# ----------------------------------------------------------------------
# Direct layer calls
# ----------------------------------------------------------------------
def _us_per_call(batch, calls: int, batches: int = 5) -> float:
    """Median over ``batches`` of one ``batch()`` making ``calls`` calls."""
    samples = []
    for _ in range(batches):
        start = perf_counter()
        batch()
        samples.append((perf_counter() - start) * 1e6 / calls)
    return statistics.median(samples)


def _noop() -> None:
    pass


def direct_calls() -> dict:
    """Microseconds per call of twelve layer entry points, inputs fixed."""
    out = {}
    n = 20_000

    def post():
        sim = Simulator()
        for i in range(n):
            sim.post(i * 1e-6, _noop)
        sim.run()

    def schedule():
        sim = Simulator()
        for i in range(n):
            sim.schedule(i * 1e-6, _noop)
        sim.run()

    def schedule_cancel():
        sim = Simulator()
        for i in range(n):
            sim.schedule(i * 1e-6, _noop).cancel()
        sim.run()

    out["sim.engine.post_us"] = _us_per_call(post, n)
    out["sim.engine.schedule_us"] = _us_per_call(schedule, n)
    out["sim.engine.schedule_cancel_us"] = _us_per_call(schedule_cancel, n)

    src, dst = Address("10.1.2.3"), Address("10.4.5.6")
    header = Datagram(src, dst, 17, b"").to_bytes()
    payload1480 = bytes(range(256)) * 5 + bytes(200)

    def repeat(fn, count):
        def batch():
            for _ in range(count):
                fn()
        return batch

    out["ip.checksum.header20_us"] = _us_per_call(
        repeat(lambda: internet_checksum(header), 5000), 5000)
    out["ip.checksum.payload1480_us"] = _us_per_call(
        repeat(lambda: internet_checksum(payload1480), 2000), 2000)

    datagram = Datagram(src, dst, 17, bytes(256), ident=7)
    out["ip.packet.roundtrip_us"] = _us_per_call(
        repeat(lambda: Datagram.from_bytes(datagram.to_bytes()), 2000), 2000)

    table = RouteTable()
    prefix0 = Prefix.parse("10.0.0.0/24")
    iface = Interface("bench0", prefix0.host(1), prefix0)
    for i in range(64):
        table.install(Route(Prefix.parse(f"10.{i}.0.0/24"), iface))
    hot = [Address(f"10.{4 * i}.0.9") for i in range(16)]

    def lookups():
        lookup = table.lookup
        for _ in range(250):
            for address in hot:
                lookup(address)

    out["ip.forwarding.lookup_us"] = _us_per_call(lookups, 250 * 16)

    out["ip.address.construct_us"] = _us_per_call(
        repeat(lambda: Address(0x0A010203), 10_000), 10_000)

    big = Datagram(src, dst, 17, bytes(1400), ident=9)
    reassembler = Reassembler(Simulator())

    def frag_reasm():
        whole = None
        for piece in fragment(big, 596):
            whole = reassembler.accept(piece)
        if whole is None or len(whole.payload) != 1400:
            raise AssertionError("fragments did not reassemble")

    out["ip.fragmentation.frag_reasm_us"] = _us_per_call(
        repeat(frag_reasm, 500), 500)

    body = bytes(256)
    out["udp.encode_decode_us"] = _us_per_call(
        repeat(lambda: udp.decode(src, dst,
                                  udp.encode(src, dst, 4000, 9000, body)),
               2000), 2000)

    segment = TcpSegment(4000, 21, 1000, 2000, flags=0x10, window=8192,
                         payload=bytes(536))
    out["tcp.segment.roundtrip_us"] = _us_per_call(
        repeat(lambda: TcpSegment.from_bytes(
            src, dst, segment.to_bytes(src, dst)), 2000), 2000)

    adverts = [RouteAdvert(Prefix.parse(f"10.{i}.0.0/24"), i % 15 + 1)
               for i in range(100)]
    out["routing.adverts_roundtrip_us"] = _us_per_call(
        repeat(lambda: unpack_adverts(pack_adverts(adverts)), 100), 100)
    return out
