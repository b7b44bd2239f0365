"""Unit tests for the discrete-event engine."""

import math

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_events_fire_in_time_order(sim):
    order = []
    sim.schedule(2.0, lambda: order.append("b"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(3.0, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_clock_advances_to_event_time(sim):
    times = []
    sim.schedule(1.5, lambda: times.append(sim.now))
    sim.schedule(4.25, lambda: times.append(sim.now))
    sim.run()
    assert times == [1.5, 4.25]


def test_same_time_events_fire_fifo(sim):
    order = []
    for i in range(10):
        sim.schedule(1.0, lambda i=i: order.append(i))
    sim.run()
    assert order == list(range(10))


def test_priority_breaks_time_ties(sim):
    order = []
    sim.schedule(1.0, lambda: order.append("low"), priority=5)
    sim.schedule(1.0, lambda: order.append("high"), priority=0)
    sim.run()
    assert order == ["high", "low"]


def test_run_until_stops_clock_at_limit(sim):
    fired = []
    sim.schedule(5.0, lambda: fired.append(1))
    sim.schedule(15.0, lambda: fired.append(2))
    end = sim.run(until=10.0)
    assert fired == [1]
    assert end == 10.0
    assert sim.now == 10.0


def test_events_at_exact_until_fire(sim):
    fired = []
    sim.schedule(10.0, lambda: fired.append(1))
    sim.run(until=10.0)
    assert fired == [1]


def test_remaining_events_fire_on_second_run(sim):
    fired = []
    sim.schedule(15.0, lambda: fired.append(1))
    sim.run(until=10.0)
    assert fired == []
    sim.run(until=20.0)
    assert fired == [1]


def test_cancel_prevents_firing(sim):
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append(1))
    handle.cancel()
    sim.run()
    assert fired == []


def test_cancel_after_firing_is_noop(sim):
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append(1))
    sim.run()
    handle.cancel()  # must not raise
    assert fired == [1]


def test_handle_reports_activity(sim):
    handle = sim.schedule(1.0, lambda: None)
    assert handle.active
    handle.cancel()
    assert not handle.active


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_nan_time_rejected(sim):
    with pytest.raises(SimulationError):
        sim.call_at(math.nan, lambda: None)


@pytest.mark.parametrize("entry", ["schedule", "call_at", "post", "post_at"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_time_rejected_by_every_entry_point(sim, entry, bad):
    with pytest.raises(SimulationError):
        getattr(sim, entry)(bad, lambda: None)
    assert sim.pending == 0
    sim.run()
    assert sim.now == 0.0


def test_schedule_in_past_rejected(sim):
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(1.0, lambda: None)


def test_events_scheduled_during_run_fire(sim):
    order = []

    def first():
        order.append("first")
        sim.schedule(1.0, lambda: order.append("nested"))

    sim.schedule(1.0, first)
    sim.run()
    assert order == ["first", "nested"]


def test_zero_delay_event_fires_at_same_time(sim):
    times = []

    def outer():
        sim.schedule(0.0, lambda: times.append(sim.now))

    sim.schedule(2.0, outer)
    sim.run()
    assert times == [2.0]


def test_stop_halts_run(sim):
    fired = []

    def stopper():
        fired.append(1)
        sim.stop()

    sim.schedule(1.0, stopper)
    sim.schedule(2.0, lambda: fired.append(2))
    sim.run()
    assert fired == [1]


def test_max_events_guard(sim):
    def forever():
        sim.schedule(0.001, forever)

    sim.schedule(0.0, forever)
    with pytest.raises(SimulationError):
        sim.run(until=1e9, max_events=1000)


def test_max_events_limit_is_exact(sim):
    # Regression: the guard used to overshoot (checked after firing), so a
    # run could process max_events + 1.  The contract is exact: exactly
    # max_events fire, then the still-due next event raises.
    fired = []

    def forever():
        fired.append(sim.now)
        sim.schedule(0.001, forever)

    sim.schedule(0.0, forever)
    with pytest.raises(SimulationError):
        sim.run(until=1e9, max_events=1000)
    assert len(fired) == 1000
    assert sim.events_processed == 1000


def test_max_events_not_triggered_by_exact_fit(sim):
    # A run that needs exactly max_events events completes cleanly.
    for i in range(50):
        sim.schedule(i * 0.1, lambda: None)
    sim.run(max_events=50)
    assert sim.events_processed == 50


def test_events_processed_counter(sim):
    for i in range(5):
        sim.schedule(i * 0.1, lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_pending_excludes_cancelled(sim):
    h1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h1.cancel()
    assert sim.pending == 1


def test_trace_callback_invoked():
    seen = []
    sim = Simulator(trace=lambda t, label: seen.append((t, label)))
    sim.schedule(1.0, lambda: None, label="hello")
    sim.run()
    assert seen == [(1.0, "hello")]


def test_active_false_after_firing_at_boundary_time(sim):
    """Regression: an event that fired at time == now must not be active."""
    handle = sim.schedule(1.0, lambda: None)
    sim.run(until=1.0)
    assert sim.now == handle.time == 1.0
    assert not handle.active  # fired; clock equality must not resurrect it


def test_active_true_for_unfired_event_at_same_timestamp(sim):
    h1 = sim.schedule(1.0, lambda: None)
    h2 = sim.schedule(1.0, lambda: None)
    sim.step()  # fires h1, clock now == 1.0 == h2.time
    assert not h1.active
    assert h2.active  # still queued, must remain cancellable


def test_cancel_at_boundary_prevents_second_event(sim):
    fired = []
    sim.schedule(1.0, lambda: h2.cancel())
    h2 = sim.schedule(1.0, lambda: fired.append("h2"))
    sim.run()
    assert fired == []
