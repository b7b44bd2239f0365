"""Unit tests for timers and periodic processes."""

import pytest

from repro.sim.process import PeriodicProcess, Timer


def test_timer_fires_once(sim):
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(2.0)
    sim.run()
    assert fired == [2.0]


def test_timer_restart_reschedules(sim):
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(2.0)
    sim.schedule(1.0, lambda: timer.start(5.0))  # restart at t=1 -> fires t=6
    sim.run()
    assert fired == [6.0]


def test_timer_stop_cancels(sim):
    fired = []
    timer = Timer(sim, lambda: fired.append(1))
    timer.start(2.0)
    timer.stop()
    sim.run()
    assert fired == []


def test_timer_running_property(sim):
    timer = Timer(sim, lambda: None)
    assert not timer.running
    timer.start(1.0)
    assert timer.running
    sim.run()
    assert not timer.running


def test_timer_expires_at(sim):
    timer = Timer(sim, lambda: None)
    timer.start(3.5)
    assert timer.expires_at == 3.5
    timer.stop()
    assert timer.expires_at is None


def test_timer_can_restart_from_callback(sim):
    fired = []
    timer = Timer(sim, lambda: None)

    def cb():
        fired.append(sim.now)
        if len(fired) < 3:
            timer.start(1.0)

    timer._callback = cb
    timer.start(1.0)
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_periodic_fires_repeatedly(sim):
    fired = []
    proc = PeriodicProcess(sim, 1.0, lambda: fired.append(sim.now))
    proc.start()
    sim.run(until=5.5)
    assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_periodic_initial_delay(sim):
    fired = []
    proc = PeriodicProcess(sim, 2.0, lambda: fired.append(sim.now))
    proc.start(initial_delay=0.0)
    sim.run(until=4.5)
    assert fired == [0.0, 2.0, 4.0]


def test_periodic_stop(sim):
    fired = []
    proc = PeriodicProcess(sim, 1.0, lambda: fired.append(sim.now))
    proc.start()
    sim.schedule(2.5, proc.stop)
    sim.run(until=10)
    assert fired == [1.0, 2.0]


def test_periodic_stop_from_callback(sim):
    fired = []
    proc = PeriodicProcess(sim, 1.0, lambda: None)

    def cb():
        fired.append(sim.now)
        if len(fired) == 2:
            proc.stop()

    proc._callback = cb
    proc.start()
    sim.run(until=10)
    assert fired == [1.0, 2.0]


def test_periodic_jitter_applied(sim):
    fired = []
    proc = PeriodicProcess(sim, 1.0, lambda: fired.append(sim.now),
                           jitter_fn=lambda: 0.25)
    proc.start()
    sim.run(until=3.0)
    assert fired == [1.25, 2.5]


def test_periodic_rejects_nonpositive_interval(sim):
    with pytest.raises(ValueError):
        PeriodicProcess(sim, 0.0, lambda: None)


def test_periodic_running_property(sim):
    proc = PeriodicProcess(sim, 1.0, lambda: None)
    assert not proc.running
    proc.start()
    assert proc.running
    proc.stop()
    assert not proc.running


def test_periodic_start_while_running_keeps_one_chain(sim):
    fired = []
    proc = PeriodicProcess(sim, 1.0, lambda: fired.append(sim.now))
    proc.start()
    proc.start()                       # at once: still one fire per interval
    sim.schedule(2.5, proc.start)      # mid-interval: the chain restarts here
    sim.run(until=6.0)
    assert fired == [1.0, 2.0, 3.5, 4.5, 5.5]


def test_periodic_start_from_callback_keeps_one_chain(sim):
    fired = []
    proc = PeriodicProcess(sim, 1.0, lambda: None)

    def cb():
        fired.append(sim.now)
        if len(fired) == 2:
            proc.start(initial_delay=0.5)

    proc._callback = cb
    proc.start()
    sim.run(until=5.0)
    assert fired == [1.0, 2.0, 2.5, 3.5, 4.5]
