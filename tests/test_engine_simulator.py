"""Unit tests for the simulator core."""

import pytest

from repro.engine import Simulator


def test_schedule_runs_in_time_order(sim):
    seen = []
    sim.schedule(5.0, seen.append, "b")
    sim.schedule(2.0, seen.append, "a")
    sim.schedule(9.0, seen.append, "c")
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 9.0


def test_same_time_preserves_scheduling_order(sim):
    seen = []
    for tag in range(20):
        sim.schedule(1.0, seen.append, tag)
    sim.run()
    assert seen == list(range(20))


def test_schedule_into_past_rejected(sim):
    with pytest.raises(ValueError):
        sim.schedule(-0.1, lambda: None)


def test_run_until_time_stops_clock_exactly(sim):
    seen = []
    sim.schedule(10.0, seen.append, "late")
    sim.run(until=4.0)
    assert seen == []
    assert sim.now == 4.0
    sim.run()
    assert seen == ["late"]


def test_run_until_past_time_rejected(sim):
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_run_until_event(sim):
    ev = sim.event()
    sim.schedule(3.0, ev.succeed, "payload")
    sim.schedule(99.0, lambda: None)
    assert sim.run(until=ev) == "payload"
    assert sim.now == 3.0


def test_run_until_never_triggered_event_is_deadlock(sim):
    ev = sim.event()
    with pytest.raises(RuntimeError, match="deadlock"):
        sim.run(until=ev)


def test_empty_run_is_noop(sim):
    sim.run()
    assert sim.now == 0.0


def test_determinism_across_runs():
    def build_and_run():
        s = Simulator()
        seen = []

        def proc(name):
            for i in range(5):
                yield s.timeout(1.5 * (i + 1))
                seen.append((s.now, name, i))

        for n in ("x", "y", "z"):
            s.process(proc(n))
        s.run()
        return seen

    assert build_and_run() == build_and_run()


def test_nan_times_rejected(sim):
    nan = float("nan")
    with pytest.raises(ValueError):
        sim.schedule(nan, lambda: None)
    with pytest.raises(ValueError):
        sim.timeout(nan)
    with pytest.raises(ValueError):
        sim.run(until=nan)
    assert sim.now == 0.0
    assert sim.pending == 0


def test_schedule_at_rejects_past_and_nan_times(sim):
    sim.run(until=10.0)
    with pytest.raises(ValueError):
        sim.schedule_at(float("nan"), lambda: None)
    with pytest.raises(ValueError):
        sim.schedule_at(9.5, lambda: None)
    assert sim.now == 10.0
    assert sim.pending == 0


def test_schedule_at_runs_at_the_exact_absolute_time(sim):
    seen = []
    sim.run(until=0.1)
    when = 0.1 + 0.2
    sim.schedule_at(when, lambda: seen.append(sim.now))
    sim.schedule_at(sim.now, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [0.1, when]


def test_crash_in_fan_out_leaves_remaining_waiters_pending(sim):
    ev = sim.event()
    woke = []

    def waiter(tag):
        yield ev
        if tag == 1:
            raise KeyError("boom")
        woke.append(tag)

    for tag in range(4):
        sim.process(waiter(tag), name=f"w{tag}")
    sim.schedule(1.0, ev.succeed)
    with pytest.raises(RuntimeError, match="'w1'") as info:
        sim.run()
    assert isinstance(info.value.__cause__, KeyError)
    assert woke == [0]
    assert sim.pending == 2
    sim.run()
    assert woke == [0, 2, 3]
    assert sim.now == 1.0


def test_pending_is_exact_through_a_fan_out(sim):
    ev = sim.event()

    def waiter():
        yield ev

    for _ in range(3):
        sim.process(waiter())
    sim.schedule(1.0, ev.succeed)
    sim.schedule(2.0, lambda: None)
    assert sim.pending == 5
    observed = []

    def hook(now):
        observed.append(sim.pending)
        return now  # due again at the next event

    sim.set_monitor_hook(hook)
    sim.run()
    # Three process starts, the trigger (which then queues one wake-up
    # per waiter), the three wake-ups, and the last event.
    assert observed == [4, 3, 2, 1, 3, 2, 1, 0]
    assert sim.pending == 0
