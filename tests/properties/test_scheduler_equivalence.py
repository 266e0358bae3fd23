"""Property tests for the event queue's dispatch order.

The contract: events run in ``(time, schedule index)`` order, where the
schedule index counts every :meth:`Simulator.schedule` call and every
waiter woken by a triggered event, in the order they happened.  The
oracle below computes that order with a linear scan over a plain list,
so it shares no code with the engine's heap.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asic.sync_counter import SyncCounter
from repro.engine import Simulator

#: Delays drawn mostly from a small discrete set, like the machine
#: model's, so that many entries share an instant.
DELAYS = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 4.0, 8.0, 10.0]),
    st.floats(0.0, 64.0),
)
FOLLOW_UPS = st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.5]), max_size=3)
ROOTS = st.lists(st.tuples(DELAYS, FOLLOW_UPS), min_size=1, max_size=40)


def oracle(roots):
    """``(time, label)`` in dispatch order, computed without the engine.

    Each root ``(delay, follow_ups)`` is scheduled up front; when it
    runs it schedules one follow-up per delay in ``follow_ups``.
    """
    pending = []
    index = 0
    for label, (delay, follow) in enumerate(roots):
        pending.append((delay, index, (label,), follow))
        index += 1
    order = []
    while pending:
        entry = min(pending, key=lambda e: (e[0], e[1]))
        pending.remove(entry)
        when, _, label, follow = entry
        order.append((when, label))
        for k, delay in enumerate(follow):
            pending.append((when + delay, index, label + (k,), ()))
            index += 1
    return order


def run_roots(roots, until=None):
    sim = Simulator()
    seen = []

    def fire(label, follow):
        seen.append((sim.now, label))
        for k, delay in enumerate(follow):
            sim.schedule(delay, fire, label + (k,), ())

    for label, (delay, follow) in enumerate(roots):
        sim.schedule(delay, fire, (label,), follow)
    sim.run(until=until)
    return sim, seen


class TestEngineOrderEquivalence:
    @given(ROOTS)
    @settings(max_examples=150, deadline=None)
    def test_dispatch_order_identical(self, roots):
        sim, seen = run_roots(roots)
        assert seen == oracle(roots)
        assert sim.events_executed == len(seen)
        assert sim.pending == 0

    @given(ROOTS)
    @settings(max_examples=100, deadline=None)
    def test_same_instant_follow_ups_run_after_pending(self, roots):
        _, seen = run_roots(roots)
        position = {label: i for i, (_, label) in enumerate(seen)}
        for i, (when, label) in enumerate(seen):
            if len(label) == 1 or roots[label[0]][1][label[1]] != 0.0:
                continue
            # A zero-delay follow-up runs after every root already
            # pending at its instant.
            for root, (delay, _) in enumerate(roots):
                if delay == when:
                    assert position[(root,)] < i

    @given(
        kind=st.sampled_from(["event", "all_of", "counter"]),
        order=st.permutations(range(6)),
        before=st.integers(0, 3),
        after=st.integers(0, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_fan_out_wakes_waiters_in_registration_order(
        self, kind, order, before, after
    ):
        sim = Simulator()
        log = []
        if kind == "counter":
            counter = SyncCounter(sim)
            waitable = lambda: counter.wait_for(2)  # noqa: E731
            trigger = lambda: counter.increment(2)  # noqa: E731
        else:
            early, late = sim.event(), sim.event()
            early.succeed()
            if kind == "all_of":
                waitable = lambda: sim.all_of([early, late])  # noqa: E731
            else:
                waitable = lambda: late  # noqa: E731
            trigger = late.succeed

        def waiter(tag):
            yield waitable()
            log.append(("waiter", tag))

        for tag in order:
            sim.process(waiter(tag))
        for i in range(before):
            sim.schedule(5.0, log.append, ("before", i))
        sim.schedule(5.0, trigger)
        for i in range(after):
            sim.schedule(5.0, log.append, ("after", i))
        sim.run()
        assert log == (
            [("before", i) for i in range(before)]
            + [("after", i) for i in range(after)]
            + [("waiter", tag) for tag in order]
        )
        assert sim.now == 5.0

    @given(ROOTS, st.sampled_from([0.0, 1.0, 2.0, 4.0, 9.5, 30.0, 100.0]))
    @settings(max_examples=100, deadline=None)
    def test_run_until_stops_at_time_and_keeps_later_events(self, roots, t):
        sim, seen = run_roots(roots, until=t)
        full = oracle(roots)
        assert seen == [e for e in full if e[0] <= t]
        assert sim.now == t
        # Still queued: later roots, and later follow-ups whose root ran.
        assert sim.pending == sum(
            1 for when, label in full
            if when > t and (len(label) == 1 or roots[label[0]][0] <= t)
        )
        sim.run()
        assert seen == full
