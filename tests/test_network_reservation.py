"""Link reservations (``TorusLink.reserve``) and the observers fed by them.

A torus link direction is a capacity-1 FCFS channel whose hold time is
known at request time, so a grant is arithmetic: ``start = max(now,
free_at)``.  The oracle tests below check that arithmetic, the merged
busy-time accounting, and the lazily pruned queue depth against brute
force, without the engine.  The transport tests pin the same-instant
tie rule and the hold time the observers see under degraded bandwidth.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asic import build_machine
from repro.congestion.recorder import CongestionRecorder, use_congestion
from repro.engine import Simulator
from repro.faults.plan import Degradation, FaultPlan
from repro.faults.session import FaultSession, use_faults
from repro.network.link import LinkId, TorusLink
from repro.network.network import Network
from repro.network.packet import WritePacket
from repro.topology.torus import Torus3D
from repro.trace.flight import FlightRecorder, use_flight
from tests.conftest import run_exchange


class _Clock:
    """Stands in for the simulator: the link only reads ``now``."""

    now = 0.0


def _link() -> tuple[_Clock, TorusLink]:
    clock = _Clock()
    return clock, TorusLink(clock, LinkId((0, 0, 0), "x", 1))


# Each request arrives at the previous arrival, exactly when the link
# frees up, or after a gap; holds are positive.  Quarter-ns grids make
# exact ties common, arbitrary floats exercise the float sums.
_time = st.one_of(
    st.integers(0, 40).map(lambda k: k * 0.25),
    st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
)
_hold = st.one_of(
    st.integers(1, 40).map(lambda k: k * 0.25),
    st.floats(0.01, 10.0, allow_nan=False, allow_infinity=False),
)
_requests = st.lists(
    st.tuples(st.sampled_from(["same", "at_free", "gap"]), _time, _hold),
    min_size=1,
    max_size=30,
)


def _arrivals(requests) -> tuple[list[float], list[float]]:
    """Non-decreasing arrival times (DES order) and their holds."""
    arrivals: list[float] = []
    holds: list[float] = []
    free_at = 0.0
    for kind, value, hold in requests:
        last = arrivals[-1] if arrivals else 0.0
        if kind == "same":
            a = last
        elif kind == "at_free":
            a = max(last, free_at)
        else:
            a = last + value
        arrivals.append(a)
        holds.append(hold)
        free_at = max(a, free_at) + hold
    return arrivals, holds


def _reference_starts(arrivals, holds) -> list[float]:
    starts: list[float] = []
    for i, a in enumerate(arrivals):
        starts.append(a if i == 0 else max(a, starts[-1] + holds[i - 1]))
    return starts


def _reference_busy(starts, holds, t) -> float:
    """Busy time up to ``t`` the way a capacity-1 ``Resource`` kept it:
    back-to-back holds merge into one interval, each closed interval is
    added once, and an open one counts up to ``t``."""
    periods: list[list[float]] = []
    for s, h in zip(starts, holds):
        if periods and s == periods[-1][1]:
            periods[-1][1] = s + h
        else:
            periods.append([s, s + h])
    busy = 0.0
    for s, e in periods:
        if s > t:
            break
        if e <= t:
            busy += e - s
        else:
            return busy + (t - s)
    return busy


@settings(max_examples=300, deadline=None)
@given(_requests, st.lists(_time, max_size=10))
def test_reservation_matches_oracle(requests, query_offsets):
    arrivals, holds = _arrivals(requests)
    starts = _reference_starts(arrivals, holds)
    end = max(s + h for s, h in zip(starts, holds))
    # Queries land after every request made at the same instant.
    queries = sorted(
        [min(q * 3.0, end + 1.0) for q in query_offsets]
        + arrivals + starts + [end]
    )
    clock, link = _link()
    got: list[float] = []
    qi = 0
    for a, h in zip(arrivals, holds):
        while qi < len(queries) and queries[qi] < a:
            t = queries[qi]
            clock.now = t
            assert link.busy_ns == _reference_busy(starts, holds, t)
            waiting = sum(1 for ai, si in zip(arrivals, starts) if ai <= t < si)
            assert link.queue_length == waiting
            qi += 1
        clock.now = a
        got.append(link.reserve(a, h))
    for t in queries[qi:]:
        clock.now = t
        assert link.busy_ns == _reference_busy(starts, holds, t)
        waiting = sum(1 for ai, si in zip(arrivals, starts) if ai <= t < si)
        assert link.queue_length == waiting
    assert got == starts
    assert link.free_at == starts[-1] + holds[-1]
    peak = max(
        sum(1 for j in range(i + 1) if starts[j] > arrivals[i])
        for i in range(len(arrivals))
    )
    assert link.peak_queue_length == peak


def test_request_at_free_at_is_granted_at_once_and_merges_busy_time():
    clock, link = _link()
    assert link.reserve(0.0, 5.0) == 0.0
    clock.now = 5.0
    assert link.reserve(5.0, 5.0) == 5.0
    assert link.queue_length == 0
    assert link.peak_queue_length == 0
    clock.now = 20.0
    assert link.busy_ns == 10.0
    assert link.utilization() == 0.5


def test_waiters_are_counted_until_their_grant():
    clock, link = _link()
    link.reserve(0.0, 4.0)
    assert link.reserve(1.0, 4.0) == 4.0
    assert link.reserve(2.0, 4.0) == 8.0
    assert link.peak_queue_length == 2
    clock.now = 3.0
    assert link.queue_length == 2
    clock.now = 4.0
    assert link.queue_length == 1
    clock.now = 8.0
    assert link.queue_length == 0


class _Sink:
    """A bare network client that accepts every delivery."""

    def __init__(self, node, name: str = "sink") -> None:
        self.node = node
        self.name = name

    def receive(self, packet) -> None:
        pass


def test_same_instant_arrivals_are_served_in_request_order_of_their_previous_hop():
    """Two packets reach ``(1,0,0) y+`` at the same instant.

    ``a`` asked for its previous hop first but waited there behind a
    256 B blocker; ``b`` asked for its previous hop later and was
    granted at once, before ``a``'s grant.  The link serves ``a`` first:
    a hop's continuation is queued when the hop is requested, so ties
    at the next link follow request order, not grant order.
    """
    sim = Simulator()
    flight = FlightRecorder()
    torus = Torus3D(5, 5, 1)
    net = Network(sim, torus, flight=flight)
    for node in ((1, 0, 0), (1, 1, 0)):
        net.attach(_Sink(torus.coord(node)))

    def packet(src, dst, payload_bytes=0):
        return WritePacket(
            src_node=torus.coord(src), src_client="sink",
            dst_node=torus.coord(dst), dst_client="sink",
            payload_bytes=payload_bytes,
        )

    blocker = packet((0, 0, 0), (1, 0, 0), payload_bytes=256)
    a = packet((0, 0, 0), (1, 1, 0))
    b = packet((1, 4, 0), (1, 1, 0))
    net.inject(blocker)
    net.inject(a)
    # b's first hop (y+, 44 ns) is requested 19 ns after injection and
    # lands on (1,0,0) exactly when a does after its x+ hop (40 ns).
    a_arrival = (19.0 + blocker.serialization_ns) + 40.0
    b_inject = a_arrival - 63.0
    assert (b_inject + 19.0) + 44.0 == a_arrival
    sim.schedule(b_inject, net.inject, b)
    sim.run()

    [a_first, a_tie] = flight.flight(a.packet_id).hops
    [b_first, b_tie] = flight.flight(b.packet_id).hops
    assert a_first.wait_ns > 0 and b_first.wait_ns == 0
    assert b_first.enqueue_ns < a_first.grant_ns  # b was granted first...
    assert a_tie.link == b_tie.link == "link((1,0,0)->y+)"
    assert a_tie.enqueue_ns == b_tie.enqueue_ns == a_arrival
    assert a_tie.grant_ns == a_arrival  # ...but a is served first
    assert b_tie.grant_ns == a_tie.release_ns


def test_degraded_bandwidth_hold_is_what_observers_see():
    """A 4x bandwidth degradation stretches the hold of a 256 B write to
    four serializations, and the flight and congestion recorders report
    that hold, not the fault-free serialization time."""
    sim = Simulator()
    flight = FlightRecorder()
    congestion = CongestionRecorder()
    plan = FaultPlan(degradations=(Degradation(bandwidth_factor=4.0),))
    with use_flight(flight), use_congestion(congestion), \
            use_faults(FaultSession(plan)):
        m = build_machine(sim, 2, 1, 1)
    run_exchange(sim, m.node((0, 0, 0)).slice(0), m.node((1, 0, 0)).slice(0),
                 payload_bytes=256)
    [link] = [ln for ln in m.network.links() if ln.packets_carried]
    # The degraded tail streams on after the head is delivered; no event
    # marks its end, so advance the clock to it.
    assert sim.now < link.free_at
    sim.run(until=link.free_at)
    [f] = flight.packets()
    [hop] = f.hops
    hold = 4.0 * (32 + 256) * 8.0 / 36.8
    assert link.busy_ns == pytest.approx(hold)
    assert hop.release_ns - hop.grant_ns == link.busy_ns
    assert flight.link_busy_ns(hop.link) == link.busy_ns
    assert congestion.occupied_ns[hop.link] == link.busy_ns


def test_recorders_sample_every_grant_of_a_contended_incast():
    """Grant-side depth samples are taken once every earlier arrival is
    known; after the run both recorders hold the same drained series."""
    from repro.runner.result import Captures, run_experiment
    from repro.runner.spec import ExperimentSpec

    spec = ExperimentSpec("congestion", shape=(3, 3, 3), rounds=1)
    result = run_experiment(spec, Captures(flight=True, congestion=True))
    flight, congestion = result.flight, result.congestion
    series = {k: v for k, v in flight.queue_depth_series.items() if v}
    assert series
    assert {k: [(t, float(d)) for t, d in v] for k, v in series.items()} == {
        k: s.samples() for k, s in congestion.depth_series.items()
    }
    for name, samples in series.items():
        times = [t for t, _ in samples]
        assert times == sorted(times)
        assert samples[-1][1] == 0
        waited = sum(1 for f in flight.packets() for h in f.hops
                     if h.link == name and h.wait_ns > 0)
        assert len(samples) == 2 * waited
        assert max(d for _, d in samples) == congestion.peak_depth[name]
