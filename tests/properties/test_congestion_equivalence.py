"""Property-based test: the congestion X-ray is a passive observer.

The congestion recorder samples queue depth and occupancy into ring
buffers but schedules nothing, consumes no scheduling sequence
numbers, and reads no state the transport did not already touch — so a
congestion-instrumented run and a bare run of the same experiment must
agree on *every* simulated observable, exactly.  One level up,
``run_experiment(Captures(congestion=True))`` must leave serialized result bytes
untouched.  And whenever instrumentation is on, the per-packet delay
decomposition must tile each delivery's end-to-end latency exactly —
segment sums equal the flight recorder's measured latency with an
explicit UNATTRIBUTED residual, not approximately.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asic import build_machine
from repro.bench.results import canonical_json
from repro.comm.collectives import AllReduce
from repro.congestion.decompose import DelayBucket, decompose_run
from repro.congestion.recorder import CongestionRecorder
from repro.engine import Simulator
from repro.network.probe import use_probes
from repro.runner.result import Captures, run_experiment
from repro.runner.spec import ExperimentSpec, ensure_registered
from repro.topology.torus import Torus3D
from tests.conftest import run_exchange

ensure_registered()


def _fingerprint(sim, machine):
    net = machine.network
    return (
        sim.now,
        sim.events_executed,
        net.packets_injected,
        net.packets_delivered,
        net.packets_completed,
        net.link_traversals,
    )


coords = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))


@given(coords, st.integers(0, 128))
@settings(max_examples=20, deadline=None)
def test_instrumented_exchange_bit_identical(dst, payload):
    """One-way exchange: congestion recording changes nothing
    observable."""
    results = []
    for instrumented in (False, True):
        if instrumented:
            with use_probes(CongestionRecorder()) as (recorder,):
                sim = Simulator()
                machine = build_machine(sim, 3, 3, 3)
                src = machine.node((0, 0, 0)).slice(0)
                rcv = machine.node(dst).slice(1 if dst == (0, 0, 0) else 0)
                elapsed = run_exchange(sim, src, rcv, payload_bytes=payload)
            assert machine.network.probes == (recorder,)
        else:
            sim = Simulator()
            machine = build_machine(sim, 3, 3, 3)
            src = machine.node((0, 0, 0)).slice(0)
            rcv = machine.node(dst).slice(1 if dst == (0, 0, 0) else 0)
            elapsed = run_exchange(sim, src, rcv, payload_bytes=payload)
        results.append((elapsed, _fingerprint(sim, machine)))
    assert results[0] == results[1]


@given(st.sampled_from([(2, 2, 2), (3, 2, 2), (4, 2, 2)]),
       st.integers(0, 256))
@settings(max_examples=10, deadline=None)
def test_instrumented_allreduce_bit_identical(shape, payload_bytes):
    """A full collective stays bit-identical through the ambient
    ``use_probes()`` entry point (the network picks the recorder up at
    construction)."""
    results = []
    for instrumented in (False, True):
        if instrumented:
            with use_probes(CongestionRecorder()) as (recorder,):
                sim = Simulator()
                machine = build_machine(sim, *shape)
                report = AllReduce(machine, payload_bytes=payload_bytes).run()
            # The reduce phase funnels writes, so something queued.
            assert recorder.grants or not recorder.wait_ns
        else:
            sim = Simulator()
            machine = build_machine(sim, *shape)
            report = AllReduce(machine, payload_bytes=payload_bytes).run()
        results.append((report.elapsed_ns, _fingerprint(sim, machine)))
    assert results[0] == results[1]


@given(st.integers(1, 3), st.integers(0, 128), st.integers(0, 5))
@settings(max_examples=10, deadline=None)
def test_run_result_bytes_identical_with_congestion(hops, payload, seed):
    """The serializable core of a RunResult — what caches, checkpoints,
    and result sets persist — is byte-for-byte the same whether or not
    the congestion X-ray rode along."""
    spec = ExperimentSpec(
        "latency", shape=(3, 3, 3), rounds=1,
        hops=hops, payload=payload, seed=seed,
    )
    bare = run_experiment(spec)
    instrumented = run_experiment(spec, Captures(congestion=True))
    assert instrumented.congestion is not None
    assert instrumented.congestion.grants, "recorder saw no traffic"
    assert canonical_json(bare.to_dict()) == canonical_json(
        instrumented.to_dict()
    )


@given(
    st.sampled_from([(2, 2, 2), (3, 3, 3), (4, 2, 2)]),
    st.integers(0, 256),
    st.integers(2, 8),
)
@settings(max_examples=15, deadline=None)
def test_decomposition_tiles_every_packet_exactly(shape, payload, fan_in):
    """For every delivered packet of a fan-in workload, the delay
    decomposition's segments sum exactly (1e-6 ns tolerance) to the
    flight recorder's measured end-to-end latency — residue lands in
    the explicit UNATTRIBUTED bucket, never silently."""
    spec = ExperimentSpec(
        "congestion", shape=shape, rounds=1, payload=payload, seed=0,
    ).with_extras(senders=fan_in)
    result = run_experiment(spec, Captures(flight=True, congestion=True))
    flight = result.flight
    decomps = decompose_run(flight, Torus3D(*shape))
    assert decomps, "incast delivered no packets"
    for d in decomps:
        d.check(tol_ns=1e-6)  # raises on any tiling violation
        measured = flight.flights[d.packet_id].latency_ns
        assert abs(sum(d.totals.values()) - measured) <= 1e-6
        # Every bucket is non-negative except the explicit residual.
        for bucket, ns in d.totals.items():
            if bucket is not DelayBucket.UNATTRIBUTED:
                assert ns >= -1e-9, (bucket, ns)
