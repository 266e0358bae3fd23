"""Property-based tests for the end-to-end latency model.

Every check here is an idle-machine oracle: the simulated time must
equal a closed-form sum of the calibrated Fig. 5/6 segments, computed
from the constants alone, on torus shapes drawn by hypothesis
(including 1- and 2-wide and odd dimensions).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asic import build_machine
from repro.constants import (
    DST_RING_NS,
    HEADER_BYTES,
    HOP_NS,
    INLINE_PAYLOAD_BYTES,
    LINK_COST_NS,
    MULTICAST_LOOKUP_NS,
    POLL_SUCCESS_NS,
    SLICE_SEND_NS,
    SRC_RING_NS,
    THROUGH_RING_NS,
    TORUS_LINK_EFFECTIVE_GBPS,
    ZERO_HOP_NS,
)
from repro.engine import Simulator
from repro.network.multicast import compile_pattern
from repro.network.packet import Packet
from tests.conftest import idle_network, ring_hops, run_exchange, shape_and_nodes

payloads = st.integers(0, 256)


def one_way(shape, dst, payload=0):
    sim = Simulator()
    m = build_machine(sim, *shape)
    src = m.node((0, 0, 0)).slice(0)
    rcv = m.node(dst).slice(1 if tuple(dst) == (0, 0, 0) else 0)
    return run_exchange(sim, src, rcv, payload_bytes=payload)


def payload_extra_ns(payload: int) -> float:
    """Head latency a non-inline payload adds at the first link: its
    serialization beyond the header (whose wire time the link adapters
    already cover)."""
    if payload <= INLINE_PAYLOAD_BYTES:
        return 0.0
    bits = 8.0 / TORUS_LINK_EFFECTIVE_GBPS
    return (HEADER_BYTES + payload) * bits - HEADER_BYTES * bits


@given(shape_and_nodes(1), payloads)
@settings(max_examples=40, deadline=None)
def test_latency_is_exactly_additive_in_hops(case, payload):
    """An uncontended write's latency equals the closed-form sum of the
    calibrated segments, for every destination on every shape."""
    shape, [dst] = case
    t = one_way(shape, dst, payload)
    hops = ring_hops(shape, (0, 0, 0), dst)
    total_hops = sum(hops.values())
    if total_hops == 0:
        expected = ZERO_HOP_NS
    else:
        # Endpoint overheads + the first link (no transit-ring cost)
        # + full marginal cost for every remaining hop, per dimension
        # (dimension-ordered routing: the first hop is in the first
        # dimension with a nonzero displacement).
        first = next(d for d in "xyz" if hops[d])
        expected = SLICE_SEND_NS + SRC_RING_NS + DST_RING_NS + POLL_SUCCESS_NS
        expected += LINK_COST_NS[first]
        for d in "xyz":
            marginal = hops[d] - (1 if d == first else 0)
            expected += marginal * HOP_NS[d]
    if payload <= INLINE_PAYLOAD_BYTES or total_hops == 0:
        # Only whole-ns segments: the float sum is exact.
        assert t == expected
    else:
        assert t == pytest.approx(expected + payload_extra_ns(payload),
                                  rel=0, abs=1e-9)


@given(shape_and_nodes(1), payloads)
@settings(max_examples=25, deadline=None)
def test_payload_latency_monotone_and_bounded(case, payload):
    """Bigger payloads never arrive sooner, and the payload penalty is
    bounded by its serialization time."""
    shape, [dst] = case
    t0 = one_way(shape, dst, 0)
    tp = one_way(shape, dst, payload)
    assert tp >= t0
    max_penalty = (payload + HEADER_BYTES) * 8.0 / TORUS_LINK_EFFECTIVE_GBPS
    assert tp - t0 <= max_penalty + 1e-9


def multicast_arrival_ns(shape, src, dst, payload) -> float:
    """Closed-form network time from injection to a delivery at ``dst``
    on an idle machine: the source ring, then per tree edge a link plus
    the next node's table lookup (the first link also carries the
    payload's serialization, every later one the transit ring), then
    the destination ring.  A delivery at the source itself costs only
    the source ring."""
    hops = ring_hops(shape, src, dst)
    if not sum(hops.values()):
        return SRC_RING_NS
    first = next(d for d in "xyz" if hops[d])
    t = SRC_RING_NS + DST_RING_NS + payload_extra_ns(payload)
    for d in "xyz":
        t += hops[d] * (LINK_COST_NS[d] + MULTICAST_LOOKUP_NS)
        t += (hops[d] - (1 if d == first else 0)) * THROUGH_RING_NS[d]
    return t


@given(shape_and_nodes(1), st.data(), payloads, st.booleans())
@settings(max_examples=40, deadline=None)
def test_multicast_delivery_times_are_closed_form(case, data, payload, in_order):
    """Every delivery of one multicast on an idle machine — the leaves
    included, whose arrival is scheduled straight from the hop into
    them — lands at the closed-form sum of its branch's segments."""
    shape, [src] = case
    node = st.tuples(*(st.integers(0, n - 1) for n in shape))
    dests = data.draw(st.lists(node, min_size=1, max_size=6, unique=True))
    sim, net, clocks = idle_network(shape)
    pattern = compile_pattern(net.torus, src, {n: ["c"] for n in dests})
    net.register_pattern(pattern)
    net.inject(Packet(src_node=net.torus.coord(src), src_client="c",
                      dst_node=net.torus.coord(src), dst_client="c",
                      payload_bytes=payload, in_order=in_order,
                      pattern_id=pattern.pattern_id))
    sim.run()
    for n in dests:
        expected = multicast_arrival_ns(shape, src, n, payload)
        [t] = clocks[(n, "c")].arrivals
        if payload <= INLINE_PAYLOAD_BYTES:
            assert t == expected, (n, t, expected)
        else:
            assert t == pytest.approx(expected, rel=0, abs=1e-9), (n, t)
