"""Event-budget oracle: how many queue entries one packet costs.

The transport spends an event only where the model decides something:
a link grant (one per hop) and an arrival.  The destination-ring
traversal decides nothing, so it is folded into the last hop's
schedule rather than costing an entry of its own.  These tests send a
single packet through an idle network and check
``Simulator.events_executed`` against closed forms computed from the
torus shape and the compiled pattern's table entries alone:

* a unicast of ``h >= 1`` hops costs ``h + 1`` events (one per hop plus
  the arrival); a 0-hop unicast costs 1 (the arrival);
* a multicast costs 1 (the source visit) + one per non-source node that
  still forwards + one per local delivery.  A leaf (no forwards) has
  its deliveries scheduled straight from the hop into it, so it costs
  no visit.  An in-order packet keeps every visit, because its gates
  are taken at arrival.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.multicast import compile_pattern
from repro.network.packet import Packet
from tests.conftest import idle_network, ring_hops, shape_and_nodes

CLIENTS = ("a", "b", "c")


def _neighbor(shape, node, dim, sign):
    axis = "xyz".index(dim)
    out = list(node)
    out[axis] = (out[axis] + sign) % shape[axis]
    return tuple(out)


@given(shape_and_nodes(2), st.integers(0, 256), st.booleans())
@settings(max_examples=60, deadline=None)
def test_unicast_costs_one_event_per_hop_plus_arrival(case, payload, in_order):
    shape, (src, dst) = case
    sim, net, _ = idle_network(shape, CLIENTS)
    net.inject(Packet(src_node=net.torus.coord(src), src_client="a",
                      dst_node=net.torus.coord(dst), dst_client="b",
                      payload_bytes=payload, in_order=in_order))
    sim.run()
    hops = sum(ring_hops(shape, src, dst).values())
    assert net.packets_delivered == 1
    assert sim.events_executed == (hops + 1 if hops else 1)


@given(
    shape_and_nodes(4),
    st.lists(st.lists(st.sampled_from(CLIENTS), min_size=1, max_size=3,
                      unique=True), min_size=4, max_size=4),
    st.integers(0, 256),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_multicast_costs_source_visit_interior_visits_and_deliveries(
    case, clients, payload, in_order
):
    shape, nodes = case
    src, dests = nodes[0], nodes[1:]
    sim, net, clocks = idle_network(shape, CLIENTS)
    destinations: dict = {}
    for node, names in zip(dests, clients):
        merged = destinations.setdefault(node, [])
        merged.extend(n for n in names if n not in merged)
    pattern = compile_pattern(net.torus, src, destinations)
    net.register_pattern(pattern)
    net.inject(Packet(src_node=net.torus.coord(src), src_client="a",
                      dst_node=net.torus.coord(src), dst_client="a",
                      payload_bytes=payload, in_order=in_order,
                      pattern_id=pattern.pattern_id))
    sim.run()

    # Closed form from the table entries: the tree's nodes are the
    # source plus every forward's target.
    entries = {tuple(node): entry for node, entry in pattern.entries.items()}
    targets = [
        _neighbor(shape, node, dim, sign)
        for node, entry in entries.items()
        for dim, sign in entry.forward
    ]
    assert len(set(targets)) == len(targets) and tuple(src) not in targets
    deliveries = sum(len(e.local_clients) for e in entries.values())
    if in_order:
        visits = 1 + len(targets)
    else:
        visits = 1 + sum(1 for t in targets if entries[t].forward)
    assert sum(len(c.arrivals) for c in clocks.values()) == deliveries
    assert sim.events_executed == visits + deliveries
