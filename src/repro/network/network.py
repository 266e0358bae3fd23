"""The packet-level torus network simulator.

Latency model (calibrated, see :mod:`repro.constants` and DESIGN.md §5):

* source on-chip ring traversal: ``SRC_RING_NS`` (19 ns);
* each link crossing: ``LINK_COST_NS[dim]`` (adapter pair + wire);
* each transit node: ``THROUGH_RING_NS[outgoing dim]``;
* destination ring traversal: ``DST_RING_NS`` (25 ns);
* non-inline payload serialization latency charged once, at the first
  link (virtual cut-through — downstream links are pipelined);
* every traversed link direction is *reserved* FCFS for the full
  serialization time (``start = max(now, free_at)``), which is how
  bandwidth contention and head-of-line blocking arise.

With the sender's 36 ns injection overhead and the receiver's 42 ns
successful counter poll (both charged by the clients), a 0-byte write
between X-neighbours costs exactly 162 ns — the paper's headline
number.

Ordering: the network does not, in general, preserve packet ordering
(§III.A).  The model exposes this with an optional per-hop reordering
jitter; packets sent with the ``in_order`` header flag are delivered in
send order between a fixed (source node, source client, destination
node) pair regardless of jitter, which is what Anton's migration
protocol relies on (§IV.B.5).

Implementation note: packet transport is written in continuation-
passing style (callbacks on the event queue) rather than as generator
processes — an MD time step moves hundreds of thousands of packets and
the per-process machinery dominated the run time of the first
implementation.  Client-side code keeps the friendlier generator API.
A hop is one queue entry: the transit reserves the link when it asks
for it and schedules its continuation once, at the absolute time
``start + latency``; there are no grant or release events.  So packets
arriving at a link in the same instant are served in the order their
previous hops were *requested*.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Iterable, Optional

from repro.constants import (
    DST_RING_NS,
    HEADER_BYTES,
    LINK_COST_NS,
    MAX_MULTICAST_PATTERNS,
    MULTICAST_LOOKUP_NS,
    SRC_RING_NS,
    THROUGH_RING_NS,
    TORUS_LINK_EFFECTIVE_GBPS,
)
from repro.engine.event import Event
from repro.engine.simulator import Simulator
from repro.faults.session import FaultSession, active_faults
from repro.network.link import LinkId, TorusLink
from repro.network.multicast import MulticastPattern
from repro.network.packet import Packet
from repro.network.probe import Probe, active_probes
from repro.topology.torus import NodeCoord, Torus3D

if TYPE_CHECKING:  # pragma: no cover
    from repro.asic.client import NetworkClient

#: Serialization time of a bare header; its wire time is overlapped with
#: the link-adapter latency, so only payload beyond the header adds
#: head latency.
_HEADER_SER_NS = HEADER_BYTES * 8.0 / TORUS_LINK_EFFECTIVE_GBPS


class Network:
    """A torus network with attached clients.

    Parameters
    ----------
    sim:
        The simulation engine.
    torus:
        Machine topology.
    reorder_jitter_ns:
        When positive, each hop of a packet *without* the in-order flag
        receives a uniform extra delay in ``[0, reorder_jitter_ns)``,
        modelling adaptive-routing reordering.  Zero (the default)
        keeps the network deterministic and calibrated.
    seed:
        Seed for the jitter RNG (jitter is still reproducible).
    faults:
        Optional :class:`~repro.faults.session.FaultSession`; defaults
        to the ambient one (see :mod:`repro.faults`).
    probes:
        Passive observers (:class:`~repro.network.probe.Probe`: the
        flight recorder, the congestion X-ray) whose hooks see every
        injection, hop and delivery.  Defaults to the ambient probes
        (:func:`~repro.network.probe.active_probes`), which are none
        unless telemetry was switched on; each hook site tests the
        tuple once.
    """

    def __init__(
        self,
        sim: Simulator,
        torus: Torus3D,
        reorder_jitter_ns: float = 0.0,
        seed: int = 0,
        faults: "FaultSession | None" = None,
        probes: "Iterable[Probe] | None" = None,
    ) -> None:
        self.sim = sim
        self.torus = torus
        self.probes: tuple[Probe, ...] = (
            tuple(probes) if probes is not None else active_probes()
        )
        #: Fault-injection session (see :mod:`repro.faults`); defaults
        #: to the ambient session, which is ``None`` — and a disabled
        #: session is never consulted — so fault-free runs take the
        #: exact historical code path.
        self.faults = faults if faults is not None else active_faults()
        if self.faults is not None and not self.faults.enabled:
            self.faults = None
        self.reorder_jitter_ns = reorder_jitter_ns
        self._rng = random.Random(seed)
        self._links: dict[tuple, TorusLink] = {}
        self._clients: dict[tuple[NodeCoord, str], "NetworkClient"] = {}
        self._patterns: dict[int, MulticastPattern] = {}
        self._next_pattern_id = 0
        self._per_node_patterns: dict[NodeCoord, int] = {}
        self._inorder_tail: dict[tuple[NodeCoord, str, NodeCoord], Event] = {}
        # statistics
        self.packets_injected = 0
        self.packets_delivered = 0
        self.link_traversals = 0
        #: Packets whose every delivery has landed (all branches, for
        #: multicast).  ``packets_injected - packets_completed`` is the
        #: in-flight count the health watchdogs conserve against.
        self.packets_completed = 0
        #: Client deliveries owed by every injected packet (1 per
        #: unicast, one per reached client for multicast); at
        #: quiescence this must equal ``packets_delivered`` plus
        #: ``deliveries_lost`` exactly.
        self.deliveries_expected = 0
        #: Packets dropped by the fault session's ``on_exhaust="drop"``
        #: escalation (a dropped packet still counts as *completed* so
        #: the in-flight conservation invariant closes); always 0
        #: without fault injection.
        self.packets_lost = 0
        #: Client deliveries those dropped packets owed (> 1 per packet
        #: for multicast subtrees cut off by the drop).
        self.deliveries_lost = 0

    @property
    def packets_in_flight(self) -> int:
        """Packets injected but not yet fully delivered."""
        return self.packets_injected - self.packets_completed

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, client: "NetworkClient") -> None:
        """Register a client at (node, name); names are per-node unique."""
        key = (client.node, client.name)
        if key in self._clients:
            raise ValueError(f"client {client.name!r} already attached at {client.node}")
        self._clients[key] = client

    def client(self, node: "NodeCoord | int", name: str) -> "NetworkClient":
        """Look up an attached client."""
        key = (self.torus.coord(node), name)
        try:
            return self._clients[key]
        except KeyError:
            raise KeyError(f"no client {name!r} at node {key[0]}") from None

    def link(self, node: "NodeCoord | int", dim: str, sign: int) -> TorusLink:
        """The link direction leaving ``node`` along ``dim``/``sign``
        (created on first use; keyed by plain tuple — hot path)."""
        key = (node, dim, sign)
        link = self._links.get(key)
        if link is None:
            coord = self.torus.coord(node)
            key = (coord, dim, sign)
            link = self._links.get(key)
            if link is None:
                link = TorusLink(self.sim, LinkId(coord, dim, sign))
                self._links[key] = link
        return link

    def links(self):
        """All link directions that have carried traffic."""
        return iter(self._links.values())

    # ------------------------------------------------------------------
    # multicast table programming
    # ------------------------------------------------------------------
    def register_pattern(self, pattern: MulticastPattern) -> int:
        """Program a compiled pattern into the per-node tables.

        Raises
        ------
        RuntimeError
            If any touched node would exceed the hardware limit of 256
            patterns (§III.A).
        """
        for node in pattern.entries:
            if self._per_node_patterns.get(node, 0) >= MAX_MULTICAST_PATTERNS:
                raise RuntimeError(
                    f"node {node} exceeds {MAX_MULTICAST_PATTERNS} multicast patterns"
                )
        for node in pattern.entries:
            self._per_node_patterns[node] = self._per_node_patterns.get(node, 0) + 1
        pattern_id = self._next_pattern_id
        self._next_pattern_id += 1
        pattern.pattern_id = pattern_id
        self._patterns[pattern_id] = pattern
        return pattern_id

    def pattern(self, pattern_id: int) -> MulticastPattern:
        return self._patterns[pattern_id]

    # ------------------------------------------------------------------
    # packet injection
    # ------------------------------------------------------------------
    def inject(self, packet: Packet) -> Event:
        """Inject a packet at its source node's ring.

        The caller (a client) is responsible for charging its own send
        overhead (e.g. ``SLICE_SEND_NS``) before calling.  Returns an
        event that fires when the packet has been delivered to every
        destination client (all of them, for multicast).
        """
        self.packets_injected += 1
        probes = self.probes
        if probes:
            now = self.sim.now
            for probe in probes:
                probe.packet_injected(packet, now)
        done = Event(self.sim, name="delivered")
        if packet.is_multicast:
            _McastTransit(self, packet, done)
        else:
            _UcastTransit(self, packet, done)
        return done

    # -- shared helpers -----------------------------------------------------
    def _inorder_gate(
        self, packet: Packet, dst: NodeCoord
    ) -> tuple[Optional[Event], Optional[Event]]:
        """FIFO chaining for the per-pair in-order delivery guarantee.

        Returns ``(prev, mine)``: delivery must wait for ``prev`` (the
        previous in-order packet of this pair) and succeed ``mine``
        once delivered.  Gate creation order equals arrival-processing
        order, which for in-order packets (never jittered, fixed path)
        equals send order.
        """
        if not packet.in_order:
            return None, None
        key = (packet.src_node, packet.src_client, dst)
        prev = self._inorder_tail.get(key)
        mine = Event(self.sim, name="inorder")
        self._inorder_tail[key] = mine
        return prev, mine

    def _reserve_hop(
        self, packet: Packet, node: NodeCoord, dim: str, sign: int
    ) -> tuple[float, float, bool]:
        """Reserve the link leaving ``node`` for one hop of ``packet``,
        asked for now.

        Returns ``(start, extra_ns, lost)``: the grant time, the fault
        session's extra head latency, and whether the packet was dropped
        on this hop.  Observers see the enqueue (only if the link is
        busy), then the grant with its real hold, then any retries.
        """
        link = self.link(node, dim, sign)
        now = self.sim.now
        probes = self.probes
        if probes and now < link.free_at:
            for probe in probes:
                probe.hop_enqueued(packet, link, now)
        fa = self.faults
        if fa is None:
            out = None
            hold = packet.serialization_ns
        else:
            # Judged at the grant time; the per-link RNG draws in FCFS order.
            out = fa.transmit(packet, link, dim, sign, max(now, link.free_at))
            hold = out.hold_ns
        start = link.reserve(now, hold)
        link.record(packet.wire_bytes)
        self.link_traversals += 1
        if probes:
            for probe in probes:
                probe.hop_granted(packet, link, start, hold)
                if out is not None and out.retries:
                    probe.hop_fault(packet, link, out.retry_ns, out.retries)
        if out is None:
            return start, 0.0, False
        return start, out.extra_ns, out.lost

    def _jitter(self, packet: Packet) -> float:
        if self.reorder_jitter_ns > 0.0 and not packet.in_order:
            return self._rng.uniform(0.0, self.reorder_jitter_ns)
        return 0.0

    def _deliver(self, packet: Packet, node: NodeCoord, client_name: str) -> None:
        client = self._clients.get((node, client_name))
        if client is None:
            raise KeyError(
                f"packet {packet!r} addressed to missing client "
                f"{client_name!r} at {node}"
            )
        self.packets_delivered += 1
        probes = self.probes
        if probes:
            now = self.sim.now
            for probe in probes:
                probe.packet_delivered(packet, node, client_name, now)
        client.receive(packet)


class _UcastTransit:
    """Continuation-passing unicast transport of one packet."""

    __slots__ = ("net", "packet", "done", "route", "idx", "cur",
                 "payload_extra", "order_prev", "order_mine")

    def __init__(self, net: Network, packet: Packet, done: Event) -> None:
        self.net = net
        self.packet = packet
        self.done = done
        torus = net.torus
        src = packet.src_node
        dst = packet.dst_node
        self.route = torus.route(src, dst) if src != dst else []
        self.idx = 0
        self.cur = src
        self.payload_extra = max(0.0, packet.serialization_ns - _HEADER_SER_NS)
        self.order_prev, self.order_mine = net._inorder_gate(packet, dst)
        net.deliveries_expected += 1
        net.sim.schedule(SRC_RING_NS, self._next_hop)

    def _next_hop(self) -> None:
        net = self.net
        if self.idx >= len(self.route):
            delay = DST_RING_NS if self.route else 0.0
            net.sim.schedule(delay, self._arrive)
            return
        hop = self.route[self.idx]
        fa = net.faults
        if fa is not None:
            until = fa.transit_blocked_until(
                self.cur, hop.dim, hop.sign, net.sim.now
            )
            if until > net.sim.now:
                # Link down or node stalled: re-arm at the window's end
                # (re-checked there — windows may be back to back).
                net.sim.schedule(until - net.sim.now, self._next_hop)
                return
        start, fault_extra, lost = net._reserve_hop(
            self.packet, self.cur, hop.dim, hop.sign
        )
        if lost:
            net.sim.schedule_at(start, self._lost)
            return
        latency = LINK_COST_NS[hop.dim]
        if self.idx == 0:
            latency += self.payload_extra
        else:
            latency += THROUGH_RING_NS[hop.dim]
        latency += fault_extra
        latency += net._jitter(self.packet)
        self.cur = net.torus.neighbor(self.cur, hop.dim, hop.sign)
        self.idx += 1
        net.sim.schedule_at(start + latency, self._next_hop)

    def _lost(self) -> None:
        """Drop escalation: account the loss loudly and complete the
        packet so the in-flight conservation invariant still closes."""
        net = self.net
        net.packets_lost += 1
        net.deliveries_lost += 1
        net.packets_completed += 1
        net.faults.record_lost(self.packet, 1)
        # The in-order chain must not observe the drop out of order: our
        # gate opens only once every predecessor's gate has opened.
        mine = self.order_mine
        if mine is not None and not mine.triggered:
            prev = self.order_prev
            if prev is not None and not prev.triggered:
                prev.add_callback(lambda _ev: mine.succeed(net.sim.now))
            else:
                mine.succeed(net.sim.now)
        self.done.succeed(net.sim.now)

    def _arrive(self) -> None:
        if self.order_prev is not None and not self.order_prev.triggered:
            self.order_prev.add_callback(lambda _ev: self._finish())
        else:
            self._finish()

    def _finish(self) -> None:
        net = self.net
        net._deliver(self.packet, self.packet.dst_node, self.packet.dst_client)
        if self.order_mine is not None and not self.order_mine.triggered:
            self.order_mine.succeed(net.sim.now)
        net.packets_completed += 1
        self.done.succeed(net.sim.now)


class _McastTransit:
    """Continuation-passing multicast transport of one packet.

    Walks the compiled tree, delivering to local clients and forwarding
    along outgoing links; ``done`` fires when the last delivery lands.
    """

    __slots__ = ("net", "packet", "done", "pattern", "payload_extra", "outstanding")

    def __init__(self, net: Network, packet: Packet, done: Event) -> None:
        self.net = net
        self.packet = packet
        self.done = done
        pattern = net._patterns.get(packet.pattern_id)  # type: ignore[arg-type]
        if pattern is None:
            raise KeyError(f"multicast pattern {packet.pattern_id} not registered")
        if pattern.source != packet.src_node:
            raise ValueError(
                f"pattern {packet.pattern_id} was compiled for source "
                f"{pattern.source}, injected at {packet.src_node}"
            )
        self.pattern = pattern
        self.payload_extra = max(0.0, packet.serialization_ns - _HEADER_SER_NS)
        self.outstanding = sum(
            len(e.local_clients) for e in pattern.entries.values()
        )
        if self.outstanding == 0:
            raise ValueError(f"pattern {packet.pattern_id} delivers to no client")
        net.deliveries_expected += self.outstanding
        net.sim.schedule(SRC_RING_NS, self._visit, packet.src_node, True)

    def _visit(self, node: NodeCoord, first_link: bool) -> None:
        net = self.net
        fa = net.faults
        if fa is not None:
            until = fa.stall_until(node, net.sim.now)
            if until > net.sim.now:
                # Stalled node: the whole visit (local deliveries and
                # forwarding) waits out the window.
                net.sim.schedule(until - net.sim.now, self._visit,
                                 node, first_link)
                return
        entry = self.pattern.entries[node]
        packet = self.packet
        # Local deliveries go out in client order; for in-order packets
        # each one takes its gate in that same order.
        delay = DST_RING_NS if node != packet.src_node else 0.0
        schedule = net.sim.schedule
        if packet.in_order:
            for client_name in entry.local_clients:
                order_prev, order_mine = net._inorder_gate(packet, node)
                schedule(delay, self._deliver_local,
                         node, client_name, order_prev, order_mine)
        else:
            for client_name in entry.local_clients:
                schedule(delay, self._finish_local, node, client_name, None)
        for dim, sign in entry.forward:
            self._forward(node, dim, sign, first_link)

    def _forward(self, node: NodeCoord, dim: str, sign: int,
                 first_link: bool) -> None:
        net = self.net
        fa = net.faults
        if fa is not None:
            until = fa.down_until(dim, sign, net.sim.now)
            if until > net.sim.now:
                net.sim.schedule(until - net.sim.now, self._forward,
                                 node, dim, sign, first_link)
                return
        start, fault_extra, lost = net._reserve_hop(self.packet, node, dim, sign)
        nxt = net.torus.neighbor(node, dim, sign)
        if lost:
            net.sim.schedule_at(start, self._lost_branch, nxt)
            return
        latency = LINK_COST_NS[dim] + MULTICAST_LOOKUP_NS
        if first_link:
            latency += self.payload_extra
        else:
            latency += THROUGH_RING_NS[dim]
        latency += fault_extra
        latency += net._jitter(self.packet)
        net.sim.schedule_at(start + latency, self._visit, nxt, False)

    def _deliver_local(
        self,
        node: NodeCoord,
        client_name: str,
        order_prev: Optional[Event],
        order_mine: Optional[Event],
    ) -> None:
        if order_prev is not None and not order_prev.triggered:
            order_prev.add_callback(
                lambda _ev: self._finish_local(node, client_name, order_mine)
            )
        else:
            self._finish_local(node, client_name, order_mine)

    def _finish_local(
        self, node: NodeCoord, client_name: str, order_mine: Optional[Event]
    ) -> None:
        net = self.net
        net._deliver(self.packet, node, client_name)
        if order_mine is not None and not order_mine.triggered:
            order_mine.succeed(net.sim.now)
        self.outstanding -= 1
        if self.outstanding == 0:
            net.packets_completed += 1
            self.done.succeed(net.sim.now)

    def _lost_branch(self, root: NodeCoord) -> None:
        """Drop escalation on one multicast branch: every delivery in
        the unreached subtree is accounted as lost; the packet still
        completes once every other branch lands."""
        net = self.net
        lost = 0
        frontier = [root]
        while frontier:
            node = frontier.pop()
            entry = self.pattern.entries[node]
            lost += len(entry.local_clients)
            for dim, sign in entry.forward:
                frontier.append(net.torus.neighbor(node, dim, sign))
        net.packets_lost += 1
        net.deliveries_lost += lost
        net.faults.record_lost(self.packet, lost)
        self.outstanding -= lost
        if self.outstanding == 0:
            net.packets_completed += 1
            self.done.succeed(net.sim.now)
