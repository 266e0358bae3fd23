"""Per-link-direction queue-occupancy telemetry (the congestion X-ray).

The flight recorder already captures *per-packet* causal spans; this
recorder captures the *per-link* side of the same story: an
event-driven timeline of queue depth and cumulative occupancy for every
link direction that carries traffic, recorded into the same
fixed-capacity :class:`~repro.monitor.series.RingSeries` buffers the
continuous-monitoring sampler uses — bounded memory whatever the run
length, with overwritten samples counted in ``dropped``, never lost
silently.

Like the flight recorder, this is a passive
:class:`~repro.network.probe.Probe`: a network attaches it through its
``probes`` tuple (ambiently with :func:`~repro.network.probe.use_probes`),
and a network without probes pays one truth test per hook site.  An
instrumented run is simulation-identical to a bare one (property-tested
by ``tests/properties/test_congestion_equivalence.py``).

When a :class:`~repro.trace.metrics.MetricsRegistry` is supplied the
recorder also feeds the ``congestion.*`` aggregate metrics:
``congestion.grants`` / ``congestion.waits`` counters, a
``congestion.hol_wait_ns`` histogram, and a ``congestion.queue_depth``
gauge whose high watermark is the deepest head-of-line queue seen on
any direction.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.monitor.series import RingSeries
from repro.network.probe import Probe
from repro.trace.flight import sample_grants

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.link import TorusLink
    from repro.network.packet import Packet
    from repro.trace.metrics import MetricsRegistry


def direction_label(dim: str, sign: int) -> str:
    """The six-way direction tag (``x+`` … ``z-``) used to group link
    telemetry across the machine."""
    return f"{dim}{'+' if sign > 0 else '-'}"


class _LinkStats:
    """Mutable per-link accumulator on the recorder's hot path.

    Keyed by the :class:`~repro.network.link.TorusLink` object itself
    (identity hash — no string formatting per event); the link name is
    rendered once, at first sight.
    """

    __slots__ = (
        "name", "direction", "depth", "occupancy",
        "wait_ns", "waits", "grants", "peak_depth", "occupied_ns", "due",
    )

    def __init__(self, name: str, direction: str) -> None:
        self.name = name
        self.direction = direction
        self.depth: Optional[RingSeries] = None
        self.occupancy: Optional[RingSeries] = None
        self.wait_ns = 0.0
        self.waits = 0
        self.grants = 0
        self.peak_depth = 0
        self.occupied_ns = 0.0
        #: Grant times of waited hops not sampled yet (see
        #: :func:`~repro.trace.flight.sample_grants`).
        self.due: deque[float] = deque()


class CongestionRecorder(Probe):
    """Event-driven per-link-direction congestion timelines.

    Parameters
    ----------
    series_capacity:
        Ring-buffer capacity of every per-link timeline (same default
        as the monitor sampler's series).
    metrics:
        Optional registry for the ``congestion.*`` aggregates.
    """

    def __init__(
        self,
        series_capacity: int = 512,
        metrics: "Optional[MetricsRegistry]" = None,
    ) -> None:
        self.metrics = metrics
        self.series_capacity = int(series_capacity)
        #: Per-link accumulators, keyed by the live link object.
        self._stats: "dict[TorusLink, _LinkStats]" = {}
        #: (packet_id, link) → enqueue time of an unresolved wait.
        self._pending: "dict[tuple[int, TorusLink], float]" = {}

    # ------------------------------------------------------------------
    # hooks (called by the network transport)
    # ------------------------------------------------------------------
    def _make(self, link: "TorusLink") -> _LinkStats:
        lid = link.link_id
        st = _LinkStats(repr(lid), direction_label(lid.dim, lid.sign))
        self._stats[link] = st
        return st

    def hop_enqueued(self, packet: "Packet", link: "TorusLink", now: float) -> None:
        """The packet found the link busy and joined its queue."""
        st = self._stats.get(link)
        if st is None:
            st = self._make(link)
        depth = link.queue_length + 1  # including this packet
        self._pending[(packet.packet_id, link)] = now
        series = st.depth
        if series is None:
            series = st.depth = RingSeries(
                f"{st.name}.depth", self.series_capacity
            )
        for t, waiting in sample_grants(st.due, now):
            series.append(t, float(waiting))
        series.append(now, float(depth))
        if depth > st.peak_depth:
            st.peak_depth = depth
        m = self.metrics
        if m is not None:
            m.gauge("congestion.queue_depth").set(depth)

    def hop_granted(
        self, packet: "Packet", link: "TorusLink", start: float, hold: float
    ) -> None:
        """The packet reserved the channel: it streams for ``hold`` ns
        from ``start`` (its grant time, possibly still in the future)."""
        st = self._stats.get(link)
        if st is None:
            st = self._make(link)
        m = self.metrics
        if self._pending:
            enqueue_ns = self._pending.pop((packet.packet_id, link), None)
            if enqueue_ns is not None:
                wait = start - enqueue_ns
                st.wait_ns += wait
                st.waits += 1
                # The grant drains one waiter; its depth sample waits
                # until every earlier arrival at this link is known.
                st.due.append(start)
                if m is not None:
                    m.histogram("congestion.hol_wait_ns").observe(wait)
                    m.counter("congestion.waits").inc()
        st.grants += 1
        st.occupied_ns += hold
        series = st.occupancy
        if series is None:
            series = st.occupancy = RingSeries(
                f"{st.name}.occupancy_ns", self.series_capacity
            )
        series.append(start, st.occupied_ns)
        if m is not None:
            m.counter("congestion.grants").inc()

    # ------------------------------------------------------------------
    # queries (name-keyed views over the per-link accumulators)
    # ------------------------------------------------------------------
    def _sample_due_grants(self) -> None:
        for link, st in self._stats.items():
            for t, waiting in sample_grants(st.due, link.sim.now):
                st.depth.append(t, float(waiting))

    @property
    def depth_series(self) -> dict[str, RingSeries]:
        """Link name → queue-depth timeline (only links that queued).

        Sampled when a packet joins a link's queue and, once the
        simulation has reached it, when a waiter is granted; at equal
        times a grant sorts before an enqueue.
        """
        self._sample_due_grants()
        return {st.name: st.depth for st in self._stats.values()
                if st.depth is not None}

    @property
    def occupancy_series(self) -> dict[str, RingSeries]:
        """Link name → cumulative occupancy-ns timeline."""
        return {st.name: st.occupancy for st in self._stats.values()
                if st.occupancy is not None}

    @property
    def directions(self) -> dict[str, str]:
        """Link name → direction tag ("z+" …)."""
        return {st.name: st.direction for st in self._stats.values()}

    @property
    def wait_ns(self) -> dict[str, float]:
        return {st.name: st.wait_ns for st in self._stats.values()
                if st.waits}

    @property
    def waits(self) -> dict[str, int]:
        return {st.name: st.waits for st in self._stats.values()
                if st.waits}

    @property
    def grants(self) -> dict[str, int]:
        return {st.name: st.grants for st in self._stats.values()
                if st.grants}

    @property
    def peak_depth(self) -> dict[str, int]:
        return {st.name: st.peak_depth for st in self._stats.values()
                if st.peak_depth}

    @property
    def occupied_ns(self) -> dict[str, float]:
        return {st.name: st.occupied_ns for st in self._stats.values()
                if st.grants}

    def links(self) -> list[str]:
        """All link directions that saw a grant or a wait, sorted."""
        return sorted(st.name for st in self._stats.values())

    def direction(self, link: str) -> str:
        return self.directions[link]

    def total_wait_ns(self) -> float:
        return sum(st.wait_ns for st in self._stats.values())

    def total_dropped(self) -> int:
        """Ring-buffer samples overwritten across every timeline."""
        self._sample_due_grants()
        return sum(
            s.dropped
            for st in self._stats.values()
            for s in (st.depth, st.occupancy)
            if s is not None
        )

    def max_peak_depth(self) -> int:
        return max(
            (st.peak_depth for st in self._stats.values()), default=0
        )

    def clear(self) -> None:
        self._stats.clear()
        self._pending.clear()

    def __len__(self) -> int:
        return len(self._stats)
