"""Torus link model.

Each node connects to its six immediate neighbours via bidirectional
links; each direction of each link is an independent 50.6 Gbit/s
channel with 36.8 Gbit/s effective data bandwidth (§III.A).  A link
direction is a capacity-1 FCFS channel held for each packet's
serialization time, giving bandwidth contention and head-of-line
queueing; head latency is charged separately from the calibrated
segment constants (virtual cut-through; see DESIGN.md §5).

Because the channel is capacity-1 and FCFS, and a hop's hold time is
known when it asks for the link, a grant needs no events: it is a
*reservation*, ``start = max(now, free_at)`` and ``free_at = start +
hold`` (:meth:`TorusLink.reserve`).  Requests arrive in simulated-time
order, so the reservation order is the FCFS order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.topology.torus import NodeCoord

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.simulator import Simulator


@dataclass(frozen=True)
class LinkId:
    """Identifies one direction of one torus link.

    ``node`` is the node *injecting* into the link; ``dim``/``sign``
    give the direction of travel.  The opposite direction of the same
    physical cable is a distinct :class:`LinkId` (full duplex).
    """

    node: NodeCoord
    dim: str
    sign: int

    @property
    def direction(self) -> str:
        """The ``z+``-style direction tag (dimension and sign)."""
        return f"{self.dim}{'+' if self.sign > 0 else '-'}"

    def __repr__(self) -> str:
        return f"link({self.node}->{self.direction})"


class TorusLink:
    """One direction of one inter-node torus link, as a reservation.

    ``free_at`` is when the packet that reserved the link last has
    streamed its final bit.  Busy time is kept as merged intervals, the
    way a capacity-1 ``Resource`` would: a busy period closes only when
    a request finds the link idle (``now > free_at``), so back-to-back
    holds sum as one interval.
    """

    def __init__(self, sim: "Simulator", link_id: LinkId) -> None:
        self.sim = sim
        self.link_id = link_id
        #: End of the last reservation; the link is idle from then on.
        self.free_at = 0.0
        #: Length of every closed busy period, summed; the open one
        #: started at ``_busy_since`` (an empty one at 0 before traffic).
        self.total_busy_ns = 0.0
        self._busy_since = 0.0
        #: Start times of reservations that had to wait, pruned lazily
        #: once they are no longer in the future.
        self._starts: deque[float] = deque()
        #: Deepest head-of-line queue ever observed on this direction.
        self.peak_queue_length = 0
        self.packets_carried = 0
        self.bytes_carried = 0
        #: Link-level retransmissions charged to this direction by the
        #: fault-injection session (always 0 on a fault-free run).
        self.retransmissions = 0

    @property
    def direction(self) -> str:
        """The ``z+``-style direction tag of this link direction."""
        return self.link_id.direction

    def reserve(self, now: float, hold: float) -> float:
        """Book the link for ``hold`` ns from the first free instant at
        or after ``now``; returns that grant time."""
        free_at = self.free_at
        if now < free_at:
            starts = self._starts
            while starts and starts[0] <= now:
                starts.popleft()
            starts.append(free_at)
            if len(starts) > self.peak_queue_length:
                self.peak_queue_length = len(starts)
            self.free_at = free_at + hold
            return free_at
        if now > free_at:
            self.total_busy_ns += free_at - self._busy_since
            self._busy_since = now
        self.free_at = now + hold
        return now

    def record(self, wire_bytes: int) -> None:
        """Account one packet's traffic on this link direction."""
        self.packets_carried += 1
        self.bytes_carried += wire_bytes

    @property
    def queue_length(self) -> int:
        """Packets currently waiting for this direction (instantaneous
        depth probe for the continuous-monitoring sampler)."""
        now = self.sim.now
        starts = self._starts
        while starts and starts[0] <= now:
            starts.popleft()
        return len(starts)

    @property
    def busy_ns(self) -> float:
        """Cumulative time this direction has been streaming bits up to
        now, including any currently open busy interval.

        Monotonically non-decreasing, so the sampler can snapshot it
        into a ring-buffer series and derive per-window busy fractions
        from consecutive deltas.
        """
        return self.total_busy_ns + (
            min(self.sim.now, self.free_at) - self._busy_since
        )

    def utilization(self, elapsed_ns: float | None = None) -> float:
        """Fraction of time the channel was streaming bits.

        Returns 0.0 for a zero-length window (``elapsed_ns == 0`` or a
        query at simulated time 0) instead of dividing by zero.
        """
        horizon = elapsed_ns if elapsed_ns is not None else self.sim.now
        if horizon <= 0:
            return 0.0
        return self.busy_ns / horizon
