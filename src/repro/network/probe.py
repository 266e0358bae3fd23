"""The one observer seam of the network: :class:`Probe`.

A probe watches packets cross the torus without changing what they
do.  The transport, the processing slices, the collectives and the
migration protocol call its typed hooks, passing the timestamps they
already have; a probe never schedules events, so an observed run is
simulation-identical to a bare one.  Every hook here is a no-op, and
observers (:class:`~repro.trace.flight.FlightRecorder`,
:class:`~repro.congestion.recorder.CongestionRecorder`) override the
ones they need.

A :class:`~repro.network.network.Network` holds its probes in one
``probes`` tuple, taken from the ambient :func:`active_probes` at
construction unless passed explicitly.  The tuple is empty on an
uninstrumented run, and every hook site binds it once and tests it
once (``if probes:``), so the untraced path pays one load and one
truth test per site and allocates nothing.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.link import TorusLink
    from repro.network.packet import Packet


class Probe:
    """A passive network observer; override the hooks you need."""

    def packet_injected(self, packet: "Packet", now: float) -> None:
        """The packet entered its source node's ring."""

    def hop_enqueued(self, packet: "Packet", link: "TorusLink", now: float) -> None:
        """The packet found the link busy and joined its queue."""

    def hop_granted(
        self, packet: "Packet", link: "TorusLink", start: float, hold: float
    ) -> None:
        """The packet reserved the link: it streams for ``hold`` ns from
        ``start`` (its grant time, possibly still in the future)."""

    def hop_fault(
        self, packet: "Packet", link: "TorusLink", retry_ns: float, retries: int
    ) -> None:
        """The hop just granted was retransmitted ``retries`` times,
        costing ``retry_ns`` (fault injection only)."""

    def packet_delivered(
        self, packet: "Packet", node: tuple, client: str, now: float
    ) -> None:
        """The packet reached one destination client."""

    def software_send(
        self, packet: "Packet", begin_ns: float, end_ns: float
    ) -> None:
        """The sending slice assembled the packet over
        ``[begin_ns, end_ns]``."""

    def poll_completed(
        self,
        node: tuple,
        client: str,
        counter_id: str,
        target: int,
        trigger_ns: float,
        done_ns: float,
    ) -> None:
        """A slice's local counter poll succeeded."""

    def phase_begin(self, name: str, now: float) -> None:
        """A named phase (collective round, migration) began."""

    def phase_end(self, name: str, now: float) -> None:
        """The most recent open phase with this name ended."""


# ---------------------------------------------------------------------------
# Ambient probes
# ---------------------------------------------------------------------------
#: Probes every Network constructed while they are active attaches.
#: Measurement harnesses build their machines internally; the ambient
#: tuple instruments them without threading a parameter through every
#: call signature.
_active: tuple[Probe, ...] = ()


def active_probes() -> tuple[Probe, ...]:
    """The probes new networks attach at construction time."""
    return _active


@contextmanager
def use_probes(*probes: Probe, only: bool = False) -> Iterator[tuple[Probe, ...]]:
    """Make ``probes`` ambient for the block, after the ones already
    active (an inner block adds observers, it never hides an outer
    one).  ``only=True`` makes them the *only* active probes instead —
    how a run attaches exactly the observers it asked for."""
    global _active
    prev = _active
    _active = probes if only else prev + probes
    try:
        yield probes
    finally:
        _active = prev
