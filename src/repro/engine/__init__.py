"""Discrete-event simulation engine.

A minimal, deterministic, generator-based discrete-event simulator in the
style of SimPy, specialised for the needs of the Anton communication
model: nanosecond-resolution simulated time, FCFS resources for links and
cores, and one-shot events used to model packet arrival and
synchronization-counter thresholds.

Design notes
------------
* Simulated time is a float in **nanoseconds**.  There is one event
  queue, a binary heap of ``(time, seq)``-ordered entries owned by the
  :class:`Simulator`.  Time ties are broken by a monotonically
  increasing sequence number, so same-instant events run in schedule
  order and repeated runs produce identical traces.
* Processes are plain Python generators that ``yield`` waitables
  (:class:`Event`, :class:`Timeout`, another :class:`Process`, or an
  :class:`AllOf` / :class:`AnyOf` combinator).  This keeps the hot loop
  free of threads and allocation-heavy machinery (see the profiling
  guidance in the scientific-python optimization notes: make it work,
  make it deterministic, then make it fast).
* :class:`Resource` provides FCFS mutual exclusion with optional
  capacity, used for torus links, processing-slice occupancy, and HTIS
  pipelines.
"""

from repro.engine.event import AllOf, AnyOf, Event, Interrupt, Timeout
from repro.engine.process import Process
from repro.engine.resource import Resource, Store
from repro.engine.simulator import (
    EventHistory,
    Simulator,
    add_new_sim_hook,
    remove_new_sim_hook,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "EventHistory",
    "Interrupt",
    "Process",
    "Resource",
    "Simulator",
    "Store",
    "Timeout",
    "add_new_sim_hook",
    "remove_new_sim_hook",
]
