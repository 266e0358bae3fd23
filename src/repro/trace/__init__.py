"""Instrumentation: the simulated logic analyzer (§IV.C, Fig. 13).

The real Anton carries an on-chip diagnostic network that records ASIC
activity; the paper's Table 3 and Fig. 13 come from it.  This package
is the model's equivalent — a full telemetry layer:

* :class:`~repro.trace.recorder.ActivityRecorder` collects per-unit
  activity intervals (compute, stall/wait, send, receive) and per-link
  occupancy;
* :class:`~repro.trace.flight.FlightRecorder` is the network-side
  flight recorder: every packet's causal spans (inject → per-hop
  queue-wait → link occupancy → deliver) plus per-link queue-depth
  time series.  It is a :class:`~repro.network.probe.Probe`: a run
  asks for it with ``run_experiment(spec, Captures(flight=True))``,
  and a harness that builds its own machine attaches it ambiently
  with :func:`~repro.network.probe.use_probes`;
* :class:`~repro.trace.metrics.MetricsRegistry` names counters, gauges
  and ns-scale latency histograms with p50/p90/p99 queries, attachable
  to any :class:`~repro.engine.simulator.Simulator` or installed
  ambiently with :func:`~repro.trace.metrics.use_registry`;
* :mod:`repro.trace.export` turns a recorded run into
  Chrome/Perfetto ``trace_event`` JSON (open it in `ui.perfetto.dev`),
  JSONL, or a text summary — deterministically, so traces diff cleanly
  across runs;
* :mod:`repro.trace.stats` derives the critical-path communication
  accounting of Table 3, and :mod:`repro.trace.timeline` renders the
  Fig. 13 style activity timeline as text/CSV.
"""

from repro.trace.recorder import Activity, ActivityKind, ActivityRecorder
from repro.trace.stats import (
    CriticalPathStats,
    communication_split,
    per_node_communication_split,
)
from repro.trace.timeline import render_timeline, timeline_csv
from repro.trace.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    active_registry,
    use_registry,
)
from repro.trace.sketch import QuantileSketch
from repro.trace.flight import (
    Delivery,
    FlightRecorder,
    HopRecord,
    PacketFlight,
    PhaseSpan,
    PollRecord,
)
from repro.trace.export import (
    chrome_trace,
    dumps_chrome_trace,
    flight_summary,
    jsonl_lines,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    "Activity",
    "ActivityKind",
    "ActivityRecorder",
    "Counter",
    "CriticalPathStats",
    "Delivery",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "HopRecord",
    "MetricsRegistry",
    "PacketFlight",
    "PhaseSpan",
    "PollRecord",
    "QuantileSketch",
    "active_registry",
    "chrome_trace",
    "communication_split",
    "dumps_chrome_trace",
    "flight_summary",
    "jsonl_lines",
    "per_node_communication_split",
    "render_timeline",
    "timeline_csv",
    "use_registry",
    "write_chrome_trace",
    "write_jsonl",
]
