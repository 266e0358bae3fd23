"""Continuous health monitoring: the always-on half of observability.

The flight recorder and critical-path analyzer (PRs 1–2) are post-hoc
instruments — they explain a run after it ends.  This package is the
other half a production-scale system needs: bounded-overhead,
always-on monitoring *during* the run, the layer a training/inference
stack calls "metrics + alerting" and QCDOC-class machines built into
hardware as a diagnostic network (Boyle et al., hep-lat/0110124):

* :class:`~repro.monitor.series.RingSeries` — fixed-capacity ring
  buffers with an explicit dropped-sample counter;
* :class:`~repro.monitor.sampler.TimeSeriesSampler` — snapshots
  per-link busy time and queue depth, FIFO depths, in-flight packet
  count and event-loop stats at a configurable sim-ns interval;
* :mod:`~repro.monitor.watchdog` — invariant watchdogs (packet
  conservation, sync-counter consistency, FIFO depth bounds, a
  stall/starvation detector) emitting structured leveled JSONL
  diagnostics;
* :class:`~repro.monitor.health.HealthMonitor` — wires sampler and
  watchdogs to a machine through the simulator's monitor hook and
  produces a :class:`~repro.monitor.watchdog.HealthVerdict`;
* :mod:`~repro.monitor.report` — a self-contained HTML report
  (utilization heatmap, time-series charts, sketch-vs-exact table,
  health verdict) and a Prometheus-style text exposition.

Monitoring is attached ambiently (:func:`use_monitoring`): any machine
built while a :class:`MonitorSession` is active gets a monitor, which
installs itself in its simulator's one monitor-hook slot
(:meth:`~repro.engine.simulator.Simulator.set_monitor_hook`).  A
monitored run is ``with use_monitoring(...) as session:
run_experiment(spec, Captures(...))`` followed by
``session.finalize()`` — what ``python -m repro monitor`` and
``report`` do before rendering with :func:`render_html_report` /
:func:`render_prometheus`.  Every observer is passive — a monitored
run is bit-identical to an unmonitored one (enforced by
``tests/properties/test_monitor_determinism.py``).
"""

from repro.monitor.series import RingSeries
from repro.monitor.sampler import TimeSeriesSampler
from repro.monitor.watchdog import (
    CheckResult,
    Diagnostic,
    DiagnosticLog,
    HealthVerdict,
)
from repro.monitor.health import (
    HealthMonitor,
    MonitorSession,
    active_monitor_session,
    use_monitoring,
)
from repro.monitor.report import render_html_report, render_prometheus

__all__ = [
    "CheckResult",
    "Diagnostic",
    "DiagnosticLog",
    "HealthMonitor",
    "HealthVerdict",
    "MonitorSession",
    "RingSeries",
    "TimeSeriesSampler",
    "active_monitor_session",
    "render_html_report",
    "render_prometheus",
    "use_monitoring",
]
