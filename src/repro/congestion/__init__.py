"""Congestion X-ray: queue telemetry, delay decomposition, attribution.

Three layers over the network's head-of-line queues:

* :mod:`repro.congestion.recorder` — a zero-perturbation network
  probe that samples per-link-direction queue depth and occupancy into
  fixed-capacity ring buffers (attached with
  ``run_experiment(spec, Captures(congestion=True))``, or ambiently
  with :func:`~repro.network.probe.use_probes`);
* :mod:`repro.congestion.decompose` — per-packet queueing-delay
  decomposition that tiles each delivery's end-to-end latency exactly
  into serialization / wire / HOL wait / retry / through-node /
  endpoint segments with an explicit UNATTRIBUTED residual;
* :mod:`repro.congestion.tree` — the backpressure congestion tree
  (which upstream links feed waits into which bottleneck) and
  sustained HOL-blocking episodes.

Rendering lives in :mod:`repro.congestion.report`.
"""

from repro.congestion.recorder import CongestionRecorder, direction_label

__all__ = ["CongestionRecorder", "direction_label"]
