"""Run a named experiment with continuous monitoring attached.

This is the machinery behind ``python -m repro monitor <experiment>``
and ``python -m repro report``: it opens a
:func:`~repro.monitor.health.use_monitoring` session (every machine the
experiment builds gets a :class:`~repro.monitor.health.HealthMonitor`),
installs a bounded :class:`~repro.trace.metrics.MetricsRegistry`
(histograms capped, falling back to streaming sketches), dispatches the
:class:`~repro.runner.spec.ExperimentSpec` through the experiment
registry, and finalizes every monitor into health verdicts.

Kept out of ``repro.monitor.__init__`` on purpose: it imports the
analysis/MD stack, which itself imports the monitored subsystems.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from typing import Optional

from repro.monitor.health import (
    DEFAULT_STALL_NS,
    HealthMonitor,
    use_monitoring,
)
from repro.monitor.report import render_html_report, render_prometheus
from repro.monitor.sampler import DEFAULT_INTERVAL_NS
from repro.monitor.watchdog import HealthVerdict
from repro.runner.result import Captures, RunResult, run_experiment
from repro.runner.spec import ExperimentSpec, experiment_names
from repro.trace.metrics import MetricsRegistry

#: Experiments the monitor CLI can drive: every registered experiment
#: marked monitorable (``mdstep`` — the paper's Fig. 13 workload — is
#: the default; the rest are the trace harnesses).
MONITOR_EXPERIMENTS = experiment_names(monitorable=True)

#: Histogram cap for always-on runs: beyond this many observations a
#: histogram falls back to its streaming sketch (1% relative error).
DEFAULT_HISTOGRAM_CAP = 4096


@dataclass
class MonitorCapture:
    """One monitored run: verdicts, series, metrics, and renderers.

    ``result`` is the unified :class:`~repro.runner.result.RunResult`
    of the underlying run; ``experiment``/``shape``/``description``
    are kept as first-class fields for the renderers.
    """

    experiment: str
    shape: tuple[int, int, int]
    description: str
    monitors: list[HealthMonitor]
    verdicts: list[HealthVerdict]
    metrics: MetricsRegistry
    result: Optional[RunResult] = None

    @property
    def monitor(self) -> HealthMonitor:
        """The run's primary monitor: the one that watched the most
        activity (sweep experiments build several machines)."""
        return max(self.monitors, key=lambda m: (m.sim.now, m.sampler.ticks))

    @property
    def verdict(self) -> HealthVerdict:
        return self.verdicts[self.monitors.index(self.monitor)]

    @property
    def healthy(self) -> bool:
        """True when every machine's verdict is free of errors."""
        return all(v.healthy for v in self.verdicts)

    def congestion_tree(self):
        """The run's backpressure congestion tree, when the flight
        recorder rode along (``None`` for untraced runs like mdstep)."""
        if self.result is None or self.result.flight is None:
            return None
        from repro.congestion.tree import build_congestion_tree
        from repro.topology.torus import Torus3D

        return build_congestion_tree(
            self.result.flight, Torus3D(*self.shape)
        )

    def html(self, title: str = "Continuous health report") -> str:
        monitor = self.monitor
        congestion = self.congestion_tree()
        series = None
        if self.result is not None and self.result.congestion is not None:
            series = self.result.congestion.depth_series
        return render_html_report(
            self.verdict,
            monitor.sampler,
            self.shape,
            registry=self.metrics,
            title=title,
            experiment=f"{self.experiment} — {self.description}",
            congestion=congestion,
            congestion_series=series,
        )

    def prometheus(self) -> str:
        return render_prometheus(
            self.verdict, self.monitor.sampler, registry=self.metrics
        )

    def write_jsonl(self, path: str) -> None:
        """Diagnostics of the primary monitor as JSONL."""
        self.monitor.log.write_jsonl(path)


def run_monitored(
    experiment: str,
    shape: tuple[int, int, int] = (4, 4, 4),
    rounds: int = 2,
    interval_ns: float = DEFAULT_INTERVAL_NS,
    series_capacity: int = 512,
    slow_every: int = 4,
    stall_ns: float = DEFAULT_STALL_NS,
    histogram_max_samples: Optional[int] = DEFAULT_HISTOGRAM_CAP,
    flight: Optional[bool] = None,
    payload: int = 0,
    seed: int = 0,
    congestion: bool = False,
) -> MonitorCapture:
    """Drive ``experiment`` with continuous monitoring attached.

    ``flight=None`` (auto) attaches a
    :class:`~repro.trace.flight.FlightRecorder` for experiments the
    registry marks traceable — it feeds the per-packet latency
    histograms the sketch-vs-exact report compares — but not for
    ``mdstep``, whose per-packet record would dwarf the run.
    ``congestion=True`` additionally attaches the congestion X-ray
    recorder, whose queue-depth timelines feed the HTML report's
    sparklines.  Monitoring itself is passive either way: simulated
    results are bit-identical with the monitor on or off.
    """
    from repro.runner.spec import get_experiment

    spec = ExperimentSpec(
        experiment=experiment,
        shape=shape,
        rounds=rounds,
        payload=payload,
        seed=seed,
    )
    defn = get_experiment(spec)
    if experiment not in MONITOR_EXPERIMENTS:
        raise ValueError(
            f"experiment {experiment!r} is not monitorable; "
            f"choose from {MONITOR_EXPERIMENTS}"
        )
    if flight is None:
        flight = defn.traceable

    metrics = MetricsRegistry(histogram_max_samples=histogram_max_samples)
    with ExitStack() as stack:
        session = stack.enter_context(
            use_monitoring(
                interval_ns=interval_ns,
                series_capacity=series_capacity,
                slow_every=slow_every,
                stall_ns=stall_ns,
                registry=metrics,
            )
        )
        result = run_experiment(
            spec,
            Captures(flight=flight, congestion=congestion, registry=metrics),
        )
    if not session.monitors:
        raise RuntimeError(
            f"experiment {experiment!r} built no machines to monitor"
        )
    verdicts = session.finalize()
    return MonitorCapture(
        experiment=experiment,
        shape=shape,
        description=result.description,
        monitors=session.monitors,
        verdicts=verdicts,
        metrics=metrics,
        result=result,
    )
