"""Telemetry overhead — tracing must be free when off, cheap when on.

Runs the Fig. 5 latency sweep three ways: untraced (no network probes,
the default), with flight recording attached, and with flight
recording feeding a metrics registry.  Asserts that telemetry never
perturbs the simulated results, and reports the wall-clock cost of
each mode so a regression in the disabled path (which every ordinary
run pays) is visible in the published table.
"""

import time

from conftest import once

from repro.analysis import latency_vs_hops, render_table
from repro.network.probe import use_probes
from repro.trace.flight import FlightRecorder
from repro.trace.metrics import MetricsRegistry


def _timed_sweep(mode: str):
    """One Fig. 5 sweep on a 4x4x4 machine; returns (seconds, points)."""
    shape = (4, 4, 4)
    start = time.perf_counter()
    if mode == "untraced":
        points = latency_vs_hops(shape=shape)
        flights = 0
    else:
        metrics = MetricsRegistry() if mode == "metrics" else None
        fl = FlightRecorder(metrics=metrics)
        with use_probes(fl):
            points = latency_vs_hops(shape=shape)
        flights = len(fl)
    return time.perf_counter() - start, points, flights


def bench_trace_overhead(benchmark, publish, record):
    results = once(
        benchmark,
        lambda: {mode: _timed_sweep(mode)
                 for mode in ("untraced", "flight", "metrics")},
    )
    base_s, base_points, _ = results["untraced"]
    rows = []
    for mode, (secs, points, flights) in results.items():
        # Telemetry observes the simulation; it must never change it.
        assert [p.uni_0b for p in points] == [p.uni_0b for p in base_points]
        assert [p.uni_256b for p in points] == [p.uni_256b for p in base_points]
        rows.append([mode, f"{secs * 1e3:.1f}", f"{secs / base_s:.2f}x",
                     flights])
    publish("trace_overhead", render_table(
        "Telemetry overhead — Fig. 5 sweep (4x4x4), wall clock",
        ["mode", "ms", "vs untraced", "packets recorded"],
        rows,
    ))
    # Wall-clock overhead ratios are host-dependent (informational,
    # not baseline-gated); the packet count is deterministic.
    for mode in ("flight", "metrics"):
        record("trace_overhead", f"{mode}_overhead_ratio",
               results[mode][0] / base_s, "x", shape=[4, 4, 4], mode=mode)
    record("trace_overhead", "packets_recorded",
           float(results["flight"][2]), "packets", shape=[4, 4, 4])
    assert results["flight"][2] > 0, "flight mode must actually record"
    assert base_points[1].uni_0b == 162.0
