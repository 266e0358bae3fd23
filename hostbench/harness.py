"""Timed and traced runs of one workload, and the metrics they yield.

A run sets the workload up several times (``setup_s`` is the median),
then measures rounds of fixed simulated work until the time budget is
spent.  Every iteration's output is checked after its round, outside
the timing.  The traced run measures the same iterations twice, once
untraced and once under the engine self-profiler with spans and
collector callbacks on, and splits the traced host time by layer.

The host this benchmark was set up on changes speed by up to 1.7x in
phases of seconds to minutes, which no run length averages out.  So a
short reference loop runs before and after every round and set-up, and
the gated times are *nominal* seconds: measured seconds scaled by how
much slower than nominal the reference ran around them.  The measured
(raw) seconds are reported beside them.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.profile.profiler import use_profiling

from hostbench.provenance import calibration_loop
from hostbench.spans import GcRecorder, NullSpans, SpanRecorder, write_trace
from hostbench.stats import failed_frac, tail
from hostbench.workloads import Workload, network_invariants

#: Set-ups made per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Iterations of the reference loop in one probe of the host's speed.
PROBE_ITERATIONS = 100_000

#: Probe time that defines nominal speed: one probe took 12.5 ms on the
#: uncontended 2-vCPU Xeon VM (2.1 GHz, Python 3.11) the bounds were set on.
PROBE_NOMINAL_S = 0.0125


def probe_s() -> float:
    """Seconds of one reference loop: the faster of two tries, so an
    interrupt during one does not count."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        calibration_loop(PROBE_ITERATIONS)
        best = min(best, time.perf_counter() - t0)
    return best


def nominal(seconds: float, probe_before: float, probe_after: float) -> float:
    """``seconds`` measured between two probes, in nominal seconds."""
    return seconds * PROBE_NOMINAL_S / ((probe_before + probe_after) / 2)


#: Layers of ``src/repro`` the traced run reports; other profiler
#: components fold into ``other``.
LAYERS = ("engine", "network", "asic", "comm", "md")

#: Profiler component of this benchmark's own generators (the profiler
#: names a component outside ``repro`` after the file's directory).
DRIVER_COMPONENT = Path(__file__).resolve().parent.name

SETUP_CALLS = ("setup.build_dhfr_md", "setup.build_machine", "setup.AllReduce")

#: Units of the gated metrics.  The host times are nominal seconds;
#: ``setup_s`` is one too, but the benchmark format fixes its unit as
#: ``s``.
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "nominal_s",
    "cpu_s": "nominal_s",
    "packets_per_s": "1/nominal_s",
    "iter_ms_p50": "nominal_ms",
    "peak_rss_mb": "MB",
}

#: Units of the measured (raw) value reported beside each nominal one.
RAW_UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "packets_per_s": "1/s", "iter_ms_p50": "ms"}

PER_LAYER_UNITS = {
    "engine.self_s": "s",
    "engine.events_per_packet": "events/packet",
    "network.self_s": "s",
    "network.ns_per_hop": "ns",
    "asic.self_s": "s",
    "comm.self_s": "s",
    "md.self_s": "s",
    "md.step_drift_pct": "%",
    "driver.self_s": "s",
    **{f"{name}_s": "s" for name in SETUP_CALLS},
    "gc.pause_s": "s",
    "gc.gen2_collections": "count",
    "trace.overhead_pct": "%",
    "network.link_traversals": "count",
    "network.link_busy_ns": "ns",
    "network.peak_queue": "count",
}


def peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Measured:
    """What :func:`measure` saw; rounds cut short by an error are not
    in the round lists."""

    iter_s: list[float] = field(default_factory=list)
    round_wall_s: list[float] = field(default_factory=list)
    round_cpu_s: list[float] = field(default_factory=list)
    #: Nominal-second scale of each round, from the probes around it.
    round_scale: list[float] = field(default_factory=list)
    #: ``iter_s`` of the completed rounds, in nominal seconds.
    iter_nominal_s: list[float] = field(default_factory=list)
    round_packets: list[int] = field(default_factory=list)
    outs: list[dict] = field(default_factory=list)
    #: Network invariants after each completed round.
    invariants: list[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    rss_after_round1_kib: int = 0


def measure(
    wl: Workload,
    seconds: Optional[float] = None,
    iterations: Optional[int] = None,
    span=NullSpans().span,
) -> Measured:
    """Run rounds of ``wl.round_iters`` iterations until ``seconds``
    have passed (at least one round) or, when given, exactly
    ``iterations`` iterations.  Stops at the first iteration that
    raises, since the machine's state is then undefined."""
    if (seconds is None) == (iterations is None):
        raise ValueError("give exactly one of seconds and iterations")
    m = Measured()
    net = wl.network
    clock, cpu = time.perf_counter, time.process_time
    start = clock()
    probe_before = probe_s()
    while True:
        if iterations is not None and m.attempted >= iterations:
            break
        if seconds is not None and m.round_wall_s and clock() - start >= seconds:
            break
        first = len(m.outs)
        delivered0 = net.packets_delivered
        crashed = False
        with span("round"):
            w0, c0 = clock(), cpu()
            for _ in range(wl.round_iters):
                index = m.attempted
                inputs = wl.prepare(index)
                m.attempted += 1
                t0 = clock()
                try:
                    with span("iter"):
                        out = wl.iterate(index, inputs, span)
                except Exception:
                    m.failed += 1
                    m.errors.append(f"iteration {index} raised:\n{traceback.format_exc()}")
                    crashed = True
                    break
                m.iter_s.append(clock() - t0)
                m.outs.append(out)
            wall, cpu_s = clock() - w0, cpu() - c0
        for index, out in enumerate(m.outs[first:], start=first):
            problem = wl.check(out)
            if problem is not None:
                m.failed += 1
                m.errors.append(f"iteration {index} failed its check: {problem}")
        if crashed:
            break
        probe_after = probe_s()
        scale = nominal(1.0, probe_before, probe_after)
        probe_before = probe_after
        m.round_wall_s.append(wall)
        m.round_cpu_s.append(cpu_s)
        m.round_scale.append(scale)
        m.iter_nominal_s.extend(t * scale for t in m.iter_s[first:])
        m.round_packets.append(net.packets_delivered - delivered0)
        m.invariants.append(network_invariants(net))
        if len(m.round_wall_s) == 1:
            m.rss_after_round1_kib = peak_rss_kib()
    return m


def digest(outs: list[dict], invariants: dict) -> str:
    """SHA-256 of simulated outputs; floats serialise exactly."""
    doc = json.dumps({"outs": outs, "invariants": invariants}, sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def round1_digest(wl: Workload, m: Measured) -> Optional[str]:
    if not m.invariants:
        return None
    return digest(m.outs[: wl.round_iters], m.invariants[0])


def _nominal_total(m: Measured) -> float:
    """Wall seconds of all completed rounds, in nominal seconds."""
    return sum(w * k for w, k in zip(m.round_wall_s, m.round_scale))


def timed_setups(make: Callable[[], Workload]) -> tuple[Workload, list[float], list[float]]:
    """Set the workload up :data:`SETUP_REPEATS` times from a collected
    heap, each build freed before the next.  Returns the last build and
    every set-up's measured and nominal seconds."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        wl = None
        gc.collect()
        wl = make()
        before = probe_s()
        t0 = time.perf_counter()
        wl.setup(NullSpans().span)
        raw.append(time.perf_counter() - t0)
        scaled.append(nominal(raw[-1], before, probe_s()))
    gc.collect()
    return wl, raw, scaled


def timed_run(make: Callable[[], Workload], seconds: float) -> dict:
    """The untraced run: every end-to-end metric."""
    wl, setup_raw, setup_nominal = timed_setups(make)
    m = measure(wl, seconds=seconds)
    result = {
        "attempted": m.attempted,
        "failed": m.failed,
        "errors": m.errors,
        "correct": m.failed == 0,
        "scheduler": wl.sim.scheduler_name,
        "digest": round1_digest(wl, m),
        "digest_iterations": wl.round_iters,
        "iterations": m.attempted,
        "rounds": len(m.round_wall_s),
        "metrics": {},
        "extra": {"failed_frac": failed_frac(m.failed, m.attempted)},
    }
    if not m.round_wall_s:
        return result
    # Round times are averaged (total over the run / rounds), not
    # medianed: the collector's pauses land in some rounds and not
    # others, and rounds slow as the heap grows, so the median round
    # jumps between modes from run to run.
    rounds = len(m.round_wall_s)
    nominal_wall = _nominal_total(m)
    nominal_cpu = sum(c * k for c, k in zip(m.round_cpu_s, m.round_scale))
    packets = sum(m.round_packets)
    result["metrics"] = {
        "setup_s": statistics.median(setup_nominal),
        "run_s": nominal_wall / rounds,
        "cpu_s": nominal_cpu / rounds,
        "packets_per_s": packets / nominal_wall,
        "iter_ms_p50": statistics.median(m.iter_nominal_s) * 1e3,
        "peak_rss_mb": m.rss_after_round1_kib / 1024.0,
    }
    extra = result["extra"]
    extra["raw"] = {
        "setup_s": statistics.median(setup_raw),
        "run_s": sum(m.round_wall_s) / rounds,
        "cpu_s": sum(m.round_cpu_s) / rounds,
        "packets_per_s": packets / sum(m.round_wall_s),
        "iter_ms_p50": statistics.median(m.iter_s) * 1e3,
    }
    extra["host_slowdown"] = 1.0 / statistics.median(m.round_scale)
    for key, samples in (("iter_ms_tail", m.iter_nominal_s), ("raw_iter_ms_tail", m.iter_s)):
        t = tail(samples)
        if t is not None:
            value, pct, n = t
            extra[key] = {"value": value * 1e3, "percentile": pct, "samples": n}
    extra["setup_s_samples"] = setup_raw
    extra["round_wall_s"] = m.round_wall_s
    extra["round_scale"] = m.round_scale
    return result


def _component_delta(after: dict, before: dict) -> dict[str, tuple[int, int]]:
    return {
        comp: (ev - before.get(comp, (0, 0))[0], ns - before.get(comp, (0, 0))[1])
        for comp, (ev, ns) in after.items()
    }


def traced_run(make: Callable[[], Workload], seconds: float, spans_path: Optional[Path] = None) -> dict:
    """The traced run: every per-layer metric.

    Pass A measures untraced for half the budget; pass B repeats the
    same iterations on a fresh build under the profiler, with spans
    and collector callbacks recording.  Both passes must produce the
    same simulated digest.
    """
    wl = make()
    wl.setup(NullSpans().span)
    gc.collect()
    a = measure(wl, seconds=seconds / 2)
    a_iters = len(a.outs)
    wl = None
    gc.collect()

    with use_profiling() as prof, GcRecorder() as gcrec:
        spans = SpanRecorder(counter=lambda: prof.loop_wall_ns)
        wl = make()
        with spans.span("setup"):
            wl.setup(spans.span)
        gc.collect()
        before = prof.component_totals()
        events0 = prof.events_total
        traversals0 = wl.network.link_traversals
        b = measure(wl, iterations=a_iters, span=spans.span) if a_iters else Measured()
        rows = _component_delta(prof.component_totals(), before)
        events = prof.events_total - events0
    prof.detach_all()

    attempted = a.attempted + b.attempted
    failed = a.failed + b.failed
    digest_a = digest(a.outs, a.invariants[-1]) if a.invariants else None
    digest_b = digest(b.outs, b.invariants[-1]) if b.invariants else None
    result = {
        "attempted": attempted,
        "failed": failed,
        "errors": a.errors + b.errors,
        "correct": failed == 0 and digest_a is not None and digest_a == digest_b,
        "scheduler": wl.sim.scheduler_name,
        "digest": digest_b,
        "digest_untraced": digest_a,
        "digest_iterations": a_iters,
        "iterations": a_iters,
        "metrics": {},
        "extra": {"failed_frac": failed_frac(failed, attempted)},
    }
    if not (a.invariants and b.invariants):
        return result

    layer_ns: dict[str, int] = defaultdict(int)
    for comp, (_ev, ns) in rows.items():
        if comp in LAYERS:
            layer_ns[comp] += ns
        elif comp == DRIVER_COMPONENT:
            layer_ns["driver"] += ns
        else:
            layer_ns["other"] += ns
    own = spans.self_ns()
    for sid, (name, _s, _e, _p, loop_ns) in enumerate(spans.spans):
        if name in wl.call_layers:
            # Host time of the call outside the simulator's run loop.
            layer_ns[wl.call_layers[name]] += own[sid] - loop_ns
        elif name in ("round", "iter"):
            layer_ns["driver"] += own[sid]
    rounds = [(s, e) for name, s, e, _p, _d in spans.spans if name == "round"]
    pauses = [p for p in gcrec.pauses if any(s <= p[1] and p[2] <= e for s, e in rounds)]

    inv = b.invariants[-1]
    delivered = sum(b.round_packets)
    traversals = inv["link_traversals"] - traversals0
    metrics = {f"{layer}.self_s": layer_ns[layer] / 1e9 for layer in LAYERS}
    metrics.update(
        {
            "engine.events_per_packet": events / delivered if delivered else 0.0,
            "network.ns_per_hop": layer_ns["network"] / traversals if traversals else 0.0,
            "md.step_drift_pct": (
                100.0 * (a.iter_nominal_s[-1] / a.iter_nominal_s[0] - 1.0)
                if "md" in wl.call_layers.values()
                else 0.0
            ),
            "driver.self_s": layer_ns["driver"] / 1e9,
            "gc.pause_s": sum(p[2] - p[1] for p in pauses) / 1e9,
            "gc.gen2_collections": sum(1 for p in pauses if p[0] == 2),
            "trace.overhead_pct": 100.0 * (_nominal_total(b) / _nominal_total(a) - 1.0),
            "network.link_traversals": inv["link_traversals"],
            "network.link_busy_ns": inv["link_busy_ns"],
            "network.peak_queue": inv["peak_queue"],
        }
    )
    for name in SETUP_CALLS:
        metrics[f"{name}_s"] = spans.total_ns(name) / 1e9
    result["metrics"] = {name: metrics[name] for name in PER_LAYER_UNITS}
    traced_s = sum(b.round_wall_s)
    result["extra"].update(
        {
            "other.self_s": layer_ns["other"] / 1e9,
            "traced_run_s": traced_s,
            "untraced_run_s": sum(a.round_wall_s),
            "layer_tiling_pct": 100.0 * sum(layer_ns.values()) / 1e9 / traced_s,
            "gc_pauses": len(pauses),
            "host_slowdown": 1.0 / statistics.median(b.round_scale),
        }
    )
    if spans_path is not None:
        write_trace(spans_path, spans, gcrec, {"workload": wl.name, "profile": prof.wall_profile()})
        result["extra"]["spans_file"] = str(spans_path)
    return result
