"""Congestion X-ray overhead — telemetry must stay off the hot path.

Runs one range-limited MD step in two modes, interleaved: bare, and
with the congestion recorder attached ambiently (per-link-direction
queue-depth and occupancy timelines recorded at every contended
enqueue and every grant).  Asserts the instrumented run's *simulated*
results are bit-identical to the bare run — the recorder is a passive
observer — and that its CPU cost stays within the 10% overhead budget
from the PR acceptance gate.

Same measurement discipline as ``bench_profile_overhead``: the gate
compares ``time.process_time`` (CPU time) over interleaved
bare/instrumented pairs and takes the *minimum pair ratio*, so
host-load noise can only ever inflate a pair, never fake a pass.
"""

import time

from conftest import once

from repro.analysis import render_table
from repro.analysis.mdstep import build_dhfr_md
from repro.congestion import CongestionRecorder
from repro.network.probe import use_probes

#: CPU-time budget for instrumented runs (fraction over bare).
OVERHEAD_BUDGET = 0.10

_SHAPE = (4, 4, 4)
_ATOMS = 2944  # DHFR scaled to 64 nodes (23,558 * 64 / 512)


def _one_step(instrumented: bool):
    """One range-limited step; returns (cpu seconds, results, recorder)."""
    start = time.process_time()
    if instrumented:
        with use_probes(CongestionRecorder()) as (recorder,):
            md = build_dhfr_md(_SHAPE, atoms=_ATOMS)
            report = md.run_step("range_limited")
    else:
        md = build_dhfr_md(_SHAPE, atoms=_ATOMS)
        report = md.run_step("range_limited")
        recorder = None
    secs = time.process_time() - start
    net = md.machine.network
    results = (
        report.total_ns,
        md.sim.now,
        net.packets_injected,
        net.packets_delivered,
        net.packets_completed,
        net.link_traversals,
    )
    return secs, results, recorder


def bench_congestion_overhead(benchmark, publish, record):
    def measure():
        runs = {"bare": [], "instrumented": []}
        for _ in range(4):
            for mode in ("bare", "instrumented"):
                runs[mode].append(
                    _one_step(instrumented=(mode == "instrumented"))
                )
        return runs

    runs = once(benchmark, measure)
    for mode, rs in runs.items():
        assert all(r[1] == rs[0][1] for r in rs), (
            f"{mode} run is nondeterministic"
        )
    bare_s = min(r[0] for r in runs["bare"])
    inst_s = min(r[0] for r in runs["instrumented"])
    bare_results = runs["bare"][0][1]
    inst_results = runs["instrumented"][0][1]
    recorder = runs["instrumented"][-1][2]

    # The recorder observes the transport; it must never change it.
    assert inst_results == bare_results, (
        f"congestion recording perturbed the simulation: "
        f"{inst_results} != {bare_results}"
    )
    # It must also have actually seen the traffic.
    grants = sum(recorder.grants.values())
    assert grants > 0, "the recorder must actually record"
    assert grants <= bare_results[5], "more grants than link traversals"

    ratio = min(
        p[0] / b[0] for b, p in zip(runs["bare"], runs["instrumented"])
    )
    publish("congestion_overhead", render_table(
        "Congestion X-ray overhead — range-limited MD step "
        f"({_SHAPE[0]}x{_SHAPE[1]}x{_SHAPE[2]}, {_ATOMS} atoms), CPU time",
        ["mode", "min cpu ms", "paired overhead", "grants", "links",
         "HOL wait ns"],
        [
            ["bare", f"{bare_s * 1e3:.0f}", "1.00x", 0, 0, 0.0],
            ["instrumented", f"{inst_s * 1e3:.0f}", f"{ratio:.2f}x",
             grants, len(recorder), recorder.total_wait_ns()],
        ],
        float_format="{:.1f}",
    ))
    # The ratio is host-dependent (informational in the JSON results);
    # the budget assertion is the hard gate.
    record("congestion_overhead", "overhead_ratio", ratio, "x",
           shape=list(_SHAPE), atoms=_ATOMS)
    record("congestion_overhead", "grants_recorded", float(grants),
           "grants", better="higher", shape=list(_SHAPE), atoms=_ATOMS)
    assert ratio <= 1.0 + OVERHEAD_BUDGET, (
        f"congestion telemetry overhead {ratio:.2f}x exceeds the "
        f"{OVERHEAD_BUDGET:.0%} budget"
    )
