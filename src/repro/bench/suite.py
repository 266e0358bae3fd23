"""The curated quick benchmark suite behind ``python -m repro bench``.

A deterministic, seconds-scale sweep over the model's headline numbers
— one-way latency per hop count, all-reduce, message-split transfer,
migration synchronization, bandwidth efficiency — emitted as a
:class:`~repro.bench.results.ResultSet`.  It is intentionally
self-contained (no pytest, no timing of wall-clock anything: every
value is *simulated* nanoseconds or a dimensionless model property),
so the regression gate compares physics, not host noise, and the same
command works locally and in CI:

.. code-block:: console

    $ python -m repro bench --out results.json
    $ python -m repro bench --compare benchmarks/baseline.json

The pytest benchmarks under ``benchmarks/`` measure wall-clock *host*
performance of the simulator itself and publish through the same
schema; this module is the model-behaviour half of the pipeline.
"""

from __future__ import annotations

from typing import Optional

from repro.bench.results import BenchResult, ResultSet

#: Default machine shape for the suite; small enough for seconds-scale
#: runs, large enough for 3 network hops and a non-trivial collective.
DEFAULT_SHAPE = (4, 4, 4)


def _shape_config(shape: tuple[int, int, int], **extra) -> dict:
    cfg = {"shape": list(shape)}
    cfg.update(extra)
    return cfg


def _sweep_specs(shape: tuple[int, int, int], only: Optional[set[str]]):
    """The suite's independent-run benchmarks as experiment specs.

    ``latency``/``allreduce``/``transfer`` are grids of standalone
    simulations, so the suite executes them through
    :func:`repro.runner.sweep.run_sweep` — one call, parallelizable
    with ``jobs`` — and maps each :class:`~repro.runner.result.RunResult`
    back onto the suite's historical metric names and config dicts so
    committed baselines keep gating unchanged.
    """
    from repro.runner.spec import ExperimentSpec
    from repro.topology.torus import Torus3D

    def want(name: str) -> bool:
        return only is None or name in only

    specs: list[tuple[ExperimentSpec, BenchResult]] = []
    if want("latency"):
        max_hops = min(3, Torus3D(*shape).max_hops())
        for hops in range(max_hops + 1):
            specs.append((
                ExperimentSpec("latency", shape=shape, hops=hops),
                BenchResult(
                    benchmark="latency",
                    metric=f"one_way_{hops}hop_ns",
                    value=0.0,
                    units="ns",
                    better="lower",
                    config=_shape_config(shape, hops=hops, payload_bytes=0),
                ),
            ))
    if want("allreduce"):
        for algorithm in ("dimension_ordered", "butterfly"):
            specs.append((
                ExperimentSpec(
                    "allreduce", shape=shape, payload=32,
                    extras=(("algorithm", algorithm),),
                ),
                BenchResult(
                    benchmark="allreduce",
                    metric=f"{algorithm}_32B_ns",
                    value=0.0,
                    units="ns",
                    better="lower",
                    config=_shape_config(shape, payload_bytes=32),
                ),
            ))
    if want("transfer"):
        specs.append((
            ExperimentSpec(
                "transfer", shape=shape,
                extras=(("messages", 8), ("total_bytes", 2048)),
            ),
            BenchResult(
                benchmark="transfer",
                metric="split_2048B_8msg_ns",
                value=0.0,
                units="ns",
                better="lower",
                config=_shape_config(
                    shape, total_bytes=2048, num_messages=8, hops=1
                ),
            ),
        ))
    return specs


def _sweep_results(
    shape: tuple[int, int, int], only: Optional[set[str]], jobs: int
) -> list[BenchResult]:
    from dataclasses import replace

    from repro.runner.sweep import run_sweep

    specs = _sweep_specs(shape, only)
    if not specs:
        return []
    report = run_sweep([spec for spec, _ in specs], jobs=jobs)
    if not report.ok:
        failed = report.failures[0]
        raise RuntimeError(
            f"suite benchmark {failed.spec.label()} failed: {failed.error}"
        )
    out = []
    for point, (_, template) in zip(report.points, specs):
        out.append(replace(template, value=point.result.value(template.metric)))
    return out


def _migration_result(shape: tuple[int, int, int]) -> BenchResult:
    from repro.asic.node import build_machine
    from repro.comm.migration import MigrationProtocol
    from repro.engine.simulator import Simulator

    sim = Simulator()
    machine = build_machine(sim, *shape)
    elapsed = MigrationProtocol(machine).run().elapsed_ns
    return BenchResult(
        benchmark="migration",
        metric="sync_only_ns",
        value=elapsed,
        units="ns",
        better="lower",
        config=_shape_config(shape, moves=0),
    )


def _bandwidth_results() -> list[BenchResult]:
    from repro.analysis.transfer import bandwidth_efficiency, half_bandwidth_payload

    return [
        BenchResult(
            benchmark="bandwidth",
            metric="efficiency_28B",
            value=bandwidth_efficiency(28),
            units="fraction",
            better="higher",
            config={"payload_bytes": 28},
        ),
        BenchResult(
            benchmark="bandwidth",
            metric="half_bandwidth_payload_bytes",
            value=half_bandwidth_payload(),
            units="bytes",
            better="lower",
            config={},
        ),
    ]


def _monitor_results(shape: tuple[int, int, int]) -> list[BenchResult]:
    """The continuous-monitoring perturbation gate.

    Runs the dimension-ordered all-reduce twice — monitored (sampler +
    watchdogs at a 100 ns interval) and bare — and reports the
    *simulated-time* difference.  The baseline value is 0.0, and the
    comparison treats a zero baseline specially (any nonzero current
    value is an infinite regression), so this entry is a hard gate:
    monitoring that perturbs simulated results by even a nanosecond
    fails ``python -m repro bench --compare``.  The sample count and
    violation count pin the sampler cadence and the watchdogs' verdict.
    """
    from repro.asic.node import build_machine
    from repro.comm.collectives import AllReduce
    from repro.engine.simulator import Simulator
    from repro.monitor.health import use_monitoring

    def one_run(monitored: bool):
        sim = Simulator()
        if monitored:
            with use_monitoring(interval_ns=100.0) as session:
                machine = build_machine(sim, *shape)
        else:
            session = None
            machine = build_machine(sim, *shape)
        elapsed = AllReduce(machine, payload_bytes=32).run().elapsed_ns
        if session is None:
            return elapsed, None, None
        monitor = session.monitors[0]
        verdict = monitor.finalize()
        return elapsed, monitor, verdict

    bare_ns, _, _ = one_run(monitored=False)
    mon_ns, monitor, verdict = one_run(monitored=True)
    assert monitor is not None and verdict is not None
    violations = sum(1 for c in verdict.checks if c.status == "error")
    cfg = _shape_config(shape, payload_bytes=32, interval_ns=100.0)
    return [
        BenchResult(
            benchmark="monitor",
            metric="sim_time_delta_ns",
            value=abs(mon_ns - bare_ns),
            units="ns",
            better="lower",
            config=cfg,
        ),
        BenchResult(
            benchmark="monitor",
            metric="invariant_violations",
            value=float(violations),
            units="count",
            better="lower",
            config=cfg,
        ),
        BenchResult(
            benchmark="monitor",
            metric="sampler_ticks",
            value=float(monitor.sampler.ticks),
            units="count",
            better="higher",
            config=cfg,
        ),
    ]


def run_suite(
    shape: tuple[int, int, int] = DEFAULT_SHAPE,
    only: Optional[set[str]] = None,
    jobs: int = 1,
) -> ResultSet:
    """Run the quick suite and return its results.

    ``only`` restricts to a subset of benchmark names (``latency``,
    ``allreduce``, ``transfer``, ``migration``, ``bandwidth``,
    ``monitor``).  ``jobs`` parallelizes the independent-run benchmarks
    across worker processes; results are bit-identical to ``jobs=1``.
    """
    results: list[BenchResult] = list(_sweep_results(shape, only, jobs))

    def want(name: str) -> bool:
        return only is None or name in only

    if want("migration"):
        results.append(_migration_result(shape))
    if want("bandwidth"):
        results.extend(_bandwidth_results())
    if want("monitor"):
        results.extend(_monitor_results(shape))
    return ResultSet(results)


#: Benchmark names ``run_suite`` knows.
SUITE_BENCHMARKS = (
    "latency", "allreduce", "transfer", "migration", "bandwidth", "monitor",
)
