"""Property tests for fault injection's zero-perturbation guarantee.

The contract (mirroring ``test_sweep_equivalence.py``'s style): merely
*having* the fault subsystem — imported, or even installed with an
empty :class:`~repro.faults.plan.FaultPlan` — must leave every
observable byte of a run unchanged.  Simulated times compare with
``==``, persisted sweeps and exported traces compare as raw bytes, and
monitor verdicts compare as rendered text.  Only a plan that actually
contains a fault may change anything.
"""

import os

from repro.asic import build_machine
from repro.engine import Simulator
from repro.faults.plan import FaultPlan
from repro.faults.session import FaultSession, use_fault_plan, use_faults
from repro.runner.sweep import expand_grid, run_sweep
from tests.conftest import run_exchange

GRID = expand_grid(
    "latency",
    {"shape": [(2, 2, 2), (3, 3, 3)], "hops": [0, 1]},
)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _one_way(dst=(1, 1, 0), payload_bytes=256, session=None):
    sim = Simulator()
    if session is not None:
        with use_faults(session):
            m = build_machine(sim, 4, 4, 4)
    else:
        m = build_machine(sim, 4, 4, 4)
    src = m.node((0, 0, 0)).slice(0)
    rcv = m.node(dst).slice(0)
    return run_exchange(sim, src, rcv, payload_bytes=payload_bytes)


class TestEmptyPlanIsInert:
    def test_latency_identical_to_the_bit(self):
        bare = _one_way()
        empty = _one_way(session=FaultSession(FaultPlan()))
        assert bare == empty  # exact float equality, not approx

    def test_network_normalizes_a_disabled_session_away(self):
        sim = Simulator()
        with use_fault_plan(FaultPlan()):
            m = build_machine(sim, 2, 2, 2)
        assert m.network.faults is None  # hot path never consults it

    def test_enabled_plan_is_attached_and_does_perturb(self):
        from repro.faults.plan import BitError

        plan = FaultPlan(bit_errors=(
            BitError(links="*", corrupt_attempts=1),))
        assert _one_way(session=FaultSession(plan)) > _one_way()

    def test_sweep_results_byte_identical(self, tmp_path):
        bare_dir = str(tmp_path / "bare")
        empty_dir = str(tmp_path / "empty")
        a = run_sweep(GRID, out_dir=bare_dir)
        with use_fault_plan(FaultPlan()):
            b = run_sweep(GRID, out_dir=empty_dir)
        assert a.ok and b.ok
        assert _read(os.path.join(bare_dir, "results.json")) == \
            _read(os.path.join(empty_dir, "results.json"))
        for name in sorted(os.listdir(os.path.join(bare_dir, "points"))):
            assert _read(os.path.join(bare_dir, "points", name)) == \
                _read(os.path.join(empty_dir, "points", name))


class TestExportedTracesUnperturbed:
    def _trace_bytes(self, tmp_path, tag, session):
        from repro.trace.export import write_chrome_trace, write_jsonl
        from repro.network.probe import use_probes
        from repro.trace.flight import FlightRecorder

        sim = Simulator()
        fl = FlightRecorder()
        if session is not None:
            with use_probes(fl), use_faults(session):
                m = build_machine(sim, 2, 2, 2)
        else:
            with use_probes(fl):
                m = build_machine(sim, 2, 2, 2)
        run_exchange(sim, m.node((0, 0, 0)).slice(0),
                     m.node((1, 1, 0)).slice(0), payload_bytes=256)
        jsonl = str(tmp_path / f"{tag}.jsonl")
        chrome = str(tmp_path / f"{tag}.json")
        write_jsonl(jsonl, fl)
        write_chrome_trace(chrome, fl)
        return _read(jsonl), _read(chrome)

    def test_jsonl_and_chrome_bytes_identical(self, tmp_path):
        bare = self._trace_bytes(tmp_path, "bare", None)
        empty = self._trace_bytes(
            tmp_path, "empty", FaultSession(FaultPlan()))
        assert bare == empty


class TestMonitorVerdictUnperturbed:
    def _verdict_text(self, session):
        from repro.monitor.health import use_monitoring

        sim = Simulator()
        if session is not None:
            with use_monitoring() as mon, use_faults(session):
                m = build_machine(sim, 2, 2, 2)
        else:
            with use_monitoring() as mon:
                m = build_machine(sim, 2, 2, 2)
        run_exchange(sim, m.node((0, 0, 0)).slice(0),
                     m.node((1, 1, 0)).slice(0))
        [verdict] = mon.finalize()
        return verdict.render_text()

    def test_verdicts_render_identically(self):
        assert self._verdict_text(None) == \
            self._verdict_text(FaultSession(FaultPlan()))
