"""Tests of the benchmark's own arithmetic, accounting and digests.

    python3 -m pytest hostbench/tests -q
"""

import gc
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hostbench import harness
from hostbench.spans import GcRecorder, SpanRecorder
from hostbench.stats import failed_frac, tail
from hostbench.workloads import WORKLOADS, AllReduceWorkload, Incast, MdStep, Workload

ROOT = Path(__file__).resolve().parents[2]


# -- tail percentile ---------------------------------------------------------

def test_tail_needs_ten_samples_beyond():
    assert tail([1.0] * 10) is None
    assert tail([float(v) for v in range(11)]) == (0.0, 100.0 / 11, 11)


def test_tail_is_tenth_from_the_top():
    values = [float(v) for v in range(100)]
    random.Random(0).shuffle(values)
    assert tail(values) == (89.0, 90.0, 100)
    value, pct, n = tail([float(v) for v in range(1000)])
    assert (value, pct, n) == (989.0, 99.0, 1000)


# -- failure accounting --------------------------------------------------------

class _FakeNetwork:
    packets_delivered = packets_injected = packets_lost = link_traversals = 0

    def links(self):
        return iter(())


class _Flaky(Workload):
    name = "flaky"
    round_iters = 4

    def __init__(self, bad_check=(), raise_at=None):
        super().__init__(0)
        self.network = _FakeNetwork()
        self.bad_check = set(bad_check)
        self.raise_at = raise_at

    def iterate(self, index, inputs, span):
        if index == self.raise_at:
            raise RuntimeError("boom")
        self.network.packets_delivered += 1
        return {"index": index}

    def check(self, out):
        return "wrong" if out["index"] in self.bad_check else None


def test_failed_check_counts_against_attempted():
    m = harness.measure(_Flaky(bad_check={3, 6}), iterations=8)
    assert (m.attempted, m.failed) == (8, 2)
    assert failed_frac(m.failed, m.attempted) == 0.25
    assert len(m.errors) == 2 and "iteration 3 failed its check" in m.errors[0]
    assert m.round_packets == [4, 4]


def test_raising_iteration_counts_and_stops_the_run():
    m = harness.measure(_Flaky(raise_at=5), iterations=12)
    assert (m.attempted, m.failed) == (6, 1)
    assert "iteration 5 raised" in m.errors[0]
    assert len(m.round_wall_s) == 1  # the cut round is not timed


def test_failed_frac_rejects_nothing_attempted():
    with pytest.raises(ValueError):
        failed_frac(0, 0)


# -- spans -----------------------------------------------------------------------

def test_span_self_time_subtracts_children():
    ticks = iter([0, 1, 2, 3, 5, 6, 8, 10])
    counts = iter([0, 0, 0, 7, 7, 7, 9, 9])
    rec = SpanRecorder(clock=lambda: next(ticks), counter=lambda: next(counts))
    with rec.span("root"):
        with rec.span("a"):
            with rec.span("b"):
                pass
        with rec.span("a"):
            pass
    assert rec.spans == [
        ["root", 0, 10, None, 9],
        ["a", 1, 5, 0, 7],
        ["b", 2, 3, 1, 7],
        ["a", 6, 8, 0, 2],
    ]
    assert rec.self_ns() == [10 - 4 - 2, 4 - 1, 1, 2]
    assert rec.total_ns("a") == 6


def test_gc_recorder_sees_a_full_collection():
    with GcRecorder() as rec:
        gc.collect()
    assert gc.callbacks.count(rec._callback) == 0
    assert any(gen == 2 and end >= start for gen, start, end, _n in rec.pauses)


# -- simulated digests -------------------------------------------------------------

SMALL = {
    "incast": lambda seed: Incast(seed),
    "allreduce": lambda seed: AllReduceWorkload(seed, shape=(2, 2, 2)),
    "md_step": lambda seed: MdStep(seed, shape=(2, 2, 2), atoms=512),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_digest_equals_untraced(name):
    result = harness.traced_run(lambda: SMALL[name](5), seconds=0.01)
    assert result["failed"] == 0, result["errors"]
    assert result["digest"] == result["digest_untraced"]
    assert result["correct"]
    assert set(result["metrics"]) == set(harness.PER_LAYER_UNITS)
    assert result["extra"]["layer_tiling_pct"] == pytest.approx(100.0, abs=1.0)


def test_timed_digest_repeats_and_follows_the_seed():
    runs = [harness.timed_run(lambda s=s: SMALL["allreduce"](s), seconds=0.01) for s in (1, 1, 2)]
    assert all(r["correct"] for r in runs)
    assert runs[0]["digest"] == runs[1]["digest"] != runs[2]["digest"]
    assert set(runs[0]["metrics"]) == set(harness.END_TO_END_UNITS)


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copytree(ROOT / "hostbench", tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "incast", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


# -- host-speed scaling and the benchmark definition -----------------------------------

def test_nominal_scales_by_the_probes_around_the_work():
    nominal_probe = harness.PROBE_NOMINAL_S
    assert harness.nominal(2.0, nominal_probe, nominal_probe) == pytest.approx(2.0)
    # Probes twice as slow as nominal: the work counts as half as long.
    assert harness.nominal(2.0, 2 * nominal_probe, 2 * nominal_probe) == pytest.approx(1.0)
    assert harness.nominal(3.0, nominal_probe, 2 * nominal_probe) == pytest.approx(2.0)


def test_benchmark_json_matches_the_harness():
    import json

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == harness.PER_LAYER_UNITS
