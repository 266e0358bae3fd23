"""Exporter tests: Chrome trace_event JSON, JSONL, text summary, CLI.

Includes the determinism regression: two identical runs must export
byte-identical traces (global packet ids are renumbered per run).
"""

import json

import pytest

from repro.__main__ import main
from repro.engine import Simulator
from repro.trace import (
    ActivityKind,
    ActivityRecorder,
    dumps_chrome_trace,
    flight_summary,
    jsonl_lines,
)
from repro.runner import Captures, ExperimentSpec, run_experiment
from repro.runner.spec import experiment_names

EXPERIMENTS = experiment_names(traceable=True)


def _traced(experiment, **fields):
    return run_experiment(
        ExperimentSpec(experiment, **fields), Captures(flight=True)
    )


@pytest.fixture(scope="module")
def congestion_capture():
    return _traced("congestion", shape=(2, 2, 2))


class TestChromeTrace:
    def test_valid_trace_event_json(self, congestion_capture):
        cap = congestion_capture
        doc = json.loads(dumps_chrome_trace(cap.flight, metrics=cap.registry))
        assert doc["displayTimeUnit"] == "ns"
        events = doc["traceEvents"]
        assert events, "trace must contain events"
        for e in events:
            assert e["ph"] in ("M", "X", "i", "C")
            assert "pid" in e
            if e["ph"] == "X":
                assert e["dur"] >= 0
                assert e["ts"] >= 0

    def test_per_packet_spans_with_per_hop_events(self, congestion_capture):
        cap = congestion_capture
        doc = json.loads(dumps_chrome_trace(cap.flight))
        events = doc["traceEvents"]
        packets = [e for e in events if e.get("cat") == "packet"]
        xmits = [e for e in events if e.get("cat") == "hop"
                 and e["name"].startswith("xmit")]
        waits = [e for e in events if e.get("cat") == "hop"
                 and e["name"].startswith("wait")]
        deliveries = [e for e in events if e.get("cat") == "delivery"]
        flights = cap.flight.packets()
        assert len(packets) == len(flights)
        assert len(xmits) == sum(len(f.hops) for f in flights)
        assert len(waits) == cap.flight.contended_hops()
        assert len(deliveries) == sum(len(f.deliveries) for f in flights)

    def test_hop_events_nest_inside_packet_span(self, congestion_capture):
        doc = json.loads(dumps_chrome_trace(congestion_capture.flight))
        events = doc["traceEvents"]
        by_tid = {}
        for e in events:
            if e.get("cat") == "packet":
                by_tid[(e["pid"], e["tid"])] = (e["ts"], e["ts"] + e["dur"])
        for e in events:
            if e.get("cat") == "hop":
                lo, hi = by_tid[(e["pid"], e["tid"])]
                assert lo <= e["ts"]
                assert e["ts"] + e["dur"] <= hi + 1e-9

    def test_queue_counter_events_present_under_congestion(
        self, congestion_capture
    ):
        doc = json.loads(dumps_chrome_trace(congestion_capture.flight))
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters, "incast must produce queue-depth samples"
        assert all("waiting" in e["args"] for e in counters)

    def test_metrics_embedded_as_other_data(self, congestion_capture):
        cap = congestion_capture
        doc = json.loads(dumps_chrome_trace(cap.flight, metrics=cap.registry))
        metrics = doc["otherData"]["metrics"]
        assert metrics["net.packets_injected"]["value"] == len(cap.flight)

    def test_activity_recorder_exported_as_units_process(self):
        cap = _traced("congestion", shape=(2, 2, 2))
        sim = Simulator()
        rec = ActivityRecorder(sim)
        rec.record("n0:ts0", ActivityKind.COMPUTE, 0.0, 50.0, "force")
        doc = json.loads(dumps_chrome_trace(cap.flight, recorder=rec))
        unit_events = [e for e in doc["traceEvents"]
                       if e.get("cat") == "compute"]
        assert len(unit_events) == 1
        assert unit_events[0]["name"] == "force"


class TestDeterminism:
    def test_identical_runs_export_identical_bytes(self):
        """Two captures of the same experiment in one process differ in
        global packet ids and counter tags; the export must not."""
        a = _traced("congestion", shape=(2, 2, 2))
        b = _traced("congestion", shape=(2, 2, 2))
        assert dumps_chrome_trace(a.flight, metrics=a.registry) == \
            dumps_chrome_trace(b.flight, metrics=b.registry)
        assert list(jsonl_lines(a.flight)) == list(jsonl_lines(b.flight))

    def test_latency_experiment_also_deterministic(self):
        a = _traced("latency", shape=(2, 2, 2), rounds=1)
        b = _traced("latency", shape=(2, 2, 2), rounds=1)
        assert dumps_chrome_trace(a.flight) == dumps_chrome_trace(b.flight)


class TestJsonl:
    def test_every_line_parses_and_types_cover_run(self, congestion_capture):
        lines = list(jsonl_lines(congestion_capture.flight))
        records = [json.loads(line) for line in lines]
        types = {r["type"] for r in records}
        assert {"packet", "link", "queue_depth"} <= types
        packets = [r for r in records if r["type"] == "packet"]
        assert all(r["latency_ns"] > 0 for r in packets)
        assert all(len(r["hops"]) >= 1 for r in packets)


class TestSummary:
    def test_summary_tables(self, congestion_capture):
        cap = congestion_capture
        text = flight_summary(cap.flight, cap.registry)
        assert "Packet flight summary" in text
        assert "Busiest links" in text
        assert "Metrics" in text
        assert "net.packet_latency_ns" in text


class TestCaptureHarness:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            _traced("nope")

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_every_experiment_records_flights(self, experiment):
        cap = _traced(experiment, shape=(2, 2, 2), rounds=1)
        assert len(cap.flight) > 0
        assert cap.registry.counter("net.packets_injected").value == \
            len(cap.flight)
        assert cap.description


class TestCli:
    def test_trace_subcommand_writes_valid_json(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        jsonl = tmp_path / "t.jsonl"
        rc = main(["trace", "congestion", "--shape", "2x2x2",
                   "--out", str(out), "--jsonl", str(jsonl)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        assert jsonl.read_text().strip()
        assert "Packet flight summary" in capsys.readouterr().out

    def test_metrics_flag_prints_registry(self, capsys):
        rc = main(["latency", "--shape", "2x2x2", "--metrics"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "One-way latency" in out
        assert "net.packet_latency_ns" in out

    def test_metrics_flag_on_network_free_command(self, capsys):
        rc = main(["breakdown", "--metrics"])
        assert rc == 0
        assert "162" in capsys.readouterr().out.replace("162.00", "162")
