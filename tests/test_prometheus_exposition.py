"""Parsing tests for the Prometheus text expositions.

A small strict parser (HELP/TYPE headers, label blocks with escape
handling) is run over both exposition paths — the monitor report's
``render_prometheus`` and the sweep telemetry's
``render_registry_prometheus`` — so a formatting regression in either
shows up as a parse failure, not a scrape error in someone's CI.
"""

import re

import pytest

from tests.conftest import run_exchange

from repro.monitor.health import HealthMonitor
from repro.monitor.report import (
    _prom_label_value,
    prom_labels,
    render_prometheus,
    render_registry_prometheus,
)
from repro.monitor.watchdog import LEVELS
from repro.profile.telemetry import SweepTelemetry, make_event
from repro.trace.metrics import MetricsRegistry

_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_SAMPLE = re.compile(rf"^({_NAME})(?:\{{(.*)\}})? (\S+)$")
_ESCAPES = {"n": "\n", '"': '"', "\\": "\\"}


def parse_labels(block: str) -> dict:
    """Decode one ``k="v",...`` label-block body, honouring the
    exposition escapes (backslash, quote, newline)."""
    labels = {}
    i = 0
    while i < len(block):
        m = re.match(rf'({_NAME})="', block[i:])
        assert m, f"malformed label block at {block[i:]!r}"
        key = m.group(1)
        i += m.end()
        chars = []
        while True:
            assert i < len(block), "unterminated label value"
            ch = block[i]
            if ch == "\\":
                esc = block[i + 1]
                assert esc in _ESCAPES, f"bad escape \\{esc}"
                chars.append(_ESCAPES[esc])
                i += 2
            elif ch == '"':
                i += 1
                break
            else:
                chars.append(ch)
                i += 1
        labels[key] = "".join(chars)
        if i < len(block):
            assert block[i] == ",", f"expected ',' at {block[i:]!r}"
            i += 1
    return labels


def parse_exposition(text: str):
    """The exposition as ``{family: {"help", "type", "samples"}}``
    where samples are ``(name, labels_dict, value)`` tuples.  Asserts
    structural rules: HELP before TYPE before samples, every sample
    belongs to a declared family, values are numeric."""
    families: dict[str, dict] = {}
    current = None
    for line in text.splitlines():
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            assert name not in families, f"duplicate HELP for {name}"
            families[name] = {"help": help_text, "type": None, "samples": []}
            current = name
        elif line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            assert name == current, "TYPE must follow its own HELP"
            assert families[name]["type"] is None, f"duplicate TYPE {name}"
            assert kind in ("counter", "gauge", "summary", "histogram")
            families[name]["type"] = kind
        else:
            m = _SAMPLE.match(line)
            assert m, f"unparseable sample line {line!r}"
            name, block, value = m.groups()
            family = name
            if family not in families:
                for suffix in ("_sum", "_count"):  # summary children
                    if name.endswith(suffix):
                        family = name[: -len(suffix)]
                assert family in families, f"sample {name} has no family"
            labels = parse_labels(block) if block else {}
            families[family]["samples"].append((name, labels, float(value)))
            current = None
    for name, fam in families.items():
        assert fam["type"] is not None, f"family {name} never got a TYPE"
    return families


@pytest.fixture
def monitored_run(sim, machine222):
    registry = MetricsRegistry(histogram_max_samples=64)
    h = registry.histogram("net.packet_latency_ns", help="end-to-end")
    monitor = HealthMonitor(sim, machine222, interval_ns=10.0,
                            registry=registry)
    run_exchange(sim, machine222.node(0).slice(0), machine222.node(1).slice(0))
    for i in range(100):
        h.observe(162.0 + (i * 13 % 97))
    verdict = monitor.finalize()
    return verdict, monitor, registry


class TestMonitorExposition:
    def test_parses_with_declared_families(self, monitored_run):
        verdict, monitor, registry = monitored_run
        text = render_prometheus(verdict, monitor.sampler, registry=registry)
        families = parse_exposition(text)
        for required in (
            "repro_sim_time_ns",
            "repro_packets_injected",
            "repro_healthy",
            "repro_health_check_status",
        ):
            assert required in families
            assert families[required]["help"]

    def test_diagnostics_have_one_sample_per_level(self, monitored_run):
        verdict, monitor, registry = monitored_run
        families = parse_exposition(
            render_prometheus(verdict, monitor.sampler, registry=registry)
        )
        diag = families["repro_monitor_diagnostics"]
        assert diag["type"] == "counter"
        assert [s[1]["level"] for s in diag["samples"]] == list(LEVELS)

    def test_check_labels_round_trip(self, monitored_run):
        verdict, monitor, registry = monitored_run
        families = parse_exposition(
            render_prometheus(verdict, monitor.sampler, registry=registry)
        )
        status = families["repro_health_check_status"]
        parsed = {s[1]["check"] for s in status["samples"]}
        assert parsed == {c.name for c in verdict.checks}
        assert all(s[2] in (0.0, 1.0, 2.0) for s in status["samples"])

    def test_histogram_becomes_summary_with_quantiles(self, monitored_run):
        verdict, monitor, registry = monitored_run
        families = parse_exposition(
            render_prometheus(verdict, monitor.sampler, registry=registry)
        )
        summary = families["repro_net_packet_latency_ns"]
        assert summary["type"] == "summary"
        quantiles = {
            s[1]["quantile"] for s in summary["samples"] if s[1]
        }
        assert quantiles == {"0.5", "0.9", "0.99"}
        names = {s[0] for s in summary["samples"]}
        assert "repro_net_packet_latency_ns_sum" in names
        counts = [
            s[2] for s in summary["samples"]
            if s[0] == "repro_net_packet_latency_ns_count"
        ]
        assert counts == [100.0]


class TestSweepExposition:
    def test_sweep_gauges_parse_and_carry_values(self):
        registry = MetricsRegistry()
        tel = SweepTelemetry(total=3, registry=registry)
        tel.record(make_event("cache_miss", 0))
        tel.record(make_event("started", 0, pid=7))
        tel.record(make_event(
            "finished", 0, pid=7, events_per_second=123.0,
            peak_rss_bytes=4096,
        ))
        families = parse_exposition(tel.prometheus())
        assert families["repro_sweep_total"]["samples"][0][2] == 3.0
        assert families["repro_sweep_done"]["samples"][0][2] == 1.0
        assert families["repro_sweep_workers"]["samples"][0][2] == 1.0
        assert (
            families["repro_sweep_events_per_second"]["samples"][0][2]
            == 123.0
        )
        assert all(f["type"] == "gauge" for f in families.values())

    def test_empty_registry_renders_empty(self):
        assert render_registry_prometheus(MetricsRegistry()) == ""
        assert render_registry_prometheus(None) == ""
        assert parse_exposition("") == {}

    def test_metric_names_are_sanitized(self):
        registry = MetricsRegistry()
        registry.counter("net.link-retry/count", help="odd name").inc(2)
        families = parse_exposition(render_registry_prometheus(registry))
        assert families == parse_exposition(
            "# HELP repro_net_link_retry_count odd name\n"
            "# TYPE repro_net_link_retry_count counter\n"
            "repro_net_link_retry_count 2\n"
        )


class TestCongestionExposition:
    """The congestion X-ray's labeled exposition parses with the same
    strict parser, and the direction labels round-trip."""

    @pytest.fixture(scope="class")
    def incast_exposition(self):
        from repro.congestion.report import render_congestion_prometheus
        from repro.congestion.tree import build_congestion_tree
        from repro.runner import Captures, ExperimentSpec, run_experiment
        from repro.topology.torus import Torus3D

        spec = ExperimentSpec("congestion", shape=(3, 3, 3), rounds=1)
        result = run_experiment(
            spec.with_extras(senders=26), Captures(flight=True, congestion=True)
        )
        tree = build_congestion_tree(result.flight, Torus3D(3, 3, 3))
        text = render_congestion_prometheus(tree, result.congestion)
        return tree, parse_exposition(text)

    def test_families_declared_and_typed(self, incast_exposition):
        _tree, families = incast_exposition
        assert families["repro_congestion_hol_wait_ns"]["type"] == "counter"
        assert families["repro_congestion_waits"]["type"] == "counter"
        assert families["repro_congestion_peak_queue"]["type"] == "gauge"
        assert families["repro_congestion_total_hol_wait_ns"]["type"] == (
            "counter"
        )
        assert families["repro_congestion_contended_links"]["type"] == "gauge"
        for fam in families.values():
            assert fam["help"]

    def test_direction_labels_round_trip(self, incast_exposition):
        tree, families = incast_exposition
        waits = families["repro_congestion_hol_wait_ns"]["samples"]
        by_link = {s[1]["link"]: s[1]["direction"] for s in waits}
        assert by_link == {lc.link: lc.direction for lc in tree.links}
        # The incast's worst direction is present verbatim.
        assert "z+" in by_link.values()
        # Link names contain parens/arrows; every one survives the
        # escape/parse round trip exactly.
        for s in waits:
            assert "->" in s[1]["link"]

    def test_sample_values_match_tree(self, incast_exposition):
        tree, families = incast_exposition
        waits = {s[1]["link"]: s[2]
                 for s in families["repro_congestion_hol_wait_ns"]["samples"]}
        peaks = {s[1]["link"]: s[2]
                 for s in families["repro_congestion_peak_queue"]["samples"]}
        for lc in tree.links:
            assert waits[lc.link] == pytest.approx(lc.wait_ns)
            assert peaks[lc.link] == lc.peak_depth
        total = families["repro_congestion_total_hol_wait_ns"]["samples"]
        assert total[0][2] == pytest.approx(tree.total_wait_ns)

    def test_peak_queue_by_direction_in_monitor_exposition(self):
        # A contended run: the monitored incast queues on the
        # destination's inbound links, so the per-direction peak-queue
        # gauge appears and round-trips through the parser.
        from repro.monitor.capture import run_monitored

        capture = run_monitored("congestion", shape=(3, 3, 3), rounds=1)
        verdict = capture.verdict
        assert verdict.peak_queue_by_direction  # something queued
        families = parse_exposition(capture.prometheus())
        peaks = families["repro_link_peak_queue"]
        assert peaks["type"] == "gauge"
        directions = {s[1]["direction"] for s in peaks["samples"]}
        assert directions == set(verdict.peak_queue_by_direction)
        for _name, labels, value in peaks["samples"]:
            assert value == verdict.peak_queue_by_direction[
                labels["direction"]
            ]


class TestLabelEscaping:
    def test_backslash_quote_newline_escape(self):
        assert _prom_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'

    def test_unicode_passes_through_verbatim(self):
        value = "tøru∫-λ→162ns"
        assert _prom_label_value(value) == value
        block = prom_labels(series=value)
        assert parse_labels(block[1:-1]) == {"series": value}

    def test_escaped_values_round_trip_through_parser(self):
        nasty = 'back\\slash "quoted"\nnewline'
        block = prom_labels(a=nasty, b="plain")
        assert parse_labels(block[1:-1]) == {"a": nasty, "b": "plain"}

    def test_no_labels_is_empty_string(self):
        assert prom_labels() == ""

    def test_label_order_preserved(self):
        block = prom_labels(z="1", a="2")
        assert block == '{z="1",a="2"}'
