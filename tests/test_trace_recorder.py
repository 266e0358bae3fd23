"""Regression tests for ActivityRecorder begin/end pairing and the
zero-window utilization guard on TorusLink."""

import pytest

from repro.engine import Simulator
from repro.network.link import LinkId, TorusLink
from repro.trace import ActivityKind, ActivityRecorder


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def rec(sim):
    return ActivityRecorder(sim)


class TestBeginEndPairing:
    def test_plain_pair_records(self, sim, rec):
        rec.begin("u", ActivityKind.COMPUTE, "work")
        sim.schedule(10.0, lambda: None)
        sim.run()
        rec.end("u", "work")
        [a] = rec.intervals()
        assert (a.start_ns, a.end_ns, a.label) == (0.0, 10.0, "work")

    def test_begin_enabled_end_disabled_drops_interval(self, rec):
        rec.begin("u", ActivityKind.COMPUTE)
        rec.enabled = False
        rec.end("u")  # must not raise, must not record
        assert len(rec) == 0

    def test_begin_disabled_end_enabled_drops_interval(self, rec):
        rec.enabled = False
        rec.begin("u", ActivityKind.COMPUTE)
        rec.enabled = True
        rec.end("u")  # matched, but opened while off: dropped
        assert len(rec) == 0

    def test_unmatched_end_while_enabled_is_descriptive_error(self, rec):
        with pytest.raises(RuntimeError, match="without a matching begin"):
            rec.end("u", "label")
        # The message names the offending unit and label.
        with pytest.raises(RuntimeError, match=r"'ts3'.*'fft'"):
            rec.end("ts3", "fft")

    def test_unmatched_end_while_disabled_is_silent(self, rec):
        rec.enabled = False
        rec.end("u")  # nothing could have been opened: ignore
        assert len(rec) == 0

    def test_double_begin_rejected(self, rec):
        rec.begin("u", ActivityKind.COMPUTE)
        with pytest.raises(RuntimeError, match="already open"):
            rec.begin("u", ActivityKind.COMPUTE)

    def test_discarded_slot_can_be_reopened(self, rec):
        rec.enabled = False
        rec.begin("u", ActivityKind.COMPUTE)
        rec.enabled = True
        rec.begin("u", ActivityKind.COMPUTE)  # overwrites the sentinel
        rec.end("u")
        assert len(rec) == 1

    def test_distinct_labels_are_independent(self, sim, rec):
        rec.begin("u", ActivityKind.SEND, "a")
        rec.begin("u", ActivityKind.WAIT, "b")
        rec.end("u", "b")
        rec.end("u", "a")
        assert {a.label for a in rec.intervals()} == {"a", "b"}


class TestUtilizationGuards:
    def test_link_utilization_zero_window(self, sim):
        link = TorusLink(sim, LinkId((0, 0, 0), "x", +1))
        assert link.utilization(0.0) == 0.0
        assert link.utilization(-1.0) == 0.0
        # Implicit window at simulated time 0 is also zero-length.
        assert link.utilization() == 0.0
