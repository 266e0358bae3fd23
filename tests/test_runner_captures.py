"""Tests for the ``Captures`` run API, the one way a run asks for
observers (and for the removal of the shims it replaced)."""

import json

import pytest

from repro.network.probe import active_probes, use_probes
from repro.runner import Captures, run_experiment
from repro.runner.spec import ExperimentSpec, experiment_names
from repro.trace.flight import FlightRecorder
from repro.trace.metrics import MetricsRegistry

SPEC = ExperimentSpec("latency", shape=(3, 3, 3), hops=1)


def _canon(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))


class TestCaptures:
    def test_default_attaches_nothing(self):
        result = run_experiment(SPEC)
        assert result.flight is None
        assert result.profile is None
        assert result.congestion is None
        assert result.registry is not None  # the run-owned registry

    def test_flight_profile_congestion(self):
        caps = Captures(flight=True, profile=True, congestion=True)
        result = run_experiment(SPEC, caps)
        assert result.flight is not None
        assert result.profile is not None
        assert result.congestion is not None

    def test_caller_registry_accumulates(self):
        registry = MetricsRegistry()
        result = run_experiment(SPEC, Captures(registry=registry))
        assert result.registry is registry
        # The serializable snapshot is the run's own, whatever registry
        # the caller accumulates into.
        assert result.metrics == run_experiment(SPEC).metrics

    def test_captures_are_passive(self):
        """Every capture combination leaves the serialized core of every
        traceable experiment byte-identical to the bare run."""
        for name in experiment_names(traceable=True):
            spec = ExperimentSpec(name, shape=(2, 2, 2), rounds=1)
            bare = _canon(run_experiment(spec))
            full = run_experiment(
                spec, Captures(flight=True, profile=True, congestion=True)
            )
            assert len(full.flight) > 0, name
            assert _canon(full) == bare, name
            registry = MetricsRegistry()
            owned = run_experiment(spec, Captures(registry=registry))
            assert _canon(owned) == bare, name

    def test_live_registries_get_the_run_rows_and_the_recorder_rows(self):
        spec = ExperimentSpec("allreduce", shape=(2, 2, 2), rounds=1)
        bare = run_experiment(spec)
        assert "comm.allreduce.runs" in bare.metrics
        registry = MetricsRegistry()
        result = run_experiment(spec, Captures(flight=True, registry=registry))
        assert result.registry is registry
        for name in bare.metrics:
            assert registry.get(name).snapshot() == bare.metrics[name]
        assert registry.counter("net.packets_injected").value == len(
            result.flight
        )
        own = run_experiment(spec, Captures(flight=True))
        assert own.registry.snapshot() == registry.snapshot()

    def test_truthiness(self):
        assert not Captures()
        assert Captures(flight=True)
        assert Captures(registry=MetricsRegistry())

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Captures().flight = True


class TestProbeComposition:
    def test_harness_recorder_does_not_hide_the_captured_one(self):
        """The latency experiment attaches its own flight recorder around
        the machine it builds; the run's captured recorders must still
        see the packet."""
        spec = ExperimentSpec("latency", shape=(3, 3, 3), hops=2)
        result = run_experiment(spec, Captures(flight=True, congestion=True))
        [flight] = result.flight.packets()
        assert len(flight.hops) == 2
        assert sum(result.congestion.grants.values()) == 2

    def test_nested_blocks_add_probes(self):
        outer, inner = FlightRecorder(), FlightRecorder()
        with use_probes(outer):
            with use_probes(inner) as added:
                assert added == (inner,)
                assert active_probes() == (outer, inner)
            assert active_probes() == (outer,)

    def test_outer_probes_do_not_leak_into_a_run(self):
        with use_probes(FlightRecorder()) as (outer,):
            result = run_experiment(SPEC, Captures(flight=True))
        assert len(outer) == 0
        assert len(result.flight) == 1


class TestLegacyShims:
    """The pre-``Captures`` keywords and the ``run_*`` wrappers are gone."""

    def test_legacy_kwargs_raise_type_error(self):
        with pytest.raises(TypeError):
            run_experiment(SPEC, flight=True, profile=True)

    def test_legacy_congestion_and_registry(self):
        with pytest.raises(TypeError):
            run_experiment(SPEC, congestion=True, registry=MetricsRegistry())

    def test_both_forms_rejected(self):
        with pytest.raises(TypeError):
            run_experiment(SPEC, Captures(), flight=True)

    def test_wrappers_removed(self):
        import importlib

        for module in ("trace", "profile", "congestion"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(f"repro.{module}.capture")
