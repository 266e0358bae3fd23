"""Tests for the consolidated ``Captures`` run API (and its shims)."""

import json

import pytest

from repro.runner import Captures, run_experiment
from repro.runner.spec import ExperimentSpec
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
        # Caller-owned registry: the serializable snapshot stays empty
        # (it would otherwise double-count across accumulated runs).
        assert result.metrics == {}

    def test_captures_are_passive(self):
        bare = _canon(run_experiment(SPEC))
        full = _canon(run_experiment(
            SPEC, Captures(flight=True, profile=True, congestion=True)
        ))
        assert bare == full

    def test_truthiness(self):
        assert not Captures()
        assert Captures(flight=True)
        assert Captures(registry=MetricsRegistry())

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Captures().flight = True


class TestLegacyShims:
    def test_legacy_kwargs_warn_and_behave_identically(self):
        with pytest.warns(DeprecationWarning, match="captures=Captures"):
            legacy = run_experiment(SPEC, flight=True, profile=True)
        new = run_experiment(SPEC, Captures(flight=True, profile=True))
        assert legacy.flight is not None and legacy.profile is not None
        assert _canon(legacy) == _canon(new)

    def test_legacy_congestion_and_registry(self):
        registry = MetricsRegistry()
        with pytest.warns(DeprecationWarning):
            result = run_experiment(SPEC, congestion=True, registry=registry)
        assert result.congestion is not None
        assert result.registry is registry

    def test_both_forms_rejected(self):
        with pytest.warns(DeprecationWarning):
            with pytest.raises(TypeError, match="not both"):
                run_experiment(SPEC, Captures(), flight=True)

    def test_wrappers_do_not_warn(self, recwarn):
        """The CLI-facing helpers are rewired onto Captures internally
        — using them must not trip the deprecation shim."""
        import warnings

        from repro.congestion.capture import run_congested
        from repro.profile.capture import run_profiled
        from repro.trace.capture import run_traced

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert run_traced("latency", shape=(3, 3, 3)).flight is not None
            assert run_profiled("latency", shape=(3, 3, 3)).profile is not None
            cap = run_congested("congestion", shape=(3, 3, 3), rounds=1)
            assert cap.congestion is not None
