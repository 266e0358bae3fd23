"""Cross-commit pin of the engine profiler's deterministic count profile.

``tests/golden/count_profile_sha256.json`` holds, for a fixed set of
registered experiment specs, the sha256 of
``json.dumps(profiler.count_profile(), sort_keys=True)`` for a run with
``Captures(profile=True)``.  The count profile has no wall-clock
values, so it is byte-identical across runs and hosts; any change to
how events are classified (event type, component) or to which phase
they land in fails here by name.

A mismatch is a behaviour change to explain, not a golden to refresh.
To print the current digests::

    PYTHONPATH=src python tests/test_count_profile_pin.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.runner.result import Captures, run_experiment
from repro.runner.spec import ExperimentSpec

GOLDEN = Path(__file__).parent / "golden" / "count_profile_sha256.json"

PINNED_SPECS = {
    "allreduce@2x2x2": ExperimentSpec("allreduce", shape=(2, 2, 2)),
    "mdstep@3x3x3r1": ExperimentSpec("mdstep", shape=(3, 3, 3), rounds=1),
}


def count_profile_digest(spec: ExperimentSpec) -> str:
    profiler = run_experiment(spec, Captures(profile=True)).profile
    doc = profiler.count_profile()
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def test_golden_covers_every_pinned_spec():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(PINNED_SPECS)


@pytest.mark.parametrize("label", sorted(PINNED_SPECS))
def test_count_profile_matches_golden(label):
    expected = json.loads(GOLDEN.read_text())[label]
    assert count_profile_digest(PINNED_SPECS[label]) == expected, (
        f"{label}: count profile changed"
    )


if __name__ == "__main__":
    print(json.dumps(
        {label: count_profile_digest(spec)
         for label, spec in PINNED_SPECS.items()},
        indent=2, sort_keys=True,
    ))
