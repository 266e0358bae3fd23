"""Cross-commit pin of serialized ``RunResult`` bytes.

``tests/golden/runresult_sha256.json`` holds, for a fixed set of
registered experiment specs, the sha256 of
``json.dumps(run_experiment(spec).to_dict(), sort_keys=True)``.  The
hashes were recorded before the link model moved from a ``Resource``
to a reservation, so any change to simulated physics, tie-breaking or
serialization in any of these experiments fails here by name.

A mismatch is a behaviour change to explain, not a golden to refresh.
To print the current digests (for example to see which specs moved)::

    PYTHONPATH=src python tests/test_runresult_pin.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.runner.result import run_experiment
from repro.runner.spec import ExperimentSpec

GOLDEN = Path(__file__).parent / "golden" / "runresult_sha256.json"

#: Label -> spec.  Default specs except the two that are too slow at
#: 4x4x4, which run on 3x3x3 for one round.
PINNED_SPECS = {
    **{
        name: ExperimentSpec(name)
        for name in (
            "latency",
            "fig5",
            "allreduce",
            "transfer",
            "congestion",
            "fault_sensitivity",
            "link_degradation",
            "selftest",
        )
    },
    "table3_critical_path@3x3x3r1": ExperimentSpec(
        "table3_critical_path", shape=(3, 3, 3), rounds=1
    ),
    "mdstep@3x3x3r1": ExperimentSpec("mdstep", shape=(3, 3, 3), rounds=1),
}


def result_digest(spec: ExperimentSpec) -> str:
    doc = run_experiment(spec).to_dict()
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def test_golden_covers_every_pinned_spec():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(PINNED_SPECS)


@pytest.mark.parametrize("label", sorted(PINNED_SPECS))
def test_runresult_bytes_match_golden(label):
    expected = json.loads(GOLDEN.read_text())[label]
    assert result_digest(PINNED_SPECS[label]) == expected, (
        f"{label}: serialized RunResult changed"
    )


if __name__ == "__main__":
    print(json.dumps(
        {label: result_digest(spec) for label, spec in PINNED_SPECS.items()},
        indent=2, sort_keys=True,
    ))
