"""Per-run state must not grow: the sync-counter population is fixed.

The paper agrees synchronization-counter ids once, when a fixed
communication pattern is set up (§IV.A), and reuses them every time
step.  So running a collective or an MD step pair again must not add
counters.  The model still makes fresh counter ids on every run, so
both tests are strict expected failures: they start passing, and must
then lose their marks, when the patterns get fixed counter ids.
"""

import pytest

from repro.analysis.mdstep import build_dhfr_md
from repro.asic import build_machine
from repro.comm.collectives import AllReduce
from repro.constants import DHFR_ATOMS
from repro.engine import Simulator

RUNS = 3


def population(machine) -> int:
    """Synchronization counters held by every client of the machine."""
    return sum(
        len(client.counters()) for node in machine for client in node.clients()
    )


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="counter leak: each 4x4x4 AllReduce.run adds 512 counters "
    "(0 -> 512 -> 1024 -> 1536 over 3 runs)",
)
def test_allreduce_runs_keep_counter_population():
    sim = Simulator()
    machine = build_machine(sim, 4, 4, 4)
    allreduce = AllReduce(machine, payload_bytes=32)
    seen = []
    for _ in range(RUNS):
        allreduce.run({c: 1.0 for c in machine.torus.nodes()})
        seen.append(population(machine))
    assert seen == [seen[0]] * RUNS, seen


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="counter leak: each 3x3x3 md_step pair after the first adds "
    "459 counters (972 -> 1431 -> 1890 over 3 pairs)",
)
def test_md_step_pairs_keep_counter_population():
    # The hostbench md_step scaling: DHFR's atoms per 512 nodes.
    md = build_dhfr_md((3, 3, 3), atoms=DHFR_ATOMS * 27 // 512, seed=1)
    seen = []
    for _ in range(RUNS):
        md.run_step("range_limited")
        md.run_step("long_range")
        seen.append(population(md.machine))
    assert seen == [seen[0]] * RUNS, seen
