"""The benchmark's workloads, driven only through the layers' public calls.

Each workload makes its inputs from the seed, builds its machine in
:meth:`setup`, and runs one iteration per :meth:`iterate`.  An
iteration returns a small record of simulated outputs, which
:meth:`check` verifies and the harness digests.  ``span`` is the
harness's span recorder; each call into a layer is wrapped in a span
named after the call, and :attr:`call_layers` maps those names to the
layer the call belongs to.
"""

from __future__ import annotations

import random
from typing import Any, Optional

from repro.analysis.mdstep import build_dhfr_md
from repro.asic.node import build_machine
from repro.comm.collectives import AllReduce
from repro.constants import DHFR_ATOMS
from repro.engine.simulator import Simulator


def network_invariants(network) -> dict:
    """Simulated quantities a host-only change must leave identical."""
    links = list(network.links())
    return {
        "link_traversals": network.link_traversals,
        "link_busy_ns": sum(link.busy_ns for link in links),
        "peak_queue": max((link.peak_queue_length for link in links), default=0),
        "packets_injected": network.packets_injected,
        "packets_delivered": network.packets_delivered,
        "packets_lost": network.packets_lost,
    }


class Workload:
    name = ""
    #: Iterations in one round, the fixed simulated work ``run_s`` times.
    round_iters = 1
    #: Span name of each layer call made by :meth:`iterate` -> layer.
    call_layers: dict[str, str] = {}

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.sim: Optional[Simulator] = None
        self.network = None

    def setup(self, span) -> None:
        raise NotImplementedError

    def prepare(self, index: int) -> Any:
        """Inputs of iteration ``index``, made outside its timing."""
        return None

    def iterate(self, index: int, inputs: Any, span) -> dict:
        raise NotImplementedError

    def check(self, out: dict) -> Optional[str]:
        """Why ``out`` is wrong, or ``None`` when it is right."""
        raise NotImplementedError


class MdStep(Workload):
    """DHFR-scale range-limited + long-range step pairs on one AntonMD.

    Atoms scale with the machine as in the ``mdstep`` experiment: the
    paper's 23,558 DHFR atoms per 512 nodes, so 1,242 on a 3x3x3.
    """

    name = "md_step"
    call_layers = {"md.run_step": "md"}

    def __init__(self, seed: int, shape=(3, 3, 3), atoms: Optional[int] = None) -> None:
        super().__init__(seed)
        self.shape = tuple(shape)
        nodes = shape[0] * shape[1] * shape[2]
        self.atoms = atoms or max(512, DHFR_ATOMS * nodes // 512)
        self.md = None

    def setup(self, span) -> None:
        with span("setup.build_dhfr_md"):
            self.md = build_dhfr_md(self.shape, atoms=self.atoms, seed=self.seed)
        self.sim = self.md.sim
        self.network = self.md.machine.network

    def iterate(self, index: int, inputs: Any, span) -> dict:
        net = self.network
        steps = []
        for kind in ("range_limited", "long_range"):
            owed0 = net.deliveries_expected
            lost0 = net.packets_lost
            with span("md.run_step"):
                report = self.md.run_step(kind)
            steps.append(
                {
                    "kind": report.kind,
                    "sim_ns": report.total_ns,
                    "injected": report.packets_injected,
                    "delivered": report.packets_delivered,
                    "owed": net.deliveries_expected - owed0,
                    "lost": net.packets_lost - lost0,
                    "in_flight": net.packets_in_flight,
                }
            )
        return {"steps": steps}

    def check(self, out: dict) -> Optional[str]:
        for step in out["steps"]:
            # A multicast packet makes one delivery per reached client,
            # so deliveries are checked against what the injected
            # packets owed, not against the injected count.
            if step["delivered"] != step["owed"]:
                return f"{step['kind']}: delivered {step['delivered']} of {step['owed']} owed"
            if step["in_flight"] or step["lost"]:
                return f"{step['kind']}: {step['in_flight']} in flight, {step['lost']} lost"
            if step["kind"] == "range_limited" and not step["injected"]:
                return "range_limited: no packets injected"
        return None


class Incast(Workload):
    """Bursts of a 26-to-1 incast of 256 B counted writes on a 3x3x3 torus."""

    name = "incast"
    round_iters = 500
    call_layers = {"engine.process_and_run": "engine"}
    PAYLOAD_BYTES = 256

    def __init__(self, seed: int, shape=(3, 3, 3)) -> None:
        super().__init__(seed)
        self.shape = tuple(shape)
        rng = random.Random(seed)
        nodes = [(x, y, z) for x in range(shape[0]) for y in range(shape[1]) for z in range(shape[2])]
        self.sink = rng.choice(nodes)
        self.sender_nodes = [c for c in nodes if c != self.sink]
        rng.shuffle(self.sender_nodes)

    def setup(self, span) -> None:
        with span("setup.build_machine"):
            self.sim = Simulator()
            machine = build_machine(self.sim, *self.shape)
        self.network = machine.network
        self.dst = machine.node(self.sink).slice(0)
        self.dst.memory.allocate("sink", len(self.sender_nodes))
        self.senders = [
            (slot, machine.node(c).slice(0)) for slot, c in enumerate(self.sender_nodes)
        ]

    def iterate(self, index: int, inputs: Any, span) -> dict:
        sim, net = self.sim, self.network
        t0, inj0, dlv0, lost0 = sim.now, net.packets_injected, net.packets_delivered, net.packets_lost
        # The layer's own generators are the processes, so the profiler
        # bills their events to the asic layer, not to this benchmark.
        # Starting the processes is engine work, so the span covers it.
        with span("engine.process_and_run"):
            procs = [
                sim.process(
                    src.send_write(
                        self.sink,
                        self.dst.name,
                        counter_id="sink",
                        address=("sink", slot),
                        payload_bytes=self.PAYLOAD_BYTES,
                    )
                )
                for slot, src in self.senders
            ]
            receiver = sim.process(self.dst.poll("sink", len(self.senders) * (index + 1)))
            procs.append(receiver)
            sim.run(until=sim.all_of(procs))
        return {
            "sim_ns": sim.now - t0,
            "injected": net.packets_injected - inj0,
            "delivered": net.packets_delivered - dlv0,
            "lost": net.packets_lost - lost0,
            "polled": receiver.triggered and receiver.ok,
        }

    def check(self, out: dict) -> Optional[str]:
        want = len(self.senders)
        if not out["polled"]:
            return "receiver poll not satisfied"
        if not out["injected"] == out["delivered"] == want:
            return f"injected {out['injected']}, delivered {out['delivered']}, want {want}"
        if out["lost"]:
            return f"{out['lost']} packets lost"
        return None


class AllReduceWorkload(Workload):
    """Table 2 dimension-ordered all-reduce of 32 B on the 8x8x8 machine."""

    name = "allreduce"
    round_iters = 2
    call_layers = {"comm.AllReduce.run": "comm"}
    PAYLOAD_BYTES = 32

    def __init__(self, seed: int, shape=(8, 8, 8)) -> None:
        super().__init__(seed)
        self.shape = tuple(shape)
        self._rng = random.Random(seed)

    def setup(self, span) -> None:
        with span("setup.build_machine"):
            self.sim = Simulator()
            machine = build_machine(self.sim, *self.shape)
        with span("setup.AllReduce"):
            self.allreduce = AllReduce(machine, payload_bytes=self.PAYLOAD_BYTES)
        self.network = machine.network
        self.nodes = list(machine.torus.nodes())

    def prepare(self, index: int) -> Any:
        # Integer-valued contributions sum exactly in any order, so the
        # all-reduce result must equal their sum bit for bit.
        return {c: float(self._rng.randint(-10**6, 10**6)) for c in self.nodes}

    def iterate(self, index: int, inputs: Any, span) -> dict:
        net = self.network
        owed0, dlv0, lost0 = net.deliveries_expected, net.packets_delivered, net.packets_lost
        with span("comm.AllReduce.run"):
            result = self.allreduce.run(inputs)
        return {
            "sim_ns": result.elapsed_ns,
            "value": result.value,
            "expected": sum(inputs.values()),
            "delivered": net.packets_delivered - dlv0,
            "owed": net.deliveries_expected - owed0,
            "lost": net.packets_lost - lost0,
        }

    def check(self, out: dict) -> Optional[str]:
        if out["value"] != out["expected"]:
            return f"all-reduce value {out['value']!r} != sum {out['expected']!r}"
        if out["delivered"] != out["owed"] or out["lost"]:
            return f"delivered {out['delivered']} of {out['owed']} owed, {out['lost']} lost"
        return None


WORKLOADS = {cls.name: cls for cls in (MdStep, Incast, AllReduceWorkload)}
