"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from repro.asic import build_machine
from repro.engine import Simulator
from repro.network.network import Network
from repro.topology import Torus3D

#: Torus shapes for the idle-machine oracles: the named corner cases
#: (1- and 2-wide, odd, mixed) plus small random ones.
torus_shapes = st.one_of(
    st.sampled_from([(1, 4, 4), (3, 5, 2), (5, 3, 7), (1, 1, 2), (4, 4, 4)]),
    st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
)


def ring_hops(shape, src, dst) -> dict:
    """Minimal wraparound displacement per dimension (no torus code)."""
    out = {}
    for d, a, b, n in zip("xyz", src, dst, shape):
        k = (b - a) % n
        out[d] = min(k, n - k)
    return out


class ArrivalClock:
    """A network client that only records when packets reach it; it
    schedules nothing, so a run's event count is the transport's."""

    def __init__(self, network, node, name: str) -> None:
        self.node = network.torus.coord(node)
        self.name = name
        self.sim = network.sim
        self.arrivals: list[float] = []
        network.attach(self)

    def receive(self, packet) -> None:
        self.arrivals.append(self.sim.now)


@st.composite
def shape_and_nodes(draw, count):
    """A torus shape and ``count`` node coordinates on it (repeats
    allowed)."""
    shape = draw(torus_shapes)
    node = st.tuples(*(st.integers(0, n - 1) for n in shape))
    return shape, [draw(node) for _ in range(count)]


def idle_network(shape, clients=("c",)):
    """A bare fault-free network with an :class:`ArrivalClock` named
    after each of ``clients`` on every node; returns ``(sim, network,
    clocks)`` with ``clocks[(node, name)]``."""
    sim = Simulator()
    net = Network(sim, Torus3D(*shape), faults=None, probes=())
    clocks = {
        (node, name): ArrivalClock(net, node, name)
        for node in (
            (x, y, z)
            for x in range(shape[0])
            for y in range(shape[1])
            for z in range(shape[2])
        )
        for name in clients
    }
    return sim, net, clocks


@pytest.fixture(autouse=True)
def _isolated_ledger(tmp_path, monkeypatch):
    """Point the ambient observatory ledger at a per-test temp file so
    tests that drive ``main()`` never write ``.repro-ledger.jsonl``
    into the developer's working directory.  Tests that want a
    specific ledger still override via ``--ledger``/``--no-ledger`` or
    their own ``REPRO_LEDGER``."""
    monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "test-ledger.jsonl"))


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def machine222(sim):
    """A small 2x2x2 Anton machine (8 nodes)."""
    return build_machine(sim, 2, 2, 2)


@pytest.fixture
def machine444(sim):
    """A 4x4x4 Anton machine (64 nodes)."""
    return build_machine(sim, 4, 4, 4)


def run_exchange(sim, src_slice, dst_slice, *, payload_bytes=0, payload=None,
                 buffer="rx", counter="c", slot=0, expected=1):
    """Send one counted remote write and poll for it; returns the
    receiver's completion time in ns."""
    if not dst_slice.memory.has_buffer(buffer):
        dst_slice.memory.allocate(buffer, max(expected, slot + 1))
    result = {}

    def sender():
        yield from src_slice.send_write(
            dst_slice.node,
            dst_slice.name,
            counter_id=counter,
            address=(buffer, slot),
            payload=payload,
            payload_bytes=payload_bytes,
        )

    def receiver():
        result["t"] = yield from dst_slice.poll(counter, expected)

    p1 = sim.process(sender())
    p2 = sim.process(receiver())
    sim.run(until=sim.all_of([p1, p2]))
    return result["t"]
