"""Unit tests for FCFS resources and stores."""

import pytest

from repro.engine import Resource, Simulator, Store


def test_resource_grants_up_to_capacity(sim):
    r = Resource(sim, capacity=2)
    e1, e2, e3 = r.request(), r.request(), r.request()
    assert e1.triggered and e2.triggered
    assert not e3.triggered
    assert r.in_use == 2
    assert r.queue_length == 1


def test_release_wakes_fifo_order(sim):
    r = Resource(sim, capacity=1)
    first = r.request()
    waiters = [r.request() for _ in range(3)]
    assert first.triggered
    r.release()
    assert waiters[0].triggered and not waiters[1].triggered
    r.release()
    assert waiters[1].triggered and not waiters[2].triggered


def test_release_without_request_raises(sim):
    r = Resource(sim)
    with pytest.raises(RuntimeError):
        r.release()


def test_invalid_capacity(sim):
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_use_serialises_processes(sim):
    r = Resource(sim, capacity=1)
    log = []

    def worker(name):
        yield from r.use(10.0)
        log.append((sim.now, name))

    sim.process(worker("a"))
    sim.process(worker("b"))
    sim.run()
    assert log == [(10.0, "a"), (20.0, "b")]


def test_try_acquire_fast_path(sim):
    r = Resource(sim, capacity=1)
    assert r.try_acquire()
    assert not r.try_acquire()
    r.release()
    assert r.try_acquire()


def test_store_fifo_order(sim):
    s = Store(sim)
    s.put(1)
    s.put(2)
    assert s.get().value == 1
    assert s.get().value == 2


def test_store_blocking_get(sim):
    s = Store(sim)
    got = []

    def consumer():
        item = yield s.get()
        got.append((sim.now, item))

    sim.process(consumer())
    sim.schedule(12.0, s.put, "hello")
    sim.run()
    assert got == [(12.0, "hello")]


def test_store_try_get(sim):
    s = Store(sim)
    assert s.try_get() is None
    s.put("x")
    assert s.try_get() == "x"
    assert s.try_get() is None
