"""Events and waitable combinators for the simulation engine.

An :class:`Event` is a one-shot occurrence: it starts *pending*, is
*triggered* exactly once with an optional value (or an exception for
failure), and thereafter holds its value forever.  Processes wait on
events by ``yield``-ing them; callbacks may also be attached directly,
which is how the simulator core itself is implemented.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.engine.simulator import Simulator

PENDING = object()


class Event:
    """A one-shot event that processes can wait on.

    Parameters
    ----------
    sim:
        The owning simulator.  Triggering an event schedules its
        callbacks at the current simulated time.
    name:
        Optional human-readable label used in ``repr`` and error
        messages.
    """

    __slots__ = ("sim", "name", "callbacks", "_value", "_ok")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been succeeded or failed."""
        return self._value is not PENDING

    @property
    def ok(self) -> bool:
        """True if the event succeeded (meaningless before triggering)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event was triggered with.

        Raises
        ------
        RuntimeError
            If the event is still pending.
        """
        if self._value is PENDING:
            raise RuntimeError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._value = value
        self._ok = True
        self.sim._dispatch(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes will have the exception thrown into them.
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._value = exception
        self._ok = False
        self.sim._dispatch(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Attach ``callback``; runs when the event fires.

        If the event already fired, the callback is invoked via the
        event queue at the current time (never synchronously), keeping
        execution order deterministic.
        """
        if self.callbacks is None:
            self.sim.schedule(0.0, callback, self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that fires automatically after ``delay`` nanoseconds."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(sim, name=f"timeout({delay})")
        self.delay = delay
        self._value = value
        self._ok = True
        sim._schedule_event(delay, self)


class Interrupt(Exception):
    """Raised inside a process when it is interrupted by another."""

    @property
    def cause(self) -> Any:
        """The cause passed to :meth:`Process.interrupt`."""
        return self.args[0] if self.args else None


class _Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf` combinators."""

    __slots__ = ("events", "_pending_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events: tuple[Event, ...] = tuple(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise ValueError("all events must belong to the same simulator")
        self._pending_count = sum(1 for ev in self.events if not ev.triggered)
        if self._check_immediate():
            return
        for ev in self.events:
            if not ev.triggered:
                ev.add_callback(self._on_child)
            elif not ev.ok:
                # Already-failed child: propagate eagerly.
                if not self.triggered:
                    self.fail(ev._value)
                return

    def _check_immediate(self) -> bool:
        raise NotImplementedError

    def _on_child(self, child: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires once every child event has fired.

    The value is a dict mapping each child event to its value, in the
    original order.  Fails as soon as any child fails.
    """

    __slots__ = ()

    def _check_immediate(self) -> bool:
        if self._pending_count == 0 and all(ev.ok for ev in self.events):
            self.succeed({ev: ev.value for ev in self.events})
            return True
        return False

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            return
        if not child.ok:
            self.fail(child._value)
            return
        self._pending_count -= 1
        if self._pending_count == 0:
            self.succeed({ev: ev.value for ev in self.events})


class AnyOf(_Condition):
    """Fires as soon as any child event fires (value = that child's value)."""

    __slots__ = ()

    def _check_immediate(self) -> bool:
        for ev in self.events:
            if ev.triggered and ev.ok:
                self.succeed(ev.value)
                return True
        return False

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            return
        if not child.ok:
            self.fail(child._value)
            return
        self.succeed(child.value)
