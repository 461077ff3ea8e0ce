"""Event primitives for the DES kernel.

An :class:`Event` is a one-shot occurrence in virtual time.  Processes wait
on events by ``yield``-ing them; the kernel resumes the process with the
event's value (or raises its exception) once the event triggers.

Hot-path discipline: events carry no eagerly-built name strings (names are
lazy, computed in ``__repr__``), deadline :class:`Timer` objects are
cancellable and pooled by the simulator, and callback removal tombstones
instead of compacting the list.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

PENDING = "pending"
SUCCEEDED = "succeeded"
FAILED = "failed"
#: A triggered-but-undispatched timer whose deadline no longer matters;
#: the kernel sweeps it from the heap without dispatching (and recycles
#: :class:`Timer` instances through its free-list).
CANCELLED = "cancelled"


class EventFailed(Exception):
    """Raised in a waiting process when the event it waited on failed."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    ``cause`` carries an arbitrary payload describing why (e.g. a node
    crash during the failure-injection experiments).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot event that processes can wait on.

    Events move from *pending* to exactly one of *succeeded* or *failed*.
    Callbacks registered before the trigger fire when the kernel pops the
    event from its heap; callbacks added afterwards fire immediately.
    """

    __slots__ = ("sim", "state", "value", "_callbacks", "_name")

    def __init__(self, sim: "Simulator", name: str = ""):  # noqa: F821
        self.sim = sim
        self.state = PENDING
        self.value: Any = None
        self._callbacks: Optional[list] = []
        self._name = name

    # -- state ------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @name.setter
    def name(self, value: str) -> None:
        self._name = value

    @property
    def triggered(self) -> bool:
        return self.state is not PENDING

    @property
    def ok(self) -> bool:
        return self.state is SUCCEEDED

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Mark the event successful and schedule its callbacks."""
        if self.state is not PENDING:
            raise RuntimeError(f"event {self.name!r} already triggered")
        self.state = SUCCEEDED
        self.value = value
        self.sim._schedule(self, delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Mark the event failed; waiters will see ``exc`` raised."""
        if self.state is not PENDING:
            raise RuntimeError(f"event {self.name!r} already triggered")
        self.state = FAILED
        self.value = exc
        self.sim._schedule(self, delay)
        return self

    # -- callbacks --------------------------------------------------------
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self._callbacks is None:
            # Already dispatched: run inline (event is in the past).
            fn(self)
        else:
            self._callbacks.append(fn)

    def remove_callback(self, fn: Callable[["Event"], None]) -> None:
        """Detach ``fn`` by tombstoning its slot (swept at dispatch).

        No list compaction: interrupts and ``wait_any`` cleanup hit this
        on the hot path, and shifting the tail is the expensive part of
        ``list.remove``.
        """
        cbs = self._callbacks
        if cbs is not None:
            for i, cb in enumerate(cbs):
                if cb == fn:
                    cbs[i] = None
                    return

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for fn in callbacks:
                if fn is not None:
                    fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} {self.state}>"


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):  # noqa: F821
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        self.state = SUCCEEDED
        self.value = value
        sim._schedule(self, delay)

    @property
    def name(self) -> str:
        # Lazy: the hot path never pays for the f-string.
        return self._name or f"timeout({self.delay:g})"

    @name.setter
    def name(self, value: str) -> None:
        self._name = value


class Timer(Event):
    """A cancellable deadline, pooled by the simulator.

    Like :class:`Timeout` it is born in the succeeded state and fires
    ``delay`` seconds after scheduling — but :meth:`cancel` turns the
    pending heap entry into a tombstone the kernel sweeps (and recycles)
    without dispatching.  Acquire through ``Simulator.timer()``; never
    hold a reference past cancellation, the object is reused.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):  # noqa: F821
        super().__init__(sim)
        self.delay = delay
        self.state = SUCCEEDED
        self.value = value

    def cancel(self) -> None:
        """Void the deadline; a no-op once the timer has dispatched."""
        if self.state is SUCCEEDED and self._callbacks is not None:
            self.state = CANCELLED
            self._callbacks = None
            self.sim._note_cancelled()

    @property
    def name(self) -> str:
        return self._name or f"timer({self.delay:g})"

    @name.setter
    def name(self, value: str) -> None:
        self._name = value


class WaitAny(Event):
    """First-of-(event, deadline) without an :class:`AnyOf` allocation.

    Fires with value ``True`` if the child event triggered first and
    ``False`` if the deadline expired; the losing side is detached
    (deadline cancelled, or the child's callback tombstoned).  A child
    *failure* is treated as silence, matching ``AnyOf``'s behaviour of
    only failing once every child has failed — with a deadline present,
    that surfaces as a timeout.  Built via ``Simulator.wait_any()``.
    """

    __slots__ = ("_child", "_timer")

    def _arm(self, child: Event, timer: Timer) -> None:
        self._child = child
        self._timer = timer
        child.add_callback(self._on_child)  # may fire inline if in the past
        if self.state is PENDING:
            timer.add_callback(self._on_timer)
        else:
            timer.cancel()

    def _on_child(self, ev: Event) -> None:
        if self.state is PENDING and ev.state is not FAILED:
            self._timer.cancel()
            self.succeed(True)

    def _on_timer(self, _timer: Event) -> None:
        if self.state is PENDING:
            self._child.remove_callback(self._on_child)
            self.succeed(False)


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):  # noqa: F821
        super().__init__(sim)
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        raise NotImplementedError

    def _results(self) -> dict:
        # Only events that have actually *dispatched* count: a Timeout is
        # born in the succeeded state but hasn't happened until the kernel
        # pops it from the heap (callbacks cleared at dispatch).
        return {
            i: ev.value
            for i, ev in enumerate(self.events)
            if ev.state == SUCCEEDED and ev._callbacks is None
        }


class AllOf(_Condition):
    """Triggers once every child event has triggered.

    Fails (with the first child's exception) if any child fails.
    """

    __slots__ = ()

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev.state == FAILED:
            self.fail(ev.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._results())


class AnyOf(_Condition):
    """Triggers as soon as any child event succeeds.

    Fails only if *all* children fail.
    """

    __slots__ = ()

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev.state == SUCCEEDED:
            self.succeed(self._results())
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.fail(ev.value)
