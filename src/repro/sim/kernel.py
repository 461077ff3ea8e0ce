"""The simulation kernel: virtual clock, event heap, and process driver.

Hot-path layout (this is the substrate every experiment is bottlenecked
on, so the per-event taxes are explicit):

* zero-delay events bypass ``heapq`` through two FIFOs — one for
  priority-0 "urgent" events (process bootstrap, interrupts) and one for
  ordinary same-tick triggers — preserving exactly the ``(time,
  priority, seq)`` order the heap would have produced;
* wire deliveries (:meth:`Simulator.deliver`) due at one instant share a
  single heap entry, an :class:`_Instant`, so a multicast heartbeat
  fanned out to P receivers costs one kernel event per arrival instant
  rather than one timeout per copy;
* deadlines are :class:`~repro.sim.events.Timer` objects that callers
  cancel on completion; cancelled entries are tombstones, swept (and the
  timer recycled through a free-list) when popped, and compacted in bulk
  when they outnumber the live heap;
* bootstrap/interrupt kick events are pooled (:class:`_Kick`);
* :meth:`Simulator.wait_any` waits for first-of-(event, deadline)
  without the per-call ``AnyOf`` allocation the RPC path used to pay.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Optional

from repro.sim.events import (
    CANCELLED,
    FAILED,
    PENDING,
    SUCCEEDED,
    AllOf,
    AnyOf,
    Event,
    EventFailed,
    Interrupt,
    Timeout,
    Timer,
    WaitAny,
)

#: Upper bound on the timer/kick free-lists (beyond this, garbage collect).
_POOL_MAX = 1024
#: Minimum tombstone count before a bulk heap compaction is considered.
_COMPACT_MIN = 64


class _Kick(Event):
    """A pooled, valueless, always-succeeded event used to (re)start a
    process: bootstrap and interrupts.  Recycled right after dispatch —
    nothing outside the kernel ever holds one."""

    __slots__ = ()


#: Third key of an :class:`_Instant`'s heap entry: above every ``seq``.
_LAST = float("inf")


class _Instant:
    """Every wire delivery due at one instant ``t``, as one heap entry.

    Items are ``(lane, seq, fn, arg)``, run as ``fn(arg)`` in ``(lane,
    seq)`` order.  The entry sits in the heap at ``(t, 1, inf)``: after
    every local event of its instant and priority, before priority 2.
    Before each item after the first it yields to anything now pending
    that sorts ahead of that item — an urgent or same-tick event the
    previous item spawned, a heap entry due at ``t``, or a
    :attr:`Simulator.window_break` — by re-entering the heap and
    returning, so the dispatch order is exactly that of one laned
    timeout per item.
    """

    __slots__ = ("sim", "t", "items", "state")

    def __init__(self, sim: "Simulator", t: float) -> None:
        self.sim = sim
        self.t = t
        self.items: list = []
        self.state = SUCCEEDED

    def _dispatch(self) -> None:
        sim = self.sim
        items = self.items
        imm0, imm1 = sim._imm0, sim._imm1
        entry = (self.t, 1, _LAST, self)
        pop = heapq.heappop
        try:
            while True:
                _lane, _seq, fn, arg = pop(items)
                fn(arg)
                if not items:
                    del sim._instants[self.t]
                    return
                # ``_heap`` is re-read: a cancel can compact it into a
                # fresh list.
                heap = sim._heap
                if (imm0 or imm1 or sim.window_break
                        or (heap and heap[0] < entry)):
                    sim._push(entry)
                    return
        except BaseException:
            # Keep the rest of the instant deliverable.
            if items:
                sim._push(entry)
            else:
                sim._instants.pop(self.t, None)
            raise


class Simulator:
    """Drives events in virtual time.

    The heap holds ``(time, priority, seq, event)`` tuples; the zero-delay
    FIFOs hold tuples of the same shape, and every pop takes the
    lexicographically-smallest tuple across all three containers, so the
    fast path is order-equivalent to the pure-heap kernel.

    Wire deliveries carry a *lane* as well, a stable value derived from
    the (src, dst) pair (see :func:`repro.network.message.delivery_lane`):
    ties at one instant resolve by *content* — local events first, then
    deliveries in ``(lane, seq)`` order — independent of heap insertion
    order.  That independence is what makes one global Simulator and K
    per-partition Simulators (whose ``seq`` counters advance differently)
    dispatch same-instant events identically; ``seq`` only breaks ties
    within one lane (same (src, dst) pair = per-pair FIFO).  Deliveries
    do not get a heap entry each: :meth:`deliver` files them in the one
    :class:`_Instant` of their arrival instant.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list = []
        self._imm0: deque = deque()  # zero-delay, priority 0 (urgent)
        self._imm1: deque = deque()  # zero-delay, priority 1
        self._seq: int = 0
        self._nprocessed: int = 0
        self._nswept: int = 0        # tombstoned timers removed un-dispatched
        self._ntomb: int = 0         # cancelled entries still in containers
        self._npending: int = 0
        self._peak_pending: int = 0
        self._timer_pool: list = []
        self._kick_pool: list = []
        self._instants: dict = {}    # arrival instant -> its _Instant
        #: Cooperative break for :meth:`run_window`: a callback fired
        #: mid-window (e.g. "my last local process completed") sets this
        #: to make the window loop return early.  The caller owns
        #: clearing it.
        self.window_break: bool = False
        #: The process whose generator is currently executing (None
        #: between resumptions).  Consumers like the tracer use it to
        #: attribute work to a logical task without threading a context
        #: argument through every generator.
        self.active_process: Optional["Process"] = None

    # -- introspection --------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Events dispatched so far (an instant's deliveries count once
        per dispatch of their shared entry; swept tombstones not at all)."""
        return self._nprocessed

    @property
    def pending_events(self) -> int:
        """Scheduled-but-unpopped heap and FIFO entries (tombstones
        included; an instant's deliveries count once)."""
        return self._npending

    @property
    def peak_pending(self) -> int:
        """High-water mark of :attr:`pending_events` over the run."""
        return self._peak_pending

    def next_event_time(self) -> Optional[float]:
        """When the next event fires, or None if the simulation is idle."""
        t = self._heap[0][0] if self._heap else None
        if self._imm1 and (t is None or self._imm1[0][0] < t):
            t = self._imm1[0][0]
        if self._imm0 and (t is None or self._imm0[0][0] < t):
            t = self._imm0[0][0]
        return t

    # -- scheduling ---------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0,
                  priority: int = 1) -> None:
        self._seq += 1
        if delay == 0.0:
            if priority == 0:
                self._imm0.append((self.now, 0, self._seq, event))
            elif priority == 1:
                self._imm1.append((self.now, 1, self._seq, event))
            else:
                heapq.heappush(self._heap,
                               (self.now, priority, self._seq, event))
        else:
            heapq.heappush(self._heap,
                           (self.now + delay, priority, self._seq, event))
        n = self._npending + 1
        self._npending = n
        if n > self._peak_pending:
            self._peak_pending = n

    def _schedule_at(self, event: Event, t: float, priority: int = 1) -> None:
        """Schedule ``event`` at the *absolute* instant ``t``.

        ``_schedule(ev, t - now)`` stores ``now + (t - now)``, which under
        float arithmetic is not always ``t``.  The conservative parallel
        engine (:mod:`repro.sim.parallel`) needs its transit-drain wakes to
        fire at bit-identical instants in serial and partitioned runs, so
        it schedules by absolute time.  ``t`` must be ``>= now``.
        """
        self._seq += 1
        self._push((t, priority, self._seq, event))

    def _push(self, entry: tuple) -> None:
        heapq.heappush(self._heap, entry)
        n = self._npending + 1
        self._npending = n
        if n > self._peak_pending:
            self._peak_pending = n

    def deliver(self, delay: float, lane: int,
                fn: Callable[[Any], None], arg: Any) -> None:
        """Call ``fn(arg)`` after ``delay`` simulated seconds, as a wire
        delivery on ``lane`` (``>= 1``; see the class docstring).

        Same-instant deliveries share one :class:`_Instant` heap entry
        and dispatch exactly as one laned timeout each would: after the
        instant's local events, in ``(lane, seq)`` order.
        """
        if delay < 0:
            raise ValueError(f"negative delivery delay: {delay}")
        t = self.now + delay
        self._seq += 1
        instant = self._instants.get(t)
        if instant is None:
            instant = self._instants[t] = _Instant(self, t)
            self._push((t, 1, _LAST, instant))
        heapq.heappush(instant.items, (lane, self._seq, fn, arg))

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def timer(self, delay: float, value: Any = None) -> Timer:
        """A cancellable deadline, drawn from the kernel's free-list.

        Cancel it (``timer.cancel()``) the moment the thing it guards
        completes: the heap entry becomes a tombstone and the object is
        recycled.  Do not keep references to a cancelled timer.
        """
        if delay < 0:
            raise ValueError(f"negative timer delay: {delay}")
        pool = self._timer_pool
        if pool:
            t = pool.pop()
            t.state = SUCCEEDED
            t.value = value
            t._callbacks = []
            t.delay = delay
        else:
            t = Timer(self, delay, value)
        self._schedule(t, delay)
        return t

    def wait_any(self, event: Event, deadline: float) -> Event:
        """An event firing when ``event`` triggers or ``deadline`` seconds
        pass, whichever is first; its value is True if ``event`` won.

        This is the RPC hot path's replacement for
        ``AnyOf(sim, [ev, sim.timeout(deadline)])``: the deadline is a
        pooled cancellable timer, so a completed RPC leaves no dead event
        behind on the heap.
        """
        w = WaitAny(self)
        w._arm(event, self.timer(deadline))
        return w

    def event(self, name: str = "") -> Event:
        """A fresh untriggered event."""
        return Event(self, name)

    def all_of(self, events) -> Event:
        """An event firing once every event in ``events`` has fired."""
        return AllOf(self, events)

    def any_of(self, events) -> Event:
        """An event firing as soon as any event in ``events`` fires.

        For the two-way (event, deadline) case prefer :meth:`wait_any`,
        which cancels the losing deadline instead of leaving it on the
        heap.
        """
        return AnyOf(self, events)

    def process(self, gen: Generator, name: str = "") -> "Process":
        """Run a generator as a process; returns its Process event."""
        return Process(self, gen, name)

    def _kick(self, callback) -> None:
        """Schedule ``callback`` to run at the current instant with urgent
        priority, through a pooled kick event."""
        pool = self._kick_pool
        if pool:
            k = pool.pop()
            k._callbacks = [callback]
        else:
            k = _Kick(self)
            k.state = SUCCEEDED
            k._callbacks = [callback]
        self._schedule(k, 0.0, 0)

    def _note_cancelled(self) -> None:
        """Called by Timer.cancel(); compacts the heap when tombstones
        outnumber live entries (amortized O(1) per cancellation)."""
        self._ntomb += 1
        heap = self._heap
        if self._ntomb < _COMPACT_MIN or self._ntomb * 2 < len(heap):
            return
        pool = self._timer_pool
        live = []
        for entry in heap:
            ev = entry[3]
            if ev.state is CANCELLED:
                if type(ev) is Timer and len(pool) < _POOL_MAX:
                    ev.value = None
                    pool.append(ev)
            else:
                live.append(entry)
        removed = len(heap) - len(live)
        heapq.heapify(live)
        self._heap = live
        self._npending -= removed
        self._nswept += removed
        self._ntomb = 0

    # -- execution ------------------------------------------------------
    def step(self) -> None:
        """Process the next event (lowest ``(time, priority, seq)``)."""
        imm0, imm1, heap = self._imm0, self._imm1, self._heap
        best = imm0[0] if imm0 else None
        use = 0
        if imm1 and (best is None or imm1[0] < best):
            best = imm1[0]
            use = 1
        if heap and (best is None or heap[0] < best):
            use = 2
        if use == 2:
            entry = heapq.heappop(heap)
        elif use == 1:
            entry = imm1.popleft()
        else:
            entry = imm0.popleft()
        when, _prio, _seq, event = entry
        self._npending -= 1
        self.now = when
        if event.state is CANCELLED:
            # Tombstone sweep: the deadline was voided after scheduling.
            self._nswept += 1
            if self._ntomb:
                self._ntomb -= 1
            if type(event) is Timer and len(self._timer_pool) < _POOL_MAX:
                event.value = None
                self._timer_pool.append(event)
            return
        self._nprocessed += 1
        event._dispatch()
        if type(event) is _Kick and len(self._kick_pool) < _POOL_MAX:
            self._kick_pool.append(event)

    def run_window(self, t_end: float, grid: float = 0.0) -> int:
        """Process every event strictly before ``t_end`` in one fused loop.

        The conservative-parallel harness used to alternate
        ``next_event_time()`` + ``step()``, peeking all three containers
        twice per event; with multi-window grants this *is* the worker
        hot loop, so the peek and the pop are fused here.  Selection
        order is identical to :meth:`step` (lexicographically smallest
        ``(time, priority, seq)`` across the FIFOs and the heap).

        Returns the number of distinct grid-aligned windows of width
        ``grid`` that contained at least one processed event (0 when
        ``grid`` is 0) — the "granted vs executed" accounting for the
        grant protocol.  Stops early when :attr:`window_break` is set by
        a callback; the caller inspects and clears the flag.
        """
        imm0, imm1 = self._imm0, self._imm1
        pop = heapq.heappop
        wins = 0
        edge = -1.0
        while True:
            # NB: ``_heap`` must be re-read every iteration — a cancel
            # during dispatch can compact it into a fresh list
            # (:meth:`_note_cancelled`); the deques are never rebound.
            heap = self._heap
            src = 0
            best = imm0[0] if imm0 else None
            if imm1 and (best is None or imm1[0] < best):
                best = imm1[0]
                src = 1
            if heap and (best is None or heap[0] < best):
                best = heap[0]
                src = 2
            if best is None or best[0] >= t_end:
                return wins
            if src == 2:
                pop(heap)
            elif src == 1:
                imm1.popleft()
            else:
                imm0.popleft()
            when, _prio, _seq, event = best
            self._npending -= 1
            self.now = when
            if event.state is CANCELLED:
                self._nswept += 1
                if self._ntomb:
                    self._ntomb -= 1
                if type(event) is Timer and len(self._timer_pool) < _POOL_MAX:
                    event.value = None
                    self._timer_pool.append(event)
                continue
            self._nprocessed += 1
            if grid and when >= edge:
                wins += 1
                edge = (int(when / grid) + 1.0) * grid
            event._dispatch()
            if type(event) is _Kick and len(self._kick_pool) < _POOL_MAX:
                self._kick_pool.append(event)
            if self.window_break:
                return wins

    def run(self, until: Optional[float] = None) -> None:
        """Run until no events remain or virtual time passes ``until``."""
        if until is not None:
            while True:
                t = self.next_event_time()
                if t is None or t > until:
                    break
                self.step()
            self.now = max(self.now, until)
        else:
            while self._npending:
                self.step()

    def run_process(self, proc: "Process", until: Optional[float] = None) -> Any:
        """Run until ``proc`` finishes; return its value (raise on failure)."""
        while not proc.triggered:
            if not self._npending:
                raise RuntimeError(
                    f"deadlock: process {proc.name!r} never finished and no "
                    f"events remain at t={self.now:g}"
                )
            if until is not None and self.next_event_time() > until:
                raise RuntimeError(
                    f"process {proc.name!r} still pending at t={until:g}"
                )
            self.step()
        if proc.state == FAILED:
            raise proc.value
        return proc.value


def gather(sim: Simulator, gens) -> Generator:
    """Run sub-generators concurrently; return their results in order.

    Usage from a process: ``results = yield from gather(sim, [g1, g2])``.
    If any sub-process raises, the exception propagates (after all have
    settled) — callers needing partial results should catch per-generator.
    """
    procs = [sim.process(g, name="gather") for g in gens]
    done = Event(sim, name="gather-done")
    remaining = len(procs)
    if remaining == 0:
        return []

    def _on_done(_ev):
        nonlocal remaining
        remaining -= 1
        if remaining == 0 and not done.triggered:
            done.succeed()

    for p in procs:
        p.add_callback(_on_done)
    yield done
    results = []
    for p in procs:
        if p.state == FAILED:
            raise p.value
        results.append(p.value)
    return results


class Process(Event):
    """A generator-based coroutine running in virtual time.

    The generator yields :class:`Event` instances; the process resumes with
    the event's value (or the event's exception is thrown into it).  The
    process is itself an event that triggers when the generator returns
    (value = return value) or raises.
    """

    __slots__ = ("_gen", "_waiting_on", "_interrupts", "_resume_cb")

    def __init__(self, sim: Simulator, gen: Generator, name: str = ""):
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self._gen = gen
        self._waiting_on: Optional[Event] = None
        self._interrupts: Optional[list] = None  # built lazily; rare
        # One bound method for the process's lifetime: registering and
        # tombstoning callbacks then never re-allocates it per yield.
        self._resume_cb = self._resume
        # Bootstrap: start the generator at the current sim time via a
        # pooled immediate kick.
        sim._kick(self._resume_cb)

    @property
    def is_alive(self) -> bool:
        """Whether the process is still running."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if self.triggered:
            return
        if self._interrupts is None:
            self._interrupts = []
        self._interrupts.append(Interrupt(cause))
        if self._waiting_on is not None:
            target, self._waiting_on = self._waiting_on, None
            target.remove_callback(self._resume_cb)
        # Resume immediately (urgent priority so interrupts preempt).
        self.sim._kick(self._resume_cb)

    # -- internal ---------------------------------------------------------
    def _resume(self, trigger: Event) -> None:
        self._waiting_on = None
        prev = self.sim.active_process
        self.sim.active_process = self
        try:
            self._step(trigger)
        finally:
            self.sim.active_process = prev

    def _step(self, trigger: Event) -> None:
        gen = self._gen
        while True:
            try:
                if self._interrupts:
                    target = gen.throw(self._interrupts.pop(0))
                elif trigger.state is FAILED:
                    exc = trigger.value
                    if not isinstance(exc, BaseException):
                        exc = EventFailed(exc)
                    target = gen.throw(exc)
                else:
                    target = gen.send(trigger.value)
            except StopIteration as stop:
                if self.state is PENDING:
                    self.succeed(stop.value)
                return
            except Interrupt:
                # Uncaught interrupt kills the process silently: this is the
                # normal fate of daemon loops on a crashed node.
                if self.state is PENDING:
                    self.succeed(None)
                return
            except BaseException as exc:  # noqa: BLE001 - propagate to waiters
                if self.state is PENDING:
                    self.fail(exc)
                    return
                raise
            if not isinstance(target, Event):
                raise TypeError(
                    f"process {self.name!r} yielded {target!r}, not an Event"
                )
            if target.triggered and target._callbacks is None:
                # Already dispatched in the past: loop and consume inline.
                trigger = target
                continue
            self._waiting_on = target
            target.add_callback(self._resume_cb)
            return
