"""Tests for the kernel's hot-path machinery: cancellable timers,
``wait_any``, the zero-delay FIFOs, callback tombstoning, the
timer/kick free-lists, and the per-instant delivery buckets."""

import heapq
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import Event, Simulator, Timer, WaitAny
from repro.sim.events import CANCELLED, SUCCEEDED


# ------------------------------------------------------------- timers
def test_timer_fires_like_a_timeout():
    sim = Simulator()

    def proc():
        v = yield sim.timer(2.0, value="ding")
        return (sim.now, v)

    assert sim.run_process(sim.process(proc())) == (2.0, "ding")


def test_cancelled_timer_never_dispatches():
    sim = Simulator()
    fired = []
    t = sim.timer(5.0)
    t.add_callback(lambda ev: fired.append(sim.now))
    t.cancel()
    sim.run()
    assert fired == []
    assert t.state is CANCELLED
    assert sim._nswept == 1
    assert sim.pending_events == 0


def test_cancelled_timer_is_recycled():
    sim = Simulator()
    t = sim.timer(5.0)
    t.cancel()
    sim.run()  # sweeps the tombstone into the free-list
    t2 = sim.timer(1.0)
    assert t2 is t  # same object, reborn from the pool

    def proc():
        yield t2

    sim.run_process(sim.process(proc()))
    assert sim.now == pytest.approx(6.0)  # swept at 5.0, reborn +1.0


def test_cancel_after_dispatch_is_noop():
    sim = Simulator()
    t = sim.timer(1.0)
    sim.run()
    t.cancel()
    assert t.ok  # still a successfully dispatched event
    assert sim._nswept == 0


def test_mass_cancellation_compacts_the_heap():
    sim = Simulator()
    timers = [sim.timer(10.0 + i) for i in range(300)]
    assert sim.pending_events == 300
    for t in timers:
        t.cancel()
    # Compaction kicks in long before the run: the heap must not hold
    # 300 tombstones until t=10.
    assert sim.pending_events < 300
    sim.run()
    assert sim.pending_events == 0
    assert sim._nswept == 300


# ------------------------------------------------------------ wait_any
def test_wait_any_event_wins():
    sim = Simulator()
    ev = sim.event()

    def trigger():
        yield sim.timeout(1.0)
        ev.succeed("fast")

    def proc():
        won = yield sim.wait_any(ev, 5.0)
        return (won, sim.now, ev.value)

    sim.process(trigger())
    assert sim.run_process(sim.process(proc())) == (True, 1.0, "fast")
    sim.run()
    assert sim._nswept == 1  # the losing deadline was swept, not dispatched


def test_wait_any_deadline_wins():
    sim = Simulator()
    ev = sim.event()

    def proc():
        won = yield sim.wait_any(ev, 2.0)
        return (won, sim.now)

    assert sim.run_process(sim.process(proc())) == (False, 2.0)
    ev.succeed("late")  # must not blow up on the tombstoned callback
    sim.run()


def test_wait_any_with_already_dispatched_event():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("past")
    sim.run()

    def proc():
        won = yield sim.wait_any(ev, 5.0)
        return (won, sim.now)

    assert sim.run_process(sim.process(proc())) == (True, 0.0)


def test_wait_any_failure_is_silence():
    """A failed child behaves like AnyOf's all-must-fail rule: with a
    deadline present, the failure surfaces as a timeout."""
    sim = Simulator()
    ev = sim.event()

    def trigger():
        yield sim.timeout(1.0)
        ev.fail(RuntimeError("dead"))

    def proc():
        won = yield sim.wait_any(ev, 3.0)
        return (won, sim.now)

    sim.process(trigger())
    assert sim.run_process(sim.process(proc())) == (False, 3.0)


def test_wait_any_is_a_pooled_composition():
    sim = Simulator()
    w = sim.wait_any(sim.event(), 1.0)
    assert isinstance(w, WaitAny)
    assert isinstance(w._timer, Timer)


# ------------------------------------------------- zero-delay FIFO order
def test_same_tick_events_keep_schedule_order():
    """Zero-delay events ride the FIFOs, delayed ones the heap; dispatch
    order must still be (time, priority, seq)."""
    sim = Simulator()
    order = []
    for tag in ("a", "b", "c"):
        ev = sim.event()
        ev.add_callback(lambda _e, t=tag: order.append(t))
        ev.succeed()  # zero-delay, priority 1
    t = sim.timeout(0.0)
    t.add_callback(lambda _e: order.append("t"))
    sim.run()
    assert order == ["a", "b", "c", "t"]


def test_urgent_kicks_preempt_same_tick_events():
    """Process bootstrap (priority 0) runs before ordinary zero-delay
    events scheduled earlier at the same instant."""
    sim = Simulator()
    order = []
    ev = sim.event()
    ev.add_callback(lambda _e: order.append("event"))
    ev.succeed()  # priority 1, scheduled first

    def proc():
        order.append("process")
        return
        yield  # pragma: no cover - makes this a generator

    sim.process(proc())  # bootstrap kick at priority 0, scheduled second
    sim.run()
    assert order == ["process", "event"]


def test_immediate_and_heap_interleave_by_time():
    sim = Simulator()
    order = []

    def stamp(tag):
        return lambda _e: order.append((sim.now, tag))

    sim.timeout(1.0).add_callback(stamp("late"))
    ev = sim.event()
    ev.add_callback(stamp("now"))
    ev.succeed()
    sim.run()
    assert order == [(0.0, "now"), (1.0, "late")]


# ----------------------------------------------------- callback removal
def test_remove_callback_tombstones_without_reorder():
    sim = Simulator()
    calls = []
    ev = sim.event()
    first = lambda _e: calls.append("first")  # noqa: E731
    ev.add_callback(first)
    ev.add_callback(lambda _e: calls.append("second"))
    ev.remove_callback(first)
    ev.succeed()
    sim.run()
    assert calls == ["second"]


# ------------------------------------------------------------ free-lists
def test_kick_pool_recycles_bootstrap_events():
    sim = Simulator()

    def proc():
        yield sim.timeout(0.1)

    sim.run_process(sim.process(proc()))
    assert len(sim._kick_pool) == 1
    before = sim._kick_pool[0]
    sim.run_process(sim.process(proc()))
    assert sim._kick_pool[0] is before  # reused, then returned


def test_peak_pending_tracks_high_water_mark():
    sim = Simulator()
    for i in range(10):
        sim.timeout(float(i + 1))
    assert sim.pending_events == 10
    assert sim.peak_pending == 10
    sim.run()
    assert sim.pending_events == 0
    assert sim.peak_pending == 10


# ------------------------------------------------- per-instant deliveries
class OneTimeoutPerItem(Simulator):
    """The reference the delivery buckets must match: no zero-delay
    FIFOs, no buckets — every event, delivery or local, is its own heap
    entry keyed ``(time, priority, (lane, seq))`` with lane 0 for local
    events, which is the kernel's documented dispatch order."""

    def _schedule(self, event, delay=0.0, priority=1):
        self._push(self.now + delay, priority, 0, event)

    def _schedule_at(self, event, t, priority=1):
        self._push(t, priority, 0, event)

    def deliver(self, delay, lane, fn, arg):
        assert delay >= 0 and lane >= 1
        ev = Event(self)
        ev.state = SUCCEEDED
        ev._callbacks = [lambda _ev: fn(arg)]
        self._push(self.now + delay, 1, lane, ev)

    def _push(self, t, priority, lane, event):
        self._seq += 1
        heapq.heappush(self._heap, (t, priority, (lane, self._seq), event))
        self._npending += 1


#: Delays on a coarse binary grid, so arrivals share instants.
_DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5])
_LANES = st.integers(min_value=1, max_value=3)


def _programs(allow_break):
    leaf_kinds = ["deliver", "timeout", "event", "process", "late", "cancels"]
    if allow_break:
        leaf_kinds.append("break")

    def node(children):
        return st.tuples(st.sampled_from(leaf_kinds), _DELAYS, _LANES,
                         children)

    tree = st.recursive(
        node(st.just(())),
        lambda inner: node(st.lists(inner, max_size=3).map(tuple)),
        max_leaves=30)
    return st.lists(tree, min_size=1, max_size=8)


def _run_program(sim, roots, window=False):
    """Schedule ``roots`` on ``sim``, run to quiescence, and return the
    dispatch log.  Every fired node logs itself and schedules its
    children; a process logs again when it resumes after a yield.  A
    ``break`` is a delivery that raises ``window_break``; a ``late`` is
    an absolute-time heap entry of priority 1 or 2 (by its lane's
    parity), the former landing ahead of a running instant's next
    delivery when its delay is 0."""
    ids = itertools.count()
    log = []

    def fire(node):
        nid, (kind, _delay, _lane, children) = node
        log.append((nid, sim.now))
        if kind == "break":
            sim.window_break = True
        elif kind == "cancels":
            # Enough tombstones to compact the heap mid-dispatch.
            for t in [sim.timer(100.0) for _ in range(70)]:
                t.cancel()
        for child in children:
            schedule(child)

    def schedule(spec):
        node = (next(ids), spec)
        kind, delay, lane, _children = spec
        if kind in ("deliver", "break"):
            sim.deliver(delay, lane, fire, node)
        elif kind == "event":
            ev = sim.event()
            ev.add_callback(lambda _e: fire(node))
            ev.succeed()
        elif kind == "process":
            def body():
                fire(node)
                yield sim.timeout(0.0)
                log.append((node[0], "resumed", sim.now))
            sim.process(body())
        elif kind == "late":
            ev = Event(sim)
            ev.state = SUCCEEDED
            ev._callbacks = [lambda _e: fire(node)]
            sim._schedule_at(ev, sim.now + delay, priority=1 + lane % 2)
        else:  # timeout, cancels
            sim.timeout(delay).add_callback(lambda _e: fire(node))

    for spec in roots:
        schedule(spec)
    if not window:
        sim.run()
        return log
    while sim.pending_events:
        wins = sim.run_window(sim.next_event_time() + 1.0, grid=0.5)
        log.append(("window", sim.now, wins, sim.window_break))
        sim.window_break = False
    return log


@settings(max_examples=200, deadline=None)
@given(_programs(allow_break=False))
# A priority-1 heap entry at the running instant, spawned by its first
# delivery, must dispatch before the second.
@example([("deliver", 1.0, 1, (("late", 0.0, 2, ()),)),
          ("deliver", 1.0, 3, ())])
def test_bucketed_deliveries_dispatch_like_one_timeout_each(roots):
    assert _run_program(Simulator(), roots) \
        == _run_program(OneTimeoutPerItem(), roots)


@settings(max_examples=100, deadline=None)
@given(_programs(allow_break=True))
@example([("break", 1.0, 1, ()), ("deliver", 1.0, 2, ())])
def test_bucketed_deliveries_honour_window_break(roots):
    """``run_window`` returns after exactly the same dispatch, with the
    same executed-window count, when a delivery in the middle of a
    shared instant raises the break."""
    assert _run_program(Simulator(), roots, window=True) \
        == _run_program(OneTimeoutPerItem(), roots, window=True)


def test_one_kernel_event_per_arrival_instant():
    sim = Simulator()
    got = []
    for lane in (3, 1, 2, 1):
        sim.deliver(1.0, lane, got.append, lane)
    sim.deliver(2.0, 1, got.append, "later")
    assert sim.pending_events == 2
    sim.run()
    assert got == [1, 1, 2, 3, "later"]
    assert sim.events_processed == 2


def test_raising_delivery_keeps_the_rest_of_its_instant():
    sim = Simulator()
    got = []

    def boom(_arg):
        raise RuntimeError("handler failed")

    sim.deliver(1.0, 1, boom, None)
    sim.deliver(1.0, 2, got.append, "a")
    with pytest.raises(RuntimeError):
        sim.run()
    sim.deliver(0.0, 3, got.append, "b")  # joins the same instant
    sim.run()
    assert got == ["a", "b"]
    assert sim.pending_events == 0


def test_negative_delivery_delay_rejected():
    with pytest.raises(ValueError):
        Simulator().deliver(-1.0, 1, print, None)
