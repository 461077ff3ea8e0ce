"""Phase accounting: the benchmark's own event loop and phase counters.

Every number here is a delta of a counter read at a phase boundary
(build / formation / preload / window / verify).  Events are counted by
this module's own loop around the public ``Simulator.step()`` and
``next_event_time()``; the kernel's private counters are never read or
written, and whole-run counts are never divided by one phase's wall.
"""

from __future__ import annotations

import gc
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import List, Optional

from repro.network.message import MULTICAST


@dataclass
class Phase:
    """Counter deltas over one phase of one repetition."""

    name: str
    wall_s: float
    gc_s: float                     # host seconds in the cyclic collector
    sim_s: float
    events: int
    rpcs: int
    deliveries: Optional[int]       # counted only in traced repetitions
    multicast_deliveries: Optional[int]


class GcClock:
    """Host seconds spent in Python's cyclic garbage collector, summed
    through ``gc.callbacks`` while the ``with`` block runs."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._t0 = 0.0

    def __enter__(self) -> "GcClock":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *_exc) -> None:
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, _info) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._t0


class DeliveryTally:
    """Counts fabric deliveries by wrapping every host's ``deliver``
    callback.  Installed only in traced repetitions: the wrapper costs
    one Python call per delivery, which an untraced run should not pay."""

    def __init__(self, dep) -> None:
        self.total = 0
        self.multicast = 0
        for node in dep.nodes.values():
            if node.deliver is not None:
                node.deliver = self._wrap(node.deliver)

    def _wrap(self, deliver):
        def counted(msg):
            self.total += 1
            if msg.dst == MULTICAST:
                self.multicast += 1
            deliver(msg)
        return counted


class Meter:
    """Drives one deployment's simulator and records its phases."""

    def __init__(self, dep, gc_clock: GcClock,
                 count_deliveries: bool = False) -> None:
        self.dep = dep
        self.gc_clock = gc_clock
        self.sim = dep.sim
        self.events = 0
        self.phases: List[Phase] = []
        self.tally = DeliveryTally(dep) if count_deliveries else None
        # ``(function, interval_s)`` or None: run by :meth:`drive` every
        # interval of host time; its time is kept out of every phase's wall.
        self.probe = None
        self.probe_times: List[float] = []
        self._probe_s = 0.0

    def run_probe(self) -> None:
        """Run the probe once and record its host seconds."""
        t0 = time.perf_counter()
        self.probe[0]()
        dt = time.perf_counter() - t0
        self.probe_times.append(dt)
        self._probe_s += dt

    def record_build(self, wall_s: float, gc_s: float) -> None:
        """The build phase ran before the deployment (and so the meter)
        existed: it has host time only and processes no event."""
        self.phases.append(Phase("build", wall_s, gc_s, 0.0, 0, 0,
                                 0 if self.tally else None,
                                 0 if self.tally else None))

    def rpcs(self) -> int:
        """Outbound RPC invocations issued so far, cluster-wide."""
        return self.dep.metrics.total_calls("client")

    def _snapshot(self):
        tally = self.tally
        return (time.perf_counter() - self._probe_s, self.gc_clock.seconds,
                self.sim.now,
                self.events, self.rpcs(),
                tally.total if tally else None,
                tally.multicast if tally else None)

    @contextmanager
    def phase(self, name: str):
        before = self._snapshot()
        yield
        after = self._snapshot()
        deltas = [None if b is None else a - b
                  for a, b in zip(after, before)]
        self.phases.append(Phase(name, *deltas))

    # ------------------------------------------------------------ loops
    def advance(self, t_end: float) -> None:
        """Process every event due at or before ``t_end``, then move the
        clock to ``t_end`` (the semantics of ``Simulator.run(until)``)."""
        sim = self.sim
        step = sim.step
        nxt = sim.next_event_time
        n = 0
        while True:
            t = nxt()
            if t is None or t > t_end:
                break
            step()
            n += 1
        self.events += n
        sim.run(until=t_end)   # no event is due by t_end: only the clock moves

    def drive(self, procs, max_sim_s: float) -> None:
        """Step until every process in ``procs`` has finished."""
        sim = self.sim
        remaining = [0]

        def _done(_ev):
            remaining[0] -= 1

        for p in procs:
            if not p.triggered:
                remaining[0] += 1
                p.add_callback(_done)
        limit = sim.now + max_sim_s
        step = sim.step
        clock = time.perf_counter
        every = self.probe[1] if self.probe else math.inf
        due = clock() + every
        n = 0
        while remaining[0]:
            if not sim.pending_events:
                raise RuntimeError("deadlock: processes pending, no events")
            if sim.now > limit:
                raise RuntimeError(f"workload exceeded {max_sim_s} sim s")
            step()
            n += 1
            if not n & 1023 and clock() >= due:
                self.run_probe()
                due = clock() + every
        self.events += n
