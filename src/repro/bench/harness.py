"""Measurement plumbing shared by the kernel and macro benchmarks.

The helpers here deliberately read kernel internals through ``getattr``
fallbacks so the same benchmark code can measure any kernel revision —
that is what makes the ``BENCH_*.json`` before/after trajectory a
like-for-like comparison.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional


def backlog(sim) -> int:
    """Pending events (heap + any immediate FIFOs the kernel keeps)."""
    n = getattr(sim, "pending_events", None)
    if n is not None:
        return n
    return len(sim._heap)


def has_events(sim) -> bool:
    return backlog(sim) > 0


def drive_procs(sim, procs, sample_every: int = 4096) -> int:
    """Step the sim until every process finishes; returns the peak backlog.

    Uses a completion countdown (not a per-step scan) so the driver adds
    O(1) per event on every kernel revision being measured.
    """
    remaining = [len(procs)]

    def _done(_ev):
        remaining[0] -= 1

    for p in procs:
        if p.triggered:
            remaining[0] -= 1
        else:
            p.add_callback(_done)
    peak = backlog(sim)
    steps = 0
    step = sim.step
    while remaining[0] > 0:
        # An empty schedule raises IndexError out of step(); catching it
        # there keeps the per-step cost to the step itself instead of a
        # getattr-chained backlog probe before every event.
        try:
            step()
        except IndexError:
            raise RuntimeError(
                "benchmark deadlock: processes pending, no events") from None
        steps += 1
        if steps % sample_every == 0:
            b = backlog(sim)
            if b > peak:
                peak = b
    return peak


def stats(sim, wall: float, ops: int, peak: int,
          events: Optional[int] = None) -> Dict:
    """The per-benchmark result row recorded in BENCH_*.json.

    ``events`` is the wall-timed window's own event count; left out, the
    kernel's whole-run counter is used (right only when nothing ran
    before the window)."""
    wall = max(wall, 1e-9)
    if events is None:
        events = sim.events_processed
    return {
        "wall_s": round(wall, 4),
        "sim_time_s": round(sim.now, 6),
        "events": events,
        "events_per_s": round(events / wall, 1),
        "ops": ops,
        "ops_per_s": round(ops / wall, 1),
        "peak_pending": peak,
        "swept_timers": getattr(sim, "_nswept", 0),
    }


def run_suite(benches: Dict[str, Callable[[], Dict]],
              repeat: int = 1, verbose: bool = True) -> Dict[str, Dict]:
    """Run each benchmark ``repeat`` times, keeping the best-wall run."""
    results: Dict[str, Dict] = {}
    for name, fn in benches.items():
        best: Optional[Dict] = None
        for _ in range(max(1, repeat)):
            r = fn()
            if best is None or r["wall_s"] < best["wall_s"]:
                best = r
        results[name] = best
        if verbose:
            print(f"[bench] {name}: {best['wall_s']:.3f}s wall, "
                  f"{best['events_per_s']:,.0f} events/s, "
                  f"peak backlog {best['peak_pending']}", file=sys.stderr)
    return results


# ------------------------------------------------------------ JSON output
def bench_entry(label: str, results: Dict[str, Dict], smoke: bool) -> Dict:
    return {
        "label": label,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "smoke": smoke,
        "results": results,
    }


def _headline(first: Dict, last: Dict) -> Dict:
    """Speedups of the latest entry over the recorded baseline."""
    out = {"baseline": first["label"], "latest": last["label"]}
    for name, base in first["results"].items():
        cur = last["results"].get(name)
        if not cur:
            continue
        row = {
            "wall_speedup_x": round(base["wall_s"] / max(cur["wall_s"], 1e-9), 2),
            "wall_reduction_pct": round(
                100.0 * (1.0 - cur["wall_s"] / max(base["wall_s"], 1e-9)), 1),
            # Useful-work throughput: same ops, so this tracks wall speedup
            # even when the optimization deletes bookkeeping events and
            # shrinks the raw events/s numerator.
            "ops_per_s_x": round(
                cur.get("ops_per_s", 0.0) / max(base.get("ops_per_s", 0.0), 1e-9), 2),
            "events_per_s_x": round(
                cur["events_per_s"] / max(base["events_per_s"], 1e-9), 2),
        }
        # Micros that never touch the simulator (e.g. ring_churn) have no
        # event counts; a 0/0 ratio would report a bogus 100.0 removal.
        base_events = base.get("events", 0)
        if base_events:
            row["events_removed_pct"] = round(
                100.0 * (1.0 - cur.get("events", 0) / base_events), 1)
        out[name] = row
    return out


def append_entry(path, entry: Dict, benchmark: str) -> Dict:
    """Append one labelled entry to a BENCH_*.json trajectory file."""
    path = Path(path)
    doc = {"benchmark": benchmark, "entries": []}
    if path.exists():
        try:
            doc = json.loads(path.read_text())
        except (ValueError, OSError):
            pass
    entries: List[Dict] = doc.setdefault("entries", [])
    entries.append(entry)
    comparable = [e for e in entries if e.get("smoke") == entry.get("smoke")]
    if len(comparable) >= 2:
        doc["headline"] = _headline(comparable[0], comparable[-1])
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return doc
