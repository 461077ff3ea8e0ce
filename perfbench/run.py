"""The repository benchmark: one workload per process, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload smallfile_create --seed 0 \
        --seconds 20 --trace 0

Each run repeats the whole workload (build, formation, preload, measured
window) at the given seed until ``--seconds`` of host time have passed,
and at least twice.  Every repetition of one seed must produce the same
simulated results and counts; that is one of the correctness checks.

``--trace 0`` reports the end-to-end metrics: host times are taken over
all the repetitions (see :func:`end_to_end`), simulated ones are exact.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics: the
traced ones run under cProfile with a delivery counter installed and
keep one span per client call, written to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name and unit, the phase table and the row
(seed, calibration, phases, layer profile) as JSON.  The exit code is
non-zero when any check fails.  See README.md for the workloads, the
layer map and what the benchmark leaves out.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import heapq
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
MB = 1 << 20

#: Repetitions per run: at least two (the determinism check).
MIN_REPS = 2
#: Set-ups per run: runs whose repetitions are few add set-up-only ones,
#: so ``setup_s`` is always a median of at least this many.
MIN_SETUPS = 5
#: Host seconds of window between two reference probes (untraced only).
PROBE_EVERY_S = 0.8
#: Entries of the table :func:`_walk` reads at random (4 bytes each).
REF_WORDS = 1 << 22


# ------------------------------------------------------------ calibration
def _micro() -> int:
    """A fixed pure-Python loop (integer hash, heap, dict); no repro."""
    h: list = []
    d: dict = {}
    x = 12345
    for i in range(100_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(h, (x & 1023, i))
        d[x & 4095] = i
        if len(h) > 64:
            heapq.heappop(h)
    return len(d)


def calibrate(reps: int = 5) -> float:
    """Median host seconds of :func:`_micro`; recorded with every row so
    a move to another machine reads as a machine change."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _micro()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


_table = None


def make_table() -> None:
    """The fixed 16 MB table of :func:`_walk`, made once per process
    before the first repetition (so ``peak_rss_mb`` always holds it)."""
    global _table
    if _table is None:
        import array
        import random
        _table = array.array(
            "I", random.Random(0).randbytes(4 * REF_WORDS))


def _walk(steps: int = 500_000) -> int:
    """Dependent reads at random over the 16 MB table: memory latency."""
    table, mask, i = _table, REF_WORDS - 1, 0
    for k in range(steps):
        i = (table[i] + k) & mask
    return i


def _spin(steps: int = 400_000) -> int:
    """Integer arithmetic and reads of a small list: interpreter speed
    with the data in cache."""
    small = list(range(1024))
    x = acc = 0
    for _ in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc += small[x & 1023]
    return acc


def probe() -> None:
    """One reference probe, run inside an untraced window every
    ``PROBE_EVERY_S`` (see :meth:`meter.Meter.drive`).  The shared
    host's speed swings by ±20% over tens of seconds, for the program
    and the probe alike, so ``ops_per_ref`` divides the probes' mean
    time out of the window's wall.  Neither half allocates a container,
    so the probes never advance the program's garbage collector."""
    _spin()
    _walk()


# ---------------------------------------------------------- one repetition
def _layer_counters(dep) -> dict:
    """Program counters read at a phase boundary (cheap: no hooks)."""
    cstats = [c.stats for c in dep.clients]
    devices = {name: node.device for name, node in dep.nodes.items()
               if node.device is not None}
    return {
        "rpc": {svc: (st.calls, st.latency_total, st.timeouts)
                for (_scope, svc), st in dep.metrics.items("client")},
        "client": {k: sum(s[k] for s in cstats)
                   for k in ("loc_hits", "loc_misses", "vec_rpcs",
                             "vec_pieces")},
        "disk_busy": {n: d.busy_accum for n, d in devices.items()},
        "disk_bytes": sum(d.bytes_done for d in devices.values()),
        "nic_bytes": sum(n.nic.bytes_sent for n in dep.nodes.values()),
        # The namespace database's write-ahead log (kvstore).
        "wal_bytes": dep.ns.db._wal.bytes_appended,
    }


def run_rep(workload, seed: int, traced: bool = False, verify: bool = False,
            window: bool = True) -> dict:
    """Build, form, preload and run one workload once (without the
    window: set-up only).  A fresh workload object per repetition, so no
    deployment outlives its repetition."""
    from meter import GcClock

    wl = workload()
    gc.collect()
    with GcClock() as gc_clock:
        return _run_rep(wl, seed, traced, verify, window, gc_clock)


def _run_rep(wl, seed, traced, verify, window, gc_clock) -> dict:
    from meter import Meter

    setup_prof = cProfile.Profile() if traced else None
    window_prof = cProfile.Profile() if traced else None
    t0 = time.perf_counter()
    if traced:
        setup_prof.enable()
    dep, note = wl.build(seed)
    build_wall = time.perf_counter() - t0
    meter = Meter(dep, gc_clock, count_deliveries=traced)
    meter.record_build(build_wall, gc_clock.seconds)
    with meter.phase("formation"):
        meter.advance(dep.sim.now + wl.formation_s)
    ops: list = []
    spans = [] if traced else None
    with meter.phase("preload"):
        wl.prepare(dep, meter)
        procs = wl.launch(dep, ops, spans)
    if traced:
        setup_prof.disable()
    if not window:
        return {"phases": meter.phases}
    before = _layer_counters(dep)
    if not traced:
        meter.probe = (probe, PROBE_EVERY_S)
    with meter.phase("window"):
        if traced:
            window_prof.enable()
        meter.drive(procs, wl.max_window_sim_s)
        if traced:
            window_prof.disable()
    if not traced and not meter.probe_times:
        meter.run_probe()   # a window shorter than the interval
    meter.probe = None
    after = _layer_counters(dep)
    violations = []
    if verify:
        with meter.phase("verify"):
            violations = wl.verify(dep, meter, ops)
    rep = {
        "phases": meter.phases,
        "ops": ops,
        "spans": spans,
        "counters": (before, after),
        "peak_pending": dep.sim.peak_pending,
        "probe_times": meter.probe_times,
        "violations": violations,
        "note": note,
    }
    if traced:
        from tracing import fold
        rep["profile"] = {"setup": fold(setup_prof),
                          "window": fold(window_prof)}
    return rep


# ----------------------------------------------------------------- summary
def percentile(sorted_vals, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def summarize(rep: dict) -> dict:
    """The simulated-time results and counts of one repetition; two
    repetitions at one seed must give identical summaries."""
    by = {p.name: p for p in rep["phases"]}
    win = by["window"]
    ops = rep["ops"]
    lat = sorted(end - start for start, end, ok, _b in ops if ok)
    done = len(lat)
    moved = sum(b for _s, _e, ok, b in ops if ok)
    return {
        "attempted": len(ops),
        "done": done,
        "failed": len(ops) - done,
        "mean_ms": 1e3 * sum(lat) / done if lat else 0.0,
        "p50_ms": 1e3 * percentile(lat, 0.50) if lat else 0.0,
        "p99_ms": 1e3 * percentile(lat, 0.99) if lat else 0.0,
        "ops_per_sim_s": done / win.sim_s,
        "mb_per_sim_s": moved / MB / win.sim_s,
        "window_sim_s": win.sim_s,
        "window_events": win.events,
        "window_rpcs": win.rpcs,
        "setup_events": by["formation"].events + by["preload"].events,
        "setup_rpcs": by["formation"].rpcs + by["preload"].rpcs,
    }


def setup_wall(rep: dict) -> float:
    return sum(p.wall_s for p in rep["phases"]
               if p.name in ("build", "formation", "preload"))


def window_wall(rep: dict) -> float:
    return next(p.wall_s for p in rep["phases"] if p.name == "window")


def end_to_end(reps, setups, summary, refs) -> dict:
    done = summary["done"]
    # Summed over the repetitions rather than a median of them: the
    # host's speed drifts in phases longer than one window, and the sum
    # averages over them.
    per_wall_s = done * len(reps) / sum(window_wall(r) for r in reps)
    return {
        "setup_s": (statistics.median(setup_wall(r) for r in setups), "s"),
        "ops_per_wall_s": (per_wall_s, "1/s"),
        # The same rate in units of the probes timed inside the windows:
        # ops completed while the host runs one probe.
        "ops_per_ref": (per_wall_s * statistics.fmean(refs), "ops/ref"),
        "sim_op_mean_ms": (summary["mean_ms"], "ms"),
        "sim_op_p50_ms": (summary["p50_ms"], "ms"),
        "sim_op_p99_ms": (summary["p99_ms"], "ms"),
        "sim_ops_per_s": (summary["ops_per_sim_s"], "1/s"),
        "sim_mb_per_s": (summary["mb_per_sim_s"], "MB/s"),
        "failed_op_fraction": (summary["failed"] / summary["attempted"],
                               "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(plain, traced) -> dict:
    """Layer metrics: counts from the program's counters (window deltas
    unless named ``setup``), self time and calls from the traced runs."""
    from tracing import LAYERS

    rep, trep = plain[0], traced[0]
    s = summarize(rep)
    n = s["done"] or 1
    by = {p.name: p for p in trep["phases"]}
    before, after = rep["counters"]
    win_sim = s["window_sim_s"]
    out = {
        "sim.setup_events": (s["setup_events"], "count"),
        "sim.events_per_op": (s["window_events"] / n, "events/op"),
        "sim.events_per_wall_s": (s["window_events"] * len(plain)
                                  / sum(window_wall(r) for r in plain),
                                  "1/s"),
        "sim.peak_pending": (rep["peak_pending"], "count"),
        "network.deliveries_per_op": (by["window"].deliveries / n,
                                      "deliveries/op"),
        "network.setup_multicast_deliveries": (
            by["formation"].multicast_deliveries
            + by["preload"].multicast_deliveries, "count"),
        "network.multicast_deliveries_per_op": (
            by["window"].multicast_deliveries / n, "deliveries/op"),
        "network.bytes_per_op": ((after["nic_bytes"] - before["nic_bytes"])
                                 / n, "B/op"),
        "runtime.rpcs_per_op": (s["window_rpcs"] / n, "rpcs/op"),
    }
    rpc = {svc: [a - b for a, b in zip(cell, before["rpc"].get(svc, (0, 0, 0)))]
           for svc, cell in after["rpc"].items()}
    calls = sum(c[0] for c in rpc.values())
    out["runtime.rpc_timeouts"] = (sum(c[2] for c in rpc.values()), "count")
    out["runtime.rpc.mean_ms"] = (
        1e3 * sum(c[1] for c in rpc.values()) / calls if calls else 0.0,
        "ms")
    for svc, (ncalls, total, _tmo) in sorted(rpc.items()):
        if ncalls:
            out[f"runtime.{svc}.calls"] = (ncalls, "count")
            out[f"runtime.{svc}.mean_ms"] = (1e3 * total / ncalls, "ms")
    out["runtime.loc_lookup.calls"] = (rpc.get("loc_lookup", [0])[0], "count")
    cl = {k: after["client"][k] - before["client"][k] for k in after["client"]}
    looked = cl["loc_hits"] + cl["loc_misses"]
    out["core.client.loc_hit_ratio"] = (
        cl["loc_hits"] / looked if looked else 0.0, "ratio")
    out["core.client.vec_pieces_per_rpc"] = (
        cl["vec_pieces"] / cl["vec_rpcs"] if cl["vec_rpcs"] else 0.0,
        "pieces/rpc")
    out["core.volume.preload_s"] = (statistics.median(
        next(p.wall_s for p in r["phases"] if p.name == "preload")
        for r in plain), "s")
    busy = [after["disk_busy"][d] - before["disk_busy"][d]
            for d in after["disk_busy"]]
    out["storage.disk.max_utilization"] = (max(busy) / win_sim, "ratio")
    out["storage.disk.bytes_per_op"] = (
        (after["disk_bytes"] - before["disk_bytes"]) / n, "B/op")
    out["kvstore.wal_bytes_per_op"] = (
        (after["wal_bytes"] - before["wal_bytes"]) / n, "B/op")
    for name in LAYERS:
        out[f"{name}.self_s"] = (statistics.median(
            r["profile"]["window"].get(name, (0.0, 0))[0] for r in traced),
            "s")
        out[f"{name}.setup_self_s"] = (statistics.median(
            r["profile"]["setup"].get(name, (0.0, 0))[0] for r in traced),
            "s")
        out[f"{name}.calls"] = (trep["profile"]["window"].get(
            name, (0.0, 0))[1], "count")
    kinds: dict = {}
    for name, start, end, _parent, ok in trep["spans"]:
        if ok:
            kinds.setdefault(name, []).append(end - start)
    for kind, lat in sorted(kinds.items()):
        lat.sort()
        out[f"op.{kind}.sim_mean_ms"] = (1e3 * sum(lat) / len(lat), "ms")
        out[f"op.{kind}.sim_p99_ms"] = (1e3 * percentile(lat, 0.99), "ms")
    out["python.gc_s"] = (statistics.median(
        next(p.gc_s for p in r["phases"] if p.name == "window")
        for r in plain), "s")
    out["trace.overhead_x"] = (statistics.median(
        window_wall(t) / window_wall(p) for p, t in zip(plain, traced)),
        "x")
    return out


# -------------------------------------------------------------------- main
def declared_metrics(kind: str) -> list:
    """The metric names BENCHMARK.json declares for the result line."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[kind]]


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program's sources are missing ({SRC}/repro)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from cases import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    calib = calibrate()

    t_start = time.perf_counter()
    make_table()
    plain, traced = [], []
    while True:
        first = not plain
        plain.append(run_rep(wl, args.seed, traced=False, verify=first))
        if args.trace:
            traced.append(run_rep(wl, args.seed, traced=True, verify=False))
        elapsed = time.perf_counter() - t_start
        nreps = len(plain) + len(traced)
        if nreps >= MIN_REPS and elapsed >= args.seconds:
            break
    setups = list(plain)
    while not args.trace and len(setups) < MIN_SETUPS:
        setups.append(run_rep(wl, args.seed, window=False))
    wall = time.perf_counter() - t_start
    calib_end = calibrate()

    summary = summarize(plain[0])
    violations = list(plain[0]["violations"])
    if summary["attempted"] != summary["done"] + summary["failed"]:
        violations.append("attempted != done + failed")
    for i, rep in enumerate(plain[1:] + traced, start=1):
        if summarize(rep) != summary:
            violations.append(f"repetition {i} differs from the first at "
                              f"the same seed")
    beyond = summary["done"] - math.ceil(0.99 * summary["done"])
    if beyond < 10:
        violations.append(f"p99 over {summary['done']} ops has {beyond} "
                          "samples beyond it, fewer than 10")

    refs = [t for r in plain for t in r["probe_times"]]
    e2e = end_to_end(plain, setups, summary, refs)
    metrics = per_layer(plain, traced) if args.trace else e2e
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    missing = [m for m in declared if m not in metrics]
    if missing:
        violations.append(f"declared metrics not measured: {missing}")
    print(f"workload {wl.name} seed {args.seed} trace {args.trace} "
          f"repetitions {len(plain)}+{len(traced)} wall_s {wall:.2f} "
          f"calibration_s {calib:.5f}")
    print(f"ops attempted {summary['attempted']} done {summary['done']} "
          f"failed {summary['failed']} (p99 has {beyond} samples beyond it)")
    print(f"{'phase':<10}{'wall_s':>10}{'gc_s':>8}{'sim_s':>10}"
          f"{'events':>10}{'rpcs':>9}{'deliveries':>12}")
    for p in (traced or plain)[0]["phases"]:
        dl = "-" if p.deliveries is None else str(p.deliveries)
        print(f"{p.name:<10}{p.wall_s:>10.4f}{p.gc_s:>8.3f}{p.sim_s:>10.3f}"
              f"{p.events:>10}{p.rpcs:>9}{dl:>12}")
    for name, (value, unit) in (e2e | metrics).items():
        print(f"metric {name} {value:.6g} {unit}")
    for v in violations:
        print(f"CHECK FAILED: {v}", file=sys.stderr)
    row = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "calibration_s": calib, "calibration_end_s": calib_end,
        "probe_s": refs,
        "summary": summary,
        "phases": [[p.__dict__ for p in r["phases"]] for r in plain + traced],
        **plain[0]["note"],
    }
    if traced:
        row["profile"] = traced[0]["profile"]
        from tracing import write_spans
        write_spans(os.path.join(OUT, f"spans-{wl.name}-seed{args.seed}"
                                      ".jsonl"), traced[0]["spans"])
    print("row " + json.dumps(row))
    print(json.dumps({
        "correct": not violations,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in declared if k in metrics},
    }))
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
