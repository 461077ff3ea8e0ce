"""Scale benchmarks: cluster-state machinery at 100-1000 providers.

Two kinds of probe:

* ``scale_<N>`` — one full :mod:`repro.experiments.scale` point (build a
  cluster of N providers, preload the file population, drive thousands
  of Zipf/diurnal client sessions) run in a **separate process** per
  point, because ``ru_maxrss`` is a process-lifetime high-water mark:
  forking is the only way to attribute peak RSS to a cluster size.
* ``ring_churn`` — the consistent-hash ring under membership churn,
  measured twice over the identical event sequence: the incremental
  splicing ring against a from-scratch rebuild per view change (the
  seed implementation's strategy whenever its per-view cache missed).
  The baseline caches vnode hash points too, so the comparison isolates
  ring *maintenance*, which is what the refactor changed.

The recorded rows keep the harness's common keys (``wall_s``, ``ops``,
``ops_per_s``, ``events``, ``events_per_s``) so ``BENCH_scale.json``
headlines compute like the other trajectories, and add scale-specific
extras (``peak_rss_mb``, ``sim_per_wall``, ``providers``, ``files``).
"""

from __future__ import annotations

import bisect
import json
import random
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Tuple

from repro.bench.harness import run_suite
from repro.core.hashing import HashRing, _point
from repro.experiments.scale import QUICK_POINTS, SCALE_POINTS


# ------------------------------------------------------------ scale points
def _run_point_subprocess(n_providers: int, n_files: int, n_sessions: int,
                          duration: float, seed: int = 0, workers: int = 0,
                          smoke_preload: bool = False) -> Dict:
    """One scale point in a child process; returns its JSON metrics row.

    ``workers > 0`` runs the point on the conservative-parallel kernel
    (the child forks one event loop per partition).
    """
    cmd = [sys.executable, "-m", "repro.experiments.scale",
           "--point", str(n_providers), "--files", str(n_files),
           "--sessions", str(n_sessions), "--duration", str(duration),
           "--seed", str(seed), "--json"]
    if workers:
        cmd += ["--workers", str(workers)]
    if smoke_preload:
        cmd += ["--smoke-preload"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"scale point {n_providers} failed:\n{proc.stderr[-2000:]}")
    row = json.loads(proc.stdout.strip().splitlines()[-1])
    wall = max(row["wall_s"], 1e-9)
    out = {
        # Harness-common keys: "ops" are completed client sessions and
        # wall is the measured-traffic window (setup reported separately).
        "wall_s": row["wall_s"],
        "sim_time_s": row["sim_s"],
        "events": row["events"],
        "events_per_s": row["events_per_s"],
        "ops": row["sessions_done"],
        "ops_per_s": round(row["sessions_done"] / wall, 1),
        "peak_pending": 0,  # not sampled by the scale driver
        # Scale-specific extras:
        "providers": row["providers"],
        "files": row["files"],
        "sessions_failed": row["sessions_failed"],
        "sim_per_wall": row["sim_per_wall"],
        "preload_wall_s": row["preload_wall_s"],
        "total_wall_s": row["total_wall_s"],
        "peak_rss_mb": row["peak_rss_mb"],
    }
    if workers:
        # Parallel-kernel diagnostics recorded alongside (windows/barrier
        # decompose where the wall went; busy walls bound the speedup a
        # multi-core box could realize).
        for key in ("workers", "backend", "windows", "grants",
                    "windows_per_grant", "fallback_rounds",
                    "records_shipped", "shm_batches", "shm_bytes",
                    "shm_fallbacks", "barrier_wall_s", "busy_wall_s",
                    "worker_events", "lookahead_us", "digest"):
            if key in row:
                out[key] = row[key]
    return out


# ------------------------------------------------------------- ring churn
def _churn_sequence(n_hosts: int, n_events: int, lookups_per_event: int,
                    seed: int = 42) -> List[Tuple[List[str], List[int]]]:
    """Deterministic (member view, probe segids) sequence shared by both
    ring variants so they do byte-identical lookup work."""
    rng = random.Random(seed)
    pool = [f"p{i:03d}" for i in range(n_hosts)]
    members = set(pool[: n_hosts // 2])
    seq = []
    for _ in range(n_events):
        host = rng.choice(pool)
        if host in members and len(members) > 2:
            members.discard(host)
        else:
            members.add(host)
        seq.append((sorted(members),
                    [rng.getrandbits(64) for _ in range(lookups_per_event)]))
    return seq


def ring_churn(n_hosts: int = 150, vnodes: int = 32, n_events: int = 1500,
               lookups_per_event: int = 5) -> Dict:
    """Incremental ring vs full rebuild over one churn storm."""
    seq = _churn_sequence(n_hosts, n_events, lookups_per_event)
    n_lookups = n_events * lookups_per_event

    # Baseline: re-sort the whole point array on every view change
    # (vnode points pre-hashed, so only maintenance is measured).
    host_pts = {}
    for view, _keys in seq:
        for h in view:
            if h not in host_pts:
                host_pts[h] = [_point(f"{h}#{i}") for i in range(vnodes)]
    import hashlib

    def _key(segid: int) -> int:
        return int.from_bytes(
            hashlib.sha1(segid.to_bytes(16, "big")).digest()[:8], "big")

    t0 = time.perf_counter()
    sink = 0
    for view, keys in seq:
        pairs = sorted((p, h) for h in view for p in host_pts[h])
        points = [p for p, _ in pairs]
        hosts = [h for _, h in pairs]
        for k in keys:
            i = bisect.bisect_right(points, _key(k))
            sink ^= len(hosts[i if i < len(points) else 0])
    naive_wall = time.perf_counter() - t0

    ring = HashRing(vnodes=vnodes)
    t1 = time.perf_counter()
    for view, keys in seq:
        for k in keys:
            sink ^= len(ring.home_host(k, view))
    inc_wall = max(time.perf_counter() - t1, 1e-9)

    return {
        "wall_s": round(inc_wall, 4),
        "sim_time_s": 0.0,
        "events": 0,
        "events_per_s": 0.0,
        "ops": n_lookups,
        "ops_per_s": round(n_lookups / inc_wall, 1),
        "peak_pending": 0,
        # The before/after pair the refactor is judged on:
        "rebuild_baseline_wall_s": round(naive_wall, 4),
        "speedup_vs_rebuild_x": round(naive_wall / inc_wall, 2),
        "churn_events": n_events,
        "ring_hosts": n_hosts,
        "vnodes": vnodes,
        "bulk_builds": ring.stats["bulk_builds"],
        "splices": ring.stats["splices"],
    }


# ------------------------------------------------------------------ suite
def _median_run(fn: Callable[[], Dict], repeats: int) -> Dict:
    """Run ``fn`` ``repeats`` times and record the median-wall run.

    Scale points are seconds-to-minutes long, so the harness-wide
    best-of-``repeat`` policy (tuned for microbenchmarks) both wastes
    budget and reports an unrepresentatively lucky run.  Here the row
    whose wall is nearest the median is recorded — keeping every other
    column (events, RSS, digests) consistent with the recorded wall —
    and the full wall distribution rides along so a headline reader can
    tell signal from shared-box noise.
    """
    runs = [fn() for _ in range(max(1, repeats))]
    if len(runs) == 1:
        return runs[0]
    walls = sorted(r["wall_s"] for r in runs)
    med = statistics.median(walls)
    pick = dict(min(runs, key=lambda r: abs(r["wall_s"] - med)))
    pick["repeats"] = len(runs)
    pick["wall_s_runs"] = [round(w, 4) for w in walls]
    pick["wall_s_median"] = round(med, 4)
    pick["wall_s_spread_pct"] = round(
        100.0 * (walls[-1] - walls[0]) / max(walls[0], 1e-9), 1)
    return pick


def run_scale_suite(smoke: bool = False, repeat: int = 1,
                    repeats: int = 1) -> Dict[str, Dict]:
    points = QUICK_POINTS if smoke else SCALE_POINTS
    benches = {}
    for n_providers, n_files, n_sessions, duration in points:
        benches[f"scale_{n_providers}"] = (
            lambda n=n_providers, f=n_files, s=n_sessions, d=duration:
            _run_point_subprocess(n, f, s, d))
    if smoke:
        # Smoke trims preload so the budget measures the traffic window,
        # and adds one 2-worker partitioned point for the parallel path.
        n, f, s, d = points[0]
        benches[f"scale_{n}_w2"] = (
            lambda n=n, f=f, s=s, d=d:
            _run_point_subprocess(n, f, s, d, workers=2,
                                  smoke_preload=True))
        benches["ring_churn"] = lambda: ring_churn(n_hosts=60, n_events=200)
    else:
        # Partitioned counterparts of the smallest and largest points:
        # 2 workers at 100 providers, 4 at 1000 (one per planned switch
        # group), both forked.
        n, f, s, d = points[0]
        benches[f"scale_{n}_w2"] = (
            lambda n=n, f=f, s=s, d=d:
            _run_point_subprocess(n, f, s, d, workers=2))
        n, f, s, d = points[-1]
        benches[f"scale_{n}_w4"] = (
            lambda n=n, f=f, s=s, d=d:
            _run_point_subprocess(n, f, s, d, workers=4))
        benches["ring_churn"] = ring_churn
    if repeats > 1:
        benches = {name: (lambda f=fn: _median_run(f, repeats))
                   for name, fn in benches.items()}
    return run_suite(benches, repeat=repeat)
