"""Namespace-shard benchmark: metadata throughput vs client count.

Figure 10 measures small-op throughput as clients are added until the
single namespace server saturates (the paper quotes ~1300 namespace
ops/s).  This suite re-runs that experiment shape against the *sharded*
namespace: a pure metadata workload (create + stat, no data I/O) driven
through regular client stubs at 1, 2, and 4 shards, sweeping the client
count past the 1-shard saturation point.  The headline claim the curve
records: metadata throughput keeps scaling with shards after one
namespace server has flattened out.

Each client owns one top-level directory, so the prefix ring spreads
the population across shards hash-uniformly — the same mechanism the
deployment uses, not a hand-partitioned cheat.

Results land in ``BENCH_scale.json`` under the dedicated
``ns_shard_curve`` key: the file's ``entries``/``headline`` trajectory
compares like against like across PRs, and this curve is a new surface,
not a new measurement of the old one.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence

from repro.bench.harness import run_suite
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.params import SorrentoParams
from repro.experiments.common import run_until_done
from repro.experiments.tiered import tiered_cluster

SHARD_POINTS: Sequence[int] = (1, 2, 4)
CLIENT_POINTS: Sequence[int] = (4, 8, 16, 32, 64, 128)
SMOKE_SHARDS: Sequence[int] = (1, 2)
SMOKE_CLIENTS: Sequence[int] = (4, 8)

DURATION = 8.0
SMOKE_DURATION = 4.0
N_STORAGE = 8


def _md_client(client, dirpath: str, counters: Dict[str, int],
               deadline: float):
    """Closed-loop metadata hammer: create a file, stat it, repeat."""
    sim = client.sim
    yield from client.mkdir(dirpath)
    i = 0
    while sim.now < deadline:
        path = f"{dirpath}/f{i:05d}"
        try:
            yield from client.create(path)
            counters["ops"] += 1
            yield from client.stat(path)
            counters["ops"] += 1
        except Exception:
            counters["failed"] += 1
        i += 1


def metadata_point(n_shards: int, n_clients: int,
                   duration: float = DURATION, seed: int = 0) -> Dict:
    """One (shards, clients) cell of the throughput curve."""
    params = SorrentoParams(default_degree=1)
    dep = SorrentoDeployment(
        tiered_cluster(N_STORAGE, n_clients, 0),
        SorrentoConfig(params=params, seed=seed, n_providers=N_STORAGE,
                       namespace_shards=n_shards))
    dep.warm_up(4.0)
    t0 = dep.sim.now
    counters = {"ops": 0, "failed": 0}
    clients = dep.clients_on_compute(n_clients)
    procs = [dep.sim.process(_md_client(
        c, f"/c{i:02d}", counters, t0 + duration))
        for i, c in enumerate(clients)]

    events0 = dep.sim.events_processed
    wall0 = time.perf_counter()
    run_until_done(dep.sim, procs, max_time=t0 + duration + 60.0)
    wall = max(time.perf_counter() - wall0, 1e-9)
    events = dep.sim.events_processed - events0
    sim_elapsed = dep.sim.now - t0

    redirects = sum(c.stats["ns_redirects"] for c in clients)
    return {
        "wall_s": round(wall, 4),
        "sim_time_s": round(sim_elapsed, 3),
        "events": events,
        "events_per_s": round(events / wall, 1),
        "ops": counters["ops"],
        "ops_per_s": round(counters["ops"] / wall, 1),
        "peak_pending": 0,
        # The Figure-10-style axis: metadata ops per *simulated* second.
        "md_ops_per_s": round(counters["ops"] / max(sim_elapsed, 1e-9), 1),
        "shards": n_shards,
        "clients": n_clients,
        "failed": counters["failed"],
        "ns_redirects": redirects,
    }


def run_nsshard_suite(smoke: bool = False, repeat: int = 1,
                      shards: Optional[Sequence[int]] = None,
                      clients: Optional[Sequence[int]] = None
                      ) -> Dict[str, Dict]:
    shards = shards or (SMOKE_SHARDS if smoke else SHARD_POINTS)
    clients = clients or (SMOKE_CLIENTS if smoke else CLIENT_POINTS)
    duration = SMOKE_DURATION if smoke else DURATION
    benches = {}
    for s in shards:
        for c in clients:
            benches[f"ns{s}_c{c}"] = (
                lambda s=s, c=c: metadata_point(s, c, duration=duration))
    return run_suite(benches, repeat=repeat)


def curve_summary(results: Dict[str, Dict]) -> Dict[str, Dict[str, float]]:
    """{shards: {clients: md_ops_per_s}} — the plottable curve."""
    curve: Dict[str, Dict[str, float]] = {}
    for row in results.values():
        curve.setdefault(str(row["shards"]), {})[str(row["clients"])] = \
            row["md_ops_per_s"]
    return {s: dict(sorted(v.items(), key=lambda kv: int(kv[0])))
            for s, v in sorted(curve.items(), key=lambda kv: int(kv[0]))}
