"""Macro benchmark: a reduced Figure-10 run, wall-clock timed.

Figure 10 (small-file session throughput) is the experiment whose shape
dominates every other figure: many clients looping create/write/close
sessions against a Sorrento deployment, each session a burst of
namespace + location + provider RPCs.  The macro benchmark runs it at
reduced scale and reports wall time, events/second, and the peak event
backlog, so kernel changes are judged on the workload that actually
bottlenecks the reproduction.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.bench.harness import drive_procs, stats
from repro.experiments.common import cluster_a_like, sorrento_on
from repro.workloads.smallfile import session_loop


def reduced_fig10(n_clients: int = 6, duration: float = 8.0,
                  n_storage: int = 8, seed: int = 0) -> Dict:
    """Sessions/second for ``n_clients`` Figure-10 clients, wall-timed."""
    dep = sorrento_on(cluster_a_like(n_storage=n_storage, n_clients=n_clients),
                      n_providers=n_storage, degree=2, seed=seed)
    clients = dep.clients_on_compute(n_clients)
    try:
        dep.run(clients[0].mkdir("/tput"))
    except Exception:
        pass
    counter = [0]
    base_events = dep.sim.events_processed
    procs = [
        dep.sim.process(session_loop(c, f"c{i}", counter, duration))
        for i, c in enumerate(clients)
    ]
    t0 = time.perf_counter()
    peak = drive_procs(dep.sim, procs)
    wall = time.perf_counter() - t0
    row = stats(dep.sim, wall, counter[0], peak,
                events=dep.sim.events_processed - base_events)
    row["sessions"] = counter[0]
    row["sessions_per_sim_s"] = round(counter[0] / duration, 1)
    return row


def run_macro_suite(smoke: bool = False, repeat: int = 1,
                    verbose: bool = True) -> Dict[str, Dict]:
    from repro.bench.datapath_bench import locate_storm, stripe_readwrite
    from repro.bench.diskengine_bench import flush_storm, smallfile_churn
    from repro.bench.harness import run_suite

    from repro.experiments.partitioned import run_fig10_partitioned

    if smoke:
        benches = {
            "fig10_reduced": lambda: reduced_fig10(
                n_clients=2, duration=1.5, n_storage=4),
            # Partitioned twin: same workload cut across 2 forked event
            # loops (a large cross-latency keeps the window count
            # CI-friendly at smoke scale).
            "fig10_reduced_parallel": lambda: run_fig10_partitioned(
                n_clients=2, duration=1.5, n_storage=4, workers=2,
                backend="mp", cross_latency=5e-3),
            "locate_storm": lambda: locate_storm(
                n_clients=2, rounds=2, reads_per_round=8, n_storage=4),
            "locate_storm_nocache": lambda: locate_storm(
                cached=False, n_clients=2, rounds=2, reads_per_round=8,
                n_storage=4),
            "stripe_readwrite": lambda: stripe_readwrite(
                n_clients=1, rounds=2),
            "stripe_readwrite_nocache": lambda: stripe_readwrite(
                cached=False, n_clients=1, rounds=2),
            "smallfile_churn": lambda: smallfile_churn(
                n_clients=1, rounds=2, reads_per_round=8),
            "smallfile_churn_nocache": lambda: smallfile_churn(
                cached=False, n_clients=1, rounds=2, reads_per_round=8),
            "flush_storm": lambda: flush_storm(n_clients=1, writes=12),
            "flush_storm_nocache": lambda: flush_storm(
                cached=False, n_clients=1, writes=12),
        }
    else:
        benches = {
            "fig10_reduced": lambda: reduced_fig10(),
            # The conservative-parallel kernel on the same reduced run:
            # 2 forked partition workers under the default inter-switch
            # cross-latency.  Note the model differs on the cut edges
            # (store-and-forward + uplink hop), so compare wall/session
            # trends, not per-session results, against fig10_reduced.
            "fig10_reduced_parallel": lambda: run_fig10_partitioned(
                workers=2, backend="mp"),
            # The *_nocache twins replay the seed data path (caches and
            # vectoring off) so every entry records before/after RPC
            # counts side by side.
            "locate_storm": lambda: locate_storm(),
            "locate_storm_nocache": lambda: locate_storm(cached=False),
            "stripe_readwrite": lambda: stripe_readwrite(),
            "stripe_readwrite_nocache": lambda: stripe_readwrite(
                cached=False),
            # Provider storage-engine pair: _nocache replays the raw-disk
            # path (cache_bytes=0), the cached run exercises page cache +
            # write-back + coalescing scheduler.  Compare sim_ms_per_op.
            "smallfile_churn": lambda: smallfile_churn(),
            "smallfile_churn_nocache": lambda: smallfile_churn(
                cached=False),
            "flush_storm": lambda: flush_storm(),
            "flush_storm_nocache": lambda: flush_storm(cached=False),
        }
    return run_suite(benches, repeat=repeat, verbose=verbose)
