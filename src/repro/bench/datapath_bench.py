"""Data-path micro-benchmarks: location traffic and vectored stripe I/O.

Two workloads bracket the client caching/batching plane:

``locate_storm``
    Many clients issue small random reads against one preloaded linear
    file.  Uncached, every read costs a ``loc_lookup`` roundtrip plus a
    ``seg_read``; with the location cache the lookup disappears after
    the first touch of each segment.

``stripe_readwrite``
    Each client writes and reads back a striped file whose stripe
    units land on a handful of owners.  Unvectored, every stripe piece
    is its own ``seg_read``/``seg_write`` RPC; vectored, pieces sharing
    an owner travel together.

Both run in a ``cached`` (default parameters) and a ``nocache``
(caches and vectoring disabled — the seed data path) variant, so one
suite run records the before/after RPC counts side by side.
"""

from __future__ import annotations

import random
import time
from typing import Dict

from repro.bench.harness import drive_procs, stats
from repro.experiments.common import cluster_a_like, sorrento_on

MB = 1 << 20

#: Parameter overrides reproducing the seed (pre-cache) data path.
NOCACHE = {
    "loc_cache_enabled": False,
    "entry_cache_enabled": False,
    "meta_cache_enabled": False,
    "vectored_io": False,
}


def _datapath_row(dep, wall: float, ops: int, peak: int,
                  events: int) -> Dict:
    """The standard stats row plus the RPC/cache counters under test."""
    row = stats(dep.sim, wall, ops, peak, events=events)

    def calls(svc: str) -> int:
        st = dep.metrics.get("client", svc)
        return st.calls if st else 0

    row["loc_lookup_rpcs"] = calls("loc_lookup")
    row["seg_read_rpcs"] = calls("seg_read")
    row["seg_read_vec_rpcs"] = calls("seg_read_vec")
    row["seg_write_rpcs"] = calls("seg_write")
    row["seg_write_vec_rpcs"] = calls("seg_write_vec")
    row["data_path_rpcs"] = (
        row["loc_lookup_rpcs"] + row["seg_read_rpcs"]
        + row["seg_read_vec_rpcs"] + row["seg_write_rpcs"]
        + row["seg_write_vec_rpcs"]
    )
    for key in ("loc_hits", "loc_misses", "loc_stale",
                "meta_hits", "vec_rpcs", "vec_pieces"):
        row[key] = sum(c.stats.get(key, 0) for c in dep.clients)
    return row


def locate_storm(cached: bool = True, n_clients: int = 4, rounds: int = 6,
                 reads_per_round: int = 24, file_mb: int = 16,
                 n_storage: int = 8, seed: int = 0) -> Dict:
    """Small random reads against one shared linear file."""
    overrides = {} if cached else dict(NOCACHE)
    dep = sorrento_on(
        cluster_a_like(n_storage=n_storage, n_clients=n_clients),
        n_providers=n_storage, degree=2, seed=seed, **overrides)
    size = file_mb * MB
    dep.preload_file("/storm", size, degree=2)
    clients = dep.clients_on_compute(n_clients)
    counter = [0]

    def storm(client, rng):
        for _ in range(rounds):
            fh = yield from client.open("/storm", "r")
            for _ in range(reads_per_round):
                offset = rng.randrange(0, size - 4096)
                yield from client.read(fh, offset, 4096)
                counter[0] += 1
            yield from client.close(fh)

    base_events = dep.sim.events_processed
    procs = [
        dep.sim.process(storm(c, random.Random(seed * 1000 + i)))
        for i, c in enumerate(clients)
    ]
    t0 = time.perf_counter()
    peak = drive_procs(dep.sim, procs)
    wall = time.perf_counter() - t0
    row = _datapath_row(dep, wall, counter[0], peak,
                        dep.sim.events_processed - base_events)
    row["rpcs_per_read"] = round(row["data_path_rpcs"] / max(counter[0], 1), 2)
    return row


def stripe_readwrite(cached: bool = True, n_clients: int = 2,
                     rounds: int = 4, io_bytes: int = MB,
                     stripe_count: int = 8, n_storage: int = 4,
                     seed: int = 0) -> Dict:
    """Striped write-then-read sessions, one file per client."""
    overrides = {} if cached else dict(NOCACHE)
    dep = sorrento_on(
        cluster_a_like(n_storage=n_storage, n_clients=n_clients),
        n_providers=n_storage, degree=1, seed=seed, **overrides)
    clients = dep.clients_on_compute(n_clients)
    counter = [0]
    file_size = rounds * io_bytes

    def session(client, idx):
        path = f"/stripe{idx}"
        fh = yield from client.open(
            path, "w", create=True, organization="striped",
            stripe_count=stripe_count, fixed_size=file_size)
        for r in range(rounds):
            yield from client.write(fh, r * io_bytes, io_bytes,
                                    sequential=True)
            counter[0] += 1
        yield from client.close(fh)
        fh = yield from client.open(path, "r")
        for r in range(rounds):
            yield from client.read(fh, r * io_bytes, io_bytes,
                                   sequential=True)
            counter[0] += 1
        yield from client.close(fh)

    base_events = dep.sim.events_processed
    procs = [dep.sim.process(session(c, i)) for i, c in enumerate(clients)]
    t0 = time.perf_counter()
    peak = drive_procs(dep.sim, procs)
    wall = time.perf_counter() - t0
    row = _datapath_row(dep, wall, counter[0], peak,
                        dep.sim.events_processed - base_events)
    row["rpcs_per_io"] = round(row["data_path_rpcs"] / max(counter[0], 1), 2)
    return row
