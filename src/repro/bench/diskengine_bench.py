"""Storage-engine micro-benchmarks: hot small reads and write bursts.

Two workloads bracket the provider-side page cache / write-back /
scheduler plane added by ``repro.storage.engine``:

``smallfile_churn``
    Clients repeatedly re-read a hot set of 4 KB blocks.  Raw disk,
    every read pays seek + half-rotation (~8 ms of simulated time);
    with the page cache only the first touch of each page misses, and
    subsequent reads cost a memcpy.  This is the paper's Section 6.2
    small-file gap: the kernel buffer cache NFS servers enjoy.

``flush_storm``
    Clients scatter small random-offset writes over a fixed-size file,
    then close (commit) it.  Raw disk, every write is its own
    positioned transfer; with write-back the writes acknowledge at
    memory speed and the commit-time sync flushes whole-page runs that
    the scheduler coalesces into a handful of large transfers.

Both run ``cached`` (engine on) and ``_nocache`` (``cache_bytes=0`` —
the seed raw-disk path) so one suite run records the simulated per-op
latency and the disk-scope counters side by side.  The interesting
column is ``sim_ms_per_op``: the engine saves *simulated* disk time,
which host wall time only tracks loosely.
"""

from __future__ import annotations

import random
import time
from typing import Dict

from repro.bench.harness import drive_procs, stats
from repro.experiments.common import cluster_a_like, sorrento_on

MB = 1 << 20

#: Parameter overrides enabling the provider storage engine (the default
#: SorrentoParams keeps ``cache_bytes=0`` to preserve recorded goldens).
ENGINE = {
    "cache_bytes": 64 * MB,
    "writeback": True,
}


def _disk_row(dep, wall: float, ops: int, peak: int, sim_elapsed: float,
              events: int) -> Dict:
    """The standard stats row plus the engine counters under test."""
    row = stats(dep.sim, wall, ops, peak, events=events)
    row["sim_ms_per_op"] = round(1e3 * sim_elapsed / max(ops, 1), 3)
    keys = ("cache_hits", "cache_misses", "writes_absorbed", "coalesced",
            "readahead_pages", "flush_batches", "flush_pages",
            "sync_flushes", "queue_peak")
    totals = dict.fromkeys(keys, 0)
    for provider in dep.providers.values():
        engine = provider.node.fs.engine
        if engine is None:
            continue
        for key in keys:
            if key == "queue_peak":
                totals[key] = max(totals[key], engine.stats[key])
            else:
                totals[key] += engine.stats[key]
    row.update(totals)
    return row


def smallfile_churn(cached: bool = True, n_clients: int = 2, rounds: int = 6,
                    reads_per_round: int = 16, hot_blocks: int = 16,
                    n_storage: int = 4, seed: int = 0) -> Dict:
    """Repeated 4 KB reads over a small hot set of one file's blocks."""
    overrides = dict(ENGINE) if cached else {}
    dep = sorrento_on(
        cluster_a_like(n_storage=n_storage, n_clients=n_clients),
        n_providers=n_storage, degree=1, seed=seed, **overrides)
    size = 4 * MB
    dep.preload_file("/churn", size, degree=1)
    clients = dep.clients_on_compute(n_clients)
    counter = [0]
    stride = size // hot_blocks

    def churn(client, rng):
        offsets = [rng.randrange(0, stride // 4096) * 4096
                   + b * stride for b in range(hot_blocks)]
        for _ in range(rounds):
            fh = yield from client.open("/churn", "r")
            for r in range(reads_per_round):
                yield from client.read(fh, offsets[r % hot_blocks], 4096)
                counter[0] += 1
            yield from client.close(fh)

    base_events = dep.sim.events_processed
    sim0 = dep.sim.now
    procs = [
        dep.sim.process(churn(c, random.Random(seed * 1000 + i)))
        for i, c in enumerate(clients)
    ]
    t0 = time.perf_counter()
    peak = drive_procs(dep.sim, procs)
    wall = time.perf_counter() - t0
    return _disk_row(dep, wall, counter[0], peak, dep.sim.now - sim0,
                     dep.sim.events_processed - base_events)


def flush_storm(cached: bool = True, n_clients: int = 2, writes: int = 48,
                region_kb: int = 512, n_storage: int = 4, seed: int = 0) -> Dict:
    """Scattered 4 KB writes into a fixed-size file, then commit.

    Offsets are random (not appends) so the provider cannot mark them
    sequential — raw disk pays positioning per write.  The region is
    small enough that the dirty pages form adjacent runs, so write-back
    absorbs the writes at memory speed and the commit-time sync flushes
    them as a few coalesced transfers instead of one seek per write.
    """
    overrides = dict(ENGINE) if cached else {}
    dep = sorrento_on(
        cluster_a_like(n_storage=n_storage, n_clients=n_clients),
        n_providers=n_storage, degree=1, seed=seed, **overrides)
    clients = dep.clients_on_compute(n_clients)
    counter = [0]
    region = region_kb * 1024

    def storm(client, idx, rng):
        path = f"/storm{idx}"
        fh = yield from client.open(path, "w", create=True,
                                    fixed_size=region)
        for _ in range(writes):
            offset = rng.randrange(0, region // 4096) * 4096
            yield from client.write(fh, offset, 4096)
            counter[0] += 1
        yield from client.close(fh)

    base_events = dep.sim.events_processed
    sim0 = dep.sim.now
    procs = [
        dep.sim.process(storm(c, i, random.Random(seed * 1000 + i)))
        for i, c in enumerate(clients)
    ]
    t0 = time.perf_counter()
    peak = drive_procs(dep.sim, procs)
    wall = time.perf_counter() - t0
    return _disk_row(dep, wall, counter[0], peak, dep.sim.now - sim0,
                     dep.sim.events_processed - base_events)
