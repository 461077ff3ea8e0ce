"""The benchmark's workloads, driven from outside the program.

Each workload builds a ``SorrentoDeployment`` with every simulator
parameter passed explicitly, lets the cluster form, plants or creates
its files, then runs a measured window of client operations through the
client stubs.  Ops are recorded as ``(start, end, ok, nbytes)`` in
simulated seconds.  See README.md for why these workloads were chosen.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.cluster import small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.params import SorrentoParams
from repro.experiments.common import cluster_a_like, cluster_b_like
from repro.experiments.scale_model import (
    ARRIVAL_BINS,
    FILE_SIZE,
    N_CLIENT_STUBS,
    N_TENANTS,
    READ_SIZE,
    ZIPF_S,
    _diurnal_cum_weights,
    _tenant_file,
    _zipf_cum_weights,
)
from repro.workloads import btio
from repro.workloads.replay import replay
from repro.workloads.smallfile import SMALL_IO

KB = 1 << 10
GB = 1 << 30

#: Every ``SorrentoParams`` field at the value the benchmark runs with.
#: Passing them all keeps a later change to the program's defaults from
#: moving a workload; workloads override a few below.
BASE_PARAMS: Dict[str, object] = {
    "heartbeat_interval": 1.0,
    "refresh_cycle": 900.0,
    "join_refresh_delay_max": 20.0,
    "purge_age_factor": 2.5,
    "ring_vnodes": 64,
    "shadow_ttl": 300.0,
    "keep_versions": 2,
    "commit_grant_ttl": 5.0,
    "default_degree": 1,
    "eager_propagation": False,
    "repair_delay": 20.0,
    "repair_cooldown": 30.0,
    "repair_grace": 25.0,
    "repair_bandwidth": 4e6,
    "default_alpha": 0.5,
    "migrate_alpha_io": 0.8,
    "migrate_alpha_space": 0.3,
    "migration_interval": 60.0,
    "migration_top_fraction": 0.1,
    "migration_sigma": 3.0,
    "small_segment_bytes": 64 * KB,
    "home_boost_enabled": True,
    "migrations_per_round": 4,
    "segment_affinity": 0.85,
    "locality_threshold": 0.6,
    "locality_history": 1000,
    "locality_segments": 1000,
    "locality_min_samples": 20,
    "attach_max": 60 * KB,
    "loc_cache_enabled": True,
    "loc_cache_ttl": 30.0,
    "loc_cache_capacity": 4096,
    "entry_cache_enabled": False,
    "entry_cache_ttl": 2.0,
    "entry_cache_capacity": 1024,
    "meta_cache_enabled": True,
    "meta_cache_ttl": 60.0,
    "meta_cache_capacity": 256,
    "vectored_io": True,
    "ns_shard_vnodes": 16,
    "ns_route_cache_ttl": 30.0,
    "ns_route_cache_capacity": 4096,
    "ns_redirect_limit": 4,
    "cache_bytes": 0,
    "page_size": 16 * KB,
    "writeback": True,
    "flush_interval": 0.5,
    "dirty_watermark": 0.25,
    "readahead_pages": 2,
    "ns_op_cpu": 6e-4,
    "provider_op_cpu": 3e-4,
    "provider_byte_cpu": 2e-8,
    "client_op_cpu": 1e-4,
    "ns_checkpoint_interval": 300.0,
    "rpc_timeout": 5.0,
    "open_rtts": 2,
    "close_rtts": 3,
}


def make_params(overrides: Dict[str, object]) -> Tuple[SorrentoParams, Dict]:
    """``SorrentoParams`` with every known field set explicitly.

    Returns the params and a note of any mismatch with the program: keys
    it no longer has (skipped) and fields the benchmark does not set
    (left at the program's default).  Both land in the printed row."""
    values = dict(BASE_PARAMS, **overrides)
    fields = {f.name for f in dataclasses.fields(SorrentoParams)}
    note = {"params_skipped": sorted(set(values) - fields),
            "params_defaulted": sorted(fields - set(values))}
    return SorrentoParams(**{k: v for k, v in values.items()
                             if k in fields}), note


class SpanClient:
    """A client stub proxy that records one simulated-clock span per
    call: ``(name, start, end, parent, ok)``.  ``parent`` is the id of
    the session or replayer the loop driving it has set.  With ``ops``,
    every call is also a measured op ``(start, end, ok, nbytes)``."""

    def __init__(self, client, spans: list, parent: str = "",
                 ops: Optional[list] = None) -> None:
        self._client = client
        self._spans = spans
        self._ops = ops
        self.sim = client.sim
        self.parent = parent

    def __getattr__(self, name):
        return getattr(self._client, name)

    def _span(self, name, gen, nbytes=0):
        t0 = self.sim.now
        ok = False
        try:
            result = yield from gen
            ok = True
            return result
        finally:
            self._spans.append((name, t0, self.sim.now, self.parent, ok))
            if self._ops is not None:
                self._ops.append((t0, self.sim.now, ok, nbytes))

    def open(self, *a, **k):
        return self._span("open", self._client.open(*a, **k))

    def read(self, fh, offset, size, **k):
        return self._span("read", self._client.read(fh, offset, size, **k),
                          size)

    def write(self, fh, offset, size, **k):
        return self._span("write", self._client.write(fh, offset, size, **k),
                          size)

    def close(self, *a, **k):
        return self._span("close", self._client.close(*a, **k))


class Workload:
    """One benchmark workload; subclasses fill in the cluster and ops."""

    name = ""
    formation_s = 0.0
    max_window_sim_s = 600.0

    def build(self, seed: int) -> Tuple[SorrentoDeployment, Dict]:
        raise NotImplementedError

    def prepare(self, dep, meter) -> None:
        """Plant or create files and set up the clients (preload phase)."""
        raise NotImplementedError

    def launch(self, dep, ops: list, spans) -> list:
        """Spawn the window's processes; ``spans`` is None when untraced."""
        raise NotImplementedError

    def verify(self, dep, meter, ops: list) -> List[str]:
        """Correctness checks after the window; returns violations."""
        return []


def _mkdir(meter, client, path: str) -> None:
    proc = meter.sim.process(client.mkdir(path))
    meter.drive([proc], max_sim_s=60.0)
    if not proc.ok:
        raise RuntimeError(f"mkdir {path} failed: {proc.value!r}")


class SmallfileCreate(Workload):
    """Figure 10's closed loop: 6 clients each loop create / write
    12 KB / close on Sorrento-(8,2) over a Cluster A-like spec."""

    name = "smallfile_create"
    formation_s = 8.0
    n_clients = 6
    duration = 20.0

    def build(self, seed):
        params, note = make_params({"default_degree": 2})
        spec = cluster_a_like(n_storage=10, n_clients=17, capacity=21 * GB)
        return SorrentoDeployment(spec, SorrentoConfig(
            params=params, seed=seed, n_providers=8)), note

    def prepare(self, dep, meter):
        self.clients = dep.clients_on_compute(self.n_clients)
        _mkdir(meter, self.clients[0], "/tput")
        self.paths: List[str] = []

    def launch(self, dep, ops, spans):
        deadline = dep.sim.now + self.duration
        return [dep.sim.process(self._loop(
                    c if spans is None else SpanClient(c, spans),
                    f"c{i}", deadline, ops, spans))
                for i, c in enumerate(self.clients)]

    def _loop(self, client, tag, deadline, ops, spans):
        sim = client.sim
        i = 0
        while sim.now < deadline:
            path = f"/tput/{tag}-{i:06d}"
            if spans is not None:
                client.parent = path
            t0 = sim.now
            ok = False
            try:
                fh = yield from client.open(path, "w", create=True)
                yield from client.write(fh, 0, SMALL_IO)
                yield from client.close(fh)
                ok = True
                self.paths.append(path)
            except Exception:   # noqa: BLE001 - a failed session is counted
                pass
            ops.append((t0, sim.now, ok, SMALL_IO))
            if spans is not None:
                spans.append(("session", t0, sim.now, tag, ok))
            i += 1

    def verify(self, dep, meter, ops):
        """Every completed session's file must open at 12 KB."""
        bad: List[str] = []
        client = self.clients[0]

        def check():
            for path in self.paths:
                fh = yield from client.open(path, "r")
                if fh.size != SMALL_IO:
                    bad.append(f"{path}: size {fh.size} != {SMALL_IO}")
                yield from client.close(fh)

        proc = dep.sim.process(check())
        meter.drive([proc], max_sim_s=3600.0)
        if not proc.ok:
            bad.append(f"verification failed: {proc.value!r}")
        if len(self.paths) != sum(1 for op in ops if op[2]):
            bad.append("completed sessions and created files disagree")
        return bad[:5]


class ScaleReadSessions(Workload):
    """100 providers at the paper's 1 s heartbeat: formation, a preload
    of ~20k 16 KB Zipf-tenant files, then open-loop open / read 8 KB /
    close sessions with diurnal arrivals.  3,000 sessions over 18 s is
    1,000 per 6 s, three times as long, so that p99 has 30 samples
    beyond it and holds steady across seeds."""

    name = "scale_read_sessions"
    n_providers = 100
    n_files = 20_000
    n_sessions = 3000
    duration = 18.0
    join_delay = 2.0
    formation_s = join_delay + 1.0

    def build(self, seed):
        params, note = make_params({
            "heartbeat_interval": 1.0,
            "refresh_cycle": 120.0,
            "migration_interval": 600.0,
            "ring_vnodes": 64,
            "join_refresh_delay_max": self.join_delay,
        })
        spec = small_cluster(self.n_providers, n_compute=N_CLIENT_STUBS + 4,
                             capacity_per_node=4 * GB, disks_per_node=1,
                             disk="ultrastar-dk32ej", cpu_ghz=1.4,
                             name=f"scale-{self.n_providers}")
        return SorrentoDeployment(spec, SorrentoConfig(
            params=params, seed=seed)), note

    def prepare(self, dep, meter):
        fpt = self.n_files // N_TENANTS
        dep.preload_files(((_tenant_file(t, i), FILE_SIZE)
                           for t in range(N_TENANTS) for i in range(fpt)),
                          degree=1)
        rng = dep.rngs.py("scale-sessions")
        n = self.n_sessions
        tenants = rng.choices(range(N_TENANTS),
                              cum_weights=_zipf_cum_weights(N_TENANTS, ZIPF_S),
                              k=n)
        bins = rng.choices(range(ARRIVAL_BINS),
                           cum_weights=_diurnal_cum_weights(ARRIVAL_BINS), k=n)
        self.plan = [(_tenant_file(tenants[i], rng.randrange(fpt)),
                      (bins[i] + rng.random()) * (self.duration / ARRIVAL_BINS))
                     for i in range(n)]
        self.clients = dep.clients_on_compute(N_CLIENT_STUBS)

    def launch(self, dep, ops, spans):
        procs = []
        for i, (path, delay) in enumerate(self.plan):
            client = self.clients[i % N_CLIENT_STUBS]
            if spans is not None:
                client = SpanClient(client, spans, parent=f"s{i:05d}")
            procs.append(dep.sim.process(self._session(
                client, path, delay, ops, spans, f"stub{i % N_CLIENT_STUBS}")))
        return procs

    @staticmethod
    def _session(client, path, delay, ops, spans, stub):
        sim = client.sim
        due = sim.now + delay
        yield sim.timeout(delay)
        ok = False
        try:
            fh = yield from client.open(path, "r")
            yield from client.read(fh, 0, READ_SIZE)
            yield from client.close(fh)
            ok = True
        except Exception:   # noqa: BLE001 - a failed session is counted
            pass
        # Timed from the scheduled arrival.  The generator is never late
        # in simulated time, so this equals the time from the first call.
        ops.append((due, sim.now, ok, READ_SIZE))
        if spans is not None:
            spans.append(("session", due, sim.now, stub, ok))

    def verify(self, dep, meter, ops):
        if len(ops) != self.n_sessions:
            return [f"{len(ops)} of {self.n_sessions} sessions accounted for"]
        return []


class BtioReplay(Workload):
    """Figure 12's BTIO class B at the paper's full volume: 4 replayers
    write ~2.7 GB of strided chunks to one shared file and read ~1.7 GB
    back, on Sorrento-(8,1) over a Cluster B-like spec.  Not gated by
    BENCHMARK.json (see README.md): it is run by hand."""

    name = "btio_replay"
    formation_s = 8.0
    n_procs = 4
    max_window_sim_s = 7200.0

    def build(self, seed):
        params, note = make_params({"default_degree": 1})
        spec = cluster_b_like(n_storage=8, n_clients=17, capacity=176 * GB)
        return SorrentoDeployment(spec, SorrentoConfig(
            params=params, seed=seed, n_providers=8)), note

    def prepare(self, dep, meter):
        btio.create_shared_file(dep, scale=1.0)
        self.traces = btio.make_traces(n_procs=self.n_procs, scale=1.0)
        self.clients = dep.clients_on_compute(self.n_procs)

    def launch(self, dep, ops, spans):
        # Every trace request is an op, so the proxy runs untraced too;
        # its spans are only kept when traced.
        self.spans = [] if spans is None else spans
        self.procs = [dep.sim.process(replay(
                          SpanClient(c, self.spans, tr.name, ops=ops), tr))
                      for c, tr in zip(self.clients, self.traces)]
        return self.procs

    def verify(self, dep, meter, ops):
        """Bytes moved equal the trace totals minus the failed requests."""
        stats = [p.value for p in self.procs]
        moved = sum(s.bytes_read + s.bytes_written for s in stats)
        total = sum(r.size for tr in self.traces for r in tr
                    if r.op in ("read", "write"))
        failed = sum(op[3] for op in ops if not op[2])
        bad = []
        if moved != total - failed:
            bad.append(f"moved {moved} B, expected {total} - {failed} B")
        if sum(s.errors for s in stats) != sum(1 for op in ops if not op[2]):
            bad.append("replay errors and failed requests disagree")
        return bad


WORKLOADS = {w.name: w for w in (SmallfileCreate, ScaleReadSessions,
                                 BtioReplay)}
