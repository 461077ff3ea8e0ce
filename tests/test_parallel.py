"""Conservative-parallel kernel: partition planning, transit, and the
serial-vs-parallel determinism contract.

The contract under test: with a fixed partition map and seed, the
``mp`` backend (K forked workers) and its oracle, the ``serial``
backend (one Simulator hosting every partition of the partitioned
model), produce identical results — down to per-session completion
timestamps, which are floats and therefore only equal when every event
interleaving matches.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.params import SorrentoParams
from repro.experiments.partitioned import (
    build_fig10_program,
    build_scale_program,
    partition_for_spec,
    run_fig10_partitioned,
    run_scale_point_partitioned,
)
from repro.sim.parallel import (
    PartitionMap,
    _grid_ceil,
    _grid_next,
    plan_partitions,
    run_partitioned,
)
from repro.tools.inspector import ClusterInspector

GB = 1 << 30

SCALE_HOSTS = [f"s{i:02d}" for i in range(8)] + [f"c{i:02d}" for i in range(20)]
SCALE_POINT = (8, 256, 40, 1.0)  # providers, files, sessions, duration
SCALE_PHASES = [("until", 3.0), ("call", None), ("procs", None)]


# ----------------------------------------------------------- partition map
def test_plan_partitions_balances_storage_and_spreads_compute():
    pmap = plan_partitions([f"s{i}" for i in range(10)],
                           [f"c{i}" for i in range(5)], 3)
    sizes = pmap.sizes()
    assert sum(sizes) == 15
    storage_sizes = [0, 0, 0]
    for i in range(10):
        storage_sizes[pmap.pid(f"s{i}")] += 1
    assert sorted(storage_sizes) == [3, 3, 4]
    assert [pmap.pid(f"c{i}") for i in range(5)] == [0, 1, 2, 0, 1]


def test_plan_partitions_groups_racks():
    racks = {"s0": "r1", "s1": "r2", "s2": "r1", "s3": "r2"}
    pmap = plan_partitions(["s0", "s1", "s2", "s3"], [], 2, racks=racks)
    assert pmap.pid("s0") == pmap.pid("s2")
    assert pmap.pid("s1") == pmap.pid("s3")
    assert pmap.pid("s0") != pmap.pid("s1")


def test_unknown_hosts_are_local_to_everyone():
    pmap = PartitionMap({"a": 0, "b": 1}, 2)
    assert pmap.is_cross("a", "b")
    assert not pmap.is_cross("a", "late-joiner")
    assert not pmap.is_cross("late-joiner", "b")


def test_grid_math():
    L = 4e-4
    assert _grid_next(0.0, L) == L
    assert _grid_next(L, L) == 2 * L
    assert _grid_ceil(L, L) == L
    assert _grid_ceil(0.0, L) == 0.0
    t = 123.4567
    assert _grid_next(t, L) > t
    assert math.isclose(_grid_next(t, L) % L, 0.0, abs_tol=1e-12) \
        or math.isclose(_grid_next(t, L) % L, L, abs_tol=1e-12)


# --------------------------------------------------- determinism contract
def _scale_outcome(pmap, backend):
    """Per-session (idx, completion time, ok) rows — float-exact."""
    out = run_partitioned(build_scale_program,
                          (SCALE_POINT, 0, True, pmap), pmap, SCALE_PHASES,
                          backend=backend, fabric_latency=80e-6)
    rows = sorted(r for res in out["results"] for r in res["rows"])
    assert len(rows) == SCALE_POINT[2]
    return rows


@settings(max_examples=5, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=len(SCALE_HOSTS),
                max_size=len(SCALE_HOSTS)))
def test_random_partition_maps_reproduce_serial_order(pids):
    """Any 2-way cut of the small cluster: mp == serial, down to
    per-session completion timestamps."""
    pmap = PartitionMap(dict(zip(SCALE_HOSTS, pids)), 2,
                        cross_latency=5e-3)
    assert _scale_outcome(pmap, "serial") == _scale_outcome(pmap, "mp")


def test_mp_backend_matches_serial():
    spec = small_cluster(SCALE_POINT[0], n_compute=20,
                         capacity_per_node=4 * GB,
                         name=f"scale-{SCALE_POINT[0]}")
    pmap = partition_for_spec(spec, 2, cross_latency=5e-3)
    assert _scale_outcome(pmap, "serial") == _scale_outcome(pmap, "mp")


def test_fig10_partitioned_golden():
    """Pin the partitioned fig10_reduced smoke result (fixed map, fixed
    seed): the macro suite's parallel entry must not drift silently, and
    serial/mp must agree on it."""
    rows = {}
    for backend in ("serial", "mp"):
        rows[backend] = run_fig10_partitioned(
            n_clients=2, duration=1.5, n_storage=4, workers=2,
            backend=backend, cross_latency=5e-3)
    assert rows["serial"]["digest"] == rows["mp"]["digest"]
    assert rows["serial"]["tags"] == rows["mp"]["tags"]
    # The pinned golden (regenerate deliberately if the model changes;
    # last re-recorded for the kernel's same-instant delivery-lane
    # tie-break, which replaced insertion-order arbitration):
    assert rows["serial"]["tags"] == {"c0": 30, "c1": 13}
    assert rows["serial"]["digest"] == "8c1f5970ed7995be"
    assert rows["serial"]["sessions"] == 43


def test_three_way_cut_fig10():
    spec_storage = [f"a{i:02d}" for i in range(4)]
    spec_compute = [f"ac{i:02d}" for i in range(3)]
    pmap = plan_partitions(spec_storage, spec_compute, 3,
                           cross_latency=5e-3)
    meta = [("until", 8.0), ("procs", None), ("procs", None)]

    def tags_for(backend):
        out = run_partitioned(build_fig10_program, (3, 1.0, 4, 0, pmap),
                              pmap, meta, backend=backend,
                              fabric_latency=80e-6)
        tags = {}
        for r in out["results"]:
            tags.update(r["tags"])
        return sorted(tags.items())

    serial = tags_for("serial")
    assert serial == tags_for("mp")
    assert sum(n for _t, n in serial) > 0


# --------------------------------------------------- multi-window grants
@settings(max_examples=3, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=len(SCALE_HOSTS),
                max_size=len(SCALE_HOSTS)))
def test_grant_batching_is_bit_identical(pids):
    """Multi-window grants must not change a single event interleaving:
    for random 3-way cuts, the forked workers under the adaptive grant
    cap yield the same per-session float-exact rows as the serial
    oracle."""
    pmap = PartitionMap(dict(zip(SCALE_HOSTS, pids)), 3,
                        cross_latency=5e-3)
    assert _scale_outcome(pmap, "serial") == _scale_outcome(pmap, "mp")


def test_grants_never_deliver_into_executed_span(monkeypatch):
    """Safety invariant of the grant rule: by the time a record reaches
    its destination worker, that worker's executed frontier must not
    have passed the record's arrival time — and a grant must carry all
    pending inbound records with it (none held back behind a barrier).

    The workers run in forked children, so the check sits on the
    parent's side of each pipe: every reply reports the worker's
    frontier, and every later grant's records must arrive at or after
    it.
    """
    from repro.sim import parallel

    orig_post = parallel._PipeEndpoint.post
    orig_wait = parallel._PipeEndpoint.wait
    frontier = {}
    grants = []

    def checked_post(self, cmd):
        if cmd[0] == "win":
            _op, t_end, inbound = cmd
            pos = frontier.get(id(self), 0.0)
            if inbound:
                first = min(rec[0] for rec in inbound)
                assert first >= pos - 1e-15, (
                    f"record at {first} delivered behind frontier {pos}")
            assert t_end >= pos
            grants.append(len(inbound))
        return orig_post(self, cmd)

    def recording_wait(self):
        reply = orig_wait(self)
        if isinstance(reply, tuple) and reply[4] is not None:
            frontier[id(self)] = reply[4]
        return reply

    monkeypatch.setattr(parallel._PipeEndpoint, "post", checked_post)
    monkeypatch.setattr(parallel._PipeEndpoint, "wait", recording_wait)
    spec = small_cluster(SCALE_POINT[0], n_compute=20,
                         capacity_per_node=4 * GB,
                         name=f"scale-{SCALE_POINT[0]}")
    pmap = partition_for_spec(spec, 2, cross_latency=5e-3)
    out = run_partitioned(build_scale_program,
                          (SCALE_POINT, 0, True, pmap), pmap, SCALE_PHASES,
                          backend="mp", fabric_latency=80e-6)
    assert frontier and grants
    assert sum(grants) == out["stats"].records_shipped
    assert out["stats"].records_shipped > 0


# ------------------------------------------------------ phase accounting
def test_partitioned_row_counts_only_the_window_phase(monkeypatch):
    """A partitioned row's ``events`` (and so ``events_per_s``) is what
    the measured sessions phase executed, not each worker's whole-run
    count with formation and preload folded in."""
    from repro.sim import parallel

    counts = {}
    orig_start = parallel._Worker._start_phase
    orig_handle = parallel._Worker.handle

    def start(self, idx, t_start):
        counts.setdefault("starts", []).append(self.sim._nprocessed)
        return orig_start(self, idx, t_start)

    def handle(self, cmd):
        if cmd[0] == "result":
            counts["end"] = self.sim._nprocessed
        return orig_handle(self, cmd)

    monkeypatch.setattr(parallel._Worker, "_start_phase", start)
    monkeypatch.setattr(parallel._Worker, "handle", handle)
    row = run_scale_point_partitioned(
        SCALE_POINT[0], SCALE_POINT[1], SCALE_POINT[2], SCALE_POINT[3],
        workers=2, backend="serial", smoke_preload=True)
    window_start = counts["starts"][2]
    assert window_start > 0         # formation ran events of its own
    assert row["events"] == counts["end"] - window_start
    assert row["worker_events"] == [counts["end"]]


# ------------------------------------------------------ substrate details
def test_dormant_shells_build_identically_but_stay_quiet():
    spec = small_cluster(4, n_compute=2, capacity_per_node=4 * GB)
    pmap = partition_for_spec(spec, 2)
    dep = SorrentoDeployment(spec, SorrentoConfig(
        params=SorrentoParams(), partition=pmap, local_partition=0))
    # Full shell set, partial daemon set.
    assert len(dep.nodes) == 6
    assert len(dep.provider_names) == 4
    local = {h for h in dep.provider_names if pmap.pid(h) == 0}
    assert set(dep.providers) == local
    for name, node in dep.nodes.items():
        if pmap.pid(name) != 0:
            assert node.dormant
            assert node.spawn(x for x in ()) is None
            assert node._monitor is None
        else:
            assert not node.dormant


def test_serial_with_map_transit_and_inspector_report():
    """Serial-with-map is a plain single-Simulator run: cross-partition
    heartbeats flow through the transit, land in the metrics registry's
    partition scope, and surface in the inspector."""
    spec = small_cluster(4, n_compute=2, capacity_per_node=4 * GB)
    pmap = partition_for_spec(spec, 2)
    dep = SorrentoDeployment(spec, SorrentoConfig(
        params=SorrentoParams(), partition=pmap))
    dep.warm_up(3.0)
    transit = dep.transit
    assert transit is not None
    assert transit.records_out > 0
    assert transit.delivered > 0
    assert transit.dropped == 0
    matrix = transit.cross_matrix()
    assert "p0->p1" in matrix and "p1->p0" in matrix
    # The registry view of the same traffic.
    stats = dict(dep.metrics.items("partition"))
    assert stats[("partition", "p0->p1")].oneways == \
        sum(cnt for (_h, d), (cnt, _b) in transit.traffic_out.items()
            if d == 1 and pmap.pid(_h) == 0)
    report = ClusterInspector(dep).partition_report()
    assert report["n_partitions"] == 2
    assert report["records_out"] == transit.records_out
    assert report["cut_edges"] > 0
    assert report["noisiest_hosts"]


def test_unpartitioned_deployment_has_no_transit():
    spec = small_cluster(2, n_compute=1, capacity_per_node=4 * GB)
    dep = SorrentoDeployment(spec, SorrentoConfig(params=SorrentoParams()))
    assert dep.transit is None
    assert dep.fabric.transit is None
    assert ClusterInspector(dep).partition_report() == {}
