"""Tests for heartbeat membership management (Section 3.3)."""

from repro.cluster import Node, small_cluster
from repro.core.membership import (
    DEATH_FACTOR,
    MembershipManager,
    ProviderInfo,
)
from repro.network import Fabric
from repro.sim import Simulator


def build(n_providers=3, n_listeners=1, interval=1.0):
    sim = Simulator()
    fabric = Fabric(sim)
    spec = small_cluster(n_providers, n_compute=n_listeners)
    nodes = {s.name: Node(sim, fabric, s) for s in spec.nodes}
    providers = {
        s.name: MembershipManager(nodes[s.name], interval, announce=True)
        for s in spec.storage_nodes
    }
    listeners = {
        s.name: MembershipManager(nodes[s.name], interval, announce=False)
        for s in spec.compute_nodes
    }
    return sim, nodes, providers, listeners


def test_everyone_learns_all_providers():
    sim, nodes, providers, listeners = build()
    sim.run(until=5)
    expect = sorted(providers)
    for m in list(providers.values()) + list(listeners.values()):
        assert m.live_providers() == expect


def test_listener_is_not_a_member():
    sim, nodes, providers, listeners = build()
    sim.run(until=5)
    lst = next(iter(listeners))
    assert all(lst not in m.members for m in providers.values())


def test_heartbeat_carries_load_info():
    sim, nodes, providers, listeners = build()
    sim.run(until=5)
    m = next(iter(listeners.values()))
    info = m.info("s00")
    assert isinstance(info, ProviderInfo)
    assert info.available > 0
    assert 0.0 <= info.utilization <= 1.0


def test_dead_provider_removed_after_five_intervals():
    sim, nodes, providers, listeners = build(interval=1.0)
    sim.run(until=5)
    listener = next(iter(listeners.values()))
    t_crash = sim.now
    nodes["s01"].crash()
    # Not yet removed shortly after the crash...
    sim.run(until=t_crash + 2)
    assert "s01" in listener.members
    # ...but gone after 5 missed intervals (+ one check period slack).
    sim.run(until=t_crash + DEATH_FACTOR * 1.0 + 2.5)
    assert "s01" not in listener.members


def test_join_and_leave_callbacks():
    sim, nodes, providers, listeners = build()
    listener = next(iter(listeners.values()))
    joined, left = [], []
    listener.on_join.append(joined.append)
    listener.on_leave.append(left.append)
    sim.run(until=5)
    assert sorted(joined) == sorted(providers)
    nodes["s02"].crash()
    sim.run(until=20)
    assert left == ["s02"]


def test_rejoin_fires_join_again():
    sim, nodes, providers, listeners = build()
    listener = next(iter(listeners.values()))
    joined = []
    listener.on_join.append(joined.append)
    sim.run(until=5)
    nodes["s00"].crash()
    sim.run(until=sim.now + 15)
    assert "s00" not in listener.members
    nodes["s00"].restart()
    providers["s00"].start()
    sim.run(until=sim.now + 5)
    assert "s00" in listener.members
    assert joined.count("s00") == 2


def test_snapshot_is_isolated_copy():
    """The snapshot must stay stable while the live view moves on.

    ProviderInfo records are frozen (heartbeats install replacements,
    never mutate), so a plain dict copy is a true stable snapshot — and
    callers cannot corrupt the live view through a snapshot value.
    """
    import dataclasses

    import pytest

    sim, nodes, providers, listeners = build()
    sim.run(until=5)
    m = next(iter(listeners.values()))
    snap = m.snapshot()
    with pytest.raises(dataclasses.FrozenInstanceError):
        snap["s00"].load = 99.0
    before = snap["s00"]
    sim.run(until=sim.now + 3)  # heartbeats replace the live record
    assert m.info("s00").last_seen > before.last_seen
    assert snap["s00"] is before  # the snapshot did not move


def _quiet_dispatch_rate(n_providers, settle=4.0, span=3.0):
    """Kernel events per simulated second of a formed, idle Sorrento
    cluster at the paper's 1 s heartbeat (join refresh settled, no
    refresh cycle or migration round inside the span)."""
    from repro.core import SorrentoConfig, SorrentoDeployment
    from repro.core.params import SorrentoParams

    params = SorrentoParams(heartbeat_interval=1.0,
                            join_refresh_delay_max=1.0,
                            refresh_cycle=900.0, migration_interval=600.0)
    dep = SorrentoDeployment(small_cluster(n_providers, n_compute=1),
                             SorrentoConfig(params=params, seed=0))
    dep.sim.run(until=settle)
    before = dep.sim.events_processed
    dep.sim.run(until=settle + span)
    return (dep.sim.events_processed - before) / span


def test_quiet_cluster_dispatches_grow_linearly():
    """Heartbeat fan-out costs one kernel event per arrival instant, not
    one per receiver: doubling the providers at most about doubles the
    idle cluster's dispatches (a timeout per copy grew them ~3.9x)."""
    r40 = _quiet_dispatch_rate(40)
    r80 = _quiet_dispatch_rate(80)
    assert r80 < 2.2 * r40, (r40, r80)
