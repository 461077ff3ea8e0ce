"""Tests for directory-tree partitioning across namespace servers (§3.1).

The paper notes the tree "can be partitioned among multiple metadata
servers"; the sharded namespace is that partitioning, so these tests run
on a two-primary ``namespace_shards`` deployment.
"""

from repro.cluster import small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.params import SorrentoParams


def deploy(seed=121):
    """Two namespace primaries, built from config like every deployment."""
    spec = small_cluster(4, n_compute=2, capacity_per_node=8 << 30)
    dep = SorrentoDeployment(
        spec, SorrentoConfig(params=SorrentoParams(), seed=seed,
                             namespace_shards=2),
    )
    dep.warm_up()
    return dep


def test_directories_shard_across_servers():
    dep = deploy()
    client = dep.client_on("c00")

    def work():
        for i in range(12):
            yield from client.mkdir(f"/dir{i}")
            fh = yield from client.open(f"/dir{i}/f", "w", create=True)
            yield from client.close(fh)

    dep.run(work())
    counts = [sum(1 for k, _ in srv.db.items(low="f:", high="f;"))
              for srv in dep.ns_shard_servers.values()]
    assert len(counts) == 2
    assert sum(counts) == 12
    # Both partitions hold a share (hash spreads 12 top dirs).
    assert all(c > 0 for c in counts), counts


def test_root_listing_merges_partitions():
    dep = deploy()
    client = dep.client_on("c00")

    def work():
        for name in ("alpha", "beta", "gamma", "delta", "epsilon"):
            yield from client.mkdir(f"/{name}")
        listing = yield from client.listdir("/")
        return listing

    listing = dep.run(work())
    assert listing == ["alpha/", "beta/", "delta/", "epsilon/", "gamma/"]


def test_deployment_builds_partitions():
    spec = small_cluster(4, n_compute=2, capacity_per_node=8 << 30)
    dep = SorrentoDeployment(
        spec,
        SorrentoConfig(params=SorrentoParams(), seed=7, namespace_shards=2),
    )
    dep.warm_up()
    client = dep.client_on("c00")
    assert dep.ns_shard_map is not None
    assert sorted(client.router.shards) == sorted(dep.ns_shard_servers)
    assert len(dep.ns_shard_servers) == 2

    def work():
        yield from client.mkdir("/x")
        fh = yield from client.open("/x/f", "w", create=True)
        yield from client.close(fh)
        entry = yield from client.stat("/x/f")
        return entry["version"]

    assert dep.run(work()) == 1
