"""Client-side namespace routing: the metadata front door's core.

Every namespace RPC a :class:`SorrentoClient` issues goes through one
:class:`NamespaceRouter`.  The namespace is a set of primaries, each
with an optional hot standby; the router supports two deployments of
it:

- **unsharded** — one primary (the paper's single server).  The route
  is a constant: no route cache, no redirects, epoch 0.
- **sharded** — the directory tree is partitioned across N shard
  primaries by top-level prefix on a consistent-hash ring.  The router
  keeps its own ring snapshot plus a TTL'd route cache keyed by
  *(shard-epoch, prefix)*; when a ring change makes a cached route
  stale, the server's ``EWRONGSHARD`` redirect carries the owner and
  the new epoch, the router learns both, and the epoch in the cache key
  strands every stale entry at once (no redirect loops).

Either way a call resolves a primary and runs one failover loop over
its ``[primary, standby]`` list, rotating to the next host on RPC
timeout.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.client.handle import (
    ConflictError,
    NotFoundError,
    SorrentoError,
    TimeoutError,
    WrongShardError,
)
from repro.core.hashing import HashRing
from repro.core.location import TtlCache
from repro.core.namespace import _prefix_point, shard_prefix
from repro.network.message import RpcRemoteError, RpcTimeout

#: Metadata ops a read-only namespace mirror can answer (bounded-stale
#: snapshots are the mirror contract; anything mutating must go to the
#: authoritative shard).
READ_ONLY = frozenset({"ns_lookup", "ns_list"})


def _namespace_error(error: str) -> SorrentoError:
    """Map a remote ``NamespaceError`` string onto the typed hierarchy."""
    if "EWRONGSHARD" in error:
        owner: Optional[str] = None
        epoch = 0
        for tok in error.split():
            if tok.startswith("owner="):
                owner = tok[len("owner="):]
            elif tok.startswith("epoch="):
                try:
                    epoch = int(tok[len("epoch="):])
                except ValueError:
                    pass
        return WrongShardError(error, owner=owner, epoch=epoch)
    if "ENOENT" in error:
        return NotFoundError(error)
    if "EEXIST" in error or "ENOTEMPTY" in error:
        return ConflictError(error)
    return SorrentoError(error)


class NamespaceRouter:
    """Resolves the namespace server that owns a path and calls it.

    ``shards`` maps each primary's hostid to its failover host list
    ``[primary, standby]``; an unsharded namespace is the one-primary
    case.  ``epoch`` is the shard map's epoch, 0 when unsharded.
    ``note`` is the client's cache-stats hook (``route_hits`` /
    ``route_misses`` / ``ns_redirects``).
    """

    def __init__(self, rpc, sim, params, shards: Dict[str, List[str]],
                 epoch: int = 0,
                 note: Optional[Callable[..., None]] = None):
        self.rpc = rpc
        self.sim = sim
        self.params = params
        self.shards: Dict[str, List[str]] = {
            name: list(hosts) for name, hosts in shards.items()
        }
        # Epoch 0 = unsharded (a constant, so epoch-composed cache keys
        # degenerate to plain path keys); sharded routers start at the
        # deployment's epoch and advance as redirects teach them.
        self.sharded = epoch > 0
        self.epoch = epoch
        self._primary = next(iter(self.shards))
        self._ring = HashRing(params.ns_shard_vnodes)
        self._route_cache = TtlCache(params.ns_route_cache_ttl,
                                     params.ns_route_cache_capacity)
        self._shard_active: Dict[str, int] = {}
        self._note = note or (lambda counter, n=1: None)
        # Geo-aware reads: a full-tree namespace mirror (usually on this
        # client's own tier) preferred for read-only metadata ops, so a
        # WAN satellite resolves lookups without a central roundtrip.
        self.mirror: Optional[str] = None

    # ------------------------------------------------------------ resolve
    def owner_shard(self, path: str) -> str:
        """Best-known owning primary, bypassing the route cache (used
        for same-shard vs cross-shard decisions)."""
        if not self.sharded:
            return self._primary
        return self._ring.home_host(_prefix_point(shard_prefix(path)),
                                    sorted(self.shards))

    def shard_for(self, path: str) -> str:
        """Owning primary for ``path``, through the (epoch, prefix)
        cache when sharded."""
        if not self.sharded:
            return self._primary
        prefix = shard_prefix(path)
        now = self.sim.now
        cached = self._route_cache.get((self.epoch, prefix), now)
        if cached is not None:
            self._note("route_hits")
            return cached
        self._note("route_misses")
        shard = self._ring.home_host(_prefix_point(prefix),
                                     sorted(self.shards))
        self._route_cache.put((self.epoch, prefix), shard, now)
        return shard

    def route_host(self, path: str) -> str:
        """The single host a path-addressed RPC would go to right now."""
        shard = self.owner_shard(path)
        hosts = self.shards.get(shard) or [shard]
        return hosts[self._shard_active.get(shard, 0) % len(hosts)]

    def learn(self, path: str, owner: Optional[str], epoch: int) -> None:
        """Absorb an ``EWRONGSHARD`` redirect: adopt the newer epoch
        (stranding every route cached under the old one) and pin the
        prefix to the named owner."""
        if epoch > self.epoch:
            self.epoch = epoch
        if owner is None:
            return
        if owner not in self.shards:
            self.shards[owner] = [owner]
        self._route_cache.put((self.epoch, shard_prefix(path)), owner,
                              self.sim.now)

    def learn_shards(self, epoch: int, shards: List[str]) -> List[str]:
        """Absorb a shard-map snapshot (piggybacked on a root-listing
        reply).  On a newer epoch the known shard set is replaced with
        the authoritative one (keeping any standby lists already
        learned); on the same epoch it is unioned.  Returns the shard
        names that are new to this router."""
        if epoch < self.epoch:
            return []
        new = [s for s in shards if s not in self.shards]
        if epoch > self.epoch:
            self.epoch = epoch
            self.shards = {s: self.shards.get(s, [s]) for s in shards}
        else:
            for s in new:
                self.shards[s] = [s]
        return new

    # --------------------------------------------------------------- call
    def call(self, service: str, payload, size: int = 64, rtts: int = 1):
        """Issue one namespace RPC: resolve the owning primary, fail over
        to its standby on timeout, and chase ``EWRONGSHARD`` redirects
        (only shard servers send them).  Raises the typed client
        errors."""
        if self.mirror is not None and service in READ_ONLY:
            try:
                result = yield from self.rpc.call(
                    self.mirror, service, payload, size=size, rtts=rtts,
                )
            except RpcRemoteError as exc:
                if "NamespaceError" not in exc.error:
                    raise
                err = _namespace_error(exc.error)
                if not isinstance(err, NotFoundError):
                    raise err from exc
                # Not in the mirror (yet): bounded staleness means the
                # entry may exist centrally — fall through and ask the
                # authoritative server over the WAN.
                self._note("mirror_fallbacks")
            except RpcTimeout:
                self._note("mirror_fallbacks")
            else:
                self._note("mirror_hits")
                return result
        path = payload if isinstance(payload, str) else payload.get("path", "")
        redirects = 0
        while True:
            shard = self.shard_for(path)
            hosts = self.shards.get(shard) or [shard]
            last_exc = None
            for _attempt in range(len(hosts)):
                active = self._shard_active.get(shard, 0) % len(hosts)
                try:
                    result = yield from self.rpc.call(
                        hosts[active], service, payload,
                        size=size, rtts=rtts,
                    )
                    return result
                except RpcRemoteError as exc:
                    if "NamespaceError" not in exc.error:
                        raise
                    err = _namespace_error(exc.error)
                    if isinstance(err, WrongShardError):
                        redirects += 1
                        self._note("ns_redirects")
                        self.learn(path, err.owner, err.epoch)
                        if redirects > self.params.ns_redirect_limit:
                            raise err from exc
                        break  # re-resolve against the repaired route
                    raise err from exc
                except RpcTimeout as exc:
                    # Primary unreachable: rotate to its standby.
                    last_exc = exc
                    self._shard_active[shard] = (active + 1) % len(hosts)
            else:
                raise TimeoutError(
                    f"namespace server {shard} unreachable: {last_exc}"
                ) from last_exc
