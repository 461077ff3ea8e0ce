"""Pathname operations against the namespace server(s) (Section 3.1).

All routing — primary/standby failover and the sharded namespace with
redirect chasing — lives in :class:`repro.core.client.router.NamespaceRouter`;
this mixin is the operation vocabulary on top of it.  Cross-shard
rename/link run a two-phase commit over the owning shards'
staged-mutation handlers.
"""

from __future__ import annotations

from typing import Optional

from repro.core.client.handle import ConflictError
from repro.core.twophase import CommitAborted, two_phase_commit
from repro.sim import gather

NS_2PC_SERVICES = ("ns_prepare", "ns_commit", "ns_abort")


def _parent_dir(path: str) -> str:
    head = path.rpartition("/")[0]
    return head or "/"


class NamespaceOpsMixin:
    """Namespace RPCs: lookup, create, directories, leases, milestones."""

    # ------------------------------------------------------------ routing
    @property
    def ns_host(self) -> str:
        """The namespace server the root currently routes to
        (failover-aware)."""
        return self.router.route_host("/")

    def _entry_key(self, path: str):
        """Entry-cache key: (shard-epoch, path), so a ring change
        strands every entry cached under the old routing at once."""
        return (self.router.epoch, path)

    def _call_ns(self, service: str, payload, size: int = 64, rtts: int = 1):
        result = yield from self.router.call(service, payload,
                                             size=size, rtts=rtts)
        return result

    # ------------------------------------------------------------ dir ops
    def mkdir(self, path: str):
        """Create a directory on the namespace server."""
        result = yield from self._call_ns("ns_mkdir", path)
        return result

    def rmdir(self, path: str):
        """Remove an empty directory."""
        result = yield from self._call_ns("ns_rmdir", path)
        return result

    def listdir(self, path: str):
        if path == "/" and self.router.sharded:
            # The root spans every shard: ask each primary and merge.
            # Shard servers piggyback their shard-map snapshot on root
            # listings (the one namespace op that cannot redirect) so a
            # stale client discovers shards it has never been bounced to.
            def list_on(host):
                reply = yield from self.rpc.call(host, "ns_list", "/", size=64)
                return reply

            fanout = [hosts[0] for hosts in self.router.shards.values()]
            parts = yield from gather(
                self.sim, [list_on(h) for h in fanout])
            newest = max(parts, key=lambda part: part["epoch"])
            new = self.router.learn_shards(newest["epoch"], newest["shards"])
            extra = [s for s in new if s not in fanout]
            if extra:
                parts += yield from gather(
                    self.sim, [list_on(h) for h in extra])
            return sorted({name for part in parts for name in part["names"]})
        result = yield from self._call_ns("ns_list", path)
        return result

    def stat(self, path: str):
        """The file's namespace entry (FileID, version, policy)."""
        result = yield from self._call_ns("ns_lookup", path)
        return result

    def create(self, path: str, *, degree: Optional[int] = None,
               alpha: Optional[float] = None, organization: str = "linear",
               versioning: bool = True, placement: str = "load",
               stripe_count: int = 4, fixed_size: int = 0):
        """Create an empty file entry (no data segments yet).

        ``organization`` is the data layout mode — "linear", "striped",
        or "hybrid" (named so because ``open()``'s own ``mode`` is the
        r/w open mode).
        """
        fileid = self.ids.new_id()
        req = {
            "path": path, "fileid": fileid,
            "degree": degree if degree is not None else self.params.default_degree,
            "alpha": alpha if alpha is not None else self.params.default_alpha,
            "mode": organization, "versioning": versioning,
            "placement": placement,
            "stripe_count": stripe_count, "fixed_size": fixed_size,
        }
        entry = yield from self._call_ns("ns_create", req, size=160)
        return entry

    # ----------------------------------------------------- rename / link
    def rename(self, src_path: str, dst_path: str):
        """Atomically move a file entry to a new path.

        Same-shard (and unsharded) renames are one ``ns_rename`` RPC;
        when the two paths hash to different namespace servers the move
        runs as a two-phase commit over both shards' staged-mutation
        handlers, so either both the delete of the old name and the
        insert of the new one land, or neither.
        """
        src_target = self.router.route_host(src_path)
        dst_target = self.router.route_host(dst_path)
        if src_target == dst_target:
            moved = yield from self._call_ns(
                "ns_rename", {"path": src_path, "dst": dst_path}, size=96)
        else:
            moved = yield from self._cross_shard_move(
                src_path, dst_path, keep_source=False)
        self.entry_cache.evict(self._entry_key(src_path))
        self.entry_cache.evict(self._entry_key(dst_path))
        return moved

    def link(self, src_path: str, dst_path: str):
        """Alias a file under a second path (both resolve to the same
        FileID).  Cross-shard links use the same 2PC as rename."""
        src_target = self.router.route_host(src_path)
        dst_target = self.router.route_host(dst_path)
        if src_target == dst_target:
            alias = yield from self._call_ns(
                "ns_link", {"path": src_path, "dst": dst_path}, size=96)
        else:
            alias = yield from self._cross_shard_move(
                src_path, dst_path, keep_source=True)
        self.entry_cache.evict(self._entry_key(dst_path))
        return alias

    def _cross_shard_move(self, src_path: str, dst_path: str, *,
                          keep_source: bool):
        entry = yield from self._call_ns("ns_lookup", src_path)
        moved = dict(entry, path=dst_path)
        txid = self.ids.new_id()
        src_ops = [] if keep_source else [{"op": "del", "key": "f:" + src_path}]
        participants = [
            (self.router.route_host(src_path), {
                "txid": txid,
                "checks": [{"key": "f:" + src_path, "must": "present"}],
                "ops": src_ops,
            }),
            (self.router.route_host(dst_path), {
                "txid": txid,
                "checks": [
                    {"key": "f:" + dst_path, "must": "absent"},
                    {"key": "d:" + _parent_dir(dst_path), "must": "present"},
                ],
                "ops": [{"op": "put", "key": "f:" + dst_path, "value": moved}],
            }),
        ]
        try:
            yield from two_phase_commit(self.rpc, participants, req_size=192,
                                        services=NS_2PC_SERVICES)
        except CommitAborted as exc:
            raise ConflictError(
                f"rename {src_path} -> {dst_path} aborted: {exc}") from exc
        return moved

    # ------------------------------------------------------------ leases
    def acquire_lease(self, path: str, duration: float = 30.0):
        """Write-lock lease: cooperative writers avoid commit conflicts
        by holding the lease across their session (Section 3.5)."""
        resp = yield from self._call_ns(
            "ns_acquire_lease", {"path": path, "duration": duration},
            size=96)
        return resp["status"] == "ok"

    def release_lease(self, path: str):
        """Release a previously-acquired write-lock lease."""
        result = yield from self._call_ns("ns_release_lease", {"path": path})
        return result
