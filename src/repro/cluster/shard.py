"""One shard of a clustered name service.

``ShardService`` wraps an ordinary :class:`~repro.nameserver.server
.NameServer` (or :class:`~repro.nameserver.replication.Replica`) with
four cluster behaviours, leaving the storage engine untouched:

* **ownership enforcement** — a keyed request whose first path component
  hashes outside this shard's ranges raises a typed
  :class:`~repro.cluster.errors.WrongShard` carrying the shard's current
  map, so a stale client re-routes in one round trip;
* **scatter filtering** — whole-tree enquiries (``list_dir(())``,
  ``read_subtree(())``, ``count``, wildcard ``glob``) answer only for
  *owned* components, so a scatter-gather across all shards never
  double-counts a key mid-migration;
* **dual-write mirroring** — during a migration handoff the donor
  forwards every acked update in the moving range to the target (as
  idempotent ``repair_leaves``), so the target misses nothing between
  the bulk copy and the cutover;

* **replica roles** — when the shard map carries a replica set, only
  the primary acks updates: a follower answers enquiries (read
  failover) but raises a typed
  :class:`~repro.cluster.errors.NotPrimary` redirect for writes, so a
  client racing a promotion re-routes in one round trip.  With
  ``eager_propagate`` the primary synchronously pushes each acked
  update to its peers, putting it on two nodes before the client sees
  the ack — the property the chaos sweep's "no acked update lost"
  invariant rests on.

The replication and repair hooks pass through *unchecked*: peers inside
a shard's replica group, and the migration machinery itself, address the
shard deliberately and must keep working while (and after) ranges move.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.cluster.errors import NotPrimary, WrongShard
from repro.cluster.shardmap import ShardMap
from repro.core.sharding import default_hash
from repro.nameserver.server import nameserver_interface
from repro.nameserver.tree import count_live, parse_path
from repro.rpc import Interface, Int, Pickled, Str, Void


def shard_interface() -> Interface:
    """The name server interface plus the cluster control methods.

    Same wire name and version as ``NAMESERVER_INTERFACE`` — dispatch is
    by method name, so a plain name server client talks to a shard
    unmodified and simply never invokes the extras.
    """
    iface = nameserver_interface()
    iface.method("shard_map", returns=Pickled())
    iface.method(
        "install_shard_map", params=[("payload", Pickled())], returns=Int
    )
    iface.method(
        "begin_mirror",
        params=[("lo", Int), ("hi", Int), ("address", Str)],
        returns=Void,
    )
    iface.method("end_mirror", returns=Int)
    iface.method("shard_status", returns=Pickled())
    iface.error(WrongShard)
    iface.error(NotPrimary)
    return iface


SHARD_INTERFACE = shard_interface()


class ShardService:
    """Ownership, filtering and mirroring around one name server."""

    def __init__(
        self,
        server,
        shard_id: str,
        shard_map: ShardMap,
        forward_factory: Callable[[str], object] | None = None,
        replica_id: str | None = None,
        eager_propagate: bool | Callable[[], None] = False,
    ) -> None:
        self.server = server
        self.shard_id = shard_id
        #: which member of the shard's replica set this node is; the
        #: primary (or a pre-replication single-replica shard) defaults
        #: to the shard id itself
        self.replica_id = replica_id if replica_id is not None else shard_id
        self.map = shard_map
        #: when True, every acked update is synchronously pushed to the
        #: wrapped replica's peers before returning — the acked value is
        #: then on at least two nodes whenever a follower is reachable,
        #: so a single node loss cannot lose it
        self.eager_propagate = eager_propagate
        # address -> client with a repair_leaves method (tests inject
        # loopback factories; production dials a TCP name server).
        self._forward_factory = forward_factory or _tcp_forwarder
        self._lock = threading.Lock()
        self._mirror: tuple[int, int, str] | None = None
        self._forward_client: object | None = None
        self.forwarded = 0
        self.forward_failures = 0
        self.redirects = 0
        self.writes_rejected_not_primary = 0

    # -- ownership ----------------------------------------------------------

    def _owns(self, component: str) -> bool:
        return self.map.shard(self.shard_id).owns(default_hash(component))

    def role(self) -> str:
        """``"primary"`` or ``"follower"`` under the current map."""
        return self.map.shard(self.shard_id).role_of(self.replica_id)

    def _check(self, path) -> tuple:
        parsed = parse_path(path)
        if not self._owns(parsed[0]):
            self.redirects += 1
            raise WrongShard.redirect(self.map, parsed[0])
        return parsed

    def _check_write(self, path) -> tuple:
        """Ownership plus role: only the primary acks updates."""
        parsed = self._check(path)
        if self.role() != "primary":
            self.writes_rejected_not_primary += 1
            raise NotPrimary.redirect(self.map, self.shard_id)
        return parsed

    def _propagate(self) -> None:
        """Push the just-acked update to the replica's peers, eagerly.

        ``eager_propagate`` may be a callable (the serving node's hook,
        which also reconnects peers that were down at boot) or a truthy
        flag meaning "call the wrapped replica's own ``propagate``".

        Best-effort: a dead follower misses the push and is healed by
        anti-entropy later; what matters is that whenever a follower
        *is* reachable, the acked update exists on two nodes before the
        client sees the ack.
        """
        if not self.eager_propagate:
            return
        if callable(self.eager_propagate):
            propagate = self.eager_propagate
        else:
            propagate = getattr(self.server, "propagate", None)
        if propagate is not None:
            try:
                propagate()
            except Exception:
                pass  # counted by the replica's own propagation metrics

    def _mirror_target(self, component: str):
        with self._lock:
            if self._mirror is None:
                return None
            lo, hi, _address = self._mirror
            if not lo <= default_hash(component) < hi:
                return None
            return self._forward_client

    def _forward(self, path: tuple) -> None:
        """Ship the just-applied leaves at/below ``path`` to the target.

        Runs *after* the local commit: the leaves carry their final
        stamps and ``repair_leaves`` is idempotent last-writer-wins, so
        replays and races with the bulk copy are harmless.  A forward
        failure is counted, not raised — the acked update is safe locally
        and the migration's FLUSH stage re-ships the delta before the
        donor purges anything.
        """
        target = self._mirror_target(path[0])
        if target is None:
            return
        try:
            leaves = self.server.read_leaves(path)
            target.repair_leaves(
                [
                    (list(path) + list(rel), value, lamport, origin, deleted)
                    for rel, value, lamport, origin, deleted in leaves
                ]
            )
            self.forwarded += 1
        except Exception:
            self.forward_failures += 1

    # -- keyed enquiries ------------------------------------------------------

    def lookup(self, path):
        return self.server.lookup(self._check(path))

    def exists(self, path) -> bool:
        return self.server.exists(self._check(path))

    def list_dir(self, path=()) -> list[str]:
        if not path:
            return [
                name
                for name in self.server.list_dir(())
                if self._owns(name)
            ]
        return self.server.list_dir(self._check(path))

    def read_subtree(self, path=()) -> list:
        if not path:
            return [
                (rel, value)
                for rel, value in self.server.read_subtree(())
                if self._owns(rel[0])
            ]
        return self.server.read_subtree(self._check(path))

    def count(self) -> int:
        owns = self._owns

        def read(root):
            return sum(
                count_live(child)
                for name, child in root["tree"].children.items()
                if owns(name)
            )

        return self.server.db.enquire(read)

    def glob(self, pattern) -> list:
        from repro.nameserver.browse import parse_pattern

        parsed = parse_pattern(pattern)
        head = parsed[0]
        if not any(mark in head for mark in "*?[") and head != "**":
            self._check((head,))  # a literal first component is keyed
            return self.server.glob(parsed)
        return [
            (path, value)
            for path, value in self.server.glob(parsed)
            if self._owns(path[0])
        ]

    # -- keyed updates --------------------------------------------------------

    def bind(self, path, value, exclusive: bool = False) -> None:
        parsed = self._check_write(path)
        self.server.bind(parsed, value, exclusive)
        self._forward(parsed)
        self._propagate()

    def unbind(self, path) -> None:
        parsed = self._check_write(path)
        self.server.unbind(parsed)
        self._forward(parsed)
        self._propagate()

    def unbind_subtree(self, path) -> None:
        parsed = self._check_write(path)
        self.server.unbind_subtree(parsed)
        self._forward(parsed)
        self._propagate()

    def write_subtree(self, path, entries) -> None:
        parsed = self._check_write(path)
        self.server.write_subtree(parsed, entries)
        self._forward(parsed)
        self._propagate()

    # -- cluster control ------------------------------------------------------

    def shard_map(self) -> dict:
        return self.map.to_wire()

    def install_shard_map(self, payload: dict) -> int:
        """Adopt a newer map; returns the installed epoch.

        Epochs only move forward — a delayed older map must not undo a
        cutover.  Losing a mirrored range to the new map ends the mirror:
        after cutover the donor no longer accepts (so never needs to
        forward) writes in that range.
        """
        incoming = ShardMap.from_wire(payload)
        with self._lock:
            if incoming.epoch <= self.map.epoch:
                return self.map.epoch
            self.map = incoming
            if self._mirror is not None:
                lo, hi, _address = self._mirror
                mine = self.map.shard(self.shard_id)
                if not any(
                    rlo <= lo and hi <= rhi for rlo, rhi in mine.ranges
                ):
                    self._mirror = None
                    self._close_forwarder()
            return self.map.epoch

    def begin_mirror(self, lo: int, hi: int, address: str) -> None:
        """Dual-write every update in [lo, hi) to the shard at ``address``."""
        with self._lock:
            self._close_forwarder()
            self._forward_client = self._forward_factory(address)
            self._mirror = (int(lo), int(hi), address)

    def end_mirror(self) -> int:
        """Stop dual-writing; returns how many updates were forwarded."""
        with self._lock:
            self._mirror = None
            self._close_forwarder()
            return self.forwarded

    def _close_forwarder(self) -> None:
        client, self._forward_client = self._forward_client, None
        if client is not None and hasattr(client, "close"):
            try:
                client.close()
            except Exception:
                pass

    def shard_status(self) -> dict:
        mine = self.map.shard(self.shard_id)
        with self._lock:
            mirror = self._mirror
        return {
            "shard_id": self.shard_id,
            "replica_id": self.replica_id,
            "role": self.role(),
            "epoch": self.map.epoch,
            "ranges": [list(r) for r in mine.ranges],
            "span": mine.span(),
            "names": self.count(),
            "mirror": list(mirror) if mirror else None,
            "forwarded": self.forwarded,
            "forward_failures": self.forward_failures,
            "redirects": self.redirects,
            "writes_rejected_not_primary": self.writes_rejected_not_primary,
        }

    # -- pass-through (replication, repair, migration, admin) -----------------

    def summary(self):
        return self.server.summary()

    def updates_since(self, vector):
        return self.server.updates_since(vector)

    def apply_remote(self, records):
        return self.server.apply_remote(records)

    def snapshot_manifest(self, fresh=False):
        return self.server.snapshot_manifest(fresh)

    def snapshot_chunk(self, version, offset, length):
        return self.server.snapshot_chunk(version, offset, length)

    def tree_digest(self, path=()):
        return self.server.tree_digest(path)

    def read_leaves(self, path=()):
        return self.server.read_leaves(path)

    def repair_leaves(self, leaves):
        return self.server.repair_leaves(leaves)

    def components(self):
        return self.server.components()

    def purge_components(self, components):
        return self.server.purge_components(components)

    def checkpoint(self) -> int:
        return self.server.checkpoint()

    def close(self) -> None:
        with self._lock:
            self._close_forwarder()
        self.server.close()

    @property
    def db(self):
        return self.server.db

    @property
    def stats(self):
        return self.server.stats


def _tcp_forwarder(address: str):
    from repro.nameserver.client import RemoteNameServer
    from repro.rpc import TcpTransport

    host, _, port = address.rpartition(":")
    return RemoteNameServer(TcpTransport(host, int(port)))


class RemoteShard:
    """Client facade for one shard: a remote name server plus control.

    Composition over the generated proxy (same transport semantics as
    :class:`~repro.nameserver.client.RemoteNameServer`, which it extends
    via the ``interface=`` hook).
    """

    def __init__(self, transport, **client_options: object):
        from repro.nameserver.client import RemoteNameServer

        self._remote = RemoteNameServer(
            transport, interface=SHARD_INTERFACE, **client_options
        )
        self._proxy = self._remote._proxy

    def __getattr__(self, name: str):
        return getattr(self._remote, name)

    def shard_map(self) -> dict:
        return self._proxy.shard_map()

    def install_shard_map(self, payload: dict) -> int:
        return self._proxy.install_shard_map(dict(payload))

    def begin_mirror(self, lo: int, hi: int, address: str) -> None:
        self._proxy.begin_mirror(int(lo), int(hi), str(address))

    def end_mirror(self) -> int:
        return self._proxy.end_mirror()

    def shard_status(self) -> dict:
        return self._proxy.shard_status()
