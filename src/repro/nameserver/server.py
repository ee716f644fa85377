"""The name server: the paper's worked example, over the database core.

``NameServer`` owns a :class:`~repro.core.database.Database` whose root is
the tree-of-hash-tables structure, and exposes:

* **enquiries** — ``lookup``, ``exists``, ``list_dir``, ``read_subtree``,
  ``count`` — pure virtual-memory reads under the shared lock;
* **updates** — ``bind``, ``unbind``, ``unbind_subtree``,
  ``write_subtree`` — each one single-shot transaction, one log entry,
  one disk write;
* **replication hooks** — ``summary``, ``updates_since``,
  ``apply_remote`` — used by :mod:`repro.nameserver.replication`.

The RPC interface (:func:`nameserver_interface`) declares all of these so
remote clients get generated stubs; ``NameServer`` itself is directly
exportable through :class:`repro.rpc.RpcServer`.
"""

from __future__ import annotations

import zlib

from repro.core.database import Database
from repro.core.errors import DatabaseDegraded
from repro.core.version import checkpoint_name
from repro.nameserver.errors import (
    BadPath,
    HistoryTruncated,
    NameExists,
    NameNotFound,
    SnapshotGone,
)
from repro.nameserver.operations import (
    NAMESERVER_OPS,
    new_root,
    updates_since as _updates_since,
)
from repro.nameserver.tree import (
    count_live,
    digest_report,
    find_node,
    iter_leaves,
    list_directory,
    live_leaf,
    parse_path,
    subtree_entries,
)
from repro.storage.errors import StorageError
from repro.rpc import (
    Bool,
    DictOf,
    Int,
    Interface,
    ListOf,
    Pickled,
    Str,
    Void,
)
from repro.storage.interface import FileSystem


class NameServer:
    """A strongly typed name-to-value service with durable storage."""

    def __init__(
        self,
        fs: FileSystem,
        replica_id: str = "primary",
        **db_options: object,
    ) -> None:
        self.replica_id = replica_id
        self.db = Database(
            fs,
            initial=lambda: new_root(replica_id),
            operations=NAMESERVER_OPS,
            **db_options,
        )

    # -- enquiries -----------------------------------------------------------

    def lookup(self, path) -> object:
        """The value bound at ``path``; raises :class:`NameNotFound`."""
        parsed = parse_path(path)

        def read(root):
            leaf = live_leaf(root["tree"], parsed)
            if leaf is None:
                raise NameNotFound(parsed)
            return leaf.value

        return self.db.enquire(read)

    def exists(self, path) -> bool:
        parsed = parse_path(path)
        return self.db.enquire(
            lambda root: live_leaf(root["tree"], parsed) is not None
        )

    def list_dir(self, path=()) -> list[str]:
        """Child names with live content under ``path`` (root for ``()``)."""
        parsed = parse_path(path) if path else ()
        return self.db.enquire(lambda root: list_directory(root["tree"], parsed))

    def read_subtree(self, path=()) -> list[tuple[list[str], object]]:
        """All live ``(relative path, value)`` pairs below ``path``."""
        parsed = parse_path(path) if path else ()
        return self.db.enquire(
            lambda root: [
                (list(relative), value)
                for relative, value in subtree_entries(root["tree"], parsed)
            ]
        )

    def count(self) -> int:
        return self.db.enquire(lambda root: count_live(root["tree"]))

    def glob(self, pattern) -> list[tuple[list[str], object]]:
        """Live ``(path, value)`` pairs matching a wildcard pattern.

        Components may be literals, ``*`` (one component), ``**`` (any
        depth) or shell-style partial wildcards (``printer*``).
        """
        from repro.nameserver.browse import glob_entries, parse_pattern

        parsed = parse_pattern(pattern)
        return self.db.enquire(
            lambda root: [
                (list(path), value)
                for path, value in glob_entries(root["tree"], parsed)
            ]
        )

    # -- updates -------------------------------------------------------------

    def bind(self, path, value, exclusive: bool = False) -> None:
        parsed = parse_path(path)
        self.db.update("ns_local", "bind", (parsed, value, bool(exclusive)))

    def unbind(self, path) -> None:
        parsed = parse_path(path)
        self.db.update("ns_local", "unbind", (parsed,))

    def unbind_subtree(self, path) -> None:
        parsed = parse_path(path)
        self.db.update("ns_local", "unbind_subtree", (parsed,))

    def write_subtree(self, path, entries) -> None:
        """Replace the subtree at ``path`` with ``entries`` in one commit.

        ``entries`` is a list of ``(relative path, value)`` pairs; the
        whole replacement is one single-shot transaction.
        """
        parsed = parse_path(path)
        canonical = [(tuple(parse_path(rel)), value) for rel, value in entries]
        self.db.update("ns_local", "write_subtree", (parsed, canonical))

    # -- replication hooks -----------------------------------------------------

    def summary(self) -> dict[str, int]:
        """This replica's version vector (origin → highest seq applied)."""
        return self.db.enquire(lambda root: dict(root["vector"]))

    def updates_since(self, vector: dict[str, int]) -> list:
        """History records the holder of ``vector`` lacks.

        Raises :class:`HistoryTruncated` when they have left the window.
        """
        return self.db.enquire(lambda root: _updates_since(root, vector))

    def apply_remote(self, records: list) -> int:
        """Apply peer updates; idempotent; returns the number applied."""
        if not records:
            return 0
        return self.db.update("ns_remote", records)

    # -- replica repair hooks --------------------------------------------------

    def snapshot_manifest(self, fresh: bool = False) -> dict:
        """What a recovering peer needs to plan against this replica.

        The checkpoint named here is write-once: its size is stable for
        as long as the file exists, and a later checkpoint switch makes
        ``snapshot_chunk`` raise :class:`SnapshotGone` rather than serve
        a different file under the same version number.

        ``fresh`` takes a checkpoint first: a recoverer asks for one when
        this replica's history window no longer reaches back to its last
        checkpoint, so that snapshot plus records could never meet.
        """
        db = self.db
        if fresh:
            db.checkpoint()
        version = db.version
        try:
            nbytes = db.fs.size(checkpoint_name(version))
        except StorageError as exc:
            raise SnapshotGone(version) from exc
        return {
            "replica_id": self.replica_id,
            "version": version,
            "checkpoint_bytes": nbytes,
            "vector": self.summary(),
            "health": db.health,
        }

    def snapshot_chunk(self, version: int, offset: int, length: int) -> dict:
        """One checksummed page of checkpoint ``version``.

        Returns ``{"data": bytes, "crc": int}``; short (or empty) data at
        the end of the file is the caller's end-of-snapshot signal.  The
        per-chunk CRC guards the *transfer*; the whole downloaded file is
        additionally validated against the checkpoint format's own
        checksum before cutover.
        """
        if offset < 0 or length <= 0:
            raise ValueError("offset must be >= 0 and length > 0")
        try:
            data = self.db.fs.read_range(checkpoint_name(version), offset, length)
        except StorageError as exc:
            raise SnapshotGone(version) from exc
        return {"data": data, "crc": zlib.crc32(data) & 0xFFFFFFFF}

    def tree_digest(self, path=()) -> dict:
        """The Merkle digest report of the subtree at ``path``.

        One level deep — the node's own digest, its leaf digest and each
        child's digest — so a diverged pair of replicas can walk toward
        the difference in O(depth) calls (see ``digest_report``).
        """
        parsed = parse_path(path) if path else ()
        return self.db.enquire(
            lambda root: digest_report(find_node(root["tree"], parsed))
        )

    def read_leaves(self, path=()) -> list:
        """Every leaf at/below ``path`` — tombstones included — with stamps.

        The repair wire format: ``(relative path, value, lamport, origin,
        deleted)`` tuples, consumed by :meth:`repair_leaves` on the
        diverged side.
        """
        parsed = parse_path(path) if path else ()

        def read(root):
            node = find_node(root["tree"], parsed)
            if node is None:
                return []
            return [
                (list(relative), leaf.value, leaf.lamport, leaf.origin,
                 leaf.deleted)
                for relative, leaf in iter_leaves(
                    node, include_tombstones=True
                )
            ]

        return self.db.enquire(read)

    def repair_leaves(self, leaves: list) -> int:
        """Apply authoritative repair leaves; returns how many changed.

        Absolute paths here (the caller resolves the diverged subtree's
        prefix); one logged ``ns_repair`` transaction, so the fix is as
        durable as any update.
        """
        if not leaves:
            return 0
        canonical = [
            (tuple(parse_path(path)), value, int(lamport), str(origin),
             bool(deleted))
            for path, value, lamport, origin, deleted in leaves
        ]
        return self.db.update("ns_repair", canonical)

    # -- sharding hooks ----------------------------------------------------------

    def components(self) -> list[str]:
        """Sorted top-level components, tombstoned subtrees included.

        The unit of shard placement (the first path component) and
        therefore the unit of migration: a donor enumerates these,
        filters by the moving hash range, and streams each one with
        ``read_leaves``/``repair_leaves``.  Tombstones are included
        because deletions must migrate too.
        """
        return self.db.enquire(
            lambda root: sorted(root["tree"].children.keys())
        )

    def purge_components(self, components: list[str]) -> int:
        """Structurally drop top-level subtrees after their range moved.

        One logged ``ns_purge`` transaction (state, not history — see the
        operation's docstring); returns how many leaves were removed.
        """
        if not components:
            return 0
        return self.db.update("ns_purge", [str(c) for c in components])

    # -- administration ------------------------------------------------------------

    def checkpoint(self) -> int:
        return self.db.checkpoint()

    def close(self) -> None:
        self.db.close()

    @property
    def stats(self):
        return self.db.stats


def nameserver_interface(name: str = "NameServer") -> Interface:
    """The RPC interface; clients and servers generate stubs from this."""
    iface = Interface(name, version=1)
    path = ListOf(Str)
    # The three bounded enquiries: one walk down the tree (or one copy of
    # the version vector) under the shared lock, whatever the tree's size.
    # Nothing whose cost grows with the tree (list_dir, count, glob, the
    # replication and repair reads) is marked, and nothing that writes.
    iface.method(
        "lookup", params=[("path", path)], returns=Pickled(),
        bounded_enquiry=True,
    )
    iface.method(
        "exists", params=[("path", path)], returns=Bool, bounded_enquiry=True
    )
    iface.method("list_dir", params=[("path", path)], returns=ListOf(Str))
    iface.method("read_subtree", params=[("path", path)], returns=Pickled())
    iface.method("count", returns=Int)
    iface.method("glob", params=[("pattern", path)], returns=Pickled())
    iface.method(
        "bind",
        params=[("path", path), ("value", Pickled()), ("exclusive", Bool)],
        returns=Void,
    )
    iface.method("unbind", params=[("path", path)], returns=Void)
    iface.method("unbind_subtree", params=[("path", path)], returns=Void)
    iface.method(
        "write_subtree",
        params=[("path", path), ("entries", Pickled())],
        returns=Void,
    )
    iface.method("summary", returns=DictOf(Str, Int), bounded_enquiry=True)
    iface.method(
        "updates_since", params=[("vector", DictOf(Str, Int))], returns=Pickled()
    )
    iface.method("apply_remote", params=[("records", Pickled())], returns=Int)
    # Replica repair: snapshot shipping + anti-entropy tree comparison.
    # Dispatch is by method name, so extending the interface stays wire-
    # compatible with peers that predate it (they answer UnknownMethod).
    iface.method("snapshot_manifest", params=[("fresh", Bool)], returns=Pickled())
    iface.method(
        "snapshot_chunk",
        params=[("version", Int), ("offset", Int), ("length", Int)],
        returns=Pickled(),
    )
    iface.method("tree_digest", params=[("path", path)], returns=Pickled())
    iface.method("read_leaves", params=[("path", path)], returns=Pickled())
    iface.method("repair_leaves", params=[("leaves", Pickled())], returns=Int)
    # Sharding: migration donors enumerate and (after cutover) drop the
    # top-level components whose hash range moved to another shard.
    iface.method("components", returns=ListOf(Str))
    iface.method(
        "purge_components", params=[("components", ListOf(Str))], returns=Int
    )
    iface.error(NameNotFound)
    iface.error(NameExists)
    iface.error(BadPath)
    # A degraded replica refuses updates with a *typed* error, so remote
    # callers (and the replica group's failover) see the condition rather
    # than a generic server fault.
    iface.error(DatabaseDegraded)
    # A checkpoint switch mid-download invalidates the streamed version;
    # the recoverer renegotiates its plan on this typed signal.
    iface.error(SnapshotGone)
    # The asker is behind the history window: the answer to a recoverable
    # condition (catch up by snapshot), not a server fault.
    iface.error(HistoryTruncated)
    return iface


#: The canonical instance used by servers and clients alike.
NAMESERVER_INTERFACE = nameserver_interface()
