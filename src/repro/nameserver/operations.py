"""The name server's single-shot transactions.

All updates flow through exactly two registered operations:

* ``ns_local`` — an update originated at this replica.  It assigns the
  update an identity ``(replica_id, seq)`` and a Lamport stamp, performs
  the action, and records the update in the replication history.  Both
  counters live *inside the root*, so a log replay regenerates identical
  ids and stamps — the determinism the replay contract requires.

* ``ns_remote`` — a batch of updates received from a peer replica.
  A record is applied only when it is its origin's *next* one
  (``seq == vector[origin] + 1``): a duplicate or an early record is
  skipped, the vector does not move, and the sender offers it again.
  Every version vector is therefore a contiguous prefix of each origin's
  updates — the vector alone says what has been applied.  Per name the
  result is last-writer-wins by ``(lamport, origin)``, so any
  interleaving that keeps each origin's records in order converges.

Two further operations serve replica repair (they do not originate new
history records):

* ``ns_identity`` — administrative: reclaim this node's own replica id
  after a snapshot import.  A shipped checkpoint carries the *peer's*
  ``replica`` field; the recoverer logs this as the first entry of the
  staged log so the cut-over replica originates updates under its own id
  with a ``next_seq`` past anything the group has seen from it.

* ``ns_repair`` — anti-entropy convergence for *silent* divergence: a
  batch of authoritative leaves (tombstones included) force-written with
  a deterministic tiebreak.  Plain last-writer-wins cannot resolve two
  leaves carrying the *same* stamp but different values (exactly what
  silent corruption produces), so equal stamps fall back to comparing
  value digests — both sides converge to the same winner.

The database root is a dictionary::

    {
        "replica":  str,                  # this replica's id
        "lamport":  int,                  # Lamport clock
        "next_seq": int,                  # local update counter
        "tree":     Node,                 # the tree of hash tables
        "vector":   {origin: max seq},    # version vector: per origin,
                                          # updates 1..seq are applied
        "history":  [(id, lamport, action, params), ...],
    }

``history`` is a retransmission *window*, not an archive: the newest
``HISTORY_WINDOW`` to ``2 * HISTORY_WINDOW - 1`` records, each origin's
in ``seq`` order.  A replica that has fallen behind the window is caught
up by state (:class:`~repro.nameserver.recover.ReplicaRecoverer`), and
:func:`updates_since` says so with a typed :class:`HistoryTruncated`.

Actions (the ``action``/``params`` pairs):

* ``("bind", (path, value, exclusive))`` — bind a value at a path;
* ``("unbind", (path,))`` — tombstone one binding;
* ``("unbind_subtree", (path,))`` — tombstone everything at/below a path;
* ``("write_subtree", (path, entries))`` — replace a whole subtree: every
  existing live leaf below the path is tombstoned unless re-bound by
  ``entries`` (a list of ``(relative path, value)`` pairs).  This is the
  paper's "update operations for any set of sub-trees" as one single-shot
  transaction — one log entry, one disk write.
"""

from __future__ import annotations

from repro.core.transactions import OperationRegistry
from repro.nameserver.errors import BadPath, HistoryTruncated, NameExists, NameNotFound
from repro.nameserver.tree import (
    Leaf,
    Node,
    Path,
    ensure_node,
    find_node,
    iter_leaves,
    leaf_digest,
    live_leaf,
    parse_path,
)

NAMESERVER_OPS = OperationRegistry()

#: A history record: (update id, lamport, action, params)
Record = tuple[tuple[str, int], int, str, tuple]

#: Records the history keeps for retransmission.  ``_record`` cuts the
#: list back to this many whenever it reaches twice this many, so a
#: replica may miss at least this many updates and still catch up record
#: by record; beyond it, it is recovered from a snapshot.
HISTORY_WINDOW = 1024


def new_root(replica_id: str = "primary") -> dict:
    """A fresh name server database root."""
    if not replica_id:
        raise ValueError("replica_id must be non-empty")
    return {
        "replica": replica_id,
        "lamport": 0,
        "next_seq": 1,
        "tree": Node(),
        "vector": {},
        "history": [],
    }


@NAMESERVER_OPS.operation("ns_local")
def ns_local(root: dict, action: str, params: tuple):
    """Apply a locally originated update; returns its update id."""
    seq = root["next_seq"]
    root["next_seq"] = seq + 1
    root["lamport"] += 1
    lamport = root["lamport"]
    origin = root["replica"]
    update_id = (origin, seq)
    _perform(root["tree"], action, params, lamport, origin)
    _record(root, update_id, lamport, action, params)
    return update_id


@ns_local.precondition
def _ns_local_pre(root: dict, action: str, params: tuple) -> None:
    tree = root["tree"]
    if action == "bind":
        path, _value, exclusive = params
        _validate(path)
        if exclusive and live_leaf(tree, path) is not None:
            raise NameExists(path)
    elif action == "unbind":
        (path,) = params
        _validate(path)
        if live_leaf(tree, path) is None:
            raise NameNotFound(path)
    elif action == "unbind_subtree":
        (path,) = params
        _validate(path)
        node = find_node(tree, path)
        if node is None or not any(True for _ in iter_leaves(node)):
            raise NameNotFound(path)
    elif action == "write_subtree":
        path, entries = params
        _validate(path)
        for relative, _value in entries:
            _validate(path + tuple(relative))
    else:
        raise BadPath(f"unknown action {action!r}")


@NAMESERVER_OPS.operation("ns_remote")
def ns_remote(root: dict, records: list[Record]) -> int:
    """Apply a batch of peer updates; returns how many were new."""
    fresh = 0
    for update_id, lamport, action, params in records:
        origin, seq = update_id = tuple(update_id)
        if seq != root["vector"].get(origin, 0) + 1:
            continue  # a duplicate, or early: the sender offers it again
        root["lamport"] = max(root["lamport"], lamport)
        if origin == root["replica"] and seq >= root["next_seq"]:
            # A restored replica re-learns its own past updates from a
            # peer; later local updates must not reuse those ids.
            root["next_seq"] = seq + 1
        _perform(root["tree"], action, params, lamport, origin)
        _record(root, update_id, lamport, action, params)
        fresh += 1
    return fresh


@NAMESERVER_OPS.operation("ns_identity")
def ns_identity(root: dict, replica_id: str) -> None:
    """Reclaim ``replica_id`` as this root's own identity after a restore.

    Deterministic in root + args (the replay contract): the new
    ``next_seq`` continues exactly where the imported state's knowledge
    of this origin ends, so re-learned own updates are never reissued
    under a reused id and the first new one is the ``vector + 1`` every
    peer's in-order rule is waiting for (the donor's own counter, which
    the imported root carries, is another origin's and must not leak in
    as a gap).
    """
    if not replica_id:
        raise ValueError("replica_id must be non-empty")
    root["replica"] = replica_id
    root["next_seq"] = root["vector"].get(replica_id, 0) + 1


#: A repair leaf: (path, value, lamport, origin, deleted)
RepairLeaf = tuple[tuple, object, int, str, bool]


@NAMESERVER_OPS.operation("ns_repair")
def ns_repair(root: dict, leaves: list[RepairLeaf]) -> int:
    """Force-converge a batch of leaves; returns how many changed.

    Unlike ``ns_remote`` this ships *state*, not history: the winning
    leaf is written even when the local stamp ties it, using the digest
    tiebreak below.  History and the version vector are
    untouched — repair fixes silent divergence without inventing update
    records.

    The local Lamport clock *is* advanced past every incoming stamp
    (the standard receive rule, same as ``ns_remote``).  Without it a
    fresh replica bulk-loaded by repair — a shard-migration target, say
    — would issue its own subsequent updates with *lower* stamps than
    the imported state, and last-writer-wins would silently discard
    those acked writes.
    """
    changed = 0
    tree = root["tree"]
    for path, value, lamport, origin, deleted in leaves:
        incoming = Leaf(value, int(lamport), origin, bool(deleted))
        if incoming.lamport > root["lamport"]:
            root["lamport"] = incoming.lamport
        node = ensure_node(tree, tuple(path))
        if _repair_wins(incoming, node.leaf):
            node.leaf = incoming
            changed += 1
    return changed


@ns_repair.precondition
def _ns_repair_pre(root: dict, leaves: list[RepairLeaf]) -> None:
    for path, _value, _lamport, origin, _deleted in leaves:
        _validate(tuple(path))
        if not origin:
            raise BadPath(f"repair leaf at {path!r} has an empty origin")


@NAMESERVER_OPS.operation("ns_purge")
def ns_purge(root: dict, components: list[str]) -> int:
    """Drop whole top-level subtrees structurally; returns leaves removed.

    The donor side of a shard migration: after cutover the donor no
    longer owns these components, and keeping the data (even as
    tombstones) would double-count scatter enquiries and leak memory.
    Like ``ns_repair`` this ships *state*, not history — no tombstones
    are written and no update records are invented, because ownership of
    the keys has moved to another shard entirely; replicas of the donor
    converge by applying the same purge.
    """
    removed = 0
    tree = root["tree"]
    tree.pickle_segment = None
    for component in components:
        node = tree.children.pop(str(component), None)
        if node is not None:
            removed += sum(
                1 for _ in iter_leaves(node, include_tombstones=True)
            )
    return removed


@ns_purge.precondition
def _ns_purge_pre(root: dict, components: list[str]) -> None:
    for component in components:
        if not isinstance(component, str) or not component or "/" in component:
            raise BadPath(component)


def _repair_wins(incoming: Leaf, existing: Leaf | None) -> bool:
    """Whether an incoming repair leaf replaces the local one.

    Higher ``(lamport, origin)`` stamp wins as usual; *equal* stamps with
    differing content fall back to comparing full leaf digests, so two
    silently diverged replicas running repair against each other settle
    on one value instead of each keeping its own.
    """
    if existing is None:
        return True
    if incoming.stamp() != existing.stamp():
        return incoming.stamp() > existing.stamp()
    theirs = leaf_digest(incoming)
    ours = leaf_digest(existing)
    return theirs > ours


def _record(
    root: dict, update_id: tuple[str, int], lamport: int, action: str, params: tuple
) -> None:
    """Note one applied update: advance the vector, extend the window.

    A pure function of the root (the replay contract), pruning included:
    replaying a log regenerates the identical window.
    """
    root.pop("applied", None)  # roots written before the window kept one
    origin, seq = update_id
    root["vector"][origin] = seq
    history = root["history"]
    history.append((update_id, lamport, action, params))
    if len(history) >= 2 * HISTORY_WINDOW:
        del history[:-HISTORY_WINDOW]


def _validate(path: object) -> Path:
    return parse_path(path)


def _perform(
    tree: Node, action: str, params: tuple, lamport: int, origin: str
) -> None:
    if action == "bind":
        path, value, _exclusive = params
        _set_leaf(tree, tuple(path), value, lamport, origin, deleted=False)
    elif action == "unbind":
        (path,) = params
        _set_leaf(tree, tuple(path), None, lamport, origin, deleted=True)
    elif action == "unbind_subtree":
        (path,) = params
        node = find_node(tree, tuple(path))
        if node is not None:
            for relative, _leaf in list(iter_leaves(node)):
                _set_leaf(
                    tree, tuple(path) + relative, None, lamport, origin, deleted=True
                )
    elif action == "write_subtree":
        path, entries = params
        base = tuple(path)
        kept = {base + tuple(relative) for relative, _value in entries}
        node = find_node(tree, base)
        if node is not None:
            for relative, _leaf in list(iter_leaves(node)):
                absolute = base + relative
                if absolute not in kept:
                    _set_leaf(tree, absolute, None, lamport, origin, deleted=True)
        for relative, value in entries:
            _set_leaf(tree, base + tuple(relative), value, lamport, origin, False)
    else:
        raise ValueError(f"unknown action {action!r}")


def _set_leaf(
    tree: Node,
    path: Path,
    value: object,
    lamport: int,
    origin: str,
    deleted: bool,
) -> None:
    """Write a leaf (or tombstone) if the stamp wins; last writer wins.

    The comparison key is ``(lamport, origin)``: Lamport order first, the
    origin id as a deterministic tiebreak, so every replica resolves a
    conflict identically.
    """
    node = ensure_node(tree, path)
    existing = node.leaf
    if existing is not None and existing.stamp() >= (lamport, origin):
        return
    node.leaf = Leaf(value, lamport, origin, deleted)


def updates_since(root: dict, vector: dict[str, int]) -> list[Record]:
    """History records the holder of ``vector`` has not seen.

    Walks the window backwards until every lagging origin's *next*
    record (``vector + 1``) has been passed — each origin's records sit
    in ``seq`` order, so everything it lacks lies after that point and
    the cost is proportional to what is missing, not to the window.
    Raises :class:`HistoryTruncated` when a next record has already left
    the window: records can no longer catch that replica up.
    """
    behind = {o for o, seq in root["vector"].items() if seq > vector.get(o, 0)}
    if not behind:
        return []
    missing = []
    for record in reversed(root["history"]):
        origin, seq = record[0]
        ahead = seq - vector.get(origin, 0)
        if ahead > 0:
            missing.append(record)
            if ahead == 1:
                behind.discard(origin)
                if not behind:
                    return missing[::-1]
    raise HistoryTruncated(behind)
