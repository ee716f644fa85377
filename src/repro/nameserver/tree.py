"""The name server's virtual memory structure: a tree of hash tables.

The paper:

    The virtual memory data structure for the name server's database
    consists primarily of a tree of hash tables.  The tables are indexed
    by strings, and deliver values that are further hash tables.

A :class:`Node` is one hash table (its ``children``); a :class:`Leaf`
holds a bound value plus the replication stamp — a ``(lamport, origin)``
pair — used for last-writer-wins reconciliation between replicas, and a
``deleted`` flag so removals propagate (a tombstone).  Both classes are
registered with the pickle registry at import time, so the whole tree
checkpoints and logs automatically.

Paths are tuples of non-empty strings; the convenience parser accepts
``"a/b/c"``.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterator

from repro.nameserver.errors import BadPath
from repro.pickles import DEFAULT_REGISTRY, pickle_write

Path = tuple[str, ...]
Stamp = tuple[int, str]  # (lamport counter, origin replica id)


class Leaf:
    """A bound value (or its tombstone) with a replication stamp."""

    def __init__(
        self, value: object, lamport: int, origin: str, deleted: bool = False
    ) -> None:
        self.value = value
        self.lamport = lamport
        self.origin = origin
        self.deleted = deleted

    def stamp(self) -> Stamp:
        return (self.lamport, self.origin)

    def __repr__(self) -> str:
        state = "tombstone" if self.deleted else repr(self.value)
        return f"Leaf({state} @{self.lamport}:{self.origin})"


class Node:
    """One hash table of the tree; may also carry a leaf binding.

    ``pickle_segment`` caches a wide node's checkpoint encoding (see
    :data:`SEGMENT_WIDTH`).  Every mutator below resets it on each node
    from the root to the one it changes; it is not part of the pickle,
    and a copy of the node starts without it.
    """

    __slots__ = ("children", "leaf", "pickle_segment")

    def __init__(self) -> None:
        self.children: dict[str, Node] = {}
        self.leaf: Leaf | None = None
        self.pickle_segment = None

    def is_empty(self) -> bool:
        return self.leaf is None and not self.children

    def __getstate__(self) -> tuple[None, dict]:
        return None, {"children": self.children, "leaf": self.leaf}


#: a node with this many children, none of which has children of its
#: own, is checkpointed as a segment: the next checkpoint copies its bytes
#: unless something below it changed.  The nodes above such a node change
#: in nearly every checkpoint cycle, so caching them would not pay.
SEGMENT_WIDTH = 8


def _is_segment(node: Node) -> bool:
    """Whether ``node`` is a wide table just above the leaves.

    A bound value may be a ``Node`` decoded from a client, with anything
    in its fields, so the rule looks at types before it reads a field.
    """
    children = node.children
    return (
        type(children) is dict
        and len(children) >= SEGMENT_WIDTH
        and all(
            type(child) is Node and type(child.children) is dict and not child.children
            for child in children.values()
        )
    )


DEFAULT_REGISTRY.register(Leaf, name="nameserver.Leaf")
DEFAULT_REGISTRY.register(
    Node, name="nameserver.Node", fields=("children", "leaf"), segment=_is_segment
)


def parse_path(path: object) -> Path:
    """Normalise a path argument to a tuple of components.

    Accepts ``"a/b/c"``, ``("a", "b", "c")`` or ``["a", "b", "c"]``.
    """
    if isinstance(path, str):
        parts: tuple[str, ...] = tuple(path.split("/")) if path else ()
    elif isinstance(path, (tuple, list)):
        parts = tuple(path)
    else:
        raise BadPath(path)
    if not parts:
        raise BadPath(path)
    for part in parts:
        if not isinstance(part, str) or not part or "/" in part:
            raise BadPath(path)
    return parts


def find_node(root: Node, path: Path) -> Node | None:
    """The node at ``path``, or None if any component is missing."""
    node = root
    for part in path:
        node = node.children.get(part)
        if node is None:
            return None
    return node


def ensure_node(root: Node, path: Path) -> Node:
    """The node at ``path``, creating intermediate tables as needed.

    The caller is about to change it: every node on the way drops its
    cached checkpoint encoding.
    """
    node = root
    node.pickle_segment = None
    for part in path:
        child = node.children.get(part)
        if child is None:
            child = Node()
            node.children[part] = child
        else:
            child.pickle_segment = None
        node = child
    return node


def live_leaf(root: Node, path: Path) -> Leaf | None:
    """The leaf at ``path`` if it exists and is not a tombstone."""
    node = find_node(root, path)
    if node is None or node.leaf is None or node.leaf.deleted:
        return None
    return node.leaf


def iter_leaves(
    node: Node, prefix: Path = (), include_tombstones: bool = False
) -> Iterator[tuple[Path, Leaf]]:
    """All leaves below ``node`` in sorted path order."""
    if node.leaf is not None and (include_tombstones or not node.leaf.deleted):
        yield prefix, node.leaf
    for name in sorted(node.children):
        yield from iter_leaves(
            node.children[name], prefix + (name,), include_tombstones
        )


def has_live_content(node: Node) -> bool:
    """Whether any non-tombstone leaf exists at or below ``node``."""
    if node.leaf is not None and not node.leaf.deleted:
        return True
    return any(has_live_content(child) for child in node.children.values())


def list_directory(root: Node, path: Path) -> list[str]:
    """Child names at ``path`` that lead to live content, sorted.

    Raises :class:`NotADirectory` via the caller's checks; here a missing
    node simply lists as empty (the enquiry layer decides the error).
    """
    node = find_node(root, path) if path else root
    if node is None:
        return []
    return [
        name
        for name in sorted(node.children)
        if has_live_content(node.children[name])
    ]


def subtree_entries(root: Node, path: Path) -> list[tuple[Path, object]]:
    """All live ``(relative path, value)`` pairs below ``path``."""
    node = find_node(root, path) if path else root
    if node is None:
        return []
    return [(rel, leaf.value) for rel, leaf in iter_leaves(node)]


def count_live(root: Node) -> int:
    return sum(1 for _ in iter_leaves(root))


# -- Merkle digests (anti-entropy) --------------------------------------------
#
# A node's digest commits to its own leaf (value bytes + stamp + deleted
# flag, tombstones included — a diverged *deletion* must be detectable)
# and to every child's digest keyed by name.  Two replicas whose root
# digests match therefore hold byte-identical trees; when they differ,
# comparing child digests pairwise localises the divergence in O(depth)
# exchanges without shipping any values.

#: encodes a leaf value to canonical bytes for hashing
Encoder = Callable[[object], bytes]


def default_encoder(value: object) -> bytes:
    """Canonical value bytes via the default pickle registry.

    PickleWrite is deterministic for a given value (no memo randomness,
    registry-stable class records), so every replica derives the same
    digest for the same leaf.
    """
    return pickle_write(value, DEFAULT_REGISTRY)


def leaf_digest(leaf: Leaf, encode: Encoder = default_encoder) -> bytes:
    """A digest committing to one leaf's value, stamp and tombstone flag."""
    h = hashlib.sha256()
    h.update(b"L")
    h.update(repr((leaf.lamport, leaf.origin, leaf.deleted)).encode("utf-8"))
    h.update(encode(leaf.value))
    return h.digest()


def node_digest(node: Node, encode: Encoder = default_encoder) -> bytes:
    """The Merkle digest of a whole subtree (leaf + named children)."""
    h = hashlib.sha256()
    h.update(b"N")
    if node.leaf is not None:
        h.update(leaf_digest(node.leaf, encode))
    for name in sorted(node.children):
        h.update(name.encode("utf-8"))
        h.update(node_digest(node.children[name], encode))
    return h.digest()


def digest_report(
    node: Node | None, encode: Encoder = default_encoder
) -> dict[str, object]:
    """One anti-entropy exchange unit: this node's hashes, one level deep.

    ``{"digest": hex, "leaf": hex | None, "children": {name: hex}}`` —
    enough for the peer to decide whether the divergence is in the leaf
    here, in a particular child subtree, or in a child that only one side
    has.  ``None`` (no node at this path) reports the canonical empty
    digest so both sides can compare uniformly.
    """
    if node is None:
        node = Node()
    return {
        "digest": node_digest(node, encode).hex(),
        "leaf": (
            leaf_digest(node.leaf, encode).hex()
            if node.leaf is not None
            else None
        ),
        "children": {
            name: node_digest(child, encode).hex()
            for name, child in node.children.items()
        },
    }


def prune_empty(node: Node) -> None:
    """Drop child subtrees containing neither leaves nor tombstones.

    Tombstones are retained (they must keep propagating); fully empty
    tables left by pruning are removed to bound memory.
    """
    node.pickle_segment = None
    for name in list(node.children):
        child = node.children[name]
        prune_empty(child)
        if child.is_empty():
            del node.children[name]
