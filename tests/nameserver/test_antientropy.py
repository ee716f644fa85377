"""Property tests for anti-entropy tree hashing and divergence repair.

The Merkle digests are only useful if two things hold universally:

* **Sensitivity** — *any* single divergent binding (value changed under
  the same stamp, binding added, binding tombstoned), at any depth,
  changes the root digest; version vectors see none of these.
* **Localisation** — walking the digests toward one divergent binding
  costs O(depth) ``tree_digest`` exchanges, not a full-tree transfer.

Hypothesis generates random trees and a random single mutation; the
deterministic repair path is then checked to converge real replicas.
"""

from __future__ import annotations

import os
import subprocess
import sys

from hypothesis import given, settings, strategies as st

import repro
from repro.nameserver import Replica, diverged_leaf_paths, repair_divergence
from repro.nameserver.tree import (
    Leaf,
    Node,
    digest_report,
    find_node,
    node_digest,
)
from repro.sim import SimClock
from repro.storage import SimFS

# -- strategies ----------------------------------------------------------------

names = st.sampled_from(["a", "b", "c", "web", "db", "cfg"])
paths = st.lists(names, min_size=1, max_size=4).map(tuple)
values = st.one_of(st.integers(), st.text(max_size=8), st.booleans())


@st.composite
def bindings(draw):
    """A non-empty mapping of path -> (value, lamport, origin)."""
    keys = draw(st.lists(paths, min_size=1, max_size=12, unique=True))
    return {
        key: (draw(values), draw(st.integers(1, 50)), draw(names))
        for key in keys
    }


def build(binding_map: dict) -> Node:
    root = Node()
    for path, (value, lamport, origin) in binding_map.items():
        node = root
        for part in path:
            node = node.children.setdefault(part, Node())
        node.leaf = Leaf(value, lamport, origin)
    return root


class TreePeer:
    """The digest surface of a peer, over a bare in-memory tree."""

    def __init__(self, root: Node) -> None:
        self.root = root

    def tree_digest(self, path: tuple = ()) -> dict:
        node = find_node(self.root, path) if path else self.root
        return digest_report(node)


# -- sensitivity: one divergent binding always changes the root hash -----------


@settings(max_examples=150, deadline=None)
@given(bindings(), st.data())
def test_changed_value_under_the_same_stamp_changes_the_root(
    binding_map, data
):
    target = data.draw(st.sampled_from(sorted(binding_map)))
    value, lamport, origin = binding_map[target]
    mutated = dict(binding_map)
    mutated[target] = (("poison", value), lamport, origin)
    assert node_digest(build(binding_map)) != node_digest(build(mutated))


@settings(max_examples=150, deadline=None)
@given(bindings(), paths, values)
def test_an_extra_binding_changes_the_root(binding_map, extra_path, value):
    mutated = dict(binding_map)
    mutated[extra_path] = (value, 1, "x")
    if mutated == binding_map:
        return  # the draw collided with an identical binding
    assert node_digest(build(binding_map)) != node_digest(build(mutated))


@settings(max_examples=150, deadline=None)
@given(bindings(), st.data())
def test_a_tombstone_under_the_same_stamp_changes_the_root(
    binding_map, data
):
    target = data.draw(st.sampled_from(sorted(binding_map)))
    left = build(binding_map)
    right = build(binding_map)
    find_node(right, target).leaf.deleted = True
    assert node_digest(left) != node_digest(right)


@settings(max_examples=100, deadline=None)
@given(bindings())
def test_identical_trees_digest_identically(binding_map):
    assert node_digest(build(binding_map)) == node_digest(build(binding_map))


# -- localisation: O(depth) comparisons find the one diverged binding ----------


@settings(max_examples=150, deadline=None)
@given(bindings(), st.data())
def test_single_divergence_is_localised_in_depth_comparisons(
    binding_map, data
):
    target = data.draw(st.sampled_from(sorted(binding_map)))
    value, lamport, origin = binding_map[target]
    mutated = dict(binding_map)
    mutated[target] = (("poison", value), lamport, origin)
    left = TreePeer(build(binding_map))
    right = TreePeer(build(mutated))
    items, comparisons = diverged_leaf_paths(left, right)
    assert items == [("leaf", target)]
    # Two tree_digest calls per level of the diverged spine, root included.
    assert comparisons <= 2 * (len(target) + 1)


@settings(max_examples=100, deadline=None)
@given(bindings())
def test_converged_pair_costs_one_root_exchange(binding_map):
    left = TreePeer(build(binding_map))
    right = TreePeer(build(binding_map))
    items, comparisons = diverged_leaf_paths(left, right)
    assert items == []
    assert comparisons == 2


@settings(max_examples=100, deadline=None)
@given(bindings(), paths)
def test_one_sided_subtree_is_reported_whole(binding_map, extra_path):
    mutated = dict(binding_map)
    # Graft a binding under a child name absent from the other side.
    grafted = ("zzz",) + extra_path
    mutated[grafted] = (1, 1, "x")
    left = TreePeer(build(binding_map))
    right = TreePeer(build(mutated))
    items, _ = diverged_leaf_paths(left, right)
    assert ("subtree", ("zzz",)) in items


# -- the deterministic repair converges real replicas --------------------------


def test_leaf_digest_does_not_depend_on_the_hash_seed():
    """Replicas derive the same digest for the same leaf whatever their
    interpreter's string-hash seed: sets of frozensets included, which
    seeds 0 and 2 iterate in different orders."""
    program = (
        "from repro.nameserver.tree import Leaf, leaf_digest\n"
        "values = (\n"
        "    {frozenset({'alpha', 'beta', 'gamma'}),"
        " frozenset({'delta', 'eps'}), None},\n"
        "    {frozenset({'alpha', 'beta'}), frozenset({'gamma'}),"
        " frozenset({'delta', 'eps'})},\n"
        ")\n"
        "print(*(leaf_digest(Leaf(v, 1, 'r')).hex() for v in values))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    digests = {
        subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": src, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("0", "2")
    }
    assert len(digests) == 1


def make_pair() -> tuple[Replica, Replica]:
    clock = SimClock()
    left = Replica(SimFS(clock=clock), "left", clock=clock)
    right = Replica(SimFS(clock=clock), "right", clock=clock)
    left.add_peer(right)
    for path, value in [
        ("svc/web/alpha", 1), ("svc/web/beta", 2), ("svc/db/gamma", 3),
    ]:
        left.bind(path, value)
    left.propagate()
    return left, right


class TestRepairDivergence:
    def test_repair_converges_a_same_stamp_corruption(self):
        left, right = make_pair()
        right.db.enquire(
            lambda root: setattr(
                find_node(root["tree"], ("svc", "web", "beta")).leaf,
                "value",
                -999,
            )
        )
        assert left.tree_digest() != right.tree_digest()
        items, _ = diverged_leaf_paths(left, right)
        shipped = repair_divergence(left, right, items)
        assert shipped == 2  # the one leaf, once in each direction
        assert left.tree_digest() == right.tree_digest()
        assert sorted(left.read_subtree()) == sorted(right.read_subtree())

    def test_the_adopting_side_logs_the_repair_durably(self):
        left, right = make_pair()
        right.db.enquire(
            lambda root: setattr(
                find_node(root["tree"], ("svc", "db", "gamma")).leaf,
                "value",
                -999,
            )
        )
        items, _ = diverged_leaf_paths(left, right)
        repair_divergence(left, right, items)
        winner = left.lookup("svc/db/gamma")
        assert winner == right.lookup("svc/db/gamma")
        # Whichever side *changed its answer* did so through a logged
        # ns_repair, so its adopted value survives a restart.  (The side
        # that kept its own value never had the in-memory corruption in
        # its log; a restart there heals it back to the durable truth.)
        adopter = left if winner == -999 else right
        restarted = Replica(adopter.db.fs, adopter.replica_id)
        assert restarted.lookup("svc/db/gamma") == winner

    def test_vector_agreement_survives_the_repair(self):
        left, right = make_pair()
        before = (left.summary(), right.summary())
        right.db.enquire(
            lambda root: setattr(
                find_node(root["tree"], ("svc", "web", "alpha")).leaf,
                "value",
                -999,
            )
        )
        items, _ = diverged_leaf_paths(left, right)
        repair_divergence(left, right, items)
        assert (left.summary(), right.summary()) == before
