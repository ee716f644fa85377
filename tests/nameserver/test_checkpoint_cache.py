"""Checkpoints that copy the wide nodes nothing changed.

A wide node just above the leaves is checkpointed as a segment whose
bytes the next checkpoint copies unless a mutator dropped them.  These
tests drive every mutator through ``Database.update`` between
checkpoints and hold each checkpoint to what a pass without cached
bytes writes, byte for byte.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Database
from repro.core.checkpoint import read_checkpoint
from repro.core.errors import DatabaseError
from repro.core.version import checkpoint_name
from repro.nameserver import NAMESERVER_OPS, new_root
from repro.nameserver.tree import SEGMENT_WIDTH, Node, node_digest
from repro.pickles import SegmentCache, TypeRegistry, pickle_read, pickle_write
from repro.sim import SimClock
from repro.storage import SimFS
from repro.storage.errors import SimulatedCrash
from repro.storage.failures import FailureInjector
from repro.tools.fsck import fsck_directory

DIRS = ("d0", "d1", "d2")
NAMES = tuple(f"n{i}" for i in range(SEGMENT_WIDTH + 4))


def open_db(fs: SimFS, **options) -> Database:
    return Database(
        fs,
        initial=lambda: new_root("a"),
        operations=NAMESERVER_OPS,
        durability="immediate",
        **options,
    )


def nodes(node: Node):
    yield node
    for child in node.children.values():
        yield from nodes(child)


def cached(root: dict) -> int:
    return sum(1 for node in nodes(root["tree"]) if getattr(node, "pickle_segment", None))


def fill(db: Database, dirs=DIRS) -> None:
    """Bind every name under ``dirs``: one segment per directory."""
    for d in dirs:
        for name in NAMES:
            db.update("ns_local", "bind", ((d, name), {"v": name}, False))


paths = st.tuples(st.sampled_from(DIRS), st.sampled_from(NAMES)) | st.tuples(
    st.sampled_from(DIRS), st.sampled_from(NAMES), st.sampled_from(("x", "y"))
)
values = st.one_of(
    st.integers(),
    st.text(max_size=6),
    st.tuples(st.integers(0, 3), st.text(max_size=2)),
    st.builds(lambda v: {"v": v}, st.integers(0, 5)),
    st.builds(lambda v: [v, "shared"], st.text(max_size=3)),
)
steps = st.one_of(
    st.tuples(st.just("bind"), paths, values),
    st.tuples(st.just("unbind"), paths),
    st.tuples(st.just("unbind_subtree"), st.sampled_from(DIRS)),
    st.tuples(
        st.just("write_subtree"),
        st.sampled_from(DIRS),
        st.lists(st.tuples(st.sampled_from(NAMES), values), max_size=SEGMENT_WIDTH + 2),
    ),
    st.tuples(st.just("repair"), paths, values, st.integers(0, 400)),
    st.tuples(st.just("purge"), st.sampled_from(DIRS)),
    st.tuples(st.just("remote"), paths, values, st.integers(1, 400)),
    st.just(("checkpoint",)),
)


def run(db: Database, step: tuple, remote_seq: list[int]) -> None:
    kind = step[0]
    if kind == "bind":
        db.update("ns_local", "bind", (step[1], step[2], False))
    elif kind == "unbind":
        if db.enquire(lambda root: _live(root, step[1])):
            db.update("ns_local", "unbind", (step[1],))
    elif kind == "unbind_subtree":
        if db.enquire(lambda root: _live_below(root, step[1])):
            db.update("ns_local", "unbind_subtree", ((step[1],),))
    elif kind == "write_subtree":
        entries = [((name,), value) for name, value in step[2]]
        db.update("ns_local", "write_subtree", ((step[1],), entries))
    elif kind == "repair":
        db.update("ns_repair", [(step[1], step[2], step[3], "b", False)])
    elif kind == "purge":
        db.update("ns_purge", [step[1]])
    elif kind == "remote":
        remote_seq[0] += 1
        record = (("c", remote_seq[0]), step[3], "bind", (step[1], step[2], False))
        db.update("ns_remote", [record])
    else:
        db.checkpoint()
        check_checkpoint(db)


def _live(root: dict, path: tuple) -> bool:
    node = root["tree"]
    for part in path:
        node = node.children.get(part)
        if node is None:
            return False
    return node.leaf is not None and not node.leaf.deleted


def _live_below(root: dict, name: str) -> bool:
    node = root["tree"].children.get(name)
    return node is not None and any(
        n.leaf is not None and not n.leaf.deleted for n in nodes(node)
    )


def check_checkpoint(db: Database) -> bytes:
    """The checkpoint just written, held to a pass that caches nothing."""
    payload = read_checkpoint(db.fs, checkpoint_name(db.version))
    root = db.enquire(lambda root: root)
    # a copy: a pass of another cache would take over the nodes' bytes
    assert payload == SegmentCache().write(copy.deepcopy(root))
    decoded = pickle_read(payload)
    assert pickle_write(decoded) == pickle_write(root)
    assert node_digest(decoded["tree"]) == node_digest(root["tree"])
    return payload


@given(st.lists(steps, max_size=30))
@settings(max_examples=40, deadline=None)
def test_every_checkpoint_equals_one_that_caches_nothing(script):
    fs = SimFS(clock=SimClock())
    db = open_db(fs)
    fill(db)
    db.checkpoint()
    assert cached(db.enquire(lambda root: root)) == len(DIRS)
    check_checkpoint(db)
    remote_seq = [0]
    for step in script:
        run(db, step, remote_seq)
    db.checkpoint()
    check_checkpoint(db)
    digest = db.enquire(lambda root: node_digest(root["tree"]))
    live = db.enquire(pickle_write)
    db.close()
    reopened = open_db(fs)
    assert reopened.enquire(lambda root: node_digest(root["tree"])) == digest
    assert reopened.enquire(pickle_write) == live
    reopened.close()


def test_only_changed_segments_are_encoded_again():
    db = open_db(SimFS(clock=SimClock()))
    fill(db)
    db.checkpoint()
    before = db.enquire(lambda root: {d: root["tree"].children[d].pickle_segment for d in DIRS})
    db.update("ns_local", "bind", (("d1", "n0"), "changed", False))
    db.checkpoint()
    check_checkpoint(db)
    after = db.enquire(lambda root: {d: root["tree"].children[d].pickle_segment for d in DIRS})
    assert after["d0"] is before["d0"] and after["d2"] is before["d2"]
    assert after["d1"] is not before["d1"]


def test_a_copy_of_a_checkpointed_root_starts_without_cached_bytes():
    db = open_db(SimFS(clock=SimClock()))
    fill(db)
    db.checkpoint()
    duplicate = db.enquire(copy.deepcopy)
    assert cached(duplicate) == 0
    cache = SegmentCache()
    cache.write(duplicate)
    NAMESERVER_OPS.get("ns_local").apply(duplicate, "bind", (("d0", "n1"), "copy", False))
    assert cache.write(duplicate) == SegmentCache().write(duplicate)
    assert pickle_read(cache.write(duplicate))["tree"].children["d0"].children[
        "n1"
    ].leaf.value == "copy"
    # the original's cached bytes are still its own
    db.update("ns_local", "bind", (("d2", "n1"), "original", False))
    db.checkpoint()
    payload = check_checkpoint(db)
    assert pickle_read(payload)["tree"].children["d0"].children["n1"].leaf.value == {"v": "n1"}


def forged_node(children: object, pickle_segment: object = None) -> Node:
    """A ``Node`` as a client's bytes may decode to, cache attribute and all."""

    class Forged:
        pass

    forging = TypeRegistry()
    forging.register(Forged, name="nameserver.Node")

    def forge(children: object) -> Forged:
        node = Forged()
        node.children = children
        node.leaf = None
        return node

    top = forge(children(forge) if callable(children) else children)
    top.pickle_segment = pickle_segment
    node = pickle_read(pickle_write(top, forging))
    assert type(node) is Node
    return node


HOSTILE_VALUES = {
    "children that are no nodes": lambda: forged_node({str(i): i for i in range(10)}),
    "a forged cache attribute": lambda: forged_node(
        lambda forge: {str(i): forge({}) for i in range(10)}, pickle_segment=7
    ),
    "children that are no dict": lambda: forged_node(list(range(10))),
    "grandchildren that are no dict": lambda: forged_node(
        lambda forge: {str(i): forge([1]) for i in range(10)}
    ),
    "empty grandchildren that are no dict": lambda: forged_node(
        lambda forge: {str(i): forge(0) for i in range(10)}
    ),
    "a wide node with childless children": lambda: forged_node(
        lambda forge: {str(i): forge({}) for i in range(10)}
    ),
}


@pytest.mark.parametrize("kind", sorted(HOSTILE_VALUES))
def test_a_bound_node_value_never_stops_a_checkpoint(kind):
    """A value is logged by the plain writer, so any value it takes is bound."""
    fs = SimFS(clock=SimClock())
    db = open_db(fs)
    fill(db)
    db.update("ns_local", "bind", (("v", "k"), HOSTILE_VALUES[kind](), False))
    db.update("ns_local", "bind", (("d0", "n0"), HOSTILE_VALUES[kind](), False))
    for _ in range(2):
        db.checkpoint()
        check_checkpoint(db)
    db.update("ns_local", "bind", (("d1", "n1"), "after", False))
    db.checkpoint()
    check_checkpoint(db)
    live = db.enquire(pickle_write)
    db.close()
    reopened = open_db(fs)
    assert reopened.enquire(pickle_write) == live
    reopened.checkpoint()
    check_checkpoint(reopened)
    reopened.close()


def test_paranoid_enquiries_see_a_mutation_under_a_cached_segment():
    db = open_db(SimFS(clock=SimClock()), paranoid_enquiries=True)
    fill(db)
    db.checkpoint()
    assert cached(db.enquire(lambda root: root)) == len(DIRS)

    def mutate(root: dict) -> None:
        root["tree"].children["d0"].children["n0"].leaf.value["v"] = "sneaky"

    with pytest.raises(DatabaseError, match="mutated"):
        db.enquire(mutate)


def test_crash_at_every_event_of_a_segmented_checkpoint():
    """No acked update lost or applied twice, and fsck clean, at every crash."""

    def script(db: Database) -> None:
        fill(db)
        db.checkpoint()
        db.update("ns_local", "bind", (("d0", "n2"), "late", False))
        db.update("ns_local", "unbind", (("d0", "n3"),))

    model = new_root("a")
    apply = NAMESERVER_OPS.get("ns_local").apply
    for d in DIRS:
        for name in NAMES:
            apply(model, "bind", ((d, name), {"v": name}, False))
    apply(model, "bind", (("d0", "n2"), "late", False))
    apply(model, "unbind", (("d0", "n3"),))
    expected = pickle_write(model)

    injector = FailureInjector()
    fs = SimFS(clock=SimClock(), injector=injector)
    db = open_db(fs)
    script(db)
    assert cached(db.enquire(lambda root: root)) == len(DIRS) - 1  # d0 is dirty
    first = injector.events_seen + 1
    db.checkpoint()
    last = injector.events_seen
    assert last >= first

    for event in range(first, last + 1):
        for tear in (True, False):
            injector = FailureInjector(tear=tear)
            fs = SimFS(clock=SimClock(), injector=injector)
            db = open_db(fs)
            script(db)
            injector.crash_at_event = event
            with pytest.raises(SimulatedCrash):
                db.checkpoint()
            fs.crash()
            injector.disarm()
            recovered = open_db(fs)
            assert recovered.enquire(pickle_write) == expected, (event, tear)
            recovered.close()
            report = fsck_directory(fs)
            assert report.clean, (event, tear, report.errors, report.warnings)
