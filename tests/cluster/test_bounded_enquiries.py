"""Guard for the ``bounded_enquiry`` declaration itself.

A method so marked is run to completion on the event-loop thread
(:meth:`repro.rpc.server.RpcServer.dispatch_enquiry`), so a wrong mark
is a production stall: the loop parked on an fsync or a peer.  Here
every marked method of both data-plane interfaces is dispatched on nodes
whose file system and replication peers are tripwires — any call into
either, after the node is open and seeded, fails the test.
"""

from __future__ import annotations

import pytest

from repro.cluster import ShardService
from repro.cluster.shard import SHARD_INTERFACE
from repro.cluster.shardmap import ShardMap
from repro.nameserver.replication import Replica
from repro.nameserver.server import NAMESERVER_INTERFACE
from repro.rpc import Bool, DictOf, Int, ListOf, Pickled, RpcServer, Str
from repro.rpc.interface import STATUS_OK, encode_request
from repro.storage import SimFS
from repro.storage.interface import FileSystem

#: the reviewed set — widening it means re-reading DESIGN.md, "Enquiries
#: on the loop", and editing this line on purpose
BOUNDED_ENQUIRIES = {"lookup", "exists", "summary"}

SEEDED_PATH = ["a", "a"]


class TripwireFS(SimFS):
    """A SimFS that, once armed, records and refuses every call."""

    armed = False

    def __init__(self) -> None:
        super().__init__()
        self.touched: list[str] = []


def _tripwire(name: str):
    inner = getattr(SimFS, name)

    def call(self, *args, **kwargs):
        if self.armed:
            self.touched.append(name)
            raise AssertionError(f"file-system call {name}() from an enquiry")
        return inner(self, *args, **kwargs)

    return call


for _name, _attr in vars(FileSystem).items():
    if callable(_attr) and not _name.startswith("_"):
        setattr(TripwireFS, _name, _tripwire(_name))


class TripwirePeer:
    """A replication peer on which every call is recorded and refused.

    Recorded as well as raised: ``Replica.propagate`` is best-effort and
    swallows a peer's exception, so only the record is proof.
    """

    def __init__(self, replica_id: str) -> None:
        self.replica_id = replica_id
        self.touched: list[str] = []

    def __getattr__(self, name: str):
        def call(*args, **kwargs):
            self.touched.append(name)
            raise AssertionError(f"peer call {name}() from an enquiry")

        return call


class Node:
    """One seeded replica behind an ``RpcServer``, tripwires armed."""

    def __init__(self, interface, replica_id: str, sharded: bool) -> None:
        self.interface = interface
        self.fs = TripwireFS()
        self.peer = TripwirePeer("other")
        self.replica = replica = Replica(self.fs, replica_id)
        replica.bind(SEEDED_PATH, "value")
        replica.add_peer(self.peer)
        implementation = replica
        if sharded:
            shard_map = ShardMap.initial(
                {"s0": [("s0", "sim:s0"), ("s0r1", "sim:s0r1")]}
            )
            implementation = ShardService(
                replica,
                "s0",
                shard_map,
                replica_id=replica_id,
                eager_propagate=True,
            )
        self.rpc = RpcServer()
        self.rpc.export(interface, implementation)
        self.fs.armed = True

    def dispatch(self, method: str) -> bytes:
        spec = self.interface.spec(method)
        args = tuple(sample(type_expr) for _name, type_expr in spec.params)
        return self.rpc.dispatch(encode_request(self.interface, method, args))


def sample(type_expr) -> object:
    """A well-typed argument; paths come out as ``SEEDED_PATH``."""
    if type_expr is Int:
        return 0
    if type_expr is Bool:
        return False
    if type_expr is Str:
        return "a"
    if isinstance(type_expr, ListOf):
        return [sample(type_expr.element)] * 2
    if isinstance(type_expr, DictOf):
        return {}
    if isinstance(type_expr, Pickled):
        return "value"
    raise NotImplementedError(f"no sample argument for {type_expr!r}")


NODES = {
    "plain-replica": lambda: Node(NAMESERVER_INTERFACE, "r0", sharded=False),
    "shard-primary": lambda: Node(SHARD_INTERFACE, "s0", sharded=True),
    "shard-follower": lambda: Node(SHARD_INTERFACE, "s0r1", sharded=True),
}


@pytest.fixture(params=sorted(NODES))
def node(request) -> Node:
    return NODES[request.param]()


def bounded(interface) -> set[str]:
    return {
        name for name, spec in interface.methods.items() if spec.bounded_enquiry
    }


@pytest.mark.parametrize("interface", [NAMESERVER_INTERFACE, SHARD_INTERFACE])
def test_the_marked_set_is_the_reviewed_set(interface):
    assert bounded(interface) == BOUNDED_ENQUIRIES


def test_marked_methods_touch_neither_disk_nor_peers(node):
    for method in sorted(bounded(node.interface)):
        reply = node.dispatch(method)
        assert reply[0] == STATUS_OK, (method, reply)
        assert node.fs.touched == [], method
        assert node.peer.touched == [], method


def test_the_tripwires_would_catch_a_wrong_mark():
    """The guard is not vacuous: an update trips the file system on a
    primary and is refused on a follower, and gossip trips the peer."""
    primary = NODES["shard-primary"]()
    assert primary.dispatch("bind")[0] != STATUS_OK
    assert primary.fs.touched
    follower = NODES["shard-follower"]()
    assert follower.dispatch("bind")[0] != STATUS_OK  # NotPrimary
    primary.replica.propagate()
    assert primary.peer.touched == ["summary"]
