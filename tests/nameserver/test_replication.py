"""Replication: propagation, anti-entropy convergence, conflict
resolution, hard-error restoration — the paper's section 4 story."""

from __future__ import annotations

from repro.nameserver import (
    NAMESERVER_INTERFACE,
    RemoteNameServer,
    Replica,
    ReplicaGroup,
    ReplicaRecoverer,
)
from repro.rpc import LoopbackTransport, RpcServer
from repro.sim import SimClock
from repro.storage import SimFS


def make_replicas(n) -> tuple[list[SimFS], list[Replica]]:
    filesystems = [SimFS(clock=SimClock()) for _ in range(n)]
    replicas = [
        Replica(fs, chr(ord("a") + i)) for i, fs in enumerate(filesystems)
    ]
    return filesystems, replicas


class TestPropagation:
    def test_push_to_peers(self):
        _, (a, b) = make_replicas(2)
        a.add_peer(b)
        a.bind("users/alice", 1)
        a.bind("users/bob", 2)
        assert a.propagate() == 2
        assert b.lookup("users/alice") == 1
        assert b.count() == 2

    def test_propagation_idempotent(self):
        _, (a, b) = make_replicas(2)
        a.add_peer(b)
        a.bind("k", 1)
        assert a.propagate() == 1
        assert a.propagate() == 0  # nothing new

    def test_propagation_tolerates_down_peer(self):
        class DownPeer:
            def summary(self):
                raise ConnectionError("unreachable")

        _, (a,) = make_replicas(1)
        a.add_peer(DownPeer())
        a.bind("k", 1)
        assert a.propagate() == 0
        assert a.propagation_failures == 1

    def test_unbind_propagates_as_tombstone(self):
        _, (a, b) = make_replicas(2)
        a.add_peer(b)
        a.bind("k", 1)
        a.propagate()
        a.unbind("k")
        a.propagate()
        assert not b.exists("k")


class TestAntiEntropy:
    def test_three_replicas_converge(self):
        _, replicas = make_replicas(3)
        group = ReplicaGroup(replicas)
        a, b, c = replicas
        a.bind("from/a", 1)
        b.bind("from/b", 2)
        c.bind("from/c", 3)
        group.converge()
        assert group.is_consistent()
        for replica in replicas:
            assert replica.count() == 3

    def test_conflicting_binds_resolve_identically(self):
        """Concurrent binds of one name: every replica picks the same winner."""
        _, replicas = make_replicas(3)
        group = ReplicaGroup(replicas)
        for replica in replicas:
            replica.bind("shared/name", f"from-{replica.replica_id}")
        group.converge()
        values = {r.lookup("shared/name") for r in replicas}
        assert len(values) == 1
        assert group.is_consistent()

    def test_bind_vs_unbind_conflict_converges(self):
        _, replicas = make_replicas(2)
        group = ReplicaGroup(replicas)
        a, b = replicas
        a.bind("k", 1)
        group.converge()
        a.unbind("k")      # lamport t
        b.bind("k", 99)    # same name, concurrent
        group.converge()
        assert group.is_consistent()
        assert a.exists("k") == b.exists("k")

    def test_gossip_order_does_not_matter(self):
        """Apply the same record sets in different orders: same result."""
        _, (a, b, c) = make_replicas(3)
        a.bind("x", "a1")
        a.bind("y", "a2")
        b.bind("x", "b1")
        records_a = a.updates_since({})
        records_b = b.updates_since({})
        # c applies a-then-b; a fresh replica applies b-then-a.
        c.apply_remote(records_a)
        c.apply_remote(records_b)
        _, (d,) = make_replicas(1)
        d.apply_remote(records_b)
        d.apply_remote(records_a)
        assert c.lookup("x") == d.lookup("x")
        assert c.lookup("y") == d.lookup("y")

    def test_sync_with_is_bidirectional(self):
        _, (a, b) = make_replicas(2)
        a.bind("from/a", 1)
        b.bind("from/b", 2)
        pulled, pushed = a.sync_with(b)
        assert pulled == 1 and pushed == 1
        assert a.count() == b.count() == 2

    def test_replication_over_rpc(self):
        fs_a, fs_b = SimFS(clock=SimClock()), SimFS(clock=SimClock())
        a = Replica(fs_a, "a")
        b = Replica(fs_b, "b")
        rpc = RpcServer()
        rpc.export(NAMESERVER_INTERFACE, b)
        remote_b = RemoteNameServer(LoopbackTransport(rpc))
        a.add_peer(remote_b)
        a.bind("over/rpc", True)
        assert a.propagate() == 1
        assert b.lookup("over/rpc") is True
        assert a.sync_from(remote_b) == 0  # already consistent


class TestRestoration:
    def test_restore_from_replica_after_hard_error(self):
        filesystems, (a, b) = make_replicas(2)
        group = ReplicaGroup([a, b])
        a.bind("users/alice", 1)
        b.bind("users/bob", 2)
        group.converge()
        # b's disk dies beyond local recovery; rebuild from a.
        fs_b_new = SimFS(clock=SimClock())
        restored = ReplicaRecoverer(fs_b_new, "b", [a]).run()
        assert restored.count() == 2
        assert restored.lookup("users/alice") == 1
        assert restored.summary() == a.summary()

    def test_restore_loses_only_unpropagated_updates(self):
        """The paper's stated loss bound."""
        _, (a, b) = make_replicas(2)
        a.add_peer(b)
        a.bind("propagated", 1)
        a.propagate()
        a.bind("unpropagated", 2)  # never reaches b
        fs_new = SimFS(clock=SimClock())
        restored = ReplicaRecoverer(fs_new, "a", [b]).run()
        assert restored.exists("propagated")
        assert not restored.exists("unpropagated")

    def test_restored_replica_rejoins_gossip(self):
        _, (a, b, c) = make_replicas(3)
        group = ReplicaGroup([a, b, c])
        a.bind("k1", 1)
        group.converge()
        fs_new = SimFS(clock=SimClock())
        b2 = ReplicaRecoverer(fs_new, "b", [a]).run()
        group2 = ReplicaGroup([a, b2, c])
        c.bind("k2", 2)
        b2.bind("k3", 3)
        group2.converge()
        assert group2.is_consistent()
        for replica in (a, b2, c):
            assert replica.count() == 3

    def test_restore_supersedes_damaged_files(self):
        """Recovery runs in the damaged directory itself; nothing the old
        files held survives the cutover."""
        fs_old = SimFS(clock=SimClock())
        damaged = Replica(fs_old, "x")
        damaged.bind("junk", 1)
        _, (source,) = make_replicas(1)
        source.bind("good", 2)
        damaged.close()
        restored = ReplicaRecoverer(fs_old, "x", [source]).run()
        assert restored.exists("good")
        assert not restored.exists("junk")

    def test_restored_replica_continues_local_updates(self):
        """next_seq must continue exactly where the group's knowledge of
        this origin ends: no reused id, and no gap either — the donor's
        own (larger) counter must not leak in, or every peer's in-order
        rule would wait for ever for updates that never existed."""
        _, (a, b) = make_replicas(2)
        a.add_peer(b)
        a.bind("one", 1)
        a.propagate()
        for n in range(3):
            b.bind(f"theirs/{n}", n)  # the donor's next_seq runs ahead
        fs_new = SimFS(clock=SimClock())
        a2 = ReplicaRecoverer(fs_new, "a", [b]).run()
        a2.bind("two", 2)  # must get a fresh (a, seq) id
        ids = [record[0] for record in a2.updates_since({})]
        assert len(ids) == len(set(ids)), f"duplicate update ids: {ids}"
        assert ids[-1] == ("a", 2)
        a2.add_peer(b)
        assert a2.propagate() == 1
        assert b.lookup("two") == 2
