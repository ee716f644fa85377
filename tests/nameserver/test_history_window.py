"""The replication history is a bounded retransmission window.

What that has to mean, by test rather than by argument:

* **bounded** — the root holds fewer than ``2 * HISTORY_WINDOW`` records
  and no ``applied`` set however many updates ran, so a checkpoint costs
  what the live database costs;
* **deterministic** — pruning is a pure function of the root: replaying
  a log across a prune regenerates the live root byte for byte;
* **the same answers inside the window** — ``updates_since`` returns
  what the full scan returned, at a cost proportional to what is missing;
* **a typed answer outside it** — ``HistoryTruncated`` names the origins,
  crosses RPC as itself, and every place that can meet it reacts: the
  recoverer renegotiates against a fresh checkpoint, ``propagate`` and
  ``sync_round`` mark the peer, a serving node recovers itself (or goes
  on serving and says so).
"""

from __future__ import annotations

import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import LocalFS
from repro.core.errors import DatabaseClosed
from repro.core.version import checkpoint_name
from repro.nameserver import (
    NAMESERVER_INTERFACE,
    NAMESERVER_OPS,
    HistoryTruncated,
    NameServer,
    RecoveryFailed,
    RemoteNameServer,
    Replica,
    ReplicaRecoverer,
    ResilientReplicaGroup,
    new_root,
    operations,
)
from repro.nameserver.operations import HISTORY_WINDOW, updates_since
from repro.nameserver.replication import CLOSED, PeerUnavailable
from repro.nameserver.serve import NodeOptions, build_node
from repro.pickles import pickle_write
from repro.rpc import LoopbackTransport, RemoteError, RpcServer, TcpTransport
from repro.sim import SimClock
from repro.storage import SimFS
from repro.tools.top import peer_links

LOCAL = NAMESERVER_OPS.get("ns_local").apply
REMOTE = NAMESERVER_OPS.get("ns_remote").apply


def small_window(size: int = 4):
    """The one place the constant is read, so the one place to shrink it."""
    return mock.patch.object(operations, "HISTORY_WINDOW", size)


def live_bytes(server: NameServer) -> bytes:
    return server.db.enquire(pickle_write)


def overwrite(server: NameServer, count: int, names: int = 50, start: int = 0) -> None:
    for n in range(start, start + count):
        server.bind(f"org/hosts/h{n % names:02d}", {"generation": n})


# -- (i) bounded --------------------------------------------------------------


def test_history_and_checkpoint_stay_bounded_under_overwrites():
    fs = SimFS(clock=SimClock())
    server = NameServer(fs, durability="relaxed")
    sizes = {}
    longest = 0
    for n in range(5 * HISTORY_WINDOW):
        server.bind(f"org/hosts/h{n % 50:02d}", {"generation": n})
        longest = max(longest, server.db.enquire(lambda root: len(root["history"])))
        if n + 1 in (2 * HISTORY_WINDOW, 5 * HISTORY_WINDOW):
            sizes[n + 1] = fs.size(checkpoint_name(server.checkpoint()))
    assert longest == 2 * HISTORY_WINDOW - 1
    root_keys = server.db.enquire(lambda root: sorted(root))
    assert "applied" not in root_keys
    assert server.db.enquire(lambda root: len(root["history"])) < 2 * HISTORY_WINDOW
    assert server.summary() == {"primary": 5 * HISTORY_WINDOW}
    early, late = sizes[2 * HISTORY_WINDOW], sizes[5 * HISTORY_WINDOW]
    assert abs(late - early) <= 0.05 * early, sizes


# -- (ii) deterministic across the prune boundary -----------------------------


@pytest.mark.parametrize("updates", range(1, 20))
def test_replay_regenerates_the_window_byte_for_byte(updates):
    """Window 4 prunes at the 8th and 12th and 16th record: every crash
    point before, at and after each of them."""
    with small_window(4):
        fs = SimFS(clock=SimClock())
        server = NameServer(fs)
        overwrite(server, updates, names=3)
        expected = live_bytes(server)
        fs.crash()  # no checkpoint: the reopened root is all replay
        reopened = NameServer(fs)
        assert reopened.db.last_recovery.entries_replayed == updates
        assert live_bytes(reopened) == expected
        history = reopened.db.enquire(lambda root: list(root["history"]))
        assert len(history) < 8
        assert history[-1][0] == ("primary", updates)


@pytest.mark.parametrize("batch", [1, 3, 8])
def test_replayed_remote_batches_prune_where_the_live_ones_did(batch):
    """The follower's window (its own records and the origin's) fills and
    is cut in the middle of an ``ns_remote`` batch."""
    with small_window(8):
        origin = Replica(SimFS(clock=SimClock()), "a")
        fs = SimFS(clock=SimClock())
        follower = Replica(fs, "b")
        for round_ in range(4):
            overwrite(origin, batch, names=3, start=round_ * batch)
            follower.sync_from(origin)
            follower.bind("own/name", round_)
        expected = live_bytes(follower)
        fs.crash()
        assert live_bytes(Replica(fs, "b")) == expected


# -- (iv) updates_since -------------------------------------------------------


def full_scan(root: dict, vector: dict) -> list:
    """What ``updates_since`` was before the window: the reference."""
    return [
        record
        for record in root["history"]
        if record[0][1] > vector.get(record[0][0], 0)
    ]


def origins_out_of_window(root: dict, vector: dict) -> list[str]:
    held = {record[0] for record in root["history"]}
    return sorted(
        origin
        for origin, seq in root["vector"].items()
        if seq > vector.get(origin, 0)
        and (origin, vector.get(origin, 0) + 1) not in held
    )


def interleaved_root(turns: list[str]) -> dict:
    """A root that took one update per turn from the origin named."""
    sources = {origin: new_root(origin) for origin in set(turns)}
    root = new_root("target")
    for n, origin in enumerate(turns):
        if origin == "target":
            LOCAL(root, "bind", (("t", str(n)), n, False))
            continue
        LOCAL(sources[origin], "bind", ((origin, str(n % 3)), n, False))
        assert REMOTE(root, [sources[origin]["history"][-1]]) == 1
    return root


@pytest.mark.parametrize("origins", [["a", "b"], ["a", "b", "target"]])
@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_updates_since_matches_the_full_scan_inside_the_window(origins, data):
    turns = data.draw(st.lists(st.sampled_from(origins), min_size=1, max_size=30))
    with small_window(data.draw(st.sampled_from([4, 64]))):
        root = interleaved_root(turns)
    vector = {
        origin: data.draw(st.integers(0, seq + 1), label=origin)
        for origin, seq in root["vector"].items()
        if data.draw(st.booleans(), label=f"knows {origin}")
    }
    gone = origins_out_of_window(root, vector)
    if gone:
        with pytest.raises(HistoryTruncated) as caught:
            updates_since(root, vector)
        assert caught.value.origins == gone
    else:
        assert updates_since(root, vector) == full_scan(root, vector)


class CountingList(list):
    """A history that counts the records a backwards walk visits."""

    def __init__(self, items) -> None:
        super().__init__(items)
        self.visited = 0

    def __reversed__(self):
        for item in super().__reversed__():
            self.visited += 1
            yield item

    def __iter__(self):
        raise AssertionError("updates_since must not scan forwards")


@pytest.mark.parametrize("missing", [0, 1, 7, 300])
def test_updates_since_visits_only_what_is_missing(missing):
    root = interleaved_root(["a", "b"] * 600)
    assert len(root["history"]) == 1200
    root["history"] = CountingList(root["history"])
    seen_a = 600 - missing
    records = updates_since(root, {"a": seen_a, "b": 600})
    assert [record[0] for record in records] == [
        ("a", seq) for seq in range(seen_a + 1, 601)
    ]
    # a's records sit at every other place; the walk ends at a's next one
    assert root["history"].visited == (2 * missing if missing else 0)


def test_history_truncated_crosses_rpc_as_itself():
    """(vi), first half: a typed answer, not a RemoteError."""
    with small_window(4):
        donor = Replica(SimFS(clock=SimClock()), "donor")
        overwrite(donor, 20)
    rpc = RpcServer()
    rpc.export(NAMESERVER_INTERFACE, donor)
    remote = RemoteNameServer(LoopbackTransport(rpc))
    assert remote.updates_since({"donor": 18}) == donor.updates_since({"donor": 18})
    with pytest.raises(HistoryTruncated) as caught:
        remote.updates_since({"donor": 3})
    assert not isinstance(caught.value, RemoteError)
    assert caught.value.origins == ["donor"]
    assert str(caught.value) == str(HistoryTruncated(["donor"]))


# -- the reactions: propagate, sync_from, sync_round --------------------------


def wedged_pair() -> tuple[Replica, Replica]:
    """``ahead`` is more than a window past what ``behind`` has seen."""
    with small_window(4):
        ahead = Replica(SimFS(clock=SimClock()), "ahead")
        behind = Replica(SimFS(clock=SimClock()), "behind")
        overwrite(ahead, 2)
        behind.sync_from(ahead)
        overwrite(ahead, 20, start=2)
    return ahead, behind


def test_propagate_marks_a_truncated_peer_without_tripping_its_breaker():
    ahead, behind = wedged_pair()
    fine = Replica(SimFS(clock=SimClock()), "fine")
    ahead.add_peer(behind)
    ahead.add_peer(fine)
    before = behind.summary()
    for _ in range(5):  # more rounds than the breaker's failure threshold
        ahead.propagate()
    assert behind.summary() == before, "a suffix with a gap must not apply"
    assert fine.summary() == {}, "fine is just as far behind: it never saw a record"
    status = ahead.peer_status()
    for peer_id in ("behind", "fine"):
        assert status[peer_id]["state"] == CLOSED
        assert status[peer_id]["consecutive_failures"] == 0
        assert status[peer_id]["truncated"] == "push"
        assert "HistoryTruncated" in status[peer_id]["last_error"]
    assert ahead.propagation_failures == 0
    series = ahead.db.registry.snapshot()["replication_history_truncated_total"]["series"]
    assert {s["labels"]["direction"]: s["value"] for s in series} == {
        "push": 10,
        "pull": 0,
    }
    events = ahead.db.flight.events("replication_history_truncated")
    assert events[-1]["fields"] == {"peer": "fine", "origins": "ahead"}
    assert "behind the history window — needs recovery" in peer_links(status)


def test_a_peer_that_catches_up_by_state_is_no_longer_marked():
    ahead, behind = wedged_pair()
    ahead.add_peer(behind)
    ahead.propagate()
    assert ahead.peer_status()["behind"]["truncated"] == "push"
    rebuilt = ReplicaRecoverer(SimFS(clock=SimClock()), "behind", [ahead]).run()
    ahead.peers[0] = rebuilt
    ahead.bind("after/recovery", 1)
    assert ahead.propagate() == 1
    assert ahead.peer_status()["behind"]["truncated"] is None
    assert rebuilt.lookup("after/recovery") == 1


def test_sync_from_lets_the_typed_answer_through():
    ahead, behind = wedged_pair()
    behind.add_peer(ahead)
    with pytest.raises(HistoryTruncated) as caught:
        behind.sync_from(ahead)
    assert not isinstance(caught.value, PeerUnavailable)
    assert behind.peer_status()["ahead"]["truncated"] == "pull"
    assert behind.peer_status()["ahead"]["state"] == CLOSED
    with pytest.raises(HistoryTruncated):
        behind.sync_with(ahead)
    # an unregistered peer is answered the same way, just not recorded
    stranger = Replica(SimFS(clock=SimClock()), "stranger")
    with pytest.raises(HistoryTruncated):
        stranger.sync_from(ahead)


def test_sync_from_still_wraps_a_dead_link():
    class DeadPeer:
        def updates_since(self, vector):
            raise ConnectionError("unreachable")

    replica = Replica(SimFS(clock=SimClock()), "a")
    with pytest.raises(PeerUnavailable):
        replica.sync_from(DeadPeer())


def test_sync_round_reports_the_peer_as_needing_recovery():
    ahead, behind = wedged_pair()
    group = ResilientReplicaGroup([ahead, behind], failure_threshold=1)
    before = behind.summary()
    report = group.sync_round()
    assert report.peers_need_recovery == ["behind"]
    assert report.peers_failed == []
    assert behind.summary() == before
    assert {s["state"] for s in group.status().values()} == {CLOSED}
    assert "HistoryTruncated" in group.status()["behind"]["last_error"]
    # the other direction of the ring still ran: ahead pulled from behind
    assert report.peers_synced == 1


# -- (v) the wedge ------------------------------------------------------------


def tree_digest(server) -> str:
    return server.tree_digest()["digest"]


def test_recoverer_renegotiates_once_when_history_cannot_reach_the_checkpoint():
    """More than two windows of updates since the donor's last checkpoint
    and nothing that would ever take another: its snapshot and its
    records cannot meet, so the recoverer asks for a fresh checkpoint."""
    clock = SimClock()
    donor = Replica(SimFS(clock=clock), "donor", clock=clock, durability="relaxed")
    overwrite(donor, 2 * HISTORY_WINDOW + 50)
    assert donor.db.version == 1
    with pytest.raises(HistoryTruncated):
        donor.updates_since({})
    recoverer = ReplicaRecoverer(
        SimFS(clock=clock), "follower", [donor], clock=clock, chunk_size=1 << 16
    )
    follower = recoverer.run()
    assert recoverer.report.plan_restarts == 1
    assert recoverer.report.stages.count("planning") == 2
    assert donor.db.version == 2, "exactly one checkpoint was taken on request"
    assert tree_digest(follower) == tree_digest(donor)
    assert follower.summary() == donor.summary()
    follower.bind("from/follower", 1)
    follower.add_peer(donor)
    assert follower.propagate() == 1
    assert donor.lookup("from/follower") == 1


def test_recoverer_gives_up_after_its_retries_rather_than_looping():
    class NeverCatchesUp(Replica):
        def updates_since(self, vector):
            raise HistoryTruncated(["donor"])

    clock = SimClock()
    donor = NeverCatchesUp(SimFS(clock=clock), "donor", clock=clock)
    donor.bind("a/b", 1)
    recoverer = ReplicaRecoverer(SimFS(clock=clock), "follower", [donor], clock=clock)
    with pytest.raises(RecoveryFailed) as caught:
        recoverer.run()
    assert caught.value.stage == "log_tail"
    assert recoverer.report.plan_restarts == recoverer.stage_retries + 1


# -- (vi) a serving node ------------------------------------------------------


def address(node) -> str:
    return f"{node.listener.host}:{node.port}"


def wait_for(condition, seconds: float = 10.0) -> bool:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(0.02)
    return False


@pytest.fixture
def donor_node(tmp_path):
    options = NodeOptions(
        str(tmp_path / "donor"), replica_id="donor", sync_interval=600.0,
        durability="relaxed",
    )
    with build_node(options) as node:
        overwrite(node.replica, 2 * HISTORY_WINDOW + 10)
        yield node


def seeded_follower_directory(tmp_path) -> str:
    """Not blank: the node must meet the window by *pulling*, not at boot."""
    directory = str(tmp_path / "follower")
    seed = Replica(LocalFS(directory), "follower")
    seed.bind("follower/own", "kept")
    seed.close()
    return directory


def test_node_behind_the_window_recovers_itself_when_allowed(tmp_path, donor_node):
    options = NodeOptions(
        seeded_follower_directory(tmp_path),
        replica_id="follower",
        peers=[address(donor_node)],
        sync_interval=0.05,
        auto_recover=True,
    )
    with build_node(options) as follower:
        donor = donor_node.replica

        def caught_up() -> bool:
            try:
                return tree_digest(follower.replica) == tree_digest(donor)
            except DatabaseClosed:  # mid-recovery: the old replica is shut
                return False

        assert wait_for(caught_up), follower.replica.peer_status()
        assert follower.replica.db.health == "healthy"
        assert follower.replica.summary() == donor.summary()
        # its own update reached the donor before it was rebuilt from it
        assert follower.replica.lookup("follower/own") == "kept"
        kinds = [event["kind"] for event in follower.flight.snapshot()]
        assert "replication_history_truncated" in kinds
        assert "recovery_complete" in kinds


def test_node_behind_the_window_without_the_flag_serves_on_and_says_so(
    tmp_path, donor_node
):
    options = NodeOptions(
        seeded_follower_directory(tmp_path),
        replica_id="follower",
        peers=[address(donor_node)],
        sync_interval=0.05,
    )
    with build_node(options) as follower:
        assert wait_for(
            lambda: follower.replica.peer_status()["peer0"]["truncated"] == "pull"
        )
        time.sleep(0.2)  # several more rounds: still nothing but the note
        client = RemoteNameServer(TcpTransport(follower.listener.host, follower.port))
        try:
            assert client.lookup("follower/own") == "kept"
            client.bind("still/serving", True)
        finally:
            client.close()
        assert follower.replica.db.health == "healthy"
        assert follower.replica.summary().get("donor", 0) == 0
        status = follower.management.status()["peers"]["peer0"]
        assert status["truncated"] == "pull" and status["state"] == CLOSED
        assert "this replica is behind its history window" in peer_links(
            follower.management.status()["peers"]
        )
        kinds = [event["kind"] for event in follower.flight.snapshot()]
        assert "recovery_complete" not in kinds


def test_rebuilding_a_healthy_node_first_hands_over_what_only_it_holds(
    tmp_path, donor_node
):
    """Cutover replaces the directory with the donor's state: an acked
    update that only this node holds must reach the donor before that."""
    options = NodeOptions(
        seeded_follower_directory(tmp_path),
        replica_id="follower",
        peers=[address(donor_node)],
        sync_interval=600.0,  # the loop never runs: nothing was propagated
    )
    with build_node(options) as follower:
        follower.replica.bind("only/here", "acked")
        assert not donor_node.replica.exists("only/here")
        report = follower.recover()
        assert report["plan_restarts"] == 1  # the donor has no checkpoint policy
        assert donor_node.replica.lookup("only/here") == "acked"
        assert follower.replica.lookup("only/here") == "acked"
        assert follower.replica.lookup("follower/own") == "kept"
        assert tree_digest(follower.replica) == tree_digest(donor_node.replica)
        assert follower.replica.db.health == "healthy"
        follower.replica.bind("after/rebuild", 1)  # and it takes updates again


def test_a_healthy_node_is_not_rebuilt_from_a_peer_that_missed_the_hand_over(
    tmp_path, donor_node
):
    """Both sides more than a window apart: neither can take the other's
    records, so a rebuild would lose one side's updates — refused."""
    options = NodeOptions(
        seeded_follower_directory(tmp_path),
        replica_id="follower",
        peers=[address(donor_node)],
        sync_interval=600.0,
        durability="relaxed",
    )
    with build_node(options) as follower:
        overwrite(follower.replica, 2 * HISTORY_WINDOW, names=5)
        with pytest.raises(ValueError):
            follower.recover()
        assert follower.replica.lookup("org/hosts/h04")["generation"] >= 2040
        assert follower.replica.db.health == "healthy"
        assert follower.replica.summary() == {"follower": 2 * HISTORY_WINDOW + 1}
        follower.replica.bind("still/writable", 1)


def test_history_gauge_follows_the_window():
    with small_window(4):
        replica = Replica(SimFS(clock=SimClock()), "a")
        for n in range(1, 20):
            replica.bind("k", n)
            replica.propagate()
            held = replica.db.registry.get("replication_history_records").value
            assert held == replica.db.enquire(lambda root: len(root["history"])) < 8
