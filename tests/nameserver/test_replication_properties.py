"""Property-based convergence of the replication protocol.

The invariants that make anti-entropy correct:

* **Interleaving-independence**: applying the same update records in any
  interleaving that keeps each origin's records in order produces
  identical replica state.
* **In-order acceptance**: a record is applied only when it is its
  origin's next one — an early one is ignored until the gap is filled, a
  duplicate always — so a version vector is a contiguous prefix.
* **Idempotence**: re-applying any records is a no-op.
* **Convergence**: any replicas that have exchanged everything agree,
  whatever updates they each originated.
"""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from repro.nameserver import Replica, ReplicaGroup
from repro.sim import SimClock
from repro.storage import SimFS

# A compact action language for generated workloads.
path_names = st.sampled_from(["a", "b", "c"])
paths = st.lists(path_names, min_size=1, max_size=2).map(tuple)
actions = st.one_of(
    st.tuples(st.just("bind"), paths, st.integers(min_value=0, max_value=99)),
    st.tuples(st.just("unbind"), paths),
)
workloads = st.lists(actions, min_size=0, max_size=8)


def fresh(replica_id: str) -> Replica:
    return Replica(SimFS(clock=SimClock()), replica_id)


def run_workload(replica: Replica, workload) -> None:
    from repro.nameserver import NameNotFound

    for action in workload:
        if action[0] == "bind":
            _kind, path, value = action
            replica.bind(path, value)
        else:
            _kind, path = action
            try:
                replica.unbind(path)
            except NameNotFound:
                pass


def state_of(replica: Replica):
    return sorted((tuple(p), v) for p, v in replica.read_subtree(()))


@given(workloads, workloads, st.data())
@settings(max_examples=80, deadline=None)
def test_any_per_origin_ordered_interleaving_converges(wl_a, wl_b, data):
    origin_a = fresh("a")
    origin_b = fresh("b")
    run_workload(origin_a, wl_a)
    run_workload(origin_b, wl_b)
    records_a = origin_a.updates_since({})
    records_b = origin_b.updates_since({})

    first = fresh("x")
    first.apply_remote(records_a)
    first.apply_remote(records_b)

    second = fresh("y")
    second.apply_remote(records_b)
    second.apply_remote(records_a)

    # Interleaved in a generated order, record by record: which origin
    # goes next is free, the order within an origin is not.
    third = fresh("z")
    turns = data.draw(
        st.permutations(["a"] * len(records_a) + ["b"] * len(records_b))
    )
    queues = {"a": list(records_a), "b": list(records_b)}
    for origin in turns:
        assert third.apply_remote([queues[origin].pop(0)]) == 1

    assert state_of(first) == state_of(second) == state_of(third)
    assert first.summary() == second.summary() == third.summary()


@given(workloads, st.data())
@settings(max_examples=80, deadline=None)
def test_early_record_waits_for_its_gap_and_duplicates_are_ignored(workload, data):
    origin = fresh("a")
    run_workload(origin, workload)
    records = origin.updates_since({})
    assume(len(records) >= 2)  # unbinds of names never bound record nothing
    replica = fresh("b")
    # Offer the records in any order, again and again, until all are in:
    # each offer is accepted exactly when it is the next one.
    rounds = 0
    while replica.summary() != origin.summary():
        rounds += 1
        assert rounds <= len(records), "a pass over every record must advance"
        for index in data.draw(st.permutations(range(len(records)))):
            seen = replica.summary().get("a", 0)
            (_origin, seq), *_ = records[index]
            accepted = replica.apply_remote([records[index]])
            assert accepted == (1 if seq == seen + 1 else 0)
            assert replica.summary().get("a", 0) == seen + accepted
    assert state_of(replica) == state_of(origin)
    assert replica.updates_since({}) == records


@given(workloads)
@settings(max_examples=60, deadline=None)
def test_reapplication_is_idempotent(workload):
    origin = fresh("a")
    run_workload(origin, workload)
    records = origin.updates_since({})

    replica = fresh("b")
    assert replica.apply_remote(records) == len(records)
    before = state_of(replica)
    assert replica.apply_remote(records) == 0
    assert state_of(replica) == before


@given(workloads, workloads, workloads)
@settings(max_examples=50, deadline=None)
def test_three_replicas_converge(wl_a, wl_b, wl_c):
    replicas = [fresh("a"), fresh("b"), fresh("c")]
    group = ReplicaGroup(replicas)
    for replica, workload in zip(replicas, (wl_a, wl_b, wl_c)):
        run_workload(replica, workload)
    group.converge(max_rounds=20)
    assert group.is_consistent()


@given(workloads)
@settings(max_examples=50, deadline=None)
def test_replay_determinism_through_crash(workload):
    """Any generated workload survives a crash bit-for-bit (replication
    metadata included) — the replay contract for ns_local/ns_remote."""
    fs = SimFS(clock=SimClock())
    replica = Replica(fs, "a")
    run_workload(replica, workload)
    expected_state = state_of(replica)
    expected_vector = replica.summary()
    fs.crash()
    recovered = Replica(fs, "a")
    assert state_of(recovered) == expected_state
    assert recovered.summary() == expected_vector
