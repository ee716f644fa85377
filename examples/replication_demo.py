#!/usr/bin/env python3
"""Replicated name service: propagation, conflicts, replica restoration.

Three name server replicas accept updates independently, gossip to
convergence, resolve a concurrent conflict identically everywhere, and
finally a replica whose disk has failed is rebuilt on a blank disk by a
``ReplicaRecoverer`` — it picks a healthy peer, ships that peer's
checkpoint and log tail, and cuts over through the ordinary version
switch — losing only the single update that had never propagated,
exactly the paper's stated bound.
"""

from repro import Replica, ReplicaGroup
from repro.nameserver import ReplicaRecoverer
from repro.sim import SimClock
from repro.storage import SimFS


def fresh_fs() -> SimFS:
    return SimFS(clock=SimClock())


def main() -> None:
    a = Replica(fresh_fs(), "a")
    b = Replica(fresh_fs(), "b")
    c = Replica(fresh_fs(), "c")
    group = ReplicaGroup([a, b, c])

    # Independent updates at each replica.
    a.bind("hosts/juniper", {"addr": "10.0.0.1"})
    b.bind("hosts/acacia", {"addr": "10.0.0.2"})
    c.bind("users/wobber", {"office": "src-2"})
    print("before gossip:", [replica.count() for replica in (a, b, c)])

    rounds = group.converge()
    print(f"after {rounds} gossip round(s):",
          [replica.count() for replica in (a, b, c)],
          "consistent:", group.is_consistent())

    # A concurrent conflict: all three bind the same name.
    for replica in (a, b, c):
        replica.bind("services/printer", f"spooler-on-{replica.replica_id}")
    group.converge()
    winners = {replica.lookup("services/printer") for replica in (a, b, c)}
    print(f"conflicting binds resolved identically everywhere: {winners}")

    # An unbind propagates as a tombstone.
    a.unbind("hosts/acacia")
    group.converge()
    print("acacia visible anywhere:",
          any(replica.exists("hosts/acacia") for replica in (a, b, c)))

    # Replica b suffers a hard error after one unpropagated update.
    b.bind("users/only-on-b", "doomed")
    b.close()
    recoverer = ReplicaRecoverer(fresh_fs(), "b", [a, c])
    restored = recoverer.run()
    print(f"replica b recovered from {recoverer.report.peer_id} "
          f"({' > '.join(recoverer.report.stages)}): "
          f"{restored.count()} names; "
          f"unpropagated update lost: "
          f"{not restored.exists('users/only-on-b')}")

    # The restored replica rejoins the group seamlessly.
    group2 = ReplicaGroup([a, restored, c])
    restored.bind("users/back-online", True)
    group2.converge()
    print("group consistent after rejoining:", group2.is_consistent())


if __name__ == "__main__":
    main()
