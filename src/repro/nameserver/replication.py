"""Replication: update propagation and anti-entropy between replicas.

The paper runs several name server replicas and uses them, rather than
local disk redundancy, to recover from hard failures:

    We respond to a hard error on a particular name server replica by
    restoring its data from another replica.  This causes us to lose only
    those updates that had been applied to the damaged replica but not
    propagated to any other replica. […] We have automatic mechanisms for
    ensuring the long-term consistency of the name server replicas.

Two of the three mechanisms live here:

* **eager propagation** — after local updates, push the new history
  records to every reachable peer (best effort; failures are tolerated);
* **anti-entropy** — periodic pairwise reconciliation by version vector:
  each side fetches exactly the records it lacks.  Each origin's records
  are applied in order, duplicates are skipped and names resolve
  last-writer-wins, so any gossip order converges.  The history that
  serves this is a bounded window: a replica further behind than that
  gets a typed :class:`HistoryTruncated` and is caught up by state.

The third, **restoration** — rebuilding a replica whose local recovery
failed from a peer's checkpoint and log tail — is
:class:`repro.nameserver.recover.ReplicaRecoverer`.

A "peer" is anything with the replication hooks — a local
:class:`NameServer`, a :class:`RemoteNameServer` over RPC, or another
:class:`Replica` — so the same code drives in-process simulation and real
TCP deployments.
"""

from __future__ import annotations

from repro.nameserver.errors import HistoryTruncated
from repro.nameserver.server import NameServer
from repro.rpc.errors import CallMaybeExecuted, TransportError
from repro.sim.clock import Clock, WallClock
from repro.storage.interface import FileSystem


class PeerUnavailable(Exception):
    """The peer could not be reached for propagation or sync."""


class Replica(NameServer):
    """A name server replica with propagation and reconciliation."""

    def __init__(
        self,
        fs: FileSystem,
        replica_id: str,
        **db_options: object,
    ) -> None:
        super().__init__(fs, replica_id=replica_id, **db_options)
        self.peers: list[object] = []
        self._peer_ids: list[str] = []
        #: per-peer circuit state maintained by :meth:`propagate` — pure
        #: observability (propagation stays best-effort and always
        #: attempts every peer; anti-entropy heals whatever it misses),
        #: surfaced through the management ``status()`` so ``top
        #: --cluster`` can show a failing peer link at a glance.
        self.peer_breakers: dict[str, CircuitBreaker] = {}
        self.peer_errors: dict[str, str | None] = {}
        #: peers on the far side of a history window: "push" — the peer
        #: is behind ours, "pull" — we are behind the peer's.  Either way
        #: records cannot close the gap; the one behind needs recovery.
        self.peer_truncated: dict[str, str] = {}
        # Registered eagerly on the database's registry so a node's
        # Prometheus export shows the replication layer from the start.
        registry = self.db.registry
        self._propagation_failures = registry.counter(
            "replication_propagation_failures_total",
            "Peers that could not be reached during eager propagation.",
        )
        self._records_propagated = registry.counter(
            "replication_records_propagated_total",
            "History records delivered to peers by eager propagation.",
        )
        self._records_pulled = registry.counter(
            "replication_records_pulled_total",
            "History records pulled from peers by anti-entropy.",
        )
        self._history_records = registry.gauge(
            "replication_history_records",
            "Records in the history window, as of the last propagation round.",
        )
        truncated = registry.counter(
            "replication_history_truncated_total",
            "Exchanges refused: one end is behind the other's history window.",
            labelnames=("direction",),
        )
        self._truncated = {d: truncated.labels(d) for d in ("push", "pull")}
        self._tree_mismatches = registry.counter(
            "replication_tree_mismatches_total",
            "Sync pairs whose version vectors agreed but whose Merkle "
            "tree digests did not (silent divergence detected).",
        )
        self._repair_leaves_shipped = registry.counter(
            "replication_repair_leaves_shipped_total",
            "Bindings shipped by anti-entropy tree repair (not whole "
            "snapshots).",
        )

    @property
    def propagation_failures(self) -> int:
        return int(self._propagation_failures.value)

    def add_peer(self, peer: object) -> None:
        """Register a peer (NameServer, Replica or RemoteNameServer)."""
        peer_id = str(
            getattr(peer, "replica_id", f"peer{len(self.peers)}")
        )
        self.peers.append(peer)
        self._peer_ids.append(peer_id)
        self.peer_breakers.setdefault(
            peer_id, CircuitBreaker(self.db.clock)
        )
        self.peer_errors.setdefault(peer_id, None)

    def peer_status(self) -> dict[str, dict[str, object]]:
        """Per-peer circuit state and last propagation error."""
        return {
            peer_id: {
                "state": breaker.state,
                "consecutive_failures": breaker.consecutive_failures,
                "times_opened": breaker.times_opened,
                "last_error": self.peer_errors.get(peer_id),
                "truncated": self.peer_truncated.get(peer_id),
            }
            for peer_id, breaker in self.peer_breakers.items()
        }

    def _note_truncated(self, peer, direction: str, exc: HistoryTruncated) -> None:
        """Record that records can no longer reconcile us with ``peer``."""
        peer_id = self._peer_ids[self.peers.index(peer)]
        self.peer_truncated[peer_id] = direction
        self.peer_errors[peer_id] = repr(exc)
        self._truncated[direction].inc()
        self.db.flight.record(
            "replication_history_truncated", peer=peer_id, origins=",".join(exc.origins)
        )

    # -- propagation -----------------------------------------------------------

    def propagate(self) -> int:
        """Push everything each peer lacks; returns records delivered.

        Best-effort, exactly as the paper accepts: a peer that is down
        simply misses this round and is healed later by anti-entropy.  A
        peer behind the history window is noted as needing recovery; its
        link is fine, so its breaker is left alone.
        """
        delivered = 0
        self._history_records.set(self.db.enquire(lambda root: len(root["history"])))
        for peer_id, peer in zip(self._peer_ids, self.peers):
            breaker = self.peer_breakers[peer_id]
            breaker.allow()  # advance open -> half-open once timed out
            try:
                their_vector = peer.summary()
                missing = self.updates_since(their_vector)
                if missing:
                    peer.apply_remote(missing)
                    delivered += len(missing)
                    self._records_propagated.inc(len(missing))
                breaker.record_success()
                self.peer_errors[peer_id] = None
                self.peer_truncated.pop(peer_id, None)
            except HistoryTruncated as exc:
                self._note_truncated(peer, "push", exc)
            except Exception as exc:
                self._propagation_failures.inc()
                breaker.record_failure()
                self.peer_errors[peer_id] = repr(exc)
        return delivered

    # -- anti-entropy -------------------------------------------------------------

    def sync_from(self, peer: object) -> int:
        """Pull updates this replica lacks from ``peer``; returns count.

        Only a communication failure becomes :class:`PeerUnavailable`; a
        typed answer from a live peer propagates as itself —
        :class:`HistoryTruncated` (noted first, when ``peer`` is a
        registered one) tells the caller this replica needs recovery.
        """
        try:
            missing = peer.updates_since(self.summary())
        except HistoryTruncated as exc:
            if peer in self.peers:
                self._note_truncated(peer, "pull", exc)
            raise
        except (CallMaybeExecuted, *COMMUNICATION_ERRORS) as exc:
            raise PeerUnavailable(f"sync failed: {exc!r}") from exc
        if not missing:
            return 0
        applied = self.apply_remote(missing)
        self._records_pulled.inc(applied)
        return applied

    def sync_with(self, peer: object) -> tuple[int, int]:
        """Bidirectional reconciliation; returns (pulled, pushed).

        Once records have moved both ways and the two version vectors
        agree, the trees should too; if their Merkle digests still
        differ, the divergence is silent and records cannot heal it, so
        the diverged leaves are force-converged (:meth:`_repair_with`).
        """
        pulled = self.sync_from(peer)
        try:
            missing = self.updates_since(peer.summary())
            pushed = peer.apply_remote(missing) if missing else 0
            if dict(peer.summary()) == dict(self.summary()):
                self._repair_with(peer)
        except (CallMaybeExecuted, *COMMUNICATION_ERRORS) as exc:
            raise PeerUnavailable(f"push failed: {exc!r}") from exc
        return pulled, pushed

    def _repair_with(self, peer: object) -> None:
        """Merkle-compare with a vector-equal peer; repair what differs."""
        if self.tree_digest()["digest"] == peer.tree_digest()["digest"]:
            return
        peer_id = str(getattr(peer, "replica_id", "peer"))
        self._tree_mismatches.inc()
        self.db.flight.record("tree_divergence", peer=peer_id)
        items, comparisons = diverged_leaf_paths(self, peer)
        shipped = repair_divergence(self, peer, items)
        self._repair_leaves_shipped.inc(shipped)
        self.db.flight.record(
            "tree_repair",
            peer=peer_id,
            leaves_shipped=shipped,
            comparisons=comparisons,
        )


class ReplicaGroup:
    """A convenience wrapper driving a whole replica set in simulation."""

    def __init__(self, replicas: list[Replica]) -> None:
        if not replicas:
            raise ValueError("a replica group needs at least one replica")
        self.replicas = list(replicas)
        for replica in self.replicas:
            for other in self.replicas:
                if other is not replica:
                    replica.add_peer(other)

    def propagate_all(self) -> int:
        return sum(replica.propagate() for replica in self.replicas)

    def anti_entropy_round(self) -> int:
        """One gossip round: each replica pulls from its ring successor."""
        moved = 0
        count = len(self.replicas)
        for index, replica in enumerate(self.replicas):
            moved += replica.sync_from(self.replicas[(index + 1) % count])
        return moved

    def converge(self, max_rounds: int = 10) -> int:
        """Run anti-entropy rounds until no records move."""
        rounds = 0
        for rounds in range(1, max_rounds + 1):
            if self.anti_entropy_round() == 0:
                break
        return rounds

    def is_consistent(self) -> bool:
        """All replicas hold identical live name sets and version vectors."""
        baseline = self.replicas[0]
        base_tree = sorted(
            (list(p), v) for p, v in _entries(baseline)
        )
        base_vector = baseline.summary()
        for replica in self.replicas[1:]:
            if replica.summary() != base_vector:
                return False
            if sorted((list(p), v) for p, v in _entries(replica)) != base_tree:
                return False
        return True


def _entries(server: NameServer):
    return server.read_subtree(())


# -- graceful degradation -----------------------------------------------------

#: Exceptions that mean "the peer, or the path to it, failed" — everything
#: else (NameNotFound, NameExists…) is an application answer and proves the
#: peer healthy.  OSError covers raw socket/file failures from local peers.
COMMUNICATION_ERRORS = (PeerUnavailable, TransportError, OSError)

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """A per-peer circuit breaker: closed → open → half-open → closed.

    ``failure_threshold`` consecutive failures open the circuit; while
    open, :meth:`allow` refuses traffic (no timeouts wasted on a dead
    peer) until ``reset_timeout_seconds`` have passed on the injected
    clock, after which probe calls are allowed (half-open).  The circuit
    closes only after ``success_threshold`` *consecutive* probe
    successes — a single lucky probe against a flapping peer must not
    re-admit full traffic — and any probe failure re-opens it for
    another full timeout.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        failure_threshold: int = 3,
        reset_timeout_seconds: float = 30.0,
        success_threshold: int = 2,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold counts from 1")
        if success_threshold < 1:
            raise ValueError("success_threshold counts from 1")
        if reset_timeout_seconds < 0:
            raise ValueError("reset timeout cannot be negative")
        self.clock = clock if clock is not None else WallClock()
        self.failure_threshold = failure_threshold
        self.success_threshold = success_threshold
        self.reset_timeout_seconds = reset_timeout_seconds
        self.state = CLOSED
        self.consecutive_failures = 0
        self.consecutive_successes = 0
        self.times_opened = 0
        self._opened_at = 0.0

    def allow(self) -> bool:
        """Whether a call to this peer should be attempted now."""
        if self.state == OPEN:
            if (
                self.clock.now() - self._opened_at
                >= self.reset_timeout_seconds
            ):
                self.state = HALF_OPEN  # probes may pass
                self.consecutive_successes = 0
                return True
            return False
        return True

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state == HALF_OPEN:
            self.consecutive_successes += 1
            if self.consecutive_successes >= self.success_threshold:
                self.state = CLOSED
                self.consecutive_successes = 0
        else:
            self.state = CLOSED

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        self.consecutive_successes = 0
        if (
            self.state == HALF_OPEN
            or self.consecutive_failures >= self.failure_threshold
        ):
            if self.state != OPEN:
                self.times_opened += 1
            self.state = OPEN
            self._opened_at = self.clock.now()


# -- anti-entropy tree comparison ---------------------------------------------
#
# Version vectors catch *missing updates*; they cannot catch silent
# divergence — two replicas whose vectors agree but whose trees differ
# (bit rot below the checksums, a buggy replay, operator surgery).  The
# Merkle digests exposed by ``tree_digest`` localise such a difference in
# O(depth) pairwise calls, and ``repair_leaves`` force-converges exactly
# the diverged bindings — no full snapshot transfer.


def diverged_leaf_paths(
    left: object, right: object, path: tuple = ()
) -> tuple[list[tuple[str, tuple]], int]:
    """Walk two peers' Merkle digests; localise every divergence.

    Returns ``(items, comparisons)`` where each item is ``("leaf", path)``
    — the single binding at ``path`` differs — or ``("subtree", path)``
    — the subtree exists on only one side and must be shipped whole.
    ``comparisons`` counts the ``tree_digest`` exchanges made (two per
    level on the diverged spine, so O(depth) per differing binding).
    """
    items: list[tuple[str, tuple]] = []
    comparisons = _diff_digests(left, right, path, items)
    return items, comparisons


def _diff_digests(
    left: object, right: object, path: tuple, items: list
) -> int:
    lrep = left.tree_digest(path)
    rrep = right.tree_digest(path)
    comparisons = 2
    if lrep["digest"] == rrep["digest"]:
        return comparisons
    if lrep["leaf"] != rrep["leaf"]:
        items.append(("leaf", path))
    lchildren = lrep["children"]
    rchildren = rrep["children"]
    for name in sorted(set(lchildren) | set(rchildren)):
        child = path + (name,)
        if name not in lchildren or name not in rchildren:
            items.append(("subtree", child))
        elif lchildren[name] != rchildren[name]:
            comparisons += _diff_digests(left, right, child, items)
    return comparisons


def repair_divergence(
    left: object, right: object, items: list[tuple[str, tuple]]
) -> int:
    """Cross-apply the diverged leaves both ways; returns leaves shipped.

    Both sides run the same deterministic ``ns_repair`` merge (stamp
    order, digest tiebreak on equal stamps), so after one exchange the
    pair agrees on every shipped binding regardless of which side's
    value wins.
    """
    shipped = 0
    for kind, path in items:
        left_leaves = left.read_leaves(path)
        right_leaves = right.read_leaves(path)
        if kind == "leaf":
            # Only the binding at the path itself; its children digests
            # matched, so shipping the subtree would be waste.
            left_leaves = [x for x in left_leaves if not list(x[0])]
            right_leaves = [x for x in right_leaves if not list(x[0])]
        to_left = _absolute(path, right_leaves)
        to_right = _absolute(path, left_leaves)
        if to_left:
            left.repair_leaves(to_left)
            shipped += len(to_left)
        if to_right:
            right.repair_leaves(to_right)
            shipped += len(to_right)
    return shipped


def _absolute(path: tuple, leaves: list) -> list:
    return [
        (tuple(path) + tuple(relative), value, lamport, origin, deleted)
        for relative, value, lamport, origin, deleted in leaves
    ]
