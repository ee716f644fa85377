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

from dataclasses import dataclass, field

from repro.core.errors import DatabaseDegraded
from repro.nameserver.errors import HistoryTruncated
from repro.nameserver.server import NameServer
from repro.obs.metrics import MetricsRegistry
from repro.rpc.errors import CallMaybeExecuted, TransportError
from repro.sim.clock import Clock, WallClock
from repro.storage.interface import FileSystem


class PeerUnavailable(Exception):
    """The peer could not be reached for propagation or sync."""


class AllPeersUnavailable(PeerUnavailable):
    """Every replica in the group is down or circuit-broken."""


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
        """Bidirectional reconciliation; returns (pulled, pushed)."""
        pulled = self.sync_from(peer)
        try:
            missing = self.updates_since(peer.summary())
            pushed = peer.apply_remote(missing) if missing else 0
        except (CallMaybeExecuted, *COMMUNICATION_ERRORS) as exc:
            raise PeerUnavailable(f"push failed: {exc!r}") from exc
        return pulled, pushed


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
RECOVERING = "recovering"


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

    A fourth state, ``RECOVERING``, is entered explicitly via
    :meth:`mark_recovering` when the peer is being rebuilt by the
    replica recoverer: no traffic (not even probes) flows until
    :meth:`mark_recovered` — recovery completion, not elapsed time, is
    the only way out, mirroring the health state machine's rule that
    nothing self-promotes back to healthy.
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
        if self.state == RECOVERING:
            return False  # only mark_recovered() re-admits traffic
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
        if self.state == RECOVERING:
            return
        self.consecutive_failures = 0
        if self.state == HALF_OPEN:
            self.consecutive_successes += 1
            if self.consecutive_successes >= self.success_threshold:
                self.state = CLOSED
                self.consecutive_successes = 0
        else:
            self.state = CLOSED

    def record_failure(self) -> None:
        if self.state == RECOVERING:
            return
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

    def mark_recovering(self) -> None:
        """The peer is being rebuilt; quarantine it from all traffic."""
        self.state = RECOVERING
        self.consecutive_failures = 0
        self.consecutive_successes = 0

    def mark_recovered(self) -> None:
        """Recovery finished; the peer rejoins with a clean slate."""
        if self.state == RECOVERING:
            self.state = CLOSED
            self.consecutive_failures = 0
            self.consecutive_successes = 0


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


@dataclass
class ReadResult:
    """A read served by a possibly-degraded replica group.

    ``degraded`` is True when the preferred (first listed) replica did not
    serve the read; ``lag`` then reports how many updates the serving
    replica is known to be missing relative to the freshest version
    vector the group has seen (0 = fully caught up as far as anyone
    knows, ``None`` = staleness could not be assessed).
    """

    value: object
    served_by: str
    degraded: bool = False
    lag: int | None = 0
    peers_tried: int = 1


@dataclass
class SyncReport:
    """Outcome of one degraded-tolerant anti-entropy round."""

    records_moved: int = 0
    peers_synced: int = 0
    peers_skipped: list[str] = field(default_factory=list)
    peers_failed: list[str] = field(default_factory=list)
    #: reachable, but behind their source's history window: only replica
    #: recovery (snapshot + log tail) can catch them up
    peers_need_recovery: list[str] = field(default_factory=list)
    #: pairs whose version vectors agreed but whose tree digests did not
    tree_mismatches: int = 0
    #: bindings force-converged by the Merkle repair walk this round
    leaves_repaired: int = 0


class ResilientReplicaGroup:
    """Drives a replica set that keeps answering while peers fail.

    Where :class:`ReplicaGroup` assumes every replica is reachable (its
    sync raises :class:`PeerUnavailable` on first failure), this wrapper
    assumes failure is normal: each peer sits behind a
    :class:`CircuitBreaker`, reads fail over to live peers with explicit
    staleness reporting (:class:`ReadResult`), updates fail over to the
    first live peer, and anti-entropy skips broken peers instead of
    aborting the round.  Peers may be local :class:`Replica` objects,
    :class:`~repro.nameserver.client.RemoteNameServer` proxies, or any
    mix — all that is required is the replication hook surface.
    """

    def __init__(
        self,
        peers: list[object],
        peer_ids: list[str] | None = None,
        clock: Clock | None = None,
        failure_threshold: int = 3,
        reset_timeout_seconds: float = 30.0,
        success_threshold: int = 2,
        track_staleness: bool = True,
        anti_entropy_repair: bool = True,
        registry: MetricsRegistry | None = None,
        flight=None,
    ) -> None:
        if not peers:
            raise ValueError("a replica group needs at least one peer")
        #: when False, reads skip the extra ``summary()`` round trip and
        #: report ``lag=None`` (cheaper, but staleness is unassessed)
        self.track_staleness = track_staleness
        self.peers = list(peers)
        if peer_ids is None:
            peer_ids = [
                str(getattr(peer, "replica_id", f"peer{i}"))
                for i, peer in enumerate(self.peers)
            ]
        if len(peer_ids) != len(self.peers):
            raise ValueError("one peer_id per peer")
        self.peer_ids = list(peer_ids)
        self.clock = clock if clock is not None else WallClock()
        #: when False, sync rounds skip the Merkle digest comparison (the
        #: version-vector gossip still runs)
        self.anti_entropy_repair = anti_entropy_repair
        self.breakers = {
            peer_id: CircuitBreaker(
                self.clock,
                failure_threshold,
                reset_timeout_seconds,
                success_threshold,
            )
            for peer_id in self.peer_ids
        }
        self.last_errors: dict[str, str | None] = {
            peer_id: None for peer_id in self.peer_ids
        }
        #: freshest version vector observed from any peer (origin → seq)
        self.best_vector: dict[str, int] = {}
        self.registry = registry if registry is not None else MetricsRegistry(
            clock=self.clock
        )
        #: optional :class:`~repro.obs.flight.FlightRecorder`: breaker
        #: flips and failovers join the shared black-box timeline.
        self.flight = flight
        self._failovers = self.registry.counter(
            "replication_failovers_total",
            "Reads or updates served by a non-preferred replica.",
        )
        self._breaker_state = self.registry.gauge(
            "replication_breaker_state",
            "Per-peer circuit state: 0 closed, 1 half-open, 2 open, "
            "3 recovering.",
            labelnames=("peer",),
        )
        self._breaker_opens = self.registry.counter(
            "replication_breaker_opens_total",
            "Circuit-breaker open transitions per peer.",
            labelnames=("peer",),
        )
        self._staleness_lag = self.registry.gauge(
            "replication_staleness_lag",
            "Updates the serving replica is known to be missing.",
            labelnames=("peer",),
        )
        self._degraded_rejections = self.registry.counter(
            "replication_degraded_writes_total",
            "Updates refused by a degraded read-only replica and failed "
            "over to a peer.",
            labelnames=("peer",),
        )
        self._tree_mismatches = self.registry.counter(
            "replication_tree_mismatches_total",
            "Sync pairs whose version vectors agreed but whose Merkle "
            "tree digests did not (silent divergence detected).",
        )
        self._tree_repairs = self.registry.counter(
            "replication_tree_repairs_total",
            "Merkle repair walks that force-converged a diverged pair.",
        )
        self._repair_leaves_shipped = self.registry.counter(
            "replication_repair_leaves_shipped_total",
            "Bindings shipped by anti-entropy tree repair (not whole "
            "snapshots).",
        )
        self._breaker_state_series = {
            peer_id: self._breaker_state.labels(peer_id)
            for peer_id in self.peer_ids
        }
        self._breaker_open_counts = {
            peer_id: self._breaker_opens.labels(peer_id)
            for peer_id in self.peer_ids
        }
        self._breaker_last_state = {
            peer_id: self.breakers[peer_id].state
            for peer_id in self.peer_ids
        }

    @property
    def failovers(self) -> int:
        return int(self._failovers.value)

    # -- plumbing -------------------------------------------------------------

    def _available(self) -> list[tuple[int, str, object]]:
        return [
            (index, peer_id, peer)
            for index, (peer_id, peer) in enumerate(
                zip(self.peer_ids, self.peers)
            )
            if self._allow(peer_id)
        ]

    _STATE_CODES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2, RECOVERING: 3}

    def _allow(self, peer_id: str) -> bool:
        allowed = self.breakers[peer_id].allow()
        self._note_breaker(peer_id)  # allow() may flip open → half-open
        return allowed

    def _note_breaker(self, peer_id: str) -> None:
        state = self.breakers[peer_id].state
        self._breaker_state_series[peer_id].set(self._STATE_CODES[state])
        previous = self._breaker_last_state[peer_id]
        if state != previous:
            self._breaker_last_state[peer_id] = state
            if self.flight is not None:
                self.flight.record(
                    "breaker_transition",
                    peer=peer_id,
                    from_state=previous,
                    to_state=state,
                )

    def _success(self, peer_id: str) -> None:
        self.breakers[peer_id].record_success()
        self.last_errors[peer_id] = None
        self._note_breaker(peer_id)

    def _failure(self, peer_id: str, exc: Exception) -> None:
        breaker = self.breakers[peer_id]
        opened_before = breaker.times_opened
        breaker.record_failure()
        if breaker.times_opened > opened_before:
            self._breaker_open_counts[peer_id].inc(
                breaker.times_opened - opened_before
            )
        self.last_errors[peer_id] = repr(exc)
        self._note_breaker(peer_id)

    def _note_vector(self, vector: dict[str, int]) -> None:
        for origin, seq in vector.items():
            if seq > self.best_vector.get(origin, -1):
                self.best_vector[origin] = seq

    def _lag_of(self, vector: dict[str, int]) -> int:
        return sum(
            best - vector.get(origin, 0)
            for origin, best in self.best_vector.items()
            if best > vector.get(origin, 0)
        )

    # -- degraded reads -------------------------------------------------------

    def read(self, method: str, *args: object) -> ReadResult:
        """Serve one enquiry from the first live peer, reporting staleness.

        Application-level errors (``NameNotFound``…) propagate untouched:
        they are answers, not failures.  Communication failures rotate to
        the next peer — including :class:`CallMaybeExecuted`, which is
        harmless for an enquiry (re-asking elsewhere has no side effect,
        unlike :meth:`update`) — and only when every peer is broken does
        :class:`AllPeersUnavailable` surface.
        """
        candidates = self._available()
        tried = 0
        for index, peer_id, peer in candidates:
            tried += 1
            try:
                value = getattr(peer, method)(*args)
                vector = dict(peer.summary()) if self.track_staleness else None
            except (CallMaybeExecuted, *COMMUNICATION_ERRORS) as exc:
                self._failure(peer_id, exc)
                continue
            self._success(peer_id)
            lag = None
            if vector is not None:
                self._note_vector(vector)
                lag = self._lag_of(vector)
                self._staleness_lag.labels(peer_id).set(lag)
            degraded = index != 0
            if degraded:
                self._failovers.inc()
                if self.flight is not None:
                    self.flight.record(
                        "replica_failover",
                        kind="read",
                        method=method,
                        served_by=peer_id,
                    )
            return ReadResult(
                value=value,
                served_by=peer_id,
                degraded=degraded,
                lag=lag,
                peers_tried=tried,
            )
        raise AllPeersUnavailable(
            f"no replica answered {method!r}: "
            f"{len(candidates)} tried, "
            f"{len(self.peers) - len(candidates)} circuit-broken"
        )

    def lookup(self, path) -> ReadResult:
        return self.read("lookup", path)

    def exists(self, path) -> ReadResult:
        return self.read("exists", path)

    def list_dir(self, path=()) -> ReadResult:
        return self.read("list_dir", path)

    def count(self) -> ReadResult:
        return self.read("count")

    # -- updates with failover ------------------------------------------------

    def update(self, method: str, *args: object) -> str:
        """Apply one update at the first live peer; returns its peer id.

        A :class:`~repro.rpc.errors.CallMaybeExecuted` from a remote peer
        is *not* grounds for failover — blindly reissuing elsewhere could
        apply the update twice under two origins — so it propagates to the
        caller, who can retry through the same client safely.

        A :class:`~repro.core.errors.DatabaseDegraded` answer means the
        peer is alive but its storage refuses writes (degraded
        read-only): the update fails over to the next peer *without*
        opening the circuit breaker, so reads keep flowing to the
        degraded replica while writes route around it.
        """
        candidates = self._available()
        degraded: list[str] = []
        for index, peer_id, peer in candidates:
            try:
                getattr(peer, method)(*args)
            except DatabaseDegraded as exc:
                # Write-unavailable, not dead: the update never executed
                # (it was refused up front), so reissuing elsewhere is
                # safe, and the breaker stays closed for enquiries.
                self.last_errors[peer_id] = repr(exc)
                self._degraded_rejections.labels(peer_id).inc()
                degraded.append(peer_id)
                continue
            except COMMUNICATION_ERRORS as exc:
                # CallMaybeExecuted is RpcError, not TransportError, so it
                # is never swallowed here.
                self._failure(peer_id, exc)
                continue
            self._success(peer_id)
            if index != 0:
                self._failovers.inc()
                if self.flight is not None:
                    self.flight.record(
                        "replica_failover",
                        kind="update",
                        method=method,
                        served_by=peer_id,
                    )
            return peer_id
        raise AllPeersUnavailable(
            f"no replica accepted {method!r}: "
            f"{len(candidates)} tried ({len(degraded)} degraded "
            f"read-only), {len(self.peers) - len(candidates)} "
            f"circuit-broken"
        )

    def bind(self, path, value, exclusive: bool = False) -> str:
        return self.update("bind", path, value, exclusive)

    def unbind(self, path) -> str:
        return self.update("unbind", path)

    # -- degraded anti-entropy ------------------------------------------------

    def sync_round(self) -> SyncReport:
        """One gossip ring pass that tolerates broken peers.

        Each live peer pulls from its nearest live ring successor; broken
        peers are reported in the result instead of aborting the round
        (contrast :meth:`ReplicaGroup.anti_entropy_round`), and so are
        peers that are behind their source's history window.
        """
        report = SyncReport()
        live = self._available()
        broken = set(self.peer_ids) - {peer_id for _, peer_id, _ in live}
        report.peers_skipped = sorted(broken)
        if len(live) < 2:
            return report
        for position, (_, peer_id, peer) in enumerate(live):
            _, source_id, source = live[(position + 1) % len(live)]
            try:
                records = source.updates_since(peer.summary())
                moved = peer.apply_remote(records) if records else 0
                peer_vector = dict(peer.summary())
                self._note_vector(peer_vector)
                self._tree_repair_pass(
                    peer_id, peer, source_id, source, peer_vector, report
                )
            except HistoryTruncated as exc:
                # Both links work, so no breaker moves; more rounds of
                # gossip cannot help this peer either.
                self.last_errors[peer_id] = repr(exc)
                report.peers_need_recovery.append(peer_id)
                continue
            except (CallMaybeExecuted, *COMMUNICATION_ERRORS) as exc:
                # An ambiguous apply_remote is tolerable here: remote
                # apply is idempotent (version-vector filtered), so the
                # next round converges regardless.
                # Attribute the failure to whichever side broke; opening
                # both is safe (each will be re-probed) but imprecise.
                self._failure(peer_id, exc)
                self._failure(source_id, exc)
                report.peers_failed.append(peer_id)
                continue
            self._success(peer_id)
            self._success(source_id)
            report.peers_synced += 1
            report.records_moved += moved
        return report

    def _tree_repair_pass(
        self,
        peer_id: str,
        peer: object,
        source_id: str,
        source: object,
        peer_vector: dict[str, int],
        report: SyncReport,
    ) -> None:
        """Merkle-compare a synced pair; force-converge silent divergence.

        Only meaningful once the pair's version vectors agree — while
        records are still flowing, differing trees are expected, and the
        next round compares again.  Peers predating the repair surface
        (no ``tree_digest``) are skipped silently: the interface extends
        wire-compatibly.
        """
        if not self.anti_entropy_repair:
            return
        if not hasattr(peer, "tree_digest") or not hasattr(
            source, "tree_digest"
        ):
            return
        if peer_vector != dict(source.summary()):
            return
        if peer.tree_digest()["digest"] == source.tree_digest()["digest"]:
            return
        report.tree_mismatches += 1
        self._tree_mismatches.inc()
        if self.flight is not None:
            self.flight.record(
                "tree_divergence", peer=peer_id, source=source_id
            )
        items, comparisons = diverged_leaf_paths(peer, source)
        shipped = repair_divergence(peer, source, items)
        report.leaves_repaired += shipped
        self._tree_repairs.inc()
        self._repair_leaves_shipped.inc(shipped)
        if self.flight is not None:
            self.flight.record(
                "tree_repair",
                peer=peer_id,
                source=source_id,
                leaves_shipped=shipped,
                comparisons=comparisons,
            )

    # -- replica recovery -----------------------------------------------------

    def mark_recovering(self, peer_id: str) -> None:
        """Quarantine ``peer_id`` while the recoverer rebuilds it.

        Reads, updates and sync rounds all skip a RECOVERING peer; unlike
        OPEN there is no timed re-probe — only :meth:`mark_recovered`
        (recovery completion) re-admits traffic.
        """
        self.breakers[peer_id].mark_recovering()
        self._note_breaker(peer_id)

    def mark_recovered(self, peer_id: str, peer: object = None) -> None:
        """Re-admit a rebuilt peer, optionally swapping in its new handle.

        Cutover produces a *new* replica object (the old one was closed
        with its damaged database); pass it as ``peer`` so subsequent
        reads and syncs reach the rebuilt instance.
        """
        if peer is not None:
            self.peers[self.peer_ids.index(peer_id)] = peer
        self.breakers[peer_id].mark_recovered()
        self.last_errors[peer_id] = None
        self._note_breaker(peer_id)

    # -- observability --------------------------------------------------------

    def status(self) -> dict[str, dict[str, object]]:
        """Per-peer circuit state and last error, for operators."""
        return {
            peer_id: {
                "state": self.breakers[peer_id].state,
                "consecutive_failures": self.breakers[
                    peer_id
                ].consecutive_failures,
                "times_opened": self.breakers[peer_id].times_opened,
                "last_error": self.last_errors[peer_id],
            }
            for peer_id in self.peer_ids
        }
