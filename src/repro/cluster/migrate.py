"""Online shard split/migration: move a hash range without losing a write.

The shape mirrors replica repair (:mod:`repro.nameserver.recover`): a
staged, resumable machine whose every transition is persisted (fsynced)
on the coordinator's directory, driven entirely over the ordinary shard
RPC surface:

``PLAN``
    Decide the moving range ``[lo, hi)`` (the upper half of the donor's
    widest range unless given) and precompute the post-cutover map
    (epoch+1).  Persist everything needed to resume.

``COPY``
    Bulk transfer: every top-level component on the donor whose hash
    falls in the range streams across as ``read_leaves`` →
    ``repair_leaves`` (tombstones and stamps included).  Last-writer-wins
    and idempotent, so a crashed copy re-runs from the top harmlessly.

``MIRROR``
    The donor starts **dual-writing**: every update it acks in the range
    is forwarded to the target.  A second (delta) copy then closes the
    window between the bulk copy and the mirror start.

``CUTOVER``
    The commit point: the coordinator *publishes* the new map through the
    version-switch idiom (staged file + atomic rename), then pushes it to
    the donor and target.  The donor starts answering ``WrongShard`` for
    the moved range the moment it installs the map — from then on no new
    donor-acked updates can exist in the range.

``FLUSH``
    One final delta copy sweeps up updates the donor acked *before*
    installing the new map but whose mirror forward failed (the dual
    write is fire-and-forget).  Only after this can the donor's copy be
    considered redundant.  The mirror is then ended.

``PURGE``
    The donor structurally drops the moved components (``ns_purge``) so
    scatter enquiries never double-count and memory is reclaimed, and the
    state file is deleted.

Why no acked update is lost: an update acked by the donor before cutover
was either forwarded by the mirror (it is on the target), or it is still
on the donor when FLUSH runs — and FLUSH runs strictly after the donor
stopped acking new writes in the range, so the delta it reads is final.
An update acked by the *target* after cutover is simply on the owner.
Duplicated deliveries (mirror + copy + flush overlap) collapse under
``repair_leaves``'s last-writer-wins by stamp.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.cluster.errors import MigrationFailed
from repro.cluster.quorum import as_store
from repro.cluster.shardmap import ShardMap
from repro.core.sharding import default_hash
from repro.rpc.errors import CallMaybeExecuted, TransportError

#: the stage machine, in order
PLAN = "plan"
COPY = "copy"
MIRROR = "mirror"
CUTOVER = "cutover"
FLUSH = "flush"
PURGE = "purge"
DONE = "done"
MIGRATION_STAGES = (PLAN, COPY, MIRROR, CUTOVER, FLUSH, PURGE, DONE)

#: the resume point lives on the coordinator's (possibly replicated)
#: store; MIGRATION_STATE_FILE itself is owned by repro.cluster.quorum
#: and re-exported here for old importers
MIGRATION_FORMAT = "repro-migration-v1"

_COMM_ERRORS = (TransportError, CallMaybeExecuted, OSError)


class _ReplicaTarget:
    """What ``client_factory`` receives for one replica of a shard.

    Quacks like both a :class:`~repro.cluster.shardmap.ShardInfo`
    (``shard_id``, ``address``) and a
    :class:`~repro.cluster.shardmap.ReplicaInfo` (``replica_id``), so
    factories written against either keep working.
    """

    __slots__ = ("shard_id", "replica_id", "address")

    def __init__(self, shard_id: str, replica_id: str, address: str) -> None:
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.address = address


@dataclass
class MigrationReport:
    """What one :meth:`ShardMigration.run` actually did."""

    donor_id: str
    target_id: str
    lo: int = 0
    hi: int = 0
    new_epoch: int = 0
    resumed: bool = False
    components_copied: int = 0
    leaves_copied: int = 0
    delta_rounds: int = 0
    purged_leaves: int = 0
    #: copies that could not be delivered to a target *follower* (the
    #: primary copy is mandatory; followers are best-effort and heal by
    #: replica repair when they return)
    follower_copy_misses: int = 0
    stages: list[str] = field(default_factory=list)


class ShardMigration:
    """Move one hash range from a donor shard to a target shard.

    ``publish(new_map)`` is the coordinator's durable commit (idempotent
    for an already-published epoch); ``client_factory(shard_info)``
    returns a client exposing the shard surface (``read_leaves``,
    ``repair_leaves``, ``components``, ``purge_components``,
    ``begin_mirror``/``end_mirror``, ``install_shard_map``) — a
    :class:`~repro.cluster.shard.RemoteShard` in production, the service
    object itself in the simulation sweeps.

    ``stage_observer(point)`` fires at every stage entry and after every
    durable unit of work — crash injection raises from it to prove
    resumability.
    """

    def __init__(
        self,
        store,
        shard_map: ShardMap,
        donor_id: str,
        target_id: str,
        *,
        publish: Callable[[ShardMap], None],
        client_factory: Callable[[object], object],
        moved: tuple[int, int] | None = None,
        stage_retries: int = 2,
        stage_observer: Callable[[str], None] | None = None,
        flight=None,
    ) -> None:
        # ``store`` is a MapStore/QuorumMapStore; a raw FileSystem (the
        # historical signature) is wrapped transparently.
        self.store = as_store(store)
        self.map = shard_map
        self.donor_id = donor_id
        self.target_id = target_id
        self.publish = publish
        self.client_factory = client_factory
        self.moved = moved
        self.stage_retries = stage_retries
        self.stage_observer = stage_observer
        self.flight = flight
        self.report = MigrationReport(donor_id=donor_id, target_id=target_id)
        self._donor = None
        self._target = None
        self._target_followers: list | None = None

    # -- the public entry point ------------------------------------------------

    def run(self) -> MigrationReport:
        """Execute (or resume) the stage machine; returns the report.

        Raises :class:`MigrationFailed` when a stage exhausts retries;
        the persisted state survives and a later run resumes.
        """
        state = self._load_state()
        if state is not None:
            start, new_map = self._resume(state)
            self.report.resumed = True
        else:
            start, new_map = PLAN, None
        try:
            if start == PLAN:
                new_map = self._stage_plan()
                start = COPY
            assert new_map is not None
            if start == COPY:
                self._stage_copy(new_map)
                start = MIRROR
            if start == MIRROR:
                self._stage_mirror(new_map)
                start = CUTOVER
            if start == CUTOVER:
                self._stage_cutover(new_map)
                start = FLUSH
            if start == FLUSH:
                self._stage_flush(new_map)
                start = PURGE
            if start == PURGE:
                self._stage_purge(new_map)
        except MigrationFailed:
            if self.flight is not None:
                self.flight.record(
                    "migration_failed", donor=self.donor_id,
                    target=self.target_id,
                )
            raise
        self._enter_stage(DONE)
        if self.flight is not None:
            self.flight.record(
                "migration_complete",
                donor=self.donor_id, target=self.target_id,
                epoch=self.report.new_epoch,
                leaves=self.report.leaves_copied,
            )
        return self.report

    # -- plumbing ----------------------------------------------------------------

    def _enter_stage(self, stage: str) -> None:
        self.report.stages.append(stage)
        if self.flight is not None:
            self.flight.record("migration_stage", stage=stage)
        self._observe(stage)

    def _observe(self, point: str) -> None:
        if self.stage_observer is not None:
            self.stage_observer(point)

    def _retrying(self, stage: str, fn):
        attempt = 0
        while True:
            try:
                return fn()
            except _COMM_ERRORS as exc:
                attempt += 1
                if attempt > self.stage_retries:
                    raise MigrationFailed(
                        stage, f"shard unreachable: {exc!r}"
                    ) from exc

    def donor(self):
        if self._donor is None:
            self._donor = self.client_factory(self.map.shard(self.donor_id))
        return self._donor

    def target(self):
        if self._target is None:
            self._target = self.client_factory(self.map.shard(self.target_id))
        return self._target

    def target_followers(self) -> list:
        """Clients for the target's follower replicas (may be empty).

        Bulk-copied leaves ship *state*, not history (``ns_repair``), so
        the target primary's own replication never forwards them: every
        replica of the target must receive the copy directly, or a
        post-split promotion would serve the moved range from a follower
        that never saw it.
        """
        if self._target_followers is None:
            shard = self.map.shard(self.target_id)
            self._target_followers = [
                self.client_factory(_ReplicaTarget(
                    shard.shard_id, follower.replica_id, follower.address
                ))
                for follower in shard.followers
            ]
        return self._target_followers

    def _moving_components(self, stage: str, lo: int, hi: int) -> list[str]:
        components = self._retrying(stage, lambda: self.donor().components())
        return [c for c in components if lo <= default_hash(c) < hi]

    def _copy_range(self, stage: str, lo: int, hi: int) -> int:
        """Stream every moving component donor → target; returns leaves."""
        shipped = 0
        for component in self._moving_components(stage, lo, hi):
            leaves = self._retrying(
                stage, lambda c=component: self.donor().read_leaves((c,))
            )
            absolute = [
                ([component] + list(rel), value, lamport, origin, deleted)
                for rel, value, lamport, origin, deleted in leaves
            ]
            if absolute:
                self._retrying(
                    stage,
                    lambda batch=absolute: self.target().repair_leaves(batch),
                )
                # Followers are best-effort: one being down must not
                # wedge the migration — it rebuilds by replica repair.
                for client in self.target_followers():
                    try:
                        client.repair_leaves(absolute)
                    except _COMM_ERRORS:
                        self.report.follower_copy_misses += 1
            shipped += len(absolute)
            self.report.components_copied += 1
            self._observe(f"{stage}_component")
        return shipped

    # -- PLAN --------------------------------------------------------------------

    def _stage_plan(self) -> ShardMap:
        self._enter_stage(PLAN)
        moved = self.moved or self.map.split_range(self.donor_id)
        new_map = self.map.with_range_moved(
            self.donor_id, self.target_id, moved
        )
        self.report.lo, self.report.hi = moved
        self.report.new_epoch = new_map.epoch
        self._save_state(COPY, new_map)
        return new_map

    # -- COPY / MIRROR -----------------------------------------------------------

    def _stage_copy(self, new_map: ShardMap) -> None:
        self._enter_stage(COPY)
        lo, hi = self.report.lo, self.report.hi
        self.report.leaves_copied += self._copy_range(COPY, lo, hi)
        self._save_state(MIRROR, new_map)

    def _stage_mirror(self, new_map: ShardMap) -> None:
        self._enter_stage(MIRROR)
        lo, hi = self.report.lo, self.report.hi
        address = new_map.shard(self.target_id).address
        # Idempotent: re-beginning an already-running mirror just resets
        # it, and the delta copy below re-closes any window.
        self._retrying(
            MIRROR, lambda: self.donor().begin_mirror(lo, hi, address)
        )
        self.report.delta_rounds += 1
        self.report.leaves_copied += self._copy_range(MIRROR, lo, hi)
        self._save_state(CUTOVER, new_map)

    # -- CUTOVER -----------------------------------------------------------------

    def _stage_cutover(self, new_map: ShardMap) -> None:
        self._enter_stage(CUTOVER)
        self.publish(new_map)  # THE commit: durable at the coordinator
        self._observe("cutover_published")
        # Install order matters: the *target* must recognise its new
        # ownership before the donor starts redirecting clients at it.
        payload = new_map.to_wire()
        self._retrying(
            CUTOVER, lambda: self.target().install_shard_map(payload)
        )
        self._retrying(
            CUTOVER, lambda: self.donor().install_shard_map(payload)
        )
        self._save_state(FLUSH, new_map)

    # -- FLUSH / PURGE -----------------------------------------------------------

    def _stage_flush(self, new_map: ShardMap) -> None:
        self._enter_stage(FLUSH)
        lo, hi = self.report.lo, self.report.hi
        # The donor no longer acks writes in the range (it installed the
        # new map in CUTOVER), so this delta is final: it contains every
        # acked update whose mirror forward failed.
        self.report.delta_rounds += 1
        self.report.leaves_copied += self._copy_range(FLUSH, lo, hi)
        self._retrying(FLUSH, lambda: self.donor().end_mirror())
        self._save_state(PURGE, new_map)

    def _stage_purge(self, new_map: ShardMap) -> None:
        self._enter_stage(PURGE)
        lo, hi = self.report.lo, self.report.hi
        moving = self._moving_components(PURGE, lo, hi)
        if moving:
            self.report.purged_leaves += self._retrying(
                PURGE, lambda: self.donor().purge_components(moving)
            )
            # ``ns_purge`` ships state, not history, so the donor's own
            # replication never carries it: purge every donor replica
            # directly (followers best-effort — a dead one rebuilds from
            # the already-purged primary).
            shard = self.map.shard(self.donor_id)
            for follower in shard.followers:
                client = self.client_factory(_ReplicaTarget(
                    shard.shard_id, follower.replica_id, follower.address
                ))
                try:
                    client.purge_components(moving)
                except _COMM_ERRORS:
                    self.report.follower_copy_misses += 1
        self.store.clear_migration()

    # -- the resume point --------------------------------------------------------

    def _save_state(self, stage: str, new_map: ShardMap) -> None:
        state = {
            "format": MIGRATION_FORMAT,
            "stage": stage,
            "donor": self.donor_id,
            "target": self.target_id,
            "lo": self.report.lo,
            "hi": self.report.hi,
            "new_map": new_map.to_wire(),
        }
        self.store.save_migration(state)
        self._observe(f"saved_{stage}")

    def _load_state(self) -> dict | None:
        state = self.store.load_migration()
        if (
            not isinstance(state, dict)
            or state.get("format") != MIGRATION_FORMAT
            or state.get("stage") not in MIGRATION_STAGES
            or state.get("donor") != self.donor_id
            or state.get("target") != self.target_id
        ):
            return None
        return state

    def _resume(self, state: dict) -> tuple[str, ShardMap]:
        new_map = ShardMap.from_wire(state["new_map"])
        self.report.lo = int(state["lo"])
        self.report.hi = int(state["hi"])
        if self.map.epoch >= new_map.epoch:
            # The cluster moved on while the migration was down — e.g. a
            # failover promotion bumped the epoch past the persisted
            # post-cutover map.  Publishing the stale map would be a
            # silent no-op (epochs only move forward), skipping the
            # commit entirely, so recompute against the live map.  If
            # the live map already shows the range on the target, the
            # cutover *did* publish and the live map is the truth.
            if self.map.shard(self.target_id).owns(self.report.lo):
                new_map = self.map
            else:
                new_map = self.map.with_range_moved(
                    self.donor_id,
                    self.target_id,
                    (self.report.lo, self.report.hi),
                )
        self.report.new_epoch = new_map.epoch
        return state["stage"], new_map


def pending_migration(store) -> dict | None:
    """The persisted state of an interrupted migration, if any.

    Accepts a map store or (historically) the coordinator's raw
    filesystem; a quorum store answers with the most advanced copy.
    """
    state = as_store(store).load_migration()
    if (
        isinstance(state, dict)
        and state.get("format") == MIGRATION_FORMAT
        and state.get("stage") in MIGRATION_STAGES
    ):
        return state
    return None
