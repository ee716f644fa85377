"""Automated replica repair: snapshot shipping + log-tail catch-up.

The paper's whole answer to a hard error is one sentence:

    We respond to a hard error on a particular name server replica by
    restoring its data from another replica.

This module is that sentence as a *staged, resumable* subsystem.  A
degraded or blank node runs a :class:`ReplicaRecoverer` against its
peers, entirely over the ordinary RPC surface:

``PLANNING``
    Ask every peer for a :meth:`~repro.nameserver.server.NameServer.\
snapshot_manifest` (checkpoint epoch, byte count, version vector,
    health) and pick the healthiest — the reachable HEALTHY peer whose
    version vector dominates.  Choose a fresh local *target version*
    number above anything on disk.

``SNAPSHOT``
    Stream the peer's checkpoint file in chunked, CRC-checked pages into
    ``checkpoint<target>``, fsyncing as it grows.  The file is written
    under a version number that no ``version``/``newversion`` file names
    yet, so by the version-file protocol's own restart rule the download
    is *invisible*: a crash at any point leaves a directory that recovers
    exactly as before (dangling numbered files are ignored and cleaned
    up).  The finished file must validate against the checkpoint
    format's checksum before the stage completes.

``LOG_TAIL``
    Create ``logfile<target>`` and append, as ordinary replayable log
    entries, first an ``ns_identity`` record (the shipped checkpoint
    carries the *peer's* replica id; the first replayed entry reclaims
    our own) and then ``ns_remote`` batches of every history record past
    the checkpoint's version vector, looping until the lag against the
    peer is at most ``cutover_lag``.

``CUTOVER``
    The atomic switch: ``newversion`` commits the target version exactly
    as a checkpoint switch would, the tidy-up deletes the damaged old
    files, and the node reopens as a normal
    :class:`~repro.nameserver.replication.Replica` — recovery replays
    the shipped checkpoint plus the staged tail, and the health monitor
    takes the ``RECOVERING → HEALTHY`` edge.

Every stage transition is persisted in ``recovery.json`` (fsynced), so a
crash mid-recovery *resumes*: a finished snapshot is not re-downloaded, a
partially fetched one continues at its durable byte offset, and a crash
after the commit point just finishes the tidy-up.  If the serving peer
checkpoints past the version being streamed, the typed
:class:`~repro.nameserver.errors.SnapshotGone` answer sends the stage
machine back to PLANNING against the peer's new checkpoint.  If the
peer's history window no longer reaches back to the checkpoint it shipped
(more than a window of updates since, and no checkpoint policy), LOG_TAIL
gets the typed :class:`~repro.nameserver.errors.HistoryTruncated` and
PLANNING runs again against a checkpoint the peer takes on request.

Observability: a ``recovery_stage`` gauge, stage-transition / bytes /
entries / retry counters, and flight-recorder events
(``recovery_stage``, ``recovery_complete``, ``recovery_failed``) that
join the node's black-box timeline.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field

from repro.core.checkpoint import CheckpointDamaged, read_checkpoint
from repro.core.log import LogScan, LogWriter
from repro.core.version import (
    NEWVERSION_FILE,
    checkpoint_name,
    commit_new_version,
    finalize_switch,
    logfile_name,
    numbered_files,
    read_current_version,
)
from repro.nameserver.errors import HistoryTruncated, SnapshotGone
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.pickles import DEFAULT_REGISTRY, pickle_read, pickle_write
from repro.rpc.errors import CallMaybeExecuted, TransportError
from repro.sim.clock import Clock, WallClock
from repro.storage.interface import FileSystem

#: the stage machine, in order
PLANNING = "planning"
SNAPSHOT = "snapshot"
LOG_TAIL = "log_tail"
CUTOVER = "cutover"
DONE = "done"
RECOVERY_STAGES = (PLANNING, SNAPSHOT, LOG_TAIL, CUTOVER, DONE)

#: numeric encoding for the ``recovery_stage`` gauge (0 = idle)
STAGE_CODES = {stage: code for code, stage in enumerate(RECOVERY_STAGES, 1)}

#: the fsynced resume point; see docs/FORMATS.md
RECOVERY_STATE_FILE = "recovery.json"
RECOVERY_FORMAT = "repro-recovery-v1"

#: failures that mean "the peer, or the path to it, broke" — each stage
#: is restartable, so these are retried rather than fatal.  An ambiguous
#: CallMaybeExecuted is safe to retry throughout: every recovery RPC is
#: an enquiry or an idempotent repair.
_COMM_ERRORS = (TransportError, CallMaybeExecuted, OSError)


class RecoveryFailed(Exception):
    """Replica recovery gave up; ``stage`` says where."""

    def __init__(self, stage: str, detail: str) -> None:
        super().__init__(f"recovery failed during {stage}: {detail}")
        self.stage = stage
        self.detail = detail


@dataclass(frozen=True)
class RecoveryPlan:
    """The negotiated outcome of the PLANNING stage."""

    peer_index: int
    peer_id: str
    source_version: int
    checkpoint_bytes: int
    target_version: int


@dataclass
class RecoveryReport:
    """What one :meth:`ReplicaRecoverer.run` actually did."""

    replica_id: str
    peer_id: str = ""
    target_version: int = 0
    resumed: bool = False
    bytes_shipped: int = 0
    entries_replayed: int = 0
    catchup_rounds: int = 0
    plan_restarts: int = 0
    stages: list[str] = field(default_factory=list)


class ReplicaRecoverer:
    """Takes one degraded or blank node back to HEALTHY via its peers.

    ``peers`` is any mix of local server objects and
    :class:`~repro.nameserver.client.RemoteNameServer` proxies exposing
    the repair hooks.  ``health_monitor`` is the *old* database's monitor
    when one exists (a degraded node being repaired in place) — it is
    driven through ``begin_recovery``/``recovered`` so the node's
    metrics and black box narrate the repair; a blank bootstrap has no
    monitor and passes None.

    ``stage_observer`` is a test hook called at every stage boundary
    (and after every durable snapshot chunk) with the stage name —
    crash-injection raises from it to prove resumability.

    ``db_options`` are forwarded to the :class:`Replica` opened at
    cutover (registry, clock and flight recorder default to the
    recoverer's own).
    """

    def __init__(
        self,
        fs: FileSystem,
        replica_id: str,
        peers: list[object],
        *,
        chunk_size: int = 4096,
        cutover_lag: int = 0,
        max_catchup_rounds: int = 16,
        stage_retries: int = 2,
        batch_records: int = 256,
        keep_versions: int = 1,
        clock: Clock | None = None,
        registry: MetricsRegistry | None = None,
        flight: FlightRecorder | None = None,
        health_monitor=None,
        stage_observer=None,
        db_options: dict | None = None,
    ) -> None:
        if not peers:
            raise ValueError("replica recovery needs at least one peer")
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if cutover_lag < 0:
            raise ValueError("cutover_lag cannot be negative")
        self.fs = fs
        self.replica_id = replica_id
        self.peers = list(peers)
        self.chunk_size = chunk_size
        self.cutover_lag = cutover_lag
        self.max_catchup_rounds = max_catchup_rounds
        self.stage_retries = stage_retries
        self.batch_records = batch_records
        self.keep_versions = keep_versions
        self.clock = clock if clock is not None else WallClock()
        self.registry = (
            registry if registry is not None else MetricsRegistry(clock=self.clock)
        )
        self.flight = flight
        self.health_monitor = health_monitor
        self.stage_observer = stage_observer
        self.db_options = dict(db_options) if db_options else {}
        self.pickle_registry = self.db_options.get(
            "pickle_registry", DEFAULT_REGISTRY
        )
        self.report = RecoveryReport(replica_id=replica_id)

        self._stage_gauge = self.registry.gauge(
            "recovery_stage",
            "replica recovery stage: 0 idle, 1 planning, 2 snapshot, "
            "3 log tail, 4 cutover, 5 done",
        )
        self._transitions = self.registry.counter(
            "recovery_stage_transitions_total",
            "stage entries of the replica recoverer",
            labelnames=("stage",),
        )
        self._bytes_shipped = self.registry.counter(
            "recovery_bytes_shipped_total",
            "checkpoint bytes streamed from peers during replica recovery",
        )
        self._entries_replayed = self.registry.counter(
            "recovery_entries_replayed_total",
            "history records staged into the recovery log tail",
        )
        self._chunk_retries = self.registry.counter(
            "recovery_chunk_retries_total",
            "snapshot chunks re-fetched after a transfer CRC mismatch",
        )
        self._attempts = self.registry.counter(
            "recovery_attempts_total",
            "replica recovery runs by outcome",
            labelnames=("outcome",),
        )

    # -- the public entry point -----------------------------------------------

    def run(self):
        """Execute (or resume) the stage machine; returns a live Replica.

        Raises :class:`RecoveryFailed` when a stage exhausts its retries;
        the staged files remain invisible to restarts and a later run
        resumes where this one stopped.
        """
        if self.health_monitor is not None:
            self.health_monitor.begin_recovery(source="replica_peer")
        try:
            replica = self._run_stages()
        except RecoveryFailed as exc:
            self._attempts.labels(outcome="failed").inc()
            self._stage_gauge.set(0)
            if self.health_monitor is not None:
                self.health_monitor.recovery_failed(str(exc))
            if self.flight is not None:
                self.flight.record(
                    "recovery_failed", stage=exc.stage, error=exc.detail
                )
            raise
        self._attempts.labels(outcome="ok").inc()
        if self.health_monitor is not None:
            self.health_monitor.recovered()
        if self.flight is not None:
            self.flight.record(
                "recovery_complete",
                peer=self.report.peer_id,
                version=self.report.target_version,
                bytes_shipped=self.report.bytes_shipped,
                entries_replayed=self.report.entries_replayed,
                resumed=self.report.resumed,
            )
        return replica

    # -- stage driver ----------------------------------------------------------

    def _run_stages(self):
        restarts = 0
        fresh = False
        while True:
            try:
                plan, start = self._stage_planning(fresh)
                if start == SNAPSHOT:
                    self._stage_snapshot(plan)
                    start = LOG_TAIL
                if start == LOG_TAIL:
                    self._stage_log_tail(plan)
                return self._stage_cutover(plan)
            except (SnapshotGone, HistoryTruncated) as exc:
                # The peer checkpointed past the version being streamed,
                # or its history no longer reaches back to the version
                # shipped; discard the download and renegotiate — in the
                # second case against a checkpoint taken for us.
                restarts += 1
                self.report.plan_restarts += 1
                if restarts > self.stage_retries:
                    raise RecoveryFailed(
                        self.report.stages[-1],
                        f"plan invalidated {restarts} times: {exc}",
                    ) from exc
                fresh = isinstance(exc, HistoryTruncated)
                self._discard_staged()
        # NOTREACHED

    def _enter_stage(self, stage: str) -> None:
        self.report.stages.append(stage)
        self._stage_gauge.set(STAGE_CODES[stage])
        self._transitions.labels(stage=stage).inc()
        if self.flight is not None:
            self.flight.record("recovery_stage", stage=stage)
        self._observe(stage)

    def _observe(self, point: str) -> None:
        if self.stage_observer is not None:
            self.stage_observer(point)

    def _retrying(self, stage: str, fn):
        """Run one peer exchange, retrying communication failures."""
        attempt = 0
        while True:
            try:
                return fn()
            except _COMM_ERRORS as exc:
                attempt += 1
                if attempt > self.stage_retries:
                    raise RecoveryFailed(
                        stage, f"peer unreachable: {exc!r}"
                    ) from exc

    # -- PLANNING --------------------------------------------------------------

    def _stage_planning(self, fresh: bool = False) -> tuple[RecoveryPlan, str]:
        """Negotiate (or resume) a plan; returns it plus the stage to run next.

        ``fresh`` has the chosen peer checkpoint before it answers.
        """
        self._enter_stage(PLANNING)
        state = self._load_state()
        if state is not None:
            resumed = self._resume_plan(state)
            if resumed is not None:
                plan, start = resumed
                self.report.resumed = True
                self.report.peer_id = plan.peer_id
                self.report.target_version = plan.target_version
                return plan, start
            self._discard_staged(state)
        # A stale interrupted switch (the degraded database's, or an
        # earlier abandoned recovery's) must not block our commit point.
        self.fs.delete_if_exists(NEWVERSION_FILE)
        peer_index, manifest = self._pick_peer()
        if fresh:
            peer = self.peers[peer_index]
            manifest = self._retrying(PLANNING, lambda: peer.snapshot_manifest(True))
        plan = RecoveryPlan(
            peer_index=peer_index,
            peer_id=str(manifest["replica_id"]),
            source_version=int(manifest["version"]),
            checkpoint_bytes=int(manifest["checkpoint_bytes"]),
            target_version=self._next_target_version(),
        )
        self.report.peer_id = plan.peer_id
        self.report.target_version = plan.target_version
        self._save_state(SNAPSHOT, plan)
        return plan, SNAPSHOT

    def _pick_peer(self) -> tuple[int, dict]:
        """The healthiest reachable peer: HEALTHY, dominant version vector."""
        best: tuple[int, int, dict] | None = None
        errors: list[str] = []
        for index, peer in enumerate(self.peers):
            try:
                manifest = peer.snapshot_manifest()
            except (SnapshotGone, *_COMM_ERRORS) as exc:
                errors.append(f"peer {index}: {exc!r}")
                continue
            if manifest.get("health") != "healthy":
                errors.append(
                    f"peer {index} ({manifest.get('replica_id')}): "
                    f"health={manifest.get('health')!r}"
                )
                continue
            weight = sum(manifest.get("vector", {}).values())
            if best is None or weight > best[0]:
                best = (weight, index, manifest)
        if best is None:
            raise RecoveryFailed(
                PLANNING,
                f"no healthy peer answered ({'; '.join(errors) or 'none'})",
            )
        return best[1], best[2]

    def _next_target_version(self) -> int:
        """A version number no file on disk uses yet.

        Decoupled from the peer's version number: the damaged directory
        may hold stale numbered files, and colliding with one would make
        the staged download ambiguous with committed state.
        """
        existing = numbered_files(self.fs)
        return (max(existing) if existing else 0) + 1

    # -- SNAPSHOT --------------------------------------------------------------

    def _stage_snapshot(self, plan: RecoveryPlan) -> None:
        self._enter_stage(SNAPSHOT)
        name = checkpoint_name(plan.target_version)
        peer = self.peers[plan.peer_index]
        if not self.fs.exists(name):
            self.fs.create(name)
        offset = self.fs.size(name)
        if offset > plan.checkpoint_bytes:
            # Torn garbage beyond the manifest size: restart the file.
            self.fs.truncate(name, 0)
            offset = 0
        while offset < plan.checkpoint_bytes:
            want = min(self.chunk_size, plan.checkpoint_bytes - offset)
            chunk = self._fetch_chunk(peer, plan, offset, want)
            self.fs.append(name, chunk)
            self.fs.fsync(name)
            offset += len(chunk)
            self.report.bytes_shipped += len(chunk)
            self._bytes_shipped.inc(len(chunk))
            self._observe("snapshot_chunk")
        try:
            read_checkpoint(self.fs, name)
        except CheckpointDamaged as exc:
            # The transfer CRCs passed but the assembled file does not
            # validate — only a changed source file explains that.
            self.fs.truncate(name, 0)
            raise SnapshotGone(plan.source_version) from exc
        self._save_state(LOG_TAIL, plan)

    def _fetch_chunk(
        self, peer: object, plan: RecoveryPlan, offset: int, length: int
    ) -> bytes:
        attempt = 0
        while True:
            answer = self._retrying(
                SNAPSHOT,
                lambda: peer.snapshot_chunk(
                    plan.source_version, offset, length
                ),
            )
            data = answer["data"]
            if not data:
                # The file shrank under us: it was replaced.
                raise SnapshotGone(plan.source_version)
            if (zlib.crc32(data) & 0xFFFFFFFF) == answer["crc"]:
                return data
            self._chunk_retries.inc()
            attempt += 1
            if attempt > self.stage_retries:
                raise RecoveryFailed(
                    SNAPSHOT,
                    f"chunk at offset {offset} failed its CRC "
                    f"{attempt} times",
                )

    # -- LOG_TAIL --------------------------------------------------------------

    def _stage_log_tail(self, plan: RecoveryPlan) -> None:
        self._enter_stage(LOG_TAIL)
        vector = self._checkpoint_vector(plan)
        logname = logfile_name(plan.target_version)
        if not self.fs.exists(logname):
            self.fs.create(logname)
            self.fs.fsync(logname)
        last_seq = self._absorb_staged_entries(logname, vector)
        writer = LogWriter(
            self.fs,
            logname,
            page_size=getattr(self.fs, "page_size", 512),
            start_seq=last_seq + 1,
            clock=self.clock,
        )
        if last_seq == 0:
            # The first replayed entry reclaims this node's identity: the
            # shipped checkpoint says the *peer* originated it.
            writer.append(
                pickle_write(
                    ("ns_identity", (self.replica_id,), {}),
                    self.pickle_registry,
                )
            )
        peer = self.peers[plan.peer_index]
        rounds = 0
        while True:
            rounds += 1
            self.report.catchup_rounds += 1
            records = self._retrying(
                LOG_TAIL, lambda: peer.updates_since(dict(vector))
            )
            fresh = [
                record
                for record in records
                if record[0][1] > vector.get(record[0][0], 0)
            ]
            for start in range(0, len(fresh), self.batch_records):
                batch = fresh[start : start + self.batch_records]
                writer.append_unsynced(
                    pickle_write(
                        ("ns_remote", (list(batch),), {}),
                        self.pickle_registry,
                    )
                )
            if fresh:
                writer.sync()
                for (origin, seq), _lamport, _action, _params in fresh:
                    if seq > vector.get(origin, 0):
                        vector[origin] = seq
                self.report.entries_replayed += len(fresh)
                self._entries_replayed.inc(len(fresh))
            peer_vector = self._retrying(LOG_TAIL, lambda: peer.summary())
            lag = sum(
                seen - vector.get(origin, 0)
                for origin, seen in peer_vector.items()
                if seen > vector.get(origin, 0)
            )
            if lag <= self.cutover_lag:
                break
            if rounds >= self.max_catchup_rounds:
                raise RecoveryFailed(
                    LOG_TAIL,
                    f"lag still {lag} after {rounds} catch-up rounds "
                    f"(cutover threshold {self.cutover_lag})",
                )
        self._save_state(CUTOVER, plan)

    def _checkpoint_vector(self, plan: RecoveryPlan) -> dict[str, int]:
        payload = read_checkpoint(
            self.fs, checkpoint_name(plan.target_version)
        )
        root = pickle_read(payload, self.pickle_registry)
        return dict(root["vector"])

    def _absorb_staged_entries(
        self, logname: str, vector: dict[str, int]
    ) -> int:
        """Fold already-staged tail entries into ``vector`` (resume path).

        A previous attempt may have appended catch-up batches before
        crashing; replaying their version-vector effect (not their tree
        effect — that happens at cutover) avoids fetching those records
        again.  A torn final entry is cut off exactly as recovery would.
        """
        scan = LogScan(self.fs, logname)
        last_seq = 0
        for entry in scan:
            last_seq = entry.seq
            op_name, args, _kwargs = pickle_read(
                entry.payload, self.pickle_registry
            )
            if op_name != "ns_remote":
                continue
            for (origin, seq), _lamport, _action, _params in args[0]:
                if seq > vector.get(origin, 0):
                    vector[origin] = seq
        if scan.outcome.truncated:
            self.fs.truncate(logname, scan.outcome.good_length)
            self.fs.fsync(logname)
        return last_seq

    # -- CUTOVER ---------------------------------------------------------------

    def _stage_cutover(self, plan: RecoveryPlan):
        from repro.nameserver.replication import Replica  # avoid a cycle

        self._enter_stage(CUTOVER)
        current = read_current_version(self.fs)
        if current is None or current.number != plan.target_version:
            # Our own half-written newversion from a crashed commit (the
            # only writer here) would block the retry; a *valid* one
            # naming the target is the skip branch above.
            self.fs.delete_if_exists(NEWVERSION_FILE)
            commit_new_version(self.fs, plan.target_version)  # THE commit
            finalize_switch(
                self.fs, plan.target_version, self.keep_versions
            )
        self.fs.delete_if_exists(RECOVERY_STATE_FILE)
        self.fs.fsync_dir()
        self._enter_stage(DONE)
        self._stage_gauge.set(0)
        replica = Replica(self.fs, self.replica_id, **self._replica_options())
        owner = replica.db.enquire(lambda root: root["replica"])
        if owner != self.replica_id:
            raise RecoveryFailed(
                CUTOVER,
                f"recovered root answers to {owner!r}, not "
                f"{self.replica_id!r} — identity entry missing",
            )
        return replica

    def _replica_options(self) -> dict:
        options = dict(self.db_options)
        options.setdefault("registry", self.registry)
        options.setdefault("clock", self.clock)
        options.setdefault("keep_versions", self.keep_versions)
        if self.flight is not None:
            options.setdefault("flight", self.flight)
        return options

    # -- the resume point ------------------------------------------------------

    def _save_state(self, stage: str, plan: RecoveryPlan) -> None:
        state = {
            "format": RECOVERY_FORMAT,
            "stage": stage,
            "replica_id": self.replica_id,
            "peer_id": plan.peer_id,
            "source_version": plan.source_version,
            "checkpoint_bytes": plan.checkpoint_bytes,
            "target_version": plan.target_version,
        }
        self.fs.write(
            RECOVERY_STATE_FILE, json.dumps(state).encode("ascii")
        )
        self.fs.fsync(RECOVERY_STATE_FILE)

    def _load_state(self) -> dict | None:
        if not self.fs.exists(RECOVERY_STATE_FILE):
            return None
        try:
            state = json.loads(self.fs.read(RECOVERY_STATE_FILE))
        except Exception:
            return {}  # unreadable: force a discard + fresh start
        if (
            not isinstance(state, dict)
            or state.get("format") != RECOVERY_FORMAT
            or state.get("replica_id") != self.replica_id
            or state.get("stage") not in RECOVERY_STAGES
        ):
            return {}
        return state

    def _resume_plan(self, state: dict) -> tuple[RecoveryPlan, str] | None:
        """Rebuild the plan a crashed run persisted, if still viable.

        Returns ``(plan, stage to run next)``, or None when the state is
        unusable (damaged file, different replica, peer moved on) — the
        caller discards and replans from scratch.
        """
        if not state or "target_version" not in state:
            return None
        stage = state["stage"]
        target = int(state["target_version"])
        if stage == CUTOVER:
            # No peer needed: either the commit already happened (finish
            # the tidy-up) or the staged files are complete and durable.
            plan = RecoveryPlan(
                peer_index=0,
                peer_id=str(state["peer_id"]),
                source_version=int(state["source_version"]),
                checkpoint_bytes=int(state["checkpoint_bytes"]),
                target_version=target,
            )
            return plan, CUTOVER
        if stage == LOG_TAIL:
            # The snapshot is complete and validated; any healthy peer
            # can serve the tail (history records are origin-stamped).
            try:
                read_checkpoint(self.fs, checkpoint_name(target))
            except Exception:
                return None
            peer_index, manifest = self._pick_peer()
            plan = RecoveryPlan(
                peer_index=peer_index,
                peer_id=str(manifest["replica_id"]),
                source_version=int(state["source_version"]),
                checkpoint_bytes=int(state["checkpoint_bytes"]),
                target_version=target,
            )
            self._save_state(LOG_TAIL, plan)
            return plan, LOG_TAIL
        if stage == SNAPSHOT:
            # The partial file only matches if the same peer still serves
            # the same checkpoint version.
            for peer_index, peer in enumerate(self.peers):
                try:
                    manifest = peer.snapshot_manifest()
                except (SnapshotGone, *_COMM_ERRORS):
                    continue
                if (
                    manifest.get("replica_id") == state.get("peer_id")
                    and int(manifest.get("version", -1))
                    == int(state["source_version"])
                    and manifest.get("health") == "healthy"
                ):
                    plan = RecoveryPlan(
                        peer_index=peer_index,
                        peer_id=str(state["peer_id"]),
                        source_version=int(state["source_version"]),
                        checkpoint_bytes=int(state["checkpoint_bytes"]),
                        target_version=target,
                    )
                    return plan, SNAPSHOT
            return None
        return None

    def _discard_staged(self, state: dict | None = None) -> None:
        """Remove every staged artifact of an abandoned attempt.

        Anything invisible to ``read_current_version`` is fair game: the
        numbered files of versions no version marker names, plus the
        state file itself.
        """
        if state is None:
            state = self._load_state() or {}
        target = state.get("target_version")
        if isinstance(target, int):
            self.fs.delete_if_exists(checkpoint_name(target))
            self.fs.delete_if_exists(logfile_name(target))
        self.fs.delete_if_exists(RECOVERY_STATE_FILE)
        self.fs.fsync_dir()


def abandon_recovery(fs: FileSystem) -> bool:
    """Cleanly abort an in-progress (crashed) recovery on ``fs``.

    Deletes the state file and the staged target files it names; returns
    whether anything was found.  Used by ``fsck --repair`` so a directory
    with a half-finished recovery validates clean instead of tripping the
    unknown-file and partial-version checks.
    """
    if not fs.exists(RECOVERY_STATE_FILE):
        return False
    target: object = None
    try:
        state = json.loads(fs.read(RECOVERY_STATE_FILE))
        if isinstance(state, dict):
            target = state.get("target_version")
    except Exception:
        pass
    if isinstance(target, int):
        current = read_current_version(fs)
        if current is None or current.number != target:
            fs.delete_if_exists(checkpoint_name(target))
            fs.delete_if_exists(logfile_name(target))
    fs.delete_if_exists(RECOVERY_STATE_FILE)
    fs.fsync_dir()
    return True
