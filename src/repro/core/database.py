"""The database: a typed structure in virtual memory, a log and checkpoints.

This class is the paper's contribution, assembled from the substrates:

* the whole database is an ordinary Python object graph (the *root*),
  organised however the application likes;
* an **enquiry** is any read-only function of the root, run under the
  shared lock — it never touches the disk;
* an **update** is a registered single-shot transaction, executed with the
  paper's three-step protocol (verify preconditions under the update lock,
  commit the pickled parameters to the log, apply to virtual memory under
  the exclusive lock);
* a **checkpoint** pickles the entire root under the update lock —
  consistent, yet never blocking enquiries — and installs it with the
  atomic version-file switch;
* **restart** recovers the newest committed state from the disk files.

Example::

    from repro.core import Database, OperationRegistry
    from repro.storage import LocalFS

    ops = OperationRegistry()

    @ops.operation("deposit")
    def deposit(root, account, amount):
        root[account] = root.get(account, 0) + amount

    db = Database(LocalFS("/tmp/bank"), initial=dict, operations=ops)
    db.update("deposit", "alice", 100)
    balance = db.enquire(lambda root: root["alice"])
    db.checkpoint()
    db.close()
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.concurrency.locks import SUELock
from repro.core.checkpoint import write_checkpoint
from repro.core.commit import DURABILITY_MODES, CommitCoordinator, CommitPolicy
from repro.core.errors import (
    CheckpointFailed,
    DatabaseClosed,
    DatabaseDegraded,
    DatabaseError,
    DatabasePoisoned,
    PreconditionFailed,
)
from repro.core.health import HealthMonitor
from repro.core.log import LogEntry, LogWriter
from repro.core.policy import CheckpointPolicy, Never
from repro.core.recovery import recover
from repro.core.stats import DatabaseStats
from repro.core.transactions import DEFAULT_OPERATIONS, OperationRegistry
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.core.version import (
    NEWVERSION_FILE,
    VERSION_FILE,
    checkpoint_name,
    commit_new_version,
    finalize_switch,
    logfile_name,
)
from repro.pickles import DEFAULT_REGISTRY, TypeRegistry, pickle_write
from repro.sim.clock import Clock, WallClock
from repro.sim.costmodel import CostModel
from repro.storage.errors import MediaError, StorageError
from repro.storage.interface import FileSystem


class Database:
    """A small database: main-memory structure + redo log + checkpoints."""

    def __init__(
        self,
        fs: FileSystem,
        initial: Callable[[], object] = dict,
        operations: OperationRegistry | None = None,
        pickle_registry: TypeRegistry | None = None,
        clock: Clock | None = None,
        cost_model: CostModel | None = None,
        policy: CheckpointPolicy | None = None,
        keep_versions: int = 1,
        pad_log_to_page: bool = True,
        ignore_damaged_log: bool = False,
        paranoid_enquiries: bool = False,
        durability: str = "group",
        commit_policy: CommitPolicy | None = None,
        auto_open: bool = True,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        spare_fs: FileSystem | None = None,
        fault_retries: int = 2,
        flight: FlightRecorder | None = None,
    ) -> None:
        """Create (and by default open) a database over ``fs``.

        ``initial`` builds the root for a brand-new database; it is not
        called when committed state already exists on disk.

        ``keep_versions=2`` retains the previous checkpoint+log pair, the
        paper's optional redundancy against hard errors in the current
        checkpoint.

        ``pad_log_to_page=False`` reproduces the paper's exact log layout,
        in which a torn append can damage the previously committed entry
        sharing its page; the default pads entries to page boundaries.

        ``durability`` selects the commit protocol (see
        :mod:`repro.core.commit`): ``"group"`` (default) batches
        concurrent updates into shared fsyncs while staying durable on
        return; ``"immediate"`` is the seed's one-fsync-per-update
        protocol; ``"relaxed"`` returns before the fsync and relies on a
        later flush.  ``commit_policy`` tunes the group-commit batch size
        and hold time.

        ``registry`` is the metrics registry that every number this
        database records flows into (``stats`` is a view over it); one on
        the database's clock is created when not supplied.  ``tracer``
        enables root spans for updates/checkpoints; even without one,
        updates executed under a traced RPC dispatch contribute child
        spans to the caller's trace.

        ``spare_fs`` is an optional spare directory (on a *different*
        device) that receives an emergency checkpoint of the in-memory
        state when a persistent media fault degrades the database to
        read-only; ``fault_retries`` bounds how many extra attempts a
        faulted log append or fsync gets before degrading (a transient
        device hiccup then costs a retry, not the server).

        ``flight`` is the always-on :class:`~repro.obs.flight.\
FlightRecorder` black box; one on the database's clock is created when
        not supplied.  Commit fsyncs, storage faults, health transitions
        and checkpoint switches all become ring events, and on
        degradation the ring is dumped next to the emergency snapshot so
        a postmortem can reconstruct the final moments.
        """
        self.fs = fs
        self.initial = initial
        self.operations = operations if operations is not None else DEFAULT_OPERATIONS
        self.pickle_registry = (
            pickle_registry if pickle_registry is not None else DEFAULT_REGISTRY
        )
        self.clock = clock if clock is not None else getattr(fs, "clock", None) or WallClock()
        self.policy = policy if policy is not None else Never()
        if keep_versions < 1:
            raise ValueError("keep_versions must be at least 1")
        self.keep_versions = keep_versions
        self.pad_log_to_page = pad_log_to_page
        self.ignore_damaged_log = ignore_damaged_log
        #: debug mode: verify that enquiries really are read-only by
        #: comparing a pickle of the root before and after each one.
        self.paranoid_enquiries = paranoid_enquiries
        self.page_size = getattr(fs, "page_size", 512)
        if durability not in DURABILITY_MODES:
            raise ValueError(
                f"durability must be one of {DURABILITY_MODES}, not {durability!r}"
            )
        self.durability = durability
        self.commit_policy = (
            commit_policy if commit_policy is not None else CommitPolicy()
        )

        if fault_retries < 0:
            raise ValueError("fault_retries cannot be negative")
        self.spare_fs = spare_fs
        self.fault_retries = fault_retries

        self.lock = SUELock()
        self.registry = (
            registry if registry is not None else MetricsRegistry(clock=self.clock)
        )
        self.tracer = tracer
        self.flight = (
            flight if flight is not None else FlightRecorder(clock=self.clock)
        )
        #: every count and timing, and the one seam the clock laps, the
        #: spans and the (1987) cost model hang off
        self.stats = DatabaseStats(
            self.registry, self.clock, cost_model, tracer, self.flight
        )
        self.health_monitor = HealthMonitor(self.registry, flight=self.flight)
        self._checkpoint_failures = self.registry.counter(
            "db_checkpoint_failures_total",
            "checkpoint attempts aborted cleanly before their commit point",
        )
        self._checkpoint_retry_pending = False
        self.last_checkpoint_time = self.clock.now()
        self.entries_since_checkpoint = 0

        self._root: object = None
        self._log: LogWriter | None = None
        self._commit: CommitCoordinator | None = None
        self._version = 0
        self._open = False
        self._poisoned: BaseException | None = None
        # Atomic check-and-claim of the checkpoint-policy trigger: two
        # committers crossing a threshold together must not both fire.
        self._trigger_lock = threading.Lock()
        self._trigger_claimed = False

        if auto_open:
            self.open()

    # -- lifecycle -----------------------------------------------------------

    def open(self) -> None:
        """Run the restart sequence (or bootstrap a brand-new database)."""
        if self._open:
            return
        started = self.clock.now()
        state = recover(
            self.fs,
            self.operations,
            self.pickle_registry,
            self.stats,
            keep_versions=self.keep_versions,
            ignore_damaged_log=self.ignore_damaged_log,
        )
        if state is None:
            self._bootstrap()
        else:
            self._root = state.root
            self._version = state.version
            # The writer resumes at the file's true end: recovery has already
            # truncated any torn tail in strict mode, and in ignore mode the
            # padded framing realigns the next entry to a page boundary.
            self._open_log(state.version, state.next_seq)
            self.entries_since_checkpoint = state.entries_replayed
        self.stats.record_restart(
            self.clock.now() - started, state.entries_replayed if state else 0
        )
        self.last_recovery = state
        self._open = True
        if state and (state.entries_skipped or state.used_previous_checkpoint):
            # Damaged files served this recovery; retire them immediately
            # by checkpointing the recovered state to a fresh version.
            try:
                self.checkpoint()
            except CheckpointFailed:
                # The retry is scheduled; the recovered state still serves.
                pass

    def _bootstrap(self) -> None:
        """First ever start: write version 1 from the initial root."""
        self._root = self.initial()
        self._version = 1
        payload = pickle_write(self._root, self.pickle_registry)
        self.stats.charge("pickle", len(payload))
        write_checkpoint(self.fs, checkpoint_name(1), payload)
        self.fs.create(logfile_name(1))
        self.fs.fsync(logfile_name(1))
        self.fs.write(VERSION_FILE, b"1")
        self.fs.fsync(VERSION_FILE)
        self._open_log(1)

    def _open_log(self, version: int, start_seq: int = 1) -> None:
        """Append to ``logfile{version}`` from here on.

        Opening the database gives the new writer a new commit
        coordinator.  A checkpoint's switch, on a running database,
        rebinds the existing one instead: commit tickets stay monotonic
        across the switch, so a group-mode waiter that staged its entry
        in the old file still finds its ticket complete.
        """
        self._log = LogWriter(
            self.fs,
            logfile_name(version),
            page_size=self.page_size,
            pad_to_page=self.pad_log_to_page,
            start_seq=start_seq,
            clock=self.clock,
            sync_observer=self._note_fsync,
            flight=self.flight,
        )
        if self._open:
            self._commit.rebind(self._log)
        else:
            self._commit = CommitCoordinator(
                self._log,
                self.clock,
                self.commit_policy,
                self.stats,
                sync_retries=self.fault_retries,
                fault_observer=self.health_monitor.note_fault,
                flight=self.flight,
            )

    def close(self) -> None:
        """Shut down cleanly.

        Strict-mode commits are already durable; any relaxed-mode backlog
        is flushed here so a clean shutdown never loses an update that
        returned.
        """
        if self._open and self._commit is not None and self._commit.pending():
            try:
                self._commit.flush()
            except MediaError as exc:
                self._open = False
                self._degrade_now("fsync", exc, holding_update_lock=False)
                raise DatabaseDegraded(
                    f"close could not flush staged commits: {exc}"
                ) from exc
        self._open = False

    def __enter__(self) -> "Database":
        self.open()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- operations ----------------------------------------------------------

    def enquire(self, fn: Callable, *args: object, **kwargs: object) -> object:
        """Run a read-only function of the root under the shared lock.

        ``fn`` must not mutate the root: mutations outside :meth:`update`
        are invisible to the log and will not survive a restart.  With
        ``paranoid_enquiries=True`` that rule is *checked* — the root is
        pickled before and after, and a difference raises — at a cost
        that makes it a debug/test mode, not a production one.
        """
        self._check_usable()
        with self.lock.shared():
            self.stats.charge("enquiry")
            if self.paranoid_enquiries:
                before = pickle_write(self._root, self.pickle_registry)
            result = fn(self._root, *args, **kwargs)
            if self.paranoid_enquiries:
                after = pickle_write(self._root, self.pickle_registry)
                if before != after:
                    raise DatabaseError(
                        "enquiry mutated the root; such changes are not "
                        "logged and would vanish on restart — use update()"
                    )
        self.stats.record_enquiry()
        return result

    def update(self, op_name: str, *args: object, **kwargs: object) -> object:
        """Execute one single-shot transaction; durable on return.

        The paper's three steps: (1) verify preconditions against virtual
        memory; (2) commit the parameters to the log; (3) apply to
        virtual memory under the exclusive lock.

        Where the commit point sits depends on the durability mode: in
        ``"immediate"`` mode it is an fsync inside the update lock (the
        seed protocol); in ``"group"`` mode the entry is staged unsynced
        and the commit point is a *shared* fsync on the commit barrier,
        awaited outside the locks so concurrent updates batch into one
        disk write — still durable on return; in ``"relaxed"`` mode the
        call returns after staging, before any fsync.
        """
        self._check_writable()
        plan = [(self.operations.get(op_name), op_name, args, kwargs)]
        return self._run(plan)[0]

    def update_many(self, batch: list[tuple]) -> list[object]:
        """Group commit: several single-shot transactions, one disk write.

        ``batch`` holds ``(op_name, args)`` or ``(op_name, args, kwargs)``
        tuples.  This is the paper's suggested improvement — "arranging
        to record multiple commit records in a single log entry" — with
        its semantics made precise:

        * durability is amortised: all entries share one fsync;
        * atomicity stays **per update**: a crash during the commit can
          durably retain a prefix of the batch (each entry is separately
          framed and replayed);
        * preconditions are evaluated against the pre-batch state, so the
          batched updates must be mutually independent;
        * no intermediate state is visible to enquiries: the in-memory
          applications all happen under one exclusive section after the
          commit.

        It is :meth:`update`'s protocol run once over the whole batch,
        and is traced and timed the same way; each entry's recorded phase
        times are its equal share of the batch's.
        """
        self._check_writable()
        plan = []
        for item in batch:
            op_name, args, kwargs = item if len(item) == 3 else (*item, {})
            plan.append((self.operations.get(op_name), op_name, tuple(args), kwargs))
        return self._run(plan) if plan else []

    def _run(self, plan: list[tuple]) -> list[object]:
        """The update protocol, on a plan of ``(op, name, args, kwargs)``.

        Every step covers the whole plan before the next begins, so a
        plan of N is checked against one state, shares one commit point
        and becomes visible to enquiries at once.  ``m.phase`` marks
        where each step starts and ``stats.charge`` says what work it
        did; timing, spans and the cost model hang off those (see
        :mod:`repro.core.stats`).
        """
        assert self._log is not None and self._commit is not None
        with self.stats.meter("db.update", op=plan[0][1], batch=len(plan)) as m:
            with self.lock.update():
                m.event("update_lock_acquired")
                # Re-checked under the lock: another updater may have hit a
                # persistent fault and sealed the log while we queued.
                self._check_writable()

                # (1) verify the preconditions against virtual memory
                m.phase("db.explore")
                for op, _name, args, kwargs in plan:
                    try:
                        op.check(self._root, *args, **kwargs)
                    except PreconditionFailed:
                        self.stats.record_rejected_update()
                        raise
                    self.stats.charge("explore")

                # (2) commit the pickled parameters to the log
                m.phase("db.pickle")
                payloads = []
                for _op, name, args, kwargs in plan:
                    payload = pickle_write((name, args, kwargs), self.pickle_registry)
                    self.stats.charge("pickle", len(payload))
                    payloads.append(payload)
                m.phase("db.log_append", bytes=sum(map(len, payloads)))
                entries = [self._append_entry(p) for p in payloads]
                ticket = None
                if self.durability == "immediate":
                    self._sync_log()  # the commit point: one fsync, under the lock
                else:
                    # Staged unsynced; the commit point is a shared fsync
                    # on the barrier, which may also absorb other updaters.
                    for _ in entries:
                        ticket = self._commit.note_append()

                # (3) apply to virtual memory under the exclusive lock
                m.phase("db.apply")
                results: list[object] = []
                self.lock.upgrade()
                try:
                    for op, _name, args, kwargs in plan:
                        try:
                            results.append(op.apply(self._root, *args, **kwargs))
                        except Exception as exc:
                            # The log says this update happened; memory disagrees.
                            self._poisoned = exc
                            raise DatabasePoisoned(exc) from exc
                        self.stats.charge("modify")
                finally:
                    self.lock.downgrade()
                m.phase()
                # Counted under the update lock: a concurrent checkpoint's
                # reset must order strictly before or after this update.
                self.entries_since_checkpoint += len(plan)

            commit_wait_s = 0.0
            if ticket is None:
                self.stats.record_commit_batch(len(plan))
            elif self.durability == "relaxed":
                self.stats.record_relaxed_updates(len(plan))
            else:
                # The commit point (group mode): one leader fsyncs for the
                # whole batch before any member's update() returns.  The
                # leader's fsync appears as a commit.fsync child span here.
                m.phase("db.commit_barrier")
                commit_wait_s = self._wait_durable(ticket)
            m.record_update(entries, payloads, commit_wait_s)
            self.maybe_checkpoint()
            return results

    def checkpoint(self) -> int:
        """Write a checkpoint and reset the log; returns the new version.

        Runs under the update lock: concurrent updates wait (the paper's
        availability cost, measured in E8/E10), enquiries proceed.

        A storage fault before the commit point aborts the switch
        *cleanly*: the partial new version is removed, the old version
        stays current (no update is lost — the log keeps growing), a
        retry is scheduled for the next policy trigger, and
        :class:`CheckpointFailed` is raised.  A fault after the commit
        point is tolerated: the switch is durable via ``newversion`` and
        a restart completes the tidy-up.
        """
        self._check_writable()
        with self.stats.meter("db.checkpoint") as m, self.lock.update():
            m.phase()
            if self._commit is not None:
                # Retire any unsynced tail (relaxed-mode backlog) before
                # this log file is superseded: holding the update lock
                # guarantees nothing new can be staged meanwhile.
                try:
                    self._commit.flush()
                except MediaError as exc:
                    self._degrade_now("fsync", exc, holding_update_lock=True)
                    raise DatabaseDegraded(
                        f"checkpoint could not flush staged commits: {exc}"
                    ) from exc
            self._before_log_reset(self._version)
            new_version = self._version + 1
            payload = pickle_write(self._root, self.pickle_registry)
            self.stats.charge("pickle", len(payload))
            try:
                write_checkpoint(self.fs, checkpoint_name(new_version), payload)
                self.fs.create(logfile_name(new_version))
                self.fs.fsync(logfile_name(new_version))
                commit_new_version(self.fs, new_version)  # the commit point
            except StorageError as exc:
                self._abort_checkpoint(new_version)
                self._checkpoint_retry_pending = True
                self._checkpoint_failures.inc()
                self.health_monitor.note_fault("checkpoint", exc)
                self.flight.record(
                    "checkpoint_aborted",
                    version=new_version,
                    error=type(exc).__name__,
                )
                raise CheckpointFailed(
                    f"checkpoint to version {new_version} aborted before "
                    f"its commit point; version {self._version} remains "
                    f"current ({exc})"
                ) from exc
            try:
                finalize_switch(self.fs, new_version, self.keep_versions)
            except StorageError as exc:
                # Past the commit point: newversion durably names the new
                # version, so a restart finishes the tidy-up.
                self.health_monitor.note_fault("finalize_switch", exc)
            self._open_log(new_version)
            self._version = new_version
            self.entries_since_checkpoint = 0
            self._checkpoint_retry_pending = False
            self.last_checkpoint_time = self.clock.now()
            elapsed = m.elapsed()
            self.flight.record("checkpoint_switch", version=new_version)
        self.stats.record_checkpoint(elapsed, len(payload))
        self.policy.note_checkpoint(self)
        return new_version

    def _abort_checkpoint(self, new_version: int) -> None:
        """Best-effort removal of a failed switch's partial files.

        The old version remains committed whatever happens here; anything
        this cannot delete (the device may still be refusing writes) is a
        "partial newer version" that restart cleanup and ``fsck --repair``
        both remove.
        """
        for name in (
            NEWVERSION_FILE,
            checkpoint_name(new_version),
            logfile_name(new_version),
        ):
            try:
                self.fs.delete_if_exists(name)
            except StorageError:
                pass
        try:
            self.fs.fsync_dir()
        except StorageError:
            pass

    def maybe_checkpoint(self, policy: CheckpointPolicy | None = None) -> bool:
        """Atomically check-and-claim the checkpoint-policy trigger.

        Evaluates ``policy`` (the database's own by default) and runs one
        checkpoint when it fires.  The check and the claim happen under
        one mutex, so concurrent committers — or a
        :class:`~repro.core.daemon.CheckpointDaemon` racing them — cannot
        all trigger for the same threshold crossing and stack redundant
        checkpoints back to back.  Returns True when this caller ran the
        checkpoint.

        A checkpoint aborted earlier by a storage fault stays *pending*:
        it is retried at the next trigger evaluation even if the policy
        itself would not fire, until one attempt succeeds.  While the
        database is not HEALTHY no checkpoint is attempted at all.
        """
        if not self.health_monitor.healthy:
            return False
        chosen = policy if policy is not None else self.policy
        with self._trigger_lock:
            due = self._checkpoint_retry_pending or chosen.should_checkpoint(self)
            if self._trigger_claimed or not due:
                return False
            self._trigger_claimed = True
        try:
            self.checkpoint()
        except CheckpointFailed:
            return False  # still pending; the next trigger retries
        finally:
            with self._trigger_lock:
                self._trigger_claimed = False
        return True

    def flush(self) -> None:
        """Force every staged commit durable (a group-commit barrier).

        A no-op unless updates are pending — which only happens in
        ``"relaxed"`` mode, or transiently while strict group commits are
        in flight on other threads.
        """
        self._check_usable()
        if self._commit is not None:
            try:
                self._commit.flush()
            except MediaError as exc:
                self._degrade_now("fsync", exc, holding_update_lock=False)
                raise DatabaseDegraded(
                    f"flush could not commit the staged tail: {exc}"
                ) from exc

    def pending_commits(self) -> int:
        """Updates staged in the log but not yet covered by an fsync."""
        return self._commit.pending() if self._commit is not None else 0

    def _note_fsync(self, seconds: float, nbytes: int) -> None:
        """LogWriter sync observer: fsync latency flows to the registry
        (counts come from the commit path, which knows batch sizes)."""
        self.stats.record_fsync(seconds)

    # -- storage-fault handling ------------------------------------------------

    def _append_entry(self, payload: bytes) -> LogEntry:
        """Append one unsynced entry, riding out transient media faults.

        Each faulted attempt is retried only while the writer's tail is
        clean — :class:`~repro.core.log.LogWriter` cuts a short write back
        off the file on failure; if even that failed, appending again
        would put a committed entry beyond damage that strict recovery
        truncates away, so the database degrades instead.
        """
        assert self._log is not None
        attempts = 0
        while True:
            try:
                return self._log.append_unsynced(payload)
            except MediaError as exc:
                self.health_monitor.note_fault("append", exc)
                if self._log.tail_damaged or attempts >= self.fault_retries:
                    self._degrade_now("append", exc, holding_update_lock=True)
                    raise DatabaseDegraded(
                        f"updates refused: log append failed ({exc})"
                    ) from exc
                attempts += 1

    def _sync_log(self) -> None:
        """The immediate-mode commit fsync, with bounded retries."""
        assert self._log is not None
        attempts = 0
        while True:
            try:
                self._log.sync()
                return
            except MediaError as exc:
                self.health_monitor.note_fault("fsync", exc)
                if attempts >= self.fault_retries:
                    self._degrade_now("fsync", exc, holding_update_lock=True)
                    raise DatabaseDegraded(
                        f"updates refused: commit fsync failed ({exc})"
                    ) from exc
                attempts += 1

    def _wait_durable(self, ticket: int) -> float:
        """Group-mode barrier wait; a leader's media failure degrades us.

        The coordinator already retried the shared fsync
        ``fault_retries`` times (reporting each fault to the health
        monitor) before poisoning the barrier, so a ``MediaError`` here
        means the fault persisted.
        """
        assert self._commit is not None
        try:
            return self._commit.wait_durable(ticket)
        except MediaError as exc:
            self._degrade_now("fsync", exc, holding_update_lock=False)
            raise DatabaseDegraded(
                f"updates refused: commit fsync failed ({exc})"
            ) from exc

    def _degrade_now(
        self, op: str, exc: BaseException, holding_update_lock: bool
    ) -> None:
        """Seal the log and enter DEGRADED_READ_ONLY (first caller only).

        The log writer is abandoned where it stands, an emergency
        checkpoint of the in-memory state is attempted to the spare
        directory, and from here on updates are refused while enquiries
        keep being served from virtual memory.  The flight ring is
        dumped as a black box *after* the snapshot — the snapshot clears
        the spare first — so the spare holds both the preserved state
        and the story of how we got here.
        """
        if not self.health_monitor.degrade(f"{op}: {exc}"):
            return
        self._emergency_preserve(holding_update_lock)
        self._dump_blackbox()

    def _dump_blackbox(self) -> None:
        """Best effort: persist the flight ring next to the snapshot.

        The spare may itself be absent or failing — a dump failure must
        never mask the degradation that triggered it.
        """
        if self.spare_fs is None:
            return
        try:
            self.flight.dump_to(self.spare_fs)
        except Exception:
            pass

    def _emergency_preserve(self, holding_update_lock: bool) -> None:
        if self.spare_fs is None:
            self.health_monitor.note_emergency("no_spare")
            return
        try:
            if holding_update_lock:
                self._write_emergency_snapshot()
            else:
                # The SUE lock is not reentrant; callers tell us whether
                # they already hold the update side.
                with self.lock.update():
                    self._write_emergency_snapshot()
        except Exception as exc:
            self.health_monitor.note_emergency("failed")
            self.health_monitor.fail(f"emergency checkpoint failed: {exc}")
        else:
            self.health_monitor.note_emergency("written")

    def _write_emergency_snapshot(self) -> None:
        from repro.core.backup import emergency_snapshot

        payload = pickle_write(self._root, self.pickle_registry)
        emergency_snapshot(self.spare_fs, payload, self._version)

    def _before_log_reset(self, old_version: int) -> None:
        """Hook: runs under the update lock just before a checkpoint
        supersedes ``logfile{old_version}``.

        The base database does nothing; :class:`~repro.core.audit.\
        ArchivingDatabase` copies the log to its archive name here, while
        no update can slip past it.
        """

    # -- introspection ------------------------------------------------------------

    @property
    def version(self) -> int:
        """The current checkpoint version number."""
        return self._version

    @property
    def health(self) -> str:
        """``"healthy"``, ``"degraded_read_only"`` or ``"failed"``."""
        return self.health_monitor.state

    def health_detail(self) -> dict[str, object]:
        """The health state plus the cause of any degradation."""
        detail = self.health_monitor.snapshot()
        detail["checkpoint_retry_pending"] = self._checkpoint_retry_pending
        return detail

    def log_size(self) -> int:
        """Bytes currently in the log file."""
        return self._log.size() if self._log is not None else 0

    def log_entry_count(self) -> int:
        return self.entries_since_checkpoint

    def _check_usable(self) -> None:
        if not self._open:
            raise DatabaseClosed("database is not open")
        if self._poisoned is not None:
            raise DatabasePoisoned(self._poisoned)

    def _check_writable(self) -> None:
        """Refuse updates (not enquiries) once the database has degraded."""
        self._check_usable()
        if not self.health_monitor.healthy:
            raise DatabaseDegraded(
                f"database is {self.health_monitor.state} "
                f"({self.health_monitor.cause}); updates are refused, "
                f"enquiries still served"
            )
