"""The restart sequence: checkpoint restore + log replay.

The paper, section 3:

    Restarting the system from its disk files consists of three steps:
    determine which is the current checkpoint (and discard any partially
    written ones, old ones or old logs); read the current checkpoint to
    obtain an old version of the virtual memory data structure; replay
    the updates from the log and apply them to the virtual memory
    structure to obtain the most recent state of the database.

Plus the section-4 failure handling:

* a partially written (torn) trailing log entry is detected and discarded;
* a damaged current checkpoint falls back, when ``keep_versions > 1``, to
  "reloading the previous checkpoint, replaying the previous log, then
  replaying the current log";
* with ``ignore_damaged_log=True``, a hard error confined to one log
  entry's pages skips just that entry (for applications whose updates are
  independent — the name server's are).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.checkpoint import CheckpointDamaged, read_checkpoint
from repro.core.errors import RecoveryError, UnknownOperation
from repro.core.log import LogScan
from repro.core.stats import DatabaseStats
from repro.core.transactions import OperationRegistry
from repro.core.version import (
    CurrentVersion,
    checkpoint_name,
    complete_versions,
    finalize_switch,
    logfile_name,
    read_current_version,
)
from repro.pickles import TypeRegistry, pickle_read
from repro.storage.errors import HardError
from repro.storage.interface import FileSystem


#: log entries between two progress reports of a replay: often enough
#: that a long restart visibly moves, rarely enough to cost nothing
PROGRESS_EVERY = 1000


@dataclass
class RecoveredState:
    """Everything :class:`~repro.core.database.Database` needs to resume."""

    root: object
    version: int
    next_seq: int
    log_offset: int
    entries_replayed: int
    log_truncated: bool
    damage_note: str | None
    entries_skipped: int
    used_previous_checkpoint: bool


def recover(
    fs: FileSystem,
    operations: OperationRegistry,
    registry: TypeRegistry,
    stats: DatabaseStats,
    keep_versions: int = 1,
    archive_logs: bool = False,
    ignore_damaged_log: bool = False,
) -> RecoveredState | None:
    """Run the restart sequence; ``None`` means no committed state exists.

    Raises :class:`RecoveryError` when a state exists but cannot be
    reconstructed locally (the paper's answer at that point is "restore
    from a replica" — see :mod:`repro.nameserver.replication`).

    Before loading anything it runs the retention step that ends every
    checkpoint (:func:`~repro.core.version.finalize_switch`), which
    completes whatever a crash interrupted: a switch, a delete or an
    archive copy.

    ``stats`` is the database's instrumentation (``registry`` is the
    *pickle* type registry): recovery runs on its clock and charges the
    unpickle and modify work of a replay to its cost model; it publishes
    its replay rate and bytes scanned in ``stats.registry``, and while a
    log is being replayed the ``recovery_replay_entries`` /
    ``recovery_replay_bytes`` gauges advance towards
    ``recovery_log_bytes`` every :data:`PROGRESS_EVERY` entries.
    ``stats.flight``, when set, receives one ``log_replay_progress``
    event at the same cadence.
    """
    current = read_current_version(fs)
    if current is None:
        return None
    finalize_switch(fs, current, keep_versions, archive_logs)
    watch_start = stats.clock.now()

    used_previous = False
    try:
        root = _load_checkpoint(fs, current.number, registry, stats)
    except (CheckpointDamaged, HardError) as exc:
        root, used_previous = _fall_back_to_previous(
            fs, current, operations, registry, stats, ignore_damaged_log, cause=exc
        )

    outcome, replayed, skipped = _replay_log(
        fs,
        logfile_name(current.number),
        root,
        operations,
        registry,
        stats,
        ignore_damaged_log,
    )
    if outcome.truncated:
        # Cut the torn or damaged tail off so the writer can resume
        # appending cleanly after it.
        fs.truncate(logfile_name(current.number), outcome.good_length)

    _publish_metrics(
        stats.registry,
        stats.clock.now() - watch_start,
        replayed,
        outcome.good_length,
    )
    return RecoveredState(
        root=root,
        version=current.number,
        next_seq=outcome.last_seq + 1,
        log_offset=outcome.good_length,
        entries_replayed=replayed,
        log_truncated=outcome.truncated,
        damage_note=outcome.damage,
        entries_skipped=skipped,
        used_previous_checkpoint=used_previous,
    )


def _publish_metrics(
    metrics, elapsed_seconds: float, replayed: int, log_bytes: int
) -> None:
    """Record one recovery's replay rate and scan volume in the registry."""
    metrics.counter(
        "db_recovery_log_bytes_total", "Committed log bytes scanned by recovery."
    ).inc(log_bytes)
    metrics.gauge(
        "db_recovery_replay_entries_per_second",
        "Replay rate of the most recent recovery (0 when instantaneous).",
    ).set(replayed / elapsed_seconds if elapsed_seconds > 0 else 0.0)
    metrics.histogram(
        "db_recovery_seconds", "Durations of full restart sequences."
    ).observe(elapsed_seconds)


def _load_checkpoint(
    fs: FileSystem, version: int, registry: TypeRegistry, stats: DatabaseStats
) -> object:
    payload = read_checkpoint(fs, checkpoint_name(version))
    stats.charge("unpickle", len(payload))
    return pickle_read(payload, registry)


def _fall_back_to_previous(
    fs: FileSystem,
    current: CurrentVersion,
    operations: OperationRegistry,
    registry: TypeRegistry,
    stats: DatabaseStats,
    ignore_damaged_log: bool,
    cause: Exception,
) -> tuple[object, bool]:
    """Section 4's hard-error recipe using the retained previous pair."""
    previous_candidates = [
        v for v in complete_versions(fs) if v < current.number
    ]
    if not previous_candidates:
        raise RecoveryError(
            f"checkpoint {current.number} is damaged and no previous "
            f"checkpoint is retained; restore from a replica or backup"
        ) from cause
    previous = previous_candidates[-1]
    try:
        root = _load_checkpoint(fs, previous, registry, stats)
    except (CheckpointDamaged, HardError) as second:
        raise RecoveryError(
            f"checkpoints {current.number} and {previous} are both damaged"
        ) from second
    # Replay the *previous* log in full to reach the state the damaged
    # checkpoint captured, before the caller replays the current log.
    outcome, _, _ = _replay_log(
        fs,
        logfile_name(previous),
        root,
        operations,
        registry,
        stats,
        ignore_damaged_log,
    )
    if outcome.truncated:
        raise RecoveryError(
            f"previous log {logfile_name(previous)!r} is damaged "
            f"({outcome.damage}); cannot bridge to the current log"
        ) from cause
    return root, True


def _replay_log(
    fs: FileSystem,
    name: str,
    root: object,
    operations: OperationRegistry,
    registry: TypeRegistry,
    stats: DatabaseStats,
    ignore_damaged: bool,
):
    """Apply every committed update in ``name`` to ``root``.

    Progress goes to ``stats.registry`` and ``stats.flight``; see
    :func:`_progress_reporter`.
    """
    scan = LogScan(fs, name, ignore_damaged=ignore_damaged)
    progress = _progress_reporter(stats, name, fs.size(name))
    replayed = 0
    for entry in scan:
        stats.charge("unpickle", len(entry.payload))
        try:
            op_name, args, kwargs = pickle_read(entry.payload, registry)
        except Exception as exc:
            raise RecoveryError(
                f"log entry seq {entry.seq} of {name!r} does not decode: {exc!r}"
            ) from exc
        try:
            op = operations.get(op_name)
        except UnknownOperation as exc:
            raise RecoveryError(
                f"log entry seq {entry.seq} of {name!r} names unknown "
                f"operation {op_name!r}; the replaying process must register "
                f"the same operations as the writer"
            ) from exc
        try:
            op.apply(root, *args, **kwargs)
        except Exception as exc:
            raise RecoveryError(
                f"replaying seq {entry.seq} ({op_name!r}) of {name!r} "
                f"raised {exc!r}; operations must be deterministic"
            ) from exc
        # Replay applies without re-verifying preconditions, so only the
        # modify phase's CPU is charged (plus the unpickle above).
        stats.charge("modify")
        replayed += 1
        if replayed % PROGRESS_EVERY == 0:
            progress(replayed, entry.offset + entry.length)
    progress(replayed, None)
    return scan.outcome, replayed, scan.outcome.damaged_skipped


def _progress_reporter(stats: DatabaseStats, name: str, log_bytes: int):
    """``report(entries, bytes_done)`` for one replay of ``name``.

    Each report sets the gauges ``recovery_replay_entries`` and
    ``recovery_replay_bytes`` (against ``recovery_log_bytes``, set here)
    and records a ``log_replay_progress`` flight event, so an operator
    asking "is restart stuck?" sees the numbers move.  ``bytes_done=None``
    is the closing report: the whole file has been scanned, whatever was
    skipped, so the gauges meet; it records no event.
    """
    metrics, flight = stats.registry, stats.flight
    entries_gauge = metrics.gauge(
        "recovery_replay_entries", "Log entries applied by the current replay."
    )
    bytes_gauge = metrics.gauge(
        "recovery_replay_bytes", "Log bytes the current replay has consumed."
    )
    metrics.gauge(
        "recovery_log_bytes", "Size of the log being (or last) replayed."
    ).set(log_bytes)

    def report(entries: int, bytes_done: int | None) -> None:
        entries_gauge.set(entries)
        bytes_gauge.set(log_bytes if bytes_done is None else bytes_done)
        if flight is not None and bytes_done is not None:
            flight.record(
                "log_replay_progress",
                file=name, entries=entries, bytes=bytes_done, log_bytes=log_bytes,
            )

    return report
