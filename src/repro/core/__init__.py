"""The database core: the paper's main-memory log+checkpoint technique."""

from repro.core.audit import (
    AuditReader,
    AuditRecord,
    archive_name,
    archived_epochs,
)
from repro.core.checkpoint import (
    CheckpointDamaged,
    read_checkpoint,
    write_checkpoint,
)
from repro.core.backup import (
    backup_database,
    read_manifest,
    verify_backup,
)
from repro.core.commit import DURABILITY_MODES, CommitCoordinator, CommitPolicy
from repro.core.daemon import CheckpointDaemon, GroupCommitDaemon
from repro.core.database import Database
from repro.core.health import (
    DEGRADED_READ_ONLY,
    HEALTHY,
    RECOVERING,
    HealthMonitor,
)
from repro.core.sharding import (
    HASH_SPACE,
    ShardedDatabase,
    default_hash,
    encode_shard_key,
    shard_index,
    shard_ranges,
)
from repro.core.errors import (
    CheckpointFailed,
    DatabaseClosed,
    DatabaseDegraded,
    DatabaseError,
    DatabasePoisoned,
    LogDamaged,
    OperationExists,
    PreconditionFailed,
    RecoveryError,
    UnknownOperation,
)
from repro.core.log import LogEntry, LogScan, LogWriter, ScanOutcome, encode_entry
from repro.core.policy import (
    AnyOf,
    CheckpointPolicy,
    EveryNUpdates,
    LogSizeThreshold,
    Never,
    Periodic,
    nightly,
)
from repro.core.recovery import RecoveredState, recover
from repro.core.stats import DatabaseStats, PhaseBreakdown
from repro.core.transactions import (
    DEFAULT_OPERATIONS,
    Operation,
    OperationRegistry,
    operation,
)
from repro.core.version import (
    CurrentVersion,
    checkpoint_name,
    commit_new_version,
    complete_versions,
    finalize_switch,
    logfile_name,
    numbered_files,
    read_current_version,
)

__all__ = [
    "AnyOf",
    "AuditReader",
    "AuditRecord",
    "CheckpointDaemon",
    "CheckpointDamaged",
    "CheckpointFailed",
    "CommitCoordinator",
    "CommitPolicy",
    "DEGRADED_READ_ONLY",
    "DURABILITY_MODES",
    "GroupCommitDaemon",
    "HEALTHY",
    "RECOVERING",
    "HealthMonitor",
    "ShardedDatabase",
    "archive_name",
    "archived_epochs",
    "backup_database",
    "read_manifest",
    "verify_backup",
    "default_hash",
    "encode_shard_key",
    "shard_index",
    "shard_ranges",
    "HASH_SPACE",
    "CheckpointPolicy",
    "CurrentVersion",
    "DEFAULT_OPERATIONS",
    "Database",
    "DatabaseClosed",
    "DatabaseDegraded",
    "DatabaseError",
    "DatabasePoisoned",
    "DatabaseStats",
    "EveryNUpdates",
    "LogDamaged",
    "LogEntry",
    "LogScan",
    "LogSizeThreshold",
    "LogWriter",
    "Never",
    "Operation",
    "OperationExists",
    "OperationRegistry",
    "Periodic",
    "PhaseBreakdown",
    "PreconditionFailed",
    "RecoveredState",
    "RecoveryError",
    "ScanOutcome",
    "UnknownOperation",
    "checkpoint_name",
    "commit_new_version",
    "complete_versions",
    "encode_entry",
    "finalize_switch",
    "logfile_name",
    "nightly",
    "numbered_files",
    "operation",
    "read_checkpoint",
    "read_current_version",
    "recover",
    "write_checkpoint",
]
