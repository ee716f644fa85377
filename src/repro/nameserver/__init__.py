"""The name server: the paper's worked example application.

A general-purpose name-to-value mapping where names are string paths and
values are arbitrary (pickleable) objects, stored as a tree of hash
tables in virtual memory, made durable by the database core, served over
RPC, and replicated across servers with last-writer-wins reconciliation.
"""

from repro.nameserver.browse import glob_entries, parse_pattern
from repro.nameserver.client import RemoteNameServer
from repro.nameserver.management import (
    MANAGEMENT_INTERFACE,
    ManagementService,
    RemoteManagement,
)
from repro.nameserver.errors import (
    BadPath,
    HistoryTruncated,
    NameExists,
    NameNotFound,
    NameServerError,
    SnapshotGone,
    format_path,
)
from repro.nameserver.recover import (
    RecoveryFailed,
    RecoveryPlan,
    RecoveryReport,
    ReplicaRecoverer,
    abandon_recovery,
)
from repro.nameserver.operations import (
    NAMESERVER_OPS,
    new_root,
    updates_since,
)
from repro.nameserver.replication import (
    CircuitBreaker,
    PeerUnavailable,
    Replica,
    ReplicaGroup,
    diverged_leaf_paths,
    repair_divergence,
)
from repro.nameserver.server import (
    NAMESERVER_INTERFACE,
    NameServer,
    nameserver_interface,
)
from repro.nameserver.tree import (
    Leaf,
    Node,
    count_live,
    find_node,
    iter_leaves,
    list_directory,
    live_leaf,
    parse_path,
    subtree_entries,
)

__all__ = [
    "BadPath",
    "CircuitBreaker",
    "HistoryTruncated",
    "Leaf",
    "MANAGEMENT_INTERFACE",
    "ManagementService",
    "NAMESERVER_INTERFACE",
    "NAMESERVER_OPS",
    "NameExists",
    "NameNotFound",
    "NameServer",
    "NameServerError",
    "Node",
    "PeerUnavailable",
    "RecoveryFailed",
    "RecoveryPlan",
    "RecoveryReport",
    "RemoteManagement",
    "RemoteNameServer",
    "Replica",
    "ReplicaRecoverer",
    "SnapshotGone",
    "abandon_recovery",
    "diverged_leaf_paths",
    "repair_divergence",
    "glob_entries",
    "parse_pattern",
    "ReplicaGroup",
    "count_live",
    "find_node",
    "format_path",
    "iter_leaves",
    "list_directory",
    "live_leaf",
    "nameserver_interface",
    "new_root",
    "parse_path",
    "subtree_entries",
    "updates_since",
]
