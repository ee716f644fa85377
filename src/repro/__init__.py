"""repro — a reproduction of Birrell, Jones & Wobber (SOSP 1987),
"A Simple and Efficient Implementation for Small Databases".

The package implements the paper's technique in full: a main-memory
database kept durable by a redo log and periodic checkpoints, a pickle
package for typed serialisation, a shared/update/exclusive lock, an RPC
package with generated stubs, the worked name-server example with
replication, the rival techniques of the paper's section 2 as baselines,
and a simulation substrate (disk, file system, clock, failure injection)
that regenerates the paper's 1987 measurements on modern hardware.

Quickstart::

    from repro import Database, LocalFS, OperationRegistry

    ops = OperationRegistry()

    @ops.operation("deposit")
    def deposit(root, account, amount):
        root[account] = root.get(account, 0) + amount

    db = Database(LocalFS("/tmp/bank"), initial=dict, operations=ops)
    db.update("deposit", "alice", 100)    # durable on return
    print(db.enquire(lambda root: root["alice"]))
    db.checkpoint()

See README.md for the architecture tour and DESIGN.md for the paper
mapping; the subpackages are importable directly for everything not
re-exported here.
"""

from repro.concurrency import LockMode, SUELock
from repro.core import (
    AnyOf,
    CheckpointPolicy,
    CommitPolicy,
    Database,
    DatabaseError,
    EveryNUpdates,
    GroupCommitDaemon,
    LogSizeThreshold,
    Never,
    OperationRegistry,
    Periodic,
    PreconditionFailed,
    RecoveryError,
    nightly,
    operation,
)
from repro.nameserver import (
    NAMESERVER_INTERFACE,
    NameExists,
    NameNotFound,
    NameServer,
    RemoteNameServer,
    Replica,
    ReplicaGroup,
)
from repro.obs import MetricsExporter, MetricsRegistry, SlowOpLog, Tracer
from repro.pickles import TypeRegistry, pickle_read, pickle_write, pickleable
from repro.rpc import (
    CallMaybeExecuted,
    EventLoopServer,
    FaultyTransport,
    Interface,
    LoopbackTransport,
    NetworkFaultInjector,
    RetryPolicy,
    RpcServer,
    TcpTransport,
    connect,
)
from repro.sim import MICROVAX_II, SimClock, WallClock
from repro.storage import LocalFS, SimFS

__version__ = "1.0.0"

__all__ = [
    "AnyOf",
    "CallMaybeExecuted",
    "CheckpointPolicy",
    "CommitPolicy",
    "Database",
    "DatabaseError",
    "EveryNUpdates",
    "EventLoopServer",
    "FaultyTransport",
    "GroupCommitDaemon",
    "Interface",
    "LocalFS",
    "LockMode",
    "LogSizeThreshold",
    "LoopbackTransport",
    "MICROVAX_II",
    "MetricsExporter",
    "MetricsRegistry",
    "NAMESERVER_INTERFACE",
    "NameExists",
    "NameNotFound",
    "NameServer",
    "NetworkFaultInjector",
    "Never",
    "OperationRegistry",
    "Periodic",
    "PreconditionFailed",
    "RecoveryError",
    "RemoteNameServer",
    "Replica",
    "ReplicaGroup",
    "RetryPolicy",
    "RpcServer",
    "SUELock",
    "SimClock",
    "SimFS",
    "SlowOpLog",
    "TcpTransport",
    "Tracer",
    "TypeRegistry",
    "WallClock",
    "__version__",
    "connect",
    "nightly",
    "operation",
    "pickle_read",
    "pickle_write",
    "pickleable",
]
