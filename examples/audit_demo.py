#!/usr/bin/env python3
"""The audit trail: "the log files form a complete audit trail" (§4).

Runs an archiving database through several checkpoint epochs, then uses
the audit reader to answer the questions an operator actually asks:
what happened, who touched this key, and what did the database look like
at an earlier point in time.  Finishes with the fsck/dump operator tools.
"""

import io

from repro.core import AuditReader, Database, OperationRegistry
from repro.sim import SimClock
from repro.storage import SimFS
from repro.tools import dump_directory, fsck_directory

ops = OperationRegistry()


@ops.operation("set")
def op_set(root, key, value):
    root[key] = value


@ops.operation("del")
def op_del(root, key):
    del root[key]


def main() -> None:
    fs = SimFS(clock=SimClock())
    db = Database(fs, initial=dict, operations=ops, archive_logs=True)

    # Three epochs of history.
    db.update("set", "quota/alice", 100)
    db.update("set", "quota/bob", 50)
    db.checkpoint()
    db.update("set", "quota/alice", 250)
    db.update("del", "quota/bob")
    db.checkpoint()
    db.update("set", "quota/carol", 75)

    print("current state:", db.enquire(lambda root: dict(root)))

    reader = AuditReader(fs)
    print(f"\ncomplete audit trail ({reader.count()} updates):")
    for record in reader.records():
        print("  " + record.describe())

    print("\nhistory of quota/alice:")
    for record in reader.history_of(
        lambda r: r.args and r.args[0] == "quota/alice"
    ):
        print("  " + record.describe())

    # Time travel: the state as of the end of epoch 1.
    past: dict = {}
    for record in reader.records():
        if record.epoch > 1:
            break
        ops.get(record.operation).apply(past, *record.args, **record.kwargs)
    print(f"\nstate as of the first checkpoint: {past}")

    # Operator tools over the same directory.
    print("\nfsck verdict:")
    out = io.StringIO()
    fsck_directory(fs).write(out)
    print("  " + "\n  ".join(out.getvalue().strip().splitlines()))

    print("\ndirectory dump (abridged):")
    out = io.StringIO()
    dump_directory(fs, out=out, limit=2)
    print("  " + "\n  ".join(out.getvalue().strip().splitlines()[:12]))


if __name__ == "__main__":
    main()
