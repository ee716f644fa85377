#!/usr/bin/env python3
"""Crash recovery, demonstrated at every reachable disk state.

Uses the simulated file system to crash a database at each durable disk
event of a small update script — including mid-page, tearing the page in
flight — and shows recovery landing on exactly the committed prefix every
time.  Then demonstrates the two hard-failure recoveries of the paper's
section 4: a damaged log entry and a damaged checkpoint.
"""

from repro.core import Database, OperationRegistry
from repro.core.version import checkpoint_name
from repro.sim import CrashPointSweep, SimClock
from repro.storage import SimFS

ops = OperationRegistry()


@ops.operation("set")
def op_set(root, key, value):
    root[key] = value


def sweep_demo() -> None:
    steps = [
        ("update", "set", ("alpha", 1)),
        ("update", "set", ("blob", "x" * 900)),  # spans multiple pages
        ("checkpoint",),
        ("update", "set", ("alpha", 2)),
        ("update", "set", ("omega", [1, 2, 3])),
    ]
    print("== exhaustive crash-point sweep ==")
    for padded in (True, False):
        sweep = CrashPointSweep(steps, ops, pad_log_to_page=padded)
        result = sweep.run()
        result.assert_clean()
        losses = result.total("lost_committed_update")
        label = "padded log (default)" if padded else "paper's unpadded log"
        print(
            f"{label:24s}: {result.runs} crash states, "
            f"0 recovery failures, "
            f"{losses} committed entries lost to torn pages"
        )


def hard_error_demo() -> None:
    print("\n== hard (media) failures ==")

    # Damaged log entry, skipped when updates are independent.
    fs = SimFS(clock=SimClock())
    db = Database(fs, initial=dict, operations=ops)
    for i in range(5):
        value = "v" * 600 if i == 2 else i
        db.update("set", f"key{i}", value)
    fs.crash()
    fs.corrupt("logfile1", 512 * 2 + 600)  # key2's payload page
    recovered = Database(
        fs, initial=dict, operations=ops, ignore_damaged_log=True
    )
    state = recovered.enquire(lambda root: sorted(root))
    print(f"log page destroyed -> skipped 1 entry, recovered: {state}")

    # Damaged checkpoint, healed from the retained previous version.
    fs = SimFS(clock=SimClock())
    db = Database(fs, initial=dict, operations=ops, keep_versions=2)
    db.update("set", "epoch", 1)
    db.checkpoint()
    db.update("set", "late", True)
    fs.crash()
    fs.corrupt(checkpoint_name(2), 0)
    recovered = Database(fs, initial=dict, operations=ops, keep_versions=2)
    print(
        f"checkpoint destroyed -> previous checkpoint + both logs replayed, "
        f"recovered: {recovered.enquire(lambda root: dict(root))} "
        f"(used previous: {recovered.last_recovery.used_previous_checkpoint})"
    )


def main() -> None:
    sweep_demo()
    hard_error_demo()


if __name__ == "__main__":
    main()
