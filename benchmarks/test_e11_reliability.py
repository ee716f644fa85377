"""E11 — the reliability claims (paper section 4), exhaustively.

* Transient failures: crash at *every* durable disk state of a mixed
  update/checkpoint script; recovery must produce exactly the committed
  prefix (plus possibly the in-flight update once its commit record is
  durable).
* The unpadded log layout (the paper's exact one) is additionally swept
  to quantify the committed-entry loss its shared tail pages permit.
* Hard failures: a damaged checkpoint falls back to the retained
  previous version; a damaged replica is restored from a peer losing
  only unpropagated updates.
"""

from __future__ import annotations

from conftest import once
from repro.core import OperationRegistry
from repro.obs.regress import metric
from repro.sim import CrashPointSweep, SimClock
from repro.storage import SimFS


def _ops() -> OperationRegistry:
    ops = OperationRegistry()

    @ops.operation("set")
    def op_set(root, key, value):
        root[key] = value

    @ops.operation("del")
    def op_del(root, key):
        root.pop(key, None)

    return ops


_SCRIPT = [
    ("update", "set", ("a", 1)),
    ("update", "set", ("blob", "x" * 900)),
    ("checkpoint",),
    ("update", "set", ("a", 2)),
    ("update", "del", ("blob",)),
    ("update", "set", ("c", {"k": [1, 2]})),
    ("checkpoint",),
    ("update", "set", ("d", "tail")),
]


def test_e11_crash_sweep_padded(benchmark, report):
    ops = _ops()

    def run():
        return CrashPointSweep(_SCRIPT, ops, pad_log_to_page=True).run()

    result = once(benchmark, run)
    result.assert_clean()
    assert result.total("lost_committed_update") == 0
    report(
        "E11 exhaustive crash sweep (padded log, the default)",
        [
            f"disk states tested: {result.runs} "
            f"({result.points['crash']} events x torn/untorn)",
            f"recovery failures: {len(result.failures)}",
            "every state recovered to exactly the committed prefix "
            "(± the in-flight update at its commit point)",
        ],
        metrics={
            "e11_crash_states_tested": metric(
                result.runs, "states", direction="higher"
            ),
            "e11_recovery_failures": metric(len(result.failures), "failures"),
        },
    )


def test_e11_crash_sweep_unpadded_paper_layout(benchmark, report):
    ops = _ops()

    def run():
        return CrashPointSweep(_SCRIPT, ops, pad_log_to_page=False).run()

    result = once(benchmark, run)
    result.assert_clean()  # always *consistent* …
    losses = result.total("lost_committed_update")
    assert losses > 0  # … but durability has holes
    report(
        "E11b the paper's exact (unpadded) log layout",
        [
            f"disk states tested: {result.runs}",
            f"states losing a committed entry to a torn shared page: "
            f"{losses}",
            "(recovery is still consistent — an exact earlier prefix — "
            "but durability is violated; padding closes the hole: D2)",
        ],
        metrics={
            "e11_torn_commit_losses": metric(
                losses, "states", direction="none"
            ),
        },
    )


def test_e11_hard_error_checkpoint_fallback(benchmark, report):
    """keep_versions=2 + damaged current checkpoint ⇒ section 4 recipe."""
    from repro.core import Database
    from repro.core.version import checkpoint_name

    ops = _ops()

    def run():
        fs = SimFS(clock=SimClock())
        db = Database(fs, initial=dict, operations=ops, keep_versions=2)
        db.update("set", ("k"), "epoch-1")
        db.checkpoint()
        db.update("set", ("k"), "epoch-2")
        fs.crash()
        fs.corrupt(checkpoint_name(2), 0)
        recovered = Database(fs, initial=dict, operations=ops, keep_versions=2)
        return (
            recovered.last_recovery.used_previous_checkpoint,
            recovered.enquire(lambda root: root["k"]),
        )

    used_previous, value = once(benchmark, run)
    assert used_previous
    assert value == "epoch-2"
    report(
        "E11c hard error in the current checkpoint",
        [
            "previous checkpoint + previous log + current log replayed; "
            "no committed update lost"
        ],
    )


def test_e11_replica_restore(benchmark, report):
    """Hard error beyond local recovery ⇒ restore from a replica."""
    from repro.nameserver import Replica, ReplicaRecoverer

    def run():
        fs_a = SimFS(clock=SimClock())
        fs_b = SimFS(clock=SimClock())
        a = Replica(fs_a, "a")
        b = Replica(fs_b, "b")
        a.add_peer(b)
        for i in range(20):
            a.bind(f"names/n{i}", i)
        a.propagate()
        a.bind("names/unpropagated", "lost")
        # a's disk is now damaged beyond recovery; rebuild from b.
        fs_new = SimFS(clock=SimClock())
        restored = ReplicaRecoverer(fs_new, "a", [b]).run()
        return restored.count(), restored.exists("names/unpropagated")

    count, has_unpropagated = once(benchmark, run)
    assert count == 20
    assert not has_unpropagated
    report(
        "E11d replica restoration after a hard error",
        [
            "20 propagated updates recovered from the peer; "
            "only the single unpropagated update lost "
            "(the paper's stated loss bound)"
        ],
    )
