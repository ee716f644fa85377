"""The benchmark's metric and workload tables: one source for every list.

``BENCHMARK.json`` at the repository root is ``manifest()`` written to a
file; ``test_smoke.py`` fails when the two disagree or when a run prints
a name that is not here.
"""

from __future__ import annotations

RUN_SECONDS = 12

#: (name, why) — the why is also the workload's docstring in the README
WORKLOADS = [
    (
        "embedded_relaxed",
        "In-process, no fsync on the path: pickle, core, obs and name-tree "
        "CPU is nearly all of a bind, so encoder and accounting spends show.",
    ),
    (
        "embedded_durable",
        "Default group commit, durable on return: the fsync and the commit "
        "barrier dominate a bind and CPU is little, so storage and commit "
        "changes show and a CPU saving predicts no move.",
    ),
    (
        "routed_cluster",
        "Two replicated shards behind ShardRouter: wire, marshal, event "
        "loop, routing and replica ack are nearly all of an op and the "
        "database core is little.",
    ),
    (
        "checkpoint_restart",
        "A 10 MB database checkpointed under open-loop load: whole-root "
        "pickling, the update-lock hold during a checkpoint and log replay "
        "do the work; tail.bind_p99_us is the foreground stall.",
    ),
]

#: (name, unit, better, bound).  The time and rate bounds are the widest
#: the driver accepts because this sandbox's noise comes in moods that last
#: tens of minutes: with nothing changed, the ten-run median of an
#: fsync-bound number moved by up to 30 % from one half hour to the next.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("lookup_p50_us", "us", "lower", 0.25),
    ("bind_p50_us", "us", "lower", 0.25),
    ("acked_ops_ratio", "ratio", "higher", 0.001),
    ("log_bytes_per_user_byte", "ratio", "lower", 0.03),
    ("checkpoint_s", "s", "lower", 0.25),
    ("restart_log_s", "s", "lower", 0.25),
    ("restart_ckpt_s", "s", "lower", 0.25),
    ("rss_mb", "MB", "lower", 0.25),
]

#: Run by ``run.py`` and compared by ``compare`` like the others, but not
#: declared to the driver as a gate.  Every one of its binds waits for an
#: fsync, and on this sandbox an fsync's completion latency has two levels
#: (about 60 us apart per call, twice per bind) that hold for a whole run
#: and flip between runs for no cause the benchmark can see or control:
#: ten runs of the same code gave bind p50 310-333 us six times and
#: 421-480 us four times, a spread of 35-39 % against the 25 % the driver
#: allows.  ``routed_cluster`` keeps the durable path under a gate, where
#: the same two fsyncs are a twentieth of a bind.
UNGATED = {"embedded_durable"}

LEDGER_STEPS = [
    "tree", "db_relaxed", "db_group", "db_immediate",
    "rpc_loopback", "rpc_tcp", "router_1shard", "router_replicated",
]

#: measured on the traced pass of the workload named on the command line
PER_WORKLOAD_LAYER = [
    # Demoted from the end-to-end list: their run-to-run spread (15-45 %
    # on some workload) is wider than any bound the driver accepts, so as
    # gates they would only ever report "unresolved".
    ("tail.lookup_p99_us", "us", "lower"),
    ("tail.bind_p99_us", "us", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.bind_self_us", "us", "lower"),
    ("trace.bind_append_us", "us", "lower"),
    ("trace.bind_fsync_us", "us", "lower"),
    ("storage.fsyncs_per_bind", "ratio", "lower"),
    ("storage.log_bytes_per_bind", "bytes", "lower"),
    ("storage.checkpoint_bytes", "bytes", "lower"),
    ("core.phase_explore_us", "us", "lower"),
    ("core.phase_pickle_us", "us", "lower"),
    ("core.phase_log_us", "us", "lower"),
    ("core.phase_apply_us", "us", "lower"),
    ("core.commit_wait_us", "us", "lower"),
    ("core.mean_commit_batch", "count", "higher"),
    ("loadgen.cpu_busy_ratio", "ratio", "lower"),
    ("loadgen.late_p99_us", "us", "lower"),
    ("cluster.shard_cpu_ms_per_kop", "ms", "lower"),
]

#: layer probes: the same measurement whichever workload is named
PROBE_LAYER = [
    ("pickles.entry_write_us", "us", "lower"),
    ("pickles.entry_read_us", "us", "lower"),
    ("pickles.entry_bytes", "bytes", "lower"),
    ("pickles.root_write_mb_per_s", "MB/s", "higher"),
    ("pickles.root_read_mb_per_s", "MB/s", "higher"),
    ("storage.append_us", "us", "lower"),
    ("storage.fsync_us", "us", "lower"),
    ("concurrency.shared_cycle_us", "us", "lower"),
    ("concurrency.update_upgrade_cycle_us", "us", "lower"),
    ("core.enquire_us", "us", "lower"),
    ("core.update_relaxed_us", "us", "lower"),
    ("core.replay_entries_per_s", "1/s", "higher"),
    ("obs.record_update_us", "us", "lower"),
    ("obs.labels_lookup_us", "us", "lower"),
    ("nameserver.tree_lookup_us", "us", "lower"),
    ("nameserver.tree_bind_us", "us", "lower"),
    ("cluster.scatter_count_us", "us", "lower"),
    *(
        (f"ledger.{step}.{what}_us", "us", "lower")
        for step in LEDGER_STEPS
        for what in ("lookup", "bind", "lookup_added", "bind_added")
    ),
]

PER_LAYER = PER_WORKLOAD_LAYER + PROBE_LAYER

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def manifest() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": n, "why": why} for n, why in WORKLOADS if n not in UNGATED
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
