"""The four workloads, and the one life all of them lead.

Every run of every workload is the same sequence, so every end-to-end
metric means the same thing on each:

1. **set-up**, repeated and reported as medians — load the names into a
   fresh directory, close, reopen from the log (``restart_log_s``),
   checkpoint (``checkpoint_s``), close, reopen from the checkpoint
   (``restart_ckpt_s``); ``setup_s`` is the whole of it;
2. an untimed warm-up, then the **timed section** the latency, rate and
   log-volume metrics come from (and, on a traced run, a second section
   with spans recorded);
3. **output checks** — close, reopen the same directories, read every
   name back against the last value acked for it, run ``fsck``.

What differs between workloads is the target (an in-process
``NameServer`` or a ``ClusterSupervisor`` of child processes), the
durability, the number of client threads and whether they run closed or
open loop.  The program runs with its default settings except where the
table below says otherwise; the benchmark only ever calls public names.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from repro import LocalFS, NameServer
from repro.cluster.serve import ClusterSupervisor
from repro.nameserver import RemoteManagement
from repro.rpc import TcpTransport

from inputs import Inputs
from measure import Book, Section, cpu_seconds, peak_rss_mb, run_section
from spans import SpanLog, TimingFS

_now = time.perf_counter


@dataclass(frozen=True)
class Workload:
    name: str
    names: int
    quick_names: int
    cluster: bool = False
    #: the served database's commit protocol (the load always runs
    #: ``relaxed``: the log it leaves is byte-for-byte the same and only
    #: the fsync schedule of an untimed step differs)
    durability: str = "group"
    clients: int = 1
    #: ops/s per client thread; None means closed loop
    rate: float | None = None
    setup_repeats: int = 5


WORKLOADS = {
    w.name: w
    for w in (
        Workload("embedded_relaxed", 2000, 400, durability="relaxed"),
        # One client, not the two the issue sketched: with two, group
        # commit's leader/follower pattern settles at a different level
        # each run on top of the fsync's own two levels (metrics.UNGATED).
        Workload("embedded_durable", 2000, 400),
        Workload("routed_cluster", 2000, 400, cluster=True, clients=2, setup_repeats=3),
        # The load is 20,000 binds and a 10 MB reopen; two of them are
        # what the driver's time cap leaves room for.
        Workload(
            "checkpoint_restart", 20000, 2000, durability="relaxed", clients=2,
            rate=100.0, setup_repeats=2,
        ),
    )
}

_COUNTERS = {
    "updates": "db_updates_total",
    "log_entries": "db_log_entries_written_total",
    "log_bytes": "db_log_bytes_written_total",
    "fsyncs": "db_log_fsyncs_total",
    "checkpoint_bytes": "db_checkpoint_bytes_written_total",
    "commit_wait_s": "db_commit_wait_seconds_total",
}


def read_counters(snapshot: dict) -> dict[str, float]:
    """The counters the ledger uses, out of one metrics-registry snapshot."""
    out = {
        key: sum(series["value"] for series in snapshot[family]["series"])
        for key, family in _COUNTERS.items()
    }
    for series in snapshot["db_update_phase_seconds_total"]["series"]:
        out["phase_" + series["labels"]["phase"]] = series["value"]
    return out


def _timed(call, *args) -> float:
    start = _now()
    call(*args)
    return _now() - start


def _delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {key: after[key] - before[key] for key in after}


class Embedded:
    """An in-process ``NameServer`` on a real directory."""

    def __init__(self, directory: str, durability: str, traced: bool) -> None:
        self.directory = directory
        self.durability = durability
        self.fs = LocalFS(directory)
        if traced:
            self.fs = TimingFS(self.fs)
        self.ns: NameServer | None = None

    def load(self, inputs: Inputs) -> None:
        server = NameServer(LocalFS(self.directory), durability="relaxed")
        try:
            for idx, path in enumerate(inputs.paths):
                server.bind(path, inputs.value(idx, 0))
        finally:
            server.close()

    def open(self) -> None:
        self.ns = NameServer(self.fs, durability=self.durability)

    def clients(self, count: int) -> list:
        return [self.ns] * count

    def checkpoint(self) -> None:
        self.ns.checkpoint()

    def counters(self) -> dict[str, float]:
        return read_counters(self.ns.db.registry.snapshot())

    def pids(self) -> list[int]:
        return []

    def directories(self) -> list[str]:
        return [self.directory]

    def record(self, log: SpanLog | None) -> None:
        if isinstance(self.fs, TimingFS):
            self.fs.record(log)

    def close(self) -> None:
        if self.ns is not None:
            self.ns.close()
            self.ns = None


class Cluster:
    """Replicated shard processes behind ``ShardRouter`` clients."""

    def __init__(self, directory: str, num_shards: int = 2, replicas: int = 2) -> None:
        self.directory = directory
        self.num_shards = num_shards
        self.replicas = replicas
        self.sup: ClusterSupervisor | None = None
        self._routers: list = []

    def load(self, inputs: Inputs) -> None:
        self.open()
        try:
            self.fill(inputs)
        finally:
            self.close()

    def fill(self, inputs: Inputs) -> None:
        # One write_subtree per first component: the bulk-load call the
        # router offers, and one commit per shard-placement unit.
        router = self.sup.router()
        try:
            for first, members in inputs.by_first_component().items():
                router.write_subtree(
                    (first,),
                    [(inputs.paths[i][1:], inputs.value(i, 0)) for i in members],
                )
        finally:
            router.close()

    def open(self) -> None:
        self.sup = ClusterSupervisor(
            self.directory, num_shards=self.num_shards, replicas=self.replicas
        )

    def clients(self, count: int) -> list:
        fresh = [self.sup.router() for _ in range(count)]
        self._routers += fresh
        return fresh

    def _each_replica(self, call):
        results = []
        for proc in self.sup.processes.values():
            admin = RemoteManagement(TcpTransport(proc.host, proc.port))
            try:
                results.append(call(admin))
            finally:
                admin.close()
        return results

    def checkpoint(self) -> None:
        self._each_replica(lambda admin: admin.force_checkpoint())

    def counters(self) -> dict[str, float]:
        per_replica = self._each_replica(lambda a: read_counters(a.metrics()))
        return {
            key: sum(counters[key] for counters in per_replica)
            for key in per_replica[0]
        }

    def pids(self) -> list[int]:
        return [proc.process.pid for proc in self.sup.processes.values()]

    def directories(self) -> list[str]:
        data = os.path.join(self.directory, "data")
        return sorted(os.path.join(data, name) for name in os.listdir(data))

    def record(self, log: SpanLog | None) -> None:
        pass  # storage runs in the shard processes; only op spans exist

    def close(self) -> None:
        for router in self._routers:
            router.close()
        self._routers = []
        if self.sup is not None:
            self.sup.shutdown()
            self.sup = None


def fsck_problems(directories: list[str]) -> list[str]:
    """Run ``python -m repro.tools.fsck`` on each directory; what it found."""
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.tools.fsck", directory],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        for directory in directories
    ]
    problems = []
    for directory, proc in zip(directories, procs):
        output, _ = proc.communicate()
        if proc.returncode != 0:
            problems.append(
                f"fsck exit {proc.returncode} on {directory}: {output[-300:]}"
            )
    return problems


@dataclass
class Result:
    """One run of one workload: metric name -> (value, sample count)."""

    workload: str
    end_to_end: dict[str, tuple[float, int]] = field(default_factory=dict)
    per_layer: dict[str, tuple[float, int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    spans: SpanLog | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _streams(w: Workload, inputs: Inputs) -> list[list[tuple[bool, int]]]:
    everyone = list(range(len(inputs)))
    if w.rate is not None:
        # Open loop: one thread only binds, one only looks up, both over
        # every name, so lookups race binds and the version check matters.
        return [
            inputs.stream(f"{w.name}/bind", everyone, bind_share=1.0),
            inputs.stream(f"{w.name}/lookup", everyone, bind_share=0.0),
        ]
    return [
        inputs.stream(f"{w.name}/{i}", everyone[i :: w.clients])
        for i in range(w.clients)
    ]


def _mix_cost(section: Section) -> float:
    """Microseconds of one op of the section's own lookup/bind mix, at p50."""
    lookup, lookups = section.p50_us("lookup")
    bind, binds = section.p50_us("bind")
    return (lookup * lookups + bind * binds) / max(1, lookups + binds)


def run_workload(
    w: Workload,
    seed: int,
    untraced_s: float,
    traced_s: float,
    workdir: str,
    quick: bool = False,
) -> Result:
    """One whole life of workload ``w``; see the module docstring."""
    inputs = Inputs(seed, w.quick_names if quick else w.names, 64 if quick else 320)
    book = Book(inputs)
    result = Result(w.name)
    with contextlib.ExitStack() as stack:
        # -- set-up, repeated ---------------------------------------------------
        repeats = 1 if quick else w.setup_repeats
        setup_s, restart_log_s, checkpoint_s, restart_ckpt_s = [], [], [], []
        for k in range(repeats):
            directory = os.path.join(workdir, f"{w.name}-{k}")
            target = (
                Cluster(directory) if w.cluster
                else Embedded(directory, w.durability, traced=traced_s > 0)
            )
            stack.callback(target.close)
            load_s = _timed(target.load, inputs)
            restart_log_s.append(_timed(target.open))
            before = target.counters()
            checkpoint_s.append(_timed(target.checkpoint))
            checkpoint_bytes = _delta(target.counters(), before)["checkpoint_bytes"]
            close_s = _timed(target.close)
            restart_ckpt_s.append(_timed(target.open))
            setup_s.append(
                load_s + restart_log_s[-1] + checkpoint_s[-1] + close_s
                + restart_ckpt_s[-1]
            )
            if k < repeats - 1:
                target.close()
                shutil.rmtree(directory)

        # -- serve ---------------------------------------------------------------
        clients = target.clients(w.clients)
        streams = _streams(w, inputs)

        def serve(seconds: float, log: SpanLog | None = None, warm: bool = False):
            if w.rate is None:
                slices, checkpoint = 5, None
            else:
                slices = max(1, round(seconds / 4.0))
                checkpoint = None if warm else target.checkpoint
            before = target.counters()
            cpu0 = cpu_seconds(target.pids())
            section = run_section(
                clients, streams, book, seconds, slices, log, w.rate, checkpoint
            )
            counters = _delta(target.counters(), before)
            counters["child_cpu_s"] = cpu_seconds(target.pids()) - cpu0
            result.attempted += section.attempted
            result.failed += section.failed
            for thread in section.threads:
                result.problems += thread.errors
            return section, counters

        # The set-up above wrote and deleted whole directories; let that
        # settle, or its write-back lands in the timed section as slow
        # fsyncs (it tripled the run-to-run spread of bind_p50_us).
        os.sync()
        serve(max(0.2, untraced_s / 15.0), warm=True)
        section, counters = serve(untraced_s)
        e2e = result.end_to_end
        e2e["setup_s"] = (statistics.median(setup_s), repeats)
        e2e["ops_per_s"] = section.ops_per_s()
        for kind in ("lookup", "bind"):
            e2e[f"{kind}_p50_us"] = section.p50_us(kind)
        e2e["log_bytes_per_user_byte"] = (
            counters["log_bytes"] / max(1, section.user_bytes), section.binds
        )
        # One-sided noise again: the quickest repeat is the one nothing
        # else on the machine got in the way of.
        in_run = section.checkpoint_s or checkpoint_s
        e2e["checkpoint_s"] = (min(in_run), len(in_run))
        e2e["restart_log_s"] = (min(restart_log_s), repeats)
        e2e["restart_ckpt_s"] = (min(restart_ckpt_s), repeats)

        if traced_s > 0:
            log = result.spans = SpanLog()
            target.record(log)
            traced, counters = serve(traced_s, log)
            target.record(None)
            layer = result.per_layer
            for kind in ("lookup", "bind"):
                layer[f"tail.{kind}_p99_us"] = section.tail_us(kind, 0.99)
            binds, updates = max(1, traced.binds), max(1.0, counters["updates"])
            layer["trace.overhead_ratio"] = (
                _mix_cost(traced) / _mix_cost(section), traced.attempted
            )
            parts = log.breakdown("bind")
            for key, name in (
                ("self", "self"), ("storage.append", "append"),
                ("storage.fsync", "fsync"),
            ):
                layer[f"trace.bind_{name}_us"] = (
                    statistics.median(parts[key]) * 1e6 if parts[key] else 0.0,
                    len(parts[key]),
                )
            layer["storage.fsyncs_per_bind"] = (counters["fsyncs"] / binds, binds)
            layer["storage.log_bytes_per_bind"] = (counters["log_bytes"] / binds, binds)
            layer["storage.checkpoint_bytes"] = (checkpoint_bytes, 1)
            for phase, name in (
                ("explore", "explore"), ("pickle", "pickle"),
                ("log_write", "log"), ("apply", "apply"),
            ):
                layer[f"core.phase_{name}_us"] = (
                    counters["phase_" + phase] / updates * 1e6, int(updates)
                )
            layer["core.commit_wait_us"] = (
                counters["commit_wait_s"] / updates * 1e6, int(updates)
            )
            layer["core.mean_commit_batch"] = (
                counters["log_entries"] / max(1.0, counters["fsyncs"]),
                int(counters["fsyncs"]),
            )
            layer["loadgen.cpu_busy_ratio"] = (traced.cpu_s / traced.seconds, 1)
            layer["loadgen.late_p99_us"] = (
                traced.late_p99_us(), sum(len(t.late) for t in traced.threads)
            )
            layer["cluster.shard_cpu_ms_per_kop"] = (
                counters["child_cpu_s"] * 1e6 / max(1, traced.attempted),
                traced.attempted,
            )

        e2e["acked_ops_ratio"] = (
            1.0 - result.failed / max(1, result.attempted), result.attempted
        )
        e2e["rss_mb"] = (peak_rss_mb(target.pids()), 1)

        # -- output checks -------------------------------------------------------
        target.close()
        target.open()
        (reader,) = target.clients(1)
        missing = 0
        for idx, path in enumerate(inputs.paths):
            try:
                if reader.lookup(path) != book.current[idx]:
                    missing += 1
            except Exception as exc:  # a lost name raises NameNotFound
                missing += 1
                if missing == 1:
                    result.problems.append(f"after reopen: {type(exc).__name__}: {exc}")
        if missing:
            result.problems.append(
                f"{missing} of {len(inputs)} names lost their last acked value "
                "across a reopen"
            )
        directories = target.directories()
        target.close()
        result.problems += fsck_problems(directories)
    return result
