"""Layer probes: what one layer costs on its own, and the layer walk.

These measurements do not depend on which workload a traced run names.
The microbenchmarks time one public call of one ``src/repro`` package in
a loop.  The **walk** drives one closed-loop client with the
``embedded_relaxed`` op stream through each successive layer an op can
cross, from the bare name tree to a replicated, routed shard, and
reports each step's p50 and what it added over the step before.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import subprocess
import sys
import time

from repro import (
    Database,
    LocalFS,
    LoopbackTransport,
    MetricsRegistry,
    NAMESERVER_INTERFACE,
    OperationRegistry,
    RemoteNameServer,
    RpcServer,
    SUELock,
    TcpTransport,
    pickle_read,
    pickle_write,
)
from repro.core import DatabaseStats
from repro.nameserver import NAMESERVER_OPS, live_leaf, new_root, parse_path

from inputs import Inputs
from measure import Book, per_call_us, run_section
from metrics import LEDGER_STEPS
from workloads import Cluster, Embedded

_now = time.perf_counter


class TreeClient:
    """``lookup``/``bind`` on a plain root: the name tree with no database."""

    def __init__(self) -> None:
        self.root = new_root()
        self._op = NAMESERVER_OPS.get("ns_local")

    def lookup(self, path):
        return live_leaf(self.root["tree"], parse_path(path)).value

    def bind(self, path, value) -> None:
        params = (parse_path(path), value, False)
        self._op.check(self.root, "bind", params)
        self._op.apply(self.root, "bind", params)


def storage_probe(directory: str, samples: int = 100) -> tuple[float, float]:
    """Microseconds of one 1 KiB ``LocalFS.append`` and of the fsync after it."""
    fs = LocalFS(directory)
    block = bytes(1024)
    appends, fsyncs = [], []
    for _ in range(samples):
        t0 = _now()
        fs.append("probe", block)
        t1 = _now()
        fs.fsync("probe")
        t2 = _now()
        appends.append(t1 - t0)
        fsyncs.append(t2 - t1)
    fs.delete("probe")
    return statistics.median(appends) * 1e6, statistics.median(fsyncs) * 1e6


def microbenchmarks(inputs: Inputs, big: Inputs, workdir: str, calls: int) -> dict:
    """One number per layer call; ``calls`` scales every loop."""
    out: dict[str, tuple[float, int]] = {}
    path, value = inputs.paths[0], inputs.value(0, 1)

    # pickles: one bind's log entry, exactly as Database.update frames it
    entry = ("ns_local", ("bind", (path, value, False)), {})
    blob = pickle_write(entry)
    out["pickles.entry_write_us"] = (per_call_us(lambda: pickle_write(entry), calls), calls * 5)
    out["pickles.entry_read_us"] = (per_call_us(lambda: pickle_read(blob), calls), calls * 5)
    out["pickles.entry_bytes"] = (len(blob), 1)

    # nameserver: bare tree ops while building the big root; pickles: that root
    tree = TreeClient()
    values = [big.value(idx, 0) for idx in range(len(big))]
    t0 = _now()
    for p, v in zip(big.paths, values):
        tree.bind(p, v)
    out["nameserver.tree_bind_us"] = ((_now() - t0) / len(big) * 1e6, len(big))
    t0 = _now()
    for p in big.paths:
        tree.lookup(p)
    out["nameserver.tree_lookup_us"] = ((_now() - t0) / len(big) * 1e6, len(big))
    t0 = _now()
    root_blob = pickle_write(tree.root)
    t1 = _now()
    pickle_read(root_blob)
    t2 = _now()
    out["pickles.root_write_mb_per_s"] = (len(root_blob) / 1e6 / (t1 - t0), 1)
    out["pickles.root_read_mb_per_s"] = (len(root_blob) / 1e6 / (t2 - t1), 1)
    del tree, values, root_blob

    append_us, fsync_us = storage_probe(os.path.join(workdir, "probe-storage"))
    out["storage.append_us"] = (append_us, 100)
    out["storage.fsync_us"] = (fsync_us, 100)

    lock = SUELock()

    def shared_cycle():
        with lock.shared():
            pass

    def update_upgrade_cycle():
        with lock.update():
            lock.upgrade()
            lock.downgrade()

    out["concurrency.shared_cycle_us"] = (per_call_us(shared_cycle, calls), calls * 5)
    out["concurrency.update_upgrade_cycle_us"] = (
        per_call_us(update_upgrade_cycle, calls), calls * 5
    )

    # core: a trivial operation on a dict root, so no name tree is involved
    ops = OperationRegistry()
    ops.register("set", lambda root, key, val: root.__setitem__(key, val))
    directory = os.path.join(workdir, "probe-core")
    db = Database(LocalFS(directory), operations=ops, durability="relaxed")
    try:
        keys = iter(range(10**9))
        out["core.update_relaxed_us"] = (
            per_call_us(lambda: db.update("set", next(keys) % 1000, "v"), calls),
            calls * 5,
        )
        out["core.enquire_us"] = (
            per_call_us(lambda: db.enquire(lambda root: root[7]), calls), calls * 5
        )
    finally:
        db.close()
    t0 = _now()
    db = Database(LocalFS(directory), operations=ops, durability="relaxed")
    seconds = _now() - t0
    replayed = db.stats.entries_replayed
    db.close()
    out["core.replay_entries_per_s"] = (replayed / seconds, replayed)

    stats = DatabaseStats(MetricsRegistry())
    out["obs.record_update_us"] = (
        per_call_us(
            lambda: stats.record_update(1e-6, 2e-6, 3e-6, 1e-6, 1024, 600), calls
        ),
        calls * 5,
    )
    family = MetricsRegistry().counter("probe_total", "probe", labelnames=("phase",))
    out["obs.labels_lookup_us"] = (
        per_call_us(lambda: family.labels("explore"), calls), calls * 5
    )
    return out


@contextlib.contextmanager
def _serve_child(directory: str):
    """A ``python -m repro.nameserver.serve`` process on ``directory``."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.nameserver.serve", directory, "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        ready = proc.stdout.readline()  # "name server 'primary' on host:port, ..."
        if " on " not in ready:
            raise RuntimeError(f"serve child did not start: {ready}{proc.stdout.read()}")
        host, _, port = ready.split(" on ", 1)[1].split(",", 1)[0].rpartition(":")
        yield host, int(port)
    finally:
        proc.terminate()
        try:
            proc.wait(10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


#: The walk visits every step this many times, round robin, and keeps each
#: step's best visit: the machine's slow spells last a second or so, as
#: long as one step's share of a run, and a single visit per step would
#: hand a whole spell to one layer.  Each visit starts with a discarded
#: section 0.4 times as long as the timed one, because a step comes back
#: cold after the others have run.
WALK_ROUNDS = 3


def walk(inputs: Inputs, workdir: str, step_seconds: float) -> dict:
    """The layer walk: p50 lookup/bind per step and what each step added."""
    stream = [inputs.stream("embedded_relaxed/0", list(range(len(inputs))))]
    with contextlib.ExitStack() as stack:
        clients: dict[str, object] = {}

        def embedded(step: str, durability: str) -> Embedded:
            target = Embedded(os.path.join(workdir, f"walk-{step}"), durability, False)
            target.load(inputs)
            target.open()
            stack.callback(target.close)
            return target

        tree = clients["tree"] = TreeClient()
        for idx, path in enumerate(inputs.paths):
            tree.bind(path, inputs.value(idx, 0))
        for step, durability in (
            ("db_relaxed", "relaxed"), ("db_group", "group"),
            ("db_immediate", "immediate"),
        ):
            clients[step] = embedded(step, durability).ns

        server = RpcServer()
        server.export(NAMESERVER_INTERFACE, embedded("rpc_loopback", "group").ns)
        clients["rpc_loopback"] = RemoteNameServer(LoopbackTransport(server))
        stack.callback(clients["rpc_loopback"].close)

        served = Embedded(os.path.join(workdir, "walk-rpc_tcp"), "group", False)
        served.load(inputs)
        host, port = stack.enter_context(_serve_child(served.directory))
        clients["rpc_tcp"] = RemoteNameServer(TcpTransport(host, port))
        stack.callback(clients["rpc_tcp"].close)

        for step, shards, replicas in (
            ("router_1shard", 1, 1), ("router_replicated", 2, 2),
        ):
            cluster = Cluster(os.path.join(workdir, f"walk-{step}"), shards, replicas)
            stack.callback(cluster.close)
            cluster.open()
            cluster.fill(inputs)
            (clients[step],) = cluster.clients(1)

        books = {step: Book(inputs) for step in LEDGER_STEPS}
        p50: dict[tuple[str, str], float] = {}
        samples: dict[tuple[str, str], int] = {}
        visit_s = max(0.03, step_seconds / WALK_ROUNDS)
        for _ in range(WALK_ROUNDS):
            for step in LEDGER_STEPS:
                args = ([clients[step]], stream, books[step])
                run_section(*args, 0.4 * visit_s, 1)
                section = run_section(*args, visit_s, 1)
                if section.failed:
                    raise RuntimeError(f"ledger step {step}: {section.threads[0].errors}")
                for kind in ("lookup", "bind"):
                    value, count = section.p50_us(kind)
                    if count:
                        p50[step, kind] = min(value, p50.get((step, kind), value))
                        samples[step, kind] = samples.get((step, kind), 0) + count
        scatter_us = per_call_us(clients["router_replicated"].count, 20)

    out: dict[str, tuple[float, int]] = {"cluster.scatter_count_us": (scatter_us, 100)}
    # Each step is charged against the layer below it; rpc_loopback wraps
    # a group-commit database, not the immediate-mode one listed before it.
    below = dict(zip(LEDGER_STEPS[1:], LEDGER_STEPS))
    below["rpc_loopback"] = "db_group"
    for step in LEDGER_STEPS:
        for kind in ("lookup", "bind"):
            base = p50[below[step], kind] if step in below else 0.0
            out[f"ledger.{step}.{kind}_us"] = (p50[step, kind], samples[step, kind])
            out[f"ledger.{step}.{kind}_added_us"] = (p50[step, kind] - base, 1)
    return out


def run_probes(seed: int, workdir: str, seconds: float, quick: bool) -> dict:
    """Every probe metric; ``seconds`` is the walk's total timed budget."""
    inputs = Inputs(seed, 400 if quick else 2000, 64 if quick else 320)
    big = Inputs(seed, 2000 if quick else 20000)
    out = microbenchmarks(inputs, big, workdir, 200 if quick else 2000)
    out.update(walk(inputs, workdir, seconds / len(LEDGER_STEPS)))
    return out
