"""An interactive shell for browsing and modifying a name server.

Section 6 again: among the name server's surrounding parts were "user
interfaces for browsing and modifying the database".  This is that user
interface — a small command shell that drives either a local database
directory or a remote server over TCP:

    python -m repro.tools.shell /var/lib/names          # local directory
    python -m repro.tools.shell --connect host:9999     # remote server
    python -m repro.tools.shell --cluster host:9800     # sharded cluster

With ``--cluster`` the shell dials the coordinator, fetches the shard
map, and serves data commands through a :class:`ShardRouter` — reads
and writes go to the owning shard, enumeration scatter-gathers.  The
management commands grow a shard argument: ``health``, ``metrics`` and
``flight`` route to one named shard or fan out over ``all``, and a
``shards`` command prints the map.

Commands::

    ls [path]            list a directory
    tree [path]          the whole subtree with values
    get <path>           look a value up
    set <path> <value>   bind (value parsed as a Python literal if possible)
    rm <path>            unbind one name
    rmtree <path>        unbind a subtree
    find <pattern>       glob enumeration (*, **)
    count                live name count
    shards               the shard map (cluster mode)
    health [shard|all]   storage health state (degraded read-only?)
    recover              rebuild this replica from a peer (staged recovery)
    checkpoint           force a checkpoint (local only)
    metrics              the unified metrics registry (Prometheus text)
    trace [id]           render one trace tree (default: newest)
    slowops              operations retained by the slow-op log
    help / quit

The shell is deliberately dumb about values: scripting belongs in Python
against the real API; this is for poking around.
"""

from __future__ import annotations

import argparse
import ast
import shlex
import sys
from typing import TextIO

from repro.core.errors import DatabaseDegraded
from repro.nameserver import (
    NameServer,
    NameServerError,
    RemoteNameServer,
)
from repro.nameserver.management import ManagementService
from repro.obs import build_tree, format_tree
from repro.storage.localfs import LocalFS
from repro.tools.top import peer_links


def parse_value(text: str) -> object:
    """A Python literal when possible, else the raw string."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


class Shell:
    """One shell session bound to a server-like object.

    In cluster mode ``server`` is a :class:`~repro.cluster.ShardRouter`,
    ``coordinator`` a :class:`~repro.cluster.RemoteCoordinator`, and
    ``management_factory(address)`` dials one shard's management
    interface so ``health``/``metrics``/``flight`` can be routed to a
    named shard or fanned out over ``all``.
    """

    def __init__(
        self,
        server,
        out: TextIO = sys.stdout,
        management=None,
        coordinator=None,
        management_factory=None,
    ) -> None:
        self.server = server
        self.out = out
        self.management = management
        self.coordinator = coordinator
        self.management_factory = management_factory
        self.running = True

    def execute(self, line: str) -> None:
        """Run one command line; errors are printed, never raised."""
        try:
            words = shlex.split(line)
        except ValueError as exc:
            self._print(f"parse error: {exc}")
            return
        if not words:
            return
        command, args = words[0], words[1:]
        handler = getattr(self, f"do_{command}", None)
        if handler is None:
            self._print(f"unknown command {command!r}; try 'help'")
            return
        try:
            handler(args)
        except (NameServerError, DatabaseDegraded) as exc:
            self._print(str(exc))
        except TypeError:
            self._print(f"usage error; try 'help'")

    def repl(self, lines: TextIO) -> None:
        for line in lines:
            if not self.running:
                break
            self.execute(line.rstrip("\n"))

    # -- commands ------------------------------------------------------------

    def do_help(self, args: list[str]) -> None:
        self._print(
            "commands: ls [path] | tree [path] | get <path> | "
            "set <path> <value> | rm <path> | rmtree <path> | "
            "find <pattern> | count | shards | health [shard|all] | "
            "recover | checkpoint | metrics [shard|all] | trace [id] | "
            "slowops | profile [seconds] | flight [shard|all] [kind] | "
            "quit"
        )

    def do_ls(self, args: list[str]) -> None:
        path = args[0] if args else ()
        for name in self.server.list_dir(path):
            self._print(name)

    def do_tree(self, args: list[str]) -> None:
        path = args[0] if args else ()
        entries = self.server.read_subtree(path)
        if not entries:
            self._print("(empty)")
            return
        for relative, value in entries:
            self._print(f"{'/'.join(relative)} = {value!r}")

    def do_get(self, args: list[str]) -> None:
        (path,) = args
        self._print(repr(self.server.lookup(path)))

    def do_set(self, args: list[str]) -> None:
        path, raw = args[0], " ".join(args[1:])
        if not raw:
            self._print("usage: set <path> <value>")
            return
        self.server.bind(path, parse_value(raw))
        self._print("ok")

    def do_rm(self, args: list[str]) -> None:
        (path,) = args
        self.server.unbind(path)
        self._print("ok")

    def do_rmtree(self, args: list[str]) -> None:
        (path,) = args
        self.server.unbind_subtree(path)
        self._print("ok")

    def do_find(self, args: list[str]) -> None:
        (pattern,) = args
        for path, value in self.server.glob(pattern):
            self._print(f"{'/'.join(path)} = {value!r}")

    def do_count(self, args: list[str]) -> None:
        self._print(str(self.server.count()))

    # -- cluster mode --------------------------------------------------------

    def do_shards(self, args: list[str]) -> None:
        """``shards``: the shard map plus one line per replica.

        Each replica row shows its role (primary/follower), reachability
        / storage health, and its peer-link circuit breakers — the
        at-a-glance view of a failover in progress.
        """
        if self.coordinator is None:
            self._print("not connected to a cluster (use --cluster)")
            return
        shard_map = self.coordinator.shard_map()
        try:
            health = self.coordinator.health()["shards"]
        except Exception:  # noqa: BLE001 - map still prints without probes
            health = {}
        self._print(
            f"epoch {shard_map.epoch}, {len(shard_map.shards)} shards"
        )
        for shard in shard_map.shards:
            ranges = " ".join(
                f"[{lo:#010x},{hi:#010x})" for lo, hi in shard.ranges
            )
            self._print(f"  {shard.shard_id:<8} {shard.address:<22} {ranges}")
            probes = (health.get(shard.shard_id) or {}).get("replicas") or {}
            for replica in shard.replica_set:
                probe = probes.get(replica.replica_id) or {}
                if probe:
                    state = (
                        str(probe.get("health", "?"))
                        if probe.get("reachable")
                        else "DOWN"
                    )
                else:
                    state = "?"
                breakers = peer_links(probe.get("peers") or {})
                self._print(
                    f"    {replica.replica_id:<12} "
                    f"{shard.role_of(replica.replica_id):<10} "
                    f"{state:<18} {replica.address:<22} "
                    f"breakers {breakers or '-'}"
                )

    def _each_shard(self, target: str):
        """Yield ``(shard_id, management)`` for one named shard or all.

        Unknown names and unreachable shards are printed, not raised, so
        a fan-out keeps going past a dead shard.
        """
        if self.management_factory is None:
            self._print("per-shard management is not available")
            return
        shards = self.coordinator.shards()
        if target != "all" and target not in shards:
            self._print(f"unknown shard {target!r}; try 'shards'")
            return
        selected = sorted(shards) if target == "all" else [target]
        for shard_id in selected:
            try:
                management = self.management_factory(shards[shard_id])
            except Exception as exc:  # noqa: BLE001 - operator display
                self._print(f"{shard_id}: unreachable: {exc}")
                continue
            try:
                yield shard_id, management
            finally:
                close = getattr(management, "close", None)
                if close is not None:
                    try:
                        close()
                    except Exception:  # noqa: BLE001
                        pass

    def _cluster_health(self, args: list[str]) -> None:
        target = args[0] if args else "all"
        health = self.coordinator.health()
        if target != "all" and target not in health["shards"]:
            self._print(f"unknown shard {target!r}; try 'shards'")
            return
        self._print(f"epoch {health['epoch']}")
        for shard_id, status in sorted(health["shards"].items()):
            if target != "all" and shard_id != target:
                continue
            if status.get("reachable"):
                self._print(
                    f"{shard_id}: up  names {status.get('names', '?')}  "
                    f"log {status.get('log_bytes', '?')} B  "
                    f"({status['address']})"
                )
            else:
                self._print(
                    f"{shard_id}: DOWN ({status['address']}): "
                    f"{status.get('error', '?')}"
                )
        self._cluster_slo_lines()

    def _cluster_slo_lines(self) -> None:
        """Append SLO burn-rate status when the coordinator serves it."""
        cluster_slo = getattr(self.coordinator, "cluster_slo", None)
        if cluster_slo is None:
            return
        try:
            slo = cluster_slo()
        except Exception:  # noqa: BLE001 - pre-obs-plane coordinator
            return
        targets = slo.get("targets") or []
        if not targets:
            return
        alerting = slo.get("alerting") or []
        self._print(
            f"slo: {len(targets)} targets, "
            + (f"ALERTING: {', '.join(alerting)}" if alerting else "all ok")
        )
        for target in targets:
            state = "ALERT" if target.get("alerting") else "ok"
            self._print(
                f"  {target['name']:<22} objective "
                f"{target['objective'] * 100:.2f}%  "
                f"burn {target['burn_fast']:.2f}/{target['burn_slow']:.2f}"
                f"  {state}"
            )

    def _cluster_metrics(self, args: list[str]) -> None:
        if not args:
            # No shard named: the coordinator's aggregated totals.
            totals = self.coordinator.cluster_metrics()
            for key, value in sorted(totals.items()):
                self._print(f"{key}: {value}")
            return
        for shard_id, management in self._each_shard(args[0]):
            self._print(f"--- {shard_id} ---")
            self._print(management.metrics_text().rstrip("\n"))

    def _cluster_flight(self, args: list[str]) -> None:
        target = args[0] if args else "all"
        kind = args[1] if len(args) > 1 else None
        for shard_id, management in self._each_shard(target):
            events = management.flight_events()
            if kind:
                events = [e for e in events if e.get("kind") == kind]
            self._print(f"--- {shard_id}: {len(events)} events ---")
            self._print_flight_events(events)

    # -- management ----------------------------------------------------------

    def do_health(self, args: list[str]) -> None:
        if self.coordinator is not None:
            self._cluster_health(args)
            return
        if self.management is None:
            self._print("health is not available over this connection")
            return
        detail = self.management.health()
        line = f"state: {detail.get('state', '?')}"
        if detail.get("cause"):
            line += f" (cause: {detail['cause']})"
        if detail.get("checkpoint_retry_pending"):
            line += " [checkpoint retry pending]"
        self._print(line)

    def do_recover(self, args: list[str]) -> None:
        """``recover``: staged replica repair from a peer, via management.

        Shows where recovery stands first (stage, resumable state), then
        triggers the rebuild and reports what was shipped.
        """
        if self.management is None:
            self._print("recovery is not available over this connection")
            return
        status = self.management.recovery_status()
        self._print(
            f"health: {status.get('health', '?')}, "
            f"stage: {status.get('stage', '?')}"
            + (" [resumable state on disk]" if status.get("resumable") else "")
        )
        answer = self.management.recover()
        if not answer.get("ok"):
            self._print(f"recovery failed: {answer.get('error', 'unknown')}")
            return
        self._print(
            f"recovered from peer {answer.get('peer_id', '?')!r} as "
            f"version {answer.get('target_version', '?')}: "
            f"{answer.get('bytes_shipped', 0)} checkpoint bytes shipped, "
            f"{answer.get('entries_replayed', 0)} log records caught up"
            + (" (resumed)" if answer.get("resumed") else "")
        )

    def do_checkpoint(self, args: list[str]) -> None:
        checkpoint = getattr(self.server, "checkpoint", None)
        if checkpoint is None:
            self._print("checkpoint is not available over this connection")
            return
        self._print(f"checkpointed as version {checkpoint()}")

    def do_metrics(self, args: list[str]) -> None:
        if self.coordinator is not None:
            self._cluster_metrics(args)
            return
        if self.management is None:
            self._print("metrics are not available over this connection")
            return
        self._print(self.management.metrics_text().rstrip("\n"))

    def do_trace(self, args: list[str]) -> None:
        if self.management is None:
            self._print("traces are not available over this connection")
            return
        trace_id = args[0] if args else self.management.last_trace_id()
        if not trace_id:
            self._print("no traces recorded yet")
            return
        spans = self.management.trace_spans(trace_id)
        if not spans:
            self._print(f"no spans recorded for trace {trace_id!r}")
            return
        self._print(f"trace {trace_id}:")
        self._print(format_tree(build_tree(spans)).rstrip("\n"))

    def do_slowops(self, args: list[str]) -> None:
        if self.management is None:
            self._print("slow-op log is not available over this connection")
            return
        entries = self.management.slow_ops()
        if not entries:
            self._print("(no slow operations retained)")
            return
        for entry in reversed(entries):  # slowest-recent first
            attrs = entry.get("attrs") or {}
            extra = " ".join(f"{k}={v!r}" for k, v in sorted(attrs.items()))
            self._print(
                f"{entry['duration'] * 1000:10.3f}ms  "
                f"{entry['name']:<32} {extra}".rstrip()
            )

    def do_profile(self, args: list[str]) -> None:
        """``profile [seconds]``: flame stacks from the node's profiler.

        Without an argument, shows whatever the continuous sampler has
        accumulated; ``profile 0.5`` takes a fresh half-second burst.
        """
        if self.management is None:
            self._print("profiling is not available over this connection")
            return
        try:
            seconds = float(args[0]) if args else 0.0
        except ValueError:
            self._print("usage: profile [seconds]")
            return
        stacks = self.management.profile(seconds)
        if not stacks:
            self._print(
                "no profiler attached (start the node with "
                "--profile-interval)"
            )
            return
        self._print(stacks.rstrip("\n"))

    def do_flight(self, args: list[str]) -> None:
        """``flight [kind]``: the node's flight-recorder events.

        Cluster mode: ``flight <shard|all> [kind]``.
        """
        if self.coordinator is not None:
            self._cluster_flight(args)
            return
        if self.management is None:
            self._print(
                "the flight recorder is not available over this connection"
            )
            return
        events = self.management.flight_events()
        if args:
            events = [e for e in events if e.get("kind") == args[0]]
        self._print_flight_events(events)

    def _print_flight_events(self, events: list[dict]) -> None:
        if not events:
            self._print("(no flight events recorded)")
            return
        for event in events:
            fields = event.get("fields") or {}
            extra = " ".join(f"{k}={v!r}" for k, v in sorted(fields.items()))
            self._print(
                f"#{event['seq']:<5} t={event['time']:<12g} "
                f"{event['kind']:<24} {extra}".rstrip()
            )

    def do_quit(self, args: list[str]) -> None:
        self.running = False

    do_exit = do_quit

    def _print(self, text: str) -> None:
        self.out.write(text + "\n")


def main(argv: list[str] | None = None, stdin: TextIO = sys.stdin,
         out: TextIO = sys.stdout) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.shell",
        description="Browse and modify a name server database.",
    )
    parser.add_argument(
        "directory", nargs="?", help="local database directory"
    )
    parser.add_argument(
        "--connect", metavar="HOST:PORT", help="connect to a TCP name server"
    )
    parser.add_argument(
        "--cluster", metavar="HOST:PORT",
        help="connect to a sharded cluster's coordinator",
    )
    options = parser.parse_args(argv)

    chosen = [
        source for source in
        (options.directory, options.connect, options.cluster) if source
    ]
    if len(chosen) != 1:
        parser.error(
            "give exactly one of a directory, --connect or --cluster"
        )

    if options.cluster:
        from repro.cluster import RemoteCoordinator, ShardRouter
        from repro.nameserver.management import RemoteManagement
        from repro.rpc import TcpTransport

        host, _, port = options.cluster.rpartition(":")
        coordinator = RemoteCoordinator(TcpTransport(host, int(port)))

        def management_factory(address: str) -> RemoteManagement:
            shard_host, _, shard_port = address.rpartition(":")
            return RemoteManagement(
                TcpTransport(shard_host, int(shard_port))
            )

        shell = Shell(
            ShardRouter(coordinator.shard_map()),
            out=out,
            coordinator=coordinator,
            management_factory=management_factory,
        )
        shell.repl(stdin)
        return 0

    if options.connect:
        from repro.nameserver.management import RemoteManagement
        from repro.rpc import TcpTransport

        host, _, port = options.connect.rpartition(":")
        transport = TcpTransport(host, int(port))
        server = RemoteNameServer(transport)
        management = RemoteManagement(transport)
    else:
        server = NameServer(LocalFS(options.directory))
        management = ManagementService(server)

    shell = Shell(server, out=out, management=management)
    shell.repl(stdin)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
