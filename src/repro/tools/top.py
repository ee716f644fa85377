"""``top`` for a name server: a refreshing view of its live metrics.

Polls a remote server's management interface and renders the unified
metrics registry as an operator console — counters with per-second
rates computed from successive snapshots, gauges, and histogram
latency summaries:

    python -m repro.tools.top --connect host:9999
    python -m repro.tools.top --connect host:9999 --interval 5 --iterations 3
    python -m repro.tools.top --cluster host:9800

With a terminal on stdout the screen is redrawn in place; when piped,
each refresh is a separate block (so ``--iterations 1`` is a one-shot
snapshot suitable for scripts).

``--cluster`` points at a coordinator instead of one server: each frame
polls the coordinator's aggregated health and renders one *column per
shard* — state, name count (with a per-second rate from the previous
frame), log bytes, unchecked-pointed entries, owned ranges — over a
cluster-totals header line.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import TextIO

_CLEAR = "\x1b[2J\x1b[H"


def _series_key(name: str, labels: dict) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


def _flatten(snapshot: dict) -> dict[str, dict]:
    """``{series key: {kind, value or histogram fields}}`` for one snapshot."""
    flat: dict[str, dict] = {}
    for name, family in snapshot.items():
        for series in family["series"]:
            entry = dict(series)
            entry["kind"] = family["kind"]
            flat[_series_key(name, series["labels"])] = entry
    return flat


def _ms(seconds: object) -> str:
    if seconds is None:
        return "-"
    return f"{float(seconds) * 1000:.2f}ms"


def render(
    status: dict,
    snapshot: dict,
    previous: dict | None = None,
    interval: float = 1.0,
) -> str:
    """One screenful of operator console from a status + metrics snapshot."""
    flat = _flatten(snapshot)
    before = _flatten(previous) if previous else {}
    lines = [
        f"name server {status.get('replica_id', '?')!r}"
        f"  version {status.get('version', '?')}"
        f"  names {status.get('names', '?')}"
        f"  log {status.get('log_bytes', '?')} B"
        f"  clock {float(status.get('clock', 0.0)):.1f}s",
        "",
    ]
    replay = _replay_progress(flat)
    if replay:
        lines[1:1] = [replay]

    counters = [(k, e) for k, e in sorted(flat.items()) if e["kind"] == "counter"]
    if counters:
        lines.append(f"{'COUNTER':<52} {'total':>14} {'per-sec':>10}")
        for key, entry in counters:
            value = entry["value"]
            rate = ""
            prior = before.get(key)
            if prior is not None and interval > 0:
                rate = f"{(value - prior['value']) / interval:10.1f}"
            total = f"{value:.0f}" if float(value).is_integer() else f"{value:.3f}"
            lines.append(f"{key:<52} {total:>14} {rate:>10}")
        lines.append("")

    gauges = [(k, e) for k, e in sorted(flat.items()) if e["kind"] == "gauge"]
    if gauges:
        lines.append(f"{'GAUGE':<52} {'value':>14}")
        for key, entry in gauges:
            lines.append(f"{key:<52} {entry['value']:>14g}")
        lines.append("")

    histograms = [
        (k, e) for k, e in sorted(flat.items()) if e["kind"] == "histogram"
    ]
    if histograms:
        lines.append(
            f"{'HISTOGRAM':<44} {'count':>8} {'mean':>10} {'p50':>10} {'p99':>10}"
        )
        for key, entry in histograms:
            lines.append(
                f"{key:<44} {entry['count']:>8} {_ms(entry['mean']):>10} "
                f"{_ms(entry['p50']):>10} {_ms(entry['p99']):>10}"
            )
        lines.append("")

    return "\n".join(lines)


def _replay_progress(flat: dict[str, dict]) -> str | None:
    """The log-replay progress line, while a replay is under way."""
    done = flat.get("recovery_replay_bytes", {}).get("value")
    total = flat.get("recovery_log_bytes", {}).get("value")
    if done is None or not total or done >= total:
        return None
    entries = flat.get("recovery_replay_entries", {}).get("value", 0)
    return (
        f"replaying log: {done / total:.0%}"
        f"  ({done:.0f} of {total:.0f} B, {entries:.0f} entries applied)"
    )


def _cluster_totals(health: dict) -> dict:
    """Aggregate one health report (mirrors Coordinator.cluster_metrics,
    computed locally so each frame costs a single RPC)."""
    totals = {
        "epoch": health["epoch"],
        "shards": len(health["shards"]),
        "reachable": 0,
        "names": 0,
        "log_bytes": 0,
    }
    for status in health["shards"].values():
        if not status.get("reachable"):
            continue
        totals["reachable"] += 1
        totals["names"] += int(status.get("names", 0))
        totals["log_bytes"] += int(status.get("log_bytes", 0))
    return totals


#: the cluster-rollup series worth a console line (true cluster totals)
_CLUSTER_COUNTERS = (
    "db_updates_total",
    "db_enquiries_total",
    "rpc_server_calls_total",
    "replication_records_propagated_total",
)
_CLUSTER_HISTOGRAMS = (
    "db_update_seconds",
    "rpc_server_seconds",
    "storage_fsync_seconds",
)


#: a link that works, with one end behind the other's history window
_WINDOW_NOTES = {
    "push": "behind the history window — needs recovery",
    "pull": "this replica is behind its history window — needs recovery",
}


def peer_links(peers: dict) -> str:
    """``peer=state,…`` for the peer links in one replica's ``status()``."""
    return ",".join(
        f"{pid}={_WINDOW_NOTES.get(info.get('truncated'), info.get('state', '?'))}"
        for pid, info in sorted(peers.items())
    )


def render_cluster(
    health: dict,
    previous: dict | None = None,
    interval: float = 1.0,
    scrape: dict | None = None,
    previous_scrape: dict | None = None,
    slo: dict | None = None,
) -> str:
    """One screenful of cluster console: one column per shard.

    ``scrape`` (a coordinator ``cluster_metrics_snapshot``) adds true
    cluster-level rates and latency quantiles — merged histograms, not
    a max-of-maxes — and ``slo`` (``cluster_slo``) the burn-rate lines.
    Both are optional so the console still works against an older
    coordinator that predates the observability plane.
    """
    totals = _cluster_totals(health)
    shards = sorted(health["shards"].items())
    width = max(16, *(len(sid) + 2 for sid, _ in shards))
    lines = [
        f"cluster epoch {totals['epoch']}"
        f"  shards {totals['shards']}"
        f"  reachable {totals['reachable']}"
        f"  names {totals['names']}"
        f"  log {totals['log_bytes']} B",
        "",
        f"{'':<18}" + "".join(f"{sid:>{width}}" for sid, _ in shards),
    ]

    def row(label: str, cell) -> str:
        return f"{label:<18}" + "".join(
            f"{cell(sid, status):>{width}}" for sid, status in shards
        )

    lines.append(
        row("state", lambda s, st: "up" if st.get("reachable") else "DOWN")
    )
    lines.append(row("names", lambda s, st: str(st.get("names", "-"))))
    if previous is not None and interval > 0:
        before = previous["shards"]

        def names_rate(shard_id: str, status: dict) -> str:
            prior = before.get(shard_id, {})
            if not (status.get("reachable") and prior.get("reachable")):
                return "-"
            delta = int(status.get("names", 0)) - int(prior.get("names", 0))
            return f"{delta / interval:.1f}"

        lines.append(row("names/s", names_rate))
    lines.append(
        row("log bytes", lambda s, st: str(st.get("log_bytes", "-")))
    )
    lines.append(
        row(
            "entries unckpt",
            lambda s, st: str(st.get("entries_since_checkpoint", "-")),
        )
    )
    lines.append(
        row("ranges", lambda s, st: str(len(st.get("ranges") or [])))
    )
    lines.append(row("address", lambda s, st: st.get("address", "-")))

    replica_lines = []
    for sid, status in shards:
        for rid, rep in sorted((status.get("replicas") or {}).items()):
            state = (
                str(rep.get("health", "?"))
                if rep.get("reachable")
                else "DOWN"
            )
            breakers = peer_links(rep.get("peers") or {})
            replica_lines.append(
                f"  {sid:<10} {rid:<14} {rep.get('role', '?'):<10} "
                f"{state:<18} breakers {breakers or '-'}"
            )
    if replica_lines:
        lines.append("")
        lines.append(
            f"  {'SHARD':<10} {'REPLICA':<14} {'ROLE':<10} "
            f"{'STATE':<18} PEER LINKS"
        )
        lines.extend(replica_lines)

    if scrape is not None:
        cluster = _flatten(scrape.get("cluster", {}))
        before = _flatten(previous_scrape.get("cluster", {})) if (
            previous_scrape
        ) else {}
        counter_rows = []
        for name in _CLUSTER_COUNTERS:
            entry = cluster.get(name)
            if entry is None:
                continue
            rate = ""
            prior = before.get(name)
            if prior is not None and interval > 0:
                rate = f"{(entry['value'] - prior['value']) / interval:10.1f}"
            counter_rows.append(
                f"  {name:<44} {entry['value']:>12.0f} {rate:>10}"
            )
        histogram_rows = []
        for name in _CLUSTER_HISTOGRAMS:
            entry = cluster.get(name)
            if entry is None:
                continue
            histogram_rows.append(
                f"  {name:<44} {entry['count']:>8} "
                f"{_ms(entry.get('mean')):>10} {_ms(entry.get('p50')):>10} "
                f"{_ms(entry.get('p99')):>10}"
            )
        if counter_rows:
            lines.append("")
            lines.append(
                f"  {'CLUSTER COUNTER':<44} {'total':>12} {'per-sec':>10}"
            )
            lines.extend(counter_rows)
        if histogram_rows:
            lines.append("")
            lines.append(
                f"  {'CLUSTER HISTOGRAM':<44} {'count':>8} {'mean':>10} "
                f"{'p50':>10} {'p99':>10}"
            )
            lines.extend(histogram_rows)

    if slo is not None and slo.get("targets"):
        lines.append("")
        lines.append(
            f"  {'SLO':<24} {'objective':>10} {'burn fast':>10} "
            f"{'burn slow':>10}  state"
        )
        for target in slo["targets"]:
            state = "ALERT" if target.get("alerting") else "ok"
            lines.append(
                f"  {target['name']:<24} "
                f"{target['objective'] * 100:>9.2f}% "
                f"{target['burn_fast']:>10.2f} {target['burn_slow']:>10.2f}"
                f"  {state}"
            )
    lines.append("")
    return "\n".join(lines)


def run_cluster(
    coordinator,
    out: TextIO,
    interval: float = 2.0,
    iterations: int = 0,
    clear_screen: bool = False,
    sleep=time.sleep,
) -> int:
    """The cluster refresh loop: health + metric rollups + SLOs per frame.

    A coordinator that predates the observability plane (no
    ``cluster_metrics_snapshot``/``cluster_slo`` RPC) still renders the
    health columns — the extra sections just stay absent.
    """
    previous: dict | None = None
    previous_scrape: dict | None = None
    drawn = 0
    obs_available = True
    while True:
        health = coordinator.health()
        scrape = slo = None
        if obs_available:
            try:
                scrape = coordinator.cluster_metrics_snapshot()
                slo = coordinator.cluster_slo()
            except Exception:
                obs_available = False
        frame = render_cluster(
            health,
            previous,
            interval,
            scrape=scrape,
            previous_scrape=previous_scrape,
            slo=slo,
        )
        if clear_screen:
            out.write(_CLEAR)
        out.write(frame + "\n")
        out.flush()
        previous = health
        previous_scrape = scrape
        drawn += 1
        if iterations and drawn >= iterations:
            return 0
        sleep(interval)


def run(
    management,
    out: TextIO,
    interval: float = 2.0,
    iterations: int = 0,
    clear_screen: bool = False,
    sleep=time.sleep,
) -> int:
    """The refresh loop, separated from transport setup for testing.

    ``iterations`` of 0 means run until interrupted; the first frame is
    drawn immediately and has no rate column (no prior sample yet).
    """
    previous: dict | None = None
    drawn = 0
    while True:
        status = management.status()
        snapshot = management.metrics()
        frame = render(status, snapshot, previous, interval)
        if clear_screen:
            out.write(_CLEAR)
        out.write(frame + "\n")
        out.flush()
        previous = snapshot
        drawn += 1
        if iterations and drawn >= iterations:
            return 0
        sleep(interval)


def main(argv: list[str] | None = None, out: TextIO = sys.stdout) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.top",
        description="Live metrics console for a running name server.",
    )
    parser.add_argument(
        "--connect", metavar="HOST:PORT",
        help="the server's data/management TCP endpoint",
    )
    parser.add_argument(
        "--cluster", metavar="HOST:PORT",
        help="a cluster coordinator endpoint (per-shard columns)",
    )
    parser.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between refreshes (default 2)",
    )
    parser.add_argument(
        "--iterations", type=int, default=0,
        help="stop after this many frames (default: run until interrupted)",
    )
    options = parser.parse_args(argv)

    if bool(options.connect) == bool(options.cluster):
        parser.error("give exactly one of --connect or --cluster")

    from repro.rpc import TcpTransport

    if options.cluster:
        from repro.cluster import RemoteCoordinator

        host, _, port = options.cluster.rpartition(":")
        coordinator = RemoteCoordinator(TcpTransport(host, int(port)))
        try:
            return run_cluster(
                coordinator,
                out,
                interval=options.interval,
                iterations=options.iterations,
                clear_screen=out.isatty(),
            )
        except KeyboardInterrupt:
            return 0
        finally:
            coordinator.close()

    from repro.nameserver.management import RemoteManagement

    host, _, port = options.connect.rpartition(":")
    management = RemoteManagement(TcpTransport(host, int(port)))
    try:
        return run(
            management,
            out,
            interval=options.interval,
            iterations=options.iterations,
            clear_screen=out.isatty(),
        )
    except KeyboardInterrupt:
        return 0
    finally:
        management.close()


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
