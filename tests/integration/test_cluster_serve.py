"""The multi-process cluster (repro.cluster.serve) over real TCP.

This is the acceptance test for the sharded deployment: real shard
subprocesses (each an ordinary ``repro.nameserver.serve``), a real
coordinator RPC endpoint, a real online split — with client traffic
flowing while the range moves.
"""

from __future__ import annotations

import threading
import time

from repro.cluster import RemoteCoordinator
from repro.cluster.serve import ClusterSupervisor, free_port
from repro.rpc import TcpTransport


def coordinator_client(supervisor: ClusterSupervisor) -> RemoteCoordinator:
    return RemoteCoordinator(
        TcpTransport(supervisor.listener.host, supervisor.listener.port)
    )


class TestFourShardCluster:
    def test_reads_and_writes_through_the_router(self, tmp_path):
        with ClusterSupervisor(str(tmp_path), num_shards=4) as supervisor:
            router = supervisor.router()
            for i in range(48):
                router.bind(f"user{i:02d}/home", f"/home/u{i}")
            for i in range(48):
                assert router.lookup(f"user{i:02d}/home") == f"/home/u{i}"
            assert router.count() == 48

            # The keys actually spread over all four processes.
            census = router.census()
            assert set(census) == {"s0", "s1", "s2", "s3"}
            assert all(count > 0 for count in census.values())
            router.close()

    def test_coordinator_rpc_surface(self, tmp_path):
        with ClusterSupervisor(str(tmp_path), num_shards=4) as supervisor:
            remote = coordinator_client(supervisor)
            assert remote.epoch() == 1
            assert set(remote.shards()) == {"s0", "s1", "s2", "s3"}

            health = remote.health()
            assert all(
                status["reachable"]
                for status in health["shards"].values()
            )
            totals = remote.cluster_metrics()
            assert totals["reachable"] == 4
            assert remote.migration_status() == {"active": False}

            # Every shard installed the published map.
            pushed = remote.push_map()
            assert set(pushed.values()) == {1}
            remote.close()

    def test_cluster_restart_recovers_all_shards(self, tmp_path):
        directory = str(tmp_path)
        with ClusterSupervisor(directory, num_shards=2) as supervisor:
            router = supervisor.router()
            for i in range(10):
                router.bind(f"k{i}/v", i)
            router.close()
        # Same directory: the map reloads, shards replay their logs.
        with ClusterSupervisor(directory, num_shards=2) as supervisor:
            router = supervisor.router()
            for i in range(10):
                assert router.lookup(f"k{i}/v") == i
            router.close()


class TestOnlineSplit:
    def test_split_under_live_traffic_loses_nothing(self, tmp_path):
        with ClusterSupervisor(str(tmp_path), num_shards=2) as supervisor:
            router = supervisor.router()
            for i in range(60):
                router.bind(f"svc{i:03d}/addr", i)

            acked: list[int] = []
            errors: list[str] = []
            stop = threading.Event()

            def traffic() -> None:
                worker = supervisor.router()
                sequence = 1000
                while not stop.is_set():
                    try:
                        worker.bind(f"svc{sequence % 60:03d}/live", sequence)
                        acked.append(sequence)
                    except Exception as exc:  # noqa: BLE001
                        errors.append(f"{type(exc).__name__}: {exc}")
                    sequence += 1
                    time.sleep(0.002)
                worker.close()

            thread = threading.Thread(target=traffic)
            thread.start()
            try:
                time.sleep(0.2)
                report, target_id = supervisor.split("s0")
                time.sleep(0.2)
            finally:
                stop.set()
                thread.join()

            assert not errors, errors[:3]
            assert report.stages[-1] == "done"
            assert target_id in supervisor.processes

            # Every acked update is readable with its latest value.
            latest = {
                f"svc{sequence % 60:03d}/live": sequence
                for sequence in acked
            }
            fresh = supervisor.router()
            for path, want in latest.items():
                assert fresh.lookup(path) == want
            assert fresh.count() == 60 + len(latest)

            # The new shard owns real data; the donor redirects for it.
            census = fresh.census()
            assert census[target_id] > 0
            fresh.close()

            remote = coordinator_client(supervisor)
            assert remote.epoch() == report.new_epoch
            assert remote.migration_status() == {"active": False}
            remote.close()


class TestOperatorTools:
    def test_shell_and_top_drive_the_cluster_over_tcp(self, tmp_path):
        import io

        from repro.tools.shell import main as shell_main
        from repro.tools.top import main as top_main

        with ClusterSupervisor(str(tmp_path), num_shards=2) as supervisor:
            script = (
                "set alice/home /home/a\nget alice/home\nshards\n"
                "health\nmetrics\nflight all\nquit\n"
            )
            out = io.StringIO()
            status = shell_main(
                ["--cluster", supervisor.address],
                stdin=io.StringIO(script),
                out=out,
            )
            text = out.getvalue()
            assert status == 0
            assert "/home/a" in text
            assert "epoch 1, 2 shards" in text
            assert "s0: up" in text and "s1: up" in text
            assert "reachable: 2" in text
            assert "--- s0:" in text and "--- s1:" in text

            out = io.StringIO()
            status = top_main(
                ["--cluster", supervisor.address, "--iterations", "1"],
                out=out,
            )
            assert status == 0
            assert "cluster epoch 1  shards 2  reachable 2" in out.getvalue()


class TestCli:
    def test_main_boots_prints_and_stops_on_sigterm(self, tmp_path):
        import os
        import signal
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        port = free_port()
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cluster.serve",
                str(tmp_path), "--shards", "2", "--port", str(port),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            assert "cluster of 2 shards" in banner
            remote = RemoteCoordinator(TcpTransport("127.0.0.1", port))
            assert remote.epoch() == 1
            remote.close()
        finally:
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
