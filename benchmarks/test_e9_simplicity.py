"""E9 — simplicity, measured as the paper measures it (section 6).

    The implementation of the checkpoint and log facilities (excluding
    the pickle mechanism) occupies 638 source lines.  The code to
    implement the name server's database semantics occupies 1404 source
    lines. […] The automatically generated RPC stub modules for client
    access to the name server occupy 663 source lines in the server and
    622 source lines in the client.  The (pre-existing) pickle package
    occupies 1648 source lines.

We census the corresponding modules of this reproduction.  Python is
denser than Modula-2+, so our counts land below the paper's; the claim
being checked is the *structure* of the comparison: the checkpoint/log
package is small, the name server semantics are of the same order, and
the pickle package is the largest single reusable piece.

Code size is also a metric of this repository in its own right (ROADMAP
north star 2): the same counter censuses every package under
``src/repro`` and the whole tree, and those figures go to the trajectory
with direction "lower" — growing the tree is a recorded decision.
"""

from __future__ import annotations

import os
import re

from conftest import once
from repro.obs.regress import metric

_SRC = os.path.join(os.path.dirname(__file__), "..", "src", "repro")

#: paper component -> (paper source lines, our module files)
COMPONENTS = {
    "checkpoint+log package": (
        638,
        [
            "core/log.py",
            "core/checkpoint.py",
            "core/version.py",
            "core/recovery.py",
            "core/database.py",
            "core/policy.py",
        ],
    ),
    "name server semantics": (
        1404,
        [
            "nameserver/tree.py",
            "nameserver/operations.py",
            "nameserver/server.py",
            "nameserver/errors.py",
        ],
    ),
    "pickle package": (
        1648,
        [
            "pickles/wire.py",
            "pickles/encode.py",
            "pickles/decode.py",
            "pickles/registry.py",
            "pickles/errors.py",
        ],
    ),
    "RPC stubs (generated)": (
        663 + 622,
        [
            "rpc/marshal.py",
            "rpc/interface.py",
            "rpc/client.py",
            "rpc/server.py",
        ],
    ),
    "replication & consistency": (
        0,  # the paper reports two programmer-months, not lines
        [
            "nameserver/replication.py",
            "nameserver/client.py",
        ],
    ),
}


def _count_code_lines(path: str) -> int:
    """Source lines: non-blank, non-comment, outside docstrings."""
    lines = 0
    in_doc = False
    with open(path, encoding="utf-8") as f:
        for raw in f:
            stripped = raw.strip()
            if in_doc:
                if stripped.endswith('"""') or stripped.endswith("'''"):
                    in_doc = False
                continue
            if not stripped or stripped.startswith("#"):
                continue
            if stripped.startswith('"""') or stripped.startswith("'''"):
                if not (len(stripped) > 3 and stripped.endswith(stripped[:3])):
                    in_doc = True
                continue
            lines += 1
    return lines


def _count_packages() -> dict[str, int]:
    """Code lines of each package directly under ``src/repro``.

    Modules at the top level of the tree are counted as package ``repro``.
    """
    packages: dict[str, int] = {}
    for directory, _subdirs, files in os.walk(_SRC):
        relative = os.path.relpath(directory, _SRC)
        package = "repro" if relative == "." else relative.split(os.sep)[0]
        for name in files:
            if name.endswith(".py"):
                packages[package] = packages.get(package, 0) + _count_code_lines(
                    os.path.join(directory, name)
                )
    return dict(sorted(packages.items()))


def test_e9_code_size_census(benchmark, report):
    census = {}
    packages = {}

    def run():
        for component, (paper_lines, files) in COMPONENTS.items():
            total = sum(
                _count_code_lines(os.path.join(_SRC, relative))
                for relative in files
            )
            census[component] = (paper_lines, total)
        packages.update(_count_packages())
        return census

    once(benchmark, run)

    ours = {name: mine for name, (_paper, mine) in census.items()}
    tree = sum(packages.values())
    # Structural claims:
    assert ours["checkpoint+log package"] < 1150, "the core must stay small"
    assert ours["pickle package"] > 0.3 * ours["name server semantics"]
    # Everything exists and is non-trivial.
    assert all(count > 50 for count in ours.values())

    rows = []
    for component, (paper_lines, mine) in census.items():
        paper_text = f"{paper_lines:5d}" if paper_lines else "  n/a"
        rows.append(f"{component:28s} paper {paper_text} lines   ours {mine:5d}")
    rows.append(
        "(Python vs Modula-2+: expect ours lower; the shape — a small core, "
        "a reusable pickle package — is the claim)"
    )
    rows.append(f"whole tree (src/repro){tree:36d}")
    rows.extend(f"  {package + '/':28s}{count:29d}" for package, count in packages.items())
    report(
        "E9 source-line census (paper section 6)",
        rows,
        data={"tree": tree, "packages": packages},
        metrics={
            "e9_core_source_lines": metric(ours["checkpoint+log package"], "lines"),
            "e9_tree_source_lines": metric(tree, "lines"),
            **{
                f"e9_pkg_{package}_source_lines": metric(count, "lines")
                for package, count in packages.items()
            },
            "e9_pickle_source_lines": metric(
                ours["pickle package"], "lines", direction="none"
            ),
            "e9_nameserver_source_lines": metric(
                ours["name server semantics"], "lines", direction="none"
            ),
        },
    )


def test_e9_update_protocol_is_written_once(benchmark, report):
    """ROADMAP north star 2, structurally: ``Database`` spells the
    explore → log → apply protocol out once, and no timing, tracing or
    cost-model plumbing runs through it (that hangs off the seam in
    ``core/stats.py``)."""

    def run():
        with open(os.path.join(_SRC, "core", "database.py"), encoding="utf-8") as f:
            return f.read()

    source = once(benchmark, run)
    for token in ("op.check(", "op.apply(", "LogWriter("):
        assert source.count(token) == 1, f"{token!r} occurs {source.count(token)}x"
    for token in ("charge_", "Stopwatch", "child_span"):
        assert token not in source, f"instrumentation plumbing found: {token}"
    report(
        "E9c one update protocol",
        [
            "core/database.py: one precondition check, one apply, one log "
            "writer construction; 0 cost-model, stopwatch or span calls"
        ],
    )


def _read_tree(root: str) -> str:
    """Every Python source under ``root``, concatenated."""
    sources = []
    for directory, _subdirs, files in os.walk(root):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), encoding="utf-8") as f:
                    sources.append(f.read())
    return "\n".join(sources)


def test_e9_sweep_core_is_written_once(benchmark, report):
    """ROADMAP item 3, structurally: the model checkers are scenarios on
    one core (``sim/sweep.py``), so ``sim/`` parses one command line,
    judges a result one way and has one result class, and the whole tree
    has one simulated machine halt."""

    sim, tree = once(
        benchmark, lambda: (_read_tree(os.path.join(_SRC, "sim")), _read_tree(_SRC))
    )
    counts = {
        "ArgumentParser(": sim.count("ArgumentParser("),
        "def assert_clean": sim.count("def assert_clean"),
        "class …Result": len(re.findall(r"^\s*class \w*Result\b", sim, re.MULTILINE)),
    }
    for token, count in counts.items():
        assert count == 1, f"sim/ has {token!r} {count}x"
    halts = tree.count("class SimulatedCrash")
    assert halts == 1, f"src/repro has class SimulatedCrash {halts}x"
    report(
        "E9d one sweep core",
        [
            "sim/: " + ", ".join(f"{token} x{count}" for token, count in counts.items()),
            f"src/repro: class SimulatedCrash x{halts}",
        ],
    )


def test_e9_one_failover_client_one_front_end(benchmark, report):
    """ROADMAP item 3, structurally: the product has one TCP server
    (``rpc/eventloop.py``; the thread-per-connection rival lives in
    ``baselines/``) and one client-side view of replica lag (the
    cluster router's), with the second paths deleted outright."""
    rpc, tree = once(
        benchmark, lambda: (_read_tree(os.path.join(_SRC, "rpc")), _read_tree(_SRC))
    )
    counts = {
        "rpc/: socket.create_server(": rpc.count("socket.create_server("),
        "src/repro: def _lag_of": tree.count("def _lag_of"),
    }
    for token, count in counts.items():
        assert count == 1, f"{token} occurs {count}x"
    for gone in ("ResilientReplicaGroup", "TcpServerThread"):
        assert gone not in tree, f"src/repro still names {gone}"
    report(
        "E9e one failover client, one TCP front end",
        [
            ", ".join(f"{token} x{count}" for token, count in counts.items()),
            "src/repro: ResilientReplicaGroup x0, TcpServerThread x0",
        ],
    )


def test_e9_one_retention_step(benchmark, report):
    """ROADMAP item 1, structurally: retention of superseded files (the
    delete, the audit archive, the rename) is one function that runs
    after the commit point, at a checkpoint and at a restart, with no
    ``Database`` subclass or pre-commit hook beside it."""
    tree = once(benchmark, lambda: _read_tree(_SRC))
    for gone in (
        "_before_log_reset",
        "MirroringDatabase",
        "ArchivingDatabase",
        "restore_from_mirror",
        "cleanup_after_restart",
    ):
        assert gone not in tree, f"src/repro still names {gone}"
    steps = tree.count("def finalize_switch")
    assert steps == 1, f"src/repro has def finalize_switch {steps}x"
    report(
        "E9f one retention step",
        [
            f"src/repro: def finalize_switch x{steps}; _before_log_reset, "
            "ArchivingDatabase, MirroringDatabase, restore_from_mirror, "
            "cleanup_after_restart x0"
        ],
    )


def test_e9_one_metrics_endpoint(benchmark, report):
    """ROADMAP north star 4, structurally: a node and the coordinator
    serve metrics through one HTTP server and one renderer, cluster
    rollups estimate quantiles with the node's estimator, and one
    dial-call-close helper serves each package."""
    obs, cluster, tree = once(
        benchmark,
        lambda: (
            _read_tree(os.path.join(_SRC, "obs")),
            _read_tree(os.path.join(_SRC, "cluster")),
            _read_tree(_SRC),
        ),
    )
    counts = {
        "src/repro: ThreadingHTTPServer(": tree.count("ThreadingHTTPServer("),
        "obs/: def _close_quietly": obs.count("def _close_quietly"),
        "cluster/: def _close_quietly": cluster.count("def _close_quietly"),
    }
    for token, count in counts.items():
        assert count == 1, f"{token} occurs {count}x"
    gone = (
        "ClusterMetricsExporter",
        "snapshot_to_prometheus",
        "quantile_from_buckets",
        "_cum_at",
    )
    for name in gone:
        assert name not in tree, f"src/repro still names {name}"
    report(
        "E9g one metrics endpoint",
        [
            ", ".join(f"{token} x{count}" for token, count in counts.items()),
            "src/repro: " + ", ".join(gone) + " x0",
        ],
    )


def test_e9_one_way_back_from_a_media_fault(benchmark, report):
    """PAPER.md point 7, structurally: hard errors are repaired "by
    restoring from another replica rather than by local redundancy", so
    a degraded database writes no spare copy of itself, and the one
    black-box dump taken on a node's behalf is the cluster supervisor's
    before it kills a shard."""
    cluster, tree = once(
        benchmark,
        lambda: (_read_tree(os.path.join(_SRC, "cluster")), _read_tree(_SRC)),
    )
    gone = (
        "spare_fs",
        "spare_directory",
        "--spare-dir",
        "emergency_snapshot",
        "_emergency_preserve",
        "db_emergency_checkpoints_total",
        "holding_update_lock",
    )
    for name in gone:
        assert name not in tree, f"src/repro still names {name}"
    dumps = tree.count("def _dump_blackbox")
    assert dumps == cluster.count("def _dump_blackbox") == 1, (
        f"src/repro has def _dump_blackbox {dumps}x"
    )
    report(
        "E9h one way back from a media fault",
        [
            "src/repro: " + ", ".join(gone) + " x0",
            f"src/repro: def _dump_blackbox x{dumps}, in cluster/",
        ],
    )


def test_e9_stub_generation_is_automatic(benchmark, report):
    """The paper's stubs were compiler-generated; ours are generated at
    run time — zero hand-written marshalling lines in the name server."""
    import inspect

    from repro.nameserver import NAMESERVER_INTERFACE, server as server_module

    def run():
        source = inspect.getsource(server_module)
        return source

    source = once(benchmark, run)
    for token in ("encode_varint", "to_bytes", "struct.pack"):
        assert token not in source, f"hand-written marshalling found: {token}"
    methods = len(NAMESERVER_INTERFACE.methods)
    report(
        "E9b generated stubs",
        [
            f"{methods} methods marshalled from declarations; "
            "0 hand-written byte-handling lines in the name server"
        ],
    )
