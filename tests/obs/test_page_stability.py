"""Metrics page stability: digests of every page over seeded registries.

Scrapers, dashboards and the benchmark ledger parse these pages, so
their bytes are a contract just like the pickle wire format.  Each test
renders one output over the same seeded set of four-node clusters and
pins its SHA-256; if one fails, a page changed — a label reordered, a
float printed differently, a quantile estimated another way.  Change a
page only on purpose, and then re-pin its digest here.
"""

from __future__ import annotations

import hashlib
import json
import random
from types import SimpleNamespace

import pytest

from repro.nameserver.management import ManagementService
from repro.obs.aggregate import MetricsAggregator
from repro.obs.export import to_json
from repro.obs.metrics import DEFAULT_BUCKETS, SIZE_BUCKETS, MetricsRegistry

SEEDS = range(40)
QUANTILES = (0.0, 0.01, 0.5, 0.9, 0.99, 1.0)
NODES = (("r1", "s0"), ("r2", "s0"), ("r3", "s1"), ("r4", "s1"))

_LABELS = ("method", "peer", "zone", "durability_mode", "alpha")
_VALUES = ("lookup", "bind", "a\"b", "back\\slash", "new\nline", "ünï", "", "7")
_HELPS = ("", "latency of one thing", "count \"quoted\"")


def _schema(rng: random.Random) -> list[tuple]:
    families = []
    for index in range(rng.randint(0, 6)):
        kind = rng.choice(("counter", "gauge", "histogram"))
        labelnames = tuple(rng.sample(_LABELS, rng.randint(0, 3)))
        buckets = None
        if kind == "histogram":
            buckets = rng.choice(
                (
                    DEFAULT_BUCKETS,
                    SIZE_BUCKETS,
                    (0.5,),
                    tuple(sorted(rng.sample(range(1, 200), 4))),
                )
            )
        families.append(
            (f"{kind[0]}{index}_total", kind, rng.choice(_HELPS), labelnames,
             buckets)
        )
    return families


def _fill(registry: MetricsRegistry, family_spec: tuple, rng: random.Random):
    name, kind, help_text, labelnames, buckets = family_spec
    if kind == "histogram":
        family = registry.histogram(name, help_text, labelnames, buckets)
    else:
        family = getattr(registry, kind)(name, help_text, labelnames)
    top = float(buckets[-1]) if buckets else 1.0
    for _ in range(rng.randint(1, 4)):
        series = family.labels(*(rng.choice(_VALUES) for _ in labelnames))
        if kind == "counter":
            series.inc(rng.choice((0, 1, 0.125, rng.uniform(0, 100))))
        elif kind == "gauge":
            series.set(rng.choice((0, -3, 2.5, rng.uniform(-50, 50))))
        else:
            for _ in range(rng.randint(0, 30)):
                series.observe(
                    rng.choice(
                        (
                            0.0,
                            float(rng.choice(buckets)),
                            rng.uniform(0, top),
                            rng.uniform(0, 2 * top),
                            rng.expovariate(4.0 / top),
                        )
                    )
                )


def seeded_cluster(seed: int) -> dict[str, MetricsRegistry]:
    """Four node registries sharing a seeded family schema.

    Each node fills a random subset of the families with its own
    observations; a node may declare one family with another kind, as a
    node mid-upgrade would, which the cluster merge must skip.
    """
    rng = random.Random(seed)
    schema = _schema(rng)
    registries = {}
    for replica_id, _shard in NODES:
        registry = MetricsRegistry()
        for spec in schema:
            if rng.random() < 0.2:
                continue
            if rng.random() < 0.05:
                kind = "gauge" if spec[1] != "gauge" else "counter"
                spec = (spec[0], kind, spec[2], spec[3], None)
            _fill(registry, spec, rng)
        registries[replica_id] = registry
    return registries


def _aggregator(registries: dict[str, MetricsRegistry]) -> MetricsAggregator:
    nodes = {
        replica_id: SimpleNamespace(metrics=registries[replica_id].snapshot)
        for replica_id in registries
    }
    return MetricsAggregator(
        lambda: [(replica_id, shard, replica_id) for replica_id, shard in NODES],
        nodes.__getitem__,
    )


def _node_page(registry: MetricsRegistry) -> str:
    """The node's Prometheus page, as the ``metrics_text`` RPC serves it."""
    server = SimpleNamespace(db=SimpleNamespace(registry=registry))
    return ManagementService(server).metrics_text()


def _quantiles(registry: MetricsRegistry) -> str:
    lines = []
    for family in registry.families():
        if family.kind != "histogram":
            continue
        for series in family.series():
            lines.append(
                " ".join(repr(series.quantile(q)) for q in QUANTILES)
            )
    return "\n".join(lines)


def outputs(seed: int) -> dict[str, str]:
    """Every pinned output for one seeded cluster, keyed by page."""
    registries = seeded_cluster(seed)
    aggregator = _aggregator(registries)
    nodes = [registries[replica_id] for replica_id, _shard in NODES]
    return {
        "node_page": "".join(_node_page(r) for r in nodes),
        "node_json": "\n".join(to_json(r, indent=2) for r in nodes),
        "cluster_page": aggregator.prometheus_text(),
        "cluster_json": json.dumps(aggregator.scrape(), sort_keys=True),
        "quantiles": "\n".join(_quantiles(r) for r in nodes),
    }


def digests(seeds) -> dict[str, str]:
    hashes: dict = {}
    for seed in seeds:
        for page, text in outputs(seed).items():
            hashes.setdefault(page, hashlib.sha256()).update(text.encode())
    return {page: digest.hexdigest() for page, digest in hashes.items()}


PINNED = {
    "node_page": (
        "5b5ebf7b62bbb0dcaecf326502557d67"
        "861aa9002961f8b4fae18225c0a1bd61"
    ),
    "node_json": (
        "d8c5a30a65e9ecb655d4efe94b4d5c7c"
        "a0304567220c94ddd2d92bc3bd171a7d"
    ),
    "cluster_page": (
        "070bacc08e49e3eed8ae61ae3cb354ad"
        "978c09eb9971b2463946115d058df638"
    ),
    "cluster_json": (
        "04caa710830ab04f118aee2d9a399dfe"
        "77b454fb61a849136f7d90c3f1241b3c"
    ),
    "quantiles": (
        "ebb781d2a119a88b1314eefaa405aca5"
        "b4e1b470a823c65c69845e75954c0617"
    ),
}


@pytest.fixture(scope="module")
def computed() -> dict[str, str]:
    return digests(SEEDS)


@pytest.mark.parametrize("page", sorted(PINNED))
def test_page_digest_pinned(computed, page):
    assert computed[page] == PINNED[page]


def test_seeded_set_covers_the_interesting_cases():
    text = "".join(outputs(seed)["node_page"] for seed in SEEDS)
    assert 'le="+Inf"' in text
    assert '\\"' in text and "\\\\" in text and "\\n" in text
    cluster = "".join(outputs(seed)["cluster_page"] for seed in SEEDS)
    assert 'shard="s0"' in cluster and 'shard="s1"' in cluster
