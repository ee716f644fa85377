"""Seeded inputs for the ledger benchmark: names, values and op streams.

Everything the benchmark feeds the program is generated here from the
``--seed`` argument and nothing else.  The generator deliberately does
not import ``repro.sim.workload`` (or anything else under ``src/``): a
change to the program must not be able to change the benchmark's inputs.
``test_inputs.py`` pins a digest of the seed-1987 stream.

Names are three-component paths ``(org, kind, leaf)``.  The first
component is what the cluster shards on, so a population of 2,000 names
is spread over a few hundred of them.  Values are small typed records
whose ``data`` string is ``VALUE_BYTES`` long and unique per (name,
version): the pickle package deduplicates equal strings, and a repeated
filler would shrink the checkpoint far below the stated database size.
The ``created`` field carries the version, which is what lets the output
check decide whether a value read concurrently with a bind is one the
client could legally have seen.
"""

from __future__ import annotations

import hashlib
import random

VALUE_BYTES = 400
BIND_SHARE = 0.2
#: op streams are generated as one block of this many ops and replayed
#: cyclically, so the generator costs nothing inside a timed section
STREAM_BLOCK = 1 << 16

_ORGS = ("dec", "cmu", "mit", "berkeley", "xerox", "bell", "sri", "parc")
_KINDS = ("hosts", "users", "printers", "volumes", "services")
_FIRST = (
    "andrew", "michael", "edward", "barbara", "butler", "roger",
    "susan", "david", "karen", "robert", "nancy", "james",
)
_LAST = (
    "birrell", "jones", "wobber", "lampson", "needham", "schroeder",
    "levin", "gray", "liskov", "satya", "terry", "swinehart",
)

Path = tuple[str, str, str]


class Inputs:
    """One seeded name population and the streams drawn over it."""

    def __init__(self, seed: int, count: int, first_components: int = 320) -> None:
        self.seed = seed
        rng = random.Random(f"ledger/{seed}/names")
        seen: set[Path] = set()
        self.paths: list[Path] = []
        while len(self.paths) < count:
            k = rng.randrange(first_components)
            path = (
                f"{_ORGS[k % len(_ORGS)]}{k:03d}",
                rng.choice(_KINDS),
                f"{rng.choice(_FIRST)}-{rng.choice(_LAST)}-{rng.randrange(100_000)}",
            )
            if path not in seen:
                seen.add(path)
                self.paths.append(path)
        self._joined = ["/".join(path) for path in self.paths]

    def __len__(self) -> int:
        return len(self.paths)

    def value(self, idx: int, version: int) -> dict:
        """The record bound at name ``idx`` by its ``version``-th bind."""
        filler = f"{self._joined[idx]}#{version}|"
        data = (filler * (VALUE_BYTES // len(filler) + 1))[:VALUE_BYTES]
        return {"owner": self.paths[idx][2], "created": version, "data": data}

    def user_bytes(self, idx: int) -> int:
        """Bytes of path and value a bind of name ``idx`` carries.

        The same for every version of a name: the strings have fixed
        lengths and the version is counted as one 8-byte integer.
        """
        path = self.paths[idx]
        return sum(len(part) for part in path) + len(path[2]) + 8 + VALUE_BYTES

    def stream(
        self, stream_id: str, indices: list[int], bind_share: float = BIND_SHARE
    ) -> list[tuple[bool, int]]:
        """One block of ``(is_bind, name index)`` ops, uniform over ``indices``."""
        rng = random.Random(f"ledger/{self.seed}/{stream_id}")
        span = len(indices)
        return [
            (rng.random() < bind_share, indices[rng.randrange(span)])
            for _ in range(STREAM_BLOCK)
        ]

    def by_first_component(self) -> dict[str, list[int]]:
        """Name indices grouped by the component the cluster shards on."""
        groups: dict[str, list[int]] = {}
        for idx, path in enumerate(self.paths):
            groups.setdefault(path[0], []).append(idx)
        return groups


def digest(seed: int) -> str:
    """A fingerprint of what ``seed`` generates (names, values, one stream)."""
    inputs = Inputs(seed, 2000)
    h = hashlib.sha256()
    h.update(repr(inputs.paths).encode())
    for idx in range(0, 2000, 97):
        h.update(repr(sorted(inputs.value(idx, 3).items())).encode())
        h.update(str(inputs.user_bytes(idx)).encode())
    h.update(repr(inputs.stream("embedded_relaxed/0", list(range(2000)))).encode())
    return h.hexdigest()
