"""The shard map: an epoch-numbered assignment of hash ranges to shards.

A name's placement is decided by its **first path component** — the
paper's trees make the top-level entry (a volume, a service, a tenant)
the natural unit of locality, and it keeps every subtree operation
single-shard.  The component hashes through
:func:`repro.core.sharding.default_hash` into a 32-bit space that the map
tiles with half-open ranges ``[lo, hi)``, consistent-hashing style: a
split carves one range in two and moves one piece, leaving every other
key's placement untouched.

Maps are immutable values ordered by ``epoch``.  The coordinator owns
the authoritative copy (persisted through the version-switch idiom);
shards and clients hold cached copies and converge by comparing epochs —
a ``WrongShard`` redirect carries the newer map, so staleness heals on
first contact.

Each shard entry carries a **replica set**: an ordered
tuple of ``(replica_id, address)`` pairs whose first entry is the
primary (the only replica that acks writes) and whose tail are
followers (read failover targets, promotion candidates).  A primary
change is just another epoch bump — :meth:`ShardMap.with_primary`
reorders the set — so the same redirect/install machinery that heals
stale range placement also heals stale primaries.  A shard given as a
bare address is a replica set of one: the shard itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.errors import ShardMapError
from repro.core.sharding import HASH_SPACE, default_hash

#: wire/disk format tag for serialized maps (replica-set aware)
SHARDMAP_FORMAT = "repro-shardmap-v2"


@dataclass(frozen=True)
class ReplicaInfo:
    """One replica of a shard: its id and RPC endpoint."""

    replica_id: str
    address: str  # "host:port"


@dataclass(frozen=True)
class ShardInfo:
    """One shard: its id, RPC endpoint, and the ranges it owns.

    ``ranges`` is a tuple of half-open ``(lo, hi)`` pairs; a shard with
    no ranges is legal — a freshly added node owns nothing until a split
    migrates a range onto it.

    ``replicas`` is the ordered replica set: first the primary, then the
    followers.  ``address`` always equals the primary's address (the
    endpoint pre-replication clients keep dialing).  An empty tuple is
    normalised at map construction into the single implicit replica
    ``(shard_id, address)``.
    """

    shard_id: str
    address: str  # "host:port" — the primary's endpoint
    ranges: tuple[tuple[int, int], ...] = ()
    replicas: tuple[ReplicaInfo, ...] = ()

    @property
    def primary(self) -> ReplicaInfo:
        return self.replica_set[0]

    @property
    def followers(self) -> tuple[ReplicaInfo, ...]:
        return self.replica_set[1:]

    @property
    def replica_set(self) -> tuple[ReplicaInfo, ...]:
        """The replicas, never empty: defaults to the shard itself."""
        if self.replicas:
            return self.replicas
        return (ReplicaInfo(self.shard_id, self.address),)

    def replica(self, replica_id: str) -> ReplicaInfo:
        for replica in self.replica_set:
            if replica.replica_id == replica_id:
                return replica
        raise ShardMapError(
            f"no replica {replica_id!r} in shard {self.shard_id!r}"
        )

    def role_of(self, replica_id: str) -> str:
        """``"primary"`` or ``"follower"`` for a member of the set."""
        self.replica(replica_id)  # must exist
        return (
            "primary"
            if self.primary.replica_id == replica_id
            else "follower"
        )

    def owns(self, hash_value: int) -> bool:
        return any(lo <= hash_value < hi for lo, hi in self.ranges)

    def span(self) -> int:
        return sum(hi - lo for lo, hi in self.ranges)


class ShardMap:
    """An immutable epoch-numbered placement of the hash space."""

    def __init__(self, epoch: int, shards: list[ShardInfo]) -> None:
        self.epoch = int(epoch)
        # Normalise: every shard carries an explicit replica set, so a
        # map built pre-replication equals its own wire round trip.
        self.shards = tuple(
            shard if shard.replicas else ShardInfo(
                shard.shard_id,
                shard.address,
                shard.ranges,
                (ReplicaInfo(shard.shard_id, shard.address),),
            )
            for shard in shards
        )
        self._validate()

    def _validate(self) -> None:
        if self.epoch < 1:
            raise ShardMapError(f"epoch must be >= 1, not {self.epoch}")
        ids = [shard.shard_id for shard in self.shards]
        if len(set(ids)) != len(ids):
            raise ShardMapError(f"duplicate shard ids in {ids}")
        if not self.shards:
            raise ShardMapError("a shard map needs at least one shard")
        replica_ids: list[str] = []
        for shard in self.shards:
            for replica in shard.replica_set:
                replica_ids.append(replica.replica_id)
            if shard.address != shard.primary.address:
                raise ShardMapError(
                    f"shard {shard.shard_id!r} address {shard.address!r} "
                    f"is not its primary's ({shard.primary.address!r})"
                )
        if len(set(replica_ids)) != len(replica_ids):
            raise ShardMapError(
                f"duplicate replica ids across the map in {replica_ids}"
            )
        spans = []
        for shard in self.shards:
            for lo, hi in shard.ranges:
                if not (0 <= lo < hi <= HASH_SPACE):
                    raise ShardMapError(
                        f"bad range [{lo}, {hi}) on {shard.shard_id}"
                    )
                spans.append((lo, hi, shard.shard_id))
        spans.sort()
        cursor = 0
        for lo, hi, shard_id in spans:
            if lo > cursor:
                raise ShardMapError(
                    f"gap [{cursor}, {lo}) — no shard owns these keys"
                )
            if lo < cursor:
                raise ShardMapError(
                    f"overlap at {lo} ({shard_id} and a lower range)"
                )
            cursor = hi
        if cursor != HASH_SPACE:
            raise ShardMapError(
                f"gap [{cursor}, {HASH_SPACE}) at the top of the hash space"
            )

    # -- lookups ------------------------------------------------------------

    def shard_for_hash(self, hash_value: int) -> ShardInfo:
        for shard in self.shards:
            if shard.owns(hash_value):
                return shard
        raise ShardMapError(f"no shard owns hash {hash_value}")  # unreachable

    def owner_of(self, component: str) -> ShardInfo:
        """The shard owning a name whose first path component is given."""
        return self.shard_for_hash(default_hash(component))

    def shard(self, shard_id: str) -> ShardInfo:
        for shard in self.shards:
            if shard.shard_id == shard_id:
                return shard
        raise ShardMapError(f"no shard {shard_id!r} in epoch {self.epoch}")

    def shard_of_replica(self, replica_id: str) -> ShardInfo:
        """The shard whose replica set contains ``replica_id``."""
        for shard in self.shards:
            if any(
                replica.replica_id == replica_id
                for replica in shard.replica_set
            ):
                return shard
        raise ShardMapError(
            f"no shard has replica {replica_id!r} in epoch {self.epoch}"
        )

    def ids(self) -> list[str]:
        return [shard.shard_id for shard in self.shards]

    def addresses(self) -> set[str]:
        """Every replica endpoint the map names (cache-eviction set)."""
        return {
            replica.address
            for shard in self.shards
            for replica in shard.replica_set
        }

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ShardMap)
            and self.epoch == other.epoch
            and self.shards == other.shards
        )

    def __repr__(self) -> str:
        owners = ", ".join(
            f"{s.shard_id}@{s.address}x{len(s.ranges)}" for s in self.shards
        )
        return f"ShardMap(epoch={self.epoch}, [{owners}])"

    # -- evolution ----------------------------------------------------------

    @classmethod
    def initial(cls, addresses: dict) -> "ShardMap":
        """Epoch 1: equal ranges over sorted shard ids.

        Each value of ``addresses`` is either a single ``"host:port"``
        string (one implicit replica) or a list of ``(replica_id,
        address)`` pairs whose first entry becomes the primary.
        """
        from repro.core.sharding import shard_ranges

        ids = sorted(addresses)
        ranges = shard_ranges(len(ids))
        shards = []
        for i, shard_id in enumerate(ids):
            replicas = _replica_tuple(shard_id, addresses[shard_id])
            shards.append(ShardInfo(
                shard_id, replicas[0].address, (ranges[i],), replicas
            ))
        return cls(1, shards)

    def with_shard(
        self, shard_id: str, address: str | list | tuple
    ) -> "ShardMap":
        """Epoch+1 with a new, empty shard added (a split target)."""
        replicas = _replica_tuple(shard_id, address)
        return ShardMap(
            self.epoch + 1,
            list(self.shards)
            + [ShardInfo(shard_id, replicas[0].address, (), replicas)],
        )

    def with_primary(self, shard_id: str, replica_id: str) -> "ShardMap":
        """Epoch+1 with ``replica_id`` promoted to the shard's primary.

        The placement (ranges) is untouched — only the replica order and
        the shard's advertised address change.  Promoting the current
        primary is an error: a no-op epoch bump would make clients spin.
        """
        shard = self.shard(shard_id)
        promoted = shard.replica(replica_id)
        if shard.primary.replica_id == replica_id:
            raise ShardMapError(
                f"{replica_id!r} is already the primary of {shard_id!r}"
            )
        reordered = (promoted,) + tuple(
            replica
            for replica in shard.replica_set
            if replica.replica_id != replica_id
        )
        return self._with_replicas(shard_id, reordered)

    def with_replica(
        self, shard_id: str, replica_id: str, address: str
    ) -> "ShardMap":
        """Epoch+1 adding (or re-addressing) a follower of ``shard_id``.

        A re-provisioned node rejoins through this: same replica id, its
        new endpoint, always at the back of the set (it must catch up
        before it is promotion-worthy).  Re-addressing the primary is an
        error — promote first, then re-admit the old primary.
        """
        shard = self.shard(shard_id)
        if shard.primary.replica_id == replica_id:
            raise ShardMapError(
                f"cannot re-address primary {replica_id!r} of "
                f"{shard_id!r}; promote a follower first"
            )
        kept = tuple(
            replica
            for replica in shard.replica_set
            if replica.replica_id != replica_id
        )
        return self._with_replicas(
            shard_id, kept + (ReplicaInfo(replica_id, address),)
        )

    def _with_replicas(
        self, shard_id: str, replicas: tuple[ReplicaInfo, ...]
    ) -> "ShardMap":
        shards = [
            ShardInfo(
                shard.shard_id, replicas[0].address, shard.ranges, replicas
            )
            if shard.shard_id == shard_id
            else shard
            for shard in self.shards
        ]
        return ShardMap(self.epoch + 1, shards)

    def split(self, donor_id: str, target_id: str) -> "ShardMap":
        """Epoch+1 moving the upper half of the donor's widest range.

        Returns the new map plus nothing else — the *data* move is the
        migration machinery's job; this is only the placement arithmetic.
        """
        moved = self.split_range(donor_id)
        return self.with_range_moved(donor_id, target_id, moved)

    def split_range(self, donor_id: str) -> tuple[int, int]:
        """The half-range a split of ``donor_id`` would move."""
        donor = self.shard(donor_id)
        if not donor.ranges:
            raise ShardMapError(f"shard {donor_id!r} owns nothing to split")
        lo, hi = max(donor.ranges, key=lambda r: r[1] - r[0])
        mid = (lo + hi) // 2
        if mid == lo:
            raise ShardMapError(f"range [{lo}, {hi}) is too narrow to split")
        return (mid, hi)

    def with_range_moved(
        self, donor_id: str, target_id: str, moved: tuple[int, int]
    ) -> "ShardMap":
        """Epoch+1 with ``moved`` transferred from donor to target."""
        mlo, mhi = moved
        donor = self.shard(donor_id)
        self.shard(target_id)  # must exist
        if (mlo, mhi) not in [tuple(r) for r in donor.ranges]:
            # The moved range must be an exact piece of one donor range.
            for lo, hi in donor.ranges:
                if lo <= mlo < mhi <= hi:
                    break
            else:
                raise ShardMapError(
                    f"{donor_id!r} does not own [{mlo}, {mhi})"
                )
        shards = []
        for shard in self.shards:
            if shard.shard_id == donor_id:
                kept: list[tuple[int, int]] = []
                for lo, hi in shard.ranges:
                    if lo <= mlo < mhi <= hi:
                        if lo < mlo:
                            kept.append((lo, mlo))
                        if mhi < hi:
                            kept.append((mhi, hi))
                    else:
                        kept.append((lo, hi))
                shards.append(ShardInfo(
                    shard.shard_id, shard.address, tuple(kept),
                    shard.replicas,
                ))
            elif shard.shard_id == target_id:
                merged = sorted(shard.ranges + ((mlo, mhi),))
                shards.append(ShardInfo(
                    shard.shard_id, shard.address, tuple(merged),
                    shard.replicas,
                ))
            else:
                shards.append(shard)
        return ShardMap(self.epoch + 1, shards)

    # -- serialization -------------------------------------------------------

    def to_wire(self) -> dict:
        """A JSON-safe dict (also the on-disk schema, see FORMATS.md)."""
        return {
            "format": SHARDMAP_FORMAT,
            "epoch": self.epoch,
            "shards": [
                {
                    "id": shard.shard_id,
                    "address": shard.address,
                    "ranges": [[lo, hi] for lo, hi in shard.ranges],
                    "replicas": [
                        {"id": r.replica_id, "address": r.address}
                        for r in shard.replica_set
                    ],
                }
                for shard in self.shards
            ],
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "ShardMap":
        """Parse what :meth:`to_wire` wrote; any other format is rejected."""
        if payload.get("format") != SHARDMAP_FORMAT:
            raise ShardMapError(
                f"unknown shard map format {payload.get('format')!r}"
            )
        return cls(payload["epoch"], [
            ShardInfo(
                entry["id"],
                entry["address"],
                tuple((int(lo), int(hi)) for lo, hi in entry["ranges"]),
                tuple(
                    ReplicaInfo(r["id"], r["address"])
                    for r in entry["replicas"]
                ),
            )
            for entry in payload["shards"]
        ])


def _replica_tuple(shard_id: str, spec) -> tuple[ReplicaInfo, ...]:
    """Normalise an address spec into a replica tuple (primary first)."""
    if isinstance(spec, str):
        return (ReplicaInfo(shard_id, spec),)
    replicas = tuple(
        ReplicaInfo(replica_id, address) for replica_id, address in spec
    )
    if not replicas:
        raise ShardMapError(f"shard {shard_id!r} needs at least one replica")
    return replicas
