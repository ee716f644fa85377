"""PickleWrite: strongly typed value → bytes.

The encoder walks the object graph the way the paper's pickle package
walks the garbage collector's runtime type structures: fully automatically,
identifying "the occurrences of addresses in the structure" so that shared
sub-structures and cycles are preserved.  Our analogue of an address is the
object's identity; the *n*-th pickled heap object is assigned swizzle index
*n* and later occurrences are emitted as one-byte-plus-varint back
references.

Mutable containers (lists, sets, dicts, records) are entered into the
swizzle table *before* their children are encoded, so cycles terminate.
Immutable containers (tuples, frozensets) are entered *after* — a tuple
reached again through a cycle in its own children is re-encoded, yielding
an equal but not identical tuple on decode, the same compromise the
standard library makes.

Strings and byte strings are deduplicated by value: a log full of updates
naming the same fields costs the field names once.
"""

from __future__ import annotations

from repro.pickles.errors import NestingTooDeep, UnpickleableType
from repro.pickles.registry import DEFAULT_REGISTRY, TypeRegistry
from repro.pickles.wire import (
    TAG_BYTES,
    TAG_DICT,
    TAG_FALSE,
    TAG_FLOAT,
    TAG_FROZENSET,
    TAG_INT,
    TAG_LIST,
    TAG_NONE,
    TAG_RECORD,
    TAG_REF,
    TAG_SET,
    TAG_STR,
    TAG_TRUE,
    TAG_TUPLE,
    encode_float,
    encode_varint,
)

#: default nesting bound; far above any sane database structure, far
#: below Python's recursion limit so the error is ours, not the VM's.
MAX_DEPTH = 200


class PickleWriter:
    """One encoding pass; use :func:`pickle_write` unless streaming.

    Successive :meth:`write` calls share one swizzle table, so a value
    written twice costs a back reference the second time.
    """

    __slots__ = (
        "_out", "_append", "_registry", "_max_depth", "_by_id", "_strings",
        "_blobs", "_pinned", "_described", "_count",
    )

    def __init__(
        self,
        registry: TypeRegistry | None = None,
        max_depth: int = MAX_DEPTH,
    ) -> None:
        self._registry = registry if registry is not None else DEFAULT_REGISTRY
        self._max_depth = max_depth
        self._out = bytearray()
        self._append = self._out.append
        # Swizzle table: heap objects by identity, str and bytes by value,
        # sharing one index counter.  It counts every entry in encounter
        # order and is mirrored exactly by the decoder.
        self._by_id: dict[int, int] = {}
        self._strings: dict[str, int] = {}
        self._blobs: dict[bytes, int] = {}
        self._count = 0
        # Objects kept alive so ids stay unique during the pass.
        self._pinned: list[object] = []
        # class -> (wire name, fields), asked of the registry once per pass
        self._described: dict[type, tuple] = {}

    def write(self, value: object) -> None:
        """Append the pickle of ``value`` to the output buffer."""
        self._encode(value, 1)

    def getvalue(self) -> bytes:
        """Everything written so far."""
        return bytes(self._out)

    def _encode(self, value: object, depth: int) -> None:
        if depth > self._max_depth:
            raise NestingTooDeep(self._max_depth)
        kind = type(value)
        append = self._append
        # Leaves, most frequent first.
        if kind is str:
            index = self._strings.get(value)
            if index is None:
                self._strings[value] = self._count
                self._count += 1
                raw = value.encode("utf-8")
                append(TAG_STR)
                if len(raw) < 0x80:
                    append(len(raw))
                else:
                    encode_varint(len(raw), self._out)
                self._out += raw
                return
        elif kind is int:
            append(TAG_INT)
            zigzag = value << 1 if value >= 0 else ((-value) << 1) - 1
            if zigzag < 0x80:
                append(zigzag)
            else:
                encode_varint(zigzag, self._out)
            return
        elif value is None:
            append(TAG_NONE)
            return
        elif value is False:
            append(TAG_FALSE)
            return
        elif value is True:
            append(TAG_TRUE)
            return
        elif kind is float:
            append(TAG_FLOAT)
            encode_float(value, self._out)
            return
        elif kind is bytes:
            index = self._blobs.get(value)
            if index is None:
                self._blobs[value] = self._count
                self._count += 1
                append(TAG_BYTES)
                encode_varint(len(value), self._out)
                self._out += value
                return
        else:
            # Heap objects: shared structure via identity.
            index = self._by_id.get(id(value))
        if index is not None:
            append(TAG_REF)
            if index < 0x80:
                append(index)
            else:
                encode_varint(index, self._out)
            return
        # Containers.  Mutable ones enter the table before their children
        # (cycles terminate); immutable ones after.
        depth += 1
        encode = self._encode
        if kind is dict:
            self._by_id[id(value)] = self._count
            self._count += 1
            self._pinned.append(value)
            append(TAG_DICT)
            encode_varint(len(value), self._out)
            for key, item in value.items():
                encode(key, depth)
                encode(item, depth)
        elif kind is list or kind is set:
            self._by_id[id(value)] = self._count
            self._count += 1
            self._pinned.append(value)
            append(TAG_LIST if kind is list else TAG_SET)
            encode_varint(len(value), self._out)
            for item in value if kind is list else _stable_set_order(value):
                encode(item, depth)
        elif kind is tuple or kind is frozenset:
            append(TAG_TUPLE if kind is tuple else TAG_FROZENSET)
            encode_varint(len(value), self._out)
            for item in value if kind is tuple else _stable_set_order(value):
                encode(item, depth)
            self._by_id[id(value)] = self._count
            self._count += 1
            self._pinned.append(value)
        else:
            described = self._described.get(kind)
            if described is None:
                described = self._registry.describe(kind)
                if described is None:
                    raise UnpickleableType(value)
                self._described[kind] = described
            name, fields = described
            self._by_id[id(value)] = self._count
            self._count += 1
            self._pinned.append(value)
            append(TAG_RECORD)
            encode(name, depth)
            if fields is None:
                attributes = vars(value)
                encode_varint(len(attributes), self._out)
                for field, item in attributes.items():
                    encode(field, depth)
                    encode(item, depth)
            else:
                encode_varint(len(fields), self._out)
                for field in fields:
                    encode(field, depth)
                    encode(getattr(value, field), depth)


def _stable_set_order(items: set | frozenset) -> list:
    """Deterministic element order so equal sets pickle identically."""
    try:
        return sorted(items)
    except TypeError:
        return sorted(items, key=lambda item: (type(item).__name__, repr(item)))


def pickle_write(value: object, registry: TypeRegistry | None = None) -> bytes:
    """Convert a strongly typed value into bytes (the paper's PickleWrite)."""
    writer = PickleWriter(registry)
    writer.write(value)
    return writer.getvalue()
