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

A :class:`SegmentCache` pass (the checkpoint's) writes the records a
registry marks as segments with tables of their own and keeps their
bytes for the next pass; plain :func:`pickle_write` never does.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import lt
from sys import getrefcount

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
    TAG_SEGMENT,
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
    written twice costs a back reference the second time.  With a
    ``cache`` it is the top of that :class:`SegmentCache`'s pass, which
    :meth:`SegmentCache.write` drives.
    """

    __slots__ = (
        "_out", "_append", "_registry", "_max_depth", "_by_id", "_strings",
        "_blobs", "_pinned", "_described", "_count", "_cache", "_parts",
        "_placed", "_exported",
    )

    def __init__(
        self,
        registry: TypeRegistry | None = None,
        max_depth: int = MAX_DEPTH,
        cache: SegmentCache | None = None,
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
        # class -> (wire name, fields, segment rule), asked of the registry
        # once per pass; the rule is None unless segments are being cached
        self._described: dict[type, tuple] = {}
        # The top of a SegmentCache pass: the cache, finished output
        # pieces, every segment record spliced so far -> (its first table
        # index, the segment placed there), and the cache's index of the
        # keys segments export, looked up once a segment is spliced.
        self._cache = cache
        self._parts: list | None = None
        self._placed: dict | None = None
        self._exported: dict | None = None
        if cache is not None:
            self._parts = []
            self._placed = {}
            self._exported = cache._holders

    def write(self, value: object) -> None:
        """Append the pickle of ``value`` to the output buffer."""
        self._encode(value, 1)

    def getvalue(self) -> bytes:
        """Everything written so far."""
        if self._parts is None:
            return bytes(self._out)
        return b"".join(self._parts + [self._out])

    def _encode(self, value: object, depth: int) -> None:
        if depth > self._max_depth:
            raise NestingTooDeep(self._max_depth)
        kind = type(value)
        append = self._append
        # Leaves, most frequent first.
        if kind is str:
            index = self._strings.get(value)
            if index is None and self._placed and value in self._exported:
                index = self._resolve(self._strings, value, value)
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
            if index is None and self._placed and value in self._exported:
                index = self._resolve(self._blobs, value, value)
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
            if index is None and self._placed and id(value) in self._exported:
                index = self._resolve(self._by_id, id(value), value)
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
                rule = None
                if self._cache is not None:
                    rule = self._registry.segment_rule(kind)
                described = self._described[kind] = (*described, rule)
            name, fields, rule = described
            if rule is not None and rule(value):
                self._splice(value, depth - 1)
                return
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

    def _splice(self, value: object, depth: int) -> None:
        """Write ``value`` as a segment: its cached bytes, or fresh ones.

        The bytes are reused only if this cache wrote them at this depth
        and ``value.pickle_segment`` still holds them: a mutator resets
        the attribute, and a decoded record may carry anything in it.
        """
        cache = self._cache
        segment = cache._indexed.get(value)
        if (
            segment is None
            or getattr(value, "pickle_segment", None) is not segment
            or segment.depth != depth
        ):
            segment = cache._encode(value, depth, self._max_depth)
            value.pickle_segment = segment
        if self._out:
            self._parts.append(bytes(self._out))
            self._out.clear()
        self._parts += segment.parts
        self._placed[value] = (self._count, segment)
        self._count += segment.count

    def _resolve(self, table: dict, key: object, value: object) -> int | None:
        """The index of ``key`` in the one segment spliced so far holding it."""
        holder = self._exported[key]
        if type(holder) is set:
            spliced = [record for record in holder if record in self._placed]
            if len(spliced) != 1:
                return None
            holder = spliced[0]
        placed = self._placed.get(holder)
        if placed is None:
            return None
        base, segment = placed
        index = table[key] = base + segment.exports[key]
        if value is not key:
            self._pinned.append(value)
        return index


def _stable_set_order(items: set | frozenset) -> list:
    """Deterministic element order so equal sets pickle identically.

    The native order serves only when it is total: frozensets compare by
    inclusion, so sorting them keeps whatever order hashing gave.  Any
    other set sorts by its elements' type names and reprs.
    """
    try:
        ordered = sorted(items)
        if all(map(lt, ordered, ordered[1:])):
            return ordered
    except TypeError:
        pass
    return sorted(items, key=_canonical_key)


def _canonical_key(item: object) -> tuple[str, str]:
    """``(type name, repr)``, where no frozenset's repr follows hash order."""
    kind = type(item)
    if kind is frozenset:
        text = ", ".join(key[1] for key in sorted(map(_canonical_key, item)))
        return "frozenset", f"frozenset({{{text}}})" if item else "frozenset()"
    if kind is tuple:
        text = ", ".join(_canonical_key(element)[1] for element in item)
        return "tuple", f"({text},)" if len(item) == 1 else f"({text})"
    return kind.__name__, repr(item)


def pickle_write(value: object, registry: TypeRegistry | None = None) -> bytes:
    """Convert a strongly typed value into bytes (the paper's PickleWrite)."""
    writer = PickleWriter(registry)
    writer.write(value)
    return writer.getvalue()


# -- segments: a checkpoint that re-encodes only what changed ---------------


@dataclass(slots=True, eq=False)
class Segment:
    """One record's cached encoding and what it exports."""

    #: tag and header, then the body
    parts: tuple[bytes, bytes]
    #: swizzle-table entries the segment adds
    count: int
    #: the nesting depth it was written at; reused only at that depth
    depth: int
    #: string, byte string or object id -> index from the first entry
    exports: dict
    #: the exported objects, kept alive so their ids stay theirs
    held: list


def _held_beyond(objects: list, count: int) -> list:
    """Those of ``objects`` whose reference count here exceeds ``count``."""
    return list(compress(objects, map(count.__lt__, map(getrefcount, objects))))


#: the count ``_held_beyond`` sees for an object only its list holds
_ALONE = next(count for count in range(64) if not _held_beyond([object()], count))


class SegmentCache:
    """Checkpoint pickling that copies the segments nothing has changed.

    A record class registered with a ``segment`` rule (the name tree's
    wide nodes) is written by a cache pass as a **segment**: tag ``0x0E``,
    the body's length, its swizzle-table entry count, and the body — the
    record pickled with a table of its own, so a back reference inside it
    counts from the segment's first entry.  The bytes do not depend on
    anything outside the record's subtree, so the pass keeps them in the
    record's ``pickle_segment`` attribute and copies them into the next
    checkpoint as they are, unless a mutation below the record has reset
    the attribute to ``None``.  Segments do not nest: a segment record
    inside a segment is written in line by the plain writer of the body.

    The decoder appends a segment's entries to the enclosing table, so
    what follows the segment may refer back into it.  The top of the pass
    does so for a string, a byte string or an object it would otherwise
    write afresh when exactly one segment spliced before it exports that
    key; two or more mean it is written afresh.  That rule depends only on
    the bytes written before it, never on which segments came from the
    cache, so a pass over cached segments gives the same bytes as one that
    encodes every segment.  A segment exports all its strings and byte
    strings, and the objects that something besides their container holds
    — an object held once can only be reached through its container,
    which is inside the segment.

    One cache serves one database: it knows the segment of every record
    its last pass spliced and which keys each exports.  ``write(root)``
    returns a pickle that ``pickle_read`` decodes to a root equal to the
    one ``pickle_write(root)`` gives; a reader from before tag ``0x0E``
    rejects it as an unknown tag.
    """

    def __init__(self, registry: TypeRegistry | None = None) -> None:
        self._registry = registry if registry is not None else DEFAULT_REGISTRY
        #: exported key -> the segment record exporting it, or a set of them
        self._holders: dict[object, object] = {}
        #: segment record -> the segment whose exports ``_holders`` lists
        self._indexed: dict[object, Segment] = {}

    def write(self, value: object) -> bytes:
        """One pass: pickle ``value``, reusing every clean segment."""
        writer = PickleWriter(self._registry, cache=self)
        writer.write(value)
        payload = writer.getvalue()
        for record in self._indexed.keys() - writer._placed.keys():
            self._index(record, self._indexed.pop(record).exports, {})
        return payload

    def _encode(self, value: object, depth: int, max_depth: int) -> Segment:
        """Write ``value`` afresh as a segment at ``depth`` and index it.

        A plain writer writes the body, so a segment record inside it is
        written in line: segments do not nest.
        """
        writer = PickleWriter(self._registry, max_depth)
        writer._encode(value, depth)
        body = writer.getvalue()
        header = bytearray((TAG_SEGMENT,))
        encode_varint(len(body), header)
        encode_varint(writer._count, header)
        exports = writer._strings
        exports.update(writer._blobs)
        # In the pinned list and one container: nothing else can refer to it.
        held = _held_beyond(writer._pinned, _ALONE + 1)
        by_id = writer._by_id
        for obj in held:
            exports[id(obj)] = by_id[id(obj)]
        segment = Segment((bytes(header), body), writer._count, depth, exports, held)
        previous = self._indexed.get(value)
        self._index(value, previous.exports if previous else {}, exports)
        self._indexed[value] = segment
        return segment

    def _index(self, record: object, before: dict, after: dict) -> None:
        """Move ``record``'s exports in the index from ``before`` to ``after``."""
        holders = self._holders
        added = after.keys() - before.keys()
        first = added.difference(holders)
        holders.update(dict.fromkeys(first, record))
        for key in added - first:
            current = holders[key]
            if type(current) is set:
                current.add(record)
            else:
                holders[key] = {current, record}
        for key in before.keys() - after.keys():
            current = holders[key]
            if current is record:
                del holders[key]
            else:
                current.discard(record)
                if len(current) == 1:
                    holders[key] = current.pop()
