"""PickleRead: bytes → a copy of the original strongly typed value.

The decoder mirrors the encoder exactly: it reconstructs the swizzle table
in the same encounter order, so back references resolve to the objects the
encoder shared, "replacing addresses with addresses valid in the current
execution environment" as the paper puts it.

Safety: the input is treated as untrusted.  Every length is bounds-checked
against the remaining input, reference indices must point backwards, and
record class names must already be present in the type registry — decoding
never imports modules or calls constructors, only ``cls.__new__``.

Damage never escapes as a raw ``IndexError``, ``UnicodeDecodeError`` or
``TypeError``: every failure is a :class:`~repro.pickles.errors.PickleError`.
"""

from __future__ import annotations

from repro.pickles.errors import (
    MalformedPickle,
    NestingTooDeep,
    TruncatedPickle,
    UnknownRecordClass,
    UnknownTypeTag,
)
from repro.pickles.encode import MAX_DEPTH
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
    WireReader,
)

#: tags whose first field is a varint: an integer, a swizzle index, a
#: string length or an element count
_VARINT_LED = frozenset({
    TAG_INT, TAG_REF, TAG_STR, TAG_BYTES,
    TAG_LIST, TAG_TUPLE, TAG_SET, TAG_FROZENSET, TAG_DICT,
})
_set_field = object.__setattr__


class PickleReader:
    """One decoding pass; use :func:`pickle_read` unless streaming.

    Successive :meth:`read` calls share one swizzle table, mirroring a
    :class:`~repro.pickles.encode.PickleWriter` written to several times.
    """

    __slots__ = (
        "_data", "_size", "_pos", "_table", "_registry", "_classes", "_max_depth",
    )

    def __init__(
        self,
        data: bytes,
        registry: TypeRegistry | None = None,
        max_depth: int = MAX_DEPTH,
    ) -> None:
        self._registry = registry if registry is not None else DEFAULT_REGISTRY
        self._data = data
        self._size = len(data)
        self._pos = 0
        self._table: list[object] = []
        self._max_depth = max_depth
        # wire name -> class, asked of the registry once per pass
        self._classes: dict[str, type] = {}

    def read(self) -> object:
        """Decode the next value from the buffer.

        Damage that surfaces as a bad UTF-8 body or an unhashable dict
        key or set element is reported as :class:`MalformedPickle`, like
        every other structural fault.
        """
        try:
            return self._decode(1)
        except (UnicodeDecodeError, TypeError) as exc:
            raise MalformedPickle(f"undecodable value: {exc}") from exc

    def offset(self) -> int:
        """Current position in the buffer (for streamed log replay)."""
        return self._pos

    def at_end(self) -> bool:
        """True once every byte of the buffer has been consumed."""
        return self._pos == self._size

    # -- internals -----------------------------------------------------------

    def _decode(self, depth: int) -> object:
        # The cursor is worked on as a local and stored back before every
        # return and every recursive call.
        if depth > self._max_depth:
            raise NestingTooDeep(self._max_depth)
        data = self._data
        size = self._size
        pos = self._pos
        if pos >= size:
            raise TruncatedPickle(pos, "expected a tag byte")
        tag = data[pos]
        pos += 1
        if tag == TAG_RECORD:
            # Reserve the swizzle slot first: children may refer back to
            # the record (cyclic data structures).
            table = self._table
            slot = len(table)
            table.append(None)
            self._pos = pos
            name = self._decode(depth + 1)
            if type(name) is not str:
                raise MalformedPickle(
                    f"record class name must be a string, got {type(name).__name__}"
                )
            cls = self._classes.get(name)
            if cls is None:
                cls = self._registry.resolve(name)
                if cls is None:
                    raise UnknownRecordClass(name)
                self._classes[name] = cls
            instance = table[slot] = cls.__new__(cls)
            pos = self._pos  # at the field count
        elif tag not in _VARINT_LED:
            self._pos = pos
            if tag == TAG_FALSE:
                return False
            if tag == TAG_NONE:
                return None
            if tag == TAG_TRUE:
                return True
            if tag == TAG_FLOAT:
                wire = WireReader(data, pos)
                value = wire.read_float()
                self._pos = wire.offset
                return value
            raise UnknownTypeTag(tag, pos - 1)
        # A varint: a length, a count, an integer or a swizzle index.
        # One-byte ones (nearly all of them) are read in line.
        if pos < size and data[pos] < 0x80:
            number = data[pos]
            pos += 1
        else:
            wire = WireReader(data, pos)
            number = wire.read_varint()
            pos = wire.offset
        if tag == TAG_REF:
            self._pos = pos
            table = self._table
            if number >= len(table):
                raise MalformedPickle(
                    f"forward reference to swizzle index {number} "
                    f"(table has {len(table)} entries) at offset {pos}"
                )
            return table[number]
        if tag == TAG_INT:
            self._pos = pos
            return (number >> 1) if not number & 1 else -((number + 1) >> 1)
        # Everything else declared a length, which can never exceed the
        # bytes remaining: string bodies cost one byte per byte, container
        # elements at least one byte each.  This bounds memory allocation
        # on corrupt input.
        if number > size - pos:
            raise TruncatedPickle(
                pos, f"declared length {number} exceeds remaining input"
            )
        if tag == TAG_STR or tag == TAG_BYTES:
            self._pos = end = pos + number
            raw = data[pos:end]
            value = raw.decode("utf-8") if tag == TAG_STR else raw
            self._table.append(value)
            return value
        self._pos = pos
        depth += 1
        decode = self._decode
        if tag == TAG_RECORD:
            for _ in range(number):
                field = decode(depth)
                if type(field) is not str:
                    raise MalformedPickle(
                        f"record field name must be a string, got {type(field).__name__}"
                    )
                _set_field(instance, field, decode(depth))
            return instance
        if tag == TAG_DICT:
            mapping: dict = {}
            self._table.append(mapping)
            for _ in range(number):
                key = decode(depth)
                mapping[key] = decode(depth)
            return mapping
        if tag == TAG_LIST:
            result: list = []
            self._table.append(result)
            for _ in range(number):
                result.append(decode(depth))
            return result
        if tag == TAG_SET:
            collection: set = set()
            self._table.append(collection)
            for _ in range(number):
                collection.add(decode(depth))
            return collection
        # Immutable containers enter the table after their children.
        items = [decode(depth) for _ in range(number)]
        frozen = tuple(items) if tag == TAG_TUPLE else frozenset(items)
        self._table.append(frozen)
        return frozen


def pickle_read(data: bytes, registry: TypeRegistry | None = None) -> object:
    """Convert bytes back into a value (the paper's PickleRead).

    Raises :class:`MalformedPickle` if decoding leaves trailing garbage;
    use :class:`PickleReader` directly to stream several values from one
    buffer (as the log replayer does).
    """
    reader = PickleReader(data, registry)
    value = reader.read()
    if not reader.at_end():
        raise MalformedPickle(
            f"{len(data) - reader.offset()} trailing bytes after pickle"
        )
    return value
