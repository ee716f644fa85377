"""Low-level wire format shared by the pickle encoder and decoder.

Integers and lengths use unsigned LEB128 varints; signed integers are
zigzag-mapped first.  Every value starts with a one-byte type tag.
"""

from __future__ import annotations

import struct

from repro.pickles.errors import MalformedPickle, TruncatedPickle

# Type tags.  Stable on the wire: these values appear in checkpoints and
# log files, so they must never be renumbered.
TAG_NONE = 0x00
TAG_FALSE = 0x01
TAG_TRUE = 0x02
TAG_INT = 0x03
TAG_FLOAT = 0x04
TAG_STR = 0x05
TAG_BYTES = 0x06
TAG_LIST = 0x07
TAG_TUPLE = 0x08
TAG_SET = 0x09
TAG_FROZENSET = 0x0A
TAG_DICT = 0x0B
TAG_RECORD = 0x0C
TAG_REF = 0x0D
#: a record written with its own swizzle table: body length, entry count, body
TAG_SEGMENT = 0x0E

_FLOAT_STRUCT = struct.Struct(">d")


def encode_varint(value: int, out: bytearray) -> None:
    """Append an unsigned LEB128 varint to ``out``."""
    if value < 0:
        raise ValueError("varint requires a non-negative integer")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def zigzag(value: int) -> int:
    """Map a signed integer to an unsigned one, small magnitudes first.

    Works for Python's unbounded integers: 0→0, -1→1, 1→2, -2→3, …
    """
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def unzigzag(value: int) -> int:
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


def encode_signed(value: int, out: bytearray) -> None:
    encode_varint(zigzag(value), out)


def encode_float(value: float, out: bytearray) -> None:
    out.extend(_FLOAT_STRUCT.pack(value))


class WireReader:
    """A bounds-checked cursor over a pickle byte string."""

    __slots__ = ("data", "offset")

    def __init__(self, data: bytes, offset: int = 0) -> None:
        self.data = data
        self.offset = offset

    def remaining(self) -> int:
        return len(self.data) - self.offset

    def read_byte(self) -> int:
        if self.offset >= len(self.data):
            raise TruncatedPickle(self.offset, "expected a tag byte")
        byte = self.data[self.offset]
        self.offset += 1
        return byte

    def read_varint(self) -> int:
        shift = 0
        result = 0
        start = self.offset
        while True:
            if self.offset >= len(self.data):
                raise TruncatedPickle(start, "unterminated varint")
            byte = self.data[self.offset]
            self.offset += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 10_000:
                raise MalformedPickle(f"varint too long at offset {start}")

    def read_signed(self) -> int:
        return unzigzag(self.read_varint())

    def read_float(self) -> float:
        end = self.offset + 8
        if end > len(self.data):
            raise TruncatedPickle(self.offset, "truncated float")
        (value,) = _FLOAT_STRUCT.unpack_from(self.data, self.offset)
        self.offset = end
        return value

    def read_bytes(self, length: int) -> bytes:
        end = self.offset + length
        if end > len(self.data):
            raise TruncatedPickle(
                self.offset, f"wanted {length} bytes, {self.remaining()} left"
            )
        chunk = self.data[self.offset : end]
        self.offset = end
        return chunk
