"""Decoder behaviour on corrupt, truncated and hostile inputs.

The database reads pickles back from disk files that can be torn or
damaged; every failure must be a clean, typed error — never a crash, hang
or huge allocation.
"""

from __future__ import annotations

import pytest

from repro.pickles import (
    MalformedPickle,
    PickleError,
    TruncatedPickle,
    TypeRegistry,
    UnknownTypeTag,
    pickle_read,
    pickle_write,
)
from repro.pickles.wire import WireReader, encode_varint, unzigzag, zigzag


class TestTruncation:
    def test_empty_input(self):
        with pytest.raises(TruncatedPickle):
            pickle_read(b"")

    @pytest.mark.parametrize("value", [12345, "hello world", [1, 2, 3], {"k": "v"}])
    def test_every_prefix_fails_cleanly(self, value):
        blob = pickle_write(value)
        for cut in range(len(blob)):
            with pytest.raises(PickleError):
                pickle_read(blob[:cut])

    def test_truncated_float(self):
        blob = pickle_write(1.5)
        with pytest.raises(TruncatedPickle):
            pickle_read(blob[:4])


class TestCorruption:
    def test_unknown_tag(self):
        with pytest.raises(UnknownTypeTag):
            pickle_read(b"\xff")

    def test_forward_reference_rejected(self):
        # REF to index 99 with an empty swizzle table.
        blob = bytearray([0x0D])
        encode_varint(99, blob)
        with pytest.raises(MalformedPickle):
            pickle_read(bytes(blob))

    def test_huge_declared_length_rejected_without_allocation(self):
        # STR claiming 2**40 bytes with a 3-byte body must fail fast.
        blob = bytearray([0x05])
        encode_varint(2**40, blob)
        blob += b"abc"
        with pytest.raises(TruncatedPickle):
            pickle_read(bytes(blob))

    def test_huge_container_count_rejected(self):
        blob = bytearray([0x07])  # LIST
        encode_varint(2**40, blob)
        with pytest.raises(TruncatedPickle):
            pickle_read(bytes(blob))

    def test_record_name_must_be_string(self):
        # RECORD whose "name" is an int.
        blob = bytearray([0x0C, 0x03])
        encode_varint(zigzag(7), blob)
        encode_varint(0, blob)
        with pytest.raises(MalformedPickle):
            pickle_read(bytes(blob), TypeRegistry())

    def test_every_truncation_and_bit_flip_is_a_typed_error(self):
        """Damage decodes or raises ``PickleError`` — nothing else, ever.

        Not ``IndexError`` from a cut buffer, ``UnicodeDecodeError`` from a
        bad string body, ``TypeError`` from a list turned dict key, nor
        ``RecursionError``: recovery and fsck catch one family.
        """
        from repro.nameserver.tree import Leaf

        shared = ["srv", 1, (2.5, b"blob")]
        value = {
            "name": shared,
            "again": shared,
            "n": -(10**12),
            "flags": (None, True, False, frozenset({"a"}), {1, 2}),
            "leaf": Leaf({"k": "é" * 3}, 300, "replica", deleted=True),
        }
        blob = pickle_write(value)
        for cut in range(len(blob)):
            with pytest.raises(PickleError):
                pickle_read(blob[:cut])
        for position in range(len(blob)):
            for bit in range(8):
                corrupted = bytearray(blob)
                corrupted[position] ^= 1 << bit
                try:
                    pickle_read(bytes(corrupted))
                except PickleError:
                    pass


class TestVarints:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**20, 2**63, 2**100])
    def test_varint_roundtrip(self, value):
        out = bytearray()
        encode_varint(value, out)
        assert WireReader(bytes(out)).read_varint() == value

    def test_varint_rejects_negative(self):
        with pytest.raises(ValueError):
            encode_varint(-1, bytearray())

    @pytest.mark.parametrize("value", [0, 1, -1, 2, -2, 2**80, -(2**80)])
    def test_zigzag_roundtrip(self, value):
        assert unzigzag(zigzag(value)) == value

    def test_zigzag_orders_by_magnitude(self):
        assert zigzag(0) < zigzag(-1) < zigzag(1) < zigzag(-2) < zigzag(2)

    def test_unterminated_varint(self):
        with pytest.raises(TruncatedPickle):
            WireReader(b"\x80\x80\x80").read_varint()
