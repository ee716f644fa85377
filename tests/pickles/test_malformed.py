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



class TestSegments:
    """Tag 0x0E: every disagreement between header and body is typed."""

    @staticmethod
    def blob() -> bytes:
        from tests.pickles.boxes import Box, segmented

        # "0702 0e1406 <20 body bytes> 0d05": see test_format_stability.
        return segmented([Box(["a", "b"]), "a"])

    @staticmethod
    def read(blob: bytes) -> object:
        from tests.pickles.boxes import BOXES

        return pickle_read(bytes(blob), BOXES)

    def test_truncated_body(self):
        blob = self.blob()
        for cut in range(3, len(blob) - 2):
            with pytest.raises(TruncatedPickle):
                self.read(blob[:cut])

    def test_entry_count_that_disagrees(self):
        for count in (5, 7):
            blob = bytearray(self.blob())
            blob[4] = count
            with pytest.raises(MalformedPickle, match="entries"):
                self.read(blob)

    def test_body_length_that_disagrees(self):
        longer = bytearray(self.blob())
        longer[3] += 1  # the record ends one byte before the declared end
        with pytest.raises(MalformedPickle, match="body bytes"):
            self.read(longer)
        shorter = bytearray(self.blob())
        shorter[3] -= 1  # the record's last string runs past the declared end
        with pytest.raises(TruncatedPickle):
            self.read(shorter)

    def test_back_reference_past_the_segments_own_entries(self):
        # ["x", "y", SEGMENT(RECORD "B" {"items": [REF 4]})]: the enclosing
        # table already has entries 0-2 and the segment four of its own
        # when the reference is read, but it counts from the segment.
        body = bytes.fromhex("0c050142" "01" "05056974656d73" "0701" "0d04")
        blob = bytearray.fromhex("0703" "050178" "050179" "0e")
        encode_varint(len(body), blob)
        encode_varint(4, blob)
        blob += body
        with pytest.raises(MalformedPickle, match="forward reference"):
            self.read(blob)
        blob[-1] = 0x01  # REF 1: the segment's own "B"
        assert self.read(blob)[2].items == ["B"]

    def test_segment_holding_no_record(self):
        # A segment whose body is another segment header would recurse
        # without deepening; a body must start with a record.
        blob = bytes.fromhex("0e" "0500" "0e0300" "00" "00")
        with pytest.raises(MalformedPickle, match="holds no record"):
            self.read(blob)
        with pytest.raises(MalformedPickle):
            self.read(bytes.fromhex("0e0000"))

    def test_every_truncation_and_bit_flip_is_a_typed_error(self):
        from tests.pickles.boxes import Box, segmented

        inner = Box(["é", b"\x00", 3])
        value = [Box([inner, "é", (1.5, None)]), inner, "é", [Box(["x"]), Box(["y", "z"])]]
        blob = segmented(value)
        for cut in range(len(blob)):
            with pytest.raises(PickleError):
                self.read(blob[:cut])
        for position in range(len(blob)):
            for bit in range(8):
                corrupted = bytearray(blob)
                corrupted[position] ^= 1 << bit
                try:
                    self.read(corrupted)
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
