"""The nesting depth guard: deterministic errors, never RecursionError."""

from __future__ import annotations

import pytest

from repro.pickles import PickleError, pickle_read, pickle_write
from repro.pickles.decode import PickleReader
from repro.pickles.encode import MAX_DEPTH, PickleWriter
from repro.pickles.errors import NestingTooDeep


def deep_list(depth: int) -> list:
    value = inner = []
    for _ in range(depth):
        nested: list = []
        inner.append(nested)
        inner = nested
    return value


class TestDepthGuard:
    def test_under_limit_roundtrips(self):
        value = deep_list(MAX_DEPTH - 10)
        assert pickle_read(pickle_write(value)) is not None

    def test_encode_over_limit_raises_cleanly(self):
        with pytest.raises(NestingTooDeep):
            pickle_write(deep_list(MAX_DEPTH + 10))

    def test_nesting_error_is_a_pickle_error(self):
        assert issubclass(NestingTooDeep, PickleError)

    def test_decode_over_limit_raises_cleanly(self):
        """Hostile input with huge declared nesting cannot blow the stack."""
        # Hand-build LIST-of-LIST-of-… deeper than the limit: each level
        # is tag 0x07 + count 1.
        blob = b"\x07\x01" * (MAX_DEPTH + 50) + b"\x00"  # innermost: None
        with pytest.raises(NestingTooDeep):
            pickle_read(blob)

    def test_custom_limits(self):
        writer = PickleWriter(max_depth=5)
        with pytest.raises(NestingTooDeep):
            writer.write(deep_list(10))
        blob = pickle_write(deep_list(10))
        with pytest.raises(NestingTooDeep):
            PickleReader(blob, max_depth=5).read()
        assert PickleReader(blob, max_depth=50).read() is not None

    def test_wide_structures_unaffected(self):
        """Depth, not size: a wide flat structure is fine."""
        value = {f"key{i}": [i] * 3 for i in range(2000)}
        assert pickle_read(pickle_write(value)) == value

    def test_cycles_do_not_count_as_depth(self):
        value: list = []
        value.append(value)
        assert pickle_read(pickle_write(value))[0] is not None


class TestDepthAcrossSegments:
    """A segment is a record at its own depth: the limit does not move."""

    @staticmethod
    def boxed(depth: int):
        from tests.pickles.boxes import Box

        return [Box([deep_list(depth), 1])]  # the list sits 3 levels down

    def test_encoder_limit_is_the_plain_one(self):
        from tests.pickles.boxes import BOXES, segmented

        for depth in (MAX_DEPTH - 4, MAX_DEPTH - 3):
            value = self.boxed(depth)
            try:
                pickle_write(value, BOXES)
            except NestingTooDeep:
                with pytest.raises(NestingTooDeep):
                    segmented(value)
            else:
                assert pickle_read(segmented(value), BOXES) is not None

    def test_decoder_counts_levels_inside_a_segment(self):
        from tests.pickles.boxes import BOXES, segmented

        blob = segmented(self.boxed(20))
        with pytest.raises(NestingTooDeep):
            PickleReader(blob, BOXES, max_depth=20).read()
        assert PickleReader(blob, BOXES, max_depth=30).read() is not None
        plain = pickle_write(self.boxed(20), BOXES)
        for limit in range(18, 30):
            try:
                PickleReader(plain, BOXES, max_depth=limit).read()
            except NestingTooDeep:
                with pytest.raises(NestingTooDeep):
                    PickleReader(blob, BOXES, max_depth=limit).read()
            else:
                assert PickleReader(blob, BOXES, max_depth=limit).read() is not None

    def test_hostile_nesting_through_segments(self):
        """Segments inside records inside segments, past the limit: typed."""
        from repro.pickles.wire import encode_varint
        from tests.pickles.boxes import BOXES

        body = b"\x00"
        for level in range(1, MAX_DEPTH // 2 + 10):
            # RECORD "B" {"items": [body]} (two levels deeper each time),
            # wrapped in a segment header counting its entries and those
            # of the segments inside it
            record = bytes.fromhex("0c050142" "01" "05056974656d73" "0701") + body
            head = bytearray(b"\x0e")
            encode_varint(len(record), head)
            encode_varint(4 * level, head)
            body = bytes(head) + record
        with pytest.raises(NestingTooDeep):
            pickle_read(body, BOXES)
